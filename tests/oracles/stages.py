"""Reference conversation stages: the seed's three-sweep batch rule and
the per-edge rule the WCG builder used to write into a ``stage`` column.

``three_sweep`` is the original batch algorithm, verbatim.  ``edge_stages``
replays the builder's edge sequence on its own — request, response, the
origin link after the first transaction, then the redirects each
transaction reveals — and stages every edge the way the stored column
ended up after the builder's relabel loops: a request or response edge
takes its transaction's stage, the origin link is ``PRE_DOWNLOAD``, and a
redirect takes the stage of the last transaction stamped at or before
it (``PRE_DOWNLOAD`` when there is none).
"""

from __future__ import annotations

from repro.core.model import HttpMethod, HttpTransaction
from repro.core.payloads import is_exploit_type
from repro.core.redirects import RedirectInferencer
from repro.core.stages import Stage
from repro.core.wcg import EMPTY_ORIGIN, EdgeKind


def three_sweep(transactions: list[HttpTransaction]) -> list[Stage]:
    """The seed batch algorithm, three sweeps over the sorted stream."""
    if not transactions:
        return []
    order = sorted(range(len(transactions)),
                   key=lambda i: transactions[i].timestamp)

    first_exploit_ts: float | None = None
    last_exploit_ts: float | None = None
    exploit_hosts: set[str] = set()
    for index in order:
        txn = transactions[index]
        if txn.response is None:
            continue
        if 200 <= txn.status < 300 and is_exploit_type(txn.payload_type):
            exploit_hosts.add(txn.server)
            if first_exploit_ts is None:
                first_exploit_ts = txn.response.timestamp
            last_exploit_ts = txn.response.timestamp

    last_30x_ts: float | None = None
    for index in order:
        txn = transactions[index]
        if txn.request.method is not HttpMethod.GET:
            continue
        if not 300 <= txn.status < 400:
            continue
        if first_exploit_ts is not None and txn.timestamp >= first_exploit_ts:
            continue
        last_30x_ts = txn.response.timestamp if txn.response else txn.timestamp

    stages: list[Stage] = [Stage.DOWNLOAD] * len(transactions)
    for index in order:
        txn = transactions[index]
        is_post_method = txn.request.method is HttpMethod.POST
        response_ts = txn.response.timestamp if txn.response else txn.timestamp
        if (
            txn.request.method is HttpMethod.GET
            and 300 <= txn.status < 400
            and (first_exploit_ts is None or txn.timestamp < first_exploit_ts)
        ):
            stages[index] = Stage.PRE_DOWNLOAD
            continue
        if (
            last_30x_ts is not None
            and response_ts <= last_30x_ts
            and not is_post_method
        ):
            stages[index] = Stage.PRE_DOWNLOAD
            continue
        if (
            is_post_method
            and txn.server not in exploit_hosts
            and (txn.status == 200 or 400 <= txn.status < 500
                 or txn.status == 0)
            and last_exploit_ts is not None
            and txn.timestamp >= last_exploit_ts
        ):
            stages[index] = Stage.POST_DOWNLOAD
            continue
        stages[index] = Stage.DOWNLOAD
    return stages


def edge_stages(
    transactions: list[HttpTransaction],
) -> list[tuple[EdgeKind, float, Stage]]:
    """``(kind, timestamp, stage)`` of every edge a default-origin
    builder appends for ``transactions``, in edge order."""
    if not transactions:
        return []
    ordered = sorted(transactions, key=lambda t: t.timestamp)
    stages = three_sweep(ordered)
    origin = ordered[0].request.referrer_host or EMPTY_ORIGIN
    inferencer = RedirectInferencer()
    edges: list[tuple[EdgeKind, float, Stage]] = []
    for seq, txn in enumerate(ordered):
        edges.append((EdgeKind.REQUEST, txn.request.timestamp, stages[seq]))
        if txn.response is not None:
            edges.append((EdgeKind.RESPONSE, txn.response.timestamp,
                          stages[seq]))
        if seq == 0 and origin != txn.server:
            edges.append((EdgeKind.REDIRECT, txn.timestamp,
                          Stage.PRE_DOWNLOAD))
        for redirect in inferencer.observe(txn):
            governing = [index for index, other in enumerate(ordered)
                         if other.timestamp <= redirect.timestamp]
            edges.append((EdgeKind.REDIRECT, redirect.timestamp,
                          stages[governing[-1]] if governing
                          else Stage.PRE_DOWNLOAD))
    return edges
