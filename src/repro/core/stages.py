"""Conversation-stage assignment (Section III-C, edge-level annotation).

Each request/response pair in a WCG belongs to one of three stages:

* **PRE_DOWNLOAD (0)** — the redirection run-up.  Per the paper: a GET
  request, no known exploit payload downloaded to the victim prior to it,
  and a 30x response code.  The *last* 30x marks the end of this stage.
* **DOWNLOAD (1)** — everything between the redirection run-up and the
  last 20x response whose content is a known exploit payload type.
* **POST_DOWNLOAD (2)** — POST requests to nodes from which no known
  exploit payload was downloaded, answered with 200 or 40x, after the
  download stage completed.

No Table II feature reads a stage, so nothing stores one: the readers
(trace ``edge`` events, watch snapshots, Table I's call-back prevalence)
derive stages when they ask, through :func:`assign_stages` — per edge
via :meth:`repro.core.builder.WCGBuilder.edge_stages`.
"""

from __future__ import annotations

import enum

from repro.core.model import HttpMethod, HttpTransaction
from repro.core.payloads import is_exploit_type

__all__ = ["Stage", "assign_stages"]


class Stage(enum.IntEnum):
    """Conversation stage of an edge (values match the paper's 0/1/2)."""

    PRE_DOWNLOAD = 0
    DOWNLOAD = 1
    POST_DOWNLOAD = 2


def _response_ts(txn: HttpTransaction) -> float:
    response = txn.response
    return response.timestamp if response is not None else txn.timestamp


def assign_stages(transactions: list[HttpTransaction]) -> list[Stage]:
    """Assign a :class:`Stage` to each transaction, in input order.

    Three sweeps over the stable timestamp sort: the exploit boundaries
    (first/last exploit-20x response time, exploit-serving hosts), then
    the last qualifying 30x, then the per-transaction rule.
    """
    ordered = sorted(transactions, key=lambda t: t.timestamp)
    exploits = [
        txn for txn in ordered
        if txn.response is not None and 200 <= txn.status < 300
        and is_exploit_type(txn.payload_type)
    ]
    exploit_hosts = {txn.server for txn in exploits}
    first_exploit = exploits[0].response.timestamp if exploits else None
    last_exploit = exploits[-1].response.timestamp if exploits else None

    def run_up_30x(txn: HttpTransaction) -> bool:
        # GET + 30x before any exploit payload landed.
        return (txn.request.method is HttpMethod.GET
                and 300 <= txn.status < 400
                and (first_exploit is None or txn.timestamp < first_exploit))

    last_30x = None
    for txn in ordered:
        if run_up_30x(txn):
            last_30x = _response_ts(txn)

    def stage_of(txn: HttpTransaction) -> Stage:
        if run_up_30x(txn):
            return Stage.PRE_DOWNLOAD
        is_post = txn.request.method is HttpMethod.POST
        # Plain fetches answered inside the redirection run-up (response
        # before the last qualifying 30x) are the landing-page hops.
        if last_30x is not None and not is_post and _response_ts(txn) <= last_30x:
            return Stage.PRE_DOWNLOAD
        # A post-download stage presupposes a download: streams that
        # never delivered an exploit payload have no post-download edges.
        status = txn.status
        if (
            is_post
            and last_exploit is not None
            and txn.timestamp >= last_exploit
            and txn.server not in exploit_hosts
            and (status == 200 or 400 <= status < 500 or status == 0)
        ):
            return Stage.POST_DOWNLOAD
        return Stage.DOWNLOAD

    return [stage_of(txn) for txn in transactions]
