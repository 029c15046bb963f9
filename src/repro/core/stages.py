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

The assignment is *resumable*: :class:`StageAssigner` ingests one
transaction at a time and reports exactly which already-assigned stages
a new arrival invalidated.  The stage of a transaction is a pure
function of the transaction itself plus four running boundary values —
the first/last exploit-payload response timestamps, the last qualifying
30x response timestamp, and the set of exploit-serving hosts — so when
a new transaction moves a boundary, only the transactions whose
qualifying predicate straddles the old and new boundary values need
re-labelling.  Those candidates are found with :mod:`bisect` over small
per-rule sorted indexes, keeping the per-add cost O(log n + relabels)
instead of the three full sweeps the batch algorithm runs.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right, insort

from repro.core.model import HttpMethod, HttpTransaction
from repro.core.payloads import is_exploit_type

__all__ = ["Stage", "StageAssigner", "assign_stages"]

#: Sentinel seq bounds so ``(ts, seq)`` window bisects are inclusive.
_SEQ_LO = -1
_SEQ_HI = 2**62


class Stage(enum.IntEnum):
    """Conversation stage of an edge (values match the paper's 0/1/2)."""

    PRE_DOWNLOAD = 0
    DOWNLOAD = 1
    POST_DOWNLOAD = 2


#: The per-transaction inputs of the stage rules:
#: ``(ts, resp_ts, method, status, server, is_exploit)``.
_TxnFacts = tuple[float, float, HttpMethod, int, str, bool]


def _facts_of(txn: HttpTransaction) -> _TxnFacts:
    response = txn.response
    return (
        txn.timestamp,
        response.timestamp if response is not None else txn.timestamp,
        txn.request.method,
        txn.status,
        txn.server,
        response is not None
        and 200 <= txn.status < 300
        and is_exploit_type(txn.payload_type),
    )


class StageAssigner:
    """Incremental stage assignment over a growing transaction stream.

    Transactions are identified by their feed order (``seq``); the
    logical conversation order is ``(timestamp, seq)``, matching the
    stable timestamp sort of the batch algorithm, so out-of-order
    arrivals are handled exactly.  :meth:`add` returns every
    ``(seq, stage)`` whose assignment changed — always including the new
    transaction's own — which the WCG builder uses to re-label the
    affected edges in place.
    """

    def __init__(self) -> None:
        self._facts: list[_TxnFacts] = []
        self._stages: list[Stage] = []
        # Exploit 20x responses in (ts, seq) order; values are response
        # timestamps.  first/last element give the two exploit boundaries.
        self._exploit_keys: list[tuple[float, int]] = []
        self._exploit_resp: list[float] = []
        self._exploit_hosts: set[str] = set()
        # GET+30x transactions (rule-1 / last-30x candidates).
        self._r30_keys: list[tuple[float, int]] = []
        self._r30_resp: list[float] = []
        # POSTs whose status shape can ever qualify for POST_DOWNLOAD.
        self._post_keys: list[tuple[float, int]] = []
        self._posts_by_host: dict[str, list[int]] = {}
        # Non-POST transactions keyed by response timestamp (rule-2).
        self._resp_keys: list[tuple[float, int]] = []

    # -- boundary views -----------------------------------------------------

    @property
    def transaction_count(self) -> int:
        """Number of transactions ingested so far."""
        return len(self._facts)

    def current_stage(self, seq: int) -> Stage:
        """The stage currently assigned to transaction ``seq``."""
        return self._stages[seq]

    def stages(self) -> list[Stage]:
        """All current stages, in feed (``seq``) order."""
        return list(self._stages)

    def _first_exploit_ts(self) -> float | None:
        return self._exploit_resp[0] if self._exploit_resp else None

    def _last_exploit_ts(self) -> float | None:
        return self._exploit_resp[-1] if self._exploit_resp else None

    def _last_30x_ts(self) -> float | None:
        """Last qualifying 30x: the newest GET+30x preceding the first
        exploit download (all of them when no exploit landed yet)."""
        first_exploit = self._first_exploit_ts()
        if first_exploit is None:
            cut = len(self._r30_keys)
        else:
            cut = bisect_left(self._r30_keys, (first_exploit, _SEQ_LO))
        return self._r30_resp[cut - 1] if cut else None

    # -- the pure stage rule ------------------------------------------------

    def _stage_of(self, facts: _TxnFacts) -> Stage:
        ts, resp_ts, method, status, server, _ = facts
        first_exploit = self._first_exploit_ts()
        is_post = method is HttpMethod.POST

        # Pre-download: GET + 30x, before any exploit payload landed.
        if (
            method is HttpMethod.GET
            and 300 <= status < 400
            and (first_exploit is None or ts < first_exploit)
        ):
            return Stage.PRE_DOWNLOAD

        # Also pre-download: plain 20x page fetches that happen while the
        # redirection run-up is still in progress (response before the
        # last qualifying 30x) — these are the landing-page hops.
        last_30x = self._last_30x_ts()
        if last_30x is not None and resp_ts <= last_30x and not is_post:
            return Stage.PRE_DOWNLOAD

        # Post-download: POST to a host that served no exploit payload,
        # answered 200 or 40x, after the download stage completed.  A
        # post-download stage presupposes a download: streams that never
        # delivered an exploit payload have no post-download edges.
        last_exploit = self._last_exploit_ts()
        if (
            is_post
            and server not in self._exploit_hosts
            and (status == 200 or 400 <= status < 500 or status == 0)
            and last_exploit is not None
            and ts >= last_exploit
        ):
            return Stage.POST_DOWNLOAD

        return Stage.DOWNLOAD

    # -- incremental feed ---------------------------------------------------

    @staticmethod
    def _window(keys: list[tuple[float, int]], lo: float | None,
                hi: float | None) -> list[int]:
        """Seqs of entries with key value in ``[lo, hi]`` (None = open)."""
        start = 0 if lo is None else bisect_left(keys, (lo, _SEQ_LO))
        stop = len(keys) if hi is None else bisect_right(keys, (hi, _SEQ_HI))
        return [seq for _, seq in keys[start:stop]]

    def add(self, txn: HttpTransaction) -> list[tuple[int, Stage]]:
        """Ingest one transaction; returns every changed ``(seq, stage)``.

        The returned list always contains the new transaction's own
        assignment; earlier transactions appear only when a moved
        boundary actually changed their stage.
        """
        seq = len(self._facts)
        facts = _facts_of(txn)
        ts, resp_ts, method, status, server, is_exploit = facts

        old_first = self._first_exploit_ts()
        old_last = self._last_exploit_ts()
        old_30x = self._last_30x_ts()

        key = (ts, seq)
        if is_exploit:
            at = bisect_right(self._exploit_keys, key)
            self._exploit_keys.insert(at, key)
            self._exploit_resp.insert(at, resp_ts)
        if method is HttpMethod.GET and 300 <= status < 400:
            at = bisect_right(self._r30_keys, key)
            self._r30_keys.insert(at, key)
            self._r30_resp.insert(at, resp_ts)
        if method is HttpMethod.POST:
            if status == 200 or 400 <= status < 500 or status == 0:
                insort(self._post_keys, key)
                self._posts_by_host.setdefault(server, []).append(seq)
        else:
            insort(self._resp_keys, (resp_ts, seq))

        affected: set[int] = set()
        new_first = self._first_exploit_ts()
        if new_first != old_first:
            # Rule 1 flips only for GET+30x with ts between the old and
            # new first-exploit boundary (None behaves as +infinity).
            if old_first is None or new_first is None:
                lo, hi = (new_first if old_first is None else old_first), None
            else:
                lo, hi = min(old_first, new_first), max(old_first, new_first)
            affected.update(self._window(self._r30_keys, lo, hi))
        new_30x = self._last_30x_ts()
        if new_30x != old_30x:
            # Rule 2 flips only for non-POSTs whose response timestamp
            # lies between the boundaries (None behaves as -infinity).
            if old_30x is None or new_30x is None:
                lo, hi = None, (new_30x if old_30x is None else old_30x)
            else:
                lo, hi = min(old_30x, new_30x), max(old_30x, new_30x)
            affected.update(self._window(self._resp_keys, lo, hi))
        new_last = self._last_exploit_ts()
        if new_last != old_last:
            # Rule 3 flips only for candidate POSTs between the moved
            # last-exploit boundary values (None behaves as +infinity).
            if old_last is None or new_last is None:
                lo, hi = (new_last if old_last is None else old_last), None
            else:
                lo, hi = min(old_last, new_last), max(old_last, new_last)
            affected.update(self._window(self._post_keys, lo, hi))
        if is_exploit and server not in self._exploit_hosts:
            self._exploit_hosts.add(server)
            affected.update(self._posts_by_host.get(server, ()))

        self._facts.append(facts)
        self._stages.append(Stage.DOWNLOAD)
        affected.discard(seq)

        changes: list[tuple[int, Stage]] = []
        for other in sorted(affected):
            stage = self._stage_of(self._facts[other])
            if stage is not self._stages[other]:
                self._stages[other] = stage
                changes.append((other, stage))
        own = self._stage_of(facts)
        self._stages[seq] = own
        changes.append((seq, own))
        return changes


def assign_stages(transactions: list[HttpTransaction]) -> list[Stage]:
    """Assign a :class:`Stage` to each transaction, in input order.

    Feed-once wrapper over :class:`StageAssigner` — the batch and the
    streaming path share one implementation so they cannot drift.
    Transactions are fed in stable timestamp order, mirroring the sort
    the original three-sweep batch algorithm performed.
    """
    if not transactions:
        return []
    order = sorted(range(len(transactions)),
                   key=lambda i: transactions[i].timestamp)
    assigner = StageAssigner()
    for index in order:
        assigner.add(transactions[index])
    stages: list[Stage] = [Stage.DOWNLOAD] * len(transactions)
    for position, index in enumerate(order):
        stages[index] = assigner.current_stage(position)
    return stages
