"""Infection-clue inference (Section V-B).

"An infection clue is flagged when a redirection chain of length >= l is
followed by a download of a file type t.  The threshold for l and the
download likelihood of the payload type x to be infectious are
determined from a statistical analysis of the ground truth data."

:func:`payload_risk_from_corpus` performs that statistical analysis —
the per-type likelihood that a downloaded payload type belongs to an
infection trace — and :class:`ClueDetector` applies the resulting policy
to a live stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.model import HttpTransaction, Trace
from repro.core.payloads import PayloadType, is_exploit_type
from repro.core.redirects import (
    Redirect,
    RedirectInferencer,
    longest_chain_length,
)
from repro.obs import get_registry

__all__ = ["InfectionClue", "CluePolicy", "ClueDetector",
           "payload_risk_from_corpus", "DEFAULT_RISKY_TYPES"]

#: Payload types considered download-risky out of the box (the ground
#: truth analysis lands on exactly these; see payload_risk_from_corpus).
DEFAULT_RISKY_TYPES: frozenset[PayloadType] = frozenset(
    {
        PayloadType.EXE,
        PayloadType.JAR,
        PayloadType.SWF,
        PayloadType.XAP,
        PayloadType.PDF,
        PayloadType.DMG,
        PayloadType.CRYPT,
        PayloadType.ARCHIVE,
        PayloadType.OCTET,
    }
)


@dataclass(frozen=True)
class InfectionClue:
    """A flagged clue: the trigger transaction and its context."""

    client: str
    server: str
    payload_type: PayloadType
    chain_length: int
    timestamp: float

    def as_primitives(self) -> dict:
        """JSON-primitive view of the clue's context (minus the
        client/timestamp, which trace events carry as envelope
        fields) — the ``data`` payload of ``clue`` trace events and
        the raw material of provenance clue chains."""
        return {
            "server": self.server,
            "payload": self.payload_type.value,
            "chain_length": self.chain_length,
        }


@dataclass
class CluePolicy:
    """Thresholds governing clue inference.

    ``redirect_threshold`` is the paper's ``l`` (the forensic case study
    ran with 3); ``risky_types`` is the payload-type set ``t``.
    ``exploit_shortcut`` flags known exploit/ransomware payload types even
    without a qualifying chain (they are near-certain indicators in the
    ground truth).
    """

    redirect_threshold: int = 3
    risky_types: frozenset[PayloadType] = DEFAULT_RISKY_TYPES
    exploit_shortcut: bool = True


def payload_risk_from_corpus(traces: list[Trace]) -> dict[PayloadType, float]:
    """Per-payload-type infection likelihood from labelled traces.

    For each payload type observed as a download, returns
    ``P(trace is infection | type downloaded)`` — the statistic the paper
    derives the download-likelihood policy from.
    """
    infected: dict[PayloadType, int] = {}
    total: dict[PayloadType, int] = {}
    for trace in traces:
        seen: set[PayloadType] = set()
        for txn in trace.transactions:
            if txn.status == 200:
                seen.add(txn.payload_type)
        for ptype in seen:
            total[ptype] = total.get(ptype, 0) + 1
            if trace.is_infection:
                infected[ptype] = infected.get(ptype, 0) + 1
    return {
        ptype: infected.get(ptype, 0) / count
        for ptype, count in total.items()
    }


class ClueDetector:
    """Streaming clue detector for one client's transaction sequence.

    Feed transactions in arrival order; :meth:`observe` returns an
    :class:`InfectionClue` whenever the policy trips.  Internally tracks
    the running redirect-chain evidence exactly the way the offline
    redirect-inference heuristics do, but incrementally.
    """

    __slots__ = ("policy", "_inferencer", "_chain_length", "_c_clues")

    def __init__(self, policy: CluePolicy | None = None):
        self.policy = policy or CluePolicy()
        self._inferencer = RedirectInferencer()
        self._chain_length = 0
        self._c_clues = get_registry().counter("detection.clues_fired")

    def observe(self, txn: HttpTransaction) -> InfectionClue | None:
        """Ingest one transaction; returns a clue when one is flagged."""
        # Incremental inference: O(this transaction), not O(window).
        # Chain length only changes when a new redirect appears.
        if self._inferencer.observe(txn):
            self._chain_length = longest_chain_length(
                self._inferencer.redirects
            )
        chain = self._chain_length
        ptype = txn.payload_type
        downloaded = txn.status == 200 and ptype in self.policy.risky_types
        if not downloaded:
            return None
        if chain >= self.policy.redirect_threshold or (
            self.policy.exploit_shortcut and is_exploit_type(ptype)
        ):
            self._c_clues.inc()
            return InfectionClue(
                client=txn.client,
                server=txn.server,
                payload_type=ptype,
                chain_length=chain,
                timestamp=txn.timestamp,
            )
        return None

    def reset(self) -> None:
        """Clear per-session state."""
        self._inferencer = RedirectInferencer()
        self._chain_length = 0
