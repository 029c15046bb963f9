"""Alert model, provenance records, and sinks for the detector."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.detection.clues import InfectionClue

__all__ = ["Alert", "AlertProvenance", "AlertSink", "ClueRecord",
           "ListSink"]


@dataclass(frozen=True)
class ClueRecord:
    """One contributing infection clue, reduced to JSON primitives.

    The picklable/serializable form of :class:`InfectionClue` that
    provenance records and trace events carry across process
    boundaries and into JSONL files.
    """

    server: str
    payload_type: str
    chain_length: int
    timestamp: float

    def to_dict(self) -> dict:
        return {
            "server": self.server,
            "payload_type": self.payload_type,
            "chain_length": self.chain_length,
            "timestamp": self.timestamp,
        }


@dataclass(frozen=True)
class AlertProvenance:
    """Why an alert fired: clues, timing, graph dims, forest votes.

    Built by the detector only when tracing is enabled
    (``REPRO_TRACE=1`` / ``enable_tracing()``); every field derives
    from the packet stream and the fitted forest — no wall clock — so
    provenance is byte-identical across runs and worker counts
    (DESIGN.md §16).

    Attributes:
        clue_chain: contributing clues in firing order (bounded; the
            tracer keeps the first 32 per watch).
        clues_total: clues fired on this watch, including any beyond
            the retained chain.
        first_clue_ts / first_edge_ts: stream time of the first clue
            and of the earliest WCG edge.
        time_to_detection: alert stream time minus ``first_clue_ts``.
        time_from_first_edge: alert stream time minus
            ``first_edge_ts`` — the paper's earliness measure, how far
            into the infection conversation the verdict landed.
        wcg_order / wcg_size: graph dimensions at verdict time.
        tree_votes: each tree's predicted class label.
        tree_scores: each tree's infection-class probability.
        vote_tally: ``(benign votes, infectious votes)``.
        feature_path_counts: per-feature decision-path usage counts
            over the 37-feature registry (how many split nodes across
            all trees tested each feature for this row).
    """

    clue_chain: tuple[ClueRecord, ...]
    clues_total: int
    first_clue_ts: float
    first_edge_ts: float
    time_to_detection: float
    time_from_first_edge: float
    wcg_order: int
    wcg_size: int
    tree_votes: tuple[int, ...]
    tree_scores: tuple[float, ...]
    vote_tally: tuple[int, int]
    feature_path_counts: tuple[int, ...]

    def to_dict(self) -> dict:
        """JSON form (carried on ``verdict`` trace events)."""
        return {
            "clue_chain": [record.to_dict() for record in self.clue_chain],
            "clues_total": self.clues_total,
            "first_clue_ts": self.first_clue_ts,
            "first_edge_ts": self.first_edge_ts,
            "time_to_detection": self.time_to_detection,
            "time_from_first_edge": self.time_from_first_edge,
            "wcg_order": self.wcg_order,
            "wcg_size": self.wcg_size,
            "tree_votes": list(self.tree_votes),
            "tree_scores": list(self.tree_scores),
            "vote_tally": list(self.vote_tally),
            "feature_path_counts": list(self.feature_path_counts),
        }


@dataclass(frozen=True)
class Alert:
    """One infection verdict issued by the detector.

    Attributes:
        client: the victim host the alert protects.
        score: classifier probability that the WCG is infectious.
        clue: the infection clue that opened the watch on this WCG.
        timestamp: stream time at which the verdict fired.
        wcg_order / wcg_size: graph dimensions at verdict time.
        session_key: identifier of the watched session cluster.
        provenance: full detection provenance — present on every alert
            raised while tracing is enabled, ``None`` otherwise (the
            disabled path must stay byte-identical and allocation-free).
    """

    client: str
    score: float
    clue: InfectionClue
    timestamp: float
    wcg_order: int
    wcg_size: int
    session_key: str
    provenance: AlertProvenance | None = None


class AlertSink:
    """Interface for alert consumers."""

    def emit(self, alert: Alert) -> None:
        """Handle one alert."""
        raise NotImplementedError


@dataclass
class ListSink(AlertSink):
    """Collects alerts in memory (tests, benches, examples)."""

    alerts: list[Alert] = field(default_factory=list)

    def emit(self, alert: Alert) -> None:
        self.alerts.append(alert)

    def __len__(self) -> int:
        return len(self.alerts)
