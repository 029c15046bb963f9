"""The detector's alert record."""

from __future__ import annotations

from dataclasses import dataclass

from repro.detection.clues import InfectionClue

__all__ = ["Alert"]


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

    Why it fired (clue chain, timing, forest votes) rides the alert's
    ``verdict`` trace event when tracing is on (DESIGN.md §16).
    """

    client: str
    score: float
    clue: InfectionClue
    timestamp: float
    wcg_order: int
    wcg_size: int
    session_key: str
