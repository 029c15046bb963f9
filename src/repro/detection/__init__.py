"""On-the-wire malware detection (Stage 2 of the DynaMiner pipeline)."""

from repro.detection.alerts import Alert, AlertSink, ListSink
from repro.detection.clues import (
    ClueDetector,
    CluePolicy,
    DEFAULT_RISKY_TYPES,
    InfectionClue,
    payload_risk_from_corpus,
)
from repro.detection.detector import DetectorConfig, OnTheWireDetector
from repro.detection.live import LiveDecoder, LiveDetector
from repro.detection.monitor import SessionTable, SessionWatch
from repro.detection.training import clue_time_prefix, training_matrix
from repro.detection.whitelist import VendorWhitelist

__all__ = [
    "Alert",
    "AlertSink",
    "ClueDetector",
    "CluePolicy",
    "DEFAULT_RISKY_TYPES",
    "DetectorConfig",
    "InfectionClue",
    "LiveDecoder",
    "LiveDetector",
    "ListSink",
    "OnTheWireDetector",
    "SessionTable",
    "SessionWatch",
    "VendorWhitelist",
    "clue_time_prefix",
    "training_matrix",
    "payload_risk_from_corpus",
]
