"""Exception hierarchy for the DynaMiner reproduction.

Every error raised by this library derives from :class:`ReproError` so
that callers can catch library failures with a single ``except`` clause
while still distinguishing subsystem-specific conditions.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class PcapError(ReproError):
    """Raised when a pcap file is malformed or uses an unsupported format."""


class TcpReassemblyError(ReproError):
    """Raised when a TCP segment stream cannot be reassembled coherently."""


class HttpParseError(ReproError):
    """Raised when bytes on a TCP stream do not form valid HTTP/1.x."""


class GraphConstructionError(ReproError):
    """Raised when a WCG cannot be built from a transaction stream."""


class FeatureError(ReproError):
    """Raised when feature extraction fails or a feature is unknown."""


class LearningError(ReproError):
    """Raised for invalid training data or classifier misuse."""


class NotFittedError(LearningError):
    """Raised when predict() is called on an unfitted model."""


class DetectionError(ReproError):
    """Raised when the on-the-wire detector is misconfigured or misused."""

