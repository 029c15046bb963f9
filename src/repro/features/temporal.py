"""Temporal features f36–f37 (Table II, TFs).

The two features that top the paper's gain-ratio ranking (Table IV):
infections run machine-paced (short inter-transaction gaps), human
browsing is think-time-paced.

The WCG's ``request_timestamps`` list is already ascending (the
builder ingests in timestamp order), so no sort happens here.  f37
deliberately stays on ``np.mean(np.diff(...))`` rather than the
telescoped ``(max - min) / (n - 1)`` — the two are not bit-identical
in float64, and the differential tests pin byte-identity between the
live and batch paths.
"""

from __future__ import annotations

import numpy as np

from repro.core.wcg import WebConversationGraph

__all__ = ["temporal_features"]


def temporal_features(wcg: WebConversationGraph) -> dict[str, float]:
    """Compute f36–f37 for one WCG."""
    request_stamps = wcg.request_timestamps
    total_uris = wcg.counters.total_uris
    duration = wcg.duration
    # f36: average duration to access a single URI.
    avg_duration = duration / total_uris if total_uris else 0.0
    # f37: average inter-transaction time.
    if len(request_stamps) > 1:
        gaps = np.diff(request_stamps)
        avg_gap = float(np.mean(gaps))
    else:
        avg_gap = 0.0
    return {
        "duration": avg_duration,
        "avg_inter_transaction_time": avg_gap,
    }
