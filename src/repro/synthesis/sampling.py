"""Distribution helpers for calibrated synthesis.

Table I reports each quantity as ``(min, max, avg)``.  We sample such
quantities from a Beta distribution rescaled to ``[min, max]`` whose mean
is pinned to ``avg`` — skewed exactly the way heavy-tailed trace
statistics are (most mass near the minimum, a long tail to the maximum).
"""

from __future__ import annotations

import numpy as np

__all__ = ["bounded_sample", "bounded_int", "lognormal_bounded"]

#: Beta concentration; lower = heavier tails around the pinned mean.
_CONCENTRATION = 2.0


def bounded_sample(
    rng: np.random.Generator,
    low: float,
    high: float,
    mean: float,
    concentration: float = _CONCENTRATION,
) -> float:
    """Draw from ``[low, high]`` with expected value ``mean``.

    Uses ``Beta(a, b)`` with ``a/(a+b) = (mean-low)/(high-low)`` and
    ``a+b = concentration``.  Degenerate ranges return their midpoint.
    """
    if high <= low:
        return low
    mean = min(max(mean, low), high)
    frac = (mean - low) / (high - low)
    frac = min(max(frac, 1e-3), 1 - 1e-3)
    a = frac * concentration
    b = (1 - frac) * concentration
    return low + (high - low) * float(rng.beta(a, b))


def bounded_int(
    rng: np.random.Generator,
    low: int,
    high: int,
    mean: float,
    concentration: float = _CONCENTRATION,
) -> int:
    """Integer variant of :func:`bounded_sample` (inclusive bounds)."""
    value = bounded_sample(rng, float(low), float(high), mean, concentration)
    return int(round(min(max(value, low), high)))


def lognormal_bounded(
    rng: np.random.Generator,
    low: float,
    high: float,
    mean: float,
) -> float:
    """Heavy-tailed positive sample clipped to ``[low, high]``.

    Suits durations and payload sizes: the paper reports lifetimes of
    0.5–4061 s with an average of 123 s — a classic log-normal shape.
    """
    if high <= low:
        return low
    mean = min(max(mean, low * 1.0001), high)
    sigma = 1.0
    mu = np.log(mean) - sigma**2 / 2
    value = float(rng.lognormal(mu, sigma))
    return min(max(value, low), high)
