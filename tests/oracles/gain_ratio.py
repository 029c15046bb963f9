"""Reference gain ratio: one column scored on its own with a fresh
stable argsort — what ``ranking._fold_gain_ratios`` computes for every
column of a CV fold at once from the presorted index columns."""

import numpy as np

from repro.learning.grower import class_cumulative_counts
from repro.learning.ranking import _entropy_of, _ratios_from_boundaries


def gain_ratio(column: np.ndarray, y: np.ndarray) -> float:
    """Gain ratio of the best binary threshold split on ``column``.

    Returns 0 for constant columns or splits with no information gain.
    """
    column = np.asarray(column, dtype=np.float64)
    y = np.asarray(y)
    if len(y) == 0:
        return 0.0
    order = np.argsort(column, kind="stable")
    sorted_col = column[order]
    sorted_y = y[order]
    if not np.any(np.diff(sorted_col) > 0):
        return 0.0
    classes, encoded = np.unique(sorted_y, return_inverse=True)
    cum = class_cumulative_counts(encoded, len(classes))
    return _ratios_from_boundaries(sorted_col, cum, _entropy_of(sorted_y))
