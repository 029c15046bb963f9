"""Presorted-partition tree growth: the exact vectorized training engine.

The legacy grower — the original per-node argsort formulation, kept as
the test reference ``tests.oracles.tree_growth.grow_tree_reference`` —
re-argsorts every candidate feature column at every tree node with a
*comparison* sort (float64 timsort), allocates a fresh
``(n_samples, n_classes)`` one-hot matrix per feature per node, and
evaluates the split gain at **every** band position.

This module avoids all three costs:

* **Presort once.** Each feature column is stable-argsorted **once**
  (per tree, or once per *forest* when the caller passes
  ``column_ranks``) and collapsed into dense order-isomorphic integer
  *rank codes* (:func:`compute_column_ranks`).  Equal values share a
  code, so every comparison the split scan needs — ordering,
  distinct-value boundaries — is answered by the codes alone.
* **Linear-time per-node ordering.** A node's sorted view of a
  candidate column is recovered from the rank codes by numpy's radix
  kernel (``np.argsort(..., kind="stable")`` on small unsigned ints) —
  counting passes, no per-node comparison sorts, vectorized across all
  ``max_features`` candidates in one call.
* **Sparse boundary scan.** Candidate split positions exist only
  between *distinct* consecutive values; the gain arithmetic runs on
  the flat array of those boundaries instead of on every position, and
  per-class cumulative counts come from ``np.add.accumulate`` over the
  sorted label codes into preallocated buffers (no one-hot matrices).

Byte-identity contract: the gain arithmetic — dtype, operation order,
strict-``>`` tie-breaks across candidate features, first-max tie-breaks
across split positions, and the threshold-midpoint clamp — is kept
operation-for-operation identical to the legacy ``_best_split``, and the
RNG draw for ``max_features`` candidate sampling happens in the same
preorder (node, left subtree, right subtree) position.  The engine
therefore grows **byte-identical trees** to the legacy grower (proven
by the differential suite in ``tests/learning/test_grower.py``).

Two equivalence arguments carry the design:

* *Stable restriction.* The legacy grower stable-argsorts the node's
  rows, so equal values order by relative row position — and a stable
  sort keyed on rank codes of the node's rows (kept in ascending row
  order, exactly the legacy ``indices`` array) reproduces that order.
  Rank ties collapse value ties exactly (including ``-0.0 == 0.0`` and
  the NaN tail, which merge into their neighbouring tie class): no
  boundary can land inside a tie class, so within-class order is never
  observable.
* *Boundary completeness.* ``code[p+1] > code[p]`` iff the float
  values differ (the codes are order-isomorphic), which matches the
  legacy ``diff > 0`` filter bit-for-bit; the split threshold and the
  ``column <= threshold`` partition are evaluated on the original
  float64 values.

The split-scan building blocks (:func:`presort_columns`,
:func:`restrict_sorted`, :func:`class_cumulative_counts`) are shared
with the gain-ratio ranking fast path (:mod:`repro.learning.ranking`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.learning.tree import NodeTable

__all__ = [
    "presort_columns",
    "restrict_sorted",
    "class_cumulative_counts",
    "ColumnRanks",
    "compute_column_ranks",
    "grow_tree_presorted",
]


def presort_columns(X: np.ndarray) -> np.ndarray:
    """Stable argsort of every feature column, computed once.

    Returns an ``(n_samples, n_features)`` integer array whose column
    ``f`` lists the row indices of ``X`` in ascending order of feature
    ``f`` (ties by row position — the same order
    ``np.argsort(column, kind="stable")`` produces).
    """
    return np.argsort(X, axis=0, kind="stable")


def restrict_sorted(sorted_idx: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Restrict presorted index columns to the rows flagged in ``keep``.

    ``keep`` is a boolean mask over the full row space.  Because each
    column of ``sorted_idx`` permutes the same row set, every column
    keeps the same number of entries, and the stable selection
    preserves each column's sorted order — equivalent to (but much
    cheaper than) re-argsorting each restricted column.
    """
    n_keep = int(np.count_nonzero(keep))
    mt = keep[sorted_idx].T  # (n_features, n) selection mask
    return sorted_idx.T[mt].reshape(-1, n_keep).T


def class_cumulative_counts(
    codes: np.ndarray, n_classes: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Cumulative per-class counts along sorted label codes.

    Returns a ``(len(codes), n_classes)`` float64 array whose row ``p``
    counts each class among ``codes[: p + 1]`` — exactly the values the
    one-hot + ``cumsum`` idiom produced (counts are integers, which
    float64 represents exactly), without materializing the one-hot
    matrix.  ``out`` supplies a reusable buffer (only the leading
    ``len(codes)`` rows are written and returned).
    """
    n = len(codes)
    cum = np.empty((n, n_classes)) if out is None else out[:n]
    for c in range(n_classes):
        np.cumsum(codes == c, dtype=np.float64, out=cum[:, c])
    return cum


class ColumnRanks(NamedTuple):
    """Per-matrix presort product: rank codes plus their decode table.

    ``codes`` is a C-contiguous ``(n_features, n_samples)`` unsigned-int
    array of dense order-isomorphic ranks; ``values`` maps
    ``values[f, code]`` back to the float64 the code stands for (the
    first occurrence in feature ``f``'s sorted order).  ``codes`` is
    row-aligned with the matrix — a bootstrap restricts it by gathering
    columns (``codes[:, sample]``) while ``values`` carries over as is.
    """

    codes: np.ndarray
    values: np.ndarray


def compute_column_ranks(X: np.ndarray) -> ColumnRanks:
    """Dense order-isomorphic rank codes for every feature column.

    ``codes[f, i] < codes[f, j]`` iff ``X[i, f]`` sorts strictly before
    ``X[j, f]``, and equal values (including ``-0.0 == 0.0``) share a
    code.  NaNs collapse into the last tie class of the column's sorted
    tail, which is exactly the "no boundary here" behaviour the legacy
    ``diff > 0`` filter produces.

    The codes are what the presort engine orders per node with radix
    passes; computing them costs one stable float argsort per column,
    so callers fitting many trees on one matrix (the forest) should
    compute them once and gather them through each bootstrap.  uint16
    codes are capped below 2**15 so a code always has headroom for the
    engine's (rank << 1 | label) composite without overflow.
    """
    XT = np.ascontiguousarray(X.T)
    n_features, n_samples = XT.shape
    order = np.argsort(XT, axis=1, kind="stable")
    sorted_vals = np.take_along_axis(XT, order, axis=1)
    codes_sorted = np.zeros((n_features, n_samples), dtype=np.uint32)
    if n_samples > 1:
        np.cumsum(
            sorted_vals[:, 1:] > sorted_vals[:, :-1],
            axis=1,
            dtype=np.uint32,
            out=codes_sorted[:, 1:],
        )
    max_code = int(codes_sorted[:, -1].max()) if n_samples else 0
    if n_samples and max_code < 2**15:
        # Two radix passes instead of four on every per-node ordering,
        # with a spare bit for the composite label sort.
        codes_sorted = codes_sorted.astype(np.uint16)
    # Decode table: the first sorted occurrence of each tie class.  A
    # class is a single float value (equal floats share bits), except
    # the two threshold-neutral collapses: -0.0/0.0 (either endpoint
    # yields bit-identical midpoint, and the clamp cannot fire on a
    # signed zero), and the NaN tail merged into the last real class
    # (whose first occurrence is that real value; an all-NaN column
    # has no boundaries, so its table entry is never read).
    values = np.zeros((n_features, max_code + 1))
    if n_samples:
        first = np.empty((n_features, n_samples), dtype=bool)
        first[:, 0] = True
        np.not_equal(
            codes_sorted[:, 1:], codes_sorted[:, :-1], out=first[:, 1:]
        )
        fi, pi = first.nonzero()
        values[fi, codes_sorted[fi, pi]] = sorted_vals[fi, pi]
    ranks = np.empty_like(codes_sorted)
    np.put_along_axis(ranks, order, codes_sorted, axis=1)
    return ColumnRanks(ranks, values)


def _entropy(counts: np.ndarray) -> float:
    fractions = counts / counts.sum()
    nonzero = fractions[fractions > 0]
    return float(-np.sum(nonzero * np.log2(nonzero)))


def _reduce_classes(stacked: np.ndarray) -> np.ndarray:
    """Sum a ``(C, B)`` array over classes, matching legacy bit-order.

    The legacy scan sums ``(B, C)`` arrays over their *inner* axis,
    which numpy reduces strictly left-to-right for fewer than eight
    elements but with an unrolled multi-accumulator loop beyond that.
    An axis-0 ``add.reduce`` is always strictly sequential, so it is
    bit-identical only below that cutoff; wider class counts take the
    transposed path through the same inner-axis kernel.
    """
    if stacked.shape[0] < 8:
        return np.add.reduce(stacked, axis=0)
    return stacked.T.sum(axis=1)


def grow_tree_presorted(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    *,
    max_depth: int | None,
    min_samples_split: int,
    min_samples_leaf: int,
    max_features: int | None,
    criterion: str,
    rng: np.random.Generator,
    column_ranks: np.ndarray | None = None,
) -> NodeTable:
    """Grow a CART tree with the presorted-partition engine.

    ``X`` must be float64 and ``y`` integer class codes in
    ``[0, n_classes)``.  ``column_ranks`` optionally supplies the
    :func:`compute_column_ranks` output for ``X`` (the forest computes
    it once per matrix and gathers it through each bootstrap); when
    omitted it is computed here.  Returns the tree as a
    :class:`~repro.learning.tree.NodeTable`, byte-identical to what the
    legacy reference grower produces for the same inputs and RNG state.
    """
    n_samples, n_features = X.shape
    k = max_features or n_features
    k = min(k, n_features)
    is_gini = criterion == "gini"
    subsample = k < n_features
    # min_samples_leaf <= 0 behaves exactly like 1 in the legacy filter
    # (a boundary split always leaves one sample on each side).
    min_leaf = max(min_samples_leaf, 1)
    C = n_classes

    XT = np.ascontiguousarray(X.T)
    if column_ranks is None:
        column_ranks = compute_column_ranks(X)
    elif column_ranks.codes.shape != (n_features, n_samples):
        raise ValueError(
            "column_ranks codes shape "
            f"{column_ranks.codes.shape} does not match X {X.shape}"
        )
    ranks = np.ascontiguousarray(column_ranks.codes)
    rank_values = column_ranks.values
    code_dtype = np.uint8 if C <= 255 else np.intp
    y_codes = np.ascontiguousarray(y, dtype=code_dtype)
    root_counts = np.bincount(y, minlength=C).astype(float)
    idx_dtype = np.int32 if n_samples < 2**31 else np.intp
    all_features = None if subsample else np.arange(n_features)

    # Reusable per-node scratch, sliced to each node's sample count:
    # per-class cumulative prefix counts (uint32 — exact integers, half
    # the write traffic of float64; converted exactly where consumed)
    # and the equality buffer feeding the accumulate kernel (the
    # one-hot matrices' replacement).  ``sizes`` is the prefix-length
    # ladder: for binary labels class 0's prefix count is derived by
    # subtraction instead of a second accumulate pass.
    count_dtype = np.uint16 if n_samples < 2**16 else np.uint32
    cum = np.empty((C, k, n_samples), dtype=count_dtype)
    eq = np.empty((k, n_samples), dtype=bool) if C > 2 else None
    sizes = np.arange(1, n_samples + 1, dtype=count_dtype)
    ar_k = np.arange(k)[:, None]

    # The node table, one list per column.  Each stack entry owns its
    # row-id array (ascending original order — the exact legacy
    # ``indices`` protocol), exact class counts (carried down by
    # subtraction — no per-node bincount) and the parent's child slot
    # to patch (a throwaway one for the root); popping right-last keeps
    # the preorder (and hence the RNG draw order) of the legacy grower,
    # so the pop order *is* the table's row order.
    feature: list[int] = []
    thresholds: list[float] = []
    left: list[int] = []
    right: list[int] = []
    proba: list[np.ndarray] = []
    no_proba = np.zeros(C)
    stack: list[tuple[np.ndarray, np.ndarray, int, list[int], int]] = [
        (np.arange(n_samples, dtype=idx_dtype), root_counts, 0, [0], 0)
    ]
    while stack:
        rows, counts, depth, slots, parent = stack.pop()
        node = slots[parent] = len(feature)
        # A leaf until a split is found: every ``continue`` below
        # leaves this row as it is.
        feature.append(-1)
        thresholds.append(0.0)
        left.append(node)
        right.append(node)
        proba.append(counts / counts.sum())
        n_node = rows.shape[0]
        if (
            n_node < min_samples_split
            or (max_depth is not None and depth >= max_depth)
            or np.count_nonzero(counts) == 1
        ):
            continue
        # The legacy grower draws candidates before discovering there is
        # no valid split, so the draw must precede the band check too.
        candidates = (
            rng.choice(n_features, size=k, replace=False)
            if subsample
            else all_features
        )
        # Positions p with both children >= min_leaf form the band
        # [lo, hi); outside it the legacy scan filters positions away.
        lo = min_leaf - 1
        hi = n_node - min_leaf
        if hi <= lo:
            continue

        # Per-candidate sorted view of the node, recovered from the
        # rank codes by radix passes (linear time, no comparison sort).
        # Candidate split positions (the ``bd`` mask over the band) are
        # those whose next sorted rank is strictly larger — rank differs
        # iff the float value differs, the legacy diff > 0 filter.
        if subsample:
            keys = ranks[candidates[:, None], rows]
        else:
            keys = ranks[:, rows]
        node_codes = y_codes[rows]
        cm = cum[:, :, :n_node]
        if C == 2:
            # Composite value sort: (rank << 1 | label) orders by rank
            # with the label riding in the low bit, so a single radix
            # *value* sort replaces argsort plus the sorted-key and
            # sorted-label gathers (the uint16 rank cap keeps the shift
            # in range).  Within a rank tie class the order differs
            # from the legacy stable sort, but no boundary lands inside
            # a tie class, so the prefix counts at boundaries — the
            # only observable — are identical.  Class 1's prefix counts
            # accumulate straight off the label bits; class 0 is the
            # prefix-length ladder minus them (exact unsigned ints).
            comp = np.left_shift(keys, 1)
            np.bitwise_or(comp, node_codes, out=comp)
            comp.sort(axis=1, kind="stable")
            np.add.accumulate(
                comp & 1, axis=1, dtype=count_dtype, out=cm[1]
            )
            np.subtract(sizes[:n_node], cm[1], out=cm[0])
            # Strip the label bit back off: boundaries (and the winner
            # decode below) compare ranks, not composites.
            sorted_keys = np.right_shift(comp, 1)
            bd = sorted_keys[:, lo + 1 : hi + 1] > sorted_keys[:, lo:hi]
        else:
            order = np.argsort(keys, axis=1, kind="stable")
            sorted_keys = keys[ar_k, order]
            sorted_codes = node_codes[order]
            eqv = eq[:, :n_node]
            for c in range(C):
                np.equal(sorted_codes, c, out=eqv)
                np.add.accumulate(eqv, axis=1, dtype=count_dtype, out=cm[c])
            bd = sorted_keys[:, lo + 1 : hi + 1] > sorted_keys[:, lo:hi]
        # Everything downstream runs on the flat (feature-major,
        # position-ascending) boundary list.
        flat = bd.ravel().nonzero()[0]
        if flat.size == 0:
            continue
        P = hi - lo
        jf, pf = np.divmod(flat, P)
        pos = pf if lo == 0 else pf + lo

        # -- gain arithmetic, operation-for-operation _best_split ------
        # The legacy scan evaluates these expressions at the same
        # boundary positions; all ops are elementwise over boundaries
        # (the only reduction is over the class axis, whose length and
        # summation order match — see _reduce_classes), so every gain is
        # bit-identical.
        if is_gini:
            # _gini(counts) with the wrapper peeled off: same dtype,
            # same operations, same sequential class-axis reduction.
            fr = counts / n_node
            parent_impurity = float(1.0 - (fr * fr).sum())
        else:
            parent_impurity = _entropy(counts)
        # int + 1.0 promotes to float64 in one pass; the positions are
        # far below 2**53, so the value equals (pos + 1) cast exactly.
        left_sizes = pos + 1.0
        right_sizes = n_node - left_sizes
        # (C, B) prefix class counts — small integers, exact in float64.
        left_counts_b = cm[:, jf, pos].astype(np.float64)
        right_counts_b = counts[:, None] - left_counts_b
        if is_gini:
            lf = left_counts_b / left_sizes
            left_imp = 1.0 - _reduce_classes(np.multiply(lf, lf))
            rf = right_counts_b / right_sizes
            right_imp = 1.0 - _reduce_classes(np.multiply(rf, rf))
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                lf = left_counts_b / left_sizes
                left_imp = -_reduce_classes(
                    np.where(lf > 0, lf * np.log2(lf), 0.0)
                )
                rf = right_counts_b / right_sizes
                right_imp = -_reduce_classes(
                    np.where(rf > 0, rf * np.log2(rf), 0.0)
                )
        weighted = (
            left_sizes * left_imp + right_sizes * right_imp
        ) / n_node
        gains = parent_impurity - weighted

        # Winner selection.  The legacy scan takes the first max inside
        # each candidate's position range, then compares candidates with
        # strict ``>`` in draw order against a 1e-12 floor.  Because the
        # flat boundary list is ordered by (candidate, position), that
        # two-level rule selects exactly the *first occurrence of the
        # global maximum* — one argmax call (candidates with no boundary
        # are simply absent, matching the legacy None-split skip).
        a = int(gains.argmax())
        if not gains[a] > 1e-12:
            continue
        best_j = int(jf[a])
        best_p = int(pos[a])

        # Decode the winning boundary's endpoint values from the rank
        # table (first sorted occurrence of each tie class — bit-equal
        # to the legacy endpoint reads; see compute_column_ranks).
        split = int(candidates[best_j])
        v_lo = rank_values[split, sorted_keys[best_j, best_p]]
        v_hi = rank_values[split, sorted_keys[best_j, best_p + 1]]
        threshold = (v_lo + v_hi) / 2.0
        # Adjacent floats can make the midpoint round up to the upper
        # value; clamp so `<= threshold` keeps the split non-degenerate.
        if threshold >= v_hi:
            threshold = v_lo
        feature[node] = split
        thresholds[node] = float(threshold)
        proba[node] = no_proba

        # Partition exactly like the legacy recursion: the float column
        # against the threshold over the node's rows (NaNs compare
        # False and go right), children keeping ascending row order.
        col_vals = XT[split][rows]
        mask = col_vals <= threshold
        left_rows = rows[mask]
        right_rows = rows[~mask]
        left_counts = cm[:, best_j, best_p].astype(np.float64)
        # Right first so the left child pops (and draws RNG) first.
        stack.append(
            (right_rows, counts - left_counts, depth + 1, right, node)
        )
        stack.append((left_rows, left_counts, depth + 1, left, node))
    return NodeTable(
        np.array(feature, dtype=np.intp),
        np.array(thresholds),
        np.array(left, dtype=np.intp),
        np.array(right, dtype=np.intp),
        np.array(proba),
    )
