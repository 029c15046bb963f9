"""Struct-of-arrays edge storage for the WCG (DESIGN.md §14).

Every edge is one row across four numpy columns, grown by amortized
doubling so the incremental live path stays O(1) per edge:

==============  =========  ====================================
column          dtype      content
==============  =========  ====================================
``timestamp``   float64    edge timestamp (seconds)
``kind``        int8       edge-kind code (request/response/redirect)
``src``/``dst`` int32      interned node ids (WCG host table)
==============  =========  ====================================

Those are the only edge attributes anything reads: the features read
the graph's running counters, and stages are derived on demand
(:mod:`repro.core.stages`).  Columns are append-only.  Accessors return
numpy views of the live prefix; callers must treat them as read-only
snapshots that are invalidated by the next append.
"""

from __future__ import annotations

import numpy as np

from repro.obs import get_registry

__all__ = ["EdgeColumnStore"]

#: Initial per-column capacity; doubles on exhaustion.
_INITIAL_CAPACITY = 8


class EdgeColumnStore:
    """Amortized-doubling struct-of-arrays store for WCG edges."""

    __slots__ = ("_n", "_capacity", "timestamp", "kind", "src", "dst",
                 "_c_reallocs")

    #: (attribute, dtype) for every column.
    _NUMERIC: tuple[tuple[str, str], ...] = (
        ("timestamp", "f8"),
        ("kind", "i1"),
        ("src", "i4"),
        ("dst", "i4"),
    )

    def __init__(self, capacity: int = _INITIAL_CAPACITY):
        self._n = 0
        self._capacity = max(1, capacity)
        for name, dtype in self._NUMERIC:
            setattr(self, name, np.zeros(self._capacity, dtype=dtype))
        self._c_reallocs = get_registry().counter("wcg.column_reallocs")

    def __len__(self) -> int:
        return self._n

    @property
    def capacity(self) -> int:
        """Current allocated rows (for the growth regression tests)."""
        return self._capacity

    def _grow(self) -> None:
        """Double every column; amortized O(1) per append."""
        self._capacity *= 2
        for name, _ in self._NUMERIC:
            old = getattr(self, name)
            grown = np.zeros(self._capacity, dtype=old.dtype)
            grown[: self._n] = old[: self._n]
            setattr(self, name, grown)
        self._c_reallocs.inc()

    def append(self, timestamp: float, kind: int, src: int, dst: int) -> int:
        """Append one edge row; returns its index."""
        if self._n >= self._capacity:
            self._grow()
        i = self._n
        self.timestamp[i] = timestamp
        self.kind[i] = kind
        self.src[i] = src
        self.dst[i] = dst
        self._n = i + 1
        return i

    def column(self, name: str) -> np.ndarray:
        """Live-prefix view of one column (treat as read-only)."""
        return getattr(self, name)[: self._n]

    def copy(self) -> "EdgeColumnStore":
        """Compact snapshot: one slice-copy per column, no per-edge work."""
        clone = EdgeColumnStore.__new__(EdgeColumnStore)
        clone._n = self._n
        clone._capacity = max(1, self._n)
        for name, dtype in self._NUMERIC:
            col = np.zeros(clone._capacity, dtype=dtype)
            col[: self._n] = getattr(self, name)[: self._n]
            setattr(clone, name, col)
        clone._c_reallocs = self._c_reallocs
        return clone
