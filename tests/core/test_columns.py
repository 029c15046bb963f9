"""Regression tests for the struct-of-arrays edge store (DESIGN.md §14)."""

import numpy as np

from repro.core.columns import EdgeColumnStore
from repro.obs import MetricsRegistry, use_registry


class TestGrowth:
    def test_amortized_doubling(self):
        store = EdgeColumnStore(capacity=2)
        capacities = []
        for i in range(9):
            store.append(timestamp=float(i), kind=0, src=0, dst=1)
            capacities.append(store.capacity)
        assert len(store) == 9
        # 2 -> 4 -> 8 -> 16: strictly doubling, never shrinking.
        assert capacities == [2, 2, 4, 4, 8, 8, 8, 8, 16]
        # Data survived every reallocation.
        assert store.column("timestamp").tolist() == [float(i)
                                                      for i in range(9)]

    def test_growth_reallocations_counted(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            store = EdgeColumnStore(capacity=2)
            for i in range(9):
                store.append(timestamp=float(i), kind=0, src=0, dst=1)
        # 2->4, 4->8, 8->16: three reallocations for nine appends.
        assert registry.snapshot()["counters"]["wcg.column_reallocs"] == 3

    def test_column_views_track_live_prefix(self):
        store = EdgeColumnStore()
        store.append(timestamp=1.0, kind=0, src=0, dst=1)
        assert len(store.column("kind")) == 1
        store.append(timestamp=2.0, kind=1, src=1, dst=0)
        assert store.column("kind").tolist() == [0, 1]
        assert store.column("src").tolist() == [0, 1]


class TestMutation:
    def test_append_records_every_column(self):
        store = EdgeColumnStore()
        index = store.append(timestamp=3.5, kind=2, src=7, dst=4)
        assert index == 0
        assert [name for name, _ in EdgeColumnStore._NUMERIC] == [
            "timestamp", "kind", "src", "dst"]
        assert store.column("timestamp").tolist() == [3.5]
        assert store.column("kind").tolist() == [2]
        assert store.column("src").tolist() == [7]
        assert store.column("dst").tolist() == [4]


class TestCopy:
    def test_copy_is_compact_and_independent(self):
        store = EdgeColumnStore(capacity=4)
        for i in range(3):
            store.append(timestamp=float(i), kind=0, src=0, dst=1)
        clone = store.copy()
        assert len(clone) == 3
        assert clone.capacity == 3  # compact: no slack rows
        for name, _ in EdgeColumnStore._NUMERIC:
            assert np.array_equal(clone.column(name), store.column(name))
        # Diverge the original, in place and by appending; the clone
        # must not move.
        store.timestamp[0] = 9.0
        store.append(timestamp=9.0, kind=2, src=1, dst=0)
        assert len(clone) == 3
        assert clone.column("timestamp").tolist() == [0.0, 1.0, 2.0]

    def test_copy_of_empty_store(self):
        clone = EdgeColumnStore().copy()
        assert len(clone) == 0
        clone.append(timestamp=1.0, kind=0, src=0, dst=1)
        assert len(clone) == 1
