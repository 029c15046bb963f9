"""Tests for the metrics primitives and the registry swap machinery."""

import numpy as np
import pytest

from repro.obs import (
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    enable_metrics,
    get_registry,
    metrics_enabled,
    set_registry,
    use_registry,
)
from repro.obs.registry import (
    _MAX_SAMPLES,
    _NULL_COUNTER,
    _NULL_GAUGE,
    _NULL_HISTOGRAM,
    _NULL_SPAN,
    _env_enabled,
)


class TestCounter:
    def test_inc(self):
        counter = MetricsRegistry().counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.counter("x") is not registry.counter("y")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(2.5)
        gauge.dec()
        assert gauge.value == 11.5


class TestHistogram:
    def test_exact_stats_under_cap(self):
        histogram = Histogram("h")
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        for value in values:
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.total == 15.0
        assert histogram.min == 1.0
        assert histogram.max == 5.0
        assert histogram.mean == 3.0
        assert histogram.quantile(0.0) == 1.0
        assert histogram.quantile(1.0) == 5.0
        assert histogram.quantile(0.5) == 3.0
        # Linear interpolation at a non-sample position.
        assert histogram.quantile(0.25) == 2.0
        assert histogram.quantile(0.125) == pytest.approx(1.5)

    def test_quantiles_match_numpy_under_cap(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=500)
        histogram = Histogram("h")
        for value in values:
            histogram.observe(float(value))
        for q in (0.1, 0.5, 0.9, 0.99):
            assert histogram.quantile(q) == pytest.approx(
                float(np.quantile(values, q))
            )

    def test_empty_quantile_is_none(self):
        assert Histogram("h").quantile(0.5) is None

    def test_decimation_is_deterministic_and_bounded(self):
        a, b = Histogram("a", max_samples=64), Histogram("b", max_samples=64)
        for i in range(10_000):
            a.observe(float(i))
            b.observe(float(i))
        assert a._samples == b._samples
        assert len(a._samples) < 64
        # Exact aggregates survive decimation untouched.
        assert a.count == 10_000
        assert a.min == 0.0 and a.max == 9_999.0
        # Quantiles remain a sane approximation of the uniform ramp.
        assert a.quantile(0.5) == pytest.approx(5_000.0, rel=0.1)

    def test_snapshot_keys(self):
        histogram = Histogram("h")
        histogram.observe(2.0)
        snap = histogram.snapshot()
        assert set(snap) == {"count", "sum", "min", "max", "mean",
                             "p50", "p90", "p99", "samples"}
        assert snap["count"] == 1 and snap["p50"] == 2.0
        # The retained sample buffer rides along for exact fleet-merge
        # quantiles (the stats reporter strips it from emitted lines).
        assert snap["samples"] == [2.0]

    def test_default_cap(self):
        histogram = Histogram("h")
        for i in range(3 * _MAX_SAMPLES):
            histogram.observe(float(i))
        assert len(histogram._samples) <= _MAX_SAMPLES


class TestSpan:
    def test_span_records_into_named_histogram(self):
        registry = MetricsRegistry()
        with registry.span("stage"):
            pass
        histogram = registry.histogram("span.stage")
        assert histogram.count == 1
        assert histogram.min >= 0.0

    def test_span_records_on_exception(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.span("boom"):
                raise RuntimeError("x")
        assert registry.histogram("span.boom").count == 1


class TestNullRegistry:
    def test_shared_singletons(self):
        registry = NullRegistry()
        assert registry.counter("a") is _NULL_COUNTER
        assert registry.counter("b") is _NULL_COUNTER
        assert registry.gauge("a") is _NULL_GAUGE
        assert registry.histogram("a") is _NULL_HISTOGRAM
        assert registry.span("a") is _NULL_SPAN

    def test_noop_operations(self):
        registry = NullRegistry()
        registry.counter("a").inc(100)
        registry.gauge("a").set(5)
        registry.histogram("a").observe(1.0)
        with registry.span("a"):
            pass
        assert registry.counter("a").value == 0
        assert registry.histogram("a").count == 0
        assert registry.histogram("a").quantile(0.5) is None
        assert not registry.enabled

    def test_snapshot_shape(self):
        snap = NullRegistry().snapshot()
        assert snap["enabled"] is False
        assert snap["counters"] == {}


class TestRegistrySwap:
    def test_use_registry_swaps_and_restores(self):
        before = get_registry()
        with use_registry() as registry:
            assert get_registry() is registry
            assert isinstance(registry, MetricsRegistry)
            assert metrics_enabled()
        assert get_registry() is before

    def test_use_registry_restores_on_error(self):
        before = get_registry()
        with pytest.raises(ValueError):
            with use_registry(NULL_REGISTRY):
                raise ValueError("x")
        assert get_registry() is before

    def test_enable_disable(self):
        previous = get_registry()
        try:
            registry = enable_metrics()
            assert get_registry() is registry and registry.enabled
            set_registry(NULL_REGISTRY)
            assert get_registry() is NULL_REGISTRY
        finally:
            set_registry(previous)

    def test_snapshot_sorted_and_complete(self):
        registry = MetricsRegistry()
        registry.counter("z.count").inc(3)
        registry.counter("a.count").inc(1)
        registry.gauge("g").set(2.0)
        registry.histogram("h").observe(1.0)
        snap = registry.snapshot()
        assert snap["enabled"] is True
        assert list(snap["counters"]) == ["a.count", "z.count"]
        assert snap["counters"]["z.count"] == 3
        assert snap["gauges"]["g"] == 2.0
        assert snap["histograms"]["h"]["count"] == 1


class TestEnvParsing:
    @pytest.mark.parametrize("value", ["1", "true", "YES", " on ", "True"])
    def test_truthy(self, value):
        assert _env_enabled(value)

    @pytest.mark.parametrize("value", [None, "", "0", "false", "off", "nope"])
    def test_falsy(self, value):
        assert not _env_enabled(value)
