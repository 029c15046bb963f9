"""Tests for the JSON-lines pipeline stats reporter."""

import io
import json

from repro.obs import MetricsRegistry, PipelineStatsReporter, read_jsonl


class FakeClock:
    """Deterministic monotonic clock for interval tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestReporter:
    def test_emit_collects_lines_without_sink(self):
        registry = MetricsRegistry()
        registry.counter("events").inc(7)
        reporter = PipelineStatsReporter(registry=registry)
        data = reporter.emit("checkpoint")
        assert data["reason"] == "checkpoint"
        assert data["counters"]["events"] == 7
        assert reporter.emitted == 1
        assert [json.loads(line) for line in reporter.lines] == [data]

    def test_jsonl_roundtrip_through_file(self, tmp_path):
        path = str(tmp_path / "stats.jsonl")
        registry = MetricsRegistry()
        registry.counter("pkts").inc(3)
        registry.histogram("lat").observe(0.5)
        reporter = PipelineStatsReporter(registry=registry, out=path)
        reporter.emit("interval")
        registry.counter("pkts").inc(2)
        reporter.finalize()
        snapshots = read_jsonl(path)
        assert [s["reason"] for s in snapshots] == ["interval", "finalize"]
        assert [s["counters"]["pkts"] for s in snapshots] == [3, 5]
        assert snapshots[0]["histograms"]["lat"]["count"] == 1
        # Every line is standalone JSON with stable key order.
        with open(path) as handle:
            for line in handle:
                assert json.loads(line)

    def test_file_sink_appends(self, tmp_path):
        path = str(tmp_path / "stats.jsonl")
        for _ in range(2):
            reporter = PipelineStatsReporter(
                registry=MetricsRegistry(), out=path
            )
            reporter.finalize()
        assert len(read_jsonl(path)) == 2

    def test_stream_sink_is_not_closed(self):
        stream = io.StringIO()
        reporter = PipelineStatsReporter(
            registry=MetricsRegistry(), out=stream
        )
        reporter.finalize()
        assert not stream.closed
        assert json.loads(stream.getvalue())["reason"] == "finalize"

    def test_maybe_emit_honours_interval(self):
        clock = FakeClock()
        reporter = PipelineStatsReporter(
            registry=MetricsRegistry(), interval=5.0, clock=clock
        )
        assert reporter.maybe_emit() is None  # 0s elapsed
        clock.advance(4.9)
        assert reporter.maybe_emit() is None
        clock.advance(0.2)
        assert reporter.maybe_emit() is not None
        # Interval restarts from the last emission.
        clock.advance(4.9)
        assert reporter.maybe_emit() is None
        clock.advance(0.2)
        assert reporter.maybe_emit() is not None
        assert reporter.emitted == 2

    def test_maybe_emit_disabled_without_interval(self):
        clock = FakeClock()
        reporter = PipelineStatsReporter(
            registry=MetricsRegistry(), clock=clock
        )
        clock.advance(1e9)
        assert reporter.maybe_emit() is None
        assert reporter.emitted == 0

    def test_elapsed_seconds_uses_clock(self):
        clock = FakeClock()
        reporter = PipelineStatsReporter(
            registry=MetricsRegistry(), clock=clock
        )
        clock.advance(3.5)
        assert reporter.snapshot()["elapsed_seconds"] == 3.5


class TestDeltasAndRates:
    def test_first_snapshot_deltas_equal_totals(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        registry.counter("decode.packets").inc(100)
        reporter = PipelineStatsReporter(registry=registry, clock=clock)
        clock.advance(4.0)
        data = reporter.snapshot()
        assert data["interval_seconds"] == 4.0
        assert data["deltas"]["decode.packets"] == 100
        assert data["rates"]["decode.packets_per_s"] == 25.0

    def test_deltas_rebaseline_on_emit(self):
        """Per-interval deltas measure each interval, not the lifetime."""
        clock = FakeClock()
        registry = MetricsRegistry()
        registry.counter("decode.packets").inc(100)
        reporter = PipelineStatsReporter(registry=registry, clock=clock)
        clock.advance(2.0)
        first = reporter.emit("interval")
        assert first["deltas"]["decode.packets"] == 100
        registry.counter("decode.packets").inc(50)
        clock.advance(10.0)
        second = reporter.emit("interval")
        assert second["counters"]["decode.packets"] == 150  # cumulative
        assert second["deltas"]["decode.packets"] == 50     # this interval
        assert second["rates"]["decode.packets_per_s"] == 5.0
        assert second["interval_seconds"] == 10.0

    def test_snapshot_does_not_advance_baseline(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        registry.counter("n").inc(5)
        reporter = PipelineStatsReporter(registry=registry, clock=clock)
        clock.advance(1.0)
        assert reporter.snapshot()["deltas"]["n"] == 5
        assert reporter.snapshot()["deltas"]["n"] == 5  # unchanged

    def test_zero_interval_reports_no_rates(self):
        registry = MetricsRegistry()
        registry.counter("n").inc(5)
        reporter = PipelineStatsReporter(
            registry=registry, clock=FakeClock()
        )
        data = reporter.snapshot()
        assert data["interval_seconds"] == 0.0
        assert data["rates"] == {}

    def test_histogram_samples_stripped_from_lines(self):
        registry = MetricsRegistry()
        registry.histogram("lat").observe(0.5)
        reporter = PipelineStatsReporter(registry=registry)
        data = reporter.emit("interval")
        assert "samples" not in data["histograms"]["lat"]
        # ... and the registry's own buffer is untouched.
        assert registry.histogram("lat").snapshot()["samples"] == [0.5]
