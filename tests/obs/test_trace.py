"""Tests for the detection tracer: rings, sampling, determinism, I/O."""

import io
import json

import pytest

from repro.obs import (
    NULL_TRACER,
    Tracer,
    enable_tracing,
    get_tracer,
    read_jsonl,
    set_tracer,
    tracing_enabled,
    use_tracer,
    write_trace,
)
from repro.obs import trace as trace_module
from repro.obs.trace import _MAX_CLUES, _env_enabled


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestTracer:
    def test_emit_records_in_order(self):
        tracer = Tracer()
        tracer.emit("watch", ts=1.0, client="c", watch="c#1")
        tracer.emit("clue", ts=2.0, client="c", watch="c#1",
                    server="evil.example", payload="exe", chain_length=3)
        tracer.emit("verdict", ts=3.0, client="c", watch="c#1",
                    decision="alert", score=0.9)
        events = tracer.events()
        assert [e.kind for e in events] == ["watch", "clue", "verdict"]
        assert [e.seq for e in events] == [0, 1, 2]
        assert events[1].data["server"] == "evil.example"

    def test_watchless_events_bypass_rings(self):
        tracer = Tracer()
        tracer.emit("prune", ts=5.0)
        assert tracer.event_count == 1
        assert tracer.events()[0].watch == ""

    def test_watch_event_resets_recycled_key(self):
        """Watch keys recycle per client; a fresh watch must not inherit
        its predecessor's timeline or clue summary."""
        tracer = Tracer()
        tracer.emit("watch", ts=1.0, client="c", watch="c#1")
        tracer.emit("clue", ts=1.5, client="c", watch="c#1",
                    server="a", payload="exe", chain_length=1)
        tracer.close_watch("c#1", alerted=True)
        tracer.emit("watch", ts=9.0, client="c", watch="c#1")
        summary = tracer.watch_summary("c#1")
        assert summary.clue_count == 0
        assert len(summary.events) == 1

    def test_per_watch_ring_is_bounded(self, monkeypatch):
        monkeypatch.setattr(trace_module, "_MAX_EVENTS_PER_WATCH", 4)
        tracer = Tracer()
        tracer.emit("watch", ts=0.0, client="c", watch="w")
        for i in range(10):
            tracer.emit("score", ts=float(i + 1), client="c", watch="w",
                        score=0.1)
        summary = tracer.watch_summary("w")
        assert len(summary.events) == 4
        assert tracer.dropped_events == 7  # 11 emissions, ring of 4
        # The newest events survive.
        assert summary.events[-1].ts == 10.0

    def test_clue_summary_survives_ring_rotation(self, monkeypatch):
        monkeypatch.setattr(trace_module, "_MAX_EVENTS_PER_WATCH", 2)
        tracer = Tracer()
        tracer.emit("watch", ts=0.0, client="c", watch="w")
        tracer.emit("clue", ts=1.0, client="c", watch="w",
                    server="evil", payload="exe", chain_length=2)
        for i in range(5):
            tracer.emit("score", ts=float(i + 2), client="c", watch="w",
                        score=0.2)
        summary = tracer.watch_summary("w")
        assert all(e.kind == "score" for e in summary.events)
        assert summary.clue_count == 1
        assert summary.clues[0].data["server"] == "evil"

    def test_clue_summary_is_bounded(self):
        tracer = Tracer()
        tracer.emit("watch", ts=0.0, client="c", watch="w")
        for i in range(_MAX_CLUES + 10):
            tracer.emit("clue", ts=float(i), client="c", watch="w",
                        server=f"s{i}", payload="exe", chain_length=1)
        summary = tracer.watch_summary("w")
        assert len(summary.clues) == _MAX_CLUES
        assert summary.clue_count == _MAX_CLUES + 10

    def test_max_watches_evicts_stalest(self, monkeypatch):
        monkeypatch.setattr(trace_module, "_MAX_WATCHES", 2)
        tracer = Tracer()
        tracer.emit("watch", ts=0.0, client="a", watch="a#1")
        tracer.emit("watch", ts=1.0, client="b", watch="b#1")
        tracer.emit("watch", ts=2.0, client="c", watch="c#1")
        assert tracer.dropped_watches == 1
        assert tracer.watch_summary("a#1") is None
        # The evicted timeline flushed as a non-alerting close.
        assert any(e.watch == "a#1" for e in tracer.events())

    def test_global_done_buffer_is_bounded(self, monkeypatch):
        monkeypatch.setattr(trace_module, "_MAX_EVENTS", 5)
        tracer = Tracer()
        for i in range(10):
            tracer.emit("prune", ts=float(i))
        assert tracer.event_count == 5
        assert tracer.dropped_events == 5
        assert [e.ts for e in tracer.events()] == [5.0, 6.0, 7.0, 8.0, 9.0]

    def test_alerts_sampling_drops_non_alerting_watches(self):
        tracer = Tracer(sample="alerts")
        tracer.emit("watch", ts=0.0, client="a", watch="a#1")
        tracer.emit("watch", ts=1.0, client="b", watch="b#1")
        tracer.close_watch("a#1", alerted=False)
        tracer.close_watch("b#1", alerted=True)
        events = tracer.events()
        assert {e.watch for e in events} == {"b#1"}

    def test_alerts_sampling_excludes_open_watches(self):
        tracer = Tracer(sample="alerts")
        tracer.emit("watch", ts=0.0, client="a", watch="a#1")
        assert tracer.events() == []
        full = Tracer(sample="full")
        full.emit("watch", ts=0.0, client="a", watch="a#1")
        assert len(full.events()) == 1

    def test_unknown_sample_mode_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample="everything")

    def test_drain_resets_state(self):
        tracer = Tracer()
        tracer.emit("watch", ts=0.0, client="a", watch="a#1")
        tracer.emit("prune", ts=1.0)
        assert len(tracer.drain()) == 2
        assert tracer.event_count == 0
        assert tracer.drain() == []

    def test_events_sorted_by_ts_then_seq(self):
        tracer = Tracer()
        tracer.emit("watch", ts=5.0, client="a", watch="a#1")
        tracer.emit("watch", ts=1.0, client="b", watch="b#1")
        tracer.emit("clue", ts=1.0, client="b", watch="b#1",
                    server="s", payload="exe", chain_length=1)
        events = tracer.events()
        assert [(e.ts, e.seq) for e in events] == [(1.0, 1), (1.0, 2),
                                                   (5.0, 0)]

    def test_mono_uses_injected_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        clock.now = 2.5
        event = tracer.emit("prune", ts=0.0)
        assert event.mono == 2.5


class TestCanonicalForm:
    def test_canonical_strips_volatile_fields(self):
        """``mono``/``latency_s`` are wall clock; ``batch`` depends on
        how requests coalesced in this process, not on the stream."""
        tracer = Tracer(clock=FakeClock())
        tracer.emit("score", ts=1.0, client="c", watch="w",
                    score=0.5, batch=3, latency_s=0.001)
        canon = [event.canonical() for event in tracer.events()]
        assert canon == [{
            "kind": "score", "ts": 1.0, "client": "c", "watch": "w",
            "data": {"score": 0.5},
        }]

    def test_to_dict_keeps_wall_clock_fields(self):
        tracer = Tracer(clock=FakeClock())
        event = tracer.emit("score", ts=1.0, client="c", watch="w",
                            score=0.5, latency_s=0.001)
        full = event.to_dict()
        assert full["mono"] == 0.0
        assert full["data"]["latency_s"] == 0.001


class TestNullTracer:
    def test_null_is_inert(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.emit("watch", ts=0.0, watch="w") is None
        assert NULL_TRACER.watch_summary("w") is None
        assert NULL_TRACER.close_watch("w", alerted=True) is None
        assert NULL_TRACER.events() == []
        assert NULL_TRACER.drain() == []
        assert NULL_TRACER.event_count == 0


class TestTracerSwap:
    def test_enable_disable_roundtrip(self):
        previous = get_tracer()
        try:
            tracer = enable_tracing(sample="alerts")
            assert tracing_enabled()
            assert get_tracer() is tracer
            assert tracer.sample == "alerts"
            set_tracer(NULL_TRACER)
            assert not tracing_enabled()
            assert get_tracer() is NULL_TRACER
        finally:
            set_tracer(previous)

    def test_use_tracer_restores_previous(self):
        previous = get_tracer()
        with use_tracer() as tracer:
            assert get_tracer() is tracer
            assert tracer.enabled
        assert get_tracer() is previous

    def test_env_parsing(self):
        assert _env_enabled("1") and _env_enabled("true")
        assert not _env_enabled("0") and not _env_enabled(None)


class TestTraceIO:
    def _sample_events(self):
        tracer = Tracer(clock=FakeClock())
        tracer.emit("watch", ts=1.0, client="c", watch="c#1")
        tracer.emit("verdict", ts=2.0, client="c", watch="c#1",
                    decision="alert", score=0.9)
        return tracer.drain()

    def test_write_read_roundtrip_path(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        events = self._sample_events()
        assert write_trace(events, path) == 2
        loaded = read_jsonl(path)
        assert [e["kind"] for e in loaded] == ["watch", "verdict"]
        assert loaded[1]["data"]["score"] == 0.9

    def test_write_appends_to_path(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        events = self._sample_events()
        write_trace(events, path)
        write_trace(events, path)
        assert len(read_jsonl(path)) == 4

    def test_stream_sink_not_closed(self):
        stream = io.StringIO()
        write_trace(self._sample_events(), stream)
        assert not stream.closed
        assert len(stream.getvalue().splitlines()) == 2

    def test_lines_are_stable_json(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_trace(self._sample_events(), path)
        with open(path) as handle:
            for line in handle:
                decoded = json.loads(line)
                assert list(decoded) == sorted(decoded)
