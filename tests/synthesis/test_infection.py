"""Unit tests for the infection episode generator."""

import numpy as np
import pytest

from repro.core.model import HttpMethod, TraceLabel
from repro.core.payloads import PayloadType, is_exploit_type
from repro.core.redirects import RedirectKind, infer_redirects
from repro.core.stages import Stage, assign_stages
from repro.synthesis.families import family_by_name
from repro.synthesis.infection import EpisodeConfig, InfectionGenerator


@pytest.fixture()
def angler_gen(rng):
    return InfectionGenerator(family_by_name("Angler"), rng)


def _episodes(gen, n=20, config=None):
    return [gen.generate(config) for _ in range(n)]


class TestEpisodeShape:
    def test_labelled_infection(self, angler_gen):
        trace = angler_gen.generate()
        assert trace.label is TraceLabel.INFECTION
        assert trace.family == "Angler"

    def test_timestamps_ordered(self, angler_gen):
        trace = angler_gen.generate()
        stamps = [t.timestamp for t in trace.transactions]
        assert stamps == sorted(stamps)

    def test_host_counts_within_family_range(self, angler_gen):
        profile = family_by_name("Angler")
        for trace in _episodes(angler_gen, 30):
            assert 2 <= len(trace.hosts) <= profile.hosts.high + 1

    def test_lifetime_within_global_range(self, angler_gen):
        # Section III-D: lifetimes between 0.5 and 4061 seconds.
        for trace in _episodes(angler_gen, 30):
            assert 0.4 <= trace.duration <= 4061.0

    def test_exploit_payload_downloaded(self, angler_gen):
        trace = angler_gen.generate(EpisodeConfig(stealth=False))
        types = {t.payload_type for t in trace.transactions
                 if t.status == 200}
        assert any(is_exploit_type(pt) for pt in types)

    def test_post_download_callbacks_to_fresh_hosts(self, angler_gen):
        # Section II-D: call-back hosts never seen before download.
        trace = angler_gen.generate(EpisodeConfig(with_post_download=True))
        stages = assign_stages(trace.transactions)
        post_targets = {
            txn.server for txn, stage in zip(trace.transactions, stages)
            if stage is Stage.POST_DOWNLOAD
        }
        pre_and_download_targets = {
            txn.server for txn, stage in zip(trace.transactions, stages)
            if stage is not Stage.POST_DOWNLOAD
        }
        assert post_targets
        assert not post_targets & pre_and_download_targets

    def test_redirect_chain_present(self, angler_gen):
        trace = angler_gen.generate(EpisodeConfig(redirectless=False))
        genuine = [
            r for r in infer_redirects(trace.transactions)
            if r.kind is not RedirectKind.REFERRER
        ]
        assert genuine

    def test_meta_records_choices(self, angler_gen):
        trace = angler_gen.generate()
        assert "enticement" in trace.meta
        assert "exploit_host" in trace.meta
        assert "payload_exts" in trace.meta


class TestHardCases:
    def test_redirectless_config(self, angler_gen):
        trace = angler_gen.generate(EpisodeConfig(redirectless=True))
        genuine = [
            r for r in infer_redirects(trace.transactions)
            if r.kind is not RedirectKind.REFERRER
        ]
        assert genuine == []

    def test_no_post_download_config(self, angler_gen):
        trace = angler_gen.generate(EpisodeConfig(with_post_download=False))
        posts = [t for t in trace.transactions
                 if t.request.method is HttpMethod.POST]
        assert posts == []

    def test_compressed_payload_config(self, angler_gen):
        trace = angler_gen.generate(EpisodeConfig(compressed_payload=True))
        types = {t.payload_type for t in trace.transactions
                 if t.status == 200}
        assert PayloadType.ARCHIVE in types
        assert not any(is_exploit_type(pt) for pt in types)

    def test_stealth_is_small_and_quiet(self, angler_gen):
        trace = angler_gen.generate(EpisodeConfig(stealth=True))
        assert len(trace.hosts) <= 5
        assert trace.meta["stealth"]
        # No exploit-typed payloads, no X-Flash fingerprinting.
        types = {t.payload_type for t in trace.transactions
                 if t.status == 200}
        assert not any(is_exploit_type(pt) for pt in types)
        assert not any(
            t.request.headers.get("X-Flash-Version")
            for t in trace.transactions
        )

    def test_stealth_paces_like_a_human(self, angler_gen):
        trace = angler_gen.generate(EpisodeConfig(stealth=True))
        stamps = sorted(t.timestamp for t in trace.transactions)
        gaps = np.diff(stamps)
        assert gaps.mean() > 5.0

    def test_start_time_override(self, angler_gen):
        trace = angler_gen.generate(EpisodeConfig(start_time=1_500_000_000.0))
        assert trace.transactions[0].timestamp == pytest.approx(
            1_500_000_000.0, abs=5.0
        )


class TestFamilyCalibration:
    @pytest.mark.parametrize("family", ["Angler", "Nuclear", "Magnitude",
                                        "Goon", "Fiesta"])
    def test_average_hosts_tracks_profile(self, family):
        profile = family_by_name(family)
        gen = InfectionGenerator(profile, np.random.default_rng(42))
        counts = [len(t.hosts) for t in _episodes(gen, 60)]
        measured = float(np.mean(counts))
        # Mean within a factor ~2 of the Table I average (small sample).
        assert profile.hosts.mean / 2 <= measured <= profile.hosts.mean * 2.5

    def test_determinism(self):
        gen_a = InfectionGenerator(family_by_name("RIG"),
                                   np.random.default_rng(77))
        gen_b = InfectionGenerator(family_by_name("RIG"),
                                   np.random.default_rng(77))
        trace_a, trace_b = gen_a.generate(), gen_b.generate()
        assert len(trace_a) == len(trace_b)
        assert [t.request.uri for t in trace_a] == [
            t.request.uri for t in trace_b
        ]
