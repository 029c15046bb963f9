"""Property tests on corpus-level invariants the pipeline relies on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import TraceLabel
from repro.core.payloads import PayloadType, is_downloadable, is_exploit_type
from repro.core.stages import Stage, assign_stages
from repro.synthesis.benign import BenignGenerator
from repro.synthesis.corpus import ground_truth_corpus
from repro.synthesis.families import EXPLOIT_KIT_FAMILIES
from repro.synthesis.infection import EpisodeConfig, InfectionGenerator
from tests.conftest import cluster_sessions


class TestInfectionEpisodeInvariants:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6),
           family_index=st.integers(0, len(EXPLOIT_KIT_FAMILIES) - 1))
    def test_every_episode_delivers_a_payload(self, seed, family_index):
        """Property: every infection has at least one risky download."""
        rng = np.random.default_rng(seed)
        generator = InfectionGenerator(
            EXPLOIT_KIT_FAMILIES[family_index], rng
        )
        trace = generator.generate()
        delivered = [
            t for t in trace.transactions
            if t.status == 200 and is_downloadable(t.payload_type)
        ]
        assert delivered

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_single_victim_per_episode(self, seed):
        rng = np.random.default_rng(seed)
        trace = InfectionGenerator(EXPLOIT_KIT_FAMILIES[0], rng).generate()
        assert len({t.client for t in trace.transactions}) == 1

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_stage_monotonicity(self, seed):
        """Property: post-download edges never precede the first
        exploit delivery."""
        rng = np.random.default_rng(seed)
        trace = InfectionGenerator(
            EXPLOIT_KIT_FAMILIES[seed % 4], rng
        ).generate(EpisodeConfig(with_post_download=True, stealth=False))
        stages = assign_stages(trace.transactions)
        exploit_times = [
            t.timestamp for t in trace.transactions
            if t.status == 200 and is_exploit_type(t.payload_type)
        ]
        if not exploit_times:
            return  # redirectless crypt-only episodes may classify oddly
        first_exploit = min(exploit_times)
        for txn, stage in zip(trace.transactions, stages):
            if stage is Stage.POST_DOWNLOAD:
                assert txn.timestamp >= first_exploit

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_benign_sessions_have_no_exploit_payloads(self, seed):
        rng = np.random.default_rng(seed)
        trace = BenignGenerator(rng).generate_session()
        assert trace.label is TraceLabel.BENIGN
        types = {t.payload_type for t in trace.transactions}
        assert PayloadType.CRYPT not in types
        assert PayloadType.SWF not in types

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_session_grouping_total(self, seed):
        """Property: grouping partitions the stream losslessly."""
        rng = np.random.default_rng(seed)
        trace = BenignGenerator(rng).generate_session()
        clusters = cluster_sessions(trace.transactions)
        regrouped = sum(len(c.transactions) for c in clusters)
        assert regrouped == len(trace.transactions)


class TestCorpusComposition:
    def test_scaled_counts_proportional(self):
        corpus = ground_truth_corpus(seed=3, scale=0.04)
        assert len(corpus.benign) == round(980 * 0.04)
        per_family = {
            f.name: len(corpus.by_family(f.name))
            for f in EXPLOIT_KIT_FAMILIES
        }
        assert per_family["Angler"] == round(253 * 0.04)
        assert per_family["Goon"] == max(1, round(19 * 0.04))

    def test_stealth_fraction_zero(self):
        corpus = ground_truth_corpus(seed=3, scale=0.04,
                                     stealth_fraction=0.0)
        assert not any(t.meta.get("stealth") for t in corpus.infections)

    def test_stealth_fraction_one(self):
        corpus = ground_truth_corpus(seed=3, scale=0.02,
                                     stealth_fraction=1.0)
        assert all(t.meta.get("stealth") for t in corpus.infections)
