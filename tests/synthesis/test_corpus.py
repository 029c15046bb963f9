"""Unit tests for corpus builders."""

import numpy as np
import pytest

from repro.core.model import TraceLabel
from repro.synthesis import corpus as corpus_module
from repro.synthesis.corpus import Corpus, ground_truth_corpus, validation_corpus
from repro.synthesis.families import EXPLOIT_KIT_FAMILIES


class TestGroundTruthCorpus:
    def test_scaled_composition(self, tiny_corpus):
        assert len(tiny_corpus.benign) == 49  # round(980 * 0.05)
        assert len(tiny_corpus.infections) > 30

    def test_every_family_present(self, tiny_corpus):
        expected = {f.name for f in EXPLOIT_KIT_FAMILIES}
        assert set(tiny_corpus.families) == expected

    def test_all_labelled(self, tiny_corpus):
        assert all(t.label is not None for t in tiny_corpus.traces)

    def test_by_family(self, tiny_corpus):
        angler = tiny_corpus.by_family("angler")
        assert angler
        assert all(t.family == "Angler" for t in angler)

    def test_full_scale_composition_counts(self):
        # Verify the arithmetic without generating: scale math only.
        from repro.synthesis.corpus import _scaled
        assert _scaled(980, 1.0) == 980
        assert _scaled(253, 1.0) == 253
        assert _scaled(19, 0.01) == 1  # floor of one trace per stratum

    def test_determinism(self):
        corpus_a = ground_truth_corpus(seed=5, scale=0.02)
        corpus_b = ground_truth_corpus(seed=5, scale=0.02)
        assert len(corpus_a) == len(corpus_b)
        uris_a = [t.transactions[0].request.uri for t in corpus_a.traces]
        uris_b = [t.transactions[0].request.uri for t in corpus_b.traces]
        assert uris_a == uris_b

    def test_different_seeds_differ(self):
        corpus_a = ground_truth_corpus(seed=5, scale=0.02)
        corpus_b = ground_truth_corpus(seed=6, scale=0.02)
        uris_a = [t.transactions[0].request.uri for t in corpus_a.traces]
        uris_b = [t.transactions[0].request.uri for t in corpus_b.traces]
        assert uris_a != uris_b

    def test_iteration_and_len(self, tiny_corpus):
        assert len(list(tiny_corpus)) == len(tiny_corpus)


class TestValidationCorpus:
    def test_composition_ratio(self):
        corpus = validation_corpus(scale=0.01)
        # 7489:1500 infection:benign ratio, scaled
        assert len(corpus.infections) == 75  # round-ish of 74.89
        assert len(corpus.benign) == 15

    def test_disjoint_from_ground_truth(self):
        ground = ground_truth_corpus(seed=7, scale=0.02)
        validation = validation_corpus(seed=1301, scale=0.005)
        ground_hosts = set().union(*(t.hosts for t in ground.infections))
        validation_hosts = set().union(
            *(t.hosts for t in validation.infections)
        )
        # Malicious infrastructure is minted fresh: overlap only on
        # well-known benign sites, never on exploit hosts.
        overlap = ground_hosts & validation_hosts
        assert not any(h.endswith((".pw", ".top", ".xyz")) for h in overlap)

    def test_family_mix_tracks_table1_weights(self):
        corpus = validation_corpus(scale=0.05)
        angler = len(corpus.by_family("Angler"))
        goon = len(corpus.by_family("Goon"))
        assert angler > goon  # 253/770 vs 19/770 of the mass

    def test_drift_changes_generation(self, monkeypatch):
        monkeypatch.setattr(corpus_module, "_VALIDATION_DRIFT", 0.0)
        base = validation_corpus(seed=1301, scale=0.005)
        monkeypatch.setattr(corpus_module, "_VALIDATION_DRIFT", 0.5)
        drifted = validation_corpus(seed=1301, scale=0.005)
        sizes_a = [len(t) for t in base.infections]
        sizes_b = [len(t) for t in drifted.infections]
        assert sizes_a != sizes_b


class TestCorpusContainer:
    def test_empty_corpus(self):
        corpus = Corpus()
        assert len(corpus) == 0
        assert corpus.benign == []
        assert corpus.infections == []
        assert corpus.families == []
