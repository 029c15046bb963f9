"""Unit tests for clue-time-prefix training augmentation."""

import numpy as np
import pytest

from repro.core.model import Trace, TraceLabel
from repro.detection.training import clue_time_prefix, training_matrix
from repro.features.extractor import extract_matrix
from repro.features.registry import NUM_FEATURES
from tests.conftest import make_txn


def _trace_with_download(label=TraceLabel.INFECTION):
    txns = [
        make_txn(host="a.com", ts=1.0),
        make_txn(host="a.com", uri="/s.css", ts=2.0,
                 content_type="text/css"),
        make_txn(host="ek.pw", uri="/drop.exe", ts=3.0,
                 content_type="application/x-msdownload"),
        make_txn(host="cnc.xyz", ts=4.0),
        make_txn(host="cnc.xyz", ts=5.0),
    ]
    return Trace(transactions=txns, label=label)


class TestClueTimePrefix:
    def test_cuts_at_first_risky_download(self):
        prefix = clue_time_prefix(_trace_with_download())
        assert prefix is not None
        assert len(prefix.transactions) == 3
        assert prefix.transactions[-1].server == "ek.pw"

    def test_label_preserved(self):
        prefix = clue_time_prefix(_trace_with_download(TraceLabel.BENIGN))
        assert prefix.label is TraceLabel.BENIGN

    def test_no_download_cuts_mid_session(self):
        txns = [make_txn(host=f"h{i}.com", ts=float(i)) for i in range(10)]
        trace = Trace(transactions=txns, label=TraceLabel.BENIGN)
        prefix = clue_time_prefix(trace)
        assert prefix is not None
        assert len(prefix.transactions) == 6  # 3/5 of 10

    def test_download_last_gives_none(self):
        txns = [
            make_txn(host="a.com", ts=1.0),
            make_txn(host="a.com", uri="/file.pdf", ts=2.0,
                     content_type="application/pdf"),
        ]
        trace = Trace(transactions=txns, label=TraceLabel.BENIGN)
        assert clue_time_prefix(trace) is None

    def test_tiny_trace_gives_none(self):
        trace = Trace(transactions=[make_txn()], label=TraceLabel.BENIGN)
        assert clue_time_prefix(trace) is None


class TestTrainingMatrix:
    def test_augmentation_adds_rows(self, tiny_corpus):
        traces = tiny_corpus.traces[:30]
        X_plain, y_plain = extract_matrix(traces)
        X_aug, y_aug = training_matrix(traces)
        assert len(X_plain) == 30
        assert len(X_aug) > len(X_plain)
        assert X_aug.shape[1] == NUM_FEATURES
        # Each full trace's row comes first, then its prefix's (if any).
        prefixes = [clue_time_prefix(trace) for trace in traces]
        full_rows = np.cumsum([0] + [1 + (p is not None)
                                     for p in prefixes[:-1]])
        assert np.array_equal(X_aug[full_rows], X_plain)
        assert np.array_equal(y_aug[full_rows], y_plain)

    def test_augmented_labels_balanced_within_classes(self, tiny_corpus):
        traces = tiny_corpus.traces[:60]
        _, y_plain = extract_matrix(traces)
        _, y_aug = training_matrix(traces)
        # Prefix rows keep roughly the class ratio of the base rows.
        base_ratio = y_plain.mean()
        aug_ratio = y_aug.mean()
        assert abs(aug_ratio - base_ratio) < 0.25

    def test_unlabelled_traces_skipped(self):
        trace = Trace(transactions=[make_txn()])
        X, y = training_matrix([trace])
        assert len(X) == 0

    def test_empty_input(self):
        X, y = training_matrix([])
        assert X.shape == (0, NUM_FEATURES)
