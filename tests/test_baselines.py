"""Unit tests for the prior-work baseline abstractions."""

import numpy as np
import pytest

from repro.baselines.downloader_graph import (
    DOWNLOADER_FEATURES,
    build_download_graph,
    downloader_features,
)
from repro.baselines.redirect_chain import (
    REDIRECT_FEATURES,
    redirect_features,
)
from repro.core.model import Trace, TraceLabel
from repro.synthesis.corpus import ground_truth_corpus
from tests.conftest import make_txn
from tests.oracles.downloader_graph import (
    downloader_features as downloader_features_networkx,
)


def _download_trace():
    txns = [
        make_txn(host="pages.com", uri="/index.html", ts=1.0),
        make_txn(host="files.com", uri="/a.exe", ts=10.0,
                 content_type="application/x-msdownload",
                 referrer="http://pages.com/index.html", size=1000),
        make_txn(host="files.com", uri="/b.zip", ts=20.0,
                 content_type="application/zip",
                 referrer="http://files.com/a.exe", size=2000),
    ]
    return Trace(transactions=txns, label=TraceLabel.INFECTION)


class TestDownloaderGraph:
    def test_nodes_are_downloads(self):
        files, _ = build_download_graph(_download_trace())
        assert len(files) == 2  # exe + zip (html is not)

    def test_provenance_edge(self):
        _, edges = build_download_graph(_download_trace())
        assert edges == [(0, 1)]

    def test_feature_vector_shape(self):
        vec = downloader_features(_download_trace())
        assert vec.shape == (len(DOWNLOADER_FEATURES),)
        assert np.all(np.isfinite(vec))

    def test_total_bytes(self):
        vec = downloader_features(_download_trace())
        index = DOWNLOADER_FEATURES.index("dg_total_bytes")
        assert vec[index] == 3000.0

    def test_empty_trace(self):
        vec = downloader_features(Trace(transactions=[make_txn()]))
        assert vec[DOWNLOADER_FEATURES.index("dg_order")] == 0.0

    def test_growth_rate(self):
        vec = downloader_features(_download_trace())
        index = DOWNLOADER_FEATURES.index("dg_growth_rate")
        # 1 inter-download interval over 10 s -> 6 downloads/minute
        assert vec[index] == pytest.approx(6.0)

    def test_corpus_separation(self, tiny_corpus):
        from repro.baselines.downloader_graph import extract_matrix
        X, y = extract_matrix(tiny_corpus.traces)
        order = X[:, DOWNLOADER_FEATURES.index("dg_order")]
        assert order[y == 1].mean() > order[y == 0].mean()

    def test_rows_equal_networkx_reference(self):
        corpus = ground_truth_corpus(seed=7, scale=0.05)
        for trace in corpus.traces:
            assert (downloader_features(trace).tobytes()
                    == downloader_features_networkx(trace).tobytes())


class TestRedirectChain:
    def test_feature_vector_shape(self, simple_trace):
        vec = redirect_features(simple_trace)
        assert vec.shape == (len(REDIRECT_FEATURES),)
        assert np.all(np.isfinite(vec))

    def test_counts_30x_hop(self, simple_trace):
        vec = redirect_features(simple_trace)
        assert vec[REDIRECT_FEATURES.index("rc_http_30x_hops")] == 1.0
        assert vec[REDIRECT_FEATURES.index("rc_chain_count")] == 1.0

    def test_no_redirects(self):
        trace = Trace(transactions=[make_txn()], label=TraceLabel.BENIGN)
        vec = redirect_features(trace)
        assert vec[REDIRECT_FEATURES.index("rc_total_hops")] == 0.0

    def test_ip_literal_hops(self):
        txns = [
            make_txn(host="a.com", ts=1.0, status=302, content_type="",
                     extra_res_headers={"Location": "http://10.1.2.3/x"}),
        ]
        vec = redirect_features(Trace(transactions=txns))
        assert vec[REDIRECT_FEATURES.index("rc_ip_literal_hops")] == 1.0

    def test_corpus_separation(self, tiny_corpus):
        from repro.baselines.redirect_chain import extract_matrix
        X, y = extract_matrix(tiny_corpus.traces)
        hops = X[:, REDIRECT_FEATURES.index("rc_total_hops")]
        assert hops[y == 1].mean() > hops[y == 0].mean()
