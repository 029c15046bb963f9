"""Unit tests for infection-clue inference."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.payloads import PayloadType
from repro.core.redirects import longest_chain_length
from repro.detection import clues
from repro.detection.clues import ClueDetector, CluePolicy
from tests.conftest import make_txn
from tests.oracles.clue_rule import EagerClueRule


def _redirect_txn(src, dst, ts):
    return make_txn(host=src, ts=ts, status=302, content_type="",
                    extra_res_headers={"Location": f"http://{dst}/n"})


class TestClueDetector:
    def test_exploit_shortcut_fires_immediately(self):
        detector = ClueDetector(CluePolicy(redirect_threshold=3))
        clue = detector.observe(
            make_txn(host="ek.pw", uri="/drop.exe",
                     content_type="application/x-msdownload")
        )
        assert clue is not None
        assert clue.payload_type is PayloadType.EXE
        assert clue.server == "ek.pw"

    def test_archive_needs_chain(self):
        detector = ClueDetector(CluePolicy(redirect_threshold=2))
        clue = detector.observe(
            make_txn(host="files.com", uri="/data.zip",
                     content_type="application/zip")
        )
        assert clue is None  # no chain yet

    def test_chain_plus_archive_fires(self):
        detector = ClueDetector(CluePolicy(redirect_threshold=2,
                                           exploit_shortcut=False))
        detector.observe(_redirect_txn("a.com", "b.com", 1.0))
        detector.observe(_redirect_txn("b.com", "c.com", 2.0))
        clue = detector.observe(
            make_txn(host="c.com", uri="/x.zip", ts=3.0,
                     content_type="application/zip")
        )
        assert clue is not None
        assert clue.chain_length >= 2

    def test_below_threshold_no_clue(self):
        detector = ClueDetector(CluePolicy(redirect_threshold=5,
                                           exploit_shortcut=False))
        detector.observe(_redirect_txn("a.com", "b.com", 1.0))
        clue = detector.observe(
            make_txn(host="b.com", uri="/x.zip", ts=2.0,
                     content_type="application/zip")
        )
        assert clue is None

    def test_html_never_a_clue(self):
        detector = ClueDetector(CluePolicy(redirect_threshold=0))
        clue = detector.observe(make_txn(content_type="text/html"))
        assert clue is None

    def test_failed_download_no_clue(self):
        detector = ClueDetector()
        clue = detector.observe(
            make_txn(host="ek.pw", uri="/drop.exe", status=404,
                     content_type="application/x-msdownload")
        )
        assert clue is None

    def test_chain_is_assembled_only_at_a_risky_download(self, monkeypatch):
        calls = []

        def counting(redirects):
            calls.append(len(redirects))
            return longest_chain_length(redirects)

        monkeypatch.setattr(clues, "longest_chain_length", counting)
        detector = ClueDetector(CluePolicy(redirect_threshold=3,
                                           exploit_shortcut=False))
        for hop in range(200):
            assert detector.observe(
                _redirect_txn(f"h{hop}.com", f"h{hop + 1}.com", float(hop))
            ) is None
        assert calls == []
        clue = detector.observe(
            make_txn(host="h200.com", uri="/x.zip", ts=200.0,
                     content_type="application/zip")
        )
        assert calls == [200]
        assert clue is not None and clue.chain_length == 200
        # No new redirect since: the length is not assembled again.
        detector.observe(make_txn(host="h200.com", uri="/y.zip", ts=201.0,
                                  content_type="application/zip"))
        assert calls == [200]


_HOSTS = ("a.com", "b.com", "c.com", "d.com", "e.com")
_RISKY_TYPES = ("application/zip", "application/pdf",
                "application/octet-stream")
_EXPLOIT_TYPES = ("application/x-msdownload", "application/java-archive",
                  "application/x-shockwave-flash")
_BENIGN_TYPES = ("text/html", "image/png", "text/css")


@st.composite
def _client_sequence(draw):
    """One client's transactions: 30x chains, content redirects, referrer
    hops over repeated hosts, and downloads of every kind of payload."""
    host = st.sampled_from(_HOSTS)
    txns = []
    ts = 0.0
    for _ in range(draw(st.integers(0, 12))):
        ts += draw(st.sampled_from([0.0, 0.5, 1.0]))
        shape = draw(st.sampled_from(
            ["chain", "content", "referrer", "download", "page"]))
        if shape == "chain":
            hops = draw(st.lists(host, min_size=1, max_size=7))
            for source, target in zip(hops, hops[1:]):
                txns.append(_redirect_txn(source, target, ts))
                ts += 0.25
        elif shape == "content":
            txns.append(make_txn(
                host=draw(host), ts=ts, content_type="text/html",
                body=(f'<iframe src="http://{draw(host)}/x"></iframe>'
                      .encode())))
        elif shape == "referrer":
            txns.append(make_txn(host=draw(host), ts=ts,
                                 referrer=f"http://{draw(host)}/"))
        else:
            kinds = (_RISKY_TYPES + _EXPLOIT_TYPES if shape == "download"
                     else _BENIGN_TYPES)
            txns.append(make_txn(
                host=draw(host), uri="/f", ts=ts,
                status=draw(st.sampled_from([200, 200, 404, 304])),
                content_type=draw(st.sampled_from(kinds))))
    return txns


@settings(max_examples=300, deadline=None)
@given(txns=_client_sequence(), threshold=st.integers(0, 5),
       shortcut=st.booleans())
def test_lazy_chain_length_matches_the_eager_rule(txns, threshold, shortcut):
    policy = CluePolicy(redirect_threshold=threshold,
                        exploit_shortcut=shortcut)
    lazy, eager = ClueDetector(policy), EagerClueRule(policy)
    for txn in txns:
        assert lazy.observe(txn) == eager.observe(txn)
