"""Unit tests for session-ID extraction and session grouping (the
clustering cases run on the one clusterer, ``SessionTable.route``)."""

from urllib.parse import parse_qsl, urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.payloads import split_uri
from repro.core.sessions import (
    _SESSION_PARAM_NAMES,
    _may_name_session,
    extract_session_id,
)
from tests.conftest import cluster_sessions, make_txn
from tests.oracles.session_id import (
    MAY_NAME_SESSION_REFERENCE,
    extract_session_id_reference,
)

# URI fragments chosen to sit on every shortcut ``extract_session_id``
# and ``split_uri`` take: markers present/absent, names spelt plainly,
# in odd case, percent- or plus-encoded, case-folding look-alikes, and
# the characters ``urlsplit`` strips or cuts at.
_NAMES = st.sampled_from([
    "sid", "SID", "PHPSESSID", "s%69d", "%73id", "s_id", "s+id", "sess",
    "session%5Fid", "\u017fid", "\u212Aid", "cfid", "x", "q", "id", "",
])
_VALUES = st.sampled_from(["abc123", "", "a%20b", "v+w", "1", "x;y", "a#b"])
_PAIRS = st.lists(
    st.tuples(_NAMES, st.sampled_from(["=", ""]), _VALUES).map("".join),
    max_size=4,
).map("&".join)
_PATHS = st.sampled_from([
    "/", "/a/b.html", "/app;jsessionid=XYZ-1", "/app;JSESSIONID=q_9/x",
    "/a;jsessionid=", "/a;b=c", "//cdn.example/x", "/a\tb", "/a\rb\n",
    "", "*", "/a b", "/%3F", "/a#frag", "/a#f?sid=infragment",
    "http://h.example/p", "http://h.example:8080/p;jsessionid=ABS",
    "HTTP://U@h/p", "h.example:443", " /lead", "/trail ", "/\x00",
])
_URIS = st.builds(
    lambda path, mark, query, tail: path + mark + query + tail,
    _PATHS, st.sampled_from(["?", "", "??", "?&"]), _PAIRS,
    st.sampled_from(["", "#f", "#f?sid=late", "\t", "?sid=second"]),
)


@settings(max_examples=400, deadline=None)
@given(uri=_URIS, cookie=st.sampled_from(["", "sid=fromcookie"]))
def test_session_id_matches_the_reference(uri, cookie):
    txn = make_txn(uri=uri,
                   extra_req_headers={"Cookie": cookie} if cookie else None)
    assert extract_session_id(txn) == extract_session_id_reference(txn)


@settings(max_examples=600, deadline=None)
@given(query=st.one_of(st.text(), _PAIRS))
def test_needles_accept_every_query_the_regex_accepted(query):
    # The regex's only other hits are case-fold look-alikes (``ſid``),
    # which ``name.lower()`` rejects after ``parse_qsl`` anyway.
    hits = MAY_NAME_SESSION_REFERENCE.finditer(query)
    if any(hit.group().isascii() for hit in hits):
        assert _may_name_session(query)
    if any(name.lower() in _SESSION_PARAM_NAMES and value
           for name, value in parse_qsl(query)):
        assert _may_name_session(query)


def test_every_session_name_contains_a_needle():
    for name in _SESSION_PARAM_NAMES:
        assert _may_name_session(name) and _may_name_session(name.upper())


@settings(max_examples=400, deadline=None)
@given(uri=st.one_of(_URIS, st.text(max_size=12)))
def test_split_uri_matches_urlsplit(uri):
    try:
        parts = urlsplit(uri)
    except ValueError:  # e.g. an unbalanced ``//[`` authority
        with pytest.raises(ValueError):
            split_uri(uri)
        return
    assert split_uri(uri) == (parts.path, parts.query)


class TestExtractSessionId:
    def test_query_param(self):
        txn = make_txn(uri="/page?sid=abc123&x=1")
        assert extract_session_id(txn) == "abc123"

    def test_phpsessid_param(self):
        txn = make_txn(uri="/p?PHPSESSID=deadbeef")
        assert extract_session_id(txn) == "deadbeef"

    def test_jsessionid_path(self):
        txn = make_txn(uri="/app/page;jsessionid=XYZ789?x=1")
        assert extract_session_id(txn) == "XYZ789"

    def test_cookie_header(self):
        txn = make_txn(extra_req_headers={"Cookie": "theme=dark; sid=c00kie"})
        assert extract_session_id(txn) == "c00kie"

    def test_set_cookie_response(self):
        txn = make_txn(extra_res_headers={"Set-Cookie":
                                          "JSESSIONID=server-side; Path=/"})
        assert extract_session_id(txn) == "server-side"

    def test_no_session(self):
        assert extract_session_id(make_txn(uri="/plain")) == ""

    def test_query_precedence_over_cookie(self):
        txn = make_txn(uri="/p?session_id=fromquery",
                       extra_req_headers={"Cookie": "sid=fromcookie"})
        assert extract_session_id(txn) == "fromquery"


class TestGroupSessions:
    def test_same_session_id_groups(self):
        txns = [
            make_txn(host="a.com", uri="/1?sid=S", ts=1.0),
            make_txn(host="b.com", uri="/2?sid=S", ts=200.0),  # past idle gap
        ]
        clusters = cluster_sessions(txns, idle_gap=60.0)
        assert len(clusters) == 1

    def test_referrer_within_gap_groups(self):
        txns = [
            make_txn(host="a.com", ts=1.0),
            make_txn(host="b.com", ts=10.0, referrer="http://a.com/"),
        ]
        assert len(cluster_sessions(txns)) == 1

    def test_idle_gap_splits(self):
        txns = [
            make_txn(host="a.com", ts=1.0),
            make_txn(host="a.com", ts=500.0),
        ]
        assert len(cluster_sessions(txns, idle_gap=60.0)) == 2

    def test_different_clients_never_group(self):
        txns = [
            make_txn(host="a.com", ts=1.0, client="alice"),
            make_txn(host="a.com", ts=2.0, client="bob"),
        ]
        clusters = cluster_sessions(txns)
        assert len(clusters) == 2
        assert {c.client for c in clusters} == {"alice", "bob"}

    def test_same_host_within_gap_groups(self):
        txns = [
            make_txn(host="a.com", uri="/1", ts=1.0),
            make_txn(host="a.com", uri="/2", ts=5.0),
        ]
        assert len(cluster_sessions(txns)) == 1

    def test_unrelated_host_opens_new_cluster(self):
        txns = [
            make_txn(host="a.com", ts=1.0),
            make_txn(host="z.org", ts=2.0),  # no referrer, new host
        ]
        assert len(cluster_sessions(txns)) == 2

    def test_clusters_ordered_by_first_timestamp(self):
        txns = [
            make_txn(host="late.com", ts=100.0),
            make_txn(host="early.com", ts=1.0),
        ]
        clusters = cluster_sessions(txns)
        assert clusters[0].transactions[0].server == "early.com"

    def test_cluster_collects_session_ids_and_hosts(self):
        txns = [
            make_txn(host="a.com", uri="/1?sid=S1", ts=1.0),
            make_txn(host="b.com", uri="/2?sid=S2", ts=2.0,
                     referrer="http://a.com/1"),
        ]
        clusters = cluster_sessions(txns)
        assert len(clusters) == 1
        assert clusters[0].session_ids == {"S1", "S2"}
        assert {"a.com", "b.com"} <= clusters[0].hosts

    def test_empty_input(self):
        assert cluster_sessions([]) == []
