"""Reference implementations the differential tests compare against.

The rule: this package holds *reference code only*, imported by tests,
never by ``src/``.  Each module is the straightforward formulation of
something ``src/`` computes another way — the per-node-argsort tree
grower, the per-tree object walk of the forest and one tree's hard
vote, the networkx graph algorithms behind the topology features and
the downloader-graph baseline, the eager wire decode, the whole-buffer
HTTP parse, the one-column gain ratio — or of something ``src/`` used to
compute that way and now shortcuts: the vectorised feature-matrix
assembly, the always-parse session-id extraction, the rescan-per-hop
redirect chain assembly, the single-horizon session prune, the
pair-per-header map, the decode-every-frame shard router.  Tests run
them **live** against the production path on the same inputs (no
frozen golden files) and assert byte identity.  Nothing here is
selectable at run time: production has exactly one implementation per
layer (``tests/test_single_engine.py`` guards it), and networkx is a
*dev* dependency because only tests use it.
"""
