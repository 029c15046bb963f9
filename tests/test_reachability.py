"""Reachability fence: ``src/`` holds only what an entry point reaches.

Every top-level function and class and every method under ``src/``
must be reached from a production root, or carry an :data:`ALLOWLIST`
entry that says why it stays.  The scan is stdlib :mod:`ast` only.

*Roots* are the code that runs the pipeline outside the test suite:

* every module-level statement under ``src/`` — ``cli.py``'s
  ``main()`` call and its ``EXPERIMENTS`` dispatch table, the feature
  registry and other import-time tables;
* every file under ``examples/`` and ``benchmarks/``: the ledger's
  ``workloads.py``, the ``shim.py`` ``ENTRY_POINTS`` (strings, so
  identifiers inside string constants count in these files), and the
  ``test_bench_*.py`` files the README names as the way to regenerate
  each paper artefact;
* :data:`README_NAMES`, the library API the README's code blocks show.

*Matching* is by identifier, transitively: a reached body reaches every
definition that bears a name it mentions (``obj.feed(...)`` reaches
every ``feed``).  That over-approximates, so the fence can miss dead
code but never flags live code.  A dunder is reached with its class.
Imports and ``__all__`` are not uses, so an ``__init__.py`` re-export
keeps nothing alive, and ``tests/`` is not a root.

To keep a definition the fence flags, add it to :data:`ALLOWLIST` under
one of the three headings there.  An entry that is reached or no longer
defined fails the fence, so the list can only shrink.
"""

from __future__ import annotations

import ast
import re
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Library API shown in the README's code blocks.
README_NAMES = (
    "quick_detector", "replay",                          # Quick start
    "LoadGenerator", "HOSTILE", "packets", "feed",       # Sustained load
    "EngineSpec", "ShardedDetectionService", "drain",    # Sharded service
)

#: Unreached definitions that stay, as ``qualname -> reason``.  Every
#: reason starts with one of three headings:
#:
#: * ``reference:`` — a reference the differentials compare against;
#: * ``state:`` — a state accessor a bounded-memory or reassembly test
#:   reads;
#: * ``debt (N tests):`` — dead API whose N tests exceed one change's
#:   removal budget; delete it with its tests.
ALLOWLIST: dict[str, str] = {
    "parse_requests": "reference: the batch parser the incremental"
                      " HTTP parser and the header split are checked"
                      " against",
    "parse_responses": "reference: as parse_requests, for responses",
    "DecisionTreeClassifier.predict": "reference: the per-tree vote of"
                                      " tests/oracles/forest_inference",
    "gain_ratio": "reference: the scalar split score the fold kernel"
                  " _fold_gain_ratios is proven bit-identical to",
    "OnTheWireDetector.tracked_state_size": "state: test_bounded_state"
                                            " asserts it stays flat",
    "FeatureExtractor.structure_cache_len": "state: the structural LRU"
                                            " bound test reads it",
    "Tracer.event_count": "state: the tracer ring-bound tests read it",
    "NullTracer.event_count": "state: the null tracer's half of"
                              " Tracer.event_count",
    "TcpStream.client_data": "state: the reassembly tests read the"
                             " reassembled client bytes",
    "TcpStream.server_data": "state: as TcpStream.client_data",
    "StreamDirection.has_gap": "state: the reassembly gap test reads it",
    "LabeledDataset": "debt (5 tests): tests/learning/test_dataset.py",
    "train_test_split": "debt (7 tests): tests/learning/test_dataset.py",
    "cms_breakdown": "debt (2 tests): test_exposure_headers.py",
    "payload_risk_from_corpus": "debt (3 tests): detection/test_clues.py",
    "PayloadSummary": "debt (3 tests): core/test_payloads.py; no WCG"
                      " node stores payload counts any more",
    "EnsembleRandomForest.predict": "debt (6 tests): the pipeline reads"
                                    " decision_scores",
    "EnsembleRandomForest.feature_importances": "debt (2 tests):"
                                                " test_forest.py",
    "DecisionTreeClassifier.feature_importances": "debt (1 test):"
                                                  " test_tree.py",
    "HttpRequest.full_url": "debt (2 tests): core/test_model.py",
    "trace_from_packets": "debt (1 test): net/test_flows.py",
    "poisson_at_least": "debt (2 tests): synthesis/test_sampling.py",
}

_HEADING = re.compile(r"(reference|state|debt \(\d+ tests?\)): \S")
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dunder(name: str) -> bool:
    return len(name) > 4 and name.startswith("__") and name.endswith("__")


def _flat(body: list[ast.stmt]):
    """Statements of a module or class body with ``if`` / ``try`` /
    ``with`` blocks opened, so definitions they guard still count."""
    for stmt in body:
        if isinstance(stmt, (ast.If, ast.Try, ast.With)):
            for field in ("body", "orelse", "finalbody"):
                yield from _flat(getattr(stmt, field, []))
            for handler in getattr(stmt, "handlers", []):
                yield from _flat(handler.body)
        else:
            yield stmt


def _assigns_all(stmt: ast.stmt) -> bool:
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [getattr(stmt, "target", None)])
    return any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets)


def _names(nodes, strings: bool = False) -> set[str]:
    """Identifiers the nodes mention.  An import is not a use, except
    that ``import x as y`` uses ``x``; with ``strings``, identifiers
    inside string constants count too."""
    found: set[str] = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
            elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                found.update(alias.name.rpartition(".")[2]
                             for alias in sub.names if alias.asname)
            elif (strings and isinstance(sub, ast.Constant)
                  and isinstance(sub.value, str)):
                found.update(_IDENTIFIER.findall(sub.value))
    return found


class _Definition:
    """One checked definition: its qualified name, file, node and
    enclosing class, and (for a class) the dunder methods reached with
    it."""

    __slots__ = ("qualname", "path", "node", "owner", "dunders")

    def __init__(self, qualname: str, path: Path, node: ast.AST, owner):
        self.qualname = qualname
        self.path = path
        self.node = node
        self.owner = owner
        self.dunders: list[_Definition] = []

    def uses(self) -> set[str]:
        """What reaching this definition reaches: a function's whole
        node; a class's decorators, bases and non-method statements."""
        node = self.node
        if not isinstance(node, ast.ClassDef):
            return _names([node])
        return _names([*node.decorator_list, *node.bases, *node.keywords,
                       *(stmt for stmt in _flat(node.body)
                         if not isinstance(stmt, _DEFS))])


def _definitions(path: Path, body, prefix: str = "", owner=None):
    for stmt in _flat(body):
        if isinstance(stmt, _DEFS):
            definition = _Definition(prefix + stmt.name, path, stmt, owner)
            if owner is not None and _is_dunder(stmt.name):
                owner.dunders.append(definition)
            yield definition
            if isinstance(stmt, ast.ClassDef):
                yield from _definitions(path, stmt.body,
                                        f"{definition.qualname}.",
                                        definition)


def scan(src: Path, root_files, root_names=()):
    """``(unreached, defined)`` for the modules under ``src``, both as
    ``qualname -> path``.  An unreached class stands for its members,
    and a dunder is never reported on its own."""
    by_name: dict[str, list[_Definition]] = {}
    definitions: list[_Definition] = []
    seeds = set(root_names)
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        seeds |= _names(stmt for stmt in _flat(tree.body)
                        if not isinstance(stmt, _DEFS)
                        and not _assigns_all(stmt))
        for definition in _definitions(path, tree.body):
            definitions.append(definition)
            by_name.setdefault(definition.node.name, []).append(definition)
    for path in root_files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        seeds |= _names([tree], strings=True)

    reached: set[int] = set()
    seen: set[str] = set()
    pending = list(seeds)
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        stack = list(by_name.get(name, ()))
        while stack:
            definition = stack.pop()
            if id(definition) in reached:
                continue
            reached.add(id(definition))
            pending.extend(definition.uses() - seen)
            stack.extend(definition.dunders)

    defined = {d.qualname: d.path for d in definitions}
    unreached = {
        d.qualname: d.path for d in definitions
        if id(d) not in reached
        and not _is_dunder(d.node.name)
        and (d.owner is None or id(d.owner) in reached)
    }
    return unreached, defined


def _production_scan():
    roots = sorted((REPO / "examples").glob("*.py"))
    roots += sorted((REPO / "benchmarks").rglob("*.py"))
    return scan(REPO / "src", roots, README_NAMES)


def _listing(names, where) -> str:
    return "\n".join(f"  {where[name].relative_to(REPO)}::{name}"
                     for name in sorted(names))


def test_every_definition_is_reached_or_allowlisted():
    unreached, _ = _production_scan()
    flagged = unreached.keys() - ALLOWLIST.keys()
    assert not flagged, (
        "nothing outside tests/ reaches these definitions; delete them,"
        " or allowlist them with a reason:\n"
        + _listing(flagged, unreached))


def stale_entries(allowlist, unreached, defined) -> dict[str, str]:
    """Allowlisted names that are no longer defined, or reached now."""
    return {name: "no longer defined" if name not in defined
            else "reached now" for name in allowlist
            if name not in unreached}


def test_allowlist_has_no_stale_entries():
    assert not stale_entries(ALLOWLIST, *_production_scan())


def test_allowlist_reasons_fall_under_a_heading():
    bad = {name: reason for name, reason in ALLOWLIST.items()
           if not _HEADING.match(reason)}
    assert not bad


def test_fence_flags_planted_dead_code(tmp_path):
    """A planted package: re-exports, ``__all__`` and a recursive self
    call keep nothing alive; module-level code, a root file and an
    attribute call do; a dead class is one entry for all its members."""
    files = {
        "src/pkg/__init__.py": """
            from pkg.mod import dead, live
            __all__ = ["dead", "live", "Box"]
        """,
        "src/pkg/mod.py": """
            def live():
                return _helper()

            def _helper():
                return 1

            def dead(n):
                return dead(n - 1) if n else live()

            class Box:
                def __init__(self):
                    self.size = 0

                def used(self):
                    return self.size

                def unused(self):
                    return 0

            class Crate:
                def __len__(self):
                    return 0

                def open(self):
                    return 1

            TABLE = {"box": Box}
        """,
        "root.py": """
            from pkg import live
            live()
            TABLE["box"]().used()
        """,
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    unreached, defined = scan(tmp_path / "src", [tmp_path / "root.py"])
    assert set(unreached) == {"dead", "Box.unused", "Crate"}
    assert {"live", "_helper", "Box.__init__", "Crate.open"} <= set(defined)
    allowlist = {"dead": "debt (1 test): x", "live": "reference: x",
                 "gone": "state: x"}
    assert stale_entries(allowlist, unreached, defined) == {
        "live": "reached now", "gone": "no longer defined"}
