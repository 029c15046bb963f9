"""Reachability fence: ``src/`` holds only what an entry point reaches.

Every top-level function and class, every method and every field under
``src/`` must be reached from a production root, or carry an
:data:`ALLOWLIST` entry that says why it stays.  The scan is stdlib
:mod:`ast` only.

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

*Matching* is by identifier, transitively: a reached body reaches the
definitions that bear a name it mentions.  An attribute (``obj.feed``),
a ``getattr`` / ``hasattr`` constant or an identifier in a root file's
strings reaches every definition of that name, methods included; a bare
name (``feed``) reaches only top-level definitions, and, in a class's
own body, that class's members (a dispatch table such as ``_steps =
(_start, ...)``).  A store (``obj.feed = f``, ``obj.hits += 1``) is not
a mention.  That still over-approximates, so the fence can miss dead
code but never flags live code.  A dunder is reached with its class.
Imports and ``__all__`` are not uses, so an ``__init__.py`` re-export
keeps nothing alive, and ``tests/`` is not a root.

*Fields* of a reached class — dataclass fields, ``__slots__`` entries,
other class-body assignments and ``self.x = ...`` stores in its methods
— are reached when reached code mentions their name as an attribute in
the same sense.  A class whose fields are read by value, position or
hash (an ``Enum``, a ``NamedTuple``) or that reads its own fields
reflectively (``fields(self)``, ``asdict(self)``, ``self.__dict__``)
has all of them read.

To keep a definition or field the fence flags, add it to
:data:`ALLOWLIST` with a ``state:`` reason.  An entry that is reached
or no longer defined fails the fence, so the list can only shrink.
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
#: reason starts ``state:`` — a state accessor a bounded-memory or
#: reassembly test reads.  Dead code is deleted, and a reference a
#: differential compares against lives in ``tests/oracles/``.
ALLOWLIST: dict[str, str] = {
    "OnTheWireDetector.tracked_state_size": "state: test_bounded_state"
                                            " asserts it stays flat",
    "FeatureExtractor.structure_cache_len": "state: the structural LRU"
                                            " bound test reads it",
    "Tracer.event_count": "state: the tracer ring-bound tests read it",
    "NullTracer.event_count": "state: the null tracer's half of"
                              " Tracer.event_count",
}

_HEADING = re.compile(r"state: \S")
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
#: Bases whose fields are read by value, position or hash.
_WHOLE_VALUE_BASES = {"Enum", "IntEnum", "Flag", "IntFlag", "NamedTuple"}
#: Calls that read every field of their argument.
_REFLECTIVE_CALLS = {"fields", "asdict", "astuple", "vars"}


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


def _called(node: ast.Call) -> str | None:
    """The name a call calls: ``f`` for ``f(...)`` and ``m.f(...)``."""
    return getattr(node.func, "id", None) or getattr(node.func, "attr", None)


def _names(nodes, strings: bool = False) -> tuple[set[str], set[str]]:
    """``(bare, attributes)``: the identifiers the nodes mention as
    plain names and as attributes, stores excepted.  A ``getattr`` /
    ``hasattr`` constant counts as an attribute.  An import is not a
    use, except that ``import x as y`` uses the bare name ``x``; with
    ``strings``, identifiers inside string constants count as
    attributes."""
    bare: set[str] = set()
    attributes: set[str] = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if not isinstance(sub.ctx, ast.Store):
                    bare.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                if not isinstance(sub.ctx, ast.Store):
                    attributes.add(sub.attr)
            elif (isinstance(sub, ast.Call)
                  and _called(sub) in ("getattr", "hasattr")
                  and len(sub.args) > 1
                  and isinstance(sub.args[1], ast.Constant)):
                attributes.add(sub.args[1].value)
            elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                bare.update(alias.name.rpartition(".")[2]
                            for alias in sub.names if alias.asname)
            elif (strings and isinstance(sub, ast.Constant)
                  and isinstance(sub.value, str)):
                attributes.update(_IDENTIFIER.findall(sub.value))
    return bare, attributes


def _reads_itself(node: ast.ClassDef) -> bool:
    """Whether a class reads its own fields without naming them."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and _called(sub) in _REFLECTIVE_CALLS:
            if any(getattr(arg, "id", None) == "self" for arg in sub.args):
                return True
        elif (isinstance(sub, ast.Attribute)
              and sub.attr in ("__dict__", "__slots__")
              and getattr(sub.value, "id", None) == "self"):
            return True
    return False


def _fields(node: ast.ClassDef) -> set[str]:
    """The fields a class stores, as names: annotated and plain
    class-body assignments, ``__slots__`` entries, and attributes its
    methods store on their first parameter.  None for a class whose
    fields are all read (see :data:`_WHOLE_VALUE_BASES`,
    :func:`_reads_itself`); dunders are not fields."""
    bases = {getattr(base, "id", None) or getattr(base, "attr", None)
             for base in node.bases}
    if bases & _WHOLE_VALUE_BASES or _reads_itself(node):
        return set()
    names: set[str] = set()
    for stmt in _flat(node.body):
        if isinstance(stmt, ast.AnnAssign):
            names.add(getattr(stmt.target, "id", ""))
        elif isinstance(stmt, ast.Assign):
            targets = {getattr(target, "id", "") for target in stmt.targets}
            names |= targets
            if "__slots__" in targets and isinstance(
                    stmt.value, (ast.Tuple, ast.List)):
                names.update(elt.value for elt in stmt.value.elts
                             if isinstance(elt, ast.Constant))
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not stmt.args.args:
                continue
            this = stmt.args.args[0].arg
            names.update(
                sub.attr for sub in ast.walk(stmt)
                if isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Store)
                and getattr(sub.value, "id", None) == this)
    return {name for name in names if name and not _is_dunder(name)}


class _Definition:
    """One checked definition: its qualified name, file, node and
    enclosing class, and (for a class) its member definitions."""

    __slots__ = ("qualname", "path", "node", "owner", "members")

    def __init__(self, qualname: str, path: Path, node: ast.AST, owner):
        self.qualname = qualname
        self.path = path
        self.node = node
        self.owner = owner
        self.members: list[_Definition] = []

    def uses(self) -> tuple[set[str], set[str]]:
        """What reaching this definition reaches, as ``_names`` returns
        it: a function's whole node; a class's decorators, bases and
        non-method statements."""
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
            if owner is not None:
                owner.members.append(definition)
            yield definition
            if isinstance(stmt, ast.ClassDef):
                yield from _definitions(path, stmt.body,
                                        f"{definition.qualname}.",
                                        definition)


def scan(src: Path, root_files, root_names=()):
    """``(unreached, defined)`` for the definitions and fields of the
    modules under ``src``, both as ``qualname -> path``.  An unreached
    class stands for its members and fields, and a dunder is never
    reported on its own."""
    # An attribute reaches every definition of its name, a bare name
    # only the top-level ones.
    by_attribute: dict[str, list[_Definition]] = {}
    by_bare: dict[str, list[_Definition]] = {}
    definitions: list[_Definition] = []
    pending = [(name, True) for name in root_names]

    def mention(names: tuple[set[str], set[str]]) -> None:
        bare, attributes = names
        pending.extend((name, False) for name in bare)
        pending.extend((name, True) for name in attributes)

    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        mention(_names(stmt for stmt in _flat(tree.body)
                       if not isinstance(stmt, _DEFS)
                       and not _assigns_all(stmt)))
        for definition in _definitions(path, tree.body):
            definitions.append(definition)
            name = definition.node.name
            by_attribute.setdefault(name, []).append(definition)
            if definition.owner is None:
                by_bare.setdefault(name, []).append(definition)
    for path in root_files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        mention(_names([tree], strings=True))

    reached: set[int] = set()
    seen: set[tuple[str, bool]] = set()
    while pending:
        key = pending.pop()
        if key in seen:
            continue
        seen.add(key)
        name, attribute = key
        stack = list((by_attribute if attribute else by_bare).get(name, ()))
        while stack:
            definition = stack.pop()
            if id(definition) in reached:
                continue
            reached.add(id(definition))
            uses = definition.uses()
            mention(uses)
            stack.extend(member for member in definition.members
                         if _is_dunder(member.node.name)
                         or member.node.name in uses[0])

    defined = {d.qualname: d.path for d in definitions}
    unreached = {
        d.qualname: d.path for d in definitions
        if id(d) not in reached
        and not _is_dunder(d.node.name)
        and (d.owner is None or id(d.owner) in reached)
    }
    for d in definitions:
        if not isinstance(d.node, ast.ClassDef):
            continue
        for name in _fields(d.node):
            qualname = f"{d.qualname}.{name}"
            defined[qualname] = d.path
            if id(d) in reached and (name, True) not in seen:
                unreached[qualname] = d.path
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
    """A planted package: re-exports, ``__all__``, a recursive self
    call, a local variable named like a method and a store named like
    one keep nothing alive; module-level code, a root file, an attribute
    call and a class-body dispatch table do; a dead class is one entry
    for all its members.  A field nothing loads is flagged; a reflective
    reader, an ``Enum``, a ``NamedTuple``, a ``getattr`` constant and a
    root file's string keep fields alive."""
    files = {
        "src/pkg/__init__.py": """
            from pkg.mod import dead, live
            __all__ = ["dead", "live", "Box"]
        """,
        "src/pkg/mod.py": """
            import enum
            from dataclasses import dataclass, fields
            from typing import NamedTuple

            def live():
                count = _helper()
                return count

            def _helper():
                return 1

            def dead(n):
                return dead(n - 1) if n else live()

            class Box:
                def __init__(self):
                    self.size = 0
                    self.spare = []
                    self.level = 1
                    self.label = ""

                def used(self):
                    return self.size + getattr(self, "level")

                def unused(self):
                    return 0

                def count(self):
                    return 0

            class Parser:
                def _start(self):
                    return 0

                _steps = (_start,)

            class Crate:
                def __len__(self):
                    return 0

                def open(self):
                    return 1

            class Meter:
                def ticks(self):
                    return 0

            @dataclass
            class Record:
                kept: int
                dead: int = 0

            @dataclass
            class Mix:
                share: float = 1.0

                def kinds(self):
                    return [f.name for f in fields(self)]

            class Colour(enum.Enum):
                RED = 1

            class Pair(NamedTuple):
                left: int
                right: int

            TABLE = {"box": Box}
        """,
        "root.py": """
            from pkg import live
            live()
            TABLE["box"]().used()
            Parser._steps
            meter = Meter()
            meter.ticks += 1
            Record(1).kept
            Mix().kinds()
            Colour(1), Pair(1, 2)
            FIELDS = ("label",)
        """,
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    unreached, defined = scan(tmp_path / "src", [tmp_path / "root.py"])
    assert set(unreached) == {"dead", "Box.unused", "Box.count", "Crate",
                              "Meter.ticks", "Box.spare", "Record.dead"}
    assert {"live", "_helper", "Box.__init__", "Parser._start",
            "Crate.open", "Box.size", "Box.level", "Box.label",
            "Parser._steps", "Record.kept"} <= set(defined)
    allowlist = {"dead": "state: x", "live": "state: x", "gone": "state: x"}
    assert stale_entries(allowlist, unreached, defined) == {
        "live": "reached now", "gone": "no longer defined"}
