"""Every function, class, method and property of the package has a user
besides its tests, every test oracle has a test, and every private name
that one package module takes from another is listed with its reason.

The package modules and the benchmark scripts are parsed with ``ast``.  A
top-level definition, public or private, or a method of a top-level
class (dunders exempt: the language calls them) counts as used when its
identifier appears, as a name, an attribute or an imported name,
anywhere in those files outside its own definition.  Matching is by
identifier only, so this is a floor, not a proof: a definition that
shares its name with a method or another module's function passes
unnoticed.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# private names that one package module takes from another, as
# "user -> owner._name", each with the reason it crosses the module line
PRIVATE_CROSSINGS = {
    "dynamics -> operators._FrameField":
        "a Cayley step returns its solution as a field held in slice-frame columns",
    "dynamics -> operators._frame_cols":
        "a Cayley step and an observables row read a field's slice-frame columns",
    "dynamics -> operators._hop_links":
        "imported as an alias that perfbench traces as the link assembly",
    "dynamics -> hilbert._cores":
        "evolve runs the observables rows on a worker thread only when a second core exists",
    "operators -> geometry._plane_norm":
        "the site table's |x|, by transport's own formula",
    "operators -> geometry._far_end":
        "twisted_shift's per-shift terms of transport, at x + m h on the kept sites",
    "operators -> geometry._transport_value":
        "twisted_shift's symbol, transport's formula on the cached site planes",
    "verify -> hilbert._cores":
        "the suite map forks one worker process per usable core",
    "verify -> operators._steps_admissible":
        "the samplers draw only integer steps whose segments miss the origin",
}


def _identifiers(node):
    """Identifiers that ``node`` refers to: names, attributes, imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]


def _definitions(tree):
    """The top-level functions and classes of a module, and the methods
    and properties of those classes other than dunders."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield stmt
        if isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    yield sub


def _unused(root=ROOT):
    """Names of the package definitions that nothing in the scanned files
    refers to outside their own definition."""
    package = root / "src" / "qmono"
    defs, uses = [], Counter()
    for path in sorted(package.glob("*.py")) + sorted((root / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        uses.update(_identifiers(tree))
        if path.parent == package:
            defs += [(d.name, Counter(_identifiers(d))) for d in _definitions(tree)]
    return {name for name, own in defs if uses[name] == own[name]}


def test_every_public_definition_has_a_user():
    assert sorted(name for name in _unused() if not name.startswith("_")) == []


def test_every_private_helper_has_a_user():
    # a helper left behind by a rewrite (its last caller gone) fails here
    assert sorted(name for name in _unused() if name.startswith("_")) == []


def test_every_oracle_has_a_test():
    # tests/oracles.py holds what only tests call; an oracle whose last
    # test is gone fails here, as a package helper fails above
    tests = ROOT / "tests"
    oracles = ast.parse((tests / "oracles.py").read_text())
    uses = set()
    for path in sorted(tests.glob("*.py")):
        if path.name != "oracles.py":
            uses.update(_identifiers(ast.parse(path.read_text(), filename=str(path))))
    assert sorted(stmt.name for stmt in oracles.body
                  if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                  and stmt.name not in uses) == []


def _private_crossings(root=ROOT):
    """``user -> owner._name`` for every private name that a package module
    reads from another: imported from it by name, or read as an attribute
    of the name it was imported under (``from . import operators as ops``).
    Like ``_unused``, a floor: a module reached some other way is not seen."""
    found = set()
    for path in sorted((root / "src" / "qmono").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        user, modules = path.stem, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    elif alias.name.startswith("_"):
                        found.add(f"{user} -> {node.module}.{alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name) and node.value.id in modules):
                found.add(f"{user} -> {modules[node.value.id]}.{node.attr}")
    return found


def test_every_private_crossing_is_listed():
    # reaching into another module's private name is a listed decision
    assert sorted(_private_crossings() - set(PRIVATE_CROSSINGS)) == []


def test_private_crossings_list_has_no_stale_entry():
    # a crossing whose use is gone leaves the list
    assert sorted(set(PRIVATE_CROSSINGS) - _private_crossings()) == []
