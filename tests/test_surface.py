"""Every function, class, method and property of the package has a user
besides its tests.

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

# public definitions that no suite, CLI path or benchmark calls, kept on purpose
KEEP = {
    "rotgen": "the lattice rotation generator, kept for the conserved Poincare vector",
    "expectation": "the generic expectation value, the tests' oracle for the fused observables",
    "transport_sign_variant": "the sign-flipped transport, the negative control of the geometry suite",
    "imaginary_unit": "builds the imaginary units that the tests pass to slice_frame",
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
    assert sorted(name for name in _unused() - set(KEEP) if not name.startswith("_")) == []


def test_every_private_helper_has_a_user():
    # a helper left behind by a rewrite (its last caller gone) fails here
    assert sorted(name for name in _unused() if name.startswith("_")) == []


def test_keep_list_names_unused_public_definitions():
    # a kept name that disappears, or gains a user, leaves the list
    assert set(KEEP) <= _unused()
