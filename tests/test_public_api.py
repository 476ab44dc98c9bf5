"""Every name in ``gln_invariants.__all__`` has a user: code in the package
(an AST ``Name`` or ``Attribute`` outside the name's own definition and
outside ``__init__.py``) or the acceptance suite.  A name kept public for
another reason is listed below with that reason."""

import ast
from pathlib import Path

import gln_invariants

PACKAGE = Path(gln_invariants.__file__).parent
ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"

# public names nothing above reaches, each with its reason to stay
KEPT = {
    "p0_exponents": "kept until ROADMAP item 5 settles its normalisation",
    "dominates": "traced by bench/spans.py until ROADMAP item 1's benchmark change",
    "dominance_leq": "traced by bench/spans.py until ROADMAP item 1's benchmark change",
    "figure_rows": "traced by bench/spans.py until ROADMAP item 1's benchmark change",
    "genbound_exponent": "traced by bench/spans.py until ROADMAP item 1's benchmark change",
}


def referenced(node, inside=frozenset()) -> set:
    """Identifiers loaded as a ``Name`` or an ``Attribute`` under ``node``,
    except a definition's own name inside that definition."""
    found = set()
    if isinstance(getattr(node, "ctx", None), ast.Load):
        if isinstance(node, ast.Name) and node.id not in inside:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            found.add(node.attr)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    for child in ast.iter_child_nodes(node):
        found |= referenced(child, inside)
    return found


def test_every_public_name_is_used_or_kept_for_a_stated_reason():
    sources = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    used = set()
    for path in sources + [ACCEPTANCE]:
        used |= referenced(ast.parse(path.read_text(encoding="utf-8")))
    unused = {name for name in gln_invariants.__all__ if name not in used}
    assert unused == set(KEPT), "a public name lost its last user, or a kept one gained one"
