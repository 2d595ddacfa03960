"""Every function, method and class in src/ has a caller in src/ or bench/.

The check parses src/ultraext/*.py and bench/*.py with ast and collects
references: a name, an attribute, or a string constant equal to the
identifier (as in __all__, so an export in __init__ counts, and as in
the benchmark tracer's layer table).  A definition is dead when its name
has no reference outside its own body.  Tests do not count: code that
only a test runs belongs in the tests (see _reference.py).

Name matching cannot see a dead member when another definition or a
local variable shares its name: one of the seven ``to_json`` methods
could lose its caller unseen, and UltraJet.row, TaylorPolynomial.degree
and TaylorPolynomial.coeffs pass with no caller in src/ or bench/,
because locals named ``row``, ``degree`` and ``coeffs`` count as
references.  Dunder methods are left out, since Python calls them.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Definitions kept without a caller in src/ or bench/, one reason each.
ALLOWED = {
    "gamma_doubling_check": "acceptance criterion 04 runs it",
    "remainder": "the scalar reference _remainder_table is tested against bit for bit",
    "CompactSet1D.from_points": "public constructor of an exported class",
    "CompactSet1D.from_intervals": "public constructor of an exported class",
    "WeightSequence.factorial_power": "public constructor of an exported class",
}


def _references(tree: ast.AST) -> Counter:
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def _definitions(tree: ast.AST, prefix: str = ""):
    """(qualified name, node) of every function, method and class, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            yield from _definitions(node, prefix + node.name + ".")
        else:
            yield from _definitions(node, prefix)


def uncalled() -> set[str]:
    """Qualified names of src/ definitions referenced only inside themselves."""
    src = sorted((ROOT / "src" / "ultraext").glob("*.py"))
    refs = Counter()
    defs = []
    for path in src + sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        refs += _references(tree)
        if path in src:
            defs.extend(_definitions(tree))
    return {
        qualname
        for qualname, node in defs
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and refs[node.name] == _references(node)[node.name]
    }


def test_every_src_definition_has_a_caller():
    dead = uncalled()
    assert dead - ALLOWED.keys() == set(), "no caller in src/ or bench/"
    # An allowlisted name that gained a caller, or is gone, leaves the list.
    assert ALLOWED.keys() - dead == set(), "allowlisted but called or removed"
