"""Every function, method and class in src/ has a caller in src/ or bench/.

The check parses src/ultraext/*.py and bench/*.py with ast and collects
references: a name that is read (not one that is assigned, such as a
NamedTuple field), an attribute, or a string constant equal to the
identifier (as in the benchmark tracer's layer table).  A definition is
dead when its name has no reference outside its own body.  Tests do not
count: code that only a test runs belongs in the tests (see
_reference.py).  Nor does src/ultraext/__init__.py: an export names a
definition without running it.

Name matching cannot see a dead member when another definition or a
local variable shares its name: one of the seven ``to_json`` methods
could lose its caller unseen, and a method named like a local (``row``,
``degree``) would pass on the local alone.  So a shared name kept
without a caller is listed in ALLOWED all the same, and for it the
guard can check only that it still exists.  UltraJet.row does have
callers (extension_engine._valuation_oks and bench/checks.py).  Dunder
methods are left out, since Python calls them.

The same holds for data: every attribute a src/ class assigns on self,
and every field of a src/ NamedTuple, is read somewhere in src/ or
bench/, as an attribute load or a string constant (a getattr key).
Reads match by name alone, as calls do, so an attribute sharing its name
with one read elsewhere passes.  A NamedTuple that serializes itself
through _asdict reads every field there, so its fields are not checked.
An unread name kept on purpose is listed in ALLOWED as Class.name.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Definitions kept without a caller in src/ or bench/, one reason each.
ALLOWED = {
    "remainder": "the scalar reference _remainder_table is tested against bit for bit",
    "CompactSet1D.from_points": "public constructor of an exported class",
    "CompactSet1D.from_intervals": "public constructor of an exported class",
    "WeightSequence.factorial_power": "public constructor of an exported class",
    "lemma8_regularize": "waits for the caller of ROADMAP item 4 (the sequence form)",
    "h_function": "the paper's definition of h, which the acceptance criteria run",
    "associated_weight": "the paper's definition of omega_M, which the acceptance criteria run",
    "Partition.sup_norm": "the exact sup of phi_i^(b), which ROADMAP item 9's exact C_b builds on",
    "equivalent": "ROADMAP item 3 reuses its fitted ratio constant and trend",
    "EquivalenceResult.equivalent": "the verdict of equivalent, for ROADMAP item 3",
    "EquivalenceResult.constant": "the fitted ratio constant of equivalent, for ROADMAP item 3",
    "UltraJet.to_json": "the README's writer of the jet-file format",
}


def _references(tree: ast.AST) -> Counter:
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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


def _trees() -> tuple[list[ast.AST], list[ast.AST]]:
    """Parsed src/ultraext/*.py, and parsed bench/*.py."""
    def parse(paths):
        return [ast.parse(p.read_text(), filename=str(p)) for p in sorted(paths)]

    modules = (p for p in (ROOT / "src" / "ultraext").glob("*.py") if p.name != "__init__.py")
    return parse(modules), parse((ROOT / "bench").glob("*.py"))


def uncalled() -> set[str]:
    """Qualified names of src/ definitions referenced only inside themselves."""
    src, bench = _trees()
    refs = sum((_references(tree) for tree in src + bench), Counter())
    defs = [d for tree in src for d in _definitions(tree)]
    return {
        qualname
        for qualname, node in defs
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and refs[node.name] == _references(node)[node.name]
    }


def _fields(cls: ast.ClassDef) -> list[str]:
    """The fields of a NamedTuple class, none if it is another class or calls _asdict."""
    if not any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in cls.bases):
        return []
    if any(isinstance(n, ast.Attribute) and n.attr == "_asdict" for n in ast.walk(cls)):
        return []
    return [
        node.target.id
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]


def unread() -> set[str]:
    """Class.name of every self attribute and NamedTuple field that src/ and bench/ never read."""
    src, bench = _trees()
    reads = set()
    for node in (n for tree in src + bench for n in ast.walk(tree)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads.add(node.value)
    classes = [c for tree in src for c in ast.walk(tree) if isinstance(c, ast.ClassDef)]
    attributes = {
        f"{cls.name}.{node.attr}"
        for cls in classes
        for node in ast.walk(cls)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr not in reads
    }
    fields = {f"{cls.name}.{name}" for cls in classes for name in _fields(cls) if name not in reads}
    return attributes | fields


def test_every_src_definition_has_a_caller():
    dead = uncalled()
    assert dead - ALLOWED.keys() == set(), "no caller in src/ or bench/"
    # An allowlisted name that gained a caller, or is gone, leaves the
    # list; a name several definitions share can be checked for presence only.
    src, _ = _trees()
    defined = Counter(qualname.rsplit(".", 1)[-1] for tree in src for qualname, _ in _definitions(tree))
    present = {qualname for tree in src for qualname, _ in _definitions(tree)}
    shared = {name for name in ALLOWED if defined[name.rsplit(".", 1)[-1]] > 1}
    assert ALLOWED.keys() - dead - shared - unread() == set(), "allowlisted but called or removed"
    assert shared <= present, "allowlisted but removed"


def test_every_self_attribute_is_read():
    assert unread() - ALLOWED.keys() == set(), "stored, never read in src/ or bench/"
