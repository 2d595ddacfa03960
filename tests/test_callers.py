"""Every function, method and class in src/ has a caller in src/ or bench/.

The check parses src/ultraext/*.py and bench/*.py with ast and collects
reads.  A method, or an attribute, is read only as a member: by an
attribute load, as the name argument of getattr or hasattr, as a string
dict key in src/ (the weight-family table names constructors so), or as
any string in bench/ (the tracer's layer table names methods so).  A
function or class is read as a member or by a bare name that is loaded
(not one that is assigned, such as a NamedTuple field).  Bare names and
label strings do not read a member, so a local ``check`` or a
``__slots__`` entry cannot hide a method or attribute nothing reads.
A definition is dead when its name has no read outside its own body.
Tests do not count: code that only a test runs belongs in the tests
(see _reference.py).  Nor does src/ultraext/__init__.py: an export
names a definition without running it.

Name matching cannot see a dead member when another definition or an
attribute load elsewhere shares its name: one of the seven ``to_json``
methods could lose its caller unseen, and so could a method named like
a builtin's (``values``) or an attribute read elsewhere (``cover``).  So
a shared name kept without a caller is listed in ALLOWED all the same,
and for it the guard can check only that it still exists.  UltraJet.row
does have a caller, bench/checks.py, its only one.
Dunder methods are left out, since Python calls them.

The same holds for data: every attribute a src/ class assigns on self,
and every field of a src/ NamedTuple, is read somewhere in src/ or
bench/ as a member.  Reads match by name alone, as calls do, so an
attribute sharing its name with one read elsewhere passes.  A NamedTuple
that serializes itself through _asdict reads every field there, so its
fields are not checked.  An unread name kept on purpose is listed in
ALLOWED as Class.name.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Definitions kept without a caller in src/ or bench/, one reason each.
ALLOWED = {
    "remainder": "the scalar reference _remainder_table is tested against bit for bit",
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


def _strings(nodes) -> list[str]:
    return [n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def _reads(tree: ast.AST, bench: bool = False) -> tuple[Counter, Counter]:
    """(bare names read, member names read) in one parsed tree.

    A member is read by an attribute load, as the name argument of
    getattr or hasattr, as a string dict key in src/ (a table of
    constructors), or as any string in bench/ (the tracer's layer table).
    """
    names, members = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            members[node.attr] += 1
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("getattr", "hasattr"):
            members.update(_strings(node.args[1:2]))
        elif isinstance(node, ast.Dict) and not bench:
            members.update(_strings(node.keys))
        elif bench and isinstance(node, ast.Constant) and isinstance(node.value, str):
            members[node.value] += 1
    return names, members


def _definitions(tree: ast.AST, prefix: str = "", in_class: bool = False):
    """(qualified name, node, is a class member) of every function, method and class, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node, in_class
            yield from _definitions(node, prefix + node.name + ".", isinstance(node, ast.ClassDef))
        else:
            yield from _definitions(node, prefix, in_class)


def _trees() -> tuple[list[ast.AST], list[ast.AST]]:
    """Parsed src/ultraext/*.py, and parsed bench/*.py."""
    def parse(paths):
        return [ast.parse(p.read_text(), filename=str(p)) for p in sorted(paths)]

    modules = (p for p in (ROOT / "src" / "ultraext").glob("*.py") if p.name != "__init__.py")
    return parse(modules), parse((ROOT / "bench").glob("*.py"))


def _all_reads() -> tuple[Counter, Counter]:
    """Bare names and member names read anywhere in src/ and bench/."""
    src, bench = _trees()
    names, members = Counter(), Counter()
    for tree, in_bench in [(t, False) for t in src] + [(t, True) for t in bench]:
        n, m = _reads(tree, in_bench)
        names += n
        members += m
    return names, members


def uncalled() -> set[str]:
    """Qualified names of src/ definitions read only inside themselves.

    A method is read only as a member; a function or class also by its
    bare name.
    """
    src, _ = _trees()
    names, members = _all_reads()
    dead = set()
    for qualname, node, member in (d for tree in src for d in _definitions(tree)):
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        own_names, own_members = _reads(node)
        outside = members[node.name] - own_members[node.name]
        if not member:
            outside += names[node.name] - own_names[node.name]
        if not outside:
            dead.add(qualname)
    return dead


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
    src, _ = _trees()
    reads = _all_reads()[1]
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
    defined = Counter(qualname.rsplit(".", 1)[-1] for tree in src for qualname, _, _ in _definitions(tree))
    present = {qualname for tree in src for qualname, _, _ in _definitions(tree)}
    shared = {name for name in ALLOWED if defined[name.rsplit(".", 1)[-1]] > 1}
    assert ALLOWED.keys() - dead - shared - unread() == set(), "allowlisted but called or removed"
    assert shared <= present, "allowlisted but removed"


def test_every_self_attribute_is_read():
    assert unread() - ALLOWED.keys() == set(), "stored, never read in src/ or bench/"
