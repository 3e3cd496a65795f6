"""No synchrolab module imports a private name from another one, no
script keeps its own copy of the CLI's refusal policy, and the sweeps
re-verify unsynchronized maps in one place.

A name with a leading underscore belongs to its own module. When another
module needs it, it moves to the layer both share and loses the underscore,
as the pair numbering did when it moved to groups.pair_tables. Likewise the
scripts refuse bad input through synchrolab.cli (usage_error, UsageParser
and the degree and budget checks), so the exit code and the error line are
decided in one place. In experiments.py only
_Sweeper.confirm_not_synchronizing calls the pair-collapse search and the
closure oracle, so every sweep checks its maps with the same rules, and
only the one (entry, map) loop and the two sweeps with their own rows
(idempotent-32, rankpres-32) take maps out of sweeps.py or gather
assignment rows into maps.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "synchrolab"


def private_imports(source: str, name: str) -> list[str]:
    """``name:line symbol`` for every underscore name the source imports from synchrolab."""
    found = []
    for node in ast.walk(ast.parse(source, name)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("synchrolab"):
            continue
        found += [
            f"{name}:{node.lineno} {alias.name}"
            for alias in node.names
            if alias.name.startswith("_")
        ]
    return found


def test_private_imports_are_found():
    source = (
        "from os import _exit\n"
        "from .sync import InconsistencyError, _pair_tables\n"
        "from synchrolab.groups import _UnionFind\n"
    )
    assert private_imports(source, "probe.py") == [
        "probe.py:2 _pair_tables",
        "probe.py:3 _UnionFind",
    ]


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    hits = [hit for path in modules for hit in private_imports(path.read_text(), path.name)]
    assert hits == []


def refusal_copies(source: str, name: str) -> list[str]:
    """``name:line what`` for every piece of refusal policy the source defines itself:
    an EX_USAGE constant, an argparse.ArgumentParser subclass, or a function
    that prints an ``error: ...`` line or raises SystemExit."""
    found = []
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "EX_USAGE" for t in targets):
                found.append(f"{name}:{node.lineno} EX_USAGE")
        elif isinstance(node, ast.ClassDef):
            bases = [ast.unparse(b) for b in node.bases]
            if any(b.split(".")[-1] == "ArgumentParser" for b in bases):
                found.append(f"{name}:{node.lineno} parser {node.name}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = list(ast.walk(node))
            prints_error = any(
                isinstance(n, ast.Constant)
                and isinstance(n.value, str)
                and n.value.lstrip().startswith("error:")
                for n in inner
            )
            exits = any(isinstance(n, ast.Name) and n.id == "SystemExit" for n in inner)
            if prints_error or exits:
                found.append(f"{name}:{node.lineno} error helper {node.name}")
    return found


def test_refusal_copies_are_found():
    source = (
        "import argparse, sys\n"
        "EX_USAGE = 64\n"
        "def refuse(message):\n"
        "    print(f'error: {message}', file=sys.stderr)\n"
        "class Parser(argparse.ArgumentParser):\n"
        "    pass\n"
        "def bail():\n"
        "    raise SystemExit(2)\n"
        "def main():\n"
        "    usage_error('--max-degree 2: the catalog starts at degree 3')\n"
    )
    assert refusal_copies(source, "probe.py") == [
        "probe.py:2 EX_USAGE",
        "probe.py:3 error helper refuse",
        "probe.py:5 parser Parser",
        "probe.py:7 error helper bail",
    ]


def test_no_script_copies_the_refusal_policy():
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    assert len(scripts) >= 3
    hits = [hit for path in scripts for hit in refusal_copies(path.read_text(), path.name)]
    assert hits == []


ORACLES = ("group_and_map_closure", "synchronizes")
ORACLE_HOME = "_Sweeper.confirm_not_synchronizing"


def scoped_hits(source: str, name: str, match) -> list[str]:
    """``name:line scope what`` for every node that match(node) names with a
    string, scope being the dotted class and function path."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            else:
                what = match(child)
                if what:
                    found.append(f"{name}:{child.lineno} {scope or '<module>'} {what}")
            visit(child, inner)

    visit(ast.parse(source, name), "")
    return found


def call_of(node, names) -> str:
    """The called name of a call node when it is one of names, else ''."""
    if not isinstance(node, ast.Call):
        return ""
    func = node.func
    callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    return callee if callee in names else ""


def oracle_calls(source: str, name: str) -> list[str]:
    """``name:line scope callee`` for every call of synchronizes or
    group_and_map_closure, scope being the dotted class and function path."""
    return scoped_hits(source, name, lambda node: call_of(node, ORACLES))


def test_oracle_calls_are_found():
    source = (
        "class _Sweeper:\n"
        "    def confirm_not_synchronizing(self, entry, f):\n"
        "        return synchronizes(entry.group, f)\n"
        "    def other(self, entry, f):\n"
        "        return semigroups.group_and_map_closure(entry.group, f)\n"
        "def _sweep(sw, f):\n"
        "    return [synchronizes(g, f) for g in sw.groups]\n"
        "verdict = synchronizes(G, f)\n"
    )
    assert oracle_calls(source, "probe.py") == [
        "probe.py:3 _Sweeper.confirm_not_synchronizing synchronizes",
        "probe.py:5 _Sweeper.other group_and_map_closure",
        "probe.py:7 _sweep synchronizes",
        "probe.py:8 <module> synchronizes",
    ]


def test_sweeps_reverify_in_one_place():
    path = PACKAGE / "experiments.py"
    calls = oracle_calls(path.read_text(), path.name)
    home = [c for c in calls if c.split()[1] == ORACLE_HOME]
    assert sorted(c.split()[2] for c in home) == sorted(ORACLES)
    assert [c for c in calls if c not in home] == []


INSTANCE_SOURCES = ("representatives_of_type", "idempotent_instances_of_type")
# the functions of experiments.py that take maps out of sweeps.py, or read a
# kernel's block_index, which gathers assignment rows into maps
INSTANCE_HOMES = {
    "_Sweeper.decide": {"block_index"},
    "_Sweeper.unsynchronized": {"representatives_of_type"},
    "_sweep_idempotent_32": {"idempotent_instances_of_type", "block_index"},
    "_sweep_rankpres_32": {"representatives_of_type"},
    "_rank_preserving_mask": {"block_index"},
}


def instance_uses(source: str, name: str) -> list[str]:
    """``name:line scope what`` for every call of representatives_of_type or
    idempotent_instances_of_type and every read of an attribute block_index."""

    def match(node):
        if isinstance(node, ast.Attribute) and node.attr == "block_index":
            return "block_index"
        return call_of(node, INSTANCE_SOURCES)

    return scoped_hits(source, name, match)


def stray_instance_uses(source: str, name: str) -> list[str]:
    """The instance_uses outside the function INSTANCE_HOMES names for them."""
    return [
        hit
        for hit in instance_uses(source, name)
        if hit.split()[2] not in INSTANCE_HOMES.get(hit.split()[1], ())
    ]


# a sweep that runs its own entry x type loop instead of _Sweeper.unsynchronized
PLANTED_SWEEP = """
def _sweep_planted(sw, max_degree):
    for entry in _primitive_entries(max_degree):
        for kt in kernel_types_of_rank(entry.degree, 2):
            kernels, rows = representatives_of_type(entry.group, kt)
            for kernel in kernels:
                sw.expect_synchronized(sw.decide(entry, kernel, rows))
"""


def test_instance_uses_are_found():
    source = PLANTED_SWEEP + (
        "class _Sweeper:\n"
        "    def decide(self, entry, kernel, rows):\n"
        "        return rows[:, kernel.block_index]\n"
        "def _sweep_idempotent_32(sw, d):\n"
        "    return sweeps.idempotent_instances_of_type(G, kt)\n"
    )
    assert instance_uses(source, "probe.py") == [
        "probe.py:5 _sweep_planted representatives_of_type",
        "probe.py:10 _Sweeper.decide block_index",
        "probe.py:12 _sweep_idempotent_32 idempotent_instances_of_type",
    ]
    assert stray_instance_uses(source, "probe.py") == [
        "probe.py:5 _sweep_planted representatives_of_type",
    ]


def test_sweeps_take_maps_from_one_loop():
    path = PACKAGE / "experiments.py"
    source = path.read_text()
    assert stray_instance_uses(source, path.name) == []
    used = {}
    for hit in instance_uses(source, path.name):
        used.setdefault(hit.split()[1], set()).add(hit.split()[2])
    assert used == INSTANCE_HOMES
    assert stray_instance_uses(source + PLANTED_SWEEP, path.name) != []
