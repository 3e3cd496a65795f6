"""No synchrolab module imports a private name from another one, and no
script keeps its own copy of the CLI's refusal policy.

A name with a leading underscore belongs to its own module. When another
module needs it, it moves to the layer both share and loses the underscore,
as the pair numbering did when it moved to groups.pair_tables. Likewise the
scripts refuse bad input through synchrolab.cli (usage_error, UsageParser
and the degree and budget checks), so the exit code and the error line are
decided in one place.
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
