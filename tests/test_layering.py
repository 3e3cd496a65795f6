"""No synchrolab module imports a private name from another one.

A name with a leading underscore belongs to its own module. When another
module needs it, it moves to the layer both share and loses the underscore,
as the pair numbering did when it moved to groups.pair_tables.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "synchrolab"


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
