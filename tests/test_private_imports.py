"""No module of the package imports a private name from a sibling module,
or reads one as an attribute of the sibling: what one module needs from
another belongs to that module's public surface."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "datawords"

# (importing module, imported module, name).  cli reads the builder's stats
# through ra2ca._build until the build functions expose them (ROADMAP,
# direction 8).
ALLOWED = {("cli", "ra2ca", "_build")}


def private_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    siblings = {}  # the local name of each sibling module imported whole
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("datawords"):
            continue
        source = (node.module or "").rpartition(".")[2]
        for alias in node.names:
            if alias.name.startswith("_"):
                yield path.stem, source, alias.name
            elif node.module in (None, "datawords"):
                siblings[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")):
            yield path.stem, siblings[node.value.id], node.attr


def test_no_private_sibling_imports():
    found = {imp for path in sorted(PACKAGE.glob("*.py")) for imp in private_imports(path)}
    assert found == ALLOWED


def test_the_walk_sees_a_private_import(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("from .games import WeakGame, _solve\nfrom . import _x\n"
                 "from datawords.ca import _search\nfrom __future__ import annotations\n"
                 "from . import ltl as L\nL._Parser\n")
    assert list(private_imports(f)) == [("m", "games", "_solve"), ("m", "", "_x"),
                                        ("m", "ca", "_search"), ("m", "ltl", "_Parser")]
