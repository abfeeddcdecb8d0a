"""No function of the package calls itself by name, but for the few listed
here: formula and automaton walkers run on explicit stacks (``ltl.fold``),
so that no depth of input costs recursion depth."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "datawords"

# qualified name -> why it may recurse
ALLOWED = {
    "fo._ev": "the recursive FO evaluator; labeling it is the FO half of ROADMAP direction 3",
    "ltl._nnf_visit": "re-dispatches a sugared node once, as its desugared form",
    "ltl._fmt_visit": "re-dispatches a dual node once, as the negations it prints as",
}


def self_calls(path: Path):
    """The qualified names of the functions in the module at path whose
    bodies call them by name: ``f(...)``, or ``self.f(...)`` in a method."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                if any(_calls(call, child.name) for call in ast.walk(child)):
                    yield name
                yield from walk(child, name)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}.{child.name}")
            else:
                yield from walk(child, prefix)

    yield from walk(ast.parse(path.read_text(encoding="utf-8")), path.stem)


def _calls(node, name: str) -> bool:
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (isinstance(f, ast.Name) and f.id == name
            or isinstance(f, ast.Attribute) and f.attr == name
            and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls"))


def test_no_new_recursion():
    found = {name for path in sorted(PACKAGE.glob("*.py")) for name in self_calls(path)}
    assert found == set(ALLOWED)


def test_the_walk_sees_recursion(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("def f(x):\n    return f(x - 1) if x else 0\n\n"
                 "def g(x):\n    def h(y):\n        return h(y) + g(y)\n    return h(x)\n\n"
                 "class C:\n    def walk(self, t):\n        return [self.walk(c) for c in t]\n\n"
                 "    def other(self, t):\n        return walk(t)\n")
    # g recurses through the h nested in it
    assert list(self_calls(f)) == ["m.f", "m.g", "m.g.h", "m.C.walk"]
