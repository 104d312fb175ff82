"""One symbol-text codec: `core` holds the only symbol lookup tables, and
`kmerset.digit_lines` is the only digit-row renderer.

A second table or a second `+ ord("0")` renderer is a second copy of the
alphabet rule (digits, or ACGT when sigma = 4, read; digits written) that can
drift from the first.  Tables are built by `maketrans` or sized by the
literal 256 (one entry per byte value).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "uhspath"


class _Calls(ast.NodeVisitor):
    """(module, innermost enclosing function, call node) of each call in a module."""

    def __init__(self, module):
        self.module, self.scope, self.found = module, None, []

    def visit_FunctionDef(self, node):
        outer, self.scope = self.scope, node.name
        self.generic_visit(node)
        self.scope = outer

    def visit_Call(self, node):
        self.found.append((self.module, self.scope, node))
        self.generic_visit(node)


def calls():
    """Every call in src/uhspath, with its module and enclosing function."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _Calls(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        found += visitor.found
    return found


def called(node):
    return getattr(node.func, "id", getattr(node.func, "attr", None))


def test_one_digit_renderer():
    places = {
        f"{module}.{name}"
        for module, name, node in calls()
        if called(node) == "ord"
        and [getattr(a, "value", None) for a in node.args] == ["0"]
    }
    assert places == {"kmerset.digit_lines"}


def test_tables_only_in_core():
    builders = [
        f"{module}:{node.lineno}"
        for module, _, node in calls()
        if module != "core"
        and (
            called(node) == "maketrans"
            or any(isinstance(a, ast.Constant) and a.value == 256 for a in node.args)
        )
    ]
    assert builders == []
