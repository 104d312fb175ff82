"""Rules about the source of `src/uhspath`, each checked on one parse of
every source file.

- *One size gate.*  Every stage's size passes one gate,
  `core.check_budget(base, exp)`, before it is built.  A `check_budget` call
  handed a `**` power has built the size it was meant to bound, and at
  w = 10^8 building sigma^w alone outlasts any run.  Each call passes
  (base, exp) instead and uses the size it gets back.
- *One symbol-text codec.*  `core` holds the only symbol lookup tables, and
  `kmerset.digit_lines` is the only digit-row renderer.  A second table or a
  second `+ ord("0")` renderer is a second copy of the alphabet rule (digits,
  or ACGT when sigma = 4, read; digits written) that can drift from the
  first.  Tables are built by `maketrans` or sized by the literal 256 (one
  entry per byte value).
- *No function only the tests call.*  A public module-level function must be
  used somewhere in `src/` outside its own body, in `demos/`, or be imported
  by the acceptance tests.  A public method of a public class (class methods
  and properties included, dunder methods exempt) must be named by an
  `x.name` attribute access in `src/` outside its own body, in `demos/`, or
  in the acceptance tests; accesses on `np` do not count.  Reference
  implementations that only tests need live in `tests/oracles.py`.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "uhspath"
TEXT = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
TREES = {module: ast.parse(text) for module, text in TEXT.items()}
# the demos, then the acceptance tests
OUTSIDE = [
    ast.parse(path.read_text())
    for path in [*sorted((ROOT / "demos").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
]

# Public functions without a caller yet, each kept for a planned use, with
# the ROADMAP item that plans it: {"name": "ROADMAP item N: ..."}.
KEEP = {}


def called(node):
    return getattr(node.func, "id", getattr(node.func, "attr", None))


def calls():
    """(module, innermost enclosing function, call node) of every call in src/uhspath."""
    found = []

    def visit(node, module, scope):
        if isinstance(node, ast.Call):
            found.append((module, scope, node))
        for child in ast.iter_child_nodes(node):
            visit(child, module, node.name if isinstance(node, ast.FunctionDef) else scope)

    for module, tree in TREES.items():
        visit(tree, module, None)
    return found


def test_no_gate_call_is_given_a_power():
    powers = [
        f"{module}.py:{node.lineno}"
        for module, _, node in calls()
        if called(node) == "check_budget"
        and any(
            isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
            for a in [*node.args, *(k.value for k in node.keywords)] for n in ast.walk(a)
        )
    ]
    assert powers == []


def test_one_gate():
    assert [f"{m}.py" for m, text in TEXT.items() if "check_power_budget" in text] == []


def test_one_digit_renderer():
    places = {
        f"{module}.{name}"
        for module, name, node in calls()
        if called(node) == "ord" and [getattr(a, "value", None) for a in node.args] == ["0"]
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


def used_names(tree):
    """Names read or called in `tree`, bare or as attributes."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
    }


def attribute_names(tree):
    """How often each `x.name` attribute access occurs in `tree`, except on `np`."""
    return Counter(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and not (isinstance(node.value, ast.Name) and node.value.id == "np")
    )


def unused_functions():
    """Public module-level functions used nowhere but in their own body and the tests."""
    outside = {name for tree in OUTSIDE[:-1] for name in used_names(tree)} | {
        a.name for tree in OUTSIDE for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for a in node.names
    }
    uses = [
        ((module, node.name if isinstance(node, ast.FunctionDef) else None), used_names(node))
        for module, tree in TREES.items() for node in tree.body
    ]
    return [
        node.name
        for module, tree in TREES.items() for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and node.name not in outside
        and not any(node.name in names for key, names in uses if key != (module, node.name))
    ]


def unused_methods():
    in_src = sum((attribute_names(tree) for tree in TREES.values()), Counter())
    outside = {name for tree in OUTSIDE for name in attribute_names(tree)}
    return [
        f"{cls.name}.{method.name}"
        for tree in TREES.values() for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
        and not in_src[method.name] - attribute_names(method)[method.name]
        and method.name not in outside
    ]


def test_every_public_function_has_a_caller():
    stray = sorted(set(unused_functions()) - set(KEEP))
    assert not stray, f"only tests call {stray}; move them to tests/oracles.py or delete them"


def test_every_public_method_has_a_caller():
    stray = unused_methods()
    assert not stray, f"only tests call {stray}; move them to the tests or delete them"


def test_keep_list_is_current():
    # an entry goes once its planned caller lands
    assert sorted(set(KEEP) & set(unused_functions())) == sorted(KEEP)
    assert all(reason.startswith("ROADMAP item ") for reason in KEEP.values())
