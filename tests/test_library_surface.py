"""The library ships no function or method that only the tests call.

A public module-level function of `src/uhspath` must be used somewhere in
`src/` outside its own body, in `demos/`, or be imported by the acceptance
tests.  A public method of a public class (class methods and properties
included, dunder methods exempt) must be named by an `x.name` attribute
access in `src/` outside its own body, in `demos/`, or in the acceptance
tests; accesses on `np` do not count.  Reference implementations that only
tests need live in `tests/oracles.py`.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "uhspath"

# Public functions without a caller yet, each kept for a planned use, with
# the ROADMAP item that plans it: {"name": "ROADMAP item N: ..."}.
KEEP = {}


def used_names(tree):
    """Names read or called in `tree`, bare or as attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def imported_names(tree):
    return {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}


def public_functions():
    """(module, name) of every public module-level function in `src/uhspath`."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                out.append((path.stem, node.name))
    return out


def src_uses():
    """Names used in `src/`, keyed by the (module, top-level function) they occur in;
    the key's name is None outside a top-level function."""
    uses = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            owner = node.name if isinstance(node, ast.FunctionDef) else None
            uses.setdefault((path.stem, owner), set()).update(used_names(node))
    return uses


def unused_functions():
    uses = src_uses()
    outside = set()
    for path in sorted((ROOT / "demos").glob("*.py")):
        tree = ast.parse(path.read_text())
        outside |= used_names(tree) | imported_names(tree)
    outside |= imported_names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    unused = []
    for module, name in public_functions():
        in_src = any(name in names for key, names in uses.items() if key != (module, name))
        if not in_src and name not in outside:
            unused.append(name)
    return unused


def attribute_names(tree):
    """How often each `x.name` attribute access occurs in `tree`, except on `np`."""
    return Counter(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and not (isinstance(node.value, ast.Name) and node.value.id == "np")
    )


def public_methods():
    """(class, method node) of every public method of every public class in `src/uhspath`."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield node.name, item


def unused_methods():
    in_src = Counter()
    for path in sorted(SRC.glob("*.py")):
        in_src += attribute_names(ast.parse(path.read_text()))
    outside = set()
    for path in [*sorted((ROOT / "demos").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]:
        outside |= set(attribute_names(ast.parse(path.read_text())))
    unused = []
    for cls, method in public_methods():
        elsewhere = in_src[method.name] - attribute_names(method)[method.name]
        if not elsewhere and method.name not in outside:
            unused.append(f"{cls}.{method.name}")
    return unused


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
