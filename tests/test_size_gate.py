"""Every stage's size passes one gate, `core.check_budget(base, exp)`, before
it is built.

A `check_budget` call in `src/uhspath` handed a `**` power has built the size
it was meant to bound, and at w = 10^8 building sigma^w alone outlasts any
run.  Each call passes (base, exp) instead and uses the size it gets back.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "uhspath"


def gate_calls_given_a_power():
    """file:line of every `check_budget` call with a `**` among its arguments."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            args = [*node.args, *(k.value for k in node.keywords)]
            powers = [
                n for a in args for n in ast.walk(a)
                if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
            ]
            if name == "check_budget" and powers:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_gate_call_is_given_a_power():
    assert gate_calls_given_a_power() == []


def test_one_gate():
    stray = [p.name for p in sorted(SRC.glob("*.py")) if "check_power_budget" in p.read_text()]
    assert stray == []
