"""Selective mutation of `src/uhspath` (Offutt, Lee, Rothermel, Untch and
Zapf, "An experimental determination of sufficient mutant operators", TOSEM
1996): how many small faults the tests catch, and which test catches which.

    python tests/mutate.py [module ...]        (default: every module)

Operators, at every site outside docstrings: `<` <-> `<=` and `>` <-> `>=`;
each relational operator to its negation; `+` <-> `-`, `*` <-> `//`, `<<` <->
`>>`, `&` <-> `|`; `and` <-> `or`; each int constant + 1.  A mutant's id is
`module:scope:k:replacement` (`+1` for a constant): `scope` is the qualified
name of the innermost enclosing def or class (`<module>` at top level) and `k`
the site's 0-based index among that scope's sites in source order, so an edit
renames only the ids of the scope it is in.

Each mutant is written into a temp copy of `src/` (never into `src/`) and
tested there by `pytest -o pythonpath=<copy>` with PYTHONPATH=<copy>, on two
worker processes: first the module's own test file, recording every test that
fails; a mutant that survives it then runs the rest of the suite with `-x`.
A run over 10 times the clean run's time is rerun once at 3 times that bound:
the mutant counts as timed out (killed) only if the rerun times out too, and
otherwise the rerun's verdict stands; the report lists every rerun.  Survivors
listed in `tests/mutants_equivalent.txt` (`<id> <reason>` a line) count as
equivalent; the exit status is 1 if any other mutant survives or a listed
mutant of a module run is no longer produced or is killed by a test (one
that only times out, such as a write block of one row, still counts).
"""

import ast
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tokenize
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "uhspath"
ALLOWLIST = ROOT / "tests" / "mutants_equivalent.txt"
MEMORY = 3 << 30  # address space of one run: a mutant that sizes an array wrong fails, not the box

OPS = {
    ast.Lt: ["<=", ">="], ast.LtE: ["<", ">"], ast.Gt: [">=", "<="], ast.GtE: [">", "<"],
    ast.Eq: ["!="], ast.NotEq: ["=="], ast.In: ["not in"], ast.NotIn: ["in"],
    ast.Is: ["is not"], ast.IsNot: ["is"],
    ast.Add: ["-"], ast.Sub: ["+"], ast.Mult: ["//"], ast.FloorDiv: ["*"],
    ast.LShift: [">>"], ast.RShift: ["<<"], ast.BitAnd: ["|"], ast.BitOr: ["&"],
    ast.And: ["or"], ast.Or: ["and"],
}


def mutants(module):
    """(id, mutated source) of every mutant of `module`."""
    text = (PACKAGE / f"{module}.py").read_text()
    lines = text.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    index = lambda row, col: starts[row - 1] + col  # tokenize's columns count characters
    at = lambda row, col: (row, len(lines[row - 1].encode()[:col].decode()))  # ast's count bytes
    words = [
        t for t in tokenize.generate_tokens(iter(lines).__next__)
        if t.type in (tokenize.OP, tokenize.NAME) and t.string not in "()"
    ]

    def between(a, b):
        """(start, end) of the operator tokens after node `a` and before node `b`, or []."""
        lo, hi = at(a.end_lineno, a.end_col_offset), at(b.lineno, b.col_offset)
        span = [t for t in words if lo <= t.start < hi]
        return span and (span[0].start, span[-1].end)

    sites = []  # (start, scope, spans to replace, replacements)

    def operator(scope, spans, op):
        if all(spans) and type(op) in OPS:
            sites.append((spans[0][0], scope, spans, OPS[type(op)]))

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        elif isinstance(node, ast.BinOp):
            operator(scope, [between(node.left, node.right)], node.op)
        elif isinstance(node, ast.AugAssign):
            operator(scope, [between(node.target, node.value)], node.op)
        elif isinstance(node, ast.BoolOp):
            operator(scope, [between(a, b) for a, b in zip(node.values, node.values[1:])], node.op)
        elif isinstance(node, ast.Compare):
            for a, b, op in zip([node.left, *node.comparators], node.comparators, node.ops):
                operator(scope, [between(a, b)], op)
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            span = at(node.lineno, node.col_offset), at(node.end_lineno, node.end_col_offset)
            if text[index(*span[0]) : index(*span[1])].isdigit():
                sites.append((span[0], scope, [span], [str(node.value + 1)]))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(text), "<module>")
    count = Counter()
    for _, scope, spans, news in sorted(sites):
        k = count[scope]
        count[scope] += 1
        for new in news:
            out = text
            for lo, hi in reversed(spans):
                out = out[: index(*lo)] + new + out[index(*hi) :]
            label = "+1" if new[0].isdigit() else new.replace(" ", "_")
            yield f"{module}:{scope}:{k}:{label}", out


def pytest(copy, files, first_only, limit):
    """(failing test ids, or None on a timeout; seconds) of one pytest run on `copy`."""
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE"]
    argv += ["-o", f"pythonpath={copy}", *(["-x"] if first_only else []), *files]
    env = {**os.environ, "PYTHONPATH": str(copy), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.monotonic()
    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, start_new_session=True, preexec_fn=cap)
    try:
        out, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, time.monotonic() - start
    failed = [
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in out.splitlines() if line.startswith(("FAILED ", "ERROR "))
    ]
    if proc.returncode not in (0, 5) and not failed:
        failed = [" ".join(files) or "collection"]
    return failed, time.monotonic() - start


def main(modules):
    every = sorted(p.stem for p in PACKAGE.glob("*.py"))
    if set(modules) - set(every):
        sys.exit(f"no such module: {', '.join(sorted(set(modules) - set(every)))}")
    modules = modules or every
    allowed = dict(
        line.split(None, 1) for line in ALLOWLIST.read_text().splitlines()
        if line.strip() and not line.startswith("#")
    )
    tests = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "tests").glob("test_*.py"))
    scratch = Path(tempfile.mkdtemp(prefix="uhspath-mutants-"))
    local = threading.local()

    def copy():
        if not hasattr(local, "copy"):
            local.copy = scratch / f"w{threading.get_ident()}"
            shutil.copytree(ROOT / "src", local.copy, ignore=shutil.ignore_patterns("__pycache__"))
        return local.copy

    def limit(files):
        """10 times the clean tree's time on `files`."""
        failed, took = pytest(copy(), files, False, None)
        assert failed == [], f"the clean tree fails {failed}"
        return 10 * took

    kills, unkilled, counts, reruns = defaultdict(list), set(), {}, []
    start = time.monotonic()
    try:
        with ThreadPoolExecutor(2) as pool:
            whole = limit(tests)
            for module in modules:
                own = [t for t in tests if t == f"tests/test_{module}.py"]
                runs = [(own, False, own and limit(own)), ([t for t in tests if t not in own], True, whole)]

                def one(mutant):
                    name, source = mutant
                    target = copy() / "uhspath" / f"{module}.py"
                    target.write_text(source)
                    try:
                        for files, first_only, seconds in runs:
                            failed, _ = pytest(copy(), files, first_only, seconds) if files else ([], 0)
                            if failed is None:  # once more at 3x: only a second timeout counts
                                failed, _ = pytest(copy(), files, first_only, 3 * seconds)
                                reruns.append((name, "timed out" if failed is None else "failed" if failed else "passed"))
                            if failed != []:
                                return name, failed
                        return name, []
                    finally:
                        shutil.copy(PACKAGE / f"{module}.py", target)

                tally = Counter()
                for name, failed in pool.map(one, mutants(module)):
                    tally["mutants"] += 1
                    if failed is None:
                        unkilled.add(name)  # slow, not wrong: a listed mutant may time out
                        tally["timed out"] += 1
                        print(f"TIMED OUT {name}", flush=True)
                    elif failed:
                        tally["killed"] += 1
                        for test in failed:
                            kills[test].append(name)
                    else:
                        unkilled.add(name)
                        tally["equivalent" if name in allowed else "survived"] += 1
                        if name not in allowed:
                            print(f"SURVIVED {name}", flush=True)
                counts[module] = tally
                print(f"{module}: " + ", ".join(f"{tally[k]} {k}" for k in
                      ("mutants", "killed", "timed out", "survived", "equivalent")), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for test in sorted(kills):
        print(f"KILLS {test}  {' '.join(kills[test])}")
    for name, verdict in sorted(reruns):
        print(f"RERUN {name}  {verdict}")
    stale = sorted(n for n in allowed if n.split(":")[0] in modules and n not in unkilled)
    for name in stale:
        print(f"STALE {name}  (listed as equivalent, but killed)")
    print(f"wall time {time.monotonic() - start:.0f} s")
    return int(stale != [] or any(c["survived"] for c in counts.values()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
