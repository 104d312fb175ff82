"""Self-test of the benchmark's output checkers, at small sizes.

    python3 perfbench/selftest.py

For every checker it runs the CLI on a small instance, requires the genuine
output to pass, then corrupts the output (a witness vertex changed, an
off-by-one count, a density that no longer matches its context set, a
flipped bit in a set file, ...) and requires the checker to reject it.  It
also confirms that the benchmark's hand-written forbidden-run set file is
byte-identical to the CLI's own ``forbidden --w 16`` output, and that
malformed stdout (empty, not an object, wrong types) is counted as a failed
check rather than stopping the run.  Exits 1 if a checker rejects a genuine
output or accepts a corrupted one.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import sys
import tempfile
from fractions import Fraction
from functools import partial
from pathlib import Path

from run import LAUNCH, WORK, Checker, Invocation, child_env, invoke
from workloads import (
    ACGT,
    Inputs,
    check_census,
    check_estimate,
    check_exact_density,
    check_forbidden_uhs,
    check_forward_contexts,
    check_fsm,
    check_local_contexts,
    check_long_path,
    check_mykkeltveit,
    check_necklace_list,
    check_particular,
    check_setup,
    check_witness,
    order_rank,
    write_run_set,
)
from checks import CheckError


def rat(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator, "float": float(q)}


def bump(key: str, by: int = 1):
    def mutate(out, _workdir):
        out[key] += by
    return mutate


def bump_selected(by: int):
    """Change the selected count and keep the density consistent with it."""
    def mutate(out, _workdir):
        out["selected"] += by
        out["density"] = rat(Fraction(out["selected"], out["windows"]))
    return mutate


def bump_contexts(size: int):
    """One more context, with a relative size consistent with the new count."""
    def mutate(out, _workdir):
        out["cardinality"] += 1
        out["relative_size"] = rat(Fraction(out["cardinality"], size))
    return mutate


def change_witness_vertex(out, _workdir):
    mid = len(out["witness"]) // 2
    v = out["witness"][mid]
    out["witness"][mid] = v[:-1] + ("1" if v[-1] == "0" else "0")


def drop_witness_vertex(out, _workdir):
    out["witness"].pop()


def flip_set_bit(_out, workdir):
    path = workdir / "m8.bin"
    raw = bytearray(path.read_bytes())
    raw[9] ^= 1
    path.write_bytes(bytes(raw))


def change_path_vertex(_out, workdir):
    path = workdir / "lp16.txt"
    lines = path.read_text().split()
    v = lines[len(lines) // 2]
    lines[len(lines) // 2] = v[:-1] + ("1" if v[-1] == "0" else "0")
    path.write_text("\n".join(lines) + "\n")


def bump_class_size(out, _workdir):
    out["classes"][0]["size"] += 1


def bump_survival(out, _workdir):
    q = Fraction(out["survival"]["num"], out["survival"]["den"])
    out["survival"] = rat(q + Fraction(1, out["survival"]["den"]))


def main() -> int:
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK))
    try:
        return selftest(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def selftest(workdir: Path) -> int:
    env = child_env()
    rng = random.Random(7)
    order = ["".join(p) for p in ((a, b) for a in ACGT for b in ACGT)]
    rng.shuffle(order)
    (workdir / "o2.txt").write_text("\n".join(order) + "\n")
    write_run_set(workdir / "f10.txt", 10)
    seq = "".join(rng.choices(ACGT, k=500))
    inputs = Inputs(seed=7, workdir=workdir, est_seed=5)

    cases = [
        ("setup", "necklaces --sigma 2 --w 4", check_setup, [bump("necklace_count")]),
        ("mykkeltveit", "mykkeltveit --sigma 2 --w 8 --out m8.bin --binary",
         partial(check_mykkeltveit, sigma=2, w=8, set_file="m8.bin"),
         [bump("cardinality"), flip_set_bit]),
        ("witness", "longest-path --sigma 2 --w 8 --set m8.bin",
         partial(check_witness, sigma=2, w=8, set_file="m8.bin"),
         [change_witness_vertex, drop_witness_vertex, bump("longest_vertices")]),
        ("forbidden", "check-uhs --sigma 2 --w 12 --set forbidden --l 12",
         partial(check_forbidden_uhs, sigma=2, w=12, l=12),
         [bump("longest_path"), bump("cardinality", -1)]),
        ("exact density", "density --sigma 4 --w 3 --order o2.txt",
         partial(check_exact_density, sigma=4, k=2, w=3, rank=order_rank(order)),
         [bump_selected(1)]),
        ("forward contexts", "contexts --sigma 4 --w 3 --order o2.txt --variant forward",
         partial(check_forward_contexts, sigma=4, k=2, w=3), [bump_contexts(4**5)]),
        ("local contexts", "contexts --sigma 2 --w 4 --minimizer --k 3 --variant local",
         partial(check_local_contexts, sigma=2, k=3, w=4), [bump_contexts(2**9)]),
        ("estimate", "density --sigma 2 --w 10 --compatible f10.txt --estimate --seed 5 --sample 20000",
         partial(check_estimate, k=10, w=10, sample=20000), [bump_selected(1)]),
        ("particular", f"density --sigma 4 --w 5 --minimizer --k 3 --seq {seq}",
         partial(check_particular, k=3, w=5, seq=seq), [bump_selected(-1)]),
        ("long path", "long-path --sigma 2 --w 16 --out lp16.txt --csv lp16.csv",
         partial(check_long_path, w=16, vertex_file="lp16.txt", csv_file="lp16.csv"),
         [change_path_vertex, bump("vertices")]),
        ("necklaces", "necklaces --sigma 2 --w 6 --list",
         partial(check_necklace_list, sigma=2, w=6), [bump_class_size, bump("necklace_count")]),
        ("fsm", "fsm --sigma 2 --d 3 --w 16", partial(check_fsm, sigma=2, d=3, w=16), [bump_survival]),
        ("census", "mds-count --sigma 2 --w 4", partial(check_census, w=4), [bump("mds_count")]),
    ]

    failures = 0
    for name, argv, check, corruptions in cases:
        inv = invoke([sys.executable, "-c", LAUNCH, *argv.split()], workdir, env)
        if inv.rc != 0:
            print(f"FAIL {name}: CLI exited {inv.rc}")
            failures += 1
            continue
        genuine = json.loads(inv.stdout)
        try:
            check(genuine, inputs)
        except CheckError as e:
            print(f"FAIL {name}: genuine output rejected: {e}")
            failures += 1
            continue
        saved = {p: p.read_bytes() for p in workdir.iterdir() if p.is_file()}
        for corrupt in corruptions:
            out = copy.deepcopy(genuine)
            corrupt(out, workdir)
            try:
                check(out, inputs)
                print(f"FAIL {name}: accepted output corrupted by {corrupt.__qualname__}")
                failures += 1
            except CheckError as e:
                print(f"ok   {name}: {corrupt.__qualname__.split('.')[0]} rejected ({e})")
            for path, data in saved.items():
                path.write_bytes(data)
        check(genuine, inputs)  # restore the facts later cases read

    checker = Checker(inputs)
    for stdout in (b"", b"[1, 2]", b'"text"', b'{"sigma": 2, "w": 4, "mds_count": 30, "prunes": 0, "nodes_explored": null}'):
        verdict = checker.verdict(partial(check_census, w=4), Invocation(0.0, 0.0, 0, 0, stdout))
        print(("ok  " if verdict else "FAIL") + f" malformed stdout {stdout[:24]!r} is a failed check")
        failures += not verdict

    write_run_set(workdir / "f16.txt", 16)
    inv = invoke([sys.executable, "-c", LAUNCH, *"forbidden --sigma 2 --w 16 --out cli16.txt".split()],
                 workdir, env)
    same = inv.rc == 0 and (workdir / "f16.txt").read_bytes() == (workdir / "cli16.txt").read_bytes()
    print(("ok  " if same else "FAIL") + " forbidden-run input file matches the CLI's forbidden --w 16")
    failures += not same

    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
