"""Benchmark of the ``uhspath`` CLI: end-to-end passes and a traced per-layer run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload graph --seed 1 --seconds 55 --trace 0

A pass runs one workload's fixed script of CLI invocations, one child
process at a time (a closed loop with a single client), each launched as
``python -c "from uhspath.cli import main; main()" ARGS`` with ``src`` on
the path.  Passes repeat until the next one would end after ``--seconds``
(at least two passes).  Every output is checked by ``workloads``/``checks``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
adds one traced pass (``tracer.py``) and reports the per-layer metrics.  The
last line of stdout is the JSON result; a fuller record (samples, stdout
sha256 per invocation, machine) goes to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_MIN = 10  # no-work invocations timed per run, after one warm-up
MIN_PASSES = 2  # so that no run rests on a single pass
LAUNCH = "from uhspath.cli import main; main()"
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

sys.path.insert(0, str(BENCH_DIR))
from tracer import layer_table, reaches_memory_span  # noqa: E402
from workloads import SETUP_ARGV, WORKLOADS, Inputs, check_setup  # noqa: E402

SETUP_CMD = [sys.executable, "-c", LAUNCH, *SETUP_ARGV]


@dataclass
class Invocation:
    wall: float
    cpu: float
    rss_kb: int
    rc: int
    stdout: bytes
    stderr_tail: str = ""  # the end of stderr, kept when the exit code is nonzero
    digest: str = ""  # sha256 of stdout and the files the step wrote
    start: float = 0.0  # time.perf_counter() just before the spawn


def invoke(cmd: list[str], cwd: Path, env: dict) -> Invocation:
    """Run one child to completion; wall from spawn to exit, rusage from wait4."""
    err_path = cwd / "stderr.txt"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, ru = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - t0
    inv = Invocation(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, proc.returncode, out, start=t0)
    if inv.rc != 0:
        inv.stderr_tail = err_path.read_bytes()[-400:].decode(errors="replace")
    return inv


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def digest(stdout: bytes, workdir: Path, files) -> str:
    h = hashlib.sha256(stdout)
    for name in files:
        h.update((workdir / name).read_bytes())
    return h.hexdigest()


def summary(values: list[float]) -> dict:
    """Median and sample count, plus the highest of p99/p95/p90 with ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    for pct in (99, 95, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
            break
    return out


def machine_record() -> dict:
    mem_kb = 0
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_kb // 1024,
        "platform": platform.platform(),
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "mpmath", "sympy")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


class Checker:
    """Checks each distinct output once and counts attempts and failures.

    A repeat with the same bytes (and the same bytes from the steps before it
    in the pass) shares the earlier verdict.
    """

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.verdicts: dict[str, str | None] = {}
        self.failures: list[str] = []
        self.attempted = 0

    def check_one(self, label: str, check, inv: Invocation) -> None:
        self.attempted += 1
        verdict = self.verdict(check, inv)
        if verdict is not None:
            self.failures.append(f"{label}: {verdict}")

    def check_pass(self, steps, results: list[Invocation]) -> None:
        chain = hashlib.sha256()
        for step, inv in zip(steps, results):
            self.attempted += 1
            chain.update(inv.digest.encode())
            key = f"{step.id}:{chain.hexdigest()}"
            if key not in self.verdicts:
                self.verdicts[key] = self.verdict(step.check, inv)
            if self.verdicts[key] is not None:
                self.failures.append(f"{step.id}: {self.verdicts[key]}")

    def verdict(self, check, inv: Invocation) -> str | None:
        if inv.rc != 0:
            return f"exit code {inv.rc}: {inv.stderr_tail.strip()}"
        try:
            check(json.loads(inv.stdout), self.inputs)
        except Exception as e:  # any malformed output is a failed check, not a crash
            return f"{type(e).__name__}: {e}"
        return None


def run_pass(steps, workdir: Path, env: dict, setup: list[Invocation]) -> list[Invocation]:
    """One pass; a no-work invocation before it samples set-up time.

    The host's speed shifts within seconds, so set-up samples are spread over
    the run rather than taken in one burst.
    """
    setup.append(invoke(SETUP_CMD, workdir, env))
    results = []
    for step in steps:
        inv = invoke([sys.executable, "-c", LAUNCH, *step.argv], workdir, env)
        inv.digest = digest(inv.stdout, workdir, step.outputs if inv.rc == 0 else ())
        results.append(inv)
    return results


def traced_pass(steps, workdir: Path, env: dict, span_dir: Path):
    """Trace each step for time; rerun the steps that reach a memory span for peaks.

    Returns the timed invocations and, per rerun step, its memory invocation.
    """
    timed, memory = [], {}
    for step in steps:
        for mode in ("time", "memory"):
            spans = span_dir / f"{step.id}.{mode}.npz"
            cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(SRC), str(spans), mode,
                   "--", *step.argv]
            inv = invoke(cmd, workdir, env)
            inv.digest = digest(inv.stdout, workdir, step.outputs if inv.rc == 0 else ())
            if mode == "memory":
                memory[step.id] = inv
            else:
                timed.append(inv)
            if inv.rc != 0 or not reaches_memory_span(spans):
                break
    return timed, memory


def per_layer(spec: list[dict], steps, untraced, traced, span_dir: Path) -> dict[str, float]:
    timed = [(span_dir / f"{step.id}.time.npz", inv.start) for step, inv in zip(steps, traced)]
    table = layer_table([t for t in timed if t[0].is_file()], sorted(span_dir.glob("*.memory.npz")))
    for i, step in enumerate(steps):
        table[f"cli.{step.id}.s"] = statistics.median(p[i].wall for p in untraced)
    table["cli.stdout_bytes"] = statistics.median(sum(len(i.stdout) for i in p) for p in untraced)
    survivors = table.get("paths.survivors", 0)
    if survivors:
        table["paths.ns_per_survivor"] = table["paths.longest_remaining_path.self_s"] * 1e9 / survivors
    kernel_s = sum(table.get(f"schemes.{f}.self_s", 0.0) for f in ("particular_density", "estimate_density"))
    if kernel_s:
        table["schemes.windows_per_s"] = table["schemes.windows"] / kernel_s
    if table.get("mds.nodes_explored"):
        table["mds.useful_ratio"] = 1 - table["mds.prunes"] / table["mds.nodes_explored"]
    untraced_wall = statistics.median(sum(i.wall for i in p) for p in untraced)
    table["trace.overhead_s"] = sum(i.wall for i in traced) - untraced_wall
    # a layer this workload does not reach reports zero
    return {m["name"]: float(table.get(m["name"], 0.0)) for m in spec}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    if not (SRC / "uhspath" / "cli.py").is_file():
        print(f"error: no uhspath sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{opts.workload}-", dir=WORK))
    try:
        return measure(opts, spec, workdir, child_env())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_passes(steps, workdir: Path, env: dict, seconds: float, checker: Checker, setup):
    """Repeat the pass until the next one would end after ``seconds`` (at least MIN_PASSES)."""
    passes: list[list[Invocation]] = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(steps, workdir, env, setup))
        elapsed = time.perf_counter() - t0
        checker.check_pass(steps, passes[-1])
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def shown_argv(argv) -> list[str]:
    return [a if len(a) <= 200 else f"<{len(a)} symbols>" for a in argv]


def measure(opts, spec: dict, workdir: Path, env: dict) -> int:
    workload = WORKLOADS[opts.workload]
    inputs = Inputs(opts.seed, workdir)
    workload.prepare(inputs)
    steps = workload.steps(inputs)
    checker = Checker(inputs)

    invoke(SETUP_CMD, workdir, env)  # warm-up: fills the page and bytecode caches
    setup = [invoke(SETUP_CMD, workdir, env) for _ in range(SETUP_MIN // 2)]
    passes = run_passes(steps, workdir, env, opts.seconds, checker, setup)
    while len(setup) < SETUP_MIN:
        setup.append(invoke(SETUP_CMD, workdir, env))
    for inv in setup:
        checker.check_one("setup", check_setup, inv)

    samples = {
        "pass_s": [sum(i.wall for i in p) for p in passes],
        "pass_cpu_s": [sum(i.cpu for i in p) for p in passes],
        "peak_rss_mb": [max(i.rss_kb for i in p) / 1024 for p in passes],
        "setup_s": [i.wall for i in setup],
    }
    record = {
        "workload": opts.workload, "seed": opts.seed, "seconds": opts.seconds,
        "trace": opts.trace, "machine": machine_record(),
        "loop": "closed, one client, one child process at a time",
        "argv": {s.id: shown_argv(s.argv) for s in steps},
        "samples": samples,
        "summary": {name: summary(v) for name, v in samples.items()},
        "step_s": {s.id: [p[i].wall for p in passes] for i, s in enumerate(steps)},
        "stdout_sha256": [{s.id: hashlib.sha256(i.stdout).hexdigest()
                           for s, i in zip(steps, p)} for p in passes],
    }

    if opts.trace:
        span_dir = WORK / "spans" / opts.workload
        shutil.rmtree(span_dir, ignore_errors=True)
        span_dir.mkdir(parents=True)
        traced, memory = traced_pass(steps, workdir, env, span_dir)
        checker.check_pass(steps, traced)
        for step, inv in zip(steps, traced):
            rerun = memory.get(step.id)
            if rerun is not None:  # the CLI prints identical bytes for identical invocations
                checker.attempted += 1
                if rerun.rc != 0 or rerun.digest != inv.digest:
                    checker.failures.append(f"{step.id}: memory-traced output differs")
        spec_metrics = spec["per_layer"]
        metrics = record["per_layer"] = per_layer(spec_metrics, steps, passes, traced, span_dir)
    else:
        spec_metrics = spec["end_to_end"]
        metrics = {m["name"]: statistics.median(samples[m["name"]]) for m in spec_metrics}

    attempted, failed = checker.attempted, len(checker.failures)
    record.update(attempted=attempted, failed=failed, failures=checker.failures)
    (WORK / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json").write_text(
        json.dumps(record, indent=1))

    for name, s in record["summary"].items():
        tail = "".join(f" p{p}={s[f'p{p}']:.4f}" for p in (99, 95, 90) if f"p{p}" in s)
        print(f"{opts.workload} {name}: median={s['median']:.4f} n={s['n']}{tail}")
    print(f"{opts.workload} fail_frac: {failed}/{attempted} = {failed / attempted:.4f}")
    for msg in checker.failures[:20]:
        print(f"  FAILED {msg}")
    units = {m["name"]: m["unit"] for m in spec_metrics}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
