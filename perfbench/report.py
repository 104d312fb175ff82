"""Run every workload untraced and traced, and print one table of both.

    python3 perfbench/report.py

Each run measures for BENCHMARK.json's ``run_seconds`` with seed ``SEED``.
Prints each end-to-end metric by name and unit per workload, with
``fail_frac``, then the per-layer metrics each workload reaches.  The whole
table goes to ``.bench_work/report.json``.  Exits 1 if any output failed
its check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORK = BENCH_DIR.parent / ".bench_work"
SEED = 1


def run(workload: str, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.splitlines()[-1])


def main() -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    report = {}
    for w in spec["workloads"]:
        name = w["name"]
        report[name] = {"end_to_end": run(name, seconds, 0), "per_layer": run(name, seconds, 1)}
    WORK.mkdir(exist_ok=True)
    (WORK / "report.json").write_text(json.dumps(report, indent=1))

    ok = True
    for name, r in report.items():
        e2e = r["end_to_end"]
        for metric, v in e2e["metrics"].items():
            print(f"{name:10s} {metric:14s} {v['value']:12.4f} {v['unit']}")
        failed = e2e["failed"] + r["per_layer"]["failed"]
        attempted = e2e["attempted"] + r["per_layer"]["attempted"]
        print(f"{name:10s} {'fail_frac':14s} {failed / attempted:12.4f} ({failed}/{attempted})")
        ok &= failed == 0
    for name, r in report.items():
        for metric, v in r["per_layer"]["metrics"].items():
            if v["value"]:
                print(f"{name:10s} {metric:44s} {v['value']:14.6g} {v['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
