"""Smoke-size self-check of the benchmark.

    python3 perfbench/smoke.py

Runs every workload at smoke size (a chain of 4 edges, one catalog
pass, four jobs per client) with tracing off and on.  Each run must
pass every output check, exit 0, and end with a JSON object whose
metrics are exactly the ``end_to_end`` (untraced) or ``per_layer``
(traced) names of ``BENCHMARK.json``, each with its unit.  It also
checks that the benchmark refuses to run when ``REPRO_ENGINE`` is set.
Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, env=None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, env=env)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            proc = run(workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append(f"{label}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: {lines[-1]}")
            if units != expected[trace]:
                failures.append(f"{label}: metrics {sorted(units.items())} != "
                                f"{sorted(expected[trace].items())}")
            print(f"ok {label}: {len(units)} metrics, attempted {result['attempted']}")
    env = dict(os.environ, REPRO_ENGINE="columnar")
    proc = run("sweep-cold", 0, env=env)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("REPRO_ENGINE set: the run was not refused")
    else:
        print("ok REPRO_ENGINE refused")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
