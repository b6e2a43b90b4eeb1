"""The repo benchmark: three workloads against the public API.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 34 --trace 0

Workloads (each module's docstring records why it exists and which
end-to-end metric each layer should move):

* ``sweep-cold``   — cold ``check_consistency`` sweeps of chain TC
  (:mod:`harness`), in three variants: default engine, columnar
  engine, and a 2-worker ``SweepEngine``;
* ``calm-catalog`` — ``calm_verdict`` on the six worked examples,
  empirically and static-first (:mod:`harness`);
* ``service-mix``  — two closed-loop clients against a
  ``python -m repro.service`` subprocess, cold and warm jobs
  interleaved (:mod:`service_mix`).

The smoke self-check ``python3 perfbench/smoke.py`` runs every workload
at toy size, traced and untraced, and checks every output and metric
name against ``BENCHMARK.json``.

Every run checks every verdict; a wrong one makes the run exit 1.
With ``--trace 0`` the report lists each workload's own end-to-end
metrics by name, unit and sample count, and the last line is one JSON
object whose ``metrics`` are the five metrics every workload shares:

* ``setup_s``     — median of five fresh set-ups: a new process that
  imports the program, builds the inputs and runs a small warm-up
  (for ``service-mix``: a server booted to its first ``/healthz``
  answer plus one tiny warm-up job);
* ``peak_rss_mb`` — peak resident memory of the process doing the
  work (the server, for ``service-mix``);
* ``base_s``, ``fast_s``, ``ops_per_s`` — three of the workload's own
  metrics, named in :data:`SHARED`: the median time of its baseline
  operation, the median time of its fast path (columnar engine, static
  certificates, run cache), and operations completed per second (on
  the two harness workloads, from the median round of operations).

With ``--trace 1`` the run wraps each layer's public functions
(:mod:`spans`) and its ``metrics`` are the per-layer metrics, each a
value per operation (one sweep round, one pair of catalog passes, one
job).  ``failed_share`` is reported in the text and as the JSON's
``failed``/``attempted``, not as a metric: it is 0 on a healthy run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Where traced runs write their raw spans (inside the checkout).
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
#: The workload metric behind each shared JSON metric.
SHARED = {
    "sweep-cold": {"base_s": "sweep_s", "fast_s": "sweep_columnar_s",
                   "ops_per_s": "sweeps_per_s"},
    "calm-catalog": {"base_s": "catalog_s", "fast_s": "catalog_static_s",
                     "ops_per_s": "passes_per_s"},
    "service-mix": {"base_s": "job_cold_p50_s", "fast_s": "job_warm_alone_p50_s",
                    "ops_per_s": "jobs_per_s"},
}


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: The workload's own end-to-end metrics: name -> (value, unit, samples).
    e2e: dict = field(default_factory=dict)
    #: Per-layer metrics (traced runs): name -> (value, unit, base or None).
    layers: dict = field(default_factory=dict)
    #: Counts printed beside the timings: name -> value.
    counts: dict = field(default_factory=dict)
    setup_samples: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        """Record a failed verdict check."""
        if not ok:
            self.errors.append(message)


def median(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    """The 90th percentile of raw samples (linear interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def environment() -> dict:
    """The stamp printed with every run."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def time_setup_probes(workload: str, seed: int, smoke: bool) -> list[float]:
    """Wall time of fresh processes that only set the workload up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    if smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, timeout=120,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


# -- reporting --------------------------------------------------------------


def report(args, outcome: Outcome, env: dict) -> dict:
    """Print the text report; return the final JSON object."""
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    setup_s = median(outcome.setup_samples)
    failed_share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print("end-to-end:")
    rows = [("setup_s", setup_s, "s", len(outcome.setup_samples)),
            ("peak_rss_mb", outcome.peak_rss_mb, "MB", 1),
            ("failed_share", failed_share, "ratio", outcome.attempted)]
    rows += [(name, v, unit, n) for name, (v, unit, n) in outcome.e2e.items()]
    for name, value, unit, n in rows:
        print(f"  {name:<26} {value:>14.6g} {unit:<6} n={n}")
    print("counts:")
    for name, value in outcome.counts.items():
        print(f"  {name:<26} {value}")
    if args.trace:
        print("per-layer (per operation):")
        for name, (value, unit, base) in outcome.layers.items():
            tail = f"  base: {base}" if base else ""
            print(f"  {name:<26} {value:>14.6g} {unit:<6}{tail}")
        metrics = {name: {"value": v, "unit": unit}
                   for name, (v, unit, _base) in outcome.layers.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": outcome.peak_rss_mb, "unit": "MB"},
        }
        for shared, own in SHARED[args.workload].items():
            value, unit, _n = outcome.e2e[own]
            metrics[shared] = {"value": value, "unit": unit}
    for error in outcome.errors:
        print(f"WRONG: {error}")
    return {
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(SHARED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one operation (self-check)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if "REPRO_ENGINE" in os.environ:
        print("perfbench: REPRO_ENGINE is set; it changes the default "
              "engine under sweep_s, so the run is refused", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "service-mix":
        import service_mix as module
    else:
        import harness as module
    if args.setup_probe:
        import harness

        harness.setup(args)
        return 0
    env = environment()
    outcome = module.run(args)
    result = report(args, outcome, env)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
