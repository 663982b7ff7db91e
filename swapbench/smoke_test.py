#!/usr/bin/env python3
"""Smoke test of the swapgame benchmark.

    python3 swapbench/smoke_test.py

Run from the root of a checkout.  Runs every workload at a tiny size
(run.py --smoke), untraced and traced, and fails unless each run exits 0,
reports correct == true, and prints every metric BENCHMARK.json lists plus
every workload metric README.md names.  It also checks that run.py exits
non-zero without a result in a directory that holds only BENCHMARK.json
and swapbench/.  Build output lands in $CARGO_TARGET_DIR or .bench_build.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

# Workload-specific metric lines (README.md), by workload and trace flag.
WORKLOAD_METRICS = {
    ("population", 0): ["error_rate", "sessions_per_s", "peak_rss_mb",
                        "population.settlement_p50_h", "population.settlement_p99_h"],
    ("population", 1): ["market.population.us_per_session",
                        "market.population.scaling_ratio",
                        "market.population.parallel_speedup",
                        "market.fee.inclusion_ratio", "model.solves_per_1k_sessions"],
    ("accuracy_sweep", 0): ["error_rate", "sweep_s"],
    ("accuracy_sweep", 1): ["engine.cell_s.analytic_sr", "engine.cell_s.mc_model",
                            "engine.cell_s.mc_protocol", "sim.model.samples_per_s",
                            "sim.protocol.samples_per_s", "sweep.pool.busy_frac",
                            "engine.cache.hit_ratio"],
    ("service", 0): ["error_rate", "job_p50_ms", "job_p95_ms", "jobs_per_s",
                     "service.jobs", "service.jobs_above_p95"],
    ("service", 1): ["service.warm_job_ms", "service.cold_job_ms",
                     "service.first_cell_ms", "service.eval_share",
                     "engine.cache.hit_ratio"],
}


def printed_metrics(stdout):
    names = set()
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            names.add(parts[0])
    return names


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in ("population", "accuracy_sweep", "service"):
        for trace in (0, 1):
            cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            tag = "%s trace=%d" % (workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append("%s: exit %d" % (tag, proc.returncode))
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                failures.append("%s: checks failed" % tag)
            listed = spec["per_layer" if trace else "end_to_end"]
            wanted = [m["name"] for m in listed] + WORKLOAD_METRICS[(workload, trace)]
            missing = sorted(set(wanted) - printed_metrics(proc.stdout))
            if missing:
                failures.append("%s: missing %s" % (tag, ", ".join(missing)))
            print("%-26s %s" % (tag, "ok" if not missing and result["correct"] else "FAIL"))

    # Without the library sources the benchmark must fail, not report.
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bare = os.path.join(build_dir, "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "swapbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "swapbench/run.py", "--workload", "population", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build")))
    shutil.rmtree(bare, ignore_errors=True)
    bare_ok = proc.returncode != 0 and '"correct"' not in proc.stdout
    print("%-26s %s" % ("without sources", "ok" if bare_ok else "FAIL"))
    if not bare_ok:
        failures.append("run.py reported a result without the library sources")

    for failure in failures:
        print("FAIL " + failure)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
