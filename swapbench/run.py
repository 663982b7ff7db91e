#!/usr/bin/env python3
"""Build and run the swapgame benchmark.

    python3 swapbench/run.py <workload|all> --seed N [--seconds S] [--trace [0|1]]
    python3 swapbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds
swapbench/ (the library sources under src/ plus swapbench.cpp) into the
directory named by $CARGO_TARGET_DIR, or .bench_build by default; later
calls rebuild only what changed.  Build output goes to stderr.

Standard output carries the program's lines -- a "# stamp" line naming the
host and build, "# check" lines, one "name value unit" line per metric --
and ends with one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

whose metrics are BENCHMARK.json's end_to_end list for an untraced run and
its per_layer list for a traced one.  The exit code is 0 only when the
build succeeded, every metric was printed and every check passed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("population", "accuracy_sweep", "service")


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "swapbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("swapbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "swapbench")


def parse_lines(lines):
    """Metric lines -> {name: (value, unit)}; '# result' -> counts."""
    metrics, counts = {}, {}
    for line in lines:
        if line.startswith("# result "):
            for field in line.split()[2:]:
                key, _, value = field.partition("=")
                counts[key] = int(value)
            continue
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            try:
                metrics[parts[0]] = (float(parts[1]), parts[2])
            except ValueError:
                pass
    return metrics, counts


def run_workload(binary, build_dir, spec, workload, args):
    # Relative, so the daemon's AF_UNIX socket path stays short.
    tmp = os.path.relpath(os.path.join(build_dir, "tmp", "%s-%d" % (workload, os.getpid())))
    cmd = [binary, workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--tmp", tmp]
    if args.trace:
        cmd += ["--spans", os.path.join(build_dir, "spans-%s-%d.jsonl" % (workload, args.seed))]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode not in (0, 1):
        sys.exit("swapbench: %s exited with %d" % (workload, proc.returncode))

    metrics, counts = parse_lines(proc.stdout.splitlines())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing or "attempted" not in counts:
        sys.exit("swapbench: %s did not report %s" % (workload, missing or "its result"))
    result = {
        "correct": proc.returncode == 0 and counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return result["correct"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="?", choices=WORKLOADS + ("all",))
    parser.add_argument("--workload", dest="workload_flag", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the smoke test only")
    args = parser.parse_args()
    workload = args.workload_flag or args.workload
    if workload is None:
        parser.error("name a workload")

    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    names = WORKLOADS if workload == "all" else (workload,)
    ok = all([run_workload(binary, build_dir, spec, w, args) for w in names])
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
