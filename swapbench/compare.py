#!/usr/bin/env python3
"""Compare two result sets of the swapgame benchmark.

    python3 swapbench/compare.py BASE_DIR NEW_DIR

Each directory holds the saved standard output of run.py runs, one file per
run (for example `run.py population --seed 7 > base/population-7.txt`).  A
run's "# stamp" line names its host and build; the two sets are compared
only when every run of both sets has the same CPU model, core count,
compiler, build type and SIMD level -- otherwise the script refuses and
exits 2.  Seeds may differ between runs: a set is meant to span seeds.

For every workload and every end-to-end metric of BENCHMARK.json it prints
both medians, each set's quartile spread as a share of its median, and a
verdict: "worse" when the new median is worse than the base median by more
than the metric's bound, "unresolved" when a set's own spread exceeds the
bound, and "ok" otherwise.  The exit code is 1 when any verdict is
"worse".
"""
import json
import os
import shlex
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_FIELDS = ("cpu", "nproc", "compiler", "build_type", "simd")


def load_run(path):
    stamp, result = None, None
    with open(path) as f:
        for line in f:
            if line.startswith("# stamp "):
                stamp = dict(tok.split("=", 1) for tok in shlex.split(line[len("# stamp "):]))
            elif line.startswith("{"):
                result = json.loads(line)
    if stamp is None or result is None:
        sys.exit("compare: %s holds no stamped result" % path)
    return stamp, result


def load_set(directory):
    runs = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            runs.append(load_run(path))
    if not runs:
        sys.exit("compare: no runs in %s" % directory)
    return runs


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    base, new = load_set(sys.argv[1]), load_set(sys.argv[2])

    hosts = {tuple(stamp.get(k) for k in HOST_FIELDS) for stamp, _ in base + new}
    if len(hosts) != 1:
        print("compare: refusing to compare runs from different hosts or builds:")
        for host in sorted(hosts, key=str):
            print("  " + " ".join("%s=%s" % kv for kv in zip(HOST_FIELDS, host)))
        sys.exit(2)

    worse = False
    workloads = sorted({stamp["workload"] for stamp, _ in base + new})
    print("%-15s %-18s %14s %14s %8s %8s %8s  verdict" %
          ("workload", "metric", "base median", "new median", "change", "base iqr", "new iqr"))
    for workload in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            b = [r["metrics"][name]["value"] for s, r in base if s["workload"] == workload]
            n = [r["metrics"][name]["value"] for s, r in new if s["workload"] == workload]
            if not b or not n:
                print("%-15s %-18s missing in one set" % (workload, name))
                continue
            bm, nm = statistics.median(b), statistics.median(n)
            change = (nm - bm) / bm
            loss = change if m["better"] == "lower" else -change
            if max(spread(b), spread(n)) > bound:
                verdict = "unresolved"
            elif loss > bound:
                verdict, worse = "worse", True
            else:
                verdict = "ok"
            print("%-15s %-18s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%%  %s" %
                  (workload, name, bm, nm, 100 * change, 100 * spread(b),
                   100 * spread(n), verdict))
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
