#!/usr/bin/env python3
"""Perf regression gate over BENCH_*.json metric telemetry.

Compares the "metrics" object of freshly produced bench JSON against the
committed baselines in bench/baselines/.  Only EFFICIENCY metrics are
gated -- the sample/run counts an estimator needs to hit its target CI
(seed-deterministic and machine-independent, unlike wall clock):

  * samples_to_ci_*            (x1 variance-reduction ladder)
  * adaptive_samples_to_target (x1 adaptive stopping)
  * grid_runs_total            (x9 adaptive grid)
  * drop_block_samples_total   (x14 adaptive fault cells)
  * simd_speedup_*             (x15 SIMD kernel speedups, LOWER bound)
  * population_latency_*       (x16 fixed-workload settlement latency)
  * population_completion_*    (x16 completion rates, LOWER bound)
  * population_sessions_per_sec (x16 headline throughput, LOWER bound --
    machine-dependent, so its committed baseline is deliberately
    conservative; see docs/PERF.md)
  * population_parallel_speedup (x16 workers=8 over workers=1 wall-clock
    ratio, LOWER bound -- enforced only when the fresh run reports
    population_parallel_cores >= 8 and population_parallel_sessions >=
    10^6, because the parallel engine cannot speed anything up on a
    small machine or a scaled-down smoke workload)

A gated metric may not exceed its baseline by more than --tolerance
(default 25%); the simd_speedup_*, population_completion_*,
population_sessions_per_sec and population_parallel_speedup families are
gated the other way around (the fresh value may not drop below
baseline * (1 - tolerance)).  Other metrics (e.g.
mc_validation_max_abs_err) are reported informationally.  Wall-clock
TIME telemetry is never gated.  After the per-metric lines, a
measured-vs-baseline ratio summary table recaps every gated comparison.

A bench whose JSON reports failed claims ("failures" > 0) is marked FAIL
and its metrics are not gated; every other bench is still compared, and
the exit status is 1.

Each compared bench first prints the "host" stamp (CPU, nproc, compiler,
build type, SIMD level) of its baseline and of the fresh run, so a
machine-dependent comparison across different hosts is visible in the
log.  The stamps never change pass/fail.

Peak-memory gate: --time-v <file> parses the "Maximum resident set size
(kbytes)" line of a `/usr/bin/time -v` stderr capture and fails when it
exceeds --max-rss-mb.  CI wraps the full-scale 10^6-session x16 run this
way to hold the ledger-compaction memory bound (<= 4 GB).

Usage:
  python3 tools/bench_gate.py --fresh <dir-with-new-BENCH-json> \
      [--baseline bench/baselines] [--tolerance 0.25]
  python3 tools/bench_gate.py --time-v x16-time.txt --max-rss-mb 4096

Exit status: 0 = no regression, 1 = regression, failed claims or missing
fresh file.
"""

import argparse
import json
import pathlib
import sys

GATED_PREFIXES = (
    "samples_to_ci_",
    "adaptive_samples_to_target",
    "grid_runs_total",
    "drop_block_samples_total",
    # x16 settlement-latency percentiles come from FIXED-size population
    # cells (never SWAPGAME_MC_SCALE-scaled), so they are deterministic
    # functions of the config and safe to gate on any machine.
    "population_latency_",
)

# Higher-is-better metrics: fresh must stay ABOVE baseline * (1 - tol).
GATED_MIN_PREFIXES = (
    "simd_speedup_",
    "population_completion_",
    # Machine-dependent throughput floor; the committed baseline is set
    # conservatively (well below a warm dev machine) so the gate only
    # trips on order-of-magnitude regressions, not runner jitter.
    "population_sessions_per_sec",
    # Workers=8-over-workers=1 wall-clock ratio of the x16 headline pair.
    # Enforced conditionally -- see speedup_gate_applies().
    "population_parallel_speedup",
)

# The parallel-speedup floor only means something on a machine with
# enough cores and at a workload large enough to amortize the per-epoch
# barriers; below either threshold the metric is reported info-only.
SPEEDUP_MIN_CORES = 8
SPEEDUP_MIN_SESSIONS = 1_000_000


def speedup_gate_applies(fresh: dict) -> bool:
    return (fresh.get("population_parallel_cores", 0.0) >= SPEEDUP_MIN_CORES
            and fresh.get("population_parallel_sessions", 0.0)
            >= SPEEDUP_MIN_SESSIONS)


def is_gated(name: str) -> bool:
    return any(name.startswith(p)
               for p in GATED_PREFIXES + GATED_MIN_PREFIXES)


def is_min_gated(name: str) -> bool:
    return any(name.startswith(p) for p in GATED_MIN_PREFIXES)


def check_time_v(path: pathlib.Path, max_rss_mb: float) -> int:
    """Parses `/usr/bin/time -v` stderr and enforces the peak-RSS bound.

    Returns the number of failures (0 or 1); a missing or unparseable
    file counts as a failure so CI cannot silently skip the bound.
    """
    try:
        text = path.read_text()
    except OSError as err:
        print(f"FAIL --time-v: cannot read {path}: {err}", file=sys.stderr)
        return 1
    rss_kb = None
    for line in text.splitlines():
        if "Maximum resident set size" in line:
            try:
                rss_kb = float(line.rsplit(":", 1)[1])
            except (IndexError, ValueError):
                pass
            break
    if rss_kb is None:
        print(f"FAIL --time-v: no 'Maximum resident set size' line in {path}",
              file=sys.stderr)
        return 1
    rss_mb = rss_kb / 1024.0
    ok = rss_mb <= max_rss_mb
    print(f"{'ok  ' if ok else 'FAIL'} {path.name}: peak RSS "
          f"{rss_mb:.1f} MB (limit {max_rss_mb:g} MB)")
    return 0 if ok else 1


def load_bench(path: pathlib.Path) -> tuple:
    """Returns (metrics, host stamp text, failed claims) of one BENCH_*.json."""
    with open(path) as fh:
        doc = json.load(fh)
    host = doc.get("host")
    stamp = ("no host stamp" if host is None else
             f"cpu=\"{host.get('cpu')}\" nproc={host.get('nproc')} "
             f"compiler=\"{host.get('compiler')}\" "
             f"build_type={host.get('build_type')} simd={host.get('simd')}")
    return doc.get("metrics", {}), stamp, doc.get("failures", 0)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fresh", type=pathlib.Path,
                    help="directory holding freshly generated BENCH_*.json")
    ap.add_argument("--baseline", default=pathlib.Path("bench/baselines"),
                    type=pathlib.Path)
    ap.add_argument("--tolerance", default=0.25, type=float,
                    help="allowed relative increase over baseline")
    ap.add_argument("--time-v", type=pathlib.Path, dest="time_v",
                    help="`/usr/bin/time -v` stderr capture to bound")
    ap.add_argument("--max-rss-mb", type=float, default=4096.0,
                    help="peak-RSS bound for --time-v (default 4096)")
    args = ap.parse_args()

    if args.fresh is None and args.time_v is None:
        ap.error("at least one of --fresh / --time-v is required")

    if args.time_v is not None:
        rss_failures = check_time_v(args.time_v, args.max_rss_mb)
        if args.fresh is None:
            return 1 if rss_failures else 0
    else:
        rss_failures = 0

    baselines = sorted(args.baseline.glob("BENCH_*.json"))
    if not baselines:
        print(f"bench_gate: no baselines under {args.baseline}",
              file=sys.stderr)
        return 1

    failures = 0
    compared = 0
    # (bench, metric, fresh, baseline, bound, ok) per gated comparison,
    # recapped as the ratio summary table below.
    summary_rows = []
    for base_path in baselines:
        fresh_path = args.fresh / base_path.name
        base, base_host, base_failed = load_bench(base_path)
        gated_names = [k for k in base if is_gated(k)]
        if not gated_names:
            continue  # bench exports no efficiency metrics; nothing to gate
        if not fresh_path.is_file():
            # The smoke job runs a subset of benches; only gate what ran.
            print(f"skip {base_path.name}: no fresh run in {args.fresh}")
            continue
        fresh, fresh_host, fresh_failed = load_bench(fresh_path)
        print(f"host {base_path.name}: baseline {base_host}")
        print(f"host {base_path.name}: fresh    {fresh_host}")
        if base_failed or fresh_failed:
            # Claims failed: the bench is a FAIL and its numbers are not
            # gated, but the other benches still are.
            side = "fresh run" if fresh_failed else "baseline"
            print(f"FAIL {base_path.name}: {side} reported "
                  f"{fresh_failed or base_failed} failed claim(s); "
                  "metrics not gated")
            failures += 1
            continue
        for name in sorted(base):
            if name not in fresh:
                print(f"FAIL {base_path.name}: metric '{name}' disappeared")
                failures += 1
                continue
            b, f = base[name], fresh[name]
            if not is_gated(name):
                print(f"info {base_path.name}: {name} = {f:g} "
                      f"(baseline {b:g}, not gated)")
                continue
            if (name == "population_parallel_speedup"
                    and not speedup_gate_applies(fresh)):
                print(f"info {base_path.name}: {name} = {f:g} "
                      f"(baseline {b:g}, floor waived: "
                      f"{fresh.get('population_parallel_cores', 0.0):g} "
                      f"core(s), "
                      f"{fresh.get('population_parallel_sessions', 0.0):g} "
                      "session(s))")
                continue
            compared += 1
            if is_min_gated(name):
                limit = b * (1.0 - args.tolerance)
                ok = f >= limit
                bound = "floor"
            else:
                limit = b * (1.0 + args.tolerance)
                ok = f <= limit
                bound = "limit"
            if not ok:
                failures += 1
            summary_rows.append((base_path.name, name, f, b, bound, ok))
            print(f"{'ok  ' if ok else 'FAIL'} {base_path.name}: "
                  f"{name} = {f:g} vs baseline {b:g} ({bound} {limit:g})")

    if compared == 0:
        print("bench_gate: no gated metrics compared", file=sys.stderr)
        return 1

    # Measured-vs-baseline ratio recap: one line per gated metric, so a
    # CI log scan shows at a glance how much headroom each bound has left
    # (ratio > 1 means fresh above baseline -- good for floor-gated
    # metrics, headroom consumed for limit-gated ones).
    name_width = max(len(r[1]) for r in summary_rows)
    print("\nbench_gate: measured / baseline ratio summary")
    for bench_name, name, f, b, bound, ok in summary_rows:
        ratio = f / b if b else float("inf")
        print(f"  {name:<{name_width}}  {f:>14g}  /{b:>14g}  "
              f"= {ratio:6.3f}  [{bound}] {'ok' if ok else 'FAIL'}"
              f"  ({bench_name})")

    failures += rss_failures
    print(f"bench_gate: {compared} gated metric(s), {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
