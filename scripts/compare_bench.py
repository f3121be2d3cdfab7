#!/usr/bin/env python3
"""Compare two Google Benchmark JSON exports and flag regressions.

Usage:
  compare_bench.py BASELINE.json CANDIDATE.json [--threshold PCT]
                   [--counter NAME]... [--require-all]

Matches benchmarks by name (the full "BM_Foo/arg" run name), prints a
per-benchmark real-time delta table, and exits nonzero when any shared
benchmark is slower than the baseline by more than --threshold percent.

Counters named with --counter (default: allocs_per_iter, the allocation
counter of BENCH_solvers.json) are compared exactly: any increase over
the baseline value is a regression regardless of the time threshold —
it backs the zero-allocation contract, where "a little worse" is a leak.

Benchmarks present on only one side are reported but never fatal unless
--require-all is given (baselines are allowed to trail the bench set by
one PR). Aggregate rows (mean/median/stddev) are ignored.
"""

import argparse
import json
import sys

DEFAULT_COUNTERS = ("allocs_per_iter",)


def load_runs(path):
    """Returns {run name: benchmark dict} for plain (non-aggregate) runs."""
    with open(path) as f:
        data = json.load(f)
    runs = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        if bench.get("error_occurred"):
            print(f"note: {bench['name']} errored in {path}; skipping")
            continue
        runs[bench["name"]] = bench
    return runs


def context(path):
    with open(path) as f:
        return json.load(f).get("context", {})


def describe_provenance(label, ctx):
    """One line of build provenance (the fields bench::GoogleBenchmarkMain
    stamps into context, mirroring the admin exporter's mfgcp_build_info
    gauge; the build flags read "on" or "off"). mfgcp_build_type is this
    repo's CMAKE_BUILD_TYPE; Google Benchmark's own library_build_type
    says nothing about it."""
    flags = ", ".join(
        f"{key.removeprefix('mfgcp_')}={ctx[key]}"
        for key in ("mfgcp_obs", "mfgcp_faults", "mfgcp_simd")
        if key in ctx)
    parts = [ctx.get("mfgcp_build_type", "build type not recorded")]
    if ctx.get("git_describe"):
        parts.append(ctx["git_describe"])
    if ctx.get("compiler"):
        parts.append(ctx["compiler"])
    if flags:
        parts.append(flags)
    print(f"{label}: {' | '.join(parts)}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        help="max real-time slowdown in percent before failing (default 10)",
    )
    parser.add_argument(
        "--counter",
        action="append",
        default=[],
        help="counter compared exactly (any increase fails); "
        f"defaults: {', '.join(DEFAULT_COUNTERS)}",
    )
    parser.add_argument(
        "--require-all",
        action="store_true",
        help="fail when the two files do not cover the same benchmarks",
    )
    args = parser.parse_args()
    counters = tuple(args.counter) or DEFAULT_COUNTERS

    base = load_runs(args.baseline)
    cand = load_runs(args.candidate)
    for label, path in (("baseline", args.baseline),
                        ("candidate", args.candidate)):
        ctx = context(path)
        describe_provenance(label, ctx)
        bt = ctx.get("mfgcp_build_type")
        if bt is not None and bt.lower() not in ("release", "relwithdebinfo"):
            print(f"warning: {path} was recorded from a '{bt}' build; "
                  "times are not comparable to optimized baselines")

    shared = sorted(set(base) & set(cand))
    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))
    if not shared:
        print("error: no shared benchmarks between the two files")
        return 2

    failures = []
    width = max(len(name) for name in shared)
    print(f"{'benchmark':<{width}}  {'base':>12}  {'cand':>12}  {'delta':>8}")
    for name in shared:
        b, c = base[name], cand[name]
        bt, ct = b["real_time"], c["real_time"]
        delta = 100.0 * (ct - bt) / bt if bt else 0.0
        flag = ""
        if delta > args.threshold:
            flag = "  REGRESSED"
            failures.append(f"{name}: {delta:+.1f}% real time "
                            f"(threshold {args.threshold:.1f}%)")
        unit = b.get("time_unit", "ns")
        print(f"{name:<{width}}  {bt:>10.3f}{unit}  {ct:>10.3f}{unit}  "
              f"{delta:>+7.1f}%{flag}")
        for counter in counters:
            if counter not in b and counter not in c:
                continue
            bv = b.get(counter, 0.0)
            cv = c.get(counter, 0.0)
            if cv > bv:
                failures.append(
                    f"{name}: counter {counter} rose {bv:g} -> {cv:g}")
                print(f"{'':<{width}}  counter {counter}: "
                      f"{bv:g} -> {cv:g}  REGRESSED")

    for name in only_base:
        print(f"note: {name} only in baseline")
    for name in only_cand:
        print(f"note: {name} only in candidate")
    if args.require_all and (only_base or only_cand):
        failures.append(
            f"benchmark sets differ ({len(only_base)} baseline-only, "
            f"{len(only_cand)} candidate-only) with --require-all")

    if failures:
        print(f"\n{len(failures)} regression(s):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"\nok: {len(shared)} benchmarks within {args.threshold:.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
