#!/usr/bin/env python3
"""Validates a serving-runtime JSONL export (serve/serve_loop.h, bench_serve).

Usage: check_serve.py <serve.jsonl> [--expect-requests N]
                      [--expect-zero-failed]

The file carries one {"type":"epoch"} row per published plan (publication
sequence order) and a single trailing {"type":"summary"} row. Asserts what
the serving runtime promises (EXPERIMENTS.md "Serving soak"):

  * epoch rows are in publication order: seq counts 0,1,2,... and both
    tick and sim_time are nondecreasing, epoch strictly increasing;
  * per-row ladder accounting closes: solved + retried + carried_forward
    + fallback + failed == active, and deadline_misses is 0 or 1 (a plan
    round overruns at most once);
  * a deferred publication really was deferred: epoch_published >= epoch,
    with equality whenever the row charges no deadline miss in
    synchronous mode (epoch_published > epoch requires a miss);
  * the summary closes against the rows: publications == row count,
    deadline_misses == sum of row deadline_misses, failed_epochs == number
    of rows with failed > 0, hits + misses == requests, and the steady
    window fits inside the run (steady_ticks <= ticks).

--expect-zero-failed additionally requires failed == 0 on every row (the
chaos-soak contract: the recovery ladder degrades, it never fails).
Exit code 0 = the file is well-formed and the invariants hold.
"""

import argparse
import json
import sys


def fail(message):
    print(f"check_serve: {message}", file=sys.stderr)
    sys.exit(1)


LADDER = ("solved", "retried", "carried_forward", "fallback", "failed")

EPOCH_FIELDS = ("seq", "epoch", "epoch_published", "tick", "sim_time",
                "active", "plan_seconds", "deadline_misses",
                "mean_price") + LADDER

SUMMARY_FIELDS = ("ticks", "publications", "plan_rounds", "deadline_misses",
                  "skipped_plan_rounds", "failed_epochs", "requests", "hits",
                  "misses", "replans", "replan_faults", "total_delay",
                  "backhaul_mb", "horizon", "steady_allocs", "steady_ticks",
                  "wall_seconds", "tick_ms", "plan_deadline_ms", "timescale")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("jsonl_path", help="serve JSONL to validate")
    parser.add_argument("--expect-requests", type=int, default=None,
                        metavar="N",
                        help="require the summary to count exactly N requests")
    parser.add_argument("--expect-zero-failed", action="store_true",
                        help="require failed == 0 on every epoch row "
                             "(the chaos-soak contract)")
    args = parser.parse_args()

    rows = []
    summary = None
    with open(args.jsonl_path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                fail(f"line {line_no}: {error}")
            kind = record.get("type")
            if kind == "epoch":
                if summary is not None:
                    fail(f"line {line_no}: epoch row after the summary")
                missing = [k for k in EPOCH_FIELDS if k not in record]
                if missing:
                    fail(f"line {line_no}: missing fields {missing}")
                record["line"] = line_no
                rows.append(record)
            elif kind == "summary":
                if summary is not None:
                    fail(f"line {line_no}: duplicate summary row")
                missing = [k for k in SUMMARY_FIELDS if k not in record]
                if missing:
                    fail(f"line {line_no}: missing fields {missing}")
                summary = record
            else:
                fail(f"line {line_no}: unknown row type {kind!r}")

    if summary is None:
        fail("no summary row")
    if not rows and summary["publications"] != 0:
        fail("summary counts publications but the file has no epoch rows")

    previous = None
    for row in rows:
        where = f"line {row['line']} (seq {row['seq']})"
        expected_seq = 0 if previous is None else previous["seq"] + 1
        if row["seq"] != expected_seq:
            fail(f"{where}: seq should be {expected_seq}")
        if previous is not None:
            if row["tick"] < previous["tick"]:
                fail(f"{where}: tick went backwards "
                     f"({previous['tick']} -> {row['tick']})")
            if row["sim_time"] < previous["sim_time"]:
                fail(f"{where}: sim_time went backwards")
            if row["epoch"] <= previous["epoch"]:
                fail(f"{where}: epoch not strictly increasing "
                     f"({previous['epoch']} -> {row['epoch']})")
        ladder_sum = sum(row[k] for k in LADDER)
        if ladder_sum != row["active"]:
            fail(f"{where}: ladder tallies sum to {ladder_sum}, "
                 f"active is {row['active']}")
        if row["deadline_misses"] not in (0, 1):
            fail(f"{where}: deadline_misses {row['deadline_misses']} not in "
                 "{0, 1}")
        if row["epoch_published"] < row["epoch"]:
            fail(f"{where}: published at boundary {row['epoch_published']} "
                 f"before its own epoch {row['epoch']}")
        if (row["epoch_published"] > row["epoch"]
                and summary["plan_deadline_ms"] == 0
                and row["deadline_misses"] == 0):
            fail(f"{where}: synchronous publication deferred without a "
                 "deadline miss")
        if row["plan_seconds"] < 0.0:
            fail(f"{where}: negative plan_seconds")
        if args.expect_zero_failed and row["failed"] != 0:
            fail(f"{where}: failed {row['failed']} != 0 with "
                 "--expect-zero-failed")
        previous = row

    if summary["publications"] != len(rows):
        fail(f"summary publications {summary['publications']} != "
             f"{len(rows)} epoch rows")
    misses = sum(row["deadline_misses"] for row in rows)
    if summary["deadline_misses"] != misses:
        fail(f"summary deadline_misses {summary['deadline_misses']} != "
             f"{misses} counted from the rows")
    failed_epochs = sum(1 for row in rows if row["failed"] > 0)
    if summary["failed_epochs"] != failed_epochs:
        fail(f"summary failed_epochs {summary['failed_epochs']} != "
             f"{failed_epochs} counted from the rows")
    if summary["hits"] + summary["misses"] != summary["requests"]:
        fail(f"summary hits {summary['hits']} + misses {summary['misses']} "
             f"!= requests {summary['requests']}")
    if summary["plan_rounds"] > summary["replans"]:
        fail(f"summary plan_rounds {summary['plan_rounds']} > replans "
             f"{summary['replans']}")
    if summary["steady_ticks"] > summary["ticks"]:
        fail(f"summary steady_ticks {summary['steady_ticks']} > ticks "
             f"{summary['ticks']}")
    if summary["wall_seconds"] < 0.0:
        fail("summary: negative wall_seconds")
    timescale = summary["timescale"]
    if timescale != "inf" and (not isinstance(timescale, (int, float))
                               or timescale <= 0):
        fail(f"summary: timescale {timescale!r} is neither 'inf' nor "
             "a positive number")
    if args.expect_requests is not None and \
            summary["requests"] != args.expect_requests:
        fail(f"summary requests {summary['requests']} != expected "
             f"{args.expect_requests}")
    if args.expect_zero_failed and summary["failed_epochs"] != 0:
        fail(f"summary failed_epochs {summary['failed_epochs']} != 0 with "
             "--expect-zero-failed")

    print(f"check_serve: OK ({len(rows)} publications, "
          f"{summary['requests']} requests, "
          f"{summary['deadline_misses']} deadline misses, "
          f"timescale {timescale})")


if __name__ == "__main__":
    main()
