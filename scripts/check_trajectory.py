#!/usr/bin/env python3
"""Performance-trajectory regression gate over BENCH_*.json files.

The repo commits benchmark output (BENCH_scaling.json, BENCH_soak.json,
...) as its performance trajectory. This script diffs freshly produced
candidate files against the committed baselines with per-metric,
*directional* tolerance bands and exits non-zero on regression, so CI
can refuse perf-regressing changes the way it refuses failing tests.

Matching: records are paired by their identity fields — every
string-valued field plus a fixed set of integer sweep keys (threads,
push_percent, batch_size, hold_ns, chaos_permille, ...). A baseline
record with no candidate partner is a failure (a vanished sweep cell is
a regression in coverage); extra candidate records are informational
(new cells are how the trajectory grows). Two records of one file that
share an identity are an error: they could only be paired arbitrarily,
so the sweep key that tells them apart is missing from the list below.

Gating: only fields whose names classify as higher-is-better
(throughput, completed...) or lower-is-worse (latency, retries, stuck,
shed...) are gated, each in its bad direction only — a candidate that
got *faster* never fails. Elimination exchanges are a layer's share of
the work, not a rate: an object that needs to eliminate less moves them
down while getting faster, so they are not gated. Boolean health fields
(slo_pass, conserve*) must not flip true -> false. Nested arrays (the
soak window time-series) are never gated: windows are wall-clock noisy
by construction; the stable top-level aggregates are the trajectory.

Default tolerance is deliberately loose (35% relative) because CI hosts
are noisy single-core containers; the gate exists to catch step-change
regressions (a disabled fast path, an accidental O(n) scan), not 5%
jitter. Override with --tolerance.

Usage:
  check_trajectory.py --baseline-dir . --candidate-dir build/bench
  check_trajectory.py baseline.json candidate.json [--tolerance 0.5]

Exit status: 0 clean, 1 regression(s), 2 usage/matching errors.
"""

import argparse
import json
import math
import os
import sys

# Integer fields that identify a sweep cell rather than measure it.
KEY_FIELDS = {
    "threads",
    "push_percent",
    "capacity",
    "workers",
    "keys",
    "shards",
    "slots",
    "batch",
    "batch_size",
    "group",
    "phase",
    "key_range",
    "read_percent",
    "hold_ns",
    "gap_ns",
    "chaos_permille",
}

# Substrings classifying a metric's bad direction. First match wins;
# checked in order (lower-is-worse first so "sojourn_p99_ns" does not
# accidentally match a higher-is-better rule).
LOWER_IS_WORSE = (  # regression = candidate value DROPS
    "throughput",
    "ops_per_sec",
    "total_completed",
    "jain_fairness",
)
HIGHER_IS_WORSE = (  # regression = candidate value RISES
    "_ns",
    "latency",
    "retries",
    "abort_rate",
    "stuck",
    "shed",
    "degraded_fraction",
)
# Boolean fields that must never flip healthy -> unhealthy.
BOOL_HEALTH = ("slo_pass", "conserve", "conserves")

# Boolean marker fields that say WHICH record this is rather than how
# healthy it is. "acceptance_skipped" records that a bench binary's
# host-conditional in-binary acceptance check self-skipped (quick mode
# or <4 hardware threads); a skip on a small CI host is not a
# regression, so the flag joins the record's identity instead of being
# gated like BOOL_HEALTH.
IDENTITY_BOOLS = ("acceptance_skipped",)


def classify(name):
    """Return 'lower', 'higher', 'bool', or None (ungated)."""
    if name in IDENTITY_BOOLS:
        return None
    for pat in BOOL_HEALTH:
        if pat in name:
            return "bool"
    for pat in LOWER_IS_WORSE:
        if pat in name:
            return "lower"
    for pat in HIGHER_IS_WORSE:
        if pat in name:
            return "higher"
    return None


def identity(record):
    """Hashable identity of a record: string fields + known sweep keys."""
    parts = []
    for key in sorted(record):
        value = record[key]
        if isinstance(value, str) or (key in KEY_FIELDS and
                                      isinstance(value, int)):
            parts.append((key, value))
        elif key in IDENTITY_BOOLS and isinstance(value, bool):
            parts.append((key, value))
    return tuple(parts)


def check_pair(name, baseline, candidate, tolerance, failures):
    """Compares one matched record pair, appending failure strings."""
    for key, base in baseline.items():
        direction = None if key in KEY_FIELDS else classify(key)
        if direction is None or key not in candidate:
            continue
        cand = candidate[key]
        if direction == "bool":
            if base is True and cand is not True:
                failures.append(
                    f"{name}: {key} flipped true -> {cand!r}")
            continue
        if not isinstance(base, (int, float)) or isinstance(base, bool):
            continue
        if not isinstance(cand, (int, float)) or isinstance(cand, bool):
            failures.append(f"{name}: {key} became non-numeric: {cand!r}")
            continue
        if base == 0 or not math.isfinite(base) or not math.isfinite(cand):
            continue  # No meaningful relative band.
        rel = (cand - base) / abs(base)
        if direction == "lower" and rel < -tolerance:
            failures.append(
                f"{name}: {key} dropped {-rel:.1%} "
                f"({base:g} -> {cand:g}, band {tolerance:.0%})")
        elif direction == "higher" and rel > tolerance:
            failures.append(
                f"{name}: {key} rose {rel:.1%} "
                f"({base:g} -> {cand:g}, band {tolerance:.0%})")


def check_file(base_path, cand_path, tolerance, failures, errors):
    try:
        with open(base_path) as f:
            baseline = json.load(f)
        with open(cand_path) as f:
            candidate = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        errors.append(f"{base_path} vs {cand_path}: {e}")
        return 0
    if not isinstance(baseline, list) or not isinstance(candidate, list):
        errors.append(f"{base_path}: expected a JSON array of records")
        return 0

    for path, records in ((base_path, baseline), (cand_path, candidate)):
        seen = set()
        for record in records:
            ident = identity(record)
            if ident in seen:
                errors.append(f"{path}: two records share the identity "
                              f"{dict(ident)}")
                return 0
            seen.add(ident)

    cand_index = {identity(record): record for record in candidate}

    matched = 0
    fname = os.path.basename(base_path)
    for record in baseline:
        ident = identity(record)
        partner = cand_index.get(ident)
        label = fname + "".join(f"[{k}={v}]" for k, v in ident)
        if partner is None:
            failures.append(f"{label}: record missing from candidate")
            continue
        matched += 1
        check_pair(label, record, partner, tolerance, failures)
    return matched


def main():
    parser = argparse.ArgumentParser(
        description="Diff BENCH_*.json files against committed baselines.")
    parser.add_argument("files", nargs="*",
                        help="explicit BASELINE CANDIDATE file pair")
    parser.add_argument("--baseline-dir",
                        help="directory holding committed BENCH_*.json")
    parser.add_argument("--candidate-dir",
                        help="directory holding freshly produced BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.35,
                        help="relative tolerance band (default 0.35)")
    args = parser.parse_args()

    pairs = []
    if args.files:
        if len(args.files) != 2 or args.baseline_dir or args.candidate_dir:
            parser.error("give exactly BASELINE CANDIDATE, or use "
                         "--baseline-dir/--candidate-dir")
        pairs.append((args.files[0], args.files[1]))
    elif args.baseline_dir and args.candidate_dir:
        for entry in sorted(os.listdir(args.baseline_dir)):
            if not (entry.startswith("BENCH_") and entry.endswith(".json")):
                continue
            cand = os.path.join(args.candidate_dir, entry)
            if os.path.exists(cand):
                pairs.append((os.path.join(args.baseline_dir, entry), cand))
            else:
                print(f"note: no candidate for {entry}, skipping")
    else:
        parser.error("need a file pair or --baseline-dir/--candidate-dir")

    if not pairs:
        print("error: no baseline/candidate pairs to compare", file=sys.stderr)
        return 2

    failures, errors = [], []
    total_matched = 0
    for base_path, cand_path in pairs:
        matched = check_file(base_path, cand_path, args.tolerance,
                             failures, errors)
        total_matched += matched
        print(f"compared {base_path} vs {cand_path}: "
              f"{matched} matched record(s)")

    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 2
    if total_matched == 0:
        # A gate that matched nothing would pass vacuously forever.
        print("error: zero records matched across all pairs",
              file=sys.stderr)
        return 2
    if failures:
        print(f"\nTRAJECTORY REGRESSION ({len(failures)} finding(s)):",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"trajectory clean: {total_matched} record(s) within "
          f"{args.tolerance:.0%} bands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
