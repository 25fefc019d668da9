#!/usr/bin/env python3
"""Validates the JSON that the quick-mode bench smoke writes.

    scripts/validate_bench_json.py [BENCH_DIR]     # default build/bench

BENCH_DIR holds the BENCH_*.json files the bench binaries wrote into
their working directory. Each block below checks one experiment's file:
its schema, its conservation laws and its machine-readable verdicts. A
failed check does not stop the run: every block runs, each failed check
is printed as it happens and listed again at the end, and the exit
status is 1 if any check failed. A block that cannot run to its end (a
missing file or field) counts as one failed check.
"""

import json
import os
import sys

BenchDir = sys.argv[1] if len(sys.argv) > 1 else "build/bench"
Failures = []
# What one block loads and a later block reuses (the path audit spans
# the E11, E12, E14 and E16 records).
Loaded = {}


def check(cond, msg):
    if not cond:
        Failures.append(str(msg))
        print(f"FAIL: {msg}")
    return cond


def load(name):
    with open(os.path.join(BenchDir, name)) as f:
        return json.load(f)


def block(fn):
    """Runs one block now; prints its OK line only if none of its checks
    failed."""
    before = len(Failures)
    try:
        ok = fn()
    except Exception as e:  # a missing file or field fails the block
        check(False, f"{fn.__name__}: {type(e).__name__}: {e}")
        return fn
    if len(Failures) == before and ok:
        print(f"OK: {ok}")
    return fn


# Acceptance markers: bench binaries with an in-binary host-conditional
# acceptance check record whether it ran as a one-field marker record.
# Markers are split off before the sweep-record field checks.
def split_markers(records, fname):
    markers = [r for r in records if r.get("record") == "acceptance"]
    check(len(markers) == 1,
          f"{fname}: expected one acceptance marker, got {markers}")
    check(isinstance(markers[0]["acceptance_skipped"], bool),
          f"{fname}: marker lacks a boolean acceptance_skipped")
    return [r for r in records if r.get("record") != "acceptance"]


# Path-attributed breakdown (obs/MetricsJson.h schema): every
# contention-sensitive record must carry the full field set and satisfy
# the conservation law metric_ops == sum(path_*) — the sink books
# exactly one terminal path per skeleton entry, so any drift here is a
# lost or double-booked operation.
PATH_FIELDS = {"metric_ops", "path_shortcut", "path_eliminated",
               "path_combined", "path_lock", "path_degraded",
               "path_batched", "shortcut_aborts",
               "protected_retries", "degraded_retries",
               "eliminated_pushes", "eliminated_pops",
               "combiner_batches", "combined_ops",
               "doorway_timeouts", "lease_timeouts",
               "shard_grows", "shard_shrinks",
               "gate_widens", "gate_narrows",
               "combiner_batch_size_count",
               "combiner_batch_size_mean",
               "combiner_batch_size_max"}


def path_sum(r):
    return (r["path_shortcut"] + r["path_eliminated"] +
            r["path_combined"] + r["path_lock"] +
            r["path_degraded"] + r["path_batched"])


@block
def e11_contention_managers():
    records = Loaded["records"] = load("BENCH_stack_throughput.json")
    check(records, "sweep emitted no records")
    required = {"object", "policy", "manager", "threads",
                "throughput_ops_per_sec"}
    for r in records:
        missing = required - r.keys()
        check(not missing, f"record missing {missing}: {r}")
    policies = {r["policy"] for r in records}
    managers = {r["manager"] for r in records}
    check(policies == {"instrumented", "fast"}, policies)
    check(len(managers) >= 3, managers)
    return f"{len(records)} records, managers={sorted(managers)}"


# E12 scaling sweep: structural checks only — runner core counts vary,
# so perf comparisons stay inside the binary's own host-conditional
# check.
@block
def e12_scaling_and_ablation():
    scaling = Loaded["scaling"] = split_markers(
        load("BENCH_scaling.json"), "BENCH_scaling.json")
    check(scaling, "scaling sweep emitted no records")
    required = {"object", "threads", "push_percent",
                "throughput_ops_per_sec", "p99_ns"}
    for r in scaling:
        missing = required - r.keys()
        check(not missing, f"record missing {missing}: {r}")
    objects = {r["object"] for r in scaling}
    check(len(objects) >= 6, objects)
    check(any("elimination_exchanges" in r for r in scaling),
          "no accelerated record carries elimination stats")
    check(any("combiner_batches" in r for r in scaling),
          "no combining record carries combiner stats")

    ablation = load("BENCH_elimination.json")
    check({r["strategy"] for r in ablation} >= {
        "eliminating(fig3+elim)", "combining(fig3+fc)",
        "sharded(4xfig3)"}, "ablation missing accelerated rows")
    return (f"scaling {len(scaling)} records over "
            f"{len(objects)} objects; ablation {len(ablation)} rows")


# E14 batch sweep joins the shared conservation audit below.
@block
def e14_batch():
    batch = Loaded["batch"] = load("BENCH_batch.json")
    check(batch, "batch sweep emitted no records")
    required = {"object", "threads", "batch_size", "mix", "ops",
                "elements_per_sec", "conserves", "object_bytes",
                "bytes_per_element"}
    for r in batch:
        missing = required - r.keys()
        check(not missing, f"record missing {missing}: {r}")
        check(r["conserves"], f"batch record lost elements: {r}")
    batch_objects = {r["object"] for r in batch}
    check(batch_objects >= {"fig3 per-element", "fig3 batch",
                            "combining batch", "sharded batch"},
          batch_objects)
    check(any(r["combiner_batch_size_count"] > 0 for r in batch),
          "no batch record fed the group-size histogram")
    check(any("bytes_per_element" in r for r in Loaded["scaling"]),
          "scaling sweep dropped the memory-footprint columns")
    return (f"batch sweep {len(batch)} records over "
            f"{len(batch_objects)} objects")


# E16 map sweep: cell-identifying columns, memory footprint, and the
# path breakdown on the contention-sensitive records (gets are
# hand-booked as Shortcut, so conservation spans the read path too).
@block
def e16_map():
    mapsweep = Loaded["mapsweep"] = split_markers(
        load("BENCH_map.json"), "BENCH_map.json")
    check(mapsweep, "map sweep emitted no records")
    required = {"object", "threads", "key_range", "read_percent",
                "ops", "ops_per_sec", "conserves", "object_bytes",
                "bytes_per_element"}
    for r in mapsweep:
        missing = required - r.keys()
        check(not missing, f"record missing {missing}: {r}")
        check(r["conserves"], f"map record lost operations: {r}")
    map_objects = {r["object"] for r in mapsweep}
    check(map_objects >= {"cs-map", "locked-map"}, map_objects)
    cs_map = [r for r in mapsweep if r["object"] == "cs-map"]
    check(all("metric_ops" in r for r in cs_map),
          "a cs-map record lost its path breakdown")
    check(any(r["path_shortcut"] > 0 for r in cs_map),
          "cs-map never booked a shortcut (reads must book one each)")
    return (f"map sweep {len(mapsweep)} records over "
            f"{len(map_objects)} objects")


@block
def path_conservation():
    scaling = Loaded["scaling"]
    attributed = [r for r in Loaded["records"] + scaling +
                  Loaded["batch"] + Loaded["mapsweep"]
                  if "metric_ops" in r]
    check(attributed, "no sweep record carries the path breakdown")
    for r in attributed:
        missing = PATH_FIELDS - r.keys()
        check(not missing, f"record missing {missing}: {r}")
        total = path_sum(r)
        check(r["metric_ops"] == total,
              f"conservation violated ({r['metric_ops']} != {total}): {r}")
        check(r["eliminated_pushes"] == r["eliminated_pops"],
              f"unbalanced elimination pairing: {r}")
    cs_scaling = [r for r in scaling
                  if r["object"].startswith(("shortcut+lock",
                                             "eliminating", "combining",
                                             "sharded"))]
    check(all("metric_ops" in r for r in cs_scaling),
          "a contention-sensitive scaling record lost its breakdown")
    return f"{len(attributed)} path-attributed records conserve"


# E15 soak (quick mode): window time-series schema, per-window
# conservation, and the machine-readable SLO verdict itself. Three
# scenarios, one record each: the bounded crash-tolerant stack (lease
# reclamation), the unbounded cs stack (hazard-pointer reclamation), and
# the adaptive sharded facade (stall-only campaign; its shards hold a
# RAII lock, so crashing a holder is out of contract).
@block
def e15_soak():
    soak = load("BENCH_soak.json")
    check(len(soak) == 3,
          f"soak emits one record per scenario, got {len(soak)}")
    check({s["object"] for s in soak} == {
        "crash-tolerant(fig3+leases)", "unbounded-cs(fig3+hp)",
        "adaptive(<=8xfig3)"}, [s["object"] for s in soak])
    required = {"object", "experiment", "workers", "keys",
                "total_arrivals", "total_completed", "total_shed",
                "total_crashes", "total_stalls", "total_stuck_ops",
                "throughput_ops_per_sec", "sojourn_p99_ns",
                "gen_lag_p50_ns", "queue_wait_p50_ns",
                "service_p99_ns", "conserve_final", "slo_pass",
                "violations", "windows"}
    wreq = {"window", "start_sec", "arrivals", "completed", "shed",
            "backlog", "crashes", "stalls", "stuck_ops", "conserves",
            "ops", "degraded_fraction", "sojourn_p99_ns",
            "gen_lag_p50_ns", "queue_wait_p50_ns"}
    for s in soak:
        before = len(Failures)
        missing = required - s.keys()
        check(not missing, f"soak record missing {missing}")
        check(s["slo_pass"] is True,
              f"soak SLO verdict failed ({s['object']}): {s['violations']}")
        check(s["conserve_final"] is True,
              f"final conservation violated ({s['object']})")
        check(s["windows"], f"soak recorded no windows ({s['object']})")
        for w in s["windows"]:
            missing = wreq - w.keys()
            check(not missing, f"window missing {missing}: {w}")
            check(w["conserves"] is True,
                  f"window conservation violated ({s['object']}): {w}")
        check(s["total_completed"] > 0,
              f"soak completed nothing ({s['object']})")
        check(s["total_crashes"] + s["total_stalls"] > 0,
              f"fault campaign never fired ({s['object']})")
        if len(Failures) == before:
            print(f"OK: soak {s['object']}: {len(s['windows'])} windows "
                  f"conserve, {s['total_crashes']} crashes + "
                  f"{s['total_stalls']} stalls fired, SLO pass")
    return None


# E17 reclamation sweep: schema, per-cell push/pop conservation, and the
# retire-backlog bound — high water within the scan threshold during the
# run and a fully drained backlog at quiescence — on every hazard-domain
# record.
@block
def e17_reclamation():
    reclaim = split_markers(load("BENCH_reclamation.json"),
                            "BENCH_reclamation.json")
    check(reclaim, "reclamation sweep emitted no records")
    required = {"object", "threads", "capacity", "ops",
                "throughput_ops_per_sec", "pushed", "popped",
                "final_size", "conserves", "object_bytes",
                "bytes_per_element", "retire_backlog_high_water",
                "retire_backlog_final", "scan_threshold"}
    for r in reclaim:
        missing = required - r.keys()
        check(not missing, f"record missing {missing}: {r}")
        check(r["conserves"], f"reclamation cell lost elements: {r}")
    objects = {r["object"] for r in reclaim}
    check(objects == {"unbounded-cs(fig3+hp)",
                      "contention-sensitive(fig3)"}, objects)
    hp = [r for r in reclaim if r["object"] == "unbounded-cs(fig3+hp)"]
    for r in hp:
        check(r["scan_threshold"] > 0, f"no scan threshold: {r}")
        check(r["retire_backlog_high_water"] <= r["scan_threshold"],
              f"retire backlog exceeded the scan threshold: {r}")
        check(r["retire_backlog_final"] == 0,
              f"retire backlog did not drain at quiescence: {r}")
    return (f"reclamation sweep {len(reclaim)} records conserve, "
            f"{len(hp)} hazard-domain cells hold the backlog bound")


# E18 adaptive sharding: cell-identifying columns (the phase column keys
# the trajectory matcher), the static family plus the adaptive facade,
# path conservation on every record, the reconfiguration columns
# actually moving somewhere, and the always-on six-access oracle flag in
# the acceptance marker.
@block
def e18_adaptive():
    adaptive_all = load("BENCH_adaptive.json")
    markers = [r for r in adaptive_all
               if r.get("record") == "acceptance"]
    check(len(markers) == 1,
          "BENCH_adaptive.json: expected one acceptance marker")
    check(isinstance(markers[0]["acceptance_skipped"], bool),
          "adaptive marker lacks a boolean acceptance_skipped")
    check(markers[0]["solo_six_access_after_shrink"] is True,
          "adaptive facade lost the six-access solo bound after shrink")
    adaptive = [r for r in adaptive_all
                if r.get("record") != "acceptance"]
    check(adaptive, "adaptive sweep emitted no records")
    required = {"object", "threads", "phase", "phase_name",
                "push_percent", "ops", "throughput_ops_per_sec",
                "p99_ns", "metric_ops"}
    for r in adaptive:
        missing = required - r.keys()
        check(not missing, f"record missing {missing}: {r}")
        total = path_sum(r)
        check(r["metric_ops"] == total,
              f"conservation violated ({r['metric_ops']} != {total})")
    adaptive_objects = {r["object"] for r in adaptive}
    check(adaptive_objects == {
        "static(1xfig3)", "static(2xfig3)", "static(4xfig3)",
        "static(8xfig3)", "adaptive(<=8xfig3)"}, adaptive_objects)
    facade = [r for r in adaptive
              if r["object"] == "adaptive(<=8xfig3)"]
    for r in facade:
        check("active_shards_final" in r and "reconfig_epoch" in r,
              f"adaptive record lost its reconfiguration columns: {r}")
    check(any(r["reconfig_epoch"] > 0 for r in facade),
          "the control loop never moved the mask in any cell")
    return (f"adaptive sweep {len(adaptive)} records over "
            f"{len(adaptive_objects)} objects conserve; "
            f"six-access oracle held")


if Failures:
    print(f"\n{len(Failures)} failed check(s):")
    for msg in Failures:
        print(f"  - {msg}")
    sys.exit(1)
