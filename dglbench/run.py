#!/usr/bin/env python3
"""Run one benchmark workload and print every metric by name and unit.

Usage, from the repository root::

    python3 dglbench/run.py --workload scan_heavy --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
fixed work twice, untraced and then traced, and prints the per-layer
metrics.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

The exit status is 0 only when every output check passed.  ``--seconds``
sizes the fixed operation list (operations = seconds x the workload's
nominal rate); it is never used as a time budget.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from meter import HostMeter, percentile, spread

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: (name, unit) of the end-to-end metrics, in BENCHMARK.json order
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("sim_txn_per_ktu", "txn/ktu"),
    ("sim_txn_p50_tu", "tu"),
    ("sim_txn_p99_tu", "tu"),
    ("commit_rate", "ratio"),
    ("peak_rss_mb", "MB"),
]

#: (name, unit) of the per-layer metrics of the traced run
PER_LAYER: List[Tuple[str, str]] = [
    ("geometry.rects_built_per_op", "1/op"),
    ("geometry.region_ops_per_op", "1/op"),
    ("geometry.region_ms_per_op", "ms/op"),
    ("geometry_cache.hit_rate", "ratio"),
    ("geometry_cache.misses_per_op", "1/op"),
    ("granules.enumerations_per_op", "1/op"),
    ("granules.refs_per_op", "1/op"),
    ("granules.self_ms_per_op", "ms/op"),
    ("protocol.cover_probes_per_op", "1/op"),
    ("protocol.self_ms_per_op", "ms/op"),
    ("protocol.restarts_per_op", "1/op"),
    ("core.boundary_change_fraction", "ratio"),
    ("index.self_ms_per_op", "ms/op"),
    ("rtree.descents_per_op", "1/op"),
    ("rtree.node_reads_per_op", "1/op"),
    ("rtree.self_ms_per_op", "ms/op"),
    ("storage.logical_reads_per_op", "1/op"),
    ("storage.physical_reads_per_op", "1/op"),
    ("storage.buffer_hit_rate", "ratio"),
    ("storage.self_ms_per_op", "ms/op"),
    ("lock.requests_per_op", "1/op"),
    ("lock.self_ms_per_op", "ms/op"),
    ("lock.waits_per_txn", "1/txn"),
    ("lock.deadlocks_per_ktxn", "1/ktxn"),
    ("txn.commit_ms", "ms"),
    ("txn.self_ms_per_op", "ms/op"),
    ("txn.aborts_per_ktxn", "1/ktxn"),
    ("maintenance.deferred_per_ktxn", "1/ktxn"),
    ("maintenance.vacuum_ms_per_ktxn", "ms/ktxn"),
    ("concurrency.handoffs_per_txn", "1/txn"),
    ("concurrency.handoff_ms_per_txn", "ms/txn"),
    ("host.ref_ms", "ms"),
    ("host.ref_spread", "ratio"),
    ("trace.overhead", "ratio"),
    ("raw.setup_s", "s"),
    ("raw.ops_per_s", "1/s"),
    ("raw.op_p50_ms", "ms"),
]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_pass(workload, system):
    """One measured pass; returns (pass, meter, raw wall seconds)."""
    meter = HostMeter(workload.ops_per_window)
    gc.collect()
    start = time.perf_counter()
    outcome = workload.run(system, meter)
    return outcome, meter, time.perf_counter() - start


def wall_metrics(outcome, meter) -> Dict[str, float]:
    """Normalised and raw wall-clock figures of one pass."""
    nominal = meter.nominal_samples()
    raw = meter.raw_samples()
    return {
        "ops_per_s": outcome.committed_ops / meter.nominal_total(),
        "op_p50_ms": 1e3 * statistics.median(nominal),
        "op_p99_ms": 1e3 * percentile(nominal, 0.99),
        "raw.ops_per_s": outcome.committed_ops / meter.raw_total(),
        "raw.op_p50_ms": 1e3 * statistics.median(raw),
        "raw.op_p99_ms": 1e3 * percentile(raw, 0.99),
    }


def repeated_setup(workload):
    """Set up ``workload.setup_repeats`` times; keep the last system.  Returns
    (system, nominal seconds per repeat, raw seconds per repeat, meter)."""
    meter = HostMeter(1)
    reps = []
    system = None
    for _ in range(workload.setup_repeats):
        system = None
        gc.collect()
        system, windows = workload.setup(meter)
        reps.append(windows)
    nominal = [meter.nominal_window_total(w) for w in reps]
    raw = [sum(meter.windows[i] for i in w) for w in reps]
    return system, nominal, raw, meter


def end_to_end(workload) -> Tuple[Dict[str, float], Dict[str, float], object]:
    """The untraced run: (end-to-end metrics, diagnostics, check result)."""
    from workloads import sim_metrics

    system, setup_nominal, setup_raw, setup_meter = repeated_setup(workload)
    outcome, meter, _wall = timed_pass(workload, system)
    checked = workload.check(system, outcome)
    walls = wall_metrics(outcome, meter)
    metrics = {"setup_s": statistics.median(setup_nominal)}
    metrics.update({k: v for k, v in walls.items() if not k.startswith("raw.")})
    metrics.update(sim_metrics(outcome))
    metrics["peak_rss_mb"] = peak_rss_mb()
    kernels = setup_meter.kernels + meter.kernels
    diagnostics = {
        "raw.setup_s": statistics.median(setup_raw),
        **{k: v for k, v in walls.items() if k.startswith("raw.")},
        "host.ref_ms": 1e3 * statistics.median(kernels),
        "host.ref_spread": spread(kernels),
        "samples": len(meter.samples),
        "setup.spread": spread(setup_nominal),
        "raw.setup.spread": spread(setup_raw),
    }
    diagnostics.update({f"count.{k}": v for k, v in sorted(outcome.counts.items())})
    return metrics, diagnostics, checked


def per_layer(workload) -> Tuple[Dict[str, float], Dict[str, float], object]:
    """The traced run: an untraced pass and a traced pass of the same
    fixed work, each on a freshly set-up system.  Returns (per-layer
    metrics, diagnostics, check result)."""
    from layers import LayerTracer
    from workloads import Checked

    setup_meter = HostMeter(1)
    system, windows = workload.setup(setup_meter)
    raw_setup = sum(setup_meter.windows[i] for i in windows)
    plain, plain_meter, _ = timed_pass(workload, system)
    checks = [workload.check(system, plain)]
    system = None
    gc.collect()

    system, _windows = workload.setup(setup_meter)
    tracer = LayerTracer()
    if "sim" in system:
        tracer.wrap_parking(system["sim"])
    with tracer:
        traced, meter, traced_wall = timed_pass(workload, system)
    checks.append(workload.check(system, traced))

    problems = []
    for key in sorted(set(plain.counts) | set(traced.counts)):
        if plain.counts.get(key) != traced.counts.get(key):
            problems.append(f"traced count {key}={traced.counts.get(key)} != untraced {plain.counts.get(key)}")
    if tracer.running_self_s() > traced_wall:
        problems.append(f"layer self times {tracer.running_self_s():.3f}s exceed traced wall {traced_wall:.3f}s")
    checked = Checked(
        sum(c.attempted for c in checks),
        sum(c.failed for c in checks) + len(problems),
        [p for c in checks for p in c.problems] + problems,
    )

    c = plain.counts
    t = tracer.counts
    ops = c["ops"]
    txns = plain.attempts
    ratio = meter.median_ratio()

    def ms(seconds: float) -> float:
        return 1e3 * seconds * ratio

    def per_op(n: float) -> float:
        return n / ops

    def self_ms(layer: str) -> float:
        return per_op(ms(tracer.self_s.get(layer, 0.0)))

    lookups = c["geometry_cache.hits"] + c["geometry_cache.misses"]
    fetches = c["storage.buffer_hits"] + c["storage.buffer_misses"]
    region_ops = tracer.calls.get("region", 0) + sum(
        t.get(k, 0)
        for k in ("geometry.region_intersects", "geometry.region_intersects_open", "geometry.region_from_rect")
    )
    walls = wall_metrics(plain, plain_meter)
    metrics = {
        "geometry.rects_built_per_op": per_op(t["geometry.rects_built"]),
        "geometry.region_ops_per_op": per_op(region_ops),
        "geometry.region_ms_per_op": self_ms("region"),
        "geometry_cache.hit_rate": c["geometry_cache.hits"] / lookups if lookups else 0.0,
        "geometry_cache.misses_per_op": per_op(c["geometry_cache.misses"]),
        "granules.enumerations_per_op": per_op(t["granules.enumerations"]),
        "granules.refs_per_op": per_op(t["granules.refs"]),
        "granules.self_ms_per_op": self_ms("granules"),
        "protocol.cover_probes_per_op": per_op(t["protocol.cover_probes"]),
        "protocol.self_ms_per_op": self_ms("protocol"),
        "protocol.restarts_per_op": per_op(c["protocol.restarts"]),
        "core.boundary_change_fraction": (
            c["core.boundary_changes"] / c["core.inserts"] if c.get("core.inserts") else 0.0
        ),
        "index.self_ms_per_op": self_ms("index"),
        "rtree.descents_per_op": per_op(t["rtree.descents"]),
        "rtree.node_reads_per_op": per_op(t["rtree.node_reads"]),
        "rtree.self_ms_per_op": self_ms("rtree"),
        "storage.logical_reads_per_op": per_op(c["storage.logical_reads"]),
        "storage.physical_reads_per_op": per_op(c["storage.physical_reads"]),
        "storage.buffer_hit_rate": c["storage.buffer_hits"] / fetches if fetches else 0.0,
        "storage.self_ms_per_op": self_ms("storage"),
        "lock.requests_per_op": per_op(t["lock.requests"]),
        "lock.self_ms_per_op": self_ms("lock"),
        "lock.waits_per_txn": c["lock.waits"] / txns,
        "lock.deadlocks_per_ktxn": 1e3 * c["lock.deadlocks"] / txns,
        "txn.commit_ms": ms(tracer.inclusive_s["PhantomProtectedRTree.commit"]) / plain.committed_txns,
        "txn.self_ms_per_op": self_ms("txn"),
        "txn.aborts_per_ktxn": 1e3 * c["txn.aborted"] / txns,
        "maintenance.deferred_per_ktxn": 1e3 * c["maintenance.processed"] / txns,
        "maintenance.vacuum_ms_per_ktxn": 1e3 * ms(tracer.inclusive_s["DeferredDeleteQueue.run"]) / txns,
        "concurrency.handoffs_per_txn": c.get("concurrency.handoffs", 0) / txns,
        "concurrency.handoff_ms_per_txn": (
            1e3 * plain.handoff_s * plain_meter.median_ratio() / txns
        ),
        "host.ref_ms": 1e3 * statistics.median(setup_meter.kernels + plain_meter.kernels + meter.kernels),
        "host.ref_spread": spread(setup_meter.kernels + plain_meter.kernels + meter.kernels),
        "trace.overhead": meter.nominal_total() / plain_meter.nominal_total() - 1.0,
        "raw.setup_s": raw_setup,
        "raw.ops_per_s": walls["raw.ops_per_s"],
        "raw.op_p50_ms": walls["raw.op_p50_ms"],
    }
    diagnostics = {
        "traced.self_s_sum": tracer.running_self_s(),
        "traced.wall_s": traced_wall,
        "parked_s": tracer.self_s.get("parked", 0.0),
        **{f"traced.calls.{k}": v for k, v in sorted(tracer.calls.items())},
        **{f"traced.count.{k}": v for k, v in sorted(t.items())},
    }
    return metrics, diagnostics, checked


def result_line(metrics: Dict[str, float], units: List[Tuple[str, str]], checked) -> str:
    return json.dumps(
        {
            "correct": checked.failed == 0,
            "attempted": checked.attempted,
            "failed": checked.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["scan_heavy", "insert_growth", "mixed_sim"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0, help="sizes the fixed work")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are not in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import MIN_P99_SAMPLES, WORKLOADS

    # One CPU for every thread and the kernel: a hand-off between the
    # simulated workers is then a same-CPU switch, not a cross-CPU wake-up
    # whose cost on a virtual machine the kernel cannot see.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    if args.trace:
        metrics, diagnostics, checked = per_layer(workload)
        units = PER_LAYER
    else:
        metrics, diagnostics, checked = end_to_end(workload)
        units = END_TO_END
        if diagnostics["samples"] < MIN_P99_SAMPLES:
            print(
                f"warning: {diagnostics['samples']} latency samples; op_p99_ms has fewer "
                f"than 10 beyond it",
                file=sys.stderr,
            )
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, unit in units:
        print(f"  {name:34s} {metrics[name]:>14.6g} {unit}")
    for name, value in diagnostics.items():
        print(f"  {name:34s} {value:>14.6g}")
    for problem in checked.problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    print(result_line(metrics, units, checked))
    return 0 if checked.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
