#!/usr/bin/env python3
"""Self-tests of the benchmark itself, at small scale (about a minute).

Usage, from the repository root::

    python3 dglbench/selftest.py

For every workload:

* fixed work: two passes with one seed give identical counts and
  identical ``sim_*`` / ``commit_rate`` values; a different seed gives
  different inputs;
* output checks: the untouched outputs pass, and one corrupted result
  makes the check fail;
* traced run: a pass under the layer tracer yields the same counts.

It also checks that BENCHMARK.json names exactly the metrics run.py prints.
Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from layers import LayerTracer  # noqa: E402
from meter import HostMeter  # noqa: E402
from workloads import UNIVERSE, WORKLOADS, sim_metrics  # noqa: E402


def small(name: str, seed: int):
    """The named workload shrunk to a few seconds of set-up and work."""
    workload = WORKLOADS[name](seed, 0.4)
    workload.n_objects = 4_000
    workload.n_preload = 400
    return workload


def one_pass(workload, tracer=None):
    system, _windows = workload.setup(HostMeter(1))
    if tracer is None:
        return system, workload.run(system, HostMeter(workload.ops_per_window))
    if "sim" in system:
        tracer.wrap_parking(system["sim"])
    with tracer:
        return system, workload.run(system, HostMeter(workload.ops_per_window))


def fingerprint(outcome):
    return {**outcome.counts, **sim_metrics(outcome)}


def corrupt(name: str, system, outcome) -> None:
    """Damage exactly one result the check looks at."""
    if name == "scan_heavy":
        count, oid_sum = outcome.evidence[0]
        outcome.evidence[0] = (count, oid_sum + 1)
    elif name == "insert_growth":
        oid, rect = system["stream"][0]
        system["index"].tree.delete(oid, rect)
    else:
        victim = system["index"].tree.search(UNIVERSE)[0]
        system["index"].tree.delete(victim.oid, victim.rect)


def expect(ok: bool, message: str) -> None:
    if not ok:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok:   {message}")


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expect(
        [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
        and [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
        and [w["name"] for w in spec["workloads"]] == list(WORKLOADS),
        "BENCHMARK.json names the workloads and metrics run.py reports",
    )
    for name in WORKLOADS:
        system, first = one_pass(small(name, 1))
        _, again = one_pass(small(name, 1))
        _, other = one_pass(small(name, 2))
        a, b = fingerprint(first), fingerprint(again)
        diff = {k: (a.get(k), b.get(k)) for k in set(a) | set(b) if a.get(k) != b.get(k)}
        expect(not diff, f"{name}: seed 1 twice gives identical counts and sim metrics {diff or ''}")
        expect(
            first.counts["input_digest"] != other.counts["input_digest"],
            f"{name}: seed 2 generates different inputs",
        )
        checked = small(name, 1).check(system, first)
        expect(checked.failed == 0, f"{name}: untouched outputs pass the check {checked.problems[:3]}")
        corrupt(name, system, first)
        checked = small(name, 1).check(system, first)
        expect(checked.failed > 0, f"{name}: one corrupted result fails the check")
        _, traced = one_pass(small(name, 1), LayerTracer())
        expect(traced.counts == again.counts, f"{name}: traced pass counts equal untraced counts")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
