#!/usr/bin/env python3
"""Steadiness record: run each workload once per seed and print, for every
end-to-end metric, the inter-quartile range of its values as a share of
their median, next to the same spread of the raw (un-normalised) figure.

Usage, from the repository root::

    python3 dglbench/steadiness.py --seeds 1-10 [--workloads scan_heavy,mixed_sim] [--seconds 12]

Runs are made one after another, never in parallel.  A spread must stay
below the metric's ``bound`` in BENCHMARK.json (``setup_s`` excepted);
the benchmark aims for a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from meter import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: end-to-end metric -> its raw counterpart among the printed diagnostics
RAW = {"setup_s": "raw.setup_s", "ops_per_s": "raw.ops_per_s", "op_p50_ms": "raw.op_p50_ms", "op_p99_ms": "raw.op_p99_ms"}


def seeds_of(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines[1:-1]:
        parts = line.split()
        if len(parts) == 2 and parts[0] in RAW.values():
            values[parts[0]] = float(parts[1])
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="scan_heavy,insert_growth,mixed_sim")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=12.0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds) for seed in seeds_of(args.seeds)]
        print(f"\n{workload} ({len(runs)} seeds {args.seeds}, --seconds {args.seconds})")
        print("| metric | median | IQR/median | bound | raw IQR/median |")
        print("|---|---|---|---|---|")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            raw = f"{spread([r[RAW[name]] for r in runs]):.4f}" if name in RAW else ""
            flag = "" if name == "setup_s" or spread(values) < bound / 3 else " (over a third of bound)"
            print(f"| {name} | {statistics.median(values):.6g} | {spread(values):.4f}{flag} | {bound} | {raw} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
