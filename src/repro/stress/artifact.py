"""Replayable stress-failure artifacts.

A failing run is saved as one self-contained JSON document (schema
``dgl-stress/1``) holding the exact :class:`StressConfig` -- including the
explicit transaction scripts, so the replay does not depend on the script
generator staying bit-identical -- plus the violations and counters that
made it fail.  ``python -m repro.stress --replay FILE`` re-runs it.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Tuple

from repro.geometry import Rect
from repro.stress.faults import FaultPlan
from repro.stress.harness import StressConfig, StressResult, make_preload, make_scripts
from repro.workloads.operations import MixSpec, OpCall, TxnScript

SCHEMA = "dgl-stress/1"


# ---------------------------------------------------------------------------
# (de)serialisation
# ---------------------------------------------------------------------------

def _rect_to_json(rect: Optional[Rect]) -> Optional[List[List[float]]]:
    if rect is None:
        return None
    lows = [lo for lo, _hi in rect]
    highs = [hi for _lo, hi in rect]
    return [lows, highs]


def _rect_from_json(data: Optional[List[List[float]]]) -> Optional[Rect]:
    if data is None:
        return None
    return Rect(tuple(data[0]), tuple(data[1]))


def _op_to_json(op: OpCall) -> Dict[str, Any]:
    return {
        "kind": op.kind,
        "oid": op.oid,
        "rect": _rect_to_json(op.rect),
        "think": op.think,
    }


def _op_from_json(data: Dict[str, Any]) -> OpCall:
    return OpCall(
        kind=data["kind"],
        oid=data["oid"],
        rect=_rect_from_json(data["rect"]),
        think=data.get("think", 0.0),
    )


def scripts_to_json(scripts: List[List[TxnScript]]) -> List[List[Dict[str, Any]]]:
    return [
        [{"name": s.name, "ops": [_op_to_json(op) for op in s.ops]} for s in worker]
        for worker in scripts
    ]


def scripts_from_json(data: List[List[Dict[str, Any]]]) -> List[List[TxnScript]]:
    return [
        [TxnScript(name=s["name"], ops=[_op_from_json(o) for o in s["ops"]]) for s in worker]
        for worker in data
    ]


def config_to_json(config: StressConfig) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "seed": config.seed,
        "policy": config.policy,
        "n_workers": config.n_workers,
        "txns_per_worker": config.txns_per_worker,
        "ops_per_txn": config.ops_per_txn,
        "n_preload": config.n_preload,
        "fanout": config.fanout,
        "max_retries": config.max_retries,
        "jitter": config.jitter,
        "strict_waits": config.strict_waits,
        "mix": asdict(config.mix),
        "faults": asdict(config.faults),
        "scripts": None if config.scripts is None else scripts_to_json(config.scripts),
    }
    return out


def config_from_json(data: Dict[str, Any]) -> StressConfig:
    scripts = data.get("scripts")
    return StressConfig(
        seed=data["seed"],
        policy=data.get("policy", "on-growth"),
        n_workers=data["n_workers"],
        txns_per_worker=data["txns_per_worker"],
        ops_per_txn=data["ops_per_txn"],
        n_preload=data["n_preload"],
        fanout=data["fanout"],
        max_retries=data.get("max_retries", 4),
        jitter=data.get("jitter", 0.05),
        strict_waits=data.get("strict_waits", True),
        mix=MixSpec(**data["mix"]),
        faults=FaultPlan(**data["faults"]),
        scripts=None if scripts is None else scripts_from_json(scripts),
    )


# ---------------------------------------------------------------------------
# save / load
# ---------------------------------------------------------------------------

def result_to_json(result: StressResult) -> Dict[str, Any]:
    return {
        "violations": [{"kind": v.kind, "detail": v.detail} for v in result.violations],
        "committed": result.committed,
        "aborted": result.aborted,
        "deadlocks": result.deadlocks,
        "lock_waits": result.lock_waits,
        "injected_aborts": result.injected_aborts,
        "cancellations": result.cancellations,
        "delayed_posts": result.delayed_posts,
        "vacuum_passes": result.vacuum_passes,
        "yields": result.yields,
        "operations": result.operations,
        "inserts": result.inserts,
        "boundary_changes": result.boundary_changes,
        "sim_time": result.sim_time,
        "steps": result.steps,
        "wait_events": result.wait_events,
        "schedule_len": result.schedule_len,
        "schedule_tail": [[t, name] for t, name in result.schedule_tail],
        "stats_snapshot": result.stats_snapshot,
    }


def explicit_config(config: StressConfig) -> StressConfig:
    """The same run with its scripts materialised (replay-stable)."""
    if config.scripts is not None:
        return config
    from dataclasses import replace

    return replace(config, scripts=make_scripts(config, make_preload(config)))


def save_artifact(
    path: str,
    result: StressResult,
    minimized: Optional[StressResult] = None,
    trace: Optional[str] = None,
) -> str:
    """Write one repro artifact; returns the path written.

    ``minimized`` is the failing run of the shrunk config, when there is
    one.  ``replay_fingerprint`` records the schedule of the run a replay
    re-executes (the minimized one if present), so a replay can tell
    "clean on the same schedule" from "clean because it diverged".

    ``trace`` is the path of a ``dgl-trace/1`` sidecar recorded for this
    run (the traced deterministic replay of a failure); it is referenced
    from the artifact so the two files travel together.
    """
    doc = {
        "schema": SCHEMA,
        "config": config_to_json(explicit_config(result.config)),
        "minimized": None if minimized is None else config_to_json(explicit_config(minimized.config)),
        "result": result_to_json(result),
        "replay_fingerprint": (minimized or result).schedule_fingerprint,
        "trace": trace,
    }
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, default=str)
        fh.write("\n")
    return path


def load_artifact(path: str) -> Tuple[StressConfig, Dict[str, Any]]:
    """Load an artifact; returns (config-to-replay, full document).

    Prefers the minimized config when the artifact has one.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"unsupported artifact schema {doc.get('schema')!r}")
    data = doc.get("minimized") or doc["config"]
    return config_from_json(data), doc
