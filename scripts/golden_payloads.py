#!/usr/bin/env python
"""Regenerate ``tests/golden_payloads.json``: one sha256 per scenario.

Every registered scenario runs once at a pinned seed and a short
window (the ``GOLDEN_OVERRIDES`` below on top of its registered
defaults).  The digest is sha256 over the payload's canonical JSON
(``sort_keys=True``, ``separators=(",", ":")``, ``allow_nan=False``).
``tests/test_golden_payloads.py`` re-runs each cell from the *resolved*
parameters stored in the file and asserts the digest is unchanged, so
a later change of a registered default cannot move a pinned cell.

Usage, from the repository root::

    PYTHONPATH=src python scripts/golden_payloads.py

Regenerating is legal only alongside a documented schema bump
(``CACHE_SCHEMA_VERSION`` / ``METRICS_SCHEMA_VERSION``, see
``repro/experiments/cache.py``).  The script enforces that: it exits 1
without writing when a scenario already in the file would get a new
digest while both schema versions are unchanged.  Newly registered
scenarios are simply added.
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

from repro.experiments.cache import CACHE_SCHEMA_VERSION
from repro.experiments.executor import run_cell
from repro.experiments.registry import get_scenario, list_scenarios
from repro.training.metrics import METRICS_SCHEMA_VERSION

DIGEST_FILE = (Path(__file__).resolve().parent.parent / "tests"
               / "golden_payloads.json")

SIX_H = 21600.0

#: Short windows everywhere; incident-bearing scenarios get a short
#: MTBF so that every digest pins recovery work and no two scenarios
#: collapse onto the same zero-incident payload.
GOLDEN_OVERRIDES = {
    "aggressive-checkpoint": dict(duration_s=SIX_H, mtbf_scale=0.003),
    "degraded-network": dict(duration_s=SIX_H, mtbf_scale=0.003),
    "dense": dict(duration_s=SIX_H, mtbf_scale=0.003),
    "dense-large": dict(duration_s=SIX_H, mtbf_scale=0.003),
    "dense-small": dict(duration_s=SIX_H, mtbf_scale=0.0005),
    # 1250 machines: each incident costs ~1.5 s of recovery work, so
    # this cell pins the big-fleet build and step loop only
    "dense-xl": dict(duration_s=1800.0),
    "moe": dict(duration_s=SIX_H, mtbf_scale=0.003),
    "staged": dict(duration_s=86400.0),
    "fleet-elastic-standby": dict(duration_s=SIX_H),
    "fleet-elastic-training": dict(duration_s=SIX_H),
    "fleet-placement-blast-radius": dict(duration_s=SIX_H),
    "fleet-preemption": dict(duration_s=SIX_H, fault_mtbf_s=3600.0),
    "fleet-priority-mix": dict(duration_s=SIX_H),
    "fleet-spot-churn": dict(duration_s=SIX_H, fault_mtbf_s=3600.0),
    "fleet-standby-contention": dict(duration_s=SIX_H),
    "fleet-week": dict(duration_s=SIX_H),
    # shrunk quarter: >= 256 machines so the vectorized hazard,
    # inspection-sweep and pack-placement paths all run, with a
    # machine MTBF short enough for hazard hits
    "fleet-quarter": dict(total_machines=256, duration_s=86400.0,
                          arrival_mean_s=1800.0,
                          machine_mtbf_s=400_000.0,
                          step_time_factor=4.0),
    "hang-breakdown": dict(duration_s=SIX_H),
    "hotupdate-policy": dict(duration_s=SIX_H),
    "resolution-cost": dict(duration_s=SIX_H),
    "incident-census": dict(samples=5000),
}


def payload_digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_golden_cell(name: str, params: dict) -> dict:
    _index, status, payload = run_cell((0, name, params))
    if status != "ok":
        raise RuntimeError(f"{name}: {payload}")
    return payload


def main() -> int:
    schema = {"cache": CACHE_SCHEMA_VERSION,
              "metrics": METRICS_SCHEMA_VERSION}
    scenarios = {}
    for name in list_scenarios():
        params = get_scenario(name).resolve(GOLDEN_OVERRIDES.get(name))
        digest = payload_digest(run_golden_cell(name, params))
        scenarios[name] = {"params": params, "digest": digest}
        print(f"{name:32s} {digest}")
    if DIGEST_FILE.exists():
        old = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
        moved = sorted(
            name for name, entry in old["scenarios"].items()
            if name in scenarios
            and scenarios[name]["digest"] != entry["digest"])
        if moved and old["schema"] == schema:
            print(f"refusing to rewrite {DIGEST_FILE.name}: digests moved "
                  f"for {', '.join(moved)} without a schema bump",
                  file=sys.stderr)
            return 1
    doc = {
        "note": "sha256 of canonical-JSON scenario payloads; regenerate "
                "with scripts/golden_payloads.py, only alongside a "
                "documented schema bump",
        "schema": schema,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scenarios": scenarios,
    }
    DIGEST_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"wrote {len(scenarios)} digests to {DIGEST_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
