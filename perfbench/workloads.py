"""The benchmark's workloads and end-to-end metrics.

Each workload is a registered scenario plus the parameters the
benchmark overrides; the workload seed given on the command line is
turned into scenario parameters here and in :mod:`perfbench.rep`, so
the program only ever receives resolved scenario parameters.

Fleet workloads are an ensemble of ``cells`` independent fleets whose
scenario seeds derive from the workload seed the way the sweep fabric
derives per-cell seeds (``derive_cell_seed(seed, cell)``).  One fleet's
host time and modelled ETTR swing by a quarter or more between
scenario seeds (a few long incidents, a few 1024-machine jobs), so a
single fleet per run would measure the seed rather than the program;
the median over the ensemble does not.  Both fleets also start full
(``initial_jobs``) instead of ramping up from three jobs: from an empty
fleet the modelled goodput of the 100k-GPU quarter ranges 0.08-0.19
across seeds after two days, from a full one it stays at 0.95-0.98.

The sweep workload's seed picks its shard range ``[seed * grid_cells,
(seed + 1) * grid_cells)``: each seed writes its own cache keys, and as
a cell's cost depends only on ``shard % 64``, each does the same work.

The ``dense`` and ``degraded-network`` scenarios are not used: at their
defaults they produce byte-identical payloads with zero incidents
(128 GPUs for 24 h, ``final_step`` 7424), so they would measure one run
twice and exercise no recovery path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple


@dataclass(frozen=True)
class Workload:
    """One named workload: what runs, why, and which layers it loads."""

    name: str
    kind: str                   # "fleet" | "sweep"
    scenario: str
    #: scenario parameters the benchmark overrides (seed excluded)
    params: Dict[str, Any]
    why: str
    #: fleets: independent scenario seeds per run; sweeps: unused
    cells: int = 1
    #: sweeps: grid cells per pass (a multiple of 64, so every seed's
    #: shard range holds the same per-cell costs)
    grid_cells: int = 0
    #: per-layer metric prefixes this workload loads heavily / lightly
    heavy: Tuple[str, ...] = field(default_factory=tuple)
    light: Tuple[str, ...] = field(default_factory=tuple)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="fleet-scale",
        kind="fleet",
        scenario="fleet-quarter",
        params={"duration_s": 21_600.0, "initial_jobs": 300},
        cells=8,
        why=("the paper's scale: a full 12.5k-machine / 100k-GPU fleet, "
             "where fleet construction and the vectorized health and "
             "inspection substrate dominate"),
        heavy=("cluster.topology", "monitor.inspections",
               "cluster.scheduler", "cluster.placement",
               "controller.stack.build", "cluster.faults",
               "controller.standby", "core.platform.report"),
        light=("checkpoint.manager", "diagnosis.diagnoser",
               "training", "experiments")),
    Workload(
        name="fleet-churn",
        kind="fleet",
        scenario="fleet-preemption",
        params={"initial_jobs": 24, "arrival_mean_s": 1800.0},
        cells=10,
        why=("a full 16-machine fleet with preemption, 4 h fault MTBF "
             "and checkpointing: the step loop, scheduler, lifecycle "
             "and recovery are busy; the health substrate runs scalar"),
        heavy=("sim.engine", "training", "monitor.collectors",
               "monitor.detectors", "checkpoint.manager",
               "cluster.scheduler", "controller.stack",
               "controller.controller", "diagnosis.diagnoser"),
        light=("cluster.topology", "cluster.placement",
               "cluster.faults.hazard", "controller.standby",
               "experiments")),
    Workload(
        name="sweep-cache",
        kind="sweep",
        scenario="sweep-stress",
        params={},
        grid_cells=6_400,
        why=("a grid of microsecond analytic cells through the process "
             "pool into a fresh result cache, cold pass then warm pass: "
             "the sweep fabric does all the work"),
        heavy=("experiments",),
        light=("cluster", "core", "controller", "sim", "training",
               "monitor", "checkpoint", "diagnosis")),
)}

#: warm cache probes per fleet cell (each a fresh decode of the cell's
#: payload; the fastest is reported)
FLEET_WARM_PROBES = 50
#: warm passes per sweep repetition (the fastest is reported)
SWEEP_WARM_PASSES = 5
#: sweep worker processes, capped at the CPUs this process may use
SWEEP_WORKERS = 2

#: (name, unit, better, bound) of every end-to-end metric; every
#: workload reports all of them (see ``perfbench/rep.py`` for how each
#: is measured on a fleet and on a sweep)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.2),
    ("cold_cells_per_s", "cells/s", "higher", 0.25),
    ("warm_cells_per_s", "cells/s", "higher", 0.25),
    ("sim_ettr", "ratio", "higher", 0.25),
    ("sim_goodput", "ratio", "higher", 0.1),
)
