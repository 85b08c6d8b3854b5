"""One benchmark repetition, in a fresh interpreter.

``python3 -m perfbench.rep '<json>'`` (run from the repository root)
with ``{"workload", "seed", "cell", "trace", "scratch"}``.  It prints
one JSON line: the repetition's end-to-end metrics, its payload digest,
the correctness checks that failed, and with ``trace`` the raw
per-layer trace.  Exit code 3 means a traced boundary is missing.

Timestamps are ``time.perf_counter()`` from just before the first
import of the program, so ``setup_s`` includes the imports.  Warm
cache traffic is timed best-of (the fastest of several identical
repeats, as ``timeit`` does): a warm round trip takes milliseconds, and
on a shared host its median swings with neighbours' cache and memory
traffic far more than its minimum does.

A **fleet** repetition builds and runs one fleet cell:

* ``setup_s``: import, registry lookup, scenario build (fleet
  construction);
* ``run_s``: ``scenario.run()``;
* ``wall_s``: the whole repetition, including report assembly, payload
  encoding, the checks, the cache round trip below and freeing the
  simulation;
* ``cold_cells_per_s`` / ``warm_cells_per_s``: the cell then takes the
  cache round trip a sweep gives it (expand, probe miss, put, fold;
  then probe hit, fold).  Cold is one cell over build + run + report +
  that round trip; warm is one cell over the fastest of
  ``FLEET_WARM_PROBES`` warm round trips, timed after the simulation is
  freed;
* ``sim_ettr`` / ``sim_goodput``: ``fleet_ettr`` and ``goodput`` from
  the payload.

A **sweep** repetition runs a grid of analytic cells through the
process pool into a fresh result cache, one cold pass and then
``SWEEP_WARM_PASSES`` warm passes.  The cache directory is created
fresh inside the checkout (``.perfbench/``, the only place the
benchmark writes) and removed afterwards, so the cold pass includes
the filesystem's cost of one write and rename per cell:

* ``setup_s``: import, registry lookup, spec validation, cache open;
* ``run_s``: the cold pass plus the fastest warm pass;
* ``cold_cells_per_s`` / ``warm_cells_per_s``: cells per second of the
  cold pass and of the fastest warm pass, expansion to fold;
* ``sim_ettr`` / ``sim_goodput``: the folded mean ``goodput_frac``.
  In the cells' closed-form checkpoint model the effective training
  time ratio and the goodput are the same quantity (one minus
  checkpoint and recompute waste), so both report it.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional

from perfbench.tracer import TraceError, Tracer, raw_record
from perfbench.workloads import (
    FLEET_WARM_PROBES,
    SWEEP_WARM_PASSES,
    SWEEP_WORKERS,
    WORKLOADS,
    Workload,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

clock = time.perf_counter


def canonical(payload: Any) -> bytes:
    """The canonical JSON encoding the payload digest is taken over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False).encode("utf-8")


def peak_rss_mib() -> float:
    # ru_maxrss is KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sweep_workers() -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(SWEEP_WORKERS, cpus))


class Repetition:
    """State of one repetition: optional tracer, failed checks."""

    def __init__(self, tracer: Optional[Tracer]):
        self.tracer = tracer
        self.failures: List[str] = []
        self.warnings: List[str] = []

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def run_fleet(rep: Repetition, workload: Workload, seed: int, cell: int,
              spec: Any, scratch: Path, t0: float, t_lookup: float
              ) -> Dict[str, Any]:
    import repro.experiments.sweep as sweep_mod
    from repro.experiments.cache import ResultCache
    from repro.experiments.summary import StreamingSummary

    params = spec.resolve(dict(
        workload.params, seed=sweep_mod.derive_cell_seed(seed, cell)))
    with rep.span("experiments.registry.build"):
        scenario = spec.build(**params)
    t_setup = clock()
    with rep.span("workloads.fleet.run"):
        report = scenario.run()
    t_run = clock()
    payload = report.to_dict()
    t_report = clock()

    blob = canonical(payload)
    digest = hashlib.sha256(blob).hexdigest()
    ettr = payload["fleet_ettr"]
    goodput = payload["goodput"]
    util = payload["machine_utilization"]
    rep.check(0.0 < goodput <= util,
              f"goodput {goodput} <= machine_utilization {util}")
    if util > 1.0:
        # a known defect of the fleet model, reported but not failed:
        # busy machine-seconds exceed the fleet's, most likely because a
        # job waiting for replacements still counts its full size as
        # busy while a queued job runs on the repaired machines
        rep.warnings.append(f"machine_utilization {util} > 1")
    rep.check(0.0 < ettr <= 1.0, f"fleet_ettr {ettr} in (0, 1]")
    rep.check(payload["jobs_submitted"] > 0, "no job submitted")

    # the cache round trip a sweep gives this cell
    cache = ResultCache(scratch)
    cell_spec = sweep_mod.SweepSpec(workload.scenario, params=params)
    folded = StreamingSummary(keep_rows=False)
    c0 = clock()
    (swept,) = list(sweep_mod.expand_cells([cell_spec]))
    probe = cache.get_many([(swept.key, swept.scenario)])
    cache.put_many([(swept.key, payload, swept.scenario)])
    folded.add(sweep_mod.CellResult(cell=swept, report=payload,
                                    cached=False))
    cold_trip = clock() - c0
    # a warm sweep does not hold the simulation in memory: free it (its
    # teardown counts in wall_s) before timing the warm round trips
    with rep.span("workloads.fleet.teardown"):
        del scenario, report
        gc.collect()
    warm_trips: List[float] = []
    hits: List[Any] = []
    for _ in range(FLEET_WARM_PROBES):
        w0 = clock()
        (swept,) = list(sweep_mod.expand_cells([cell_spec]))
        (hit,) = cache.get_many([(swept.key, swept.scenario)])
        folded.add(sweep_mod.CellResult(cell=swept, report=hit,
                                        cached=True))
        warm_trips.append(clock() - w0)
        hits.append(hit)
    t_end = clock()

    rep.check(probe == [None], "cold probe hit an empty cache")
    rep.check(bool(hits) and all(h == payload for h in hits)
              and canonical(hits[0]) == blob,
              "cache returned a different payload")
    rep.check(cache.stats() == {"hits": FLEET_WARM_PROBES, "misses": 1,
                                "writes": 1, "corrupt": 0},
              f"cache traffic {cache.stats()}")
    rep.check(folded.cells == FLEET_WARM_PROBES + 1
              and folded.cached == FLEET_WARM_PROBES,
              f"folded {folded.cells} cells, {folded.cached} cached")

    cold_cell_s = (t_setup - t_lookup) + (t_report - t_setup) + cold_trip
    return {
        "digest": digest,
        "scenario_seed": params["seed"],
        "attempted": 1,
        "metrics": {
            "setup_s": t_setup - t0,
            "run_s": t_run - t_setup,
            "wall_s": t_end - t0,
            "peak_rss_mib": peak_rss_mib(),
            "cold_cells_per_s": 1.0 / cold_cell_s,
            "warm_cells_per_s": 1.0 / min(warm_trips),
            "sim_ettr": ettr,
            "sim_goodput": goodput,
        },
    }


def run_sweep(rep: Repetition, workload: Workload, seed: int,
              scratch: Path, t0: float) -> Dict[str, Any]:
    from repro.experiments import ResultCache, SweepRunner, SweepSpec
    from repro.experiments.sweep import count_cells

    n = workload.grid_cells
    offset = seed * n
    spec = SweepSpec(workload.scenario, params=dict(workload.params),
                     grid={"shard": range(offset, offset + n)})
    total = count_cells([spec])
    scratch.mkdir(parents=True)
    cache = ResultCache(scratch)
    t_setup = clock()

    runner = SweepRunner(workers=sweep_workers(), cache=cache)
    cold = runner.fold(spec, keep_rows=False)
    t_cold = clock()
    cold_stats = cache.stats()
    warm_times: List[float] = []
    warm_digests: List[bytes] = []
    for _ in range(SWEEP_WARM_PASSES):
        w0 = clock()
        warm = runner.fold(spec, keep_rows=False)
        warm_times.append(clock() - w0)
        rep.check(warm.cells == n and warm.cached == n
                  and warm.simulated == 0,
                  f"warm pass folded {warm.cells} cells, "
                  f"{warm.cached} cached")
        warm_digests.append(canonical(warm.digest()))
    t_end = clock()

    rep.check(total == n, f"expanded {total} cells, expected {n}")
    rep.check(cold.cells == n and cold.simulated == n and cold.cached == 0,
              f"cold pass folded {cold.cells} cells, {cold.cached} cached")
    rep.check(cold_stats == {"hits": 0, "misses": n, "writes": n,
                             "corrupt": 0},
              f"cold pass cache traffic {cold_stats}")
    passes = SWEEP_WARM_PASSES
    rep.check(cache.stats() == {"hits": n * passes, "misses": n,
                                "writes": n, "corrupt": 0},
              f"warm pass cache traffic {cache.stats()}")
    rep.check(len(set(warm_digests)) == 1,
              "warm passes folded different results")
    # the cold fold runs in completion order, so its float means may
    # differ from the warm (cell-order) fold in the last bits only
    cold_mean = cold.digest()["metrics"]["goodput_frac"]["mean"]
    goodput = warm.digest()["metrics"]["goodput_frac"]["mean"]
    rep.check(abs(cold_mean - goodput) <= 1e-9 * abs(goodput),
              f"cold fold mean {cold_mean} != warm fold mean {goodput}")
    rep.check(0.0 < goodput <= 1.0, f"goodput_frac mean {goodput}")

    cold_s = t_cold - t_setup
    warm_s = min(warm_times)
    return {
        "digest": hashlib.sha256(warm_digests[-1]).hexdigest(),
        "attempted": n * (1 + passes),
        "metrics": {
            "setup_s": t_setup - t0,
            "run_s": cold_s + warm_s,
            "wall_s": t_end - t0,
            "peak_rss_mib": peak_rss_mib(),
            "cold_cells_per_s": n / cold_s,
            "warm_cells_per_s": n / warm_s,
            "sim_ettr": goodput,
            "sim_goodput": goodput,
        },
    }


def run(args: Dict[str, Any]) -> Dict[str, Any]:
    workload = WORKLOADS[args["workload"]]
    if args.get("overrides"):
        # smaller sizes for the benchmark's own tests
        workload = dataclasses.replace(workload, **args["overrides"])
    seed = int(args["seed"])
    scratch = Path(args["scratch"])
    rep = Repetition(Tracer() if args["trace"] else None)
    sys.path.insert(0, str(SRC))

    t0 = clock()
    with rep.span("experiments.registry.lookup"):
        import repro
        from repro.experiments.registry import get_scenario

        spec = get_scenario(workload.scenario)
    t_lookup = clock()
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise RuntimeError(f"imported {repro.__file__}, not {SRC}/repro")
    if rep.tracer is not None:
        with rep.span("trace.install"):
            rep.tracer.install()
    try:
        if workload.kind == "fleet":
            result = run_fleet(rep, workload, seed, int(args["cell"]),
                               spec, scratch, t0, t_lookup)
        else:
            result = run_sweep(rep, workload, seed, scratch, t0)
        wall_s = clock() - t0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if rep.tracer is not None:
            rep.tracer.uninstall()
    result["failures"] = rep.failures
    result["warnings"] = rep.warnings
    if rep.tracer is not None:
        result["trace"] = raw_record(rep.tracer, wall_s)
    return result


def main(argv: List[str]) -> int:
    try:
        result = run(json.loads(argv[1]))
    except TraceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
