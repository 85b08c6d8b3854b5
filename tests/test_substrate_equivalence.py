"""Scalar vs vectorized fault/health substrate equivalence.

The struct-of-arrays substrate (the
:class:`~repro.cluster.components.FleetState` columns behind the
:mod:`repro.cluster.health_index` mode switch,
:class:`~repro.cluster.faults.MachineHazardProcess`) claims to be
*byte-identical* to the scalar reference path — same hazard hit
schedules, same inspection emissions, same end-to-end scenario
payloads — differing only in wall-clock.  These tests pin that claim:

* property tests drive both modes over random fleet shapes, seeds and
  write sequences and assert identical results;
* scripted sweep runs assert identical emission streams (content,
  order, dedup, switch strikes);
* whole registered scenarios (``fleet-week``, a shrunken
  ``fleet-quarter``) produce identical report payloads under
  :func:`force_substrate` either way.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec
from repro.cluster.components import (
    _GPU_FIELDS,
    _HOST_FIELDS,
    _NIC_FIELDS,
    ComponentHealth,
    Machine,
    MachineSpec,
)
from repro.cluster.faults import MachineHazardProcess
from repro.cluster.health_index import (
    VECTORIZE_MIN_MACHINES,
    force_substrate,
    substrate_mode,
    use_vectorized,
)
from repro.experiments.registry import get_scenario
from repro.monitor.inspections import InspectionEngine
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# mode switch
# ---------------------------------------------------------------------------

def test_substrate_mode_switch():
    assert substrate_mode() == "auto"
    assert not use_vectorized(VECTORIZE_MIN_MACHINES - 1)
    assert use_vectorized(VECTORIZE_MIN_MACHINES)
    with force_substrate("scalar"):
        assert substrate_mode() == "scalar"
        assert not use_vectorized(10_000)
    with force_substrate("vectorized"):
        assert use_vectorized(1)
    assert substrate_mode() == "auto"
    with pytest.raises(ValueError):
        with force_substrate("simd"):
            pass  # pragma: no cover


def test_component_health_named_fields():
    machine = Machine(0, MachineSpec())
    health = machine.component_health()
    assert health.host_ok and health.gpus_ok and health.nics_ok
    # NamedTuple stays tuple-compatible for existing unpacking callers
    assert tuple(health) == (True, True, True)
    machine.gpus[0].temperature_c = 95.0
    assert not machine.component_health().gpus_ok
    machine.host.kernel_panic = True
    after = machine.component_health()
    assert not after.host_ok and after.nics_ok


# ---------------------------------------------------------------------------
# hazard hit schedules
# ---------------------------------------------------------------------------

def _hazard_schedule(mode: str, machines: int, seed: int,
                     ticks: int) -> list:
    """(tick, machine_id) hit schedule after ``ticks`` rounds."""
    with force_substrate(mode):
        hits = []
        tick_no = [0]
        proc = MachineHazardProcess(
            Simulator(), np.random.default_rng(seed),
            list(range(machines)), mtbf_s=5000.0, tick_s=300.0,
            on_hit=lambda mid: hits.append((tick_no[0], mid)))
        for t in range(ticks):
            tick_no[0] = t
            proc._tick()
        assert proc.hits == len(hits)
        return hits


@given(machines=st.integers(1, 200), seed=st.integers(0, 2**31 - 1),
       ticks=st.integers(1, 25))
@settings(max_examples=40, deadline=None)
def test_hazard_hit_schedule_mode_invariant(machines, seed, ticks):
    """One batched Generator draw ≡ the per-machine scalar loop."""
    scalar = _hazard_schedule("scalar", machines, seed, ticks)
    vectorized = _hazard_schedule("vectorized", machines, seed, ticks)
    assert scalar == vectorized


def test_hazard_rejects_bad_rates():
    sim = Simulator()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        MachineHazardProcess(sim, rng, [0], mtbf_s=0.0, tick_s=1.0,
                             on_hit=lambda mid: None)
    with pytest.raises(ValueError):
        MachineHazardProcess(sim, rng, [0], mtbf_s=1.0, tick_s=-1.0,
                             on_hit=lambda mid: None)


# ---------------------------------------------------------------------------
# fleet state: writes through views vs the component predicates
# ---------------------------------------------------------------------------

_WRITE_OPS = ("gpu_temp", "gpu_lost", "nic_down", "nic_flap",
              "host_panic", "host_load", "disk_fault", "heal")


def _apply_op(cluster: Cluster, midx: int, op: str) -> None:
    machine = cluster.machines[midx % len(cluster.machines)]
    if op == "gpu_temp":
        machine.gpus[0].temperature_c = 95.0
    elif op == "gpu_lost":
        machine.gpus[-1].available = False
    elif op == "nic_down":
        machine.nics[0].up = False
    elif op == "nic_flap":
        machine.nics[0].flapping = True
    elif op == "host_panic":
        machine.host.kernel_panic = True
    elif op == "host_load":
        machine.host.cpu_load_frac = 0.99
    elif op == "disk_fault":
        machine.host.disk_faulty = True
    elif op == "heal":
        machine.reset_health()


_GPU_VALUES = {
    "dcgm_healthy": [True, False], "available": [True, False],
    "pcie_bandwidth_frac": [1.0, 0.8, 0.79, 0.4],
    "pending_row_remaps": [0, 7, 8, 20], "temperature_c": [55.0, 87.9, 88.0],
    "driver_hung": [False, True], "hbm_faulty": [False, True],
    "sdc_defective": [False, True], "sdc_reproduce_prob": [1.0, 0.3],
    "throttled": [False, True],
}
_NIC_VALUES = {"up": [True, False], "flapping": [False, True],
               "packet_loss_rate": [0.0, 0.0099, 0.01, 0.05]}
_HOST_VALUES = {
    "kernel_panic": [False, True], "cpu_load_frac": [0.3, 0.95, 0.99],
    "mem_used_frac": [0.4, 0.98], "disk_free_gb": [500.0, 5.0, 5.1],
    "disk_faulty": [False, True], "fs_mounted": [True, False],
    "container_healthy": [True, False],
}


def _field_write(kind, values):
    return st.tuples(st.just(kind), st.integers(0, 10**6),
                     st.integers(0, 10**6), st.sampled_from(sorted(values))
                     ).flatmap(lambda t: st.tuples(
                         st.just(t), st.sampled_from(values[t[3]])))


_FLEET_OPS = st.one_of(
    _field_write("gpu", _GPU_VALUES),
    _field_write("nic", _NIC_VALUES),
    _field_write("host", _HOST_VALUES),
    st.tuples(st.just(("reset", 0, 0, "")), st.integers(0, 10**6)),
    st.tuples(st.tuples(st.just("switch"), st.integers(0, 10**6),
                        st.just(0), st.just("")), st.booleans()),
    st.tuples(st.just(("xid", 0, 0, "")), st.integers(0, 200)),
)


def _apply_fleet_op(machine, switches, switch_state, op) -> None:
    (kind, a, b, name), value = op
    if kind == "gpu":
        setattr(machine.gpus[b % len(machine.gpus)], name, value)
    elif kind == "nic":
        setattr(machine.nics[b % len(machine.nics)], name, value)
    elif kind == "host":
        setattr(machine.host, name, value)
    elif kind == "reset":
        machine.reset_health()
    elif kind == "xid":
        machine.gpus[0].xid_events.append(value)
        machine.host.dmesg_xids.append(value)
    elif switches:
        sw = switches[a % len(switches)]
        sw.up = value
        switch_state[sw.id] = value


def _expected_ok(machine) -> ComponentHealth:
    return ComponentHealth(
        host_ok=machine.host.healthy(),
        gpus_ok=all(g.healthy() for g in machine.gpus),
        nics_ok=all(n.healthy() for n in machine.nics))


def _assert_python_scalars(machine) -> None:
    views = [(machine.host, _HOST_FIELDS)]
    views += [(g, _GPU_FIELDS) for g in machine.gpus]
    views += [(n, _NIC_FIELDS) for n in machine.nics]
    for view, fields in views:
        for name, dtype, _nominal in fields:
            assert type(getattr(view, name)) is dtype, name
    health = machine.component_health()
    assert all(type(flag) is bool for flag in health)
    assert type(machine.healthy()) is bool
    assert type(machine.has_sdc_defect()) is bool


@given(
    machines=st.integers(4, 80),
    per_switch=st.sampled_from([2, 4, 8]),
    batches=st.lists(st.lists(st.tuples(st.integers(0, 10**6), _FLEET_OPS),
                              max_size=15), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_fleet_state_rollups_match_component_predicates(machines, per_switch,
                                                        batches, seed):
    """Random writes through the views keep every rollup equal to
    ``all(c.healthy() for c in ...)`` and ``switch_up`` equal to the
    last write, for full, shuffled and subset id queries on both sweep
    paths — and every view getter returns a Python scalar."""
    cluster = Cluster(ClusterSpec(num_machines=machines,
                                  machines_per_switch=per_switch))
    fleet = cluster.fleet
    engine = InspectionEngine(Simulator(), cluster, lambda: [])
    standalone = Machine(3, MachineSpec(gpus_per_machine=2,
                                        nics_per_machine=3))
    switch_state = {sw.id: True for sw in cluster.switches}
    rng = np.random.default_rng(seed)
    for batch in batches:
        for midx, op in batch:
            _apply_fleet_op(cluster.machines[midx % machines],
                            cluster.switches, switch_state, op)
            _apply_fleet_op(standalone, [], {}, op)
        for machine in cluster.machines:
            assert machine.component_health() == _expected_ok(machine)
        assert standalone.component_health() == _expected_ok(standalone)
        assert fleet.switch_up.tolist() == [switch_state[sid] for sid in
                                            range(len(cluster.switches))]
        full = list(range(machines))
        shuffled = rng.permutation(machines).tolist()
        subset = sorted(rng.choice(machines, size=max(1, machines // 2),
                                   replace=False).tolist())
        for ids in (full, shuffled, subset):
            for subsystem in ComponentHealth._fields:
                expected = [mid for mid in ids if not getattr(
                    _expected_ok(cluster.machines[mid]), subsystem)]
                assert fleet.unhealthy(ids, subsystem) == expected
                for mode in ("scalar", "vectorized"):
                    with force_substrate(mode):
                        assert engine._unhealthy_among(
                            ids, subsystem) == expected
            seen = {}
            for mid in ids:
                sw_id = cluster.machines[mid].switch_id
                seen.setdefault(sw_id, switch_state[sw_id])
            assert fleet.switches_first_seen(ids) == list(seen.items())
            for mode in ("scalar", "vectorized"):
                with force_substrate(mode):
                    assert engine._switches_first_seen(ids) \
                        == list(seen.items())
    for machine in (cluster.machines[0], cluster.machines[-1], standalone):
        _assert_python_scalars(machine)
    assert all(type(sw.up) is bool for sw in cluster.switches)


def _write_cases() -> list:
    """Every single field write and every pair of them, per component
    kind — the boundary values in the tables above hit every
    threshold, and the pairs pin which inspection item wins."""
    cases = []
    for kind, values in (("gpu", _GPU_VALUES), ("nic", _NIC_VALUES),
                         ("host", _HOST_VALUES)):
        singles = [(kind, name, value) for name in sorted(values)
                   for value in values[name]]
        cases += [(write,) for write in singles]
        cases += list(itertools.combinations(singles, 2))
    return cases


def test_sweep_rules_match_seed_chains():
    """The column rule tables emit exactly what the seed sweeps' per-
    component ``elif`` chains emit, in the same order, on both paths."""
    from repro.perf.baseline import (
        _seed_sweep_gpu,
        _seed_sweep_host,
        _seed_sweep_network,
    )

    cases = _write_cases()
    cluster = Cluster(ClusterSpec(num_machines=len(cases),
                                  machines_per_switch=16))
    for machine, writes in zip(cluster.machines, cases):
        for kind, name, value in writes:
            part = {"gpu": machine.gpus[machine.id % 8],
                    "nic": machine.nics[machine.id % 8],
                    "host": machine.host}[kind]
            setattr(part, name, value)
    cluster.switches[1].up = False
    ids = list(range(len(cases)))[::-1]

    def events(sweeps) -> list:
        engine = InspectionEngine(Simulator(), cluster, lambda: ids)
        for _ in range(2):           # two passes: switch strikes alert
            for sweep in sweeps:
                sweep(engine)
        return [(e.item, e.confidence, e.machine_ids, e.switch_id)
                for e in engine.events]

    seed = events((_seed_sweep_network, _seed_sweep_gpu, _seed_sweep_host))
    assert len({item for item, *_ in seed}) == 16   # every item fires
    for mode in ("scalar", "vectorized"):
        with force_substrate(mode):
            assert events((InspectionEngine._sweep_network,
                           InspectionEngine._sweep_gpu,
                           InspectionEngine._sweep_host)) == seed


def test_reset_health_resets_row_in_place():
    cluster = Cluster(ClusterSpec(num_machines=4, machines_per_switch=2))
    machine = cluster.machines[2]
    gpu = machine.gpus[1]
    gpu.available = False
    gpu.xid_events.append(79)
    machine.host.dmesg_xids.append(119)
    machine.nics[0].up = False
    version = cluster.fleet.version
    machine.reset_health()
    # views taken before the reset read the restored row
    assert gpu.available and gpu.xid_events == []
    assert machine.host.dmesg_xids == [] and machine.healthy()
    assert cluster.fleet.version > version
    # a new fleet, and a standalone machine, start all-healthy
    assert all(m.healthy() for m in cluster.machines)
    assert Machine(0, MachineSpec()).component_health() == (True,) * 3


# ---------------------------------------------------------------------------
# pack placement
# ---------------------------------------------------------------------------

@given(
    machines=st.integers(4, 120),
    per_switch=st.sampled_from([2, 4, 8, 16]),
    free_frac=st.floats(0.2, 1.0),
    count_frac=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_pack_placement_mode_invariant(machines, per_switch, free_frac,
                                       count_frac, seed):
    """Vectorized pack selection ≡ the dict-of-sorted-lists scalar."""
    from repro.cluster.placement import PackPolicy

    cluster = Cluster(ClusterSpec(num_machines=machines,
                                  machines_per_switch=per_switch))
    rng = np.random.default_rng(seed)
    n_free = max(1, int(machines * free_frac))
    candidates = sorted(rng.choice(machines, size=n_free,
                                   replace=False).tolist())
    count = max(1, int(len(candidates) * count_frac))
    policy = PackPolicy()
    with force_substrate("scalar"):
        scalar = policy.select(cluster, candidates, count)
    with force_substrate("vectorized"):
        vectorized = policy.select(cluster, candidates, count)
    assert scalar == vectorized
    assert len(scalar) == count


# ---------------------------------------------------------------------------
# inspection sweeps: emission streams
# ---------------------------------------------------------------------------

def _scripted_sweep_events(mode: str, seed: int) -> list:
    """Run scripted fault flips under a live InspectionEngine."""
    with force_substrate(mode):
        cluster = Cluster(ClusterSpec(num_machines=96,
                                      machines_per_switch=8))
        sim = Simulator()
        ids = list(range(96))
        engine = InspectionEngine(sim, cluster, lambda: ids)
        engine.start()
        rng = np.random.default_rng(seed)
        # scripted flips: machine component faults, heals, and switch
        # outages spread over 20 simulated minutes — enough sweeps for
        # dedup windows, re-emits, and two-strike switch alerts to all
        # engage
        for _ in range(40):
            at = float(rng.uniform(0.0, 1200.0))
            midx = int(rng.integers(0, 96))
            op = _WRITE_OPS[int(rng.integers(0, len(_WRITE_OPS)))]
            sim.schedule_at(at, lambda midx=midx, op=op:
                            _apply_op(cluster, midx, op))
        for _ in range(4):
            at = float(rng.uniform(0.0, 1200.0))
            sidx = int(rng.integers(0, len(cluster.switches)))
            up = bool(rng.random() < 0.4)
            sim.schedule_at(at, lambda sidx=sidx, up=up:
                            setattr(cluster.switches[sidx], "up", up))
        sim.run(until=1500.0)
        engine.stop()
        return [(e.time, e.item, e.category, e.confidence,
                 tuple(e.machine_ids), e.switch_id)
                for e in engine.events]


@pytest.mark.parametrize("seed", [0, 7, 23])
def test_sweep_emissions_mode_invariant(seed):
    scalar = _scripted_sweep_events("scalar", seed)
    vectorized = _scripted_sweep_events("vectorized", seed)
    assert scalar, "script produced no emissions — test is vacuous"
    assert scalar == vectorized


# ---------------------------------------------------------------------------
# whole scenarios
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 3])
def test_fleet_week_payload_mode_invariant(seed):
    def run(mode):
        with force_substrate(mode):
            return get_scenario("fleet-week").build(
                seed=seed, duration_s=2 * 86400.0).run().payload
    assert run("scalar") == run("vectorized")


def test_fleet_quarter_small_payload_mode_invariant():
    """A shrunken quarter — hazard arrivals, evictions, repairs and
    standbys all active — must not depend on the substrate mode."""
    overrides = dict(total_machines=96, duration_s=86400.0,
                     arrival_mean_s=3600.0, machine_mtbf_s=400_000.0,
                     step_time_factor=4.0)

    def run(mode):
        with force_substrate(mode):
            return get_scenario("fleet-quarter").build(
                **overrides).run().payload

    scalar = run("scalar")
    vectorized = run("vectorized")
    assert scalar["machine_hazard"]["hits"] > 0
    assert scalar == vectorized
