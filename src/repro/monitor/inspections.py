"""Periodic system inspections (Sec. 4.1, Table 3).

Inspection threads run at per-category intervals — network items every
30 s, GPU items every 10 s, host items every 2 s — and are free for the
GPUs (they query NIC counters, DCGM, and dmesg, not the training job).
Some items need corroboration before alerting: a switch must be
unresponsive on **two consecutive** sweeps (switches often flap and
recover), matching the paper's ``30·2`` detection time for switch-down
events.

Every anomaly becomes an :class:`InspectionEvent` with a *confidence*:

* ``HIGH``    — points at a specific machine with certainty (GPU lost,
  disk fault): the controller evicts immediately, skipping stop-time
  diagnostics;
* ``NETWORK`` — network-class events that may self-heal: the controller
  tolerates a couple within a window before evicting;
* ``WARN``    — suggestive but not damning (high temperature): used to
  corroborate MFU-decline diagnosis.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.components import Gpu, HostState, Nic
from repro.cluster.health_index import use_vectorized
from repro.cluster.topology import Cluster
from repro.sim import Simulator


class SignalConfidence(enum.Enum):
    HIGH = "high"
    NETWORK = "network"
    WARN = "warn"


@dataclass
class InspectionEvent:
    """One anomaly surfaced by an inspection sweep."""

    time: float
    item: str                       # e.g. "gpu_lost", "switch_down"
    category: str                   # "network" | "gpu" | "host"
    confidence: SignalConfidence
    machine_ids: List[int] = field(default_factory=list)
    switch_id: Optional[int] = None

    def key(self) -> Tuple[str, Tuple[int, ...]]:
        return (self.item, tuple(self.machine_ids))


@dataclass(frozen=True)
class InspectionConfig:
    """Sweep intervals and corroboration thresholds (Table 3)."""

    network_interval_s: float = 30.0
    gpu_interval_s: float = 10.0
    host_interval_s: float = 2.0
    #: Consecutive unresponsive sweeps before a switch alert.
    switch_consecutive: int = 2
    #: Suppress duplicate events for the same (item, machines) pair for
    #: this long, so a persistent fault raises one alert, not a stream.
    dedup_window_s: float = 300.0

    def network_interval_for(self, category: str) -> float:
        """Sweep interval for a category (used by re-emit spacing)."""
        return {"network": self.network_interval_s,
                "gpu": self.gpu_interval_s,
                "host": self.host_interval_s}[category]


_HIGH = SignalConfidence.HIGH
_WARN = SignalConfidence.WARN

#: Per-GPU inspection items, in priority order: each GPU of an
#: unhealthy machine reports the *first* rule it matches.  A rule maps
#: the gathered ``[machines, gpus]`` columns to a boolean mask.
_GPU_RULES = (
    ("gpu_lost", _HIGH, lambda c: ~c["available"]),
    ("gpu_driver_hang", _HIGH, lambda c: c["driver_hung"]),
    ("dcgm_unhealthy", _HIGH, lambda c: ~c["dcgm_healthy"]),
    ("gpu_memory_error", _HIGH,
     lambda c: c["hbm_faulty"] | (c["pending_row_remaps"] >= 8)),
    ("gpu_high_temperature", _WARN,
     lambda c: c["temperature_c"] >= Gpu.THROTTLE_TEMP_C),
    ("pcie_degraded", _WARN, lambda c: c["pcie_bandwidth_frac"] < 0.8),
)

#: Per-host inspection items, first match wins (as for GPUs).
_HOST_RULES = (
    ("os_kernel_fault", _HIGH, lambda c: c["kernel_panic"]),
    ("disk_fault", _HIGH, lambda c: c["disk_faulty"]),
    ("filesystem_mount", _HIGH, lambda c: ~c["fs_mounted"]),
    ("container_error", _HIGH, lambda c: ~c["container_healthy"]),
    ("insufficient_disk_space", _HIGH,
     lambda c: c["disk_free_gb"] <= HostState.DISK_MIN_FREE_GB),
    ("cpu_oom", _HIGH,
     lambda c: c["mem_used_frac"] >= HostState.MEM_OOM_FRAC),
    ("cpu_overload", _WARN,
     lambda c: c["cpu_load_frac"] >= HostState.CPU_OVERLOAD_FRAC),
)


def _first_match(rules, columns: Dict[str, np.ndarray],
                 rows: List[int]) -> list:
    """1 + index of the first rule each component matches (0: none),
    as nested Python lists over ``rows`` (and components)."""
    idx = np.asarray(rows, dtype=np.intp)
    gathered = {name: col[idx] for name, col in columns.items()}
    found = np.zeros_like(next(iter(gathered.values())), dtype=np.intp)
    # later rules first, so an earlier rule's match overwrites them
    for code in range(len(rules), 0, -1):
        found[rules[code - 1][2](gathered)] = code
    return found.tolist()


class InspectionEngine:
    """Runs the three inspection loops over a set of machines."""

    def __init__(self, sim: Simulator, cluster: Cluster,
                 machine_ids: Callable[[], List[int]],
                 config: Optional[InspectionConfig] = None):
        self.sim = sim
        self.cluster = cluster
        #: callable returning the machines currently worth inspecting
        #: (the job's active machines; it changes across recoveries)
        self._machine_ids = machine_ids
        self.config = config or InspectionConfig()
        self.events: List[InspectionEvent] = []
        self._listeners: List[Callable[[InspectionEvent], None]] = []
        self._switch_strikes: Dict[int, int] = {}
        self._last_emit: Dict[Tuple[str, Tuple[int, ...]], float] = {}
        self._tasks: list = []
        self._started = False
        #: the fleet's health columns: sweeps read the per-machine
        #: rollups and the fleet-wide write counter from here
        self._fleet = cluster.fleet
        #: category -> (fleet version, inspected ids) of the last
        #: *clean* sweep; see the fast-path note above the sweeps.
        self._clean_state: Dict[str, Tuple[int, List[int]]] = {}

    def _skip_unchanged(self, category: str, ids: List[int]
                        ) -> Optional[int]:
        """Fleet version if this sweep must run, None to skip it.

        A sweep may be skipped only when the previous sweep over the
        *same machines* found every inspected component healthy and the
        fleet-wide write counter proves nothing was written since: a
        clean sweep is a pure read, so re-running it cannot emit,
        strike, or dedup anything.
        """
        ver = self._fleet.version
        state = self._clean_state.get(category)
        if state is not None and state[0] == ver and state[1] == ids:
            return None
        return ver

    def _mark_clean(self, category: str, ver: int, ids: List[int],
                    clean: bool) -> None:
        if clean:
            self._clean_state[category] = (ver, list(ids))
        else:
            self._clean_state.pop(category, None)

    def add_listener(self, fn: Callable[[InspectionEvent], None]) -> None:
        self._listeners.append(fn)

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        cfg = self.config
        # Coalesced ticks: each sweep joins the TickGroup for its
        # cadence, sharing one heap entry with every other task on the
        # same interval (e.g. the collector's gauge poll).
        self._tasks = [
            self.sim.every_tick(cfg.network_interval_s, self._sweep_network,
                                first_delay=cfg.network_interval_s),
            self.sim.every_tick(cfg.gpu_interval_s, self._sweep_gpu,
                                first_delay=cfg.gpu_interval_s),
            self.sim.every_tick(cfg.host_interval_s, self._sweep_host,
                                first_delay=cfg.host_interval_s),
        ]

    def stop(self) -> None:
        for task in self._tasks:
            task.stop()
        self._tasks = []
        self._started = False

    # ------------------------------------------------------------------
    def _emit(self, item: str, category: str, confidence: SignalConfidence,
              machine_ids: List[int],
              switch_id: Optional[int] = None) -> None:
        key = (item, tuple(sorted(machine_ids)))
        last = self._last_emit.get(key)
        # Network events are NOT deduplicated: the controller's
        # tolerance policy counts repeated alerts within its own window
        # (two flaps in five minutes ⇒ evict, Sec. 4.1), which requires
        # seeing each one.  But only re-emit after the component was
        # observed healthy in between — a *continuously* down NIC is one
        # event, a re-flap is a new one — approximated by requiring at
        # least one clean sweep between emissions.
        if confidence is SignalConfidence.NETWORK:
            if (last is not None and self.sim.now - last
                    < 2 * self.config.network_interval_for(category)):
                return
        elif (last is not None
              and self.sim.now - last < self.config.dedup_window_s):
            return
        self._last_emit[key] = self.sim.now
        event = InspectionEvent(
            time=self.sim.now, item=item, category=category,
            confidence=confidence, machine_ids=sorted(machine_ids),
            switch_id=switch_id)
        self.events.append(event)
        for fn in list(self._listeners):
            fn(event)

    # ------------------------------------------------------------------
    # Sweeps find their unhealthy candidates in the fleet's health
    # rollups and classify only those machines — a healthy machine's
    # sweep is a pure read, so skipping it cannot change any emission.
    # Above the vectorization threshold the candidates come from one
    # numpy mask over the rollup column; below it, from a Python loop
    # over the same column.  The candidates are then classified from
    # the component columns by the rule tables above, whose priority
    # order is the seed sweeps' ``elif`` chains
    # (:mod:`repro.perf.baseline`), so event content, deduplication,
    # and ordering are byte-identical across scalar, vectorized, and
    # seed modes.
    def _unhealthy_among(self, ids: List[int], subsystem: str
                         ) -> List[int]:
        """Ids (in input order) whose subsystem rollup is unhealthy."""
        if use_vectorized(len(ids)):
            return self._fleet.unhealthy(ids, subsystem)
        ok = getattr(self._fleet, subsystem).item
        return [mid for mid in ids if not ok(mid)]

    def _switches_first_seen(self, ids: List[int]
                             ) -> List[Tuple[int, bool]]:
        """``(switch_id, up)`` in first-appearance order over ``ids``."""
        if use_vectorized(len(ids)):
            return self._fleet.switches_first_seen(ids)
        machines = self.cluster.machines
        up = self._fleet.switch_up.item
        seen: Dict[int, bool] = {}
        for mid in ids:
            sw_id = machines[mid].switch_id
            if sw_id not in seen:
                seen[sw_id] = up(sw_id)
        return list(seen.items())

    def _sweep_network(self) -> None:
        ids = self._machine_ids()
        ver = self._skip_unchanged("network", ids)
        if ver is None:
            return
        unhealthy = self._unhealthy_among(ids, "nics_ok")
        clean = not unhealthy
        if unhealthy:
            nic = self._fleet.nic
            rows = np.asarray(unhealthy, dtype=np.intp)
            down = (~nic["up"][rows]).any(axis=1).tolist()
            flapping = (nic["flapping"][rows]
                        | (nic["packet_loss_rate"][rows]
                           >= Nic.FLAP_LOSS_THRESHOLD)).any(axis=1).tolist()
            for mid, is_down, is_flapping in zip(unhealthy, down, flapping):
                if is_down:
                    self._emit("nic_crash", "network",
                               SignalConfidence.NETWORK, [mid])
                if is_flapping:
                    self._emit("port_flapping", "network",
                               SignalConfidence.NETWORK, [mid])
        # with every switch up and no strike pending, the switch pass
        # below is a no-op, whichever switches the machines hang off
        switches_seen = (self._switches_first_seen(ids)
                         if self._switch_strikes
                         or not self._fleet.switch_up.all() else ())
        if any(not up for _, up in switches_seen):
            clean = False
        self._mark_clean("network", ver, ids, clean)
        inspected = None
        for sw_id, up in switches_seen:
            if up:
                self._switch_strikes.pop(sw_id, None)
                continue
            strikes = self._switch_strikes.get(sw_id, 0) + 1
            self._switch_strikes[sw_id] = strikes
            if strikes >= self.config.switch_consecutive:
                if inspected is None:
                    inspected = set(ids)
                affected = [mid for mid in
                            self.cluster.switches[sw_id].machine_ids
                            if mid in inspected]
                self._emit("switch_down", "network",
                           SignalConfidence.NETWORK, affected,
                           switch_id=sw_id)

    def _sweep_gpu(self) -> None:
        ids = self._machine_ids()
        ver = self._skip_unchanged("gpu", ids)
        if ver is None:
            return
        unhealthy = self._unhealthy_among(ids, "gpus_ok")
        if unhealthy:
            findings = _first_match(_GPU_RULES, self._fleet.gpu, unhealthy)
            for mid, per_gpu in zip(unhealthy, findings):
                for rule in per_gpu:
                    if rule:
                        item, confidence, _ = _GPU_RULES[rule - 1]
                        self._emit(item, "gpu", confidence, [mid])
        self._mark_clean("gpu", ver, ids, not unhealthy)

    def _sweep_host(self) -> None:
        ids = self._machine_ids()
        ver = self._skip_unchanged("host", ids)
        if ver is None:
            return
        unhealthy = self._unhealthy_among(ids, "host_ok")
        if unhealthy:
            findings = _first_match(_HOST_RULES, self._fleet.host, unhealthy)
            for mid, rule in zip(unhealthy, findings):
                if rule:
                    item, confidence, _ = _HOST_RULES[rule - 1]
                    self._emit(item, "host", confidence, [mid])
        self._mark_clean("host", ver, ids, not unhealthy)
