"""Machines, GPUs and NICs with the health state ByteRobust inspects.

Each component exposes exactly the signals the paper's real-time checks
read (Sec. 4.1): DCGM service status, PCIe bandwidth, row-remapping
pressure, temperature and Xid events on the GPU side; link state,
flapping and packet loss on the NIC side; kernel events, CPU load,
memory and disk pressure on the host side.  Faults mutate these fields;
inspections read them.

The fields of every machine in a fleet live in one :class:`FleetState`
of numpy columns.  :class:`Gpu`, :class:`Nic` and :class:`HostState`
are thin write-through views onto one machine's row of it, so callers keep
reading and writing ``machine.gpus[i].temperature_c`` while fleet-wide
queries read whole columns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np


class ComponentHealth(NamedTuple):
    """Per-subsystem health rollup of one machine.

    A plain tuple subclass so every existing ``(host, gpus, nics)``
    unpacking keeps working, but consumers address slots by name — the
    vectorized inspection sweeps index whole arrays of these flags and
    a silent slot swap would corrupt every mask at once.
    """

    host_ok: bool
    gpus_ok: bool
    nics_ok: bool


class MachineState(enum.Enum):
    """Lifecycle of a machine within the pool."""

    FREE = "free"                 # unallocated capacity
    PROVISIONING = "provisioning"  # pod env being built / self-checks
    STANDBY = "standby"           # warm standby: pod ready, low-power poll
    ACTIVE = "active"             # serving a training job
    EVICTED = "evicted"           # removed from the job, pending triage
    BLACKLISTED = "blacklisted"   # confirmed bad; IP blocked


# ---------------------------------------------------------------------------
# field tables: (name, dtype, nominal value) — one numpy column each
# ---------------------------------------------------------------------------

_GPU_FIELDS = (
    # DCGM service reachable and healthy.
    ("dcgm_healthy", bool, True),
    # Device visible to the driver (False == "GPU lost").
    ("available", bool, True),
    # Measured PCIe bandwidth as a fraction of spec (1.0 == nominal).
    ("pcie_bandwidth_frac", float, 1.0),
    # Pending HBM row remaps (row-remapping pressure; high == failing HBM).
    ("pending_row_remaps", int, 0),
    # Core temperature, Celsius.
    ("temperature_c", float, 55.0),
    # Driver wedged (kernel launches never return).
    ("driver_hung", bool, False),
    # Broken HBM cell → illegal-memory-access class errors.
    ("hbm_faulty", bool, False),
    # Silent-data-corruption defect (wrong arithmetic, no error signal).
    ("sdc_defective", bool, False),
    # Probability a single training step on this GPU reproduces the SDC.
    ("sdc_reproduce_prob", float, 1.0),
    # Thermal-throttling active (downclocked).
    ("throttled", bool, False),
)

_NIC_FIELDS = (
    ("up", bool, True),
    ("flapping", bool, False),
    ("packet_loss_rate", float, 0.0),
)

_HOST_FIELDS = (
    ("kernel_panic", bool, False),
    ("cpu_load_frac", float, 0.3),       # 1.0 == all cores saturated
    ("mem_used_frac", float, 0.4),
    ("disk_free_gb", float, 500.0),
    ("disk_faulty", bool, False),
    ("fs_mounted", bool, True),
    ("container_healthy", bool, True),
)


def _column(group: str, name: str) -> property:
    """A write-through property onto one :class:`FleetState` column.

    Reads return Python scalars (``ndarray.item``), never numpy ones,
    so values JSON-encode and compare exactly as plain attributes did.
    A write sets the cell, then re-rolls the owning machine's health
    for that subsystem and bumps the fleet-wide write counter.
    """
    def get(self):
        return getattr(self._fleet, group)[name].item(self._at)

    def set_(self, value) -> None:
        getattr(self._fleet, group)[name][self._at] = value
        self._fleet.rollup(type(self), self._row)
    return property(get, set_)


class _View:
    """One component's cells in the :class:`FleetState` columns.

    Subclasses name their column group, the machine rollup they feed
    and, for per-machine multiples, the attribute holding the count.
    """

    __slots__ = ("_fleet", "_row", "_at", "index")
    _GROUP: str
    _ROLLUP: str
    _COUNT: Optional[str] = None

    def __init__(self, fleet: "FleetState", row: int,
                 index: Optional[int] = None):
        self._fleet = fleet
        self._row = row
        self._at = row if index is None else (row, index)
        self.index = index

    @classmethod
    def _of(cls, fleet: "FleetState", row: int) -> list:
        """Every component of this kind on machine ``row``."""
        if cls._COUNT is None:
            return [cls(fleet, row)]
        return [cls(fleet, row, i) for i in range(getattr(fleet, cls._COUNT))]


class Gpu(_View):
    """One GPU's inspectable health state."""

    __slots__ = ()
    _GROUP, _ROLLUP, _COUNT = "gpu", "gpus_ok", "gpus_per_machine"

    THROTTLE_TEMP_C = 88.0

    @property
    def xid_events(self) -> List[int]:
        """Xid codes observed in dmesg since last drain (append-only)."""
        return self._fleet.xid_events.setdefault(self._at, [])

    @property
    def overheating(self) -> bool:
        return self.temperature_c >= self.THROTTLE_TEMP_C

    def healthy(self) -> bool:
        """True when no inspectable defect is present (SDC is *not*
        inspectable — that is the whole problem with it)."""
        return (self.dcgm_healthy and self.available
                and not self.driver_hung and not self.hbm_faulty
                and not self.overheating
                and self.pcie_bandwidth_frac >= 0.8
                and self.pending_row_remaps < 8)


class Nic(_View):
    """One RDMA NIC's inspectable state."""

    __slots__ = ()
    _GROUP, _ROLLUP, _COUNT = "nic", "nics_ok", "nics_per_machine"

    FLAP_LOSS_THRESHOLD = 0.01

    def healthy(self) -> bool:
        return (self.up and not self.flapping
                and self.packet_loss_rate < self.FLAP_LOSS_THRESHOLD)


class HostState(_View):
    """Host-side (non-GPU) inspectable state."""

    __slots__ = ()
    _GROUP, _ROLLUP = "host", "host_ok"

    CPU_OVERLOAD_FRAC = 0.95
    MEM_OOM_FRAC = 0.98
    DISK_MIN_FREE_GB = 5.0

    @property
    def dmesg_xids(self) -> List[int]:
        """Xid-bearing kernel events visible in dmesg (append-only)."""
        return self._fleet.dmesg_xids.setdefault(self._row, [])

    def healthy(self) -> bool:
        return (not self.kernel_panic and not self.disk_faulty
                and self.fs_mounted and self.container_healthy
                and self.cpu_load_frac < self.CPU_OVERLOAD_FRAC
                and self.mem_used_frac < self.MEM_OOM_FRAC
                and self.disk_free_gb > self.DISK_MIN_FREE_GB)


for _cls, _fields in ((Gpu, _GPU_FIELDS), (Nic, _NIC_FIELDS),
                      (HostState, _HOST_FIELDS)):
    for _name, _dtype, _nominal in _fields:
        setattr(_cls, _name, _column(_cls._GROUP, _name))


class FleetState:
    """Every machine's inspectable health, as numpy columns.

    The one copy of component state: ``gpu[field]`` is a
    ``[machines, gpus]`` array, ``nic[field]`` ``[machines, nics]``,
    ``host[field]`` ``[machines]``; ``switch_up`` is ``[switches]`` and
    ``machine_switch`` maps machine row → leaf switch.  The rollups
    ``host_ok`` / ``gpus_ok`` / ``nics_ok`` hold each machine's
    per-subsystem health and are re-rolled on every write through a
    view, from the views' own ``healthy()`` predicates — so an
    inspection sweep reads them without touching any component.

    Writes are rare (fault injection, repair) and reads are hot
    (inspection sweeps tick every few seconds), so all rollup work
    happens on the write.  :attr:`version` counts writes fleet-wide:
    equal values at two instants prove nothing changed in between.
    """

    def __init__(self, num_machines: int, gpus_per_machine: int,
                 nics_per_machine: int,
                 machines_per_switch: Optional[int] = None):
        n = num_machines
        per = machines_per_switch or n
        self.gpus_per_machine = gpus_per_machine
        self.nics_per_machine = nics_per_machine
        self.gpu = {name: np.full((n, gpus_per_machine), nominal, dtype)
                    for name, dtype, nominal in _GPU_FIELDS}
        self.nic = {name: np.full((n, nics_per_machine), nominal, dtype)
                    for name, dtype, nominal in _NIC_FIELDS}
        self.host = {name: np.full(n, nominal, dtype)
                     for name, dtype, nominal in _HOST_FIELDS}
        #: the list-valued fields, materialized on first access
        self.xid_events: Dict[Tuple[int, int], List[int]] = {}
        self.dmesg_xids: Dict[int, List[int]] = {}
        # nominal components are healthy, so a new fleet is too
        self.host_ok = np.ones(n, dtype=bool)
        self.gpus_ok = np.ones(n, dtype=bool)
        self.nics_ok = np.ones(n, dtype=bool)
        # leaf switches cable consecutive blocks of ``per`` machines
        self.machine_switch = np.arange(n, dtype=np.intp) // per
        self.switch_up = np.ones(-(-n // per), dtype=bool)
        self.version = 0

    def rollup(self, kind: type, row: int) -> None:
        """Re-roll one machine's ``kind`` subsystem after a write."""
        getattr(self, kind._ROLLUP)[row] = all(
            part.healthy() for part in kind._of(self, row))
        self.version += 1

    def set_switch(self, switch_id: int, up: bool) -> None:
        self.switch_up[switch_id] = up
        self.version += 1

    def reset_row(self, row: int) -> None:
        """Restore one machine's components to nominal, in place."""
        for columns, fields in ((self.gpu, _GPU_FIELDS),
                                (self.nic, _NIC_FIELDS),
                                (self.host, _HOST_FIELDS)):
            for name, _dtype, nominal in fields:
                columns[name][row] = nominal
        for index in range(self.gpus_per_machine):
            self.xid_events.pop((row, index), None)
        self.dmesg_xids.pop(row, None)
        for kind in (Gpu, Nic, HostState):
            self.rollup(kind, row)

    # ------------------------------------------------------------------
    def unhealthy(self, ids: Sequence[int], subsystem: str) -> List[int]:
        """Ids (in input order) whose ``subsystem`` rollup is unhealthy.

        ``subsystem`` is a :class:`ComponentHealth` field name
        (``"host_ok" | "gpus_ok" | "nics_ok"``).
        """
        ok = getattr(self, subsystem)
        if ok.all():
            return []
        arr = np.fromiter(ids, dtype=np.intp, count=len(ids))
        return arr[~ok[arr]].tolist()

    def switches_first_seen(self, ids: Sequence[int]
                            ) -> List[Tuple[int, bool]]:
        """``(switch_id, up)`` for the switches the machines hang off,
        in order of first appearance over ``ids``."""
        sw = self.machine_switch[np.fromiter(ids, dtype=np.intp,
                                             count=len(ids))]
        uniq, first = np.unique(sw, return_index=True)
        sw_ids = uniq[np.argsort(first, kind="stable")]
        return list(zip(sw_ids.tolist(), self.switch_up[sw_ids].tolist()))


@dataclass
class MachineSpec:
    """Hardware parameters shared by a homogeneous fleet."""

    gpus_per_machine: int = 8
    nics_per_machine: int = 8
    #: Per-GPU dense peak, TFLOPs (bf16).  Hopper ~989; L20 ~119.
    gpu_peak_tflops: float = 989.0
    #: GPU HBM capacity, GB.
    gpu_memory_gb: float = 80.0
    #: Host DRAM, GB (paper: 2 TB).
    host_memory_gb: float = 2048.0
    #: D2H PCIe bandwidth per GPU, GB/s (paper's L20 fleet: 30 GB/s).
    pcie_bandwidth_gbps: float = 30.0
    #: Per-NIC RDMA bandwidth, GB/s (8 x 400 Gbps links).
    rdma_bandwidth_gbps: float = 50.0
    #: Local SSD write bandwidth, GB/s.
    ssd_bandwidth_gbps: float = 3.0
    #: Remote (frontend network) storage bandwidth per machine, GB/s.
    remote_fs_bandwidth_gbps: float = 0.5


class Machine:
    """A training machine: GPUs + NICs + host, plus pool lifecycle.

    Component state lives in a :class:`FleetState` row; :attr:`gpus`,
    :attr:`nics` and :attr:`host` are views onto it, built on first
    access.  A machine constructed on its own (outside a cluster) gets
    a private one-row state.
    """

    __slots__ = ("id", "spec", "state", "switch_id", "active_fault_ids",
                 "_fleet", "_row", "_gpus", "_nics", "_host")

    def __init__(self, machine_id: int, spec: Optional[MachineSpec] = None,
                 fleet: Optional[FleetState] = None):
        self.id = machine_id
        self.spec = spec = spec or MachineSpec()
        if fleet is None:
            fleet = FleetState(1, spec.gpus_per_machine,
                               spec.nics_per_machine)
            self._row = 0
        else:
            self._row = machine_id
        self._fleet = fleet
        self._gpus: Optional[List[Gpu]] = None
        self._nics: Optional[List[Nic]] = None
        self._host: Optional[HostState] = None
        self.state = MachineState.FREE
        #: Identifier of the leaf switch this machine hangs off.
        self.switch_id: Optional[int] = None
        #: Set by the injector while a fault is active on this machine.
        self.active_fault_ids: List[int] = []

    @property
    def gpus(self) -> List[Gpu]:
        if self._gpus is None:
            self._gpus = Gpu._of(self._fleet, self._row)
        return self._gpus

    @property
    def nics(self) -> List[Nic]:
        if self._nics is None:
            self._nics = Nic._of(self._fleet, self._row)
        return self._nics

    @property
    def host(self) -> HostState:
        if self._host is None:
            self._host = HostState(self._fleet, self._row)
        return self._host

    # ------------------------------------------------------------------
    def component_health(self) -> ComponentHealth:
        """:class:`ComponentHealth`, read from the fleet rollups."""
        fleet, row = self._fleet, self._row
        return ComponentHealth(host_ok=fleet.host_ok.item(row),
                               gpus_ok=fleet.gpus_ok.item(row),
                               nics_ok=fleet.nics_ok.item(row))

    def healthy(self) -> bool:
        """All inspectable components healthy (SDC excluded by design)."""
        fleet, row = self._fleet, self._row
        return (fleet.host_ok.item(row) and fleet.gpus_ok.item(row)
                and fleet.nics_ok.item(row))

    def has_sdc_defect(self) -> bool:
        return bool(self._fleet.gpu["sdc_defective"][self._row].any())

    def reset_health(self) -> None:
        """Restore all components to nominal (used after repair)."""
        self._fleet.reset_row(self._row)
        self.active_fault_ids.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Machine {self.id} {self.state.value} "
                f"{'ok' if self.healthy() else 'UNHEALTHY'}>")
