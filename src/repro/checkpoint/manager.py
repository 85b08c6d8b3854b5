"""The checkpoint manager: every-step async checkpoints + recovery.

Runtime behaviour (Sec. 6.3 / Sec. 7 "High-Frequency Checkpointing"):

* each completed step kicks off an asynchronous save: after the D2H +
  serialization tail, the step's **local** checkpoint is durable in
  host memory; after the P2P exchange, its **backup** copy is durable
  on the cross-group peer machine;
* dual-buffering means a failure mid-save never corrupts the previous
  checkpoint — the latest *completed* step is always recoverable;
* every slot saves the same step at the same time, so one durable
  ``(local_step, backup_step)`` pair describes all of them.  A save
  only ever raises it, so instead of queueing an event per durability
  mark the manager keeps the mark's place in the event order
  (:meth:`~repro.sim.engine.Simulator.stamp`) and applies it, as a
  ``max``, the next time it reads the pair;
* a remote persist runs every ``remote_every_steps`` as a last-resort
  tier (kept off the hot restart path);
* on recovery, each rank prefers local CPU memory, then its backup
  peer, then remote; the job restarts from the *minimum* step available
  across ranks, and the manager reports where that step came from and
  how long loading takes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.checkpoint.planner import BackupPlan, plan_cross_group_backup
from repro.checkpoint.storage import StorageTiers
from repro.checkpoint.strategies import ByteRobustSave, CheckpointContext, SaveStrategy
from repro.parallelism import ShardedStateSizes
from repro.sim import Simulator
from repro.training.job import TrainingJob
from repro.training.metrics import StepMetrics


class RecoverySource(enum.Enum):
    LOCAL_MEMORY = "local_memory"
    PEER_BACKUP = "peer_backup"
    REMOTE_STORAGE = "remote_storage"
    NONE = "none"          # nothing recoverable (restart from step 0)


@dataclass
class RecoveryDecision:
    """Where to restart from after evicting ``evicted_machines``."""

    restart_step: int
    source: RecoverySource
    load_seconds: float
    #: steps of progress lost relative to the last completed step
    lost_steps: int = 0


#: durability tiers a mark raises
_LOCAL, _BACKUP, _REMOTE = range(3)


class CheckpointManager:
    """Every-step asynchronous checkpointing for one training job."""

    def __init__(self, sim: Simulator, job: TrainingJob,
                 shard_sizes: ShardedStateSizes, tiers: StorageTiers,
                 strategy: Optional[SaveStrategy] = None,
                 remote_every_steps: int = 100):
        self.sim = sim
        self.job = job
        self.shard_sizes = shard_sizes
        self.tiers = tiers
        self.strategy = strategy or ByteRobustSave()
        self.remote_every_steps = remote_every_steps
        self.plan: BackupPlan = plan_cross_group_backup(job.topology)
        #: durable step in each slot machine's host memory
        self._local_step = -1
        #: durable step on each slot's cross-group peer machine
        self._backup_step = -1
        self._remote_step = -1
        #: (stamp, tier, step) durability marks not yet applied
        self._marks: List[Tuple[Tuple[float, int, int], int, int]] = []
        self.saves_started = 0
        self.enabled = True
        #: (effective mfu, blocking, serialize, local delay seconds) —
        #: everything else the save timings depend on is static, so
        #: they only need recomputing when the MFU moves (hot updates,
        #: degradations), not twice per training step.
        self._timings: Optional[Tuple[float, float, float, float]] = None
        job.step_listeners.append(self._on_step)
        job.overhead_providers.append(self._blocking_overhead)

    # ------------------------------------------------------------------
    def _save_timings(self) -> Tuple[float, float, float, float]:
        mfu = self.job.mfu_model.current_mfu()
        cached = self._timings
        if cached is not None and cached[0] == mfu:
            return cached
        ctx = CheckpointContext(
            shard_sizes=self.shard_sizes, tiers=self.tiers,
            base_step_s=self.job.mfu_model.step_time(
                self.job.config.model.flops_per_step(
                    self.job.config.global_batch_size),
                self.job.topology.world_size,
                self.job.config.gpu_peak_tflops))
        serialize = self.tiers.serialize_seconds(
            self.shard_sizes.checkpoint_bytes)
        cached = (mfu, self.strategy.blocking_seconds(ctx), serialize,
                  self.strategy.async_tail_seconds(ctx) or serialize)
        self._timings = cached
        return cached

    def _blocking_overhead(self, step: int) -> float:
        if not self.enabled:
            return 0.0
        return self._save_timings()[1]

    def _on_step(self, metrics: StepMetrics) -> None:
        if self._marks:
            self._settle()
        if not self.enabled:
            return
        self.saves_started += 1
        _, _, serialize, local_delay = self._save_timings()
        step = metrics.step
        stamp = self.sim.stamp
        marks = self._marks
        # local durability: after D2H + serialization complete
        marks.append((stamp(serialize), _LOCAL, step))
        # backup durability: after the P2P exchange also lands
        marks.append((stamp(local_delay), _BACKUP, step))
        if (self.remote_every_steps > 0
                and step % self.remote_every_steps == 0
                and self.tiers.remote_available):
            marks.append((stamp(local_delay + self.tiers.remote_seconds(
                self.shard_sizes.checkpoint_bytes)), _REMOTE, step))

    def _settle(self) -> None:
        """Apply every durability mark whose time has come."""
        reached = self.sim.reached
        pending = []
        for mark in self._marks:
            if not reached(mark[0]):
                pending.append(mark)
            elif mark[1] == _LOCAL:
                self._local_step = max(self._local_step, mark[2])
            elif mark[1] == _BACKUP:
                self._backup_step = max(self._backup_step, mark[2])
            else:
                self._remote_step = max(self._remote_step, mark[2])
        self._marks = pending

    def durable_steps(self) -> Tuple[int, int]:
        """``(local_step, backup_step)`` durable on every slot now."""
        self._settle()
        return self._local_step, self._backup_step

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def plan_recovery(self, evicted_machines: Sequence[int]
                      ) -> RecoveryDecision:
        """Best restart step after evicting those physical machines.

        For each machine slot, the slot's shards survive locally if its
        machine was not evicted; otherwise the backup copy survives if
        the backup-holder machine was not evicted; otherwise only the
        remote tier remains for that slot.
        """
        self._settle()
        evicted_slots = {
            slot for mid in evicted_machines
            for slot in [self.job.slot_of_machine(mid)] if slot is not None}
        best_step = None
        worst_source = RecoverySource.LOCAL_MEMORY
        nbytes = self.shard_sizes.checkpoint_bytes
        for slot in range(self.job.num_machines):
            backup_slot = self._backup_holder_slot(slot)
            if slot not in evicted_slots:
                step, source = self._local_step, RecoverySource.LOCAL_MEMORY
            elif backup_slot not in evicted_slots:
                step, source = self._backup_step, RecoverySource.PEER_BACKUP
            elif self.tiers.remote_available and self._remote_step >= 0:
                step, source = (self._remote_step,
                                RecoverySource.REMOTE_STORAGE)
            else:
                step, source = -1, RecoverySource.NONE
            if best_step is None or step < best_step:
                best_step = step
            worst_source = self._worse(worst_source, source)
        assert best_step is not None
        restart_step = max(0, best_step)
        if best_step < 0:
            worst_source = RecoverySource.NONE
        load = self._load_seconds(worst_source, nbytes)
        lost = max(0, self.job.current_step - restart_step)
        return RecoveryDecision(restart_step=restart_step,
                                source=worst_source, load_seconds=load,
                                lost_steps=lost)

    def _backup_holder_slot(self, slot: int) -> int:
        """Machine slot that holds backups of ``slot``'s ranks.

        The plan maps every rank of a machine to peers on one machine
        (shifting pp/dp moves whole machines), so any rank's peer
        machine represents the slot.
        """
        first_rank = self.job.topology.ranks_on_machine(slot)[0]
        return self.plan.machine_of_backup(first_rank)

    @staticmethod
    def _worse(a: RecoverySource, b: RecoverySource) -> RecoverySource:
        order = [RecoverySource.LOCAL_MEMORY, RecoverySource.PEER_BACKUP,
                 RecoverySource.REMOTE_STORAGE, RecoverySource.NONE]
        return max(a, b, key=order.index)

    def _load_seconds(self, source: RecoverySource, nbytes: int) -> float:
        if source is RecoverySource.LOCAL_MEMORY:
            return self.tiers.load_local_seconds(nbytes)
        if source is RecoverySource.PEER_BACKUP:
            return (self.tiers.p2p_seconds(nbytes)
                    + self.tiers.load_local_seconds(nbytes))
        if source is RecoverySource.REMOTE_STORAGE:
            return (self.tiers.remote_seconds(nbytes)
                    + self.tiers.load_local_seconds(nbytes))
        return 0.0

    # ------------------------------------------------------------------
    def rebind(self, restart_step: int,
               shard_sizes: Optional[ShardedStateSizes] = None) -> None:
        """Re-derive the backup plan after an elastic resize changed the
        job's topology (and with it the per-rank shard sizes).  Every
        slot of the new layout holds the boundary checkpoint it just
        loaded, mirroring :meth:`after_recovery`."""
        if shard_sizes is not None:
            self.shard_sizes = shard_sizes
        self.plan = plan_cross_group_backup(self.job.topology)
        self.after_recovery(restart_step)
        self._timings = None

    def after_recovery(self, restart_step: int) -> None:
        """Reset durable state to the restarted step: a fresh copy (the
        loaded checkpoint) now exists everywhere, and nothing newer
        does.  Saves still in flight land later as usual."""
        self._settle()
        self._local_step = restart_step
        self._backup_step = restart_step
