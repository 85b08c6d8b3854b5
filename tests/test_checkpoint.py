"""Unit + property tests for the checkpoint subsystem."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    ByteRobustSave,
    CheckpointContext,
    CheckpointManager,
    MegatronSave,
    MemorySave,
    RecoverySource,
    StorageTiers,
    plan_cross_group_backup,
)
from repro.cluster.components import MachineSpec
from repro.parallelism import (
    ParallelismConfig,
    RankTopology,
    zero_shard_sizes,
)
from repro.sim import Simulator
from repro.training import TrainingJob, TrainingJobConfig
from repro.training.model import ModelSpec


def topo(tp=2, pp=4, dp=2, gpm=2):
    return RankTopology(ParallelismConfig(tp=tp, pp=pp, dp=dp,
                                          gpus_per_machine=gpm))


class TestBackupPlanner:
    def test_fig9_pairing(self):
        """TP=2, PP=4, DP=2: ranks 8, 9 exchange with ranks 2, 3."""
        plan = plan_cross_group_backup(topo())
        assert plan.peer_of[8] == 2
        assert plan.peer_of[9] == 3

    def test_no_shared_groups_anywhere(self):
        t = topo()
        plan = plan_cross_group_backup(t)
        for rank, peer in plan.peer_of.items():
            assert not t.shares_any_group(rank, peer)

    def test_backup_on_different_machine(self):
        t = topo()
        plan = plan_cross_group_backup(t)
        for rank, peer in plan.peer_of.items():
            assert (t.machine_of_rank(rank) != t.machine_of_rank(peer))

    def test_balanced_backup_load(self):
        t = topo()
        plan = plan_cross_group_backup(t)
        per_machine = [len(plan.ranks_backed_up_on(m))
                       for m in range(t.num_machines)]
        assert all(c == per_machine[0] for c in per_machine)

    def test_survives_pp_group_eviction(self):
        """Evicting any whole PP group keeps every shard recoverable."""
        t = topo()
        plan = plan_cross_group_backup(t)
        for rank in t.iter_ranks():
            slots = t.machines_of_group(rank, "pp")
            assert plan.survives_eviction(slots)

    def test_survives_tp_and_dp_group_eviction(self):
        t = topo()
        plan = plan_cross_group_backup(t)
        for dim in ("tp", "dp"):
            for rank in t.iter_ranks():
                assert plan.survives_eviction(
                    t.machines_of_group(rank, dim))

    def test_zero_parallel_fallback_neighbor_machine(self):
        """Pure-DP (ZeRO) topologies back up on the neighbor machine."""
        t = topo(tp=1, pp=1, dp=8, gpm=2)
        plan = plan_cross_group_backup(t)
        assert plan.peer_of[0] == 2     # next machine
        assert plan.peer_of[6] == 0     # wraps around
        for rank, peer in plan.peer_of.items():
            assert t.machine_of_rank(rank) != t.machine_of_rank(peer)

    def test_single_machine_rejected(self):
        t = topo(tp=1, pp=1, dp=2, gpm=2)
        with pytest.raises(ValueError):
            plan_cross_group_backup(t)

    def test_tp_dp_topology_without_pp(self):
        t = topo(tp=2, pp=1, dp=4, gpm=2)
        plan = plan_cross_group_backup(t)
        for rank, peer in plan.peer_of.items():
            assert not t.shares_any_group(rank, peer)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([(2, 4, 2, 2), (2, 4, 4, 2), (4, 2, 4, 4),
                            (1, 4, 4, 2), (2, 2, 8, 4)]))
    def test_property_plan_is_bijection(self, shape):
        tp, pp, dp, gpm = shape
        t = topo(tp, pp, dp, gpm)
        plan = plan_cross_group_backup(t)
        assert sorted(plan.peer_of.values()) == list(t.iter_ranks())


class TestStorageTiers:
    def tiers(self):
        return StorageTiers(machine_spec=MachineSpec(
            gpus_per_machine=8, pcie_bandwidth_gbps=30.0,
            rdma_bandwidth_gbps=50.0, nics_per_machine=8,
            ssd_bandwidth_gbps=3.0, remote_fs_bandwidth_gbps=0.5))

    def test_d2h_shares_pcie(self):
        t = self.tiers()
        # 8 ranks share 30 GB/s -> 3.75 GB/s each; 3.75 GB in 1 s + latency
        assert t.d2h_seconds(int(3.75e9)) == pytest.approx(1.05, abs=0.01)

    def test_remote_is_slowest(self):
        t = self.tiers()
        nbytes = 10**9
        assert (t.remote_seconds(nbytes) > t.ssd_seconds(nbytes)
                > t.d2h_seconds(nbytes))

    def test_remote_unavailable_raises(self):
        t = self.tiers()
        t.remote_available = False
        with pytest.raises(RuntimeError):
            t.remote_seconds(100)

    def test_invalid_inputs(self):
        t = self.tiers()
        with pytest.raises(ValueError):
            t.d2h_seconds(-1)


def table8_context(model_params, tp, pp, dp, base_step_s):
    """A CheckpointContext shaped like the Table 8 evaluation rows."""
    spec = MachineSpec(gpus_per_machine=16, gpu_peak_tflops=119.0,
                       pcie_bandwidth_gbps=30.0)
    sizes = zero_shard_sizes(model_params, tp=tp, pp=pp, dp=dp,
                             zero_stage=1)
    return CheckpointContext(shard_sizes=sizes,
                             tiers=StorageTiers(machine_spec=spec),
                             base_step_s=base_step_s)


class TestSaveStrategies:
    def ctx(self):
        return table8_context(70_000_000_000, tp=8, pp=8, dp=32,
                              base_step_s=4.5)

    def test_ordering_matches_table8(self):
        ctx = self.ctx()
        megatron = MegatronSave().blocking_seconds(ctx)
        memory = MemorySave().blocking_seconds(ctx)
        byterobust = ByteRobustSave().blocking_seconds(ctx)
        assert byterobust < memory < megatron
        assert megatron / byterobust > 50

    def test_byterobust_blocking_under_100ms(self):
        assert ByteRobustSave().blocking_seconds(self.ctx()) < 0.1

    def test_byterobust_relative_mfu_above_99_percent(self):
        assert ByteRobustSave().relative_mfu(self.ctx()) > 0.99

    def test_megatron_relative_mfu_below_60_percent(self):
        assert MegatronSave().relative_mfu(self.ctx()) < 0.6

    def test_memory_save_async_tail_positive(self):
        assert MemorySave().async_tail_seconds(self.ctx()) > 0

    def test_overlap_capped_by_step_time(self):
        """A step shorter than the D2H copy cannot hide it fully."""
        ctx = table8_context(70_000_000_000, tp=8, pp=8, dp=32,
                             base_step_s=0.05)
        blocking = ByteRobustSave().blocking_seconds(ctx)
        d2h = ctx.tiers.d2h_seconds(ctx.ckpt_bytes)
        assert blocking >= d2h - 0.05

    def test_invalid_overlap(self):
        with pytest.raises(ValueError):
            ByteRobustSave(overlap_frac=1.0)


def manager_env(strategy=None, remote_every=10):
    sim = Simulator()
    config = TrainingJobConfig(
        model=ModelSpec("t", 10**9, 10**9, 8, seq_len=2048),
        parallelism=ParallelismConfig(tp=2, pp=4, dp=2,
                                      gpus_per_machine=2),
        global_batch_size=64, gpu_peak_tflops=100.0)
    job = TrainingJob(sim, config)
    job.bind_machines(list(range(8)))
    sizes = zero_shard_sizes(10**9, tp=2, pp=4, dp=2, zero_stage=1)
    tiers = StorageTiers(machine_spec=MachineSpec(gpus_per_machine=2))
    manager = CheckpointManager(sim, job, sizes, tiers,
                                strategy=strategy or ByteRobustSave(),
                                remote_every_steps=remote_every)
    return sim, job, manager


class TestCheckpointManager:
    def test_checkpoints_become_durable_after_async_tail(self):
        sim, job, manager = manager_env()
        job.start()
        sim.run(until=job.step_time() * 3 + 5.0)
        local_step, backup_step = manager.durable_steps()
        assert local_step >= 2
        assert backup_step >= 2

    def test_blocking_overhead_added_to_step(self):
        sim, job, manager = manager_env()
        with_ckpt = job.step_time()
        manager.enabled = False
        without = job.step_time()
        assert with_ckpt > without

    def test_recovery_prefers_local_memory(self):
        sim, job, manager = manager_env()
        job.start()
        sim.run(until=job.step_time() * 5 + 5.0)
        decision = manager.plan_recovery([])
        assert decision.source is RecoverySource.LOCAL_MEMORY
        assert decision.restart_step >= 4

    def test_recovery_from_peer_after_eviction(self):
        sim, job, manager = manager_env()
        job.start()
        sim.run(until=job.step_time() * 5 + 5.0)
        decision = manager.plan_recovery([0])    # evict machine 0
        assert decision.source is RecoverySource.PEER_BACKUP
        assert decision.restart_step >= 4
        assert decision.load_seconds > 0

    def test_pp_group_over_eviction_still_recovers_from_peers(self):
        """Evicting a whole PP group loses no state (Fig. 9)."""
        sim, job, manager = manager_env()
        job.start()
        sim.run(until=job.step_time() * 5 + 5.0)
        pp_machines = job.topology.machines_of_group(0, "pp")
        decision = manager.plan_recovery(pp_machines)
        assert decision.source is RecoverySource.PEER_BACKUP
        assert decision.lost_steps <= 1

    def test_losing_both_copies_falls_back_to_remote(self):
        sim, job, manager = manager_env(remote_every=2)
        job.start()
        sim.run(until=job.step_time() * 6 + 30.0)
        # machine 0 holds ranks 0,1; their backups live on the machine
        # of rank peer_of[0] — evict both
        peer_slot = manager.plan.machine_of_backup(0)
        decision = manager.plan_recovery([0, peer_slot])
        assert decision.source is RecoverySource.REMOTE_STORAGE
        assert decision.restart_step >= 0
        assert decision.restart_step % 2 == 0    # remote cadence

    def test_no_checkpoint_at_all_restarts_from_zero(self):
        sim, job, manager = manager_env(remote_every=0)
        job.start()
        sim.run(until=job.step_time() * 0.5)     # no step completed
        peer_slot = manager.plan.machine_of_backup(0)
        decision = manager.plan_recovery([0, peer_slot])
        assert decision.restart_step == 0

    def test_after_recovery_resets_durable_steps(self):
        sim, job, manager = manager_env()
        job.start()
        sim.run(until=job.step_time() * 5 + 5.0)
        manager.after_recovery(3)
        assert manager.durable_steps() == (3, 3)

    def test_durable_pair_matches_event_scheduled_marks(self):
        """Durability marks are stamps, not events: between runs the
        pair must equal what mark events at the same delays produce,
        including saves still in flight across a recovery."""
        sim, job, manager = manager_env()
        shadow = [-1, -1]

        def mark(tier, step):
            shadow[tier] = max(shadow[tier], step)

        def shadow_save(metrics):
            _, _, serialize, local_delay = manager._save_timings()
            sim.schedule(serialize, lambda: mark(0, metrics.step))
            sim.schedule(local_delay, lambda: mark(1, metrics.step))

        job.step_listeners.append(shadow_save)
        job.start()
        tick = job.step_time() / 20
        recoveries = []
        for i in range(1, 300):
            sim.run(until=i * tick)
            # at step 8 its marks are still in flight and must land
            # after the reset, as events would; at step 12 they have
            # landed (unread) and must not outlive the reset
            if (job.current_step, shadow) in ((8, [7, 7]), (12, [12, 12])) \
                    and job.current_step not in recoveries:
                recoveries.append(job.current_step)
                manager.after_recovery(3)
                shadow[:] = [3, 3]
            assert manager.durable_steps() == tuple(shadow)
        assert recoveries == [8, 12] and shadow[0] > 12

    def test_every_step_checkpointing_loses_at_most_one_step(self):
        sim, job, manager = manager_env()
        job.start()
        sim.run(until=job.step_time() * 10 + 5.0)
        decision = manager.plan_recovery([2])
        assert decision.lost_steps <= 1
