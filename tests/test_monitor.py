"""Unit tests for inspections, collectors, and anomaly detectors."""

import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec, Fault, FaultInjector
from repro.cluster.faults import (
    FaultSymptom,
    JobEffect,
    RootCause,
    RootCauseDetail,
)
from repro.monitor import (
    AnomalyKind,
    AnomalyDetector,
    InspectionEngine,
    MetricsCollector,
    SignalConfidence,
)
from repro.monitor.collectors import CollectorConfig
from repro.monitor.detectors import DetectorConfig
from repro.parallelism import ParallelismConfig
from repro.sim import Simulator
from repro.training import TrainingJob, TrainingJobConfig
from repro.training.job import JobState
from repro.training.metrics import StepMetrics
from repro.training.model import ModelSpec


def setup_env(n_machines=4):
    sim = Simulator()
    cluster = Cluster(ClusterSpec(num_machines=n_machines,
                                  machines_per_switch=4))
    injector = FaultInjector(sim, cluster)
    config = TrainingJobConfig(
        model=ModelSpec("tiny", 10**9, 10**9, 4, seq_len=2048),
        parallelism=ParallelismConfig(tp=2, pp=2, dp=2, gpus_per_machine=2),
        global_batch_size=64, gpu_peak_tflops=100.0)
    job = TrainingJob(sim, config, injector=injector)
    job.bind_machines(list(range(4)))
    return sim, cluster, injector, job


class TestInspectionEngine:
    def make_engine(self, sim, cluster, machines=(0, 1, 2, 3), cfg=None):
        engine = InspectionEngine(sim, cluster, lambda: list(machines), cfg)
        events = []
        engine.add_listener(events.append)
        engine.start()
        return engine, events

    def test_gpu_lost_detected_within_10s(self):
        sim, cluster, inj, _ = setup_env()
        engine, events = self.make_engine(sim, cluster)
        inj.inject(Fault(symptom=FaultSymptom.GPU_UNAVAILABLE,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.GPU_LOST, machine_ids=[2]))
        sim.run(until=10.5)
        lost = [e for e in events if e.item == "gpu_lost"]
        assert lost and lost[0].machine_ids == [2]
        assert lost[0].confidence is SignalConfidence.HIGH
        assert lost[0].time <= 10.0

    def test_kernel_fault_detected_within_2s(self):
        sim, cluster, inj, _ = setup_env()
        engine, events = self.make_engine(sim, cluster)
        inj.inject(Fault(symptom=FaultSymptom.OS_KERNEL_PANIC,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.OS_KERNEL_FAULT,
                         machine_ids=[1]))
        sim.run(until=2.5)
        assert any(e.item == "os_kernel_fault" and e.time <= 2.0
                   for e in events)

    def test_nic_crash_detected_within_30s(self):
        sim, cluster, inj, _ = setup_env()
        engine, events = self.make_engine(sim, cluster)
        inj.inject(Fault(symptom=FaultSymptom.INFINIBAND_ERROR,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.NIC_CRASH, machine_ids=[0]))
        sim.run(until=30.5)
        crash = [e for e in events if e.item == "nic_crash"]
        assert crash and crash[0].time == 30.0
        assert crash[0].confidence is SignalConfidence.NETWORK

    def test_switch_down_needs_two_consecutive_sweeps(self):
        sim, cluster, inj, _ = setup_env()
        engine, events = self.make_engine(sim, cluster)
        inj.inject(Fault(symptom=FaultSymptom.INFINIBAND_ERROR,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.SWITCH_DOWN, switch_id=0))
        sim.run(until=35.0)
        assert not any(e.item == "switch_down" for e in events)
        sim.run(until=61.0)
        down = [e for e in events if e.item == "switch_down"]
        assert down and down[0].time == 60.0
        assert down[0].machine_ids == [0, 1, 2, 3]

    def test_switch_down_sweep_reads_machine_ids_once(self):
        """The switch-down sweep asks for the inspected machines once,
        not once per machine on the downed switch."""
        cluster = Cluster(ClusterSpec(num_machines=16,
                                      machines_per_switch=8))
        calls = []

        def ids():
            calls.append(1)
            return list(range(12))

        engine = InspectionEngine(Simulator(), cluster, ids)
        cluster.switches[0].up = False
        cluster.switches[1].up = False
        events = []
        engine.add_listener(events.append)
        for _ in range(engine.config.switch_consecutive):
            calls.clear()
            engine._sweep_network()
            assert len(calls) == 1
        assert [(e.switch_id, e.machine_ids) for e in events] == [
            (0, list(range(8))), (1, list(range(8, 12)))]

    def test_switch_recovery_resets_strikes(self):
        sim, cluster, inj, _ = setup_env()
        engine, events = self.make_engine(sim, cluster)
        fault = inj.inject(Fault(
            symptom=FaultSymptom.INFINIBAND_ERROR,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.SWITCH_DOWN, switch_id=0,
            transient=True, auto_recover_after=40.0))
        sim.run(until=120.0)
        assert not any(e.item == "switch_down" for e in events)

    def test_high_temperature_is_warn_confidence(self):
        sim, cluster, inj, _ = setup_env()
        engine, events = self.make_engine(sim, cluster)
        inj.inject(Fault(symptom=FaultSymptom.MFU_DECLINE,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.GPU_HIGH_TEMPERATURE,
                         machine_ids=[3], effect=JobEffect.SLOW))
        sim.run(until=10.5)
        temp = [e for e in events if e.item == "gpu_high_temperature"]
        assert temp and temp[0].confidence is SignalConfidence.WARN

    def test_dedup_suppresses_repeat_alerts(self):
        sim, cluster, inj, _ = setup_env()
        engine, events = self.make_engine(sim, cluster)
        inj.inject(Fault(symptom=FaultSymptom.DISK_FAULT,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.DISK_HW_FAULT,
                         machine_ids=[0]))
        sim.run(until=200.0)
        assert len([e for e in events if e.item == "disk_fault"]) == 1

    def test_stop_halts_sweeps(self):
        sim, cluster, inj, _ = setup_env()
        engine, events = self.make_engine(sim, cluster)
        engine.stop()
        inj.inject(Fault(symptom=FaultSymptom.DISK_FAULT,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.DISK_HW_FAULT,
                         machine_ids=[0]))
        sim.run(until=100.0)
        assert not events

    def test_machine_set_is_dynamic(self):
        sim, cluster, inj, _ = setup_env()
        machines = [0, 1]
        engine, events = self.make_engine(sim, cluster, machines=None)

        def current_machines():
            return machines

        engine._machine_ids = current_machines
        inj.inject(Fault(symptom=FaultSymptom.DISK_FAULT,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.DISK_HW_FAULT,
                         machine_ids=[3]))
        sim.run(until=10.0)
        assert not events                      # machine 3 not inspected
        machines.append(3)
        sim.run(until=20.0)
        assert any(e.item == "disk_fault" for e in events)


class TestMetricsCollector:
    def test_collects_steps_and_gauges(self):
        sim, cluster, inj, job = setup_env()
        collector = MetricsCollector(sim, job)
        steps, gauges = [], []
        collector.on_step(steps.append)
        collector.on_gauge(gauges.append)
        collector.start()
        job.start()
        sim.run(until=job.step_time() * 3 + 1)
        assert [m.step for m in steps] == [1, 2, 3]
        assert gauges
        assert gauges[-1].rdma_traffic_frac == pytest.approx(1.0)
        assert gauges[-1].tensorcore_util_frac == gauges[-1].rdma_traffic_frac

    def test_log_tail_latency_bounded_by_interval(self):
        sim, cluster, inj, job = setup_env()
        collector = MetricsCollector(
            sim, job, CollectorConfig(log_interval_s=30.0))
        seen = []
        collector.on_log(seen.append)
        collector.start()
        job.start()
        sim.schedule(45.0, lambda: inj.inject(Fault(
            symptom=FaultSymptom.CUDA_ERROR,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.GPU_HBM_FAULT, machine_ids=[0],
            log_signature="CUDA error: ECC uncorrectable")))
        sim.run(until=200.0)
        assert seen
        # crash at t=45, next log sweep at t=60
        assert 45.0 < seen[0].time + 1e-9 <= 75.0

    def test_gauge_samples_match_job_gauges_in_every_state(self):
        """A poll reads the traffic fraction once; each sample must
        still equal the job's own gauges while running, degraded, hung
        (traffic draining, utilization zero) and crashed."""
        sim, cluster, inj, job = setup_env()
        collector = MetricsCollector(sim, job)
        seen = []
        collector.on_gauge(lambda g: seen.append(
            (job.state, g.rdma_traffic_frac, g.tensorcore_util_frac,
             job.rdma_traffic_frac(), job.tensorcore_util_frac())))
        collector.start()
        job.start()
        sim.schedule(25.0, lambda: job.mfu_model.set_degradation(
            "thermal", 0.6))
        sim.schedule(45.0, lambda: inj.inject(Fault(
            symptom=FaultSymptom.JOB_HANG,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.UFM_FAULT, effect=JobEffect.HANG)))
        sim.schedule(72.0, lambda: inj.inject(Fault(
            symptom=FaultSymptom.CUDA_ERROR,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.GPU_HBM_FAULT, machine_ids=[1])))
        sim.run(until=100.0)
        states = {state for state, *_ in seen}
        assert {JobState.RUNNING, JobState.HUNG,
                JobState.CRASHED} <= states
        for _, rdma, util, job_rdma, job_util in seen:
            assert (rdma, util) == (job_rdma, job_util)
        assert any(state is JobState.RUNNING and 0.0 < util < 1.0
                   for state, _, util, *_ in seen)      # degraded
        assert any(0.0 < rdma < 1.0 and util == 0.0
                   for _, rdma, util, *_ in seen)       # hang draining

    def test_stop_detaches_step_listener(self):
        sim, cluster, inj, job = setup_env()
        collector = MetricsCollector(sim, job)
        collector.start()
        assert collector._on_step in job.step_listeners
        collector.stop()
        assert collector._on_step not in job.step_listeners
        collector.stop()                       # idempotent
        collector.start()                      # restart re-subscribes
        assert job.step_listeners.count(collector._on_step) == 1

    def test_shutdown_releases_collector_subscription(self):
        """ManagementStack.shutdown() must leave no collector callback
        on the job: a retired stack that stays subscribed keeps feeding
        its detectors (and is kept alive by the job) forever."""
        from repro.core.byterobust import ByteRobustSystem, SystemConfig
        from repro.workloads.fleet import fleet_job_config

        system = ByteRobustSystem(SystemConfig(job=fleet_job_config(2)))
        steps = []
        system.stack.collector.on_step(steps.append)
        system.start()
        system.sim.run(until=120.0)
        stack = system.stack
        assert stack.collector._on_step in stack.job.step_listeners
        collected = len(steps)
        assert collected > 0
        stack.shutdown()
        assert stack.collector._on_step not in stack.job.step_listeners
        # even if something force-restarts the job later, the retired
        # collector's listeners get no more steps
        stack.job.restart(from_step=stack.job.current_step)
        system.sim.run(until=600.0)
        assert stack.job.current_step > collected
        assert len(steps) == collected


class TestAnomalyDetector:
    def make(self, job_env=None, det_cfg=None, col_cfg=None):
        sim, cluster, inj, job = job_env or setup_env()
        collector = MetricsCollector(sim, job, col_cfg)
        detector = AnomalyDetector(sim, collector, det_cfg)
        events = []
        detector.add_listener(events.append)
        collector.start()
        return sim, inj, job, detector, events

    def test_nan_detected_at_next_step(self):
        sim, inj, job, detector, events = self.make()
        job.start()
        inj.inject(Fault(symptom=FaultSymptom.NAN_VALUE,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.GPU_SDC, machine_ids=[0],
                         effect=JobEffect.NAN))
        sim.run(until=job.step_time() * 1.5)
        assert any(e.kind is AnomalyKind.NAN_METRIC for e in events)

    def test_hang_detected_after_zero_rdma_window(self):
        cfg = DetectorConfig(hang_zero_rdma_s=120.0)
        sim, inj, job, detector, events = self.make(det_cfg=cfg)
        job.start()
        sim.schedule(50.0, lambda: inj.inject(Fault(
            symptom=FaultSymptom.JOB_HANG,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.UFM_FAULT, effect=JobEffect.HANG)))
        sim.run(until=400.0)
        hangs = [e for e in events if e.kind is AnomalyKind.HANG_SUSPECT]
        assert hangs
        # drain (20s) + window (120s) after the hang at t=50
        assert 180.0 <= hangs[0].time <= 220.0

    def test_hang_reported_once(self):
        cfg = DetectorConfig(hang_zero_rdma_s=60.0)
        sim, inj, job, detector, events = self.make(det_cfg=cfg)
        job.start()
        inj.inject(Fault(symptom=FaultSymptom.JOB_HANG,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.UFM_FAULT,
                         effect=JobEffect.HANG))
        sim.run(until=1000.0)
        hangs = [e for e in events if e.kind is AnomalyKind.HANG_SUSPECT]
        assert len(hangs) == 1

    def test_mfu_decline_detected(self):
        cfg = DetectorConfig(mfu_decline_window_s=60.0)
        sim, inj, job, detector, events = self.make(det_cfg=cfg)
        job.start()
        inj.inject(Fault(symptom=FaultSymptom.MFU_DECLINE,
                         root_cause=RootCause.INFRASTRUCTURE,
                         detail=RootCauseDetail.GPU_HIGH_TEMPERATURE,
                         machine_ids=[1], effect=JobEffect.SLOW))
        sim.run(until=300.0)
        assert any(e.kind is AnomalyKind.MFU_DECLINE for e in events)

    def test_healthy_run_has_no_anomalies(self):
        sim, inj, job, detector, events = self.make()
        job.start()
        sim.run(until=500.0)
        assert not events

    def test_user_space_error_classified(self):
        sim, inj, job, detector, events = self.make()
        job.start()
        inj.inject(Fault(
            symptom=FaultSymptom.CUDA_ERROR, root_cause=RootCause.USER_CODE,
            detail=RootCauseDetail.USER_CODE_BUG, machine_ids=[],
            log_signature="TypeError: forward() missing argument 'mask'",
            exit_code=1))
        sim.run(until=100.0)
        assert any(e.kind is AnomalyKind.USER_SPACE_ERROR for e in events)

    def test_infra_crash_with_machines_classified(self):
        sim, inj, job, detector, events = self.make()
        job.start()
        inj.inject(Fault(
            symptom=FaultSymptom.GPU_MEMORY_ERROR,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.GPU_HBM_FAULT, machine_ids=[2],
            log_signature="CUDA error: an illegal memory access",
            exit_code=134))
        sim.run(until=100.0)
        crash = [e for e in events
                 if e.kind is AnomalyKind.CRASH_WITH_MACHINES]
        assert crash and crash[0].machine_ids == [2]

    def test_service_crash_has_no_culprit(self):
        sim, inj, job, detector, events = self.make()
        job.start()
        inj.inject(Fault(
            symptom=FaultSymptom.HDFS_ERROR,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.STORAGE_SERVICE_FAULT,
            log_signature="HDFS write failed: DataStreamer exception"))
        sim.run(until=100.0)
        assert any(e.kind is AnomalyKind.CRASH_NO_CULPRIT for e in events)

    def test_loss_spike_detected(self):
        sim, inj, job, detector, events = self.make()
        job.start()
        step = job.step_time()
        sim.run(until=step * 10 + 0.5)   # build history
        job.loss_spike_factor = 8.0
        sim.run(until=step * 12 + 0.5)
        assert any(e.kind is AnomalyKind.LOSS_SPIKE for e in events)

    def test_reset_episode_rearms_hang_detection(self):
        cfg = DetectorConfig(hang_zero_rdma_s=60.0)
        sim, inj, job, detector, events = self.make(det_cfg=cfg)
        job.start()
        fault = inj.inject(Fault(
            symptom=FaultSymptom.JOB_HANG,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.UFM_FAULT, effect=JobEffect.HANG))
        sim.run(until=200.0)
        assert sum(e.kind is AnomalyKind.HANG_SUSPECT for e in events) == 1
        inj.clear(fault)
        job.restart(from_step=job.current_step)
        detector.reset_episode()
        sim.schedule(10.0, lambda: inj.inject(Fault(
            symptom=FaultSymptom.JOB_HANG,
            root_cause=RootCause.INFRASTRUCTURE,
            detail=RootCauseDetail.UFM_FAULT, effect=JobEffect.HANG)))
        sim.run(until=600.0)
        assert sum(e.kind is AnomalyKind.HANG_SUSPECT for e in events) == 2


class _StepFeed:
    """Collector stand-in: hands the detector's step callback back."""

    def __init__(self):
        self.step_fns = []

    def on_step(self, fn):
        self.step_fns.append(fn)

    def on_gauge(self, fn):
        pass

    def on_log(self, fn):
        pass


#: a few levels so medians tie and spikes land exactly on the 5x
#: threshold, plus large spikes and NaN loss / grad-norm steps
_nan = float("nan")
_LEVELS = [1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
_SPIKES = [5.0, 6.25, 7.5, 10.0, 12.5, 15.0, 20.0, 60.0]
_NANS = [(_nan, 0.4), (2.0, _nan), (_nan, _nan)]
_step_values = st.one_of(
    st.sampled_from(_LEVELS), st.sampled_from(_LEVELS),
    st.sampled_from(_SPIKES), st.floats(min_value=0.5, max_value=20.0),
).map(lambda loss: (loss, 0.4)) | st.sampled_from(_NANS)


def _check_spikes_against_reference(steps, spike_history):
    """Step by step, the detector must act like the rule over a plain
    history list (trimmed the way the detector used to trim it) with
    ``statistics.median`` of its last ``spike_history`` values."""
    config = DetectorConfig(spike_history=spike_history)
    feed = _StepFeed()
    detector = AnomalyDetector(Simulator(), feed, config)
    (on_step,) = feed.step_fns
    history = []
    for step, (loss, grad_norm) in enumerate(steps, start=1):
        expected = []
        if math.isnan(loss) or math.isnan(grad_norm):
            expected.append((AnomalyKind.NAN_METRIC, f"NaN at step {step}"))
        else:
            if len(history) >= 8:
                baseline = statistics.median(history[-spike_history:])
                if loss >= config.spike_factor * baseline:
                    expected.append((
                        AnomalyKind.LOSS_SPIKE,
                        f"loss {loss:.3f} vs median {baseline:.3f} "
                        f"at step {step}"))
            history.append(loss)
            if len(history) > 4 * spike_history:
                del history[:spike_history]
        seen = len(detector.anomalies)
        on_step(StepMetrics(step=step, time=float(step), duration_s=1.0,
                            loss=loss, grad_norm=grad_norm, mfu=0.3,
                            tokens=1))
        assert [(e.kind, e.detail)
                for e in detector.anomalies[seen:]] == expected
        # the exact values the next baseline is taken over
        assert detector._loss_sorted == sorted(history[-spike_history:])
    return detector


class TestSpikeMedianMatchesReference:
    @given(steps=st.lists(_step_values, max_size=400),
           # windows under 3 hit the warm-up gate's trim arithmetic
           spike_history=st.one_of(st.integers(min_value=1, max_value=3),
                                   st.integers(min_value=1, max_value=64)))
    @settings(max_examples=200, deadline=None)
    def test_spike_decisions_and_baselines(self, steps, spike_history):
        _check_spikes_against_reference(steps, spike_history)

    @pytest.mark.parametrize("spike_history", range(1, 65))
    def test_every_window_on_a_long_run(self, spike_history):
        rng = random.Random(spike_history)
        steps = [rng.choice(_NANS) if rng.random() < 0.03
                 else (rng.choice(_SPIKES if rng.random() < 0.1
                                  else _LEVELS), 0.4)
                 for _ in range(600)]
        detector = _check_spikes_against_reference(steps, spike_history)
        kinds = {e.kind for e in detector.anomalies}
        assert AnomalyKind.NAN_METRIC in kinds
        if spike_history > 1:
            assert AnomalyKind.LOSS_SPIKE in kinds

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            DetectorConfig(spike_history=0)
