"""Elastic autoscaling: policies, lifecycle, drain, report stitching."""

import math

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterEngine,
    FleetView,
    QueueDepthPolicy,
    ReplicaState,
    ScaleDecision,
    SlaPolicy,
    StaticPolicy,
    make_autoscaler,
)
from repro.cluster.autoscaler import AutoscalerPolicy, policy_names
from repro.errors import ConfigError
from repro.gpu.spec import A100
from repro.memory import MemoryConfig
from repro.metrics.rolling import RollingPercentileTracker
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.scheduling import SchedulingView
from repro.scheduling.fcfs import FcfsPolicy
from repro.serving.engine import EngineConfig, LLMEngine
from repro.serving.request import Request
from repro.workloads.traces import shared_prefix_trace


def engine_config(cache: bool = False, max_batch: int = 8) -> EngineConfig:
    return EngineConfig(
        shard=ShardedModel(YI_6B, 1),
        gpu=A100,
        memory_backend="vattention",
        max_batch_size=max_batch,
        memory=MemoryConfig(enable_prefix_cache=cache),
    )


def view(
    now=10.0,
    n_serving=2,
    n_booting=0,
    n_draining=0,
    min_replicas=1,
    max_replicas=4,
    outstanding=0,
    p99=None,
    attainment=None,
) -> FleetView:
    return FleetView(
        now=now,
        n_serving=n_serving,
        n_booting=n_booting,
        n_draining=n_draining,
        min_replicas=min_replicas,
        max_replicas=max_replicas,
        outstanding_tokens=outstanding,
        rolling_p99_ttft=p99,
        rolling_attainment=attainment,
    )


# ----------------------------------------------------------------------
# Rolling percentile tracker
# ----------------------------------------------------------------------
class TestRollingTracker:
    def test_empty_window_answers_none(self):
        tracker = RollingPercentileTracker(10.0)
        assert tracker.percentile(99.0) is None
        assert tracker.attainment(1.0) is None
        assert len(tracker) == 0

    def test_percentile_and_attainment(self):
        tracker = RollingPercentileTracker(100.0)
        for i in range(10):
            tracker.observe(float(i), float(i + 1))
        assert tracker.percentile(50.0) == 5.5
        assert tracker.attainment(5.0) == 0.5
        assert tracker.total_observations == 10

    def test_window_prunes_old_observations(self):
        tracker = RollingPercentileTracker(5.0)
        tracker.observe(0.0, 100.0)
        tracker.observe(8.0, 1.0)
        # As of t=10 the t=0 outlier fell out of the 5s window.
        assert tracker.percentile(99.0, now=10.0) == 1.0
        assert len(tracker) == 1
        # Everything out of window: back to no evidence.
        assert tracker.percentile(99.0, now=20.0) is None

    def test_unwindowed_tracker_keeps_everything(self):
        tracker = RollingPercentileTracker(None)
        tracker.observe(0.0, 100.0)
        tracker.observe(1000.0, 1.0)
        assert tracker.percentile(100.0, now=1e9) == 100.0

    def test_rejects_time_regression(self):
        tracker = RollingPercentileTracker(10.0)
        tracker.observe(5.0, 1.0)
        with pytest.raises(ConfigError):
            tracker.observe(4.0, 1.0)

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigError):
            RollingPercentileTracker(0.0)


# ----------------------------------------------------------------------
# Policy decisions over synthetic fleet views
# ----------------------------------------------------------------------
class TestPolicies:
    def test_registry(self):
        assert policy_names() == ["static", "queue_depth", "sla"]
        with pytest.raises(ConfigError):
            make_autoscaler("predictive")

    def test_static_always_holds(self):
        policy = StaticPolicy()
        assert policy.is_static
        decision = policy.decide(view(outstanding=10**9, n_serving=1))
        assert decision.delta == 0
        assert decision is ScaleDecision.HOLD

    def test_queue_depth_scales_up_above_high_watermark(self):
        policy = QueueDepthPolicy(high_watermark=1_000, low_watermark=100)
        assert policy.decide(view(outstanding=5_000)).delta == 1
        assert policy.decide(view(outstanding=1_500)).delta == 0

    def test_queue_depth_counts_booting_capacity(self):
        policy = QueueDepthPolicy(high_watermark=1_000, low_watermark=100)
        # 3000 tokens over 2 serving + 1 booting = 1000/replica: no
        # second provisioning for backlog the booting replica absorbs.
        assert policy.decide(view(outstanding=3_000, n_booting=1)).delta == 0

    def test_queue_depth_drains_below_low_watermark(self):
        policy = QueueDepthPolicy(high_watermark=1_000, low_watermark=100)
        assert policy.decide(view(outstanding=50)).delta == -1
        # Not below the floor, and not while capacity is booting.
        assert policy.decide(view(outstanding=50, n_serving=1)).delta == 0
        assert policy.decide(view(outstanding=50, n_booting=1)).delta == 0

    def test_queue_depth_respects_max(self):
        policy = QueueDepthPolicy(high_watermark=1_000, low_watermark=100)
        full = view(outstanding=10**6, n_serving=4, max_replicas=4)
        assert policy.decide(full).delta == 0

    def test_queue_depth_validates_watermarks(self):
        with pytest.raises(ConfigError):
            QueueDepthPolicy(high_watermark=0)
        with pytest.raises(ConfigError):
            QueueDepthPolicy(high_watermark=100, low_watermark=100)

    def test_sla_scales_up_on_breach(self):
        policy = SlaPolicy(slo_ttft=2.0)
        assert policy.decide(view(p99=3.0)).delta == 1
        assert policy.decide(view(p99=1.9)).delta == 0

    def test_sla_backlog_guard_covers_empty_window(self):
        policy = SlaPolicy(slo_ttft=2.0, backlog_guard_tokens=10_000)
        # No tail evidence but a deep backlog: the burst just started.
        assert policy.decide(view(p99=None, outstanding=50_000)).delta == 1
        assert policy.decide(view(p99=None, outstanding=1_000)).delta == 0

    def test_sla_drains_only_with_margin(self):
        policy = SlaPolicy(slo_ttft=2.0, drain_margin=0.5)
        assert policy.decide(view(p99=0.5)).delta == -1
        # Hysteresis: under the SLO but above the margin holds steady.
        assert policy.decide(view(p99=1.5)).delta == 0
        # Never drains blind or below the floor.
        assert policy.decide(view(p99=None)).delta == 0
        assert policy.decide(view(p99=0.5, n_serving=1)).delta == 0
        assert policy.decide(view(p99=0.5, n_booting=1)).delta == 0

    def test_sla_validates_knobs(self):
        with pytest.raises(ConfigError):
            SlaPolicy(slo_ttft=0.0)
        with pytest.raises(ConfigError):
            SlaPolicy(slo_ttft=1.0, drain_margin=1.5)
        with pytest.raises(ConfigError):
            SlaPolicy(slo_ttft=1.0, backlog_guard_tokens=0)

    def test_make_autoscaler_filters_kwargs(self):
        policy = make_autoscaler(
            "queue_depth",
            high_watermark=500,
            low_watermark=50,
            slo_ttft=2.0,  # an sla knob: dropped, not an error
        )
        assert policy.high_watermark == 500
        with pytest.raises(ConfigError):
            make_autoscaler("sla")  # needs slo_ttft

    def test_fleet_view_derived_properties(self):
        v = view(n_serving=2, n_booting=1, outstanding=1_000)
        assert v.n_live == 3
        assert v.backlog_per_serving == 500.0
        assert view(n_serving=0).backlog_per_serving == math.inf


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestAutoscaleConfig:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            ClusterConfig(
                engine=engine_config(), n_replicas=2, autoscaler="magic"
            )

    def test_elastic_disaggregation_unsupported(self):
        with pytest.raises(ConfigError):
            ClusterConfig(
                engine=engine_config(),
                n_replicas=2,
                disaggregated=True,
                autoscaler="queue_depth",
            )

    def test_sla_requires_objective(self):
        with pytest.raises(ConfigError):
            ClusterConfig(
                engine=engine_config(), n_replicas=2, autoscaler="sla"
            )

    def test_fleet_bounds_validated(self):
        with pytest.raises(ConfigError):
            ClusterConfig(
                engine=engine_config(),
                n_replicas=2,
                autoscaler="queue_depth",
                min_replicas=3,
            )
        with pytest.raises(ConfigError):
            ClusterConfig(
                engine=engine_config(),
                n_replicas=4,
                autoscaler="queue_depth",
                max_replicas=2,
            )
        with pytest.raises(ConfigError):
            ClusterConfig(
                engine=engine_config(),
                n_replicas=1,
                autoscaler="queue_depth",
                min_replicas=0,
            )

    def test_boot_delays_validated(self):
        with pytest.raises(ConfigError):
            ClusterConfig(
                engine=engine_config(),
                n_replicas=1,
                autoscaler="queue_depth",
                max_replicas=2,
                cold_start_seconds=-1.0,
            )
        with pytest.raises(ConfigError):
            ClusterConfig(
                engine=engine_config(),
                n_replicas=1,
                autoscaler="queue_depth",
                max_replicas=2,
                scale_decide_interval=0.0,
            )

    def test_static_defaults_keep_fixed_bounds(self):
        config = ClusterConfig(engine=engine_config(), n_replicas=3)
        assert config.resolved_min_replicas == 3
        assert config.resolved_max_replicas == 3
        assert config.autoscaler == "static"


# ----------------------------------------------------------------------
# Drain-aware admission at the scheduling layer
# ----------------------------------------------------------------------
class TestDrainAwareAdmission:
    def _view(self, draining: bool) -> SchedulingView:
        return SchedulingView(
            now=0.0,
            max_batch_size=8,
            prefill_chunk_size=None,
            cached_prefix_tokens=lambda r: 0,
            draining=draining,
        )

    def test_draining_blocks_fresh_admissions(self):
        policy = FcfsPolicy()
        fresh = Request(request_id="new", prompt_len=16, max_new_tokens=4)
        assert policy.next_admission([fresh], self._view(False)) is fresh
        assert policy.next_admission([fresh], self._view(True)) is None

    def test_draining_readmits_preempted_work(self):
        policy = FcfsPolicy()
        fresh = Request(request_id="new", prompt_len=16, max_new_tokens=4)
        veteran = Request(request_id="old", prompt_len=16, max_new_tokens=4)
        veteran.admitted_time = 1.0  # ran before; was preempted
        queue = [veteran, fresh]
        assert policy.next_admission(queue, self._view(True)) is veteran

    def test_engine_begin_drain_withdraws_unadmitted(self):
        engine = LLMEngine(engine_config(max_batch=1))
        requests = shared_prefix_trace(
            count=4, sharing_factor=1, prefix_tokens=128, seed=7
        )
        engine.submit(requests)
        engine.run_until(0.0)  # admits the first request only
        withdrawn = engine.begin_drain()
        assert engine.draining
        assert len(withdrawn) == 3
        assert all(r.admitted_time is None for r in withdrawn)
        report = engine.run()
        # Only the admitted request remains in the engine's report.
        assert len(report.requests) == 1
        assert len(report.finished_requests) == 1


# ----------------------------------------------------------------------
# Lifecycle integration on the cluster timeline
# ----------------------------------------------------------------------
class ScriptedPolicy(AutoscalerPolicy):
    """Deterministic test policy: fires scripted deltas by decide time."""

    name = "scripted"

    def __init__(self, script):
        #: decide-index -> delta (missing indices hold).
        self.script = dict(script)
        self.calls = 0

    def decide(self, v: FleetView) -> ScaleDecision:
        delta = self.script.get(self.calls, 0)
        self.calls += 1
        return ScaleDecision(delta, "scripted")


def elastic_cluster(
    n_replicas=1,
    cache=False,
    max_batch=8,
    cold=5.0,
    warm=5.0,
    interval=1.0,
    max_replicas=4,
    **kwargs,
):
    return ClusterEngine(
        ClusterConfig(
            engine=engine_config(cache=cache, max_batch=max_batch),
            n_replicas=n_replicas,
            routing_policy="round_robin",
            autoscaler="queue_depth",
            min_replicas=1,
            max_replicas=max_replicas,
            cold_start_seconds=cold,
            warmup_seconds=warm,
            scale_decide_interval=interval,
            **kwargs,
        )
    )


def trace(count=8, gap=1.0, prompt=512, new_tokens=32, start=0.0):
    return [
        Request(
            request_id=f"r{i}",
            prompt_len=prompt,
            max_new_tokens=new_tokens,
            arrival_time=start + gap * i,
        )
        for i in range(count)
    ]


class TestLifecycle:
    def test_scale_up_walks_the_boot_states(self):
        cluster = elastic_cluster(cold=5.0, warm=5.0, interval=1.0)
        cluster.autoscaler = ScriptedPolicy({0: 1})
        cluster.submit(trace(count=12, gap=1.0))
        report = cluster.run()
        assert len(report.finished_records) == 12
        actions = [
            (e.action, e.replica) for e in report.scale_events
        ]
        assert actions[:3] == [
            ("provision", 1),
            ("warming", 1),
            ("serving", 1),
        ]
        provision = report.scale_events[0]
        warming = report.scale_events[1]
        serving = report.scale_events[2]
        assert warming.time == pytest.approx(provision.time + 5.0)
        assert serving.time == pytest.approx(warming.time + 5.0)
        # Replica 1 is routable only after SERVING: nothing that
        # arrived earlier may have landed on it.
        for record in report.records:
            if record.replica == 1:
                assert record.arrival_time >= serving.time

    def test_warming_window_traffic_stays_off_booting_replica(self):
        # The whole trace arrives while the scale-up is still booting:
        # every request must route to the one SERVING replica, and the
        # report must still stitch (fleet size 2, one idle replica).
        cluster = elastic_cluster(cold=30.0, warm=30.0, interval=1.0)
        cluster.autoscaler = ScriptedPolicy({0: 1})
        cluster.submit(trace(count=8, gap=0.5))
        report = cluster.run()
        assert len(report.finished_records) == 8
        assert report.n_replicas == 2
        assert report.requests_per_replica == (8, 0)
        # Percentiles over the stitched records stay well-defined.
        assert report.median_ttft() <= report.p99_ttft()
        assert report.p99_latency() >= report.median_latency()
        # The booting replica served nothing.
        assert len(report.replica_reports[1].requests) == 0
        # Paid for both replicas: the booting one from its provision
        # instant to the end of the run.
        provision_time = report.scale_events[0].time
        expected = report.end_time + (report.end_time - provision_time)
        assert report.replica_seconds == pytest.approx(expected)

    def test_drain_finishes_in_flight_work_before_retiring(self):
        # Two serving replicas; the drain lands while both still hold
        # running requests. The victim must finish its batch, then
        # retire - a replica retiring mid-request would strand it. The
        # survivor's request runs far longer, so retirement must land
        # strictly before the end of the run.
        cluster = elastic_cluster(n_replicas=2, interval=1.0)
        cluster.autoscaler = ScriptedPolicy({0: -1})
        long_job, short_job = trace(count=2, gap=0.1, new_tokens=64)
        long_job.max_new_tokens = 2_048
        cluster.submit([long_job, short_job])
        report = cluster.run()
        assert len(report.finished_records) == 2
        drains = [e for e in report.scale_events if e.action == "drain"]
        retires = [e for e in report.scale_events if e.action == "retire"]
        assert len(drains) == 1 and len(retires) == 1
        victim = drains[0].replica
        victim_replica = cluster.replicas[victim]
        assert victim_replica.state is ReplicaState.RETIRED
        # Retirement happened strictly after the drain decision (there
        # was in-flight work) and not before the victim's last request
        # finished.
        victim_finishes = [
            r.serve_request.finish_time
            for r in report.records
            if r.replica == victim and r.serve_request.finish_time
        ]
        assert victim_finishes, "drain victim served nothing"
        assert retires[0].time >= max(victim_finishes)
        assert retires[0].time > drains[0].time
        # Replica-seconds stop accruing at retirement.
        assert report.replica_seconds < 2 * report.makespan

    def test_drain_reroutes_queued_work(self):
        # Batch cap 1 queues most of the trace behind one long request;
        # draining that replica must re-route its queue, and every
        # request still finishes.
        cluster = elastic_cluster(n_replicas=2, max_batch=1, interval=0.5)
        cluster.autoscaler = ScriptedPolicy({1: -1})
        cluster.submit(trace(count=8, gap=0.05, new_tokens=64))
        report = cluster.run()
        assert len(report.finished_records) == 8
        drains = [e for e in report.scale_events if e.action == "drain"]
        assert len(drains) == 1
        survivor = 1 - drains[0].replica
        rerouted = [
            r for r in report.records if r.replica == survivor
        ]
        # The survivor absorbed the drained replica's queue.
        assert len(rerouted) > 4

    def test_drain_migrates_cached_prefix_kv(self):
        # All requests share one 1024-token system prompt; by drain
        # time the victim's radix tree holds it, so withdrawn queued
        # requests pay a KV migration over the interconnect.
        cluster = elastic_cluster(
            n_replicas=2, cache=True, max_batch=1, interval=0.5
        )
        cluster.autoscaler = ScriptedPolicy({2: -1})
        requests = shared_prefix_trace(
            count=10, sharing_factor=10, prefix_tokens=1024, seed=3
        )
        for i, request in enumerate(requests):
            request.arrival_time = 0.05 * i
        cluster.submit(requests)
        report = cluster.run()
        assert len(report.finished_records) == 10
        migrated = [r for r in report.records if r.migrated_bytes > 0]
        assert migrated, "no drain-time KV migration billed"
        assert report.migrations == len(migrated)
        assert report.migrated_bytes == sum(
            r.migrated_bytes for r in migrated
        )
        drain_time = next(
            e.time for e in report.scale_events if e.action == "drain"
        )
        for record in migrated:
            assert record.migration_seconds > 0
            # The transfer delivered real KV: the re-routed request
            # carries the migrated prefix and computes only the suffix.
            assert (
                0
                < record.cached_prefix_tokens
                < record.serve_request.prompt_len
            )
            # Causality: the new replica must not have served the
            # request before the drain that re-routed it.
            assert record.serve_request.admitted_time >= drain_time
            assert record.ttft > 0  # TTFT spans the disruption

    def test_double_drain_preserves_original_arrivals(self):
        # Requests can be withdrawn twice: drained off replica A,
        # re-routed to B, then drained off B before admission. The
        # final records must still carry the *original* arrival times
        # (TTFT spans both disruptions), not the mutated re-dispatch
        # instants.
        cluster = elastic_cluster(
            n_replicas=3, cache=True, max_batch=1, interval=0.4
        )
        cluster.autoscaler = ScriptedPolicy({0: -1, 2: -1})
        requests = shared_prefix_trace(
            count=12, sharing_factor=12, prefix_tokens=1024, seed=11
        )
        originals = {}
        for i, request in enumerate(requests):
            request.arrival_time = 0.05 * i
            originals[request.request_id] = request.arrival_time
        cluster.submit(requests)
        report = cluster.run()
        assert len(report.finished_records) == 12
        assert report.drain_count == 2
        for record in report.records:
            assert record.arrival_time == originals[record.request_id]
            assert record.ttft > 0

    def test_peak_serving_counts_initial_fleet(self):
        # A fleet that starts above its steady-state size and only
        # drains must still report the initial count as the peak: the
        # timeline alone (n_serving *after* each event) cannot recover
        # it.
        cluster = elastic_cluster(n_replicas=3, interval=0.5)
        cluster.autoscaler = ScriptedPolicy({0: -1, 1: -1})
        cluster.submit(trace(count=3, gap=0.1))
        report = cluster.run()
        assert report.drain_count == 2
        assert report.peak_serving_replicas == 3

    def test_min_replicas_floor_holds(self):
        cluster = elastic_cluster(n_replicas=1, interval=0.5)
        cluster.autoscaler = ScriptedPolicy({0: -1, 1: -1, 2: -1})
        cluster.submit(trace(count=4, gap=0.5))
        report = cluster.run()
        # The last serving replica can never drain.
        assert report.drain_count == 0
        assert len(report.finished_records) == 4

    def test_elastic_run_is_deterministic(self):
        reports = []
        for _ in range(2):
            cluster = elastic_cluster(
                n_replicas=1,
                cold=2.0,
                warm=1.0,
                interval=0.5,
                queue_high_watermark=2_000,
                queue_low_watermark=500,
            )
            cluster.submit(trace(count=16, gap=0.2))
            reports.append(cluster.run())
        first, second = reports
        assert first.end_time == second.end_time
        assert first.scale_events == second.scale_events
        assert first.replica_seconds == second.replica_seconds
        assert first.ttfts() == second.ttfts()


# ----------------------------------------------------------------------
# Static runs: the autoscaler machinery must be invisible
# ----------------------------------------------------------------------
class TestStaticInvariance:
    def test_static_report_matches_fixed_fleet(self):
        def build(**kwargs):
            c = ClusterEngine(
                ClusterConfig(
                    engine=engine_config(cache=True),
                    n_replicas=2,
                    routing_policy="cache_aware",
                    **kwargs,
                )
            )
            c.submit(
                shared_prefix_trace(
                    count=12,
                    sharing_factor=4,
                    prefix_tokens=1024,
                    arrivals=[0.3 * i for i in range(1, 13)],
                )
            )
            return c.run()

        plain = build()
        explicit = build(autoscaler="static")
        assert plain.end_time == explicit.end_time
        assert plain.ttfts() == explicit.ttfts()
        assert plain.e2e_latencies() == explicit.e2e_latencies()
        assert plain.requests_per_replica == explicit.requests_per_replica

    def test_static_report_accounting(self):
        cluster = ClusterEngine(
            ClusterConfig(engine=engine_config(), n_replicas=3)
        )
        cluster.submit(trace(count=6, gap=0.5))
        report = cluster.run()
        assert report.autoscaler == "static"
        assert report.scale_events == ()
        assert report.slo_samples == ()
        assert report.peak_serving_replicas == 3
        assert report.replica_seconds == pytest.approx(3 * report.makespan)
        assert report.scale_up_count == 0
        assert report.drain_count == 0

    def test_ttft_attainment(self):
        cluster = ClusterEngine(
            ClusterConfig(engine=engine_config(), n_replicas=2)
        )
        cluster.submit(trace(count=6, gap=0.5))
        report = cluster.run()
        assert report.ttft_attainment(math.inf) == 1.0
        assert report.ttft_attainment(0.0) == 0.0
        mid = report.median_ttft()
        assert 0.0 < report.ttft_attainment(mid) <= 1.0
