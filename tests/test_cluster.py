"""Cluster serving: router policies, shared virtual time, disaggregation."""

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterEngine,
    MigrationLink,
    NVLINK,
    PCIE,
    ROUTING_POLICIES,
    get_interconnect,
    make_policy,
    policy_names,
)
from repro.cluster.router import ReplicaView
from repro.errors import ConfigError, SchedulingError
from repro.gpu.spec import A100
from repro.memory import MemoryConfig
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.serving.engine import EngineConfig, LLMEngine
from repro.workloads.arrival import poisson_arrivals
from repro.workloads.traces import shared_prefix_trace

COUNT = 16
PREFIX = 2_048
SHARING = 8


def engine_config(cache: bool = True, max_batch: int = 8) -> EngineConfig:
    return EngineConfig(
        shard=ShardedModel(YI_6B, 1),
        gpu=A100,
        memory_backend="vattention",
        max_batch_size=max_batch,
        memory=MemoryConfig(enable_prefix_cache=cache),
    )


def cluster(
    n: int, policy: str = "round_robin", cache: bool = True, **kwargs
) -> ClusterEngine:
    return ClusterEngine(
        ClusterConfig(
            engine=engine_config(cache=cache),
            n_replicas=n,
            routing_policy=policy,
            **kwargs,
        )
    )


def trace(count: int = COUNT, qps: float = 4.0, seed: int = 31):
    arrivals = poisson_arrivals(qps=qps, count=count, seed=seed)
    return shared_prefix_trace(
        count=count,
        sharing_factor=SHARING,
        prefix_tokens=PREFIX,
        arrivals=arrivals,
    )


# ----------------------------------------------------------------------
# Configuration validation
# ----------------------------------------------------------------------
class TestClusterConfig:
    def test_rejects_bad_replica_count(self):
        with pytest.raises(ConfigError):
            ClusterConfig(engine=engine_config(), n_replicas=0)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ConfigError):
            ClusterConfig(
                engine=engine_config(), n_replicas=2, routing_policy="random"
            )

    def test_rejects_unknown_interconnect(self):
        with pytest.raises(ConfigError):
            ClusterConfig(
                engine=engine_config(), n_replicas=2, interconnect="infiniband"
            )

    def test_disaggregation_needs_two_tiers(self):
        with pytest.raises(ConfigError):
            ClusterConfig(
                engine=engine_config(), n_replicas=1, disaggregated=True
            )
        with pytest.raises(ConfigError):
            ClusterConfig(
                engine=engine_config(),
                n_replicas=4,
                disaggregated=True,
                n_prefill_replicas=4,
            )

    def test_cache_aware_requires_prefix_cache(self):
        with pytest.raises(ConfigError, match="memory.enable_prefix_cache"):
            ClusterConfig(
                engine=engine_config(cache=False),
                n_replicas=2,
                routing_policy="cache_aware",
            )

    def test_submit_after_run_rejected(self):
        c = cluster(1)
        c.submit(trace(count=2))
        c.run()
        with pytest.raises(SchedulingError):
            c.submit(trace(count=2))


# ----------------------------------------------------------------------
# Routing policies over fake replicas
# ----------------------------------------------------------------------
class FakeReplica(ReplicaView):
    def __init__(self, index, load=0, matches=None):
        self.index = index
        self.load = load
        self.matches = dict(matches or {})

    @property
    def outstanding_tokens(self):
        return self.load

    def probe_prefix(self, request):
        return self.matches.get(request.request_id, 0)


def _req(rid="r0"):
    from repro.serving.request import Request

    return Request(request_id=rid, prompt_len=64, max_new_tokens=8)


class TestPolicies:
    def test_registry(self):
        assert set(policy_names()) == {
            "round_robin",
            "least_outstanding_tokens",
            "cache_aware",
        }
        assert set(ROUTING_POLICIES) == set(policy_names())
        with pytest.raises(ConfigError):
            make_policy("power_of_two")

    def test_round_robin_cycles(self):
        policy = make_policy("round_robin")
        replicas = [FakeReplica(i) for i in range(3)]
        picks = [policy.select(_req(), replicas).index for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_least_outstanding_breaks_ties_by_index(self):
        policy = make_policy("least_outstanding_tokens")
        replicas = [
            FakeReplica(0, load=10),
            FakeReplica(1, load=5),
            FakeReplica(2, load=5),
        ]
        assert policy.select(_req(), replicas).index == 1

    def test_cache_aware_prefers_longest_match(self):
        policy = make_policy("cache_aware")
        replicas = [
            FakeReplica(0, load=100, matches={"r0": 512}),
            FakeReplica(1, load=0, matches={"r0": 2048}),
            FakeReplica(2, load=50),
        ]
        assert policy.select(_req(), replicas).index == 1

    def test_cache_aware_without_match_places_for_load(self):
        policy = make_policy("cache_aware")
        replicas = [FakeReplica(0, load=100), FakeReplica(1, load=3)]
        assert policy.select(_req(), replicas).index == 1

    def test_cache_aware_imbalance_cap_overrides_affinity(self):
        policy = make_policy(
            "cache_aware", balance_abs_tokens=1_000, balance_rel=1.5
        )
        # Replica 0 holds the whole prefix but is drowning in backlog:
        # both imbalance thresholds trip, so load wins.
        replicas = [
            FakeReplica(0, load=50_000, matches={"r0": 2048}),
            FakeReplica(1, load=100),
        ]
        assert policy.select(_req(), replicas).index == 1
        # An even fleet keeps its affinity even with the same caps.
        replicas[0].load = 120
        assert policy.select(_req(), replicas).index == 0

    def test_cache_aware_validates_caps(self):
        with pytest.raises(ConfigError):
            make_policy("cache_aware", balance_abs_tokens=-1)
        with pytest.raises(ConfigError):
            make_policy("cache_aware", balance_rel=0.5)


# ----------------------------------------------------------------------
# Interconnect link
# ----------------------------------------------------------------------
class TestMigrationLink:
    def test_specs(self):
        assert get_interconnect("nvlink") is NVLINK
        assert get_interconnect("pcie") is PCIE
        assert NVLINK.bandwidth > PCIE.bandwidth
        with pytest.raises(ConfigError):
            get_interconnect("carrier-pigeon")

    def test_transfers_serialize(self):
        link = MigrationLink(NVLINK)
        nbytes = int(NVLINK.bandwidth)  # exactly one second of streaming
        start1, done1 = link.transfer(10.0, nbytes)
        assert start1 == 10.0
        assert done1 == pytest.approx(11.0 + NVLINK.setup_latency)
        # Requested while the link is busy: queues behind transfer 1.
        start2, done2 = link.transfer(10.5, nbytes)
        assert start2 == done1
        assert done2 == pytest.approx(done1 + 1.0 + NVLINK.setup_latency)
        assert link.transfers == 2
        assert link.migrated_bytes == 2 * nbytes
        assert link.busy_seconds == pytest.approx(
            2.0 + 2 * NVLINK.setup_latency
        )


# ----------------------------------------------------------------------
# Cluster runs on shared virtual time
# ----------------------------------------------------------------------
class TestClusterEngine:
    def test_single_replica_matches_direct_engine(self):
        # One replica behind the router must serve exactly like the
        # bare engine: same finish count, same per-request latencies,
        # same cache statistics.
        direct = LLMEngine(engine_config())
        direct.submit(trace())
        direct_report = direct.run()

        c = cluster(1)
        c.submit(trace())
        cluster_report = c.run()

        assert len(cluster_report.finished_records) == len(
            direct_report.finished_requests
        )
        assert sorted(cluster_report.e2e_latencies()) == pytest.approx(
            sorted(direct_report.e2e_latencies())
        )
        replica_cache = cluster_report.replica_reports[0].prefix_cache
        assert replica_cache.hits == direct_report.prefix_cache.hits
        assert replica_cache.lookups == direct_report.prefix_cache.lookups

    def test_round_robin_balances_requests(self):
        c = cluster(4)
        c.submit(trace())
        report = c.run()
        assert report.requests_per_replica == (4, 4, 4, 4)
        assert len(report.finished_records) == COUNT

    def test_cache_aware_builds_affinity(self):
        c = cluster(2, policy="cache_aware")
        c.submit(trace())
        report = c.run()
        assert len(report.finished_records) == COUNT
        # Each prompt family converges onto one replica, so fleet-level
        # hit statistics exist and cover most repeat requests.
        assert report.cache_hit_rate > 0.5

    def test_deterministic_for_fixed_seed(self):
        reports = []
        for _ in range(2):
            c = cluster(3, policy="cache_aware")
            c.submit(trace())
            reports.append(c.run())
        first, second = reports
        assert first.end_time == second.end_time
        assert first.ttfts() == second.ttfts()
        assert first.e2e_latencies() == second.e2e_latencies()
        assert first.requests_per_replica == second.requests_per_replica
        assert first.cache_hit_rate == second.cache_hit_rate

    def test_report_aggregates(self):
        c = cluster(2)
        c.submit(trace())
        report = c.run()
        assert report.n_replicas == 2
        assert len(report.replica_reports) == 2
        assert report.makespan > 0
        assert report.requests_per_minute() > 0
        assert report.median_ttft() <= report.p99_ttft()
        assert report.median_latency() <= report.p99_latency()
        assert len(report.replica_hit_rates) == 2
        # Aggregated mode: no migrations.
        assert report.migrations == 0
        assert report.migrated_bytes == 0

    def test_outstanding_tokens_tracks_backlog(self):
        engine = LLMEngine(engine_config())
        assert engine.outstanding_tokens == 0
        requests = trace(count=4)
        engine.submit(requests)
        expected = sum(r.prompt_len + r.max_new_tokens for r in requests)
        assert engine.outstanding_tokens == expected
        engine.run()
        assert engine.outstanding_tokens == 0


class TestDisaggregation:
    def _run(self, interconnect="nvlink"):
        c = cluster(
            2,
            disaggregated=True,
            n_prefill_replicas=1,
            interconnect=interconnect,
        )
        requests = trace()
        c.submit(requests)
        return requests, c.run()

    def test_every_request_migrates_once(self):
        requests, report = self._run()
        migratable = [r for r in requests if r.max_new_tokens > 1]
        assert report.migrations == len(migratable)
        assert len(report.finished_records) == COUNT
        shard = ShardedModel(YI_6B, 1)
        expected = sum(
            (r.prompt_len + 1) * shard.kv_bytes_per_token
            for r in migratable
        )
        assert report.migrated_bytes == expected
        assert report.migration_seconds > 0

    def test_tiers_split_the_work(self):
        _, report = self._run()
        prefill_metrics = report.replica_reports[0].metrics
        decode_metrics = report.replica_reports[1].metrics
        # The prefill tier runs prompts (plus the single first-token
        # step embedded in each prefill); the decode tier never
        # prefills — migrated KV arrives resident.
        assert len(prefill_metrics.of_phase("prefill")) > 0
        assert len(decode_metrics.of_phase("prefill")) == 0
        assert len(decode_metrics.of_phase("decode")) > 0
        for record in report.records:
            if record.decode_request is not None:
                assert record.replica == 0
                assert record.decode_replica == 1
                assert record.migrated_bytes > 0

    def test_migration_delay_reaches_latency(self):
        _, nvlink_report = self._run("nvlink")
        _, pcie_report = self._run("pcie")
        assert (
            pcie_report.migrated_bytes == nvlink_report.migrated_bytes
        )
        assert (
            pcie_report.migration_seconds
            > nvlink_report.migration_seconds
        )
        # Slower interconnect, no faster end-to-end.
        assert (
            pcie_report.median_latency()
            >= nvlink_report.median_latency() - 1e-9
        )

    def test_logical_latencies_stitch_across_tiers(self):
        _, report = self._run()
        for record in report.finished_records:
            assert record.ttft > 0
            assert record.e2e_latency >= record.ttft
            if record.decode_request is not None:
                # The continuation finishes after the handoff lands.
                assert (
                    record.decode_request.finish_time
                    >= record.serve_request.finish_time
                    + record.migration_seconds
                )


# ----------------------------------------------------------------------
# Per-tier scheduler policies
# ----------------------------------------------------------------------
class TestClusterSchedulerPolicies:
    def test_fleet_policy_reaches_every_replica(self):
        c = cluster(2, scheduler_policy="hybrid")
        assert all(
            r.engine.scheduler.name == "hybrid" for r in c.replicas
        )
        # The template config is untouched (replicas get a copy).
        assert c.config.engine.scheduler_policy == "fcfs"

    def test_default_keeps_engine_config_policy(self):
        c = cluster(2)
        assert all(r.engine.scheduler.name == "fcfs" for r in c.replicas)

    def test_prefill_tier_override(self):
        c = cluster(
            3,
            disaggregated=True,
            n_prefill_replicas=1,
            prefill_scheduler_policy="hybrid",
        )
        by_role = {r.role: r.engine.scheduler.name for r in c.replicas}
        assert by_role["prefill"] == "hybrid"
        assert by_role["decode"] == "fcfs"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            cluster(2, scheduler_policy="edf")
        with pytest.raises(ConfigError):
            cluster(
                2,
                disaggregated=True,
                n_prefill_replicas=1,
                prefill_scheduler_policy="edf",
            )

    def test_prefill_override_requires_disaggregation(self):
        with pytest.raises(ConfigError):
            cluster(2, prefill_scheduler_policy="hybrid")

    def test_hybrid_fleet_serves_the_trace(self):
        c = cluster(2, scheduler_policy="hybrid")
        c.submit(trace())
        report = c.run()
        assert len(report.finished_records) == COUNT

    def test_disaggregated_hybrid_prefill_tier_serves(self):
        c = cluster(
            2,
            disaggregated=True,
            n_prefill_replicas=1,
            prefill_scheduler_policy="hybrid",
        )
        c.submit(trace())
        report = c.run()
        assert len(report.finished_records) == COUNT
        # Hybrid prefill tier chunks prompts: mixed iterations ran.
        prefill_metrics = report.replica_reports[0].metrics
        assert len(prefill_metrics.of_phase("mixed")) > 0
