"""Joint-horizon cluster fast-loop edge cases.

The fast loop (the template ``engine.fast_forward``) sweeps replicas to a
joint fleet horizon and routes arrival windows against lazy analytic
replica views. These
tests pin its boundary behaviour: equal-time event ties dispatch in
the legacy kind order, drained replicas retire mid-loop, a drain that
completes inside an arrival window bounds it, the degenerate
single-replica fleet stays exact, a migration landing at an arrival
instant dispatches exactly once, state-aware arrival windows split at
SCALE_DECIDE instants and drain-migration landings, full-batch
stretches cross arrival instants, and idle gaps jump the fleet clock
without inventing work. Observed runs take the same paths.
"""

import contextlib

import pytest

import repro.serving.engine as engine_module
from repro.cluster import ClusterConfig, ClusterEngine
from repro.cluster.autoscaler import AutoscalerPolicy, ScaleDecision
from repro.cluster.router import RoutingPolicy, least_loaded
from repro.gpu.spec import A100
from repro.memory import MemoryConfig
from repro.metrics import tracecheck
from repro.metrics.telemetry import TelemetryRegistry, enabled
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.serving.engine import EngineConfig
from repro.serving.request import Request
from repro.sim.events import EventKind, EventQueue
from repro.workloads.arrival import poisson_arrivals, uniform_arrivals
from repro.workloads.traces import shared_prefix_trace


def engine_config(cache: bool = True, max_batch: int = 8) -> EngineConfig:
    return EngineConfig(
        shard=ShardedModel(YI_6B, 1),
        gpu=A100,
        memory_backend="vattention",
        max_batch_size=max_batch,
        memory=MemoryConfig(enable_prefix_cache=cache),
    )


def cluster(n: int, policy: str = "round_robin", **kwargs) -> ClusterEngine:
    return ClusterEngine(
        ClusterConfig(
            engine=engine_config(),
            n_replicas=n,
            routing_policy=policy,
            **kwargs,
        )
    )


def trace(count: int = 16, qps: float = 4.0, seed: int = 31):
    arrivals = poisson_arrivals(qps=qps, count=count, seed=seed)
    return shared_prefix_trace(
        count=count,
        sharing_factor=4,
        prefix_tokens=2_048,
        arrivals=arrivals,
    )


def fingerprint(report):
    """Request-level timing plus fleet aggregates, byte for byte."""
    return (
        repr(report.end_time),
        report.migrations,
        report.migrated_bytes,
        repr(report.replica_seconds),
        report.peak_serving,
        len(report.scale_events),
        tuple(
            (
                record.request_id,
                record.replica,
                record.decode_replica,
                repr(record.ttft),
                repr(record.e2e_latency),
            )
            for record in sorted(
                report.records, key=lambda record: record.request_id
            )
        ),
    )


def run_both(build, monkeypatch):
    """Run ``build()``'s cluster with the fast loop on, then off."""
    monkeypatch.setattr(engine_module, "DEFAULT_FAST_FORWARD", True)
    fast = build().run()
    monkeypatch.setattr(engine_module, "DEFAULT_FAST_FORWARD", False)
    legacy = build().run()
    return fast, legacy


# ----------------------------------------------------------------------
# Equal-time ties dispatch in the legacy kind order
# ----------------------------------------------------------------------
class TestEventTies:
    def test_pop_due_orders_kinds_at_equal_time(self):
        queue = EventQueue()
        at = 2.5
        for kind in (
            EventKind.SCALE_DECIDE,
            EventKind.MIGRATION,
            EventKind.ARRIVAL,
            EventKind.DRAIN_COMPLETE,
            EventKind.SCALE_UP,
        ):
            queue.push(at, kind)
        popped = [event.kind for event in queue.pop_due(at)]
        assert popped == [
            EventKind.SCALE_UP,
            EventKind.ARRIVAL,
            EventKind.MIGRATION,
            EventKind.SCALE_DECIDE,
            EventKind.DRAIN_COMPLETE,
        ]

    def test_arrivals_at_scale_decide_instants(self, monkeypatch):
        """Arrival times exactly on the SCALE_DECIDE grid: the batched
        arrival window routes each tied arrival in the queue's kind
        order (before the decide, as the legacy loop does) and stops at
        the decide, not after it."""
        interval = 0.5

        def build():
            fleet = cluster(
                2,
                autoscaler="queue_depth",
                min_replicas=2,
                max_replicas=4,
                scale_decide_interval=interval,
                queue_high_watermark=8_192,
                queue_low_watermark=1_024,
            )
            # uniform_arrivals(qps=2) lands every request on an exact
            # multiple of 0.5 — binary-exact ties with the decide grid.
            requests = trace(count=12)
            for request, at in zip(
                requests, uniform_arrivals(qps=1.0 / interval, count=12)
            ):
                request.arrival_time = at
            fleet.submit(requests)
            return fleet

        fast, legacy = run_both(build, monkeypatch)
        assert fingerprint(fast) == fingerprint(legacy)

    @pytest.mark.parametrize(
        "policy", ["least_outstanding_tokens", "cache_aware"]
    )
    def test_state_aware_window_splits_at_scale_decide(
        self, policy, monkeypatch
    ):
        """The state-aware (analytic-replay) window path under the same
        binary-exact arrival/SCALE_DECIDE ties: the window routes the
        tied arrival, then ends at the decide it precedes in kind
        order, and the persistent views must re-prove their predictors
        across the split."""
        interval = 0.5

        def build():
            fleet = cluster(
                2,
                policy=policy,
                autoscaler="queue_depth",
                min_replicas=2,
                max_replicas=4,
                scale_decide_interval=interval,
                queue_high_watermark=8_192,
                queue_low_watermark=1_024,
            )
            requests = trace(count=12)
            for request, at in zip(
                requests, uniform_arrivals(qps=1.0 / interval, count=12)
            ):
                request.arrival_time = at
            fleet.submit(requests)
            return fleet

        fast, legacy = run_both(build, monkeypatch)
        assert fingerprint(fast) == fingerprint(legacy)


# ----------------------------------------------------------------------
# The incremental outstanding-tokens counter against its O(n) oracle
# ----------------------------------------------------------------------
class TestOutstandingOracle:
    @pytest.mark.parametrize("fast", [True, False])
    def test_counter_matches_scan_at_every_step(self, fast, monkeypatch):
        """``outstanding_tokens`` is maintained incrementally (the
        router reads it per arrival); ``_scan_outstanding`` is the O(n)
        recount. They must agree at every deadline an engine can be
        observed at, through admission, decode, completion — and a
        mid-run drain's withdrawals."""
        monkeypatch.setattr(engine_module, "DEFAULT_FAST_FORWARD", fast)
        engine = engine_module.LLMEngine(engine_config(max_batch=4))
        engine.submit(trace(count=12, qps=8.0))
        assert engine.outstanding_tokens == engine._scan_outstanding() > 0
        deadline = 0.0
        drained = False
        while engine.has_work():
            deadline = max(deadline + 0.05, engine.clock.now + 0.05)
            engine.run_until(deadline)
            assert engine.outstanding_tokens == engine._scan_outstanding()
            if not drained and deadline > 1.0:
                withdrawn = engine.begin_drain()
                drained = True
                assert (
                    engine.outstanding_tokens == engine._scan_outstanding()
                )
        assert drained
        assert engine.outstanding_tokens == 0
        assert engine._scan_outstanding() == 0


# ----------------------------------------------------------------------
# Full batch: stretches cross pending arrivals
# ----------------------------------------------------------------------
class TestFullBatchArrivalCrossing:
    @pytest.mark.parametrize(
        "observed", [False, True], ids=["unobserved", "observed"]
    )
    def test_stretch_spans_arrival_instants(self, observed, monkeypatch):
        """With the batch full, a pending arrival cannot change the
        next iteration (admission is capacity-blocked), so a decode
        stretch may run straight through arrival instants. Pin that the
        fast run actually produces such a stretch AND that results stay
        request-exact against the legacy loop. Observed, the stretch
        still crosses: the crossed arrivals are queued when it ends,
        and the queue gauges still reconstruct from the events."""

        def build():
            fleet = ClusterEngine(
                ClusterConfig(
                    engine=engine_config(max_batch=2),
                    n_replicas=1,
                    routing_policy="round_robin",
                )
            )
            # Sparse arrivals: the tail lands while the 2-wide batch is
            # deep in steady decode, not during the prefill ramp.
            fleet.submit(trace(count=10, qps=1.5))
            return fleet

        monkeypatch.setattr(engine_module, "DEFAULT_FAST_FORWARD", True)
        observing = (
            enabled(TelemetryRegistry(record_spans=True))
            if observed
            else contextlib.nullcontext()
        )
        with observing as registry:
            fleet = build()
            fast = fleet.run()
        if observed:
            tracecheck.assert_clean(registry.trace_records())
        arrivals = sorted(
            record.arrival_time for record in fast.records
        )
        crossed = [
            sum(
                record.start_time < at < record.start_time + record.latency
                for at in arrivals
            )
            for record in fleet.replicas[0].engine.metrics.iterations
            if record.iterations > 1 and record.batch_size == 2
        ]
        # A stretch cut at every arrival instant still straddles one
        # with its last iteration; crossing two proves it was not cut.
        assert max(crossed, default=0) >= 2, (
            "no full-batch stretch crossed two arrivals"
        )
        monkeypatch.setattr(engine_module, "DEFAULT_FAST_FORWARD", False)
        legacy = build().run()
        assert fingerprint(fast) == fingerprint(legacy)


# ----------------------------------------------------------------------
# Persistent analytic views actually carry across arrival windows
# ----------------------------------------------------------------------
class TestPersistentViewReuse:
    def test_views_survive_windows_and_answer_analytically(
        self, monkeypatch
    ):
        """The equivalence sweeps prove window routing is exact; this
        pins that the *mechanism* engages — views are built once per
        replica and synced again in later windows (not reconstructed),
        and some syncs are answered from a carried predictor with no
        engine sweep — otherwise the persistence layer proves nothing."""
        from repro.cluster import engine as cluster_module

        constructed = []
        windows = {}
        analytic = []
        bounds = []
        real_init = cluster_module._ReplicaReplay.__init__
        real_sync = cluster_module._ReplicaReplay._sync
        real_bound = EventQueue.next_fleet_event

        def spy_init(self, replica, window):
            constructed.append(replica.index)
            real_init(self, replica, window)

        def spy_bound(self):
            # The fast loop asks for the bound once per arrival window.
            bound = real_bound(self)
            bounds.append(bound)
            return bound

        def spy_sync(self):
            window = self._window
            windows.setdefault(self.index, set()).add(bounds[-1])
            engine = self.replica.engine
            if (
                window.time < self._valid
                and window.time < engine._arrival_cap()
                and engine._batch_version == self._version
            ):
                analytic.append(self.index)
            real_sync(self)

        monkeypatch.setattr(
            cluster_module._ReplicaReplay, "__init__", spy_init
        )
        monkeypatch.setattr(
            cluster_module._ReplicaReplay, "_sync", spy_sync
        )
        monkeypatch.setattr(EventQueue, "next_fleet_event", spy_bound)

        def build():
            # An elastic fleet that never actually scales (watermarks
            # out of reach) but whose SCALE_DECIDE grid splits the run
            # into many arrival windows — the persistence surface.
            fleet = cluster(
                3,
                policy="least_outstanding_tokens",
                autoscaler="queue_depth",
                min_replicas=3,
                max_replicas=4,
                scale_decide_interval=0.25,
                queue_high_watermark=1_000_000,
                queue_low_watermark=0,
            )
            fleet.submit(trace(count=32, qps=6.0))
            return fleet

        monkeypatch.setattr(engine_module, "DEFAULT_FAST_FORWARD", True)
        fast = build().run()

        assert constructed, "analytic replay never engaged"
        # Each replica's view is built once and reused thereafter.
        assert len(set(constructed)) == len(constructed) <= 3
        assert any(
            len(bounds) > 1 for bounds in windows.values()
        ), "no view survived into a second arrival window"
        assert analytic, "no query was answered from a carried predictor"

        monkeypatch.setattr(engine_module, "DEFAULT_FAST_FORWARD", False)
        assert fingerprint(fast) == fingerprint(build().run())


# ----------------------------------------------------------------------
# Lazy views: only what the router reads is synced
# ----------------------------------------------------------------------
class PairPolicy(RoutingPolicy):
    """Reads the backlog of two adjacent views only, the pair rotating
    per request: on a fleet of three or more, every view is observed at
    some arrivals and skipped at others."""

    name = "pair"

    def __init__(self):
        self._next = 0

    def select(self, request, replicas):
        start = self._next % len(replicas)
        self._next += 1
        pair = [replicas[start], replicas[(start + 1) % len(replicas)]]
        return least_loaded(pair)


class TestLazyViews:
    @staticmethod
    def spy_syncs(monkeypatch):
        from repro.cluster import engine as cluster_module

        synced = []
        real_sync = cluster_module._ReplicaReplay._sync

        def spy_sync(self):
            synced.append((self._window.seq, self.index))
            real_sync(self)

        monkeypatch.setattr(
            cluster_module._ReplicaReplay, "_sync", spy_sync
        )
        return synced

    @staticmethod
    def autoscaled(policy):
        fleet = cluster(
            2,
            policy=policy,
            autoscaler="queue_depth",
            min_replicas=2,
            max_replicas=4,
            scale_decide_interval=0.25,
            cold_start_seconds=0.5,
            warmup_seconds=0.25,
            queue_high_watermark=4_096,
            queue_low_watermark=0,
        )
        fleet.submit(trace(count=48, qps=12.0))
        return fleet

    def test_partially_read_views_stay_exact(self, monkeypatch):
        """Views the policy skips at an arrival are synced later (or
        never); routing must still match per-arrival dispatch."""
        synced = self.spy_syncs(monkeypatch)

        def build():
            fleet = self.autoscaled("least_outstanding_tokens")
            fleet.router = PairPolicy()
            return fleet

        fast, legacy = run_both(build, monkeypatch)
        assert fingerprint(fast) == fingerprint(legacy)
        per_arrival = {}
        for seq, index in synced:
            per_arrival.setdefault(seq, set()).add(index)
        # At most the pair is synced per arrival, while views beyond
        # the initial two were read too: syncs really were partial.
        assert per_arrival, "no view was ever read"
        assert max(len(views) for views in per_arrival.values()) <= 2
        assert max(index for _, index in synced) >= 2

    def test_round_robin_syncs_no_view(self, monkeypatch):
        synced = self.spy_syncs(monkeypatch)
        fast, legacy = run_both(
            lambda: self.autoscaled("round_robin"), monkeypatch
        )
        assert fingerprint(fast) == fingerprint(legacy)
        assert any(record.replica > 1 for record in fast.records)
        assert synced == []


# ----------------------------------------------------------------------
# Lifecycle edges: drains and the degenerate fleet
# ----------------------------------------------------------------------
class DrainAtSecondDecide(AutoscalerPolicy):
    """Drains one replica at the second decide and holds otherwise."""

    name = "scripted_drain"

    def __init__(self):
        self.calls = 0

    def decide(self, view) -> ScaleDecision:
        delta = -1 if self.calls == 1 else 0
        self.calls += 1
        return ScaleDecision(delta, "scripted")


class TestLifecycleEdges:
    def test_single_replica_fleet(self, monkeypatch):
        def build():
            fleet = cluster(1)
            fleet.submit(trace(count=12))
            return fleet

        fast, legacy = run_both(build, monkeypatch)
        assert fingerprint(fast) == fingerprint(legacy)
        assert len(fast.finished_records) == 12

    def test_drains_retire_under_fast_loop(self, monkeypatch):
        """A front-loaded burst followed by a sparse tail forces the
        elastic fleet through scale-up *and* drain while requests are
        still arriving."""

        def build():
            fleet = cluster(
                2,
                autoscaler="queue_depth",
                min_replicas=1,
                max_replicas=4,
                scale_decide_interval=0.25,
                queue_high_watermark=4_096,
                queue_low_watermark=512,
            )
            requests = trace(count=24, qps=16.0)
            # Sparse tail: the last four requests trickle in long after
            # the burst has drained, so the fleet scales back down with
            # traffic still due.
            for offset, request in enumerate(requests[-4:]):
                request.arrival_time = 60.0 + 30.0 * offset
            fleet.submit(requests)
            return fleet

        fast, legacy = run_both(build, monkeypatch)
        assert fingerprint(fast) == fingerprint(legacy)
        assert fast.drain_count >= 1
        assert len(fast.finished_records) == 24

    def test_drain_completing_inside_a_window(self, monkeypatch):
        """A draining replica receives nothing, so its drain runs out
        on its own clock. When it completes between two arrivals that
        no other fleet event separates, the window must stop at the
        completion: DRAIN_COMPLETE dispatches between the two arrivals,
        the observed trace keeps every stream clock monotone, and the
        retired replica's backlog gauge ends at 0 with its retirement."""
        dispatched = []
        real_route = ClusterEngine._dispatch_to
        real_retire = ClusterEngine._dispatch_drain_complete

        def spy_route(self, request, replica):
            dispatched.append((request.arrival_time, "arrival"))
            real_route(self, request, replica)

        def spy_retire(self, now, replica):
            dispatched.append((now, "retire"))
            real_retire(self, now, replica)

        monkeypatch.setattr(ClusterEngine, "_dispatch_to", spy_route)
        monkeypatch.setattr(
            ClusterEngine, "_dispatch_drain_complete", spy_retire
        )

        def build():
            # No prefix cache: the drain re-routes its queue without a
            # KV migration, whose landing would bound the window too.
            fleet = ClusterEngine(
                ClusterConfig(
                    engine=engine_config(cache=False, max_batch=4),
                    n_replicas=2,
                    routing_policy="least_outstanding_tokens",
                    autoscaler="queue_depth",
                    min_replicas=1,
                    max_replicas=2,
                    scale_decide_interval=2.0,
                )
            )
            fleet.autoscaler = DrainAtSecondDecide()
            fleet.submit(
                shared_prefix_trace(
                    count=24,
                    sharing_factor=4,
                    prefix_tokens=512,
                    arrivals=poisson_arrivals(qps=4.0, count=24, seed=1),
                )
            )
            return fleet

        monkeypatch.setattr(engine_module, "DEFAULT_FAST_FORWARD", True)
        with enabled(TelemetryRegistry()) as registry:
            fast = build().run()

        # The case occurs: a retirement falls strictly between two
        # arrivals with no decide or other lifecycle event between
        # them, so the two share one arrival window.
        fleet_events = [sample.time for sample in fast.slo_samples] + [
            event.time for event in fast.scale_events
            if event.action != "retire"
        ]
        arrivals = [time for time, kind in dispatched if kind == "arrival"]
        inside = []
        for time, kind in dispatched:
            before = [a for a in arrivals if a < time]
            after = [a for a in arrivals if a > time]
            if kind == "retire" and before and after:
                span = (max(before), min(after))
                if not any(span[0] <= t <= span[1] for t in fleet_events):
                    inside.append(time)
        assert inside, "no drain completed inside an arrival window"
        assert dispatched == sorted(dispatched)
        times = [event.time for event in fast.scale_events]
        assert times == sorted(times)
        records = registry.trace_records()
        tracecheck.assert_clean(records)
        # The retired replica's backlog series ends at 0, and no fleet
        # sample reads it after its retire record.
        (retired,) = [
            record for record in records
            if record["event"] == "replica_state"
            and record["action"] == "retired"
        ]
        scope = f"{retired['cluster']}.r{retired['replica']}"
        series = [
            record for record in records
            if record["event"] == "sample"
            and record["metric"] == "replica_outstanding_tokens"
            and record["scope"] == scope
        ]
        assert series[-1]["value"] == 0.0
        assert series[-1]["time"] == retired["time"]
        assert all(record["seq"] < retired["seq"] for record in series)

        monkeypatch.setattr(engine_module, "DEFAULT_FAST_FORWARD", False)
        assert fingerprint(fast) == fingerprint(build().run())


# ----------------------------------------------------------------------
# Migration landing exactly at a sweep boundary
# ----------------------------------------------------------------------
class TestMigrationBoundary:
    def test_landing_tied_with_arrival(self, monkeypatch):
        """An arrival scheduled at the exact float instant a migration
        lands: both dispatch once, in the legacy (arrival-first) order,
        under either loop."""

        def disagg(extra=None):
            fleet = cluster(
                3,
                policy="cache_aware",
                disaggregated=True,
                n_prefill_replicas=1,
            )
            requests = trace(count=12)
            if extra is not None:
                requests = requests + [extra]
            fleet.submit(requests)
            return fleet

        monkeypatch.setattr(engine_module, "DEFAULT_FAST_FORWARD", True)
        probe = disagg().run()
        landings = sorted(
            record.decode_request.arrival_time
            for record in probe.records
            if record.decode_request is not None
        )
        assert landings, "disaggregated run produced no migrations"
        tied = Request(
            request_id="tied-arrival",
            prompt_len=512,
            max_new_tokens=32,
            arrival_time=landings[len(landings) // 2],
        )

        def build():
            return disagg(
                extra=Request(
                    request_id=tied.request_id,
                    prompt_len=tied.prompt_len,
                    max_new_tokens=tied.max_new_tokens,
                    arrival_time=tied.arrival_time,
                )
            )

        fast, legacy = run_both(build, monkeypatch)
        assert fingerprint(fast) == fingerprint(legacy)
        assert len(fast.finished_records) == 13

    @pytest.mark.parametrize(
        "policy", ["least_outstanding_tokens", "cache_aware"]
    )
    def test_state_aware_window_splits_at_drain_landing(
        self, policy, monkeypatch
    ):
        """A drain migration landing mid-trace ends a state-aware
        arrival window (its MIGRATION event heads the queue): an
        arrival pinned binary-exactly at the landing instant routes
        first in kind order, identically under either loop."""

        def build(extra=None):
            # max_batch 1 keeps the victim's queue deep at drain time,
            # so re-routed work carries warm prefix KV over the link.
            fleet = ClusterEngine(
                ClusterConfig(
                    engine=engine_config(max_batch=1),
                    n_replicas=2,
                    routing_policy=policy,
                    autoscaler="queue_depth",
                    min_replicas=1,
                    max_replicas=2,
                    cold_start_seconds=2.0,
                    warmup_seconds=1.0,
                    scale_decide_interval=0.5,
                )
            )
            fleet.autoscaler = DrainAtSecondDecide()
            requests = shared_prefix_trace(
                count=8,
                sharing_factor=8,
                prefix_tokens=2_048,
                arrivals=[0.05 * index for index in range(8)],
            )
            if extra is not None:
                requests = requests + [extra]
            fleet.submit(requests)
            return fleet

        # Probe with telemetry on (identical event times) to learn
        # where the drain legs land.
        monkeypatch.setattr(engine_module, "DEFAULT_FAST_FORWARD", True)
        with enabled() as registry:
            build().run()
        landings = sorted(
            record["time"]
            for record in registry.trace_records()
            if record.get("event") == "migration_land"
        )
        assert landings, "scripted drain moved no KV"

        def tied():
            return Request(
                request_id="tied-at-landing",
                prompt_len=512,
                max_new_tokens=16,
                arrival_time=landings[len(landings) // 2],
            )

        fast, legacy = run_both(lambda: build(extra=tied()), monkeypatch)
        assert fingerprint(fast) == fingerprint(legacy)
        assert fast.migrations >= 1
        assert len(fast.finished_records) == 9


# ----------------------------------------------------------------------
# Idle gaps jump the fleet clock
# ----------------------------------------------------------------------
class TestIdleJumps:
    def test_widely_separated_bursts(self, monkeypatch):
        """Two bursts separated by hours of silence: the loop must jump
        the idle gap analytically (no replica does per-iteration work
        with an empty fleet) and serve the late burst as freshly as the
        first."""

        def build():
            fleet = cluster(2)
            requests = trace(count=16, qps=8.0)
            for request in requests[8:]:
                request.arrival_time += 10_000.0
            fleet.submit(requests)
            return fleet

        fast, legacy = run_both(build, monkeypatch)
        assert fingerprint(fast) == fingerprint(legacy)
        late = [
            record
            for record in fast.records
            if record.arrival_time > 10_000.0
        ]
        assert late, "no requests landed after the idle gap"
        assert all(record.ttft < 60.0 for record in late)
