"""Span tracing, latency attribution, and Prometheus exposition.

The tricky span paths get dedicated coverage here:

* Decode fast-forwarding — a stretch must emit ONE span per batch
  request whose window and iteration count exactly match the legacy
  per-iteration loop's span train (the clocks are bit-identical, so
  the comparisons are exact equality, not approx).
* Preemption → re-admission — the evicted window surfaces as a
  ``preempted`` span and attribution books it additively.
* Drain re-routing — the re-route span carries the original arrival
  and its child ``kv_migration`` span's byte count matches the
  migration link's own accounting event for event.
* Spans-off runs — ``emit_span`` is a no-op and reports carry no
  attribution, keeping the default path byte-identical.

Plus unit coverage for the attribution walk (gap classification,
disagg stitching, original-arrival restoration) and the Prometheus
text renderer.
"""

import math

from attribution_golden import HAND_BUILT
from repro.cluster import ClusterConfig, ClusterEngine, ScaleDecision
from repro.cluster.autoscaler import AutoscalerPolicy
from repro.gpu.spec import A100
from repro.memory import MemoryConfig
from repro.metrics import attribution
from repro.metrics.dashboard import render_waterfall
from repro.metrics.spans import (
    base_request_id,
    spans_from,
    write_spans_jsonl,
)
from repro.metrics.telemetry import TelemetryRegistry, enabled
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.serving.engine import EngineConfig, LLMEngine
from repro.workloads.arrival import poisson_arrivals
from repro.workloads.traces import fixed_trace, shared_prefix_trace


def make_engine(**overrides) -> LLMEngine:
    defaults = dict(
        shard=ShardedModel(YI_6B, 1),
        gpu=A100,
        memory_backend="vattention",
        prefill_kernel="fa2",
        decode_kernel="fa2",
        max_batch_size=8,
    )
    defaults.update(overrides)
    return LLMEngine(EngineConfig(**defaults))


def _run_with_spans(**overrides):
    with enabled(TelemetryRegistry(record_spans=True)) as registry:
        engine = make_engine(**overrides)
        engine.submit(
            fixed_trace(count=4, prompt_len=1000, max_new_tokens=200)
        )
        report = engine.run()
    return registry, report


def _decode_spans_by_request(registry):
    spans = {}
    for span in spans_from(registry.trace_records()):
        if span.phase == "decode":
            spans.setdefault(span.request, []).append(span)
    return spans


class TestFastForwardSpans:
    def test_stretch_emits_one_span_with_legacy_window(self):
        fast_reg, fast_report = _run_with_spans(fast_forward=True)
        legacy_reg, legacy_report = _run_with_spans(fast_forward=False)
        # The clocks are bit-identical across the two paths...
        assert fast_report.end_time == legacy_report.end_time
        fast = _decode_spans_by_request(fast_reg)
        legacy = _decode_spans_by_request(legacy_reg)
        assert fast.keys() == legacy.keys()
        stretched = 0
        for request, legacy_spans in legacy.items():
            fast_spans = fast[request]
            # ...so the span trains cover the same window exactly,
            assert fast_spans[0].start == legacy_spans[0].start
            assert fast_spans[-1].end == legacy_spans[-1].end
            # collapse iterations one-for-one into stretch spans,
            assert (
                sum(s.extras.get("iterations", 1) for s in fast_spans)
                == len(legacy_spans)
            )
            assert math.fsum(
                s.duration for s in fast_spans
            ) == math.fsum(s.duration for s in legacy_spans)
            stretched += sum(
                1 for s in fast_spans if s.extras.get("iterations", 1) > 1
            )
        # ...and at least one genuine multi-iteration stretch occurred
        # (otherwise this test proves nothing).
        assert stretched > 0
        for spans in legacy.values():
            assert all(s.extras.get("iterations", 1) == 1 for s in spans)

    def test_fast_forward_attribution_matches_legacy(self):
        fast_reg, _ = _run_with_spans(fast_forward=True)
        legacy_reg, _ = _run_with_spans(fast_forward=False)
        fast = attribution.build(fast_reg.trace_records())
        legacy = attribution.build(legacy_reg.trace_records())
        assert not fast.closure_violations()
        assert not legacy.closure_violations()
        for a, b in zip(fast.requests, legacy.requests):
            assert a.request == b.request
            assert a.e2e == b.e2e
            for bucket in attribution.BUCKETS:
                assert a.buckets[bucket] == b.buckets[bucket], bucket


class TestClusterFastLoopSpans:
    """Fleet-level analytic jumps leave the same span record a legacy
    fleet leaves: one stretch span per decode jump whose window,
    collapsed iteration count, and summed duration exactly equal the
    per-iteration train, with identical attribution."""

    def _cluster_run(self, fast_forward: bool):
        with enabled(TelemetryRegistry(record_spans=True)) as registry:
            cluster = ClusterEngine(
                ClusterConfig(
                    engine=EngineConfig(
                        shard=ShardedModel(YI_6B, 1),
                        gpu=A100,
                        memory_backend="vattention",
                        max_batch_size=8,
                        fast_forward=fast_forward,
                    ),
                    n_replicas=2,
                    routing_policy="round_robin",
                )
            )
            cluster.submit(
                shared_prefix_trace(
                    count=16,
                    sharing_factor=4,
                    prefix_tokens=2_048,
                    arrivals=poisson_arrivals(qps=4.0, count=16, seed=31),
                )
            )
            report = cluster.run()
        return registry, report

    def test_fleet_stretches_match_legacy_span_trains(self):
        fast_reg, fast_report = self._cluster_run(fast_forward=True)
        legacy_reg, legacy_report = self._cluster_run(fast_forward=False)
        assert fast_report.end_time == legacy_report.end_time
        fast = _decode_spans_by_request(fast_reg)
        legacy = _decode_spans_by_request(legacy_reg)
        assert fast.keys() == legacy.keys()
        stretched = 0
        for request, legacy_spans in legacy.items():
            fast_spans = fast[request]
            assert fast_spans[0].start == legacy_spans[0].start
            assert fast_spans[-1].end == legacy_spans[-1].end
            assert (
                sum(s.extras.get("iterations", 1) for s in fast_spans)
                == len(legacy_spans)
            )
            assert math.fsum(
                s.duration for s in fast_spans
            ) == math.fsum(s.duration for s in legacy_spans)
            stretched += sum(
                1 for s in fast_spans if s.extras.get("iterations", 1) > 1
            )
        assert stretched > 0
        for spans in legacy.values():
            assert all(s.extras.get("iterations", 1) == 1 for s in spans)

    def test_cluster_attribution_matches_legacy(self):
        fast_reg, _ = self._cluster_run(fast_forward=True)
        legacy_reg, _ = self._cluster_run(fast_forward=False)
        fast = attribution.build(fast_reg.trace_records())
        legacy = attribution.build(legacy_reg.trace_records())
        assert not fast.closure_violations()
        assert not legacy.closure_violations()
        assert len(fast.requests) == len(legacy.requests)
        for a, b in zip(fast.requests, legacy.requests):
            assert a.request == b.request
            assert a.e2e == b.e2e
            for bucket in attribution.BUCKETS:
                assert a.buckets[bucket] == b.buckets[bucket], bucket


class TestPreemptionSpans:
    def _preempting_run(self):
        # The swap-policy experiment over-subscribes KV on purpose: its
        # cells deterministically evict and re-admit requests.
        from repro.experiments import ext_swap_policy

        with enabled(TelemetryRegistry(record_spans=True)) as registry:
            ext_swap_policy.run(prompts=(8_192,))
        return registry

    def test_evicted_window_becomes_preempted_span(self):
        registry = self._preempting_run()
        records = registry.trace_records()
        events = {
            (r["scope"], r["request"], r["time"])
            for r in records
            if r["event"] == "request_preempted"
        }
        assert events, "harness no longer preempts"
        preempted = [
            s for s in spans_from(records) if s.phase == "preempted"
        ]
        # One span per eviction; each starts at its eviction event and
        # ends at the re-pick.
        assert len(preempted) == len(events)
        for span in preempted:
            assert (span.scope, span.request, span.start) in events
            assert span.end > span.start

    def test_preempted_time_is_attributed(self):
        registry = self._preempting_run()
        records = registry.trace_records()
        built = attribution.build(records)
        assert not built.closure_violations()
        victims = {
            (r["scope"], r["request"])
            for r in records
            if r["event"] == "request_preempted"
        }
        booked = {
            (row.domain, row.request): row.buckets["preempted"]
            for row in built.requests
        }
        assert victims
        for victim in victims:
            assert booked[victim] > 0


class _DrainEarly(AutoscalerPolicy):
    """Scale in on the second decision so the victim still holds work."""

    name = "scripted_drain"

    def __init__(self):
        self.calls = 0

    def decide(self, view) -> ScaleDecision:
        delta = -1 if self.calls == 1 else 0
        self.calls += 1
        return ScaleDecision(delta, "scripted")


class TestDrainRerouteSpans:
    def _drain_run(self, cache: bool):
        # A two-replica cluster fed shared-prefix work, drained while
        # the victim's queue is still deep. With the prefix cache on,
        # the victim holds more of each queued request's KV than the
        # request itself has prefilled, so the drain crosses the
        # migration link; with it off, the re-route moves nothing.
        with enabled(TelemetryRegistry(record_spans=True)) as registry:
            config = ClusterConfig(
                engine=EngineConfig(
                    shard=ShardedModel(YI_6B, 1),
                    gpu=A100,
                    memory_backend="vattention",
                    max_batch_size=1,
                    memory=MemoryConfig(enable_prefix_cache=cache),
                ),
                n_replicas=2,
                routing_policy="round_robin",
                autoscaler="queue_depth",
                min_replicas=1,
                max_replicas=2,
                cold_start_seconds=2.0,
                warmup_seconds=1.0,
                scale_decide_interval=0.5,
            )
            cluster = ClusterEngine(config)
            cluster.autoscaler = _DrainEarly()
            cluster.submit(shared_prefix_trace(
                count=8, sharing_factor=8, prefix_tokens=2_048,
                arrivals=[0.05 * index for index in range(8)],
            ))
            report = cluster.run()
        return registry, report

    def test_drain_migration_span_matches_link_accounting(self):
        registry, report = self._drain_run(cache=True)
        records = registry.trace_records()
        spans = spans_from(records)
        reroutes = {
            s.span: s for s in spans if s.phase == "drain_reroute"
        }
        migrations = [
            s for s in spans
            if s.phase == "kv_migration" and s.extras.get("kind") == "drain"
        ]
        assert migrations, "harness no longer drains warm work"
        events = [
            r for r in records
            if r["event"] == "migration_start" and r["kind"] == "drain"
        ]
        assert len(events) == len(migrations)
        # Each drain leg parents under a re-route span and mirrors the
        # link's own accounting event byte for byte.
        matched = set()
        for span in migrations:
            assert span.parent in reroutes
            hits = [
                index for index, event in enumerate(events)
                if index not in matched
                and event["cluster"] == span.scope
                and event["request"] == span.request
                and event["bytes"] == span.extras["bytes"]
                and event["time"] == span.start
                and event["done"] == span.end
            ]
            assert hits, f"no migration_start matches span {span}"
            matched.add(hits[0])
        assert sum(e["bytes"] for e in events) == report.migrated_bytes

    def test_reroute_span_restores_original_arrival(self):
        registry, _ = self._drain_run(cache=True)
        spans = spans_from(registry.trace_records())
        reroutes = [s for s in spans if s.phase == "drain_reroute"]
        assert reroutes
        for span in reroutes:
            assert span.extras["original_arrival"] <= span.start
            assert span.end >= span.start
        built = attribution.build(registry.trace_records())
        assert not built.closure_violations()

    def test_cold_drain_emits_zero_length_reroute(self):
        # Without a warm prefix cache nothing crosses the link: the
        # re-route span is zero-length but still restores the arrival.
        registry, report = self._drain_run(cache=False)
        spans = spans_from(registry.trace_records())
        reroutes = [s for s in spans if s.phase == "drain_reroute"]
        migrations = [
            s for s in spans
            if s.phase == "kv_migration" and s.extras.get("kind") == "drain"
        ]
        assert reroutes
        assert not migrations
        assert report.migrated_bytes == 0
        for span in reroutes:
            assert span.end == span.start
            assert "original_arrival" in span.extras


class TestSpansOff:
    def test_emit_span_is_noop_without_opt_in(self):
        registry = TelemetryRegistry()
        assert registry.record_spans is False
        assert registry.emit_span(
            phase="decode", start=0.0, end=1.0, scope="r0", request="a"
        ) is None
        assert registry.events == []

    def test_reports_carry_no_attribution(self):
        with enabled(TelemetryRegistry()) as registry:
            engine = make_engine()
            engine.submit(
                fixed_trace(count=2, prompt_len=500, max_new_tokens=5)
            )
            report = engine.run()
        assert registry.record_spans is False
        assert report.latency_attribution is None
        assert "latency_attribution" not in report.to_json()

    def test_reports_carry_attribution_with_spans_on(self):
        registry, report = _run_with_spans()
        document = report.to_json()
        assert report.latency_attribution is not None
        assert document["latency_attribution"]["requests"] == 4
        assert document["latency_attribution"]["closure_violations"] == 0


class TestSharedRegistry:
    def test_each_report_attributes_exactly_its_own_records(self):
        # One registry observes two standalone engines — the second
        # bound before the first runs and driven by run_until before
        # run(), so its records predate its run() call — and then a
        # cluster. Each report's attribution reads only the records
        # emitted since its engine bound the registry, and must equal
        # the whole-trace attribution restricted to its scope.
        with enabled(TelemetryRegistry(record_spans=True)) as registry:
            first = make_engine()
            second = make_engine()
            first.submit(
                fixed_trace(count=3, prompt_len=800, max_new_tokens=60)
            )
            second.submit(fixed_trace(
                count=4, prompt_len=500, max_new_tokens=80,
                arrivals=[0.0, 0.1, 0.2, 2.0],
            ))
            reports = {first.telemetry.scope: first.run()}
            second.run_until(1.0)
            assert registry.events[second.telemetry.first_record:], (
                "run_until emitted nothing before run()"
            )
            reports[second.telemetry.scope] = second.run()
            cluster = ClusterEngine(ClusterConfig(
                engine=EngineConfig(
                    shard=ShardedModel(YI_6B, 1), gpu=A100,
                    memory_backend="vattention", max_batch_size=8,
                ),
                n_replicas=2,
                routing_policy="round_robin",
            ))
            cluster.submit(fixed_trace(
                count=6, prompt_len=600, max_new_tokens=40,
                arrivals=poisson_arrivals(qps=4.0, count=6, seed=3),
            ))
            reports[cluster._telemetry.scope] = cluster.run()
        records = registry.trace_records()
        for scope, report in reports.items():
            expected = attribution.build(records, domains={scope})
            assert expected.requests, scope
            assert report.latency_attribution == expected.to_json()


class TestSpanSerialization:
    def test_write_spans_jsonl_filters_and_sorts(self, tmp_path):
        import json

        registry, _ = _run_with_spans()
        path = tmp_path / "spans.jsonl"
        count = write_spans_jsonl(registry.trace_records(), str(path))
        lines = path.read_text().splitlines()
        assert count == len(lines) > 0
        records = [json.loads(line) for line in lines]
        assert all(r["event"] == "span" for r in records)
        assert [r["seq"] for r in records] == sorted(
            r["seq"] for r in records
        )

    def test_base_request_id(self):
        assert base_request_id("req-7#prefill") == "req-7"
        assert base_request_id("req-7#decode") == "req-7"
        assert base_request_id("req-7") == "req-7"


class TestAttributionWalk:
    # The traces are shared with the attribution golden, which pins
    # every bucket of them exactly; these tests state what they mean.
    def test_phases_partition_the_window(self):
        [row] = attribution.build(HAND_BUILT["partition"]).requests
        assert row.closed()
        assert row.buckets["queue_wait"] == 2.0
        assert row.buckets["prefill"] == 1.0
        # The gap before a compute phase is in-batch wait; the tail
        # gap after the last span falls there too.
        assert row.buckets["batch_wait"] == 2.0
        assert row.buckets["decode"] == 5.0
        assert row.ttft == 3.0
        assert math.fsum(row.ttft_buckets.values()) == row.ttft
        assert row.ttft_buckets["decode"] == 0.0

    def test_gap_into_queueing_phase_counts_as_queue_wait(self):
        [row] = attribution.build(HAND_BUILT["gap_into_queueing"]).requests
        # original_arrival pulls the window back to the true arrival;
        # the uncovered lead-in is queueing, not batch wait.
        assert row.arrival == 0.0
        assert row.buckets["queue_wait"] == 3.0
        assert row.buckets["drain_reroute"] == 1.0
        assert row.closed()

    def test_nested_child_not_double_counted(self):
        [row] = attribution.build(HAND_BUILT["nested_child"]).requests
        assert row.buckets["drain_reroute"] == 3.0
        assert row.buckets["kv_migration"] == 1.0
        assert row.closed()

    def test_disagg_clones_stitch_to_one_logical_request(self):
        [row] = attribution.build(HAND_BUILT["disagg_stitch"]).requests
        assert row.request == "q"
        assert row.domain == "c0"
        assert row.replica_scope == "r1"
        assert row.e2e == 5.0
        assert row.buckets["kv_migration"] == 1.0
        assert row.closed()

    def test_dominant_tail_phase(self):
        report = attribution.build(HAND_BUILT["dominant_tail"])
        assert report.dominant_tail_phase("ttft") == "queue_wait"
        assert report.to_json()["dominant_p99_ttft_phase"] == "queue_wait"

    def test_render_and_waterfall_smoke(self):
        registry, _ = _run_with_spans()
        records = registry.trace_records()
        text = attribution.build(records).render()
        assert "latency attribution" in text
        assert "queue_wait" in text or "decode" in text
        waterfall = render_waterfall(records, limit=2)
        assert "span waterfall: 2 slowest of 4 requests" in waterfall
        assert "decode" in waterfall

    def test_empty_trace_renders_gracefully(self):
        report = attribution.build([])
        assert report.requests == []
        assert "no finished requests" in report.render()
        assert render_waterfall([]) == (
            "span waterfall: no request spans recorded"
        )


class TestPrometheusRender:
    def test_families_and_suffixes(self):
        registry = TelemetryRegistry()
        registry.counter("reqs_total", "r0", "engine", "reqs").inc(5)
        registry.counter("reqs_total", "r1", "engine", "reqs").inc(7)
        registry.counter("migrations", "c0", "cluster").inc(2)
        registry.gauge("num_running_reqs", "r0", "engine").set(1.0, 3.0)
        registry.gauge("never_set", "r0", "engine")
        registry.histogram("ttft_seconds", "r0", "engine", "s").observe(0.02)
        text = registry.render_prometheus()
        assert text.endswith("\n")
        lines = text.splitlines()
        # Counters keep or gain the _total suffix.
        assert 'repro_reqs_total{layer="engine",scope="r0"} 5.0' in lines
        assert 'repro_reqs_total{layer="engine",scope="r1"} 7.0' in lines
        assert (
            'repro_migrations_total{layer="cluster",scope="c0"} 2.0'
            in lines
        )
        # One HELP/TYPE header per family, not per scope.
        assert lines.count("# TYPE repro_reqs_total counter") == 1
        assert "# TYPE repro_num_running_reqs gauge" in lines
        assert (
            'repro_num_running_reqs{layer="engine",scope="r0"} 3.0'
            in lines
        )
        # A gauge that never sampled is skipped entirely.
        assert not any("never_set" in line for line in lines)

    def test_histogram_exposition(self):
        registry = TelemetryRegistry()
        histogram = registry.histogram("ttft_seconds", "r0", "engine", "s")
        for value in (0.02, 0.02, 3.0):
            histogram.observe(value)
        lines = registry.render_prometheus().splitlines()
        assert "# TYPE repro_ttft_seconds histogram" in lines
        assert (
            'repro_ttft_seconds_bucket{layer="engine",scope="r0",'
            'le="0.05"} 2' in lines
        )
        assert (
            'repro_ttft_seconds_bucket{layer="engine",scope="r0",'
            'le="+Inf"} 3' in lines
        )
        assert (
            'repro_ttft_seconds_count{layer="engine",scope="r0"} 3'
            in lines
        )
        [total] = [
            line for line in lines
            if line.startswith('repro_ttft_seconds_sum')
        ]
        assert float(total.split()[-1]) == 3.04

    def test_empty_registry_renders_empty(self):
        assert TelemetryRegistry().render_prometheus() == ""
