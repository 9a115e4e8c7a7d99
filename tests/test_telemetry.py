"""The telemetry registry, its engine bindings, and the off-path.

Four layers of coverage:

* Registry unit tests — instrument creation is get-or-create and
  kind-checked, counters only go up, histogram percentiles use the
  shared linear-interpolation estimator, and events + gauge samples
  share one sequence counter (the total order the trace checker
  replays).
* The install point — ``enabled()`` restores whatever was active
  before, including nesting.
* Instrumented runs — an experiment produces identical rows with
  telemetry on and off (instruments observe, never perturb), and the
  decode fast path contributes the same counter totals as the legacy
  per-iteration loop while populating the stretch histogram.
* Record storage — the JSONL bytes of two spans-on runs are pinned by
  digest, and the registry's retained bytes per row and per gauge
  sample are bounded under ``tracemalloc``.
"""

import gc
import hashlib
import inspect
import json
import tracemalloc

import pytest

import repro.metrics.telemetry as telemetry_module
import repro.serving.engine as engine_module
from repro.cluster import ClusterConfig, ClusterEngine
from repro.errors import ConfigError
from repro.experiments import ext_sched_policy, fig08_decode_throughput
from repro.gpu.spec import A100
from repro.memory import MemoryConfig
from repro.metrics.dashboard import render_dashboard
from repro.metrics.spans import write_spans_jsonl
from repro.metrics.telemetry import (
    Gauge,
    TelemetryRegistry,
    active,
    enabled,
    install,
    uninstall,
)
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.serving.engine import EngineConfig, LLMEngine
from repro.workloads.arrival import poisson_arrivals
from repro.workloads.traces import fixed_trace, shared_prefix_trace, sharegpt_trace


class TestRegistry:
    def test_counter_get_or_create(self):
        registry = TelemetryRegistry()
        counter = registry.counter("reqs_total", "r0", "engine")
        counter.inc()
        counter.inc(2.0)
        assert registry.counter("reqs_total", "r0") is counter
        assert counter.value == 3.0

    def test_counters_only_go_up(self):
        registry = TelemetryRegistry()
        with pytest.raises(ConfigError):
            registry.counter("reqs_total").inc(-1.0)

    def test_kind_clash_rejected(self):
        registry = TelemetryRegistry()
        registry.counter("token_usage", "r0")
        with pytest.raises(ConfigError):
            registry.gauge("token_usage", "r0")

    def test_repeat_lookups_return_the_cached_handle(self):
        registry = TelemetryRegistry()
        for kind in ("counter", "gauge", "histogram"):
            lookup = getattr(registry, kind)
            first = lookup(f"{kind}_x", "r0", "engine", "s")
            # The first registration's layer and unit stick; a repeat
            # lookup finds the same instrument whatever it passes.
            for layer, unit in (("engine", "s"), ("", ""), ("memory", "B")):
                assert lookup(f"{kind}_x", "r0", layer, unit) is first
            assert first.spec.layer == "engine"
            assert first.spec.unit == "s"
            assert lookup(f"{kind}_x", "r1") is not first

    def test_kind_clash_rejected_after_cached_lookups(self):
        registry = TelemetryRegistry()
        gauge = registry.gauge("x")
        assert registry.gauge("x") is gauge
        with pytest.raises(ConfigError):
            registry.counter("x")
        with pytest.raises(ConfigError):
            registry.histogram("x")
        # The failed lookups registered nothing.
        assert registry.metrics() == [gauge]
        assert registry.gauge("x") is gauge

    def test_cached_lookups_leave_exports_unchanged(self):
        def drive(repeat: bool) -> TelemetryRegistry:
            registry = TelemetryRegistry()
            for step in range(3):
                if repeat or step == 0:
                    handles = (
                        registry.counter("reqs_total", "r0", "engine", "reqs"),
                        registry.gauge("token_usage", "r0", "engine", "tok"),
                        registry.histogram("ttft_seconds", "r0", "engine", "s"),
                        registry.gauge("kv_pool_usage", "r1", "memory"),
                    )
                counter, usage, ttft, pool = handles
                counter.inc(step + 1.0)
                usage.set(float(step), 10.0 * step)
                ttft.observe(0.5 * step)
                pool.set(float(step), 0.25 * step)
            return registry

        once, repeated = drive(repeat=False), drive(repeat=True)
        assert [m.spec for m in once.metrics()] == [
            m.spec for m in repeated.metrics()
        ]
        assert once.snapshot() == repeated.snapshot()
        assert once.render_prometheus() == repeated.render_prometheus()
        assert once.trace_records() == repeated.trace_records()

    def test_scope_qualifies_key(self):
        registry = TelemetryRegistry()
        a = registry.gauge("num_running_reqs", "r0")
        b = registry.gauge("num_running_reqs", "r1")
        assert a is not b
        assert a.spec.key == "num_running_reqs[r0]"
        assert registry.get("num_running_reqs", "r1") is b
        assert registry.get("num_running_reqs", "r7") is None

    def test_gauge_series(self):
        gauge = TelemetryRegistry().gauge("token_usage")
        assert gauge.last is None
        gauge.set(1.0, 0.25)
        gauge.set(2.0, 0.75)
        assert gauge.last == 0.75
        assert gauge.series() == [0.25, 0.75]

    def test_histogram_percentile_interpolation(self):
        histogram = TelemetryRegistry().histogram("ttft_seconds")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        # The shared estimator: rank = q/100 * (n-1), linearly
        # interpolated between the bracketing order statistics.
        assert histogram.percentile(50.0) == pytest.approx(2.5)
        assert histogram.percentile(25.0) == pytest.approx(1.75)
        assert histogram.percentile(0.0) == 1.0
        assert histogram.percentile(100.0) == 4.0
        assert histogram.mean() == pytest.approx(2.5)
        assert histogram.count == 4
        assert histogram.total == 10.0

    def test_histogram_empty_contract(self):
        histogram = TelemetryRegistry().histogram("ttft_seconds")
        with pytest.raises(ValueError):
            histogram.percentile(50.0)
        with pytest.raises(ValueError):
            histogram.mean()
        assert histogram.summary() is None

    def test_histogram_summary(self):
        histogram = TelemetryRegistry().histogram("e2e_latency_seconds")
        histogram.observe(3.0)
        summary = histogram.summary()
        assert summary == {"count": 1.0, "mean": 3.0, "p50": 3.0, "p99": 3.0}


class TestSequencing:
    def test_events_and_samples_share_one_sequence(self):
        registry = TelemetryRegistry()
        registry.emit(0.0, "request_admitted", scope="r0", request="a")
        registry.gauge("num_running_reqs", "r0").set(0.5, 1.0)
        registry.emit(1.0, "request_finished", scope="r0", request="a")
        records = registry.trace_records()
        assert [r["seq"] for r in records] == [0, 1, 2]
        assert [r["event"] for r in records] == [
            "request_admitted", "sample", "request_finished",
        ]
        sample = records[1]
        assert sample["metric"] == "num_running_reqs"
        assert sample["scope"] == "r0"
        assert sample["value"] == 1.0
        assert sample["time"] == 0.5

    def test_write_jsonl_round_trips(self, tmp_path):
        registry = TelemetryRegistry()
        registry.emit(0.0, "request_admitted", scope="r0", request="a")
        registry.gauge("batch_size", "r0").set(0.25, 2.0)
        path = tmp_path / "trace.jsonl"
        count = registry.write_jsonl(str(path))
        assert count == 2
        lines = path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == (
            registry.trace_records()
        )

    def test_to_json_shapes(self):
        registry = TelemetryRegistry()
        registry.counter("reqs_total", "r0", "engine", "reqs").inc(5)
        registry.emit(0.0, "request_admitted", scope="r0", request="a")
        document = registry.to_json()
        assert document["events"] == 1
        assert "trace" not in document
        [entry] = document["metrics"]
        assert entry["name"] == "reqs_total"
        assert entry["value"] == 5.0
        with_trace = registry.to_json(include_events=True)
        assert len(with_trace["trace"]) == 1
        json.dumps(with_trace)  # must be serializable as-is


class TestInstallPoint:
    def test_enabled_restores_previous(self):
        assert active() is None
        with enabled() as outer:
            assert active() is outer
            with enabled() as inner:
                assert inner is not outer
                assert active() is inner
            assert active() is outer
        assert active() is None

    def test_enabled_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with enabled():
                raise RuntimeError("boom")
        assert active() is None

    def test_install_uninstall(self):
        registry = TelemetryRegistry()
        try:
            assert install(registry) is registry
            assert active() is registry
        finally:
            uninstall()
        assert active() is None


def _counters(registry):
    return {
        instrument.spec.key: instrument.value
        for instrument in registry.metrics()
        if instrument.spec.kind == "counter"
    }


class TestInstrumentedRuns:
    def test_results_identical_with_telemetry_on(self):
        baseline = ext_sched_policy.run(count=40, qps=6.0)
        with enabled() as registry:
            observed = ext_sched_policy.run(count=40, qps=6.0)
        # Instruments observe the clock, they never advance it: every
        # output row — floats included — is unchanged.
        assert observed == baseline
        assert registry.events
        # Each policy cell ran one engine; per-scope admit/finish
        # totals close over the cell's 40 requests.
        events = [r["event"] for r in registry.trace_records()]
        assert events.count("request_finished") > 0
        for instrument in registry.metrics():
            if instrument.spec.name == "num_finished_reqs_total":
                assert instrument.value == 40.0

    def test_fast_forward_counters_match_legacy(self, monkeypatch):
        def sweep():
            with enabled() as registry:
                fig08_decode_throughput.run(
                    models=[(YI_6B, 1)], batches=(16,),
                    decode_iterations=60,
                )
            return registry

        monkeypatch.setattr(engine_module, "DEFAULT_FAST_FORWARD", True)
        fast = sweep()
        monkeypatch.setattr(engine_module, "DEFAULT_FAST_FORWARD", False)
        legacy = sweep()
        # A fast-forwarded stretch books the same iteration, token and
        # busy-second totals the legacy loop would, in one record.
        fast_counters = _counters(fast)
        legacy_counters = _counters(legacy)
        assert fast_counters.keys() == legacy_counters.keys()
        for key in legacy_counters:
            assert fast_counters[key] == pytest.approx(
                legacy_counters[key]
            ), key
        stretches = fast.get("fast_forward_stretch_iterations", "r0")
        assert stretches is not None and stretches.count > 0
        # ...and the fast run takes fewer gauge samples (one per
        # stretch, not one per iteration).
        def samples(registry):
            return sum(
                len(i.samples) for i in registry.metrics()
                if isinstance(i, Gauge)
            )

        assert samples(fast) < samples(legacy)


class TestDashboard:
    def test_empty_registry(self):
        assert render_dashboard(TelemetryRegistry()) == (
            "telemetry: no metrics recorded"
        )

    def test_layer_sections_and_instrument_lines(self):
        registry = TelemetryRegistry()
        registry.counter(
            "processed_tokens_total", "r0", "engine", "tok").inc(512)
        gauge = registry.gauge("num_running_reqs", "r0", "engine", "reqs")
        for step in range(4):
            gauge.set(float(step), float(step % 2))
        registry.histogram("ttft_seconds", "r0", "engine", "s").observe(1.5)
        registry.emit(0.0, "request_admitted", scope="r0", request="a")
        text = render_dashboard(registry)
        assert "telemetry dashboard (1 events)" in text
        assert "== engine ==" in text
        assert "processed_tokens_total[r0]" in text
        assert "num_running_reqs[r0]: last=1" in text
        assert "ttft_seconds[r0]: n=1" in text

    def test_zero_counters_render_plain(self):
        registry = TelemetryRegistry()
        registry.counter("num_preempted_reqs_total", "r0", "engine")
        text = render_dashboard(registry)
        assert "num_preempted_reqs_total[r0]: 0" in text


# ----------------------------------------------------------------------
# Record storage: what the registry keeps, and what it serializes
# ----------------------------------------------------------------------
def _tiered_preemption_registry() -> TelemetryRegistry:
    """A standalone engine under KV pressure with tiered preemption."""
    shard = ShardedModel(YI_6B, 1)
    prompt_len = 8_192
    with enabled(TelemetryRegistry(record_spans=True)) as registry:
        engine = LLMEngine(EngineConfig(
            shard=shard,
            gpu=A100,
            memory_backend="vattention",
            max_batch_size=4,
            kv_budget_bytes=int(
                3 * prompt_len * shard.kv_bytes_per_token * 1.02
            ),
            memory=MemoryConfig(preemption_mode="tiered"),
            eager_allocation=False,
        ))
        engine.submit(
            fixed_trace(count=3, prompt_len=prompt_len, max_new_tokens=400)
        )
        engine.run()
    return registry


def _two_drain_registry() -> TelemetryRegistry:
    """The re-route records test's cluster: two drains, KV carried."""
    from test_autoscaler import ScriptedPolicy, elastic_cluster

    requests = shared_prefix_trace(
        count=12, sharing_factor=12, prefix_tokens=1024, seed=11
    )
    for i, request in enumerate(requests):
        request.arrival_time = 0.05 * i
    with enabled(TelemetryRegistry(record_spans=True)) as registry:
        cluster = elastic_cluster(
            n_replicas=3, cache=True, max_batch=1, interval=0.5
        )
        cluster.autoscaler = ScriptedPolicy({1: -1, 2: -1})
        cluster.submit(requests)
        cluster.run()
    return registry


class TestSerializationGolden:
    """The JSONL files of two spans-on runs, pinned by sha256.

    Records are stored as compact rows and rebuilt as dicts at this
    boundary; the digests pin keys, key order and every value's JSON
    form (an int sample value turned float would print ``1.0``).
    """

    DIGESTS = {
        "tiered_preemption": (
            _tiered_preemption_registry,
            "78ec7f0d4102fac94ba2fe7933734f05051070642ab8f5f023e1d3822d7f7bdf",
            "23400cb44097254b13bacff00dd2bc7608eca769f87fd2d94171bdd98a1cabc7",
        ),
        "two_drain_cluster": (
            _two_drain_registry,
            "953cbfd5e05f53ed1e18f2e9e3374e529d44d829adb95538ca06e32f61fefe05",
            "5bafd88ca78f5f2c63b1dafe7f5b0f61fa7d0b1b2a2c9a567621460d09fb23b4",
        ),
    }

    @pytest.mark.parametrize("scenario", sorted(DIGESTS))
    def test_jsonl_digests(self, scenario, tmp_path):
        run, trace_digest, spans_digest = self.DIGESTS[scenario]
        registry = run()
        trace_path = tmp_path / "trace.jsonl"
        spans_path = tmp_path / "spans.jsonl"
        registry.write_jsonl(str(trace_path))
        write_spans_jsonl(registry.trace_records(), str(spans_path))
        assert _sha256(trace_path) == trace_digest
        assert _sha256(spans_path) == spans_digest


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestRecordMemory:
    """Telemetry's retained allocations per record, under tracemalloc.

    Only allocations made in ``telemetry.py`` count. Gauge samples are
    what :meth:`Gauge.set` retains; everything else the module retains
    is charged to the event and span rows.
    """

    #: Upper bounds, in bytes retained per record.
    ROW_BYTES = 250
    SAMPLE_BYTES = 40

    def test_retained_bytes_per_record(self):
        requests = sharegpt_trace(
            poisson_arrivals(qps=8.0, count=96, seed=3), seed=3
        )
        lines, first = inspect.getsourcelines(Gauge.set)
        set_lines = range(first, first + len(lines))
        tracemalloc.start()
        try:
            with enabled(TelemetryRegistry(record_spans=True)) as registry:
                cluster = ClusterEngine(ClusterConfig(
                    engine=EngineConfig(
                        shard=ShardedModel(YI_6B, 1),
                        gpu=A100,
                        memory_backend="vattention",
                        max_batch_size=8,
                    ),
                    n_replicas=2,
                    routing_policy="least_outstanding_tokens",
                ))
                cluster.submit(requests)
                cluster.run()
            # A full collection also empties the interpreter's free
            # lists, whose blocks tracemalloc would count as live.
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        snapshot = snapshot.filter_traces(
            [tracemalloc.Filter(True, telemetry_module.__file__)]
        )
        sample_bytes = row_bytes = 0
        for stat in snapshot.statistics("lineno"):
            if stat.traceback[0].lineno in set_lines:
                sample_bytes += stat.size
            else:
                row_bytes += stat.size
        rows = len(registry.events)
        samples = sum(
            len(i.samples) for i in registry.metrics()
            if isinstance(i, Gauge)
        )
        assert rows > 1_000 and samples > 1_000
        assert row_bytes / rows <= self.ROW_BYTES, (row_bytes, rows)
        assert sample_bytes / samples <= self.SAMPLE_BYTES, (
            sample_bytes, samples,
        )
