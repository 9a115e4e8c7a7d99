"""Golden latency attributions pinning the attribution walk.

:func:`repro.metrics.attribution.build` partitions every traced
request's ``[arrival, finish]`` window into phase buckets. Its output
is embedded in every spans-on run report, so any rewrite of the walk
must reproduce it exactly — every bucket, every TTFT-clipped bucket,
every closure error, down to the float.

``tests/golden/attribution.json`` was captured by running this module
standalone::

    PYTHONPATH=src:tests python tests/attribution_golden.py

and :mod:`tests.test_attribution_golden` rebuilds every scenario on the
current code and compares with exact equality. The scenarios cover a
small autoscaled chat-day fleet, a drain with cached-prefix KV
migrations nested under their re-routes, a disaggregated fleet whose
``#prefill``/``#decode`` clones stitch back into logical requests, a
tiered-preemption engine (``preempted`` and ``admission`` spans), and
hand-built traces — well-formed and deliberately ill-formed — that
exercise the walk's gap, clipping, nesting and tie-break rules.
Regenerate the golden only for a deliberate, understood change.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List

from repro.cluster import ClusterConfig, ClusterEngine
from repro.gpu.spec import A100
from repro.memory import MemoryConfig
from repro.metrics import attribution
from repro.metrics.telemetry import TelemetryRegistry, enabled
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.serving.engine import EngineConfig, LLMEngine
from repro.workloads.arrival import poisson_arrivals
from repro.workloads.traces import fixed_trace, sharegpt_trace

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "attribution.json"
)

Records = List[Dict[str, Any]]


def _engine_config(**overrides) -> EngineConfig:
    defaults = dict(
        shard=ShardedModel(YI_6B, 1),
        gpu=A100,
        memory_backend="vattention",
        max_batch_size=8,
    )
    defaults.update(overrides)
    return EngineConfig(**defaults)


def _chat_day_fleet() -> Records:
    """A quiet-busy-quiet day on a 1-3 replica queue-depth fleet."""
    arrivals: List[float] = []
    offset = 0.0
    for qps, count in ((1.0, 12), (12.0, 60), (1.0, 12)):
        arrivals += poisson_arrivals(
            qps=qps, count=count, seed=len(arrivals), start=offset
        )
        offset = arrivals[-1]
    requests = sharegpt_trace(arrivals, seed=11)
    with enabled(TelemetryRegistry(record_spans=True)) as registry:
        cluster = ClusterEngine(ClusterConfig(
            engine=_engine_config(memory=MemoryConfig(
                enable_prefix_cache=False
            )),
            n_replicas=1,
            routing_policy="least_outstanding_tokens",
            autoscaler="queue_depth",
            min_replicas=1,
            max_replicas=3,
            cold_start_seconds=2.0,
            warmup_seconds=1.0,
            scale_decide_interval=1.0,
            queue_high_watermark=4_096,
            queue_low_watermark=512,
        ))
        cluster.submit(requests)
        cluster.run()
    return registry.trace_records()


def _drain_with_cache() -> Records:
    """The span test's drain run: ``kv_migration`` under re-routes."""
    from test_spans import TestDrainRerouteSpans

    registry, _ = TestDrainRerouteSpans()._drain_run(cache=True)
    return registry.trace_records()


def _disaggregated_fleet() -> Records:
    """One prefill and two decode replicas: stage clones stitch back."""
    requests = sharegpt_trace(
        poisson_arrivals(qps=6.0, count=24, seed=5), seed=5
    )
    with enabled(TelemetryRegistry(record_spans=True)) as registry:
        cluster = ClusterEngine(ClusterConfig(
            engine=_engine_config(),
            n_replicas=3,
            disaggregated=True,
            n_prefill_replicas=1,
        ))
        cluster.submit(requests)
        cluster.run()
    return registry.trace_records()


def _tiered_preemption() -> Records:
    """KV pressure with tiered preemption: evict, swap in, re-admit."""
    shard = ShardedModel(YI_6B, 1)
    prompt_len = 8_192
    with enabled(TelemetryRegistry(record_spans=True)) as registry:
        engine = LLMEngine(_engine_config(
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
    return registry.trace_records()


def span(span_id: int, phase: str, start: float, end: float,
         scope: str = "r0", request: str = "a", parent=None,
         **extras) -> Dict[str, Any]:
    """One hand-built span record (the registry's schema)."""
    record = {
        "seq": span_id, "time": end, "event": "span", "span": span_id,
        "phase": phase, "scope": scope, "request": request,
        "start": start, "end": end, **extras,
    }
    if parent is not None:
        record["parent"] = parent
    return record


def _replica_init(seq: int, replica: int, role: str,
                  scope: str) -> Dict[str, Any]:
    return {
        "seq": seq, "time": 0.0, "event": "replica_init", "cluster": "c0",
        "replica": replica, "role": role, "state": "serving",
        "scope": scope,
    }


def _dominant_tail() -> Records:
    """Ten requests; the last waits twenty times longer in the queue."""
    records: Records = []
    for index in range(10):
        wait = 10.0 if index == 9 else 0.5
        base = index * 100.0
        request = f"q{index}"
        records += [
            span(3 * index, "queue_wait", base, base + wait,
                 request=request),
            span(3 * index + 1, "decode", base + wait, base + wait + 1.0,
                 request=request),
            span(3 * index + 2, "request", base, base + wait + 1.0,
                 request=request, first_token=base + wait),
        ]
    return records


#: Hand-built traces: the walk's unit cases plus ill-formed shapes the
#: span checker would flag but attribution must still partition.
HAND_BUILT: Dict[str, Records] = {
    "partition": [
        span(0, "queue_wait", 0.0, 2.0),
        span(1, "prefill", 2.0, 3.0),
        span(2, "decode", 4.0, 9.0),
        span(3, "request", 0.0, 10.0, first_token=3.0),
    ],
    "gap_into_queueing": [
        span(0, "drain_reroute", 3.0, 4.0, original_arrival=0.0),
        span(1, "decode", 4.0, 6.0),
        span(2, "request", 3.0, 6.0),
    ],
    "nested_child": [
        span(0, "drain_reroute", 0.0, 4.0),
        span(1, "kv_migration", 1.0, 2.0, parent=0),
        span(2, "request", 0.0, 4.0),
    ],
    "disagg_stitch": [
        _replica_init(0, 0, "prefill", "r0"),
        _replica_init(1, 1, "decode", "r1"),
        span(10, "prefill", 0.0, 1.0, scope="r0", request="q#prefill"),
        span(11, "request", 0.0, 1.0, scope="r0", request="q#prefill",
             first_token=1.0),
        span(12, "kv_migration", 1.0, 2.0, scope="c0", request="q"),
        span(13, "decode", 2.0, 5.0, scope="r1", request="q#decode"),
        span(14, "request", 2.0, 5.0, scope="r1", request="q#decode"),
    ],
    "dominant_tail": _dominant_tail(),
    # Ill-formed: overlapping top-level spans are clipped, a span that
    # escapes the request window is cut at finish, and spans tied on
    # (start, end) are walked in span-id order, not record order.
    "overlap_and_escape": [
        span(5, "decode", 3.0, 4.0),
        span(4, "prefill", 3.0, 4.0),
        span(0, "queue_wait", 0.0, 2.5),
        span(1, "prefill", 2.0, 3.5),
        span(6, "decode", 4.5, 12.0),
        span(7, "request", 0.0, 10.0, first_token=3.2),
    ],
    # Ill-formed: children that escape their parent, overlap each
    # other, tie on (start, end) (kept in record order), and one whose
    # parent never appears (dropped from the walk, so the request no
    # longer closes).
    "ill_formed_children": [
        span(0, "drain_reroute", 1.0, 5.0, original_arrival=0.5),
        span(1, "kv_migration", 0.0, 2.0, parent=0, kind="drain"),
        span(2, "kv_migration", 1.5, 3.0, parent=0, kind="drain"),
        span(3, "preempted", 3.5, 4.0, parent=0),
        span(4, "admission", 3.5, 4.0, parent=0),
        span(5, "kv_migration", 4.5, 7.0, parent=0),
        span(6, "decode", 5.0, 6.0),
        span(7, "decode", 6.5, 7.5, parent=99),
        span(8, "request", 1.0, 8.0, first_token=6.0),
    ],
    # Ill-formed: two roots for one logical request (the later
    # finish and earlier first token win), a span before the recorded
    # arrival, a zero-length span, a request with no root (skipped),
    # spans listed out of time order, and a replica binding recorded
    # after the spans it folds into the cluster.
    "roots_and_order": [
        _replica_init(20, 0, "prefill", "r0"),
        span(3, "decode", 6.0, 9.0, scope="r1", request="x#decode"),
        span(0, "queue_wait", -1.0, 1.0, request="x#prefill"),
        span(1, "prefill", 1.0, 1.0, request="x#prefill"),
        span(2, "prefill", 1.0, 2.0, request="x#prefill"),
        span(4, "request", 0.0, 2.0, request="x#prefill",
             first_token=2.0),
        span(5, "request", 5.0, 9.0, scope="r1", request="x#decode",
             first_token=6.5),
        span(6, "queue_wait", 0.0, 3.0, request="orphan"),
        span(7, "decode", 3.0, 4.0, request="orphan"),
        span(8, "request", 0.0, 1.0, scope="r2", request="y"),
        _replica_init(21, 1, "decode", "r1"),
    ],
}

#: Scenario name -> merged trace records.
SCENARIOS: Dict[str, Callable[[], Records]] = {
    "chat_day_fleet": _chat_day_fleet,
    "drain_with_cache": _drain_with_cache,
    "disaggregated_fleet": _disaggregated_fleet,
    "tiered_preemption": _tiered_preemption,
    **{
        f"hand_built:{name}": (lambda records=records: records)
        for name, records in HAND_BUILT.items()
    },
}


def _row(row: attribution.RequestAttribution) -> Dict[str, Any]:
    return {
        "request": row.request,
        "domain": row.domain,
        "replica_scope": row.replica_scope,
        "arrival": row.arrival,
        "first_token": row.first_token,
        "finish": row.finish,
        "buckets": row.buckets,
        "ttft_buckets": row.ttft_buckets,
        "closure_error": row.closure_error,
    }


def attribute(records: Records) -> Dict[str, Any]:
    """A trace's attribution: the whole-trace report, every row, and
    the report restricted to each domain (what run reports embed)."""
    report = attribution.build(records)
    domains = sorted({row.domain for row in report.requests})
    return json.loads(json.dumps({
        "report": report.to_json(),
        "rows": [_row(row) for row in report.requests],
        "by_domain": {
            domain: attribution.build(records, domains={domain}).to_json()
            for domain in domains
        },
    }))


def capture() -> Dict[str, Dict[str, Any]]:
    return {name: attribute(SCENARIOS[name]()) for name in sorted(SCENARIOS)}


def main() -> None:
    payload = capture()
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
