"""Cluster-scale wall-clock benchmark: a day in the life of a fleet.

Replays a one-million-request diurnal trace — arrivals drawn from a
four-phase Markov-modulated Poisson process (night trough, morning
ramp, afternoon plateau, evening peak) — through an elastically
autoscaled fleet of up to 16 replicas with joint-horizon cluster
fast-forwarding on, and asserts the whole simulated day completes in
single-digit minutes of wall clock. This is the scale target the
joint-horizon loop exists for: per-iteration simulation of the same
day is hours, not minutes.

The fleet is decode-bound (the prefix cache is enabled only for the
``cache_aware`` router, which needs trees to probe) and routed, by
default, by the state-aware ``least_outstanding_tokens`` policy: the fast loop
then routes whole arrival windows against *analytic* replica views
(persistent closed-form backlog predictors), which is the windowed
path the analytic router-state replay exists for. ``--router
round_robin`` routes the same windows but reads no replica view, so no
view is ever synced and the day is correspondingly faster — both are
gated in CI.

Usage::

    python benchmarks/bench_scale.py                   # 1M requests, full budget
    python benchmarks/bench_scale.py --quick           # 20k requests, CI smoke
    python benchmarks/bench_scale.py --router round_robin
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from typing import List

from repro.cluster import ClusterConfig, ClusterEngine
from repro.gpu.spec import A100
from repro.memory import MemoryConfig
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.serving.engine import EngineConfig
from repro.serving.request import Request
from repro.workloads.arrival import mmpp_arrivals
from repro.workloads.traces import TraceSpec

#: The simulated day: phase arrival rates (requests/second) and mean
#: dwells (seconds). Rates average ~11.6 qps over the cycle, so one
#: million requests span roughly 24 simulated hours.
DAY_RATES = (3.0, 11.5, 14.5, 17.5)
DAY_DWELLS = (21_600.0, 21_600.0, 21_600.0, 21_600.0)

#: Chat-sized prompts and decodes (ShareGPT-like central range).
PROMPT_SPEC = TraceSpec(low=128, high=2_048, mean=512)
DECODE_SPEC = TraceSpec(low=16, high=512, mean=128)

MAX_BATCH = 8
MIN_REPLICAS = 2
MAX_REPLICAS = 16
COLD_START_SECONDS = 2.0
WARMUP_SECONDS = 1.0
SCALE_DECIDE_INTERVAL = 5.0
SLO_TTFT = 8.0
SLO_WINDOW_SECONDS = 60.0
QUEUE_HIGH_WATERMARK = 16_384
QUEUE_LOW_WATERMARK = 2_048

FULL_COUNT = 1_000_000
QUICK_COUNT = 20_000

#: Routing policies the benchmark knows how to drive. The state-aware
#: default exercises the analytic router-state replay; ``cache_aware``
#: adds frozen-tree prefix probes on top (its fleet runs with the
#: prefix cache enabled — probes mostly miss on the chat-shaped day,
#: but the full windowed probe path executes); ``round_robin`` reads no
#: view, so its windows route as pure bookkeeping.
ROUTERS = ("least_outstanding_tokens", "cache_aware", "round_robin")
DEFAULT_ROUTER = "least_outstanding_tokens"

#: Wall-clock ceilings the run must beat (seconds), per router. The
#: state-aware day costs more wall than the round-robin one (every
#: window still pays analytic backlog probes and predictor rebuilds at
#: arrival instants), so each regime carries its own honest budget —
#: ~40% headroom over the measured reference runs (488 s state-aware,
#: 343 s round-robin), the same margin the previous 600 s / 413 s pin
#: carried.
FULL_BUDGET_SECONDS = {
    "least_outstanding_tokens": 650.0,
    "cache_aware": 650.0,
    "round_robin": 480.0,
}
QUICK_BUDGET_SECONDS = 120.0

TRACE_SEED = 60_251
ARRIVAL_SEED = 60_257


def day_trace(count: int, dwell_scale: float = 1.0) -> List[Request]:
    """``count`` diurnal-MMPP requests with sampled chat-sized shapes.

    ``dwell_scale`` compresses the day: the quick run shrinks each
    phase so its 20k requests still sweep one full diurnal cycle
    (rates — and thus fleet pressure — are unchanged).
    """
    arrivals = mmpp_arrivals(
        rates=DAY_RATES,
        dwells=tuple(dwell * dwell_scale for dwell in DAY_DWELLS),
        count=count,
        seed=ARRIVAL_SEED,
    )
    rng = random.Random(TRACE_SEED)
    return [
        Request(
            request_id=f"day-{index:07d}",
            prompt_len=PROMPT_SPEC.sample(rng),
            max_new_tokens=DECODE_SPEC.sample(rng),
            arrival_time=arrival,
        )
        for index, arrival in enumerate(arrivals)
    ]


def build_fleet(router: str = DEFAULT_ROUTER) -> ClusterEngine:
    """An elastic Yi-6B fleet, 2 to 16 replicas, routed by ``router``.

    ``cache_aware`` is the one router that needs radix trees to probe,
    so it (and only it) runs with the prefix cache enabled — the
    chat-shaped day has essentially no shared prefixes, so the probes
    mostly miss, but the full windowed frozen-tree probe path executes.
    """
    engine = EngineConfig(
        shard=ShardedModel(YI_6B, 1),
        gpu=A100,
        memory_backend="vattention",
        max_batch_size=MAX_BATCH,
        memory=MemoryConfig(enable_prefix_cache=(router == "cache_aware")),
    )
    return ClusterEngine(
        ClusterConfig(
            engine=engine,
            n_replicas=MIN_REPLICAS,
            routing_policy=router,
            autoscaler="queue_depth",
            min_replicas=MIN_REPLICAS,
            max_replicas=MAX_REPLICAS,
            cold_start_seconds=COLD_START_SECONDS,
            warmup_seconds=WARMUP_SECONDS,
            scale_decide_interval=SCALE_DECIDE_INTERVAL,
            slo_ttft=SLO_TTFT,
            slo_window_seconds=SLO_WINDOW_SECONDS,
            queue_high_watermark=QUEUE_HIGH_WATERMARK,
            queue_low_watermark=QUEUE_LOW_WATERMARK,
            label="day_in_the_life",
        )
    )


def work_counters(cluster: ClusterEngine) -> dict:
    """The fleet's exact work counters, summed over every replica it
    ever ran: stretch proofs, backend plans, stretches and resumed
    stretches, iterations run analytically and one at a time, backend
    hook calls, iteration series evaluated, replica-view full syncs,
    O(1) answers and predictor builds, and the vAttention managers'
    slot visits and slot contexts recorded."""
    engines = [replica.engine for replica in cluster.replicas]
    fast = [engine._fast for engine in engines]
    return {
        "proofs": sum(f.proofs for f in fast),
        "plans": sum(f.plans for f in fast),
        "stretches": sum(f.stretches for f in fast),
        "resumes": sum(f.resumes for f in fast),
        "analytic_iterations": sum(f.analytic_iterations for f in fast),
        "stepped_iterations": sum(e.stepped_iterations for e in engines),
        "hook_calls": sum(f.hook_calls for f in fast),
        "series_evaluations": sum(f.series_evaluations for f in fast),
        "view_syncs": cluster.view_syncs,
        "view_answers": cluster.view_answers,
        "oracle_builds": cluster.oracle_builds,
        "slots_visited": sum(
            engine.memory.backend.manager.stats.slots_visited
            for engine in engines
        ),
        "contexts_recorded": sum(
            engine.memory.backend.manager.stats.contexts_recorded
            for engine in engines
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced scale for CI (20k requests)",
    )
    parser.add_argument(
        "--output", default="BENCH_scale.json", help="result JSON path"
    )
    parser.add_argument(
        "--router",
        choices=ROUTERS,
        default=DEFAULT_ROUTER,
        help="fleet routing policy (state-aware by default)",
    )
    args = parser.parse_args(argv)

    count = QUICK_COUNT if args.quick else FULL_COUNT
    budget = (
        QUICK_BUDGET_SECONDS
        if args.quick
        else FULL_BUDGET_SECONDS[args.router]
    )

    print(
        f"day-in-the-life cluster bench "
        f"({'quick' if args.quick else 'full'} scale, {count:,} requests, "
        f"{args.router} routing)"
    )
    started = time.perf_counter()
    dwell_scale = QUICK_COUNT / FULL_COUNT if args.quick else 1.0
    trace = day_trace(count, dwell_scale=dwell_scale)
    trace_seconds = time.perf_counter() - started

    cluster = build_fleet(args.router)
    cluster.submit(trace)
    started = time.perf_counter()
    report = cluster.run()
    wall_seconds = time.perf_counter() - started

    finished = len(report.finished_records)
    assert finished == count, (
        f"only {finished:,} of {count:,} requests finished"
    )

    sim_seconds = report.makespan
    payload = {
        "benchmark": "bench_scale",
        "quick": args.quick,
        "router": args.router,
        "count": count,
        "trace_seconds": round(trace_seconds, 3),
        "wall_seconds": round(wall_seconds, 3),
        "sim_seconds": round(sim_seconds, 3),
        "sim_hours": round(sim_seconds / 3600.0, 3),
        "requests_per_wall_second": round(count / wall_seconds, 1),
        "speed_ratio": round(sim_seconds / wall_seconds, 1),
        "peak_serving": report.peak_serving,
        "replica_seconds": round(report.replica_seconds, 1),
        "scale_events": len(report.scale_events),
        "p99_ttft": round(report.p99_ttft(), 4),
        "budget_seconds": budget,
        "work": work_counters(cluster),
        # Linux reports ru_maxrss in KiB. Recorded, not gated.
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
        ),
    }
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    print(
        f"  simulated {sim_seconds / 3600.0:6.2f}h of fleet time in "
        f"{wall_seconds:7.1f}s wall ({count / wall_seconds:,.0f} req/s, "
        f"{sim_seconds / wall_seconds:,.0f}x real time)"
    )
    print(
        f"  peak {report.peak_serving} serving replicas, "
        f"{len(report.scale_events)} scale events, "
        f"p99 TTFT {report.p99_ttft():.2f}s"
    )
    work = ", ".join(f"{name} {n:,}" for name, n in payload["work"].items())
    print(f"  work: {work}")
    print(f"  peak RSS {payload['peak_rss_mb']:.1f} MB")
    print(f"wrote {args.output}")

    assert wall_seconds < budget, (
        f"day-in-the-life run took {wall_seconds:.1f}s; "
        f"budget is {budget:.0f}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
