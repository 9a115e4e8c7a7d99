"""Wall-clock benchmark of the event-driven simulation core.

Measures decode-heavy serving runs with decode fast-forwarding on vs
off (``repro.sim``; everything else identical, reports bit-identical —
the benchmark verifies the simulated end state matches before trusting
a timing) and writes the results to ``BENCH_speed.json``, seeding the
repo's performance trajectory.

Cases (the decode-heavy end of the catalogue):

* ``fig09_offline_<system>`` — offline throughput on the
  arXiv-Summarization trace, one run per paper system.
* ``fig10_online`` — online Poisson load on FA2_vAttention.
* ``ext_cluster_router_4x`` — a 4-replica cache-aware fleet (2 in
  ``--quick``) on the decode-heavy variant of the cluster trace; this
  is the case the joint-horizon cluster loop is measured on.
* ``tiered_pressure`` — an OpenChat batch queued at t=0 under a tight
  KV budget with tiered preemption (the shape of perfbench's
  ``offline_tiered``): the free pool sits below vAttention's
  reclamation threshold, so this case covers the stretch hooks that
  the idle-reclamation proof skips.

Every row also prints the fast side's backend hook calls
(``DecodeFastForwarder.hook_calls``), iteration series evaluated
(``DecodeFastForwarder.series_evaluations``, at most one per backend
plan), vAttention manager slot visits and slot contexts recorded
(``VAttentionStats.slots_visited`` and ``contexts_recorded``, 0 on
paged backends), stretch proofs tried (``DecodeFastForwarder.proofs``)
and iterations stepped one at a time (``LLMEngine.stepped_iterations``),
each summed over a fleet's replicas; the cluster row adds the fast
side's radix-tree edge comparisons (``RadixTreeStats.edge_compares``,
summed over the replicas' trees).

Usage::

    python benchmarks/bench_speed.py            # full, asserts >= 5x
    python benchmarks/bench_speed.py --quick    # CI smoke: on beats off

The full run asserts the fig09-class aggregate speedup meets the 5x
target and the cluster case meets the 7x floor (the fleet-vectorized
loop measures ~8.5x locally; its analytic ceiling on this case is
~10x — the fast side's floor is the shared per-iteration cost of the
96 prefills, singleton stretches, and routing the slow side also
pays); ``--quick`` (CI's bench/speed job) only asserts that
fast-forwarding beats the per-iteration loop on the decode-heavy
case, keeping the job robust on noisy shared runners.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict, List

import repro.serving.engine as engine_module
from repro.experiments.common import paper_engine
from repro.experiments.ext_cluster_router import build_cluster, cluster_trace
from repro.gpu.spec import A100
from repro.memory import MemoryConfig
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.serving.engine import EngineConfig, LLMEngine
from repro.units import GB
from repro.workloads.arrival import poisson_arrivals
from repro.workloads.traces import (
    TraceSpec,
    arxiv_offline_trace,
    fixed_trace,
    openchat_trace,
)

FIG09_SYSTEMS = ("FA2_Paged", "FI_Paged", "FA2_vAttention")

#: Decode lengths of the cluster wall-clock case. The catalogue trace's
#: chat-sized decodes (mean 128) keep the experiment fast, but the
#: wall-clock benchmark measures the decode-heavy regime the joint
#: horizon exists for, so it replays the same trace with the decode
#: distribution scaled 3x (still inside the SLO-relevant range).
CLUSTER_BENCH_DECODE = TraceSpec(low=16, high=1_536, mean=384)


def _fig09_engine(system: str, count: int):
    engine = paper_engine(system, YI_6B, max_batch_size=48)
    engine.submit(arxiv_offline_trace(count=count, seed=2405))
    return engine


def _fig10_engine(count: int):
    engine = paper_engine("FA2_vAttention", YI_6B, max_batch_size=32)
    engine.submit(
        fixed_trace(
            count=count,
            prompt_len=4_096,
            max_new_tokens=256,
            arrivals=poisson_arrivals(qps=1.5, count=count, seed=4437),
        )
    )
    return engine


def _tiered_engine(count: int):
    shard = ShardedModel(YI_6B, 1)
    engine = LLMEngine(
        EngineConfig(
            shard=shard,
            gpu=A100,
            memory_backend="vattention",
            max_batch_size=96,
            kv_budget_bytes=6 * GB,
            memory=MemoryConfig(preemption_mode="tiered"),
        )
    )
    engine.submit(
        openchat_trace(
            arrivals=[0.0] * count, seed=2405, max_context=shard.max_context
        )
    )
    return engine


def _manager_count(engine, name: str) -> int:
    """One of the engine's vAttention manager counters (0 on other
    backends)."""
    manager = getattr(engine.memory.backend, "manager", None)
    return getattr(manager.stats, name) if manager is not None else 0


def _run_engine(build: Callable[[], object], fast_forward: bool):
    engine_module.DEFAULT_FAST_FORWARD = fast_forward
    engine = build()
    started = time.perf_counter()
    report = engine.run()
    elapsed = time.perf_counter() - started
    fingerprint = (
        repr(report.end_time),
        len(report.finished_requests),
        report.metrics.iteration_count(),
    )
    counters = {
        "hook_calls": engine._fast.hook_calls,
        "series_evaluations": engine._fast.series_evaluations,
        "slots_visited": _manager_count(engine, "slots_visited"),
        "contexts_recorded": _manager_count(engine, "contexts_recorded"),
        "proofs": engine._fast.proofs,
        "stepped_iterations": engine.stepped_iterations,
    }
    return elapsed, fingerprint, counters


def _run_cluster(build: Callable[[], object], fast_forward: bool):
    engine_module.DEFAULT_FAST_FORWARD = fast_forward
    cluster = build()
    started = time.perf_counter()
    report = cluster.run()
    elapsed = time.perf_counter() - started
    fingerprint = (
        repr(report.end_time),
        len(report.finished_records),
        tuple(repr(latency) for latency in sorted(report.e2e_latencies())),
    )
    engines = [r.engine for r in cluster.replicas]
    counters = {
        "hook_calls": sum(e._fast.hook_calls for e in engines),
        "series_evaluations": sum(
            e._fast.series_evaluations for e in engines
        ),
        "slots_visited": sum(
            _manager_count(e, "slots_visited") for e in engines
        ),
        "contexts_recorded": sum(
            _manager_count(e, "contexts_recorded") for e in engines
        ),
        "proofs": sum(e._fast.proofs for e in engines),
        "stepped_iterations": sum(e.stepped_iterations for e in engines),
        "edge_compares": sum(
            e.memory.cache.tree.stats.edge_compares for e in engines
        ),
    }
    return elapsed, fingerprint, counters


def measure(
    name: str,
    build: Callable[[], object],
    runner: Callable,
    repeats: int,
) -> Dict:
    """Best-of-N wall-clock for both modes, with end-state verification."""
    fast_times: List[float] = []
    slow_times: List[float] = []
    fast_state = slow_state = None
    for _ in range(repeats):
        elapsed, fast_state, counters = runner(build, True)
        fast_times.append(elapsed)
        elapsed, slow_state, _ = runner(build, False)
        slow_times.append(elapsed)
    if fast_state != slow_state:
        raise AssertionError(
            f"{name}: fast-forwarded end state diverged from the "
            f"per-iteration loop: {fast_state} != {slow_state}"
        )
    fast = min(fast_times)
    slow = min(slow_times)
    row = {
        "case": name,
        "fast_seconds": round(fast, 6),
        "slow_seconds": round(slow, 6),
        "speedup": round(slow / fast, 3),
        **counters,
    }
    print(
        f"  {name:<28} fast {fast * 1e3:8.1f}ms   "
        f"slow {slow * 1e3:8.1f}ms   {slow / fast:5.2f}x   "
        + "   ".join(f"{key} {value}" for key, value in counters.items())
    )
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced scale for CI: asserts on-beats-off only",
    )
    parser.add_argument(
        "--output", default="BENCH_speed.json", help="result JSON path"
    )
    args = parser.parse_args(argv)

    fig09_count = 40 if args.quick else 120
    fig10_count = 32 if args.quick else 96
    cluster_replicas = 2 if args.quick else 4
    cluster_count = 24 if args.quick else 96
    tiered_count = 300 if args.quick else 750
    repeats = 1 if args.quick else 2

    print(
        f"decode fast-forwarding wall-clock "
        f"({'quick' if args.quick else 'full'} scale)"
    )
    rows: List[Dict] = []
    for system in FIG09_SYSTEMS:
        rows.append(
            measure(
                f"fig09_offline_{system}",
                lambda system=system: _fig09_engine(system, fig09_count),
                _run_engine,
                repeats,
            )
        )
    rows.append(
        measure(
            "fig10_online",
            lambda: _fig10_engine(fig10_count),
            _run_engine,
            repeats,
        )
    )

    def build_fleet():
        cluster = build_cluster(cluster_replicas, "cache_aware")
        cluster.submit(
            cluster_trace(
                count=cluster_count,
                sharing_factor=4,
                qps=10.0,
                decode_spec=CLUSTER_BENCH_DECODE,
            )
        )
        return cluster

    cluster_row = measure(
        f"ext_cluster_router_{cluster_replicas}x",
        build_fleet,
        _run_cluster,
        repeats,
    )
    rows.append(cluster_row)
    rows.append(
        measure(
            "tiered_pressure",
            lambda: _tiered_engine(tiered_count),
            _run_engine,
            repeats,
        )
    )

    fig09_rows = [r for r in rows if r["case"].startswith("fig09")]
    fig09_fast = sum(r["fast_seconds"] for r in fig09_rows)
    fig09_slow = sum(r["slow_seconds"] for r in fig09_rows)
    fig09_speedup = fig09_slow / fig09_fast
    cluster_speedup = cluster_row["speedup"]
    payload = {
        "benchmark": "bench_speed",
        "quick": args.quick,
        "cases": rows,
        "fig09_class_speedup": round(fig09_speedup, 3),
        "cluster_speedup": cluster_speedup,
    }
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    print(f"fig09-class aggregate speedup: {fig09_speedup:.2f}x")
    print(f"cluster speedup: {cluster_speedup:.2f}x")
    print(f"wrote {args.output}")

    # The decode-heavy case must always win with fast-forwarding on.
    decode_heavy = max(fig09_rows, key=lambda r: r["speedup"])
    assert decode_heavy["speedup"] > 1.0, (
        f"fast-forwarding lost on {decode_heavy['case']}: "
        f"{decode_heavy['speedup']}x"
    )
    assert cluster_row["speedup"] > 1.0, (
        f"fast-forwarding lost on {cluster_row['case']}: "
        f"{cluster_row['speedup']}x"
    )
    if not args.quick:
        assert fig09_speedup >= 5.0, (
            f"fig09-class speedup {fig09_speedup:.2f}x misses the 5x target"
        )
        assert cluster_speedup >= 7.0, (
            f"cluster speedup {cluster_speedup:.2f}x misses the 7x target"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
