"""Extension: why stock unified memory fails for serving (paper S8.1).

Runs the same churning chat workload through the ``uvm``
(cudaMallocManaged-style) backend and the vAttention backend on an
identical memory budget, tracking committed physical memory over time.

Expected shape: UVM's committed memory only ratchets upward (no partial
freeing) until requests stop fitting, while vAttention's tracks the
live working set — so vAttention sustains a larger batch on the same
device. This is the quantitative version of the paper's qualitative
S8.1 argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import AllocationFailed
from ..gpu.spec import A100, GpuSpec
from ..models.shard import ShardedModel
from ..models.zoo import YI_6B
from ..serving.engine import EngineConfig, LLMEngine
from ..units import GB
from ..workloads.arrival import poisson_arrivals
from ..workloads.traces import openchat_trace

KV_BUDGET = 8 * GB
REQUESTS = 300
QPS = 6.0


@dataclass(frozen=True)
class UvmComparison:
    """Outcome of one backend's run."""

    backend: str
    finished: int
    makespan: float
    peak_batch: int
    #: Physical bytes still committed when the run ends.
    final_committed: int
    #: Whether the run aborted because memory could not be reclaimed.
    died_of_oom: bool = False

    @property
    def requests_per_minute(self) -> float:
        """Serving throughput."""
        return 60.0 * self.finished / self.makespan


def run_backend(
    backend: str,
    gpu: GpuSpec = A100,
    request_count: int = REQUESTS,
    qps: float = QPS,
    seed: int = 81,
) -> UvmComparison:
    """Serve the churn workload on one backend."""
    engine = LLMEngine(
        EngineConfig(
            shard=ShardedModel(YI_6B, 1),
            gpu=gpu,
            memory_backend=backend,
            max_batch_size=128,
            kv_budget_bytes=KV_BUDGET,
        )
    )
    arrivals = poisson_arrivals(qps, request_count, seed=seed)
    engine.submit(openchat_trace(arrivals, seed=seed))
    try:
        report = engine.run()
        died = False
    except AllocationFailed:
        # The UVM failure mode the paper predicts: committed memory
        # cannot be reclaimed, so eventually nothing can grow.
        report = engine.partial_report()
        died = True
    if backend == "uvm":
        committed = engine.memory.backend.committed_bytes
    else:
        committed = engine.memory.backend.manager.physical_bytes_in_use
    return UvmComparison(
        backend=backend,
        finished=len(report.finished_requests),
        makespan=report.makespan,
        peak_batch=max(r.batch_size for r in report.metrics.iterations),
        final_committed=committed,
        died_of_oom=died,
    )


def run(
    gpu: GpuSpec = A100, request_count: int = REQUESTS, qps: float = QPS
) -> List[UvmComparison]:
    """Both backends on the same budget and trace."""
    return [
        run_backend("uvm", gpu=gpu, request_count=request_count, qps=qps),
        run_backend("vattention", gpu=gpu, request_count=request_count, qps=qps),
    ]


def main() -> None:
    """Print the comparison."""
    print(f"UVM vs vAttention on a churning chat trace "
          f"({REQUESTS} requests, {QPS} QPS, {KV_BUDGET / GB:.0f}GB KV budget)")
    for row in run():
        note = "  ** run died: memory unreclaimable **" if row.died_of_oom else ""
        print(
            f"  {row.backend:>10}: {row.finished:>3} finished, "
            f"{row.requests_per_minute:6.1f} req/min, "
            f"peak batch {row.peak_batch:>3}, committed at end "
            f"{row.final_committed / GB:5.2f}GB{note}"
        )


if __name__ == "__main__":
    main()
