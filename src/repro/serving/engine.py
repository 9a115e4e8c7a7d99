"""Continuous-batching LLM serving engine (paper Algorithm 1).

The engine mirrors vLLM v0.2.7's iteration-level scheduler, which the
paper uses as the common serving framework for every configuration.
Scheduling decisions — admission order, iteration shape, preemption
victim — are delegated to a pluggable :class:`~repro.scheduling.base.
SchedulerPolicy` (``EngineConfig.scheduler_policy``); under the default
FCFS policy the loop is byte-identical to the paper's setup:

* FCFS admission whenever the memory backend can hold the new prompt,
* a *prefill* iteration processes one admitted prompt in full (a
  *mixed* iteration runs a bounded prefill chunk plus every running
  decode under the chunking policies),
* a *decode* iteration advances every running request by one token,
* on memory exhaustion, the most recently admitted request is preempted
  and recomputed later (vLLM's default policy, paper S5.3.3).

Iteration latency = memory preparation (synchronous allocation, if any)
+ linear operators + attention kernel + framework CPU work (Block-Table
preparation, KV append, scheduler/sampler overhead). Everything advances
one shared simulated clock, so request latencies and throughput come out
of clock arithmetic.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Sequence

from ..core.config import VAttentionConfig
from ..errors import AllocationFailed, ConfigError
from ..gpu.device import Device
from ..gpu.spec import GpuSpec
from ..kernels.base import AttentionKernel, KvLayout
from ..kernels.costmodel import (
    decode_weight_stream_time,
    linear_decode_time,
    linear_prefill_time,
)
from ..kernels.registry import get_kernel
from ..metrics.collector import IterationRecord, MetricsCollector, RunReport
from ..metrics import attribution
from ..metrics.telemetry import EngineTelemetry
from ..metrics.telemetry import active as active_telemetry
from ..models.shard import ShardedModel
from ..scheduling import (
    DEFAULT_TOKEN_BUDGET,
    PlanKind,
    SchedulerPolicy,
    SchedulingView,
    make_scheduler_policy,
    validate_scheduler_policy,
)
from ..memory.config import MemoryConfig
from ..memory.manager import MemoryManager
from ..memory.tier import CpuKvTier
from ..sim.fastforward import DecodeFastForwarder
from ..units import GB, MB, us
from .memory import (
    MemoryBackend,
    PagedMemory,
    StaticMemory,
    UvmMemory,
    VAttentionMemory,
)
from .request import Request, RequestState

#: Python/scheduler/sampler CPU cost per iteration (vLLM's Python loop).
ITERATION_CPU_OVERHEAD = 2e-3

#: Per-sequence CPU cost per iteration (sampling, detokenization, state).
PER_SEQ_CPU_OVERHEAD = us(40)

#: Activation / workspace memory reserved per worker besides weights.
DEFAULT_WORKSPACE_BYTES = 4 * GB

#: Default for :attr:`EngineConfig.fast_forward`. A module-level
#: constant (read at construction time) so equivalence sweeps can flip
#: a whole experiment run without threading a knob through every
#: driver: ``monkeypatch.setattr(engine_module, "DEFAULT_FAST_FORWARD",
#: False)``.
DEFAULT_FAST_FORWARD = True


def _default_fast_forward() -> bool:
    return DEFAULT_FAST_FORWARD


@dataclass
class EngineConfig:
    """Configuration of one serving-engine instance.

    ``memory_backend`` selects the allocation strategy; kernel names
    select the attention latency models. Consistency between kernel
    layout and backend layout is validated at construction — e.g.
    running a non-paged decode kernel on a PagedAttention pool is
    impossible, which is the paper's portability argument in code.

    Memory-subsystem knobs (preemption policy, CPU tier, prefix cache)
    live in the nested :class:`~repro.memory.MemoryConfig`
    (``memory=``).
    """

    shard: ShardedModel
    gpu: GpuSpec
    memory_backend: str  # "vattention" | "paged" | "static"
    prefill_kernel: str = "fa2"
    decode_kernel: str = "fa2"
    max_batch_size: int = 32
    #: Paged backends: KV block size in tokens.
    block_size: int = 16
    #: vAttention: physical allocation granularity.
    page_group_size: int = 2 * MB
    #: vAttention optimization switches (ablations).
    deferred_reclamation: bool = True
    eager_allocation: bool = True
    overlap_allocation: bool = True
    tensor_slicing: bool = False
    workspace_bytes: int = DEFAULT_WORKSPACE_BYTES
    #: Cap the per-worker KV cache budget (None = all memory left after
    #: weights + workspace). Capacity experiments use this to match a
    #: deployment's effective serving budget.
    kv_budget_bytes: Optional[int] = None
    #: Sarathi-style chunked prefill (paper ref [36]): process prompts
    #: in chunks of this many tokens, piggybacked onto decode
    #: iterations so ongoing decodes never stall behind a long prompt.
    #: None = monolithic prefill (the paper's evaluation setting).
    #: Under the "hybrid" policy this acts as an *additional* cap on
    #: the budget-derived chunk.
    prefill_chunk_size: Optional[int] = None
    #: Scheduling policy driving admission order, iteration shape and
    #: preemption victims ("fcfs" | "sla" | "hybrid", see
    #: :mod:`repro.scheduling`). The default is byte-identical to the
    #: pre-subsystem inline FCFS loop.
    scheduler_policy: str = "fcfs"
    #: "hybrid" policy: token budget of one mixed iteration (decode
    #: tokens + the prefill chunk).
    sched_token_budget: int = DEFAULT_TOKEN_BUDGET
    #: "sla" policy: TTFT budget assumed for requests without their own
    #: (None = such requests have no deadline).
    sla_ttft_budget: Optional[float] = None
    #: Memory-subsystem configuration: preemption policy, CPU tier and
    #: prefix cache.
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    iteration_cpu_overhead: float = ITERATION_CPU_OVERHEAD
    per_seq_cpu_overhead: float = PER_SEQ_CPU_OVERHEAD
    #: Decode fast-forwarding (:mod:`repro.sim.fastforward`): execute
    #: provably-steady pure-decode stretches in one analytic step
    #: instead of one Python loop per token. Reports are bit-identical
    #: either way (the horizon contract guarantees it; the golden and
    #: equivalence tests enforce it) — only wall-clock changes. Turn off
    #: to force the legacy per-iteration loop, e.g. for experiments that
    #: study the per-iteration latency *series* itself.
    fast_forward: bool = field(default_factory=_default_fast_forward)
    label: str = ""

    def __post_init__(self) -> None:
        if self.memory_backend not in ("vattention", "paged", "static", "uvm"):
            raise ConfigError(
                f"unknown memory backend {self.memory_backend!r}"
            )
        if self.prefill_chunk_size is not None and self.prefill_chunk_size <= 0:
            raise ConfigError("prefill_chunk_size must be positive")
        if self.max_batch_size <= 0:
            raise ConfigError("max_batch_size must be positive")
        validate_scheduler_policy(self.scheduler_policy)
        if self.sched_token_budget <= 0:
            raise ConfigError("sched_token_budget must be positive")
        if self.memory.enable_prefix_cache:
            if self.memory_backend not in ("vattention", "paged"):
                raise ConfigError(
                    f"prefix cache unsupported on the "
                    f"{self.memory_backend!r} backend: KV de-duplication "
                    f"needs physical page aliasing (the vattention "
                    f"backend's CUDA-VMM route, S8.1) or a user-space "
                    f"block pool to share full blocks in (paged); UVM "
                    f"and static slots provide neither"
                )


class LLMEngine:
    """Discrete-event serving engine over one representative worker.

    Tensor-parallel workers execute in lock-step with identical memory
    decisions, so simulating worker 0 yields deployment-level latencies;
    the :class:`~repro.models.shard.ShardedModel` already encodes the
    per-worker shapes.
    """

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        shard = config.shard
        reserved = shard.weight_bytes_per_worker + config.workspace_bytes
        if config.kv_budget_bytes is not None:
            reserved = max(
                reserved, config.gpu.memory_bytes - config.kv_budget_bytes
            )
        if reserved >= config.gpu.memory_bytes:
            raise ConfigError(
                f"{shard}: weights + workspace exceed {config.gpu.name} memory"
            )
        self.device = Device(config.gpu, reserved_bytes=reserved)
        self.clock = self.device.clock

        self.prefill_kernel: AttentionKernel = get_kernel(
            config.prefill_kernel, config.gpu
        )
        self.decode_kernel: AttentionKernel = get_kernel(
            config.decode_kernel, config.gpu
        )
        self._validate_kernel_layout()
        self.memory: MemoryManager = self._build_memory()

        self.scheduler: SchedulerPolicy = make_scheduler_policy(
            config.scheduler_policy,
            token_budget=config.sched_token_budget,
            default_ttft_budget=config.sla_ttft_budget,
        )
        self.metrics = MetricsCollector()
        #: Bound at construction from the installed registry
        #: (:func:`repro.metrics.telemetry.install`); ``None`` — the
        #: default — makes every instrumentation site a single attribute
        #: check, and the simulated results are identical either way.
        registry = active_telemetry()
        self.telemetry: Optional[EngineTelemetry] = (
            registry.engine_telemetry() if registry is not None else None
        )
        self._fast = DecodeFastForwarder(self)
        self._pending: Deque[Request] = deque()  # future arrivals
        self._waiting: Deque[Request] = deque()  # arrived, not admitted
        self._running: List[Request] = []
        self._all_requests: List[Request] = []
        #: Clock value when this engine first had work to serve — the
        #: report baseline for engines driven by ``run_until`` (cluster
        #: replicas), whose serving can begin at a nonzero virtual time.
        self._serve_start: Optional[float] = None
        #: Invoked with each request the instant it finishes. The
        #: cluster layer uses this to hand prefill-replica KV off to a
        #: decode replica at the simulated time the prefill completed.
        self.on_retire: Optional[Callable[[Request], None]] = None
        #: Graceful-shutdown mode (:meth:`begin_drain`): no *new* work
        #: is admitted; in-flight and preempted requests still finish.
        self.draining = False
        #: Incremental token backlog (see :attr:`outstanding_tokens`).
        #: Every site that changes a tracked request's contribution —
        #: submission, withdrawal, prefill progress, decode tokens,
        #: preemption, retirement — applies the exact integer delta, so
        #: the counter always equals the O(n) scan it replaced.
        self._outstanding = 0
        #: Monotone stamp of scheduling-state changes that do *not*
        #: move the clock: submissions, drain entry, preemptions. Every
        #: other mutation an executed iteration makes advances the
        #: clock, so (clock value, this stamp) together identify an
        #: engine state exactly — the decode fast-forwarder memoizes
        #: its staged-but-unexecuted stretch prep against the pair.
        self._prep_version = 0
        #: Last :class:`SchedulingView` handed out; reused while the
        #: clock and drain flag are unchanged (views are frozen).
        self._view_cache: Optional[SchedulingView] = None

    # ------------------------------------------------------------------
    def _build_memory(self) -> MemoryManager:
        """Assemble the manager: backend, optional cache and CPU tier."""
        config = self.config
        memory = config.memory
        backend = self._build_backend()
        cache = None
        if memory.enable_prefix_cache:
            # Imported here: repro.cache builds on repro.serving.memory.
            from ..cache.manager import PrefixCacheManager

            cache = PrefixCacheManager(
                backend, budget_bytes=memory.prefix_cache_budget_bytes
            )
        tier = None
        if memory.preemption_mode in ("swap", "tiered"):
            tier = CpuKvTier(capacity=memory.swap_host_bytes)
        return MemoryManager(
            backend,
            shard=config.shard,
            cache=cache,
            tier=tier,
            preemption_mode=memory.preemption_mode,
        )

    def _build_backend(self) -> MemoryBackend:
        config = self.config
        if config.memory_backend == "vattention":
            cache_slots = (
                config.memory.prefix_cache_slots
                if config.memory.enable_prefix_cache
                else 0
            )
            va_config = VAttentionConfig(
                shard=config.shard,
                max_batch_size=config.max_batch_size + cache_slots,
                page_group_size=config.page_group_size,
                tensor_slicing=config.tensor_slicing,
                deferred_reclamation=config.deferred_reclamation,
                eager_allocation=config.eager_allocation,
                overlap_allocation=config.overlap_allocation,
            )
            return VAttentionMemory(self.device, va_config)
        if config.memory_backend == "paged":
            return PagedMemory(
                self.device,
                config.shard,
                block_size=config.block_size,
                library=self.decode_kernel.info.library,
            )
        if config.memory_backend == "uvm":
            return UvmMemory(
                self.device, config.shard, config.max_batch_size
            )
        return StaticMemory(
            self.device, config.shard, config.max_batch_size
        )

    def _validate_kernel_layout(self) -> None:
        backend_layout = (
            KvLayout.PAGED
            if self.config.memory_backend == "paged"
            else KvLayout.CONTIGUOUS
        )
        decode_layout = self.decode_kernel.info.layout
        if decode_layout is not backend_layout:
            raise ConfigError(
                f"decode kernel {self.decode_kernel.info.name} expects a "
                f"{decode_layout.value} KV cache but the "
                f"{self.config.memory_backend} backend provides "
                f"{backend_layout.value} — a kernel without paging support "
                f"cannot run over a PagedAttention pool (the paper's "
                f"portability argument), and vice versa"
            )
        # A *non-paged prefill kernel over paged memory* is permitted:
        # vLLM computes prefill attention contiguously and copies results
        # into blocks (it has no paged prefill kernel, S7.2). The append
        # overhead of that copy is modeled by the backend.
        if (
            self.prefill_kernel.is_paged
            and backend_layout is not KvLayout.PAGED
        ):
            raise ConfigError(
                f"paged prefill kernel {self.prefill_kernel.info.name} "
                f"cannot read a contiguous KV cache"
            )

    # ------------------------------------------------------------------
    # Submission and the main loop
    # ------------------------------------------------------------------
    def submit(self, requests: Sequence[Request]) -> None:
        """Queue requests; they become visible at their arrival times."""
        ordered = sorted(requests, key=lambda r: r.arrival_time)
        for request in ordered:
            self._pending.append(request)
            self._all_requests.append(request)
            self._outstanding += self._contribution(request)
        self._prep_version += 1

    def run(self, max_iterations: Optional[int] = None) -> RunReport:
        """Serve all submitted requests; returns the run report."""
        start = self.clock.now
        self._serve(math.inf, max_iterations)
        report = RunReport(
            requests=list(self._all_requests),
            metrics=self.metrics,
            start_time=start,
            end_time=self.clock.now,
            prefix_cache=self.memory.cache_report(),
            latency_attribution=self._latency_attribution(),
        )
        if self.telemetry is not None:
            self.telemetry.on_report(self, report)
        return report

    def _latency_attribution(self) -> Optional[dict]:
        """This engine's attribution summary (spans-on runs only)."""
        if self.telemetry is None:
            return None
        registry = self.telemetry.registry
        if not registry.record_spans:
            return None
        return attribution.build(
            registry.events, domains={self.telemetry.scope}
        ).to_json()

    def run_until(self, deadline: float) -> int:
        """Serve until the clock reaches ``deadline`` or work runs out.

        An iteration that starts before the deadline runs to completion,
        so the clock may overshoot it — exactly as a real engine finishes
        the iteration in flight when an external event lands. An *idle*
        engine never advances past the deadline (its clock waits for the
        next arrival), so requests dispatched later are not penalized.
        Returns the number of iterations executed.
        """
        return self._serve(deadline, None)

    def begin_steady_stretch(self, deadline: float):
        """Stage this engine's next analytic decode stretch, if provable.

        Replays the serve loop's prologue (arrival ingestion, the
        serving-start stamp, admission) exactly as a
        ``run_until(deadline)`` pass would — the prologue is idempotent,
        so a subsequent ``run_until`` composes exactly — then *prepares*
        the decode stretch the fast-forwarder would execute next,
        without executing it. Returns a stretch prep for
        :meth:`repro.sim.fastforward.DecodeFastForwarder.finish`, or
        ``None`` when the next step is not a provable steady stretch
        (idle gap, pending prefill, imminent event — the caller falls
        back to ``run_until``). Preparation is side-effect free, so an
        unfinished prep may be abandoned. The cluster's fleet executor
        uses this to stack concurrent stretches across replicas.
        """
        if not self.config.fast_forward or not self.has_work():
            return None
        self._ingest_arrivals()
        if self._serve_start is None and (self._waiting or self._running):
            self._serve_start = self.clock.now
        self._admit()
        if not self._running:
            return None
        if self.clock.now >= deadline:
            return None
        return self._fast.prepare(deadline, None)

    def _serve(
        self, deadline: float, max_iterations: Optional[int]
    ) -> int:
        """The scheduler loop behind :meth:`run` and :meth:`run_until`.

        With ``fast_forward`` on, every pass first offers the pending
        work to the decode fast-forwarder (:mod:`repro.sim.fastforward`);
        stretches it cannot prove steady — prefills, allocation events,
        preemptions, anything near an arrival or completion — fall
        through to the per-iteration path below, unchanged. Fast-forwarded
        iterations count against ``max_iterations`` one for one.
        """
        iterations = 0
        while self.has_work():
            if max_iterations is not None and iterations >= max_iterations:
                break
            self._ingest_arrivals()
            if self._serve_start is None and (self._waiting or self._running):
                # Serving begins when the first request is in front of
                # the engine — not when an idle engine's (possibly far
                # older) clock last stood, and not at 0.0: a decode-tier
                # replica may receive its first work at a large virtual
                # time, and its report window starts there.
                self._serve_start = self.clock.now
            self._admit()
            if not self._running:
                upcoming = (
                    self._pending[0].arrival_time if self._pending else None
                )
                if upcoming is None or upcoming > deadline:
                    break
                self.clock.advance_to(upcoming)
                continue
            if self.clock.now >= deadline:
                break
            if self.config.fast_forward:
                budget = (
                    None
                    if max_iterations is None
                    else max_iterations - iterations
                )
                done = self._fast.execute(deadline, budget)
                if done:
                    iterations += done
                    continue
            self._run_iteration()
            iterations += 1
        return iterations

    def _run_iteration(self) -> None:
        """Execute the iteration the scheduling policy planned."""
        plan = self.scheduler.plan_iteration(
            self._running, self._scheduling_view()
        )
        if plan.kind is PlanKind.MIXED:
            self._run_mixed(plan.prefill, plan.chunk_tokens)
        elif plan.kind is PlanKind.PREFILL:
            self._run_prefill(plan.prefill)
        else:
            self._run_decode()

    def partial_report(self) -> RunReport:
        """Report of everything served so far.

        Useful when a run aborts (e.g. the UVM backend exhausting
        memory it cannot reclaim), and for cluster replicas driven by
        :meth:`run_until`. The report's baseline is the clock value at
        which this engine first had work — not 0.0, which inflated the
        makespan (and deflated throughput) of engines that begin serving
        at a nonzero virtual time, such as a disaggregated fleet's
        decode tier.
        """
        start = (
            self._serve_start
            if self._serve_start is not None
            else self.clock.now
        )
        return RunReport(
            requests=list(self._all_requests),
            metrics=self.metrics,
            start_time=start,
            end_time=self.clock.now,
            prefix_cache=self.memory.cache_report(),
        )

    def has_work(self) -> bool:
        """Whether any submitted request has not yet finished."""
        return bool(self._pending or self._waiting or self._running)

    def begin_drain(self) -> List[Request]:
        """Enter graceful shutdown; returns the withdrawn queued work.

        Every request that has never been admitted — still pending its
        arrival or sitting in the waiting queue — is removed from this
        engine (and from its report) so the caller can re-route it to a
        replica that will outlive it. Requests that already ran stay:
        the running batch finishes here, and preemption victims may
        re-enter admission (:meth:`SchedulerPolicy.admissible`) so no
        in-flight work is stranded. Idempotent; later submissions are
        rejected by the cluster layer routing around this replica.
        """
        self.draining = True
        self._prep_version += 1
        withdrawn: List[Request] = []
        dequeued: List[Request] = []
        for queue in (self._pending, self._waiting):
            for request in list(queue):
                if request.admitted_time is None:
                    queue.remove(request)
                    withdrawn.append(request)
                    # Only waiting-queue members were ever counted as
                    # queued (num_queue_reqs, request_queued events);
                    # pending ones had not arrived yet.
                    if queue is self._waiting:
                        dequeued.append(request)
        for request in withdrawn:
            self._all_requests.remove(request)
            self._outstanding -= self._contribution(request)
        if self.telemetry is not None:
            for request in dequeued:
                self.telemetry.on_withdrawn(self, request)
        withdrawn.sort(key=lambda r: (r.arrival_time, r.request_id))
        return withdrawn

    @staticmethod
    def _contribution(request: Request) -> int:
        """``request``'s share of :attr:`outstanding_tokens`."""
        return (request.prompt_len - request.prefilled_tokens) + max(
            0, request.max_new_tokens - request.generated
        )

    @property
    def outstanding_tokens(self) -> int:
        """Tokens of work this engine still owes: un-prefilled prompt
        tokens plus decode tokens yet to be generated, across every
        routed-but-unfinished request. The load signal the cluster's
        ``least_outstanding_tokens`` and ``cache_aware`` routers read.
        Maintained incrementally (O(1) to read — the cluster router and
        autoscaler read it per arrival and per decide).
        """
        return self._outstanding

    def _scan_outstanding(self) -> int:
        """O(n) recount of :attr:`outstanding_tokens` (test oracle)."""
        total = 0
        for request in (*self._pending, *self._waiting, *self._running):
            total += self._contribution(request)
        return total

    def _ingest_arrivals(self) -> None:
        while self._pending and self._pending[0].arrival_time <= self.clock.now:
            request = self._pending.popleft()
            self._waiting.append(request)
            if self.telemetry is not None:
                self.telemetry.on_queued(self, request)

    # ------------------------------------------------------------------
    # Scheduling-policy plumbing
    # ------------------------------------------------------------------
    def _scheduling_view(self) -> SchedulingView:
        """The observable state a policy decision may depend on.

        Views are immutable and fully determined by the clock and the
        drain flag (the other fields are engine constants), so the last
        one is reused until either moves — this sits on the prepare/
        admission hot paths, which rebuild views far more often than
        the state changes.
        """
        view = self._view_cache
        if (
            view is not None
            and view.now == self.clock.now
            and view.draining is self.draining
        ):
            return view
        view = SchedulingView(
            now=self.clock.now,
            max_batch_size=self.config.max_batch_size,
            prefill_chunk_size=self.config.prefill_chunk_size,
            cached_prefix_tokens=self._probe_cached_prefix,
            draining=self.draining,
        )
        self._view_cache = view
        return view

    def _probe_cached_prefix(self, request: Request) -> int:
        """Prompt tokens the prefix cache would alias, side-effect-free.

        Mirrors the cap an actual hit has (at least one prompt token
        always computes); 0 for cache-less backends, prefix-less
        requests, or prefills already underway.
        """
        if request.prefix is None or request.prefilled_tokens:
            return 0
        return self.memory.probe_prefix_tokens(
            request.prefix.token_ids, limit=request.prompt_len - 1
        )

    def _remove_waiting(self, request: Request) -> None:
        """Drop ``request`` from the waiting queue by identity."""
        for index, waiting in enumerate(self._waiting):
            if waiting is request:
                del self._waiting[index]
                return
        raise AssertionError(
            f"{request.request_id} not in the waiting queue"
        )  # pragma: no cover - policy returned a foreign request

    def _admit(self) -> None:
        while self._waiting and len(self._running) < self.config.max_batch_size:
            waiting: Sequence[Request] = self._waiting
            if self.draining:
                # Engine-enforced drain semantics (policies see the
                # same rule through SchedulerPolicy.admissible, but a
                # custom policy must not be able to start fresh work on
                # a draining replica): only previously-admitted work —
                # preemption victims whose in-flight requests must
                # still finish — may re-enter.
                waiting = [
                    r for r in self._waiting if r.admitted_time is not None
                ]
            request = self.scheduler.next_admission(
                waiting, self._scheduling_view()
            )
            if request is None or not self.memory.can_admit(request):
                break
            # The instant the scheduler picked the request: queue wait
            # ends here; backend admission and any swap-in restore
            # below are the request's admission span.
            picked = self.clock.now
            self._remove_waiting(request)
            restore = self.memory.allocate_request(request)
            # A KV demand-paged back from the CPU tier: charge the PCIe
            # transfer to the clock.
            if restore.seconds:
                self.clock.advance(restore.seconds)
            if restore.nbytes and self.telemetry is not None:
                self.telemetry.on_tier_transfer(self, request, restore)
            request.state = RequestState.RUNNING
            request.admitted_time = self.clock.now
            self._running.append(request)
            if self.telemetry is not None:
                self.telemetry.on_admit(self, request, picked)

    # ------------------------------------------------------------------
    # Iterations
    # ------------------------------------------------------------------
    def _run_prefill(self, request: Request) -> None:
        shard, gpu = self.config.shard, self.config.gpu
        before = self.clock.now
        held = self._contribution(request)
        self.memory.before_prefill(request)
        self._outstanding += self._contribution(request) - held
        self._prepare_or_preempt(
            participants=lambda: (
                [request] if request.state is RequestState.RUNNING else []
            ),
            protected=request,
        )
        if request.state is not RequestState.RUNNING:
            return  # evicted as a last resort; it will retry later
        alloc_sync = self.clock.now - before

        # A prefix-cache hit leaves `prefilled_tokens` of resident KV:
        # only the remaining tokens run linear operators and append, and
        # attention costs the marginal extension over the cached prefix
        # (the new tokens still attend the cached KV).
        cached = request.prefilled_tokens
        new_tokens = request.prompt_len - cached
        block = self._block_size_for(self.prefill_kernel)
        attention = self.prefill_kernel.prefill_time(
            shard, request.prompt_len, block
        )
        if cached:
            attention -= self.prefill_kernel.prefill_time(shard, cached, block)
        compute = (
            linear_prefill_time(shard, gpu, new_tokens)
            + attention
            + self.memory.backend.append_overhead(new_tokens)
            + self.config.iteration_cpu_overhead
        )
        self.clock.advance(compute)
        held = self._contribution(request)
        request.record_prefill(self.clock.now)
        self._outstanding += self._contribution(request) - held
        self.memory.note_prefill_complete(request)
        self.memory.backend.after_iteration(compute)
        record = IterationRecord(
            start_time=before,
            phase="prefill",
            batch_size=1,
            latency=self.clock.now - before,
            alloc_sync=alloc_sync,
            # Served prompt tokens: a prefix-cache hit delivers the
            # cached tokens too, it just skips recomputing them —
            # prefill throughput measures serving, not FLOPs.
            tokens=request.prompt_len,
        )
        self.metrics.record(record)
        if self.telemetry is not None:
            self.telemetry.on_iteration_spans(
                self, record, prefill=request, chunk=new_tokens
            )
            self.telemetry.on_iteration(self, record)
        self._retire_finished()

    def _run_mixed(self, prefill: Request, chunk_budget: int) -> None:
        """One Sarathi-style iteration: a prefill chunk + all decodes.

        ``chunk_budget`` is the policy's token allowance for the chunk;
        it is clamped to the prompt tokens actually left once the
        prefix cache has aliased its share. The linear operators fuse
        (the chunk's tokens saturate the GEMMs the decodes would
        under-utilize); attention runs per phase. The chunk's attention
        cost is the exact marginal cost of extending the causal
        prefill: ``T(prefix + chunk) - T(prefix)``.
        """
        shard, gpu = self.config.shard, self.config.gpu
        before = self.clock.now
        # A mixed iteration backs every running request's prompt, so a
        # pending prefill's one chance to alias a cached prefix is its
        # first mixed iteration — not just the iteration chunking it.
        for request in self._running:
            if request.needs_prefill and request.prefilled_tokens == 0:
                held = self._contribution(request)
                self.memory.before_prefill(request)
                self._outstanding += self._contribution(request) - held
        self._prepare_or_preempt(
            participants=lambda: list(self._running), protected=prefill
        )
        if prefill.state is not RequestState.RUNNING:
            return
        alloc_sync = self.clock.now - before

        chunk = min(chunk_budget, prefill.next_chunk_tokens)
        prefix = prefill.prefilled_tokens
        # Prefill token accounting is *served* prompt tokens (matching
        # the monolithic path): the first computed chunk also delivers
        # any tokens restored from the prefix cache.
        served = chunk + (
            prefill.cached_prefix_tokens
            if prefix == prefill.cached_prefix_tokens
            else 0
        )
        decodes = [r for r in self._running if r.prefill_done]

        # Fused linear operators: compute for chunk + batch tokens, but
        # never cheaper than one pass over the weights.
        weight_stream = decode_weight_stream_time(shard, gpu)
        fused_linear = max(
            linear_prefill_time(shard, gpu, chunk + len(decodes)),
            weight_stream,
        )
        chunk_block = self._block_size_for(self.prefill_kernel)
        chunk_attention = self.prefill_kernel.prefill_time(
            shard, prefix + chunk, chunk_block
        ) - self.prefill_kernel.prefill_time(shard, prefix, chunk_block)
        decode_attention = 0.0
        if decodes:
            decode_attention = self.decode_kernel.decode_time(
                shard,
                [r.context_len for r in decodes],
                self._block_size_for(self.decode_kernel),
            )
        compute = (
            fused_linear
            + chunk_attention
            + decode_attention
            + self.memory.backend.framework_overhead(list(self._running))
            + self.memory.backend.append_overhead(chunk)
            + self.config.iteration_cpu_overhead
            + self.config.per_seq_cpu_overhead * (len(decodes) + 1)
        )
        self.clock.advance(compute)
        held = self._contribution(prefill)
        prefill.record_prefill_chunk(chunk, self.clock.now)
        self._outstanding += self._contribution(prefill) - held
        if prefill.prefill_done:
            self.memory.note_prefill_complete(prefill)
        for request in decodes:
            request.record_decode_token(self.clock.now)
        # Each decode owed at least one more token (it would have been
        # retired otherwise), so the backlog shrinks by exactly one per.
        self._outstanding -= len(decodes)
        self.memory.backend.after_iteration(compute)
        record = IterationRecord(
            start_time=before,
            phase="mixed",
            batch_size=len(decodes) + 1,
            latency=self.clock.now - before,
            alloc_sync=alloc_sync,
            tokens=served + len(decodes),
        )
        self.metrics.record(record)
        if self.telemetry is not None:
            self.telemetry.on_iteration_spans(
                self, record, prefill=prefill, chunk=chunk, decodes=decodes
            )
            self.telemetry.on_iteration(self, record)
        self._retire_finished()

    def _run_decode(self) -> None:
        shard, gpu = self.config.shard, self.config.gpu
        before = self.clock.now
        self._prepare_or_preempt(participants=lambda: list(self._running))
        if not self._running:
            return
        alloc_sync = self.clock.now - before

        batch = list(self._running)
        contexts = [r.context_len for r in batch]
        compute = (
            linear_decode_time(shard, gpu, len(batch))
            + self.decode_kernel.decode_time(
                shard, contexts, self._block_size_for(self.decode_kernel)
            )
            + self.memory.backend.framework_overhead(batch)
            + self.config.iteration_cpu_overhead
            + self.config.per_seq_cpu_overhead * len(batch)
        )
        self.clock.advance(compute)
        for request in batch:
            request.record_decode_token(self.clock.now)
        self._outstanding -= len(batch)
        self.memory.backend.after_iteration(compute)
        record = IterationRecord(
            start_time=before,
            phase="decode",
            batch_size=len(batch),
            latency=self.clock.now - before,
            alloc_sync=alloc_sync,
            tokens=len(batch),
        )
        self.metrics.record(record)
        if self.telemetry is not None:
            self.telemetry.on_iteration_spans(self, record, decodes=batch)
            self.telemetry.on_iteration(self, record)
        self._retire_finished()

    def _block_size_for(self, kernel: AttentionKernel) -> Optional[int]:
        if not kernel.is_paged:
            return None
        return self.config.block_size

    def _prepare_or_preempt(
        self,
        participants: "Callable[[], List[Request]]",
        protected: Optional[Request] = None,
    ) -> None:
        """Run the backend's allocation for this iteration's batch;
        preempt policy-chosen victims on failure.

        ``participants`` is re-evaluated after each preemption (evicted
        requests leave the batch). ``protected`` (the request a prefill
        iteration is about to execute) is evicted only as a last
        resort. Victim choice belongs to the scheduling policy (FCFS
        and hybrid evict the newest admission, vLLM's default; the
        SLA-aware policy evicts the least urgent deadline).
        """
        while True:
            batch = participants()
            if self.memory.allocate_tokens(batch):
                return
            if len(self._running) <= 1:
                raise AllocationFailed(
                    "cannot back even a single running request; "
                    "the workload exceeds device memory"
                )
            victim = self.scheduler.select_victim(self._running, protected)
            for index in range(len(self._running) - 1, -1, -1):
                if self._running[index] is victim:
                    del self._running[index]
                    break
            self._evict(victim)
            victim.state = RequestState.QUEUED
            self._waiting.appendleft(victim)
            if self.telemetry is not None:
                self.telemetry.on_preempt(self, victim)

    def _evict(self, victim: Request) -> None:
        """Free ``victim``'s memory under the configured preemption
        policy; charge any device->host transfer to the clock."""
        self._prep_version += 1
        held = self._contribution(victim)
        outcome = self.memory.evict(victim)
        if outcome.seconds:
            self.clock.advance(outcome.seconds)
        if outcome.nbytes and self.telemetry is not None:
            self.telemetry.on_tier_transfer(self, victim, outcome)
        self._outstanding += self._contribution(victim) - held

    def _retire_finished(self) -> None:
        # Runs after every iteration; most find nothing to retire, so
        # scan first (inlining context_len) and only rebuild the
        # running list when a request actually finished.
        max_context = self.config.shard.max_context
        for request in self._running:
            if request.generated >= request.max_new_tokens or (
                request.prompt_len + request.generated >= max_context
            ):
                break
        else:
            return
        still_running: List[Request] = []
        for request in self._running:
            if request.generated >= request.max_new_tokens or (
                request.prompt_len + request.generated >= max_context
            ):
                # Context-cap finishes leave unserved budget behind.
                self._outstanding -= self._contribution(request)
                self.memory.cache_finished_request(request)
                request.finish(self.clock.now)
                if self.telemetry is not None:
                    self.telemetry.on_finish(self, request)
                if self.on_retire is not None:
                    self.on_retire(request)
            else:
                still_running.append(request)
        self._running = still_running
