"""Decode fast-forwarding: analytic execution of provably-steady stretches.

A pure-decode iteration of :class:`~repro.serving.engine.LLMEngine` is a
deterministic function of a handful of integers: every running request
advances by one token, the batch composition is fixed, and the latency
is ``linear + attention(total context) + framework + CPU`` — float
arithmetic whose operands evolve by integer increments. When the next K
iterations are *provably* such steps, executing them one Python loop at
a time buys nothing: the outcome is known analytically.

:class:`DecodeFastForwarder` executes those K iterations through one
series evaluation (:func:`_series`). It prices them with
:func:`~repro.kernels.costmodel.decode_iteration_seconds`, the function
the per-iteration path prices its one iteration with, so the clock,
every request timestamp, every latency sum and every backend counter
come out bit-identical (the golden and equivalence tests enforce
this). What it skips is the per-iteration *machinery*:
scheduling-view construction, policy planning, memory ``step()``
bookkeeping, per-request method calls, and one ``IterationRecord``
allocation per token. The series is
plain Python lists: at the horizons stretches reach (a median of 8–15
iterations) they are faster than array setup, and the simulator
imports no third-party module.

The *horizon* K is the minimum of four bounds (``docs/performance.md``
spells out the contract):

1. **Memory** — :meth:`~repro.serving.memory.MemoryBackend.
   decode_fast_path`: iterations absorbable with no synchronous
   allocation and no preemption (vAttention: the background allocator's
   lead, with the manager's own background pass run at page-group
   crossings and wherever it is not provably quiet; Paged: free blocks;
   Static: unbounded; UVM: until the next page fault).
2. **Scheduling** — :meth:`~repro.scheduling.base.SchedulerPolicy.
   stable_decode_horizon`: iterations over which the policy provably
   keeps planning the same pure-decode batch. A pre-check runs ahead
   of it: while a running request still needs its prefill the next
   plan is not a pure decode, so a non-empty list of such requests in
   the engine's ledger (``BatchLedger.awaiting``) records "no stretch"
   without a proof. The policy is asked only when the list is empty
   and does not scan for pending prefills itself.
3. **Completion** — tokens until the earliest request in the batch
   finishes (token budget or model context limit): the minimum of the
   engine's completion frontier (:class:`~repro.serving.ledger.
   BatchLedger`), a heap of finish ticks kept as the batch changes, so
   the proof reads it and the batch's token total without walking the
   batch. Only a stretch that reaches this bound retires a request, so
   only such a stretch runs the engine's retirement check.
4. **Events** — the next pending arrival and the caller's ``run_until``
   deadline, checked against each iteration's start time (an iteration
   that would *start* at or past either never runs, matching the
   per-iteration loop's semantics exactly).
"""

from __future__ import annotations

import bisect
from itertools import accumulate, repeat
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..kernels.costmodel import decode_iteration_seconds
from ..metrics.collector import IterationRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..serving.engine import LLMEngine
    from ..serving.request import Request

#: Horizon meaning "no memory-side bound"; the completion/arrival bounds
#: and the 62-bit headroom keep any real stretch far below it.
UNBOUNDED_HORIZON = 1 << 62


class DecodeFastPath:
    """A memory backend's contract for one fast-forwardable stretch.

    Built by :meth:`~repro.serving.memory.MemoryBackend.
    decode_fast_path` against a concrete decode batch. Iteration indices
    count from the plan's build, across every stretch a resumed prep
    runs over it (:class:`_StretchPrep`). The executor consumes it as
    follows:

    * at most :attr:`horizon` iterations run;
    * each iteration's framework overhead is :attr:`per_iteration_overhead`
      if that is not ``None`` (the common constant case), otherwise
      :meth:`overhead_at` — which must reproduce the slow path's
      ``framework_overhead`` float bit-for-bit, including any mid-stretch
      block-table growth;
    * if :attr:`has_hooks`, :meth:`on_iteration` observes every executed
      iteration (replaying background-allocator state); returning
      ``False`` ends the stretch *after* that iteration — the next
      iteration would not have been steady;
    * :meth:`commit` lands the aggregate state (contexts, counters) once
      the executor knows how many iterations actually ran — called again
      after each resumed stretch, with the cumulative count.
    """

    #: Iterations this backend can absorb with no synchronous
    #: allocation, no preemption, and replayable state.
    horizon: int = 0
    #: Constant per-iteration framework overhead, or ``None`` when it
    #: varies across the stretch (then :meth:`overhead_at` is used).
    per_iteration_overhead: Optional[float] = 0.0
    #: Whether :meth:`on_iteration` must be invoked per iteration.
    has_hooks: bool = False

    def overhead_at(self, iteration: int) -> float:
        """Framework overhead of plan-iteration ``iteration`` (0-based).

        Asked once per index, in ascending order: the proof's series
        evaluates the whole horizon once (:class:`_StretchPrep`)."""
        raise NotImplementedError  # pragma: no cover - constant-overhead plans

    def on_iteration(self, iteration: int, window: float) -> bool:
        """Observe one executed iteration; ``False`` ends the stretch."""
        return True  # pragma: no cover - hook-less plans never call this

    def quiescent_until(self, iteration: int, n: int) -> int:
        """Largest ``j <= n`` with hooks for ``[iteration, j)`` provably
        no-ops.

        A hook iteration is a *no-op* when :meth:`on_iteration` would
        mutate nothing and return ``True`` — the executor may then skip
        the calls wholesale, which is exact because a no-op changes no
        state the next hook decision reads. The proof reads backend
        state only (vAttention: the manager's record of a reclamation
        pass that freed nothing), so a plan whose hooks have not run yet
        proves the same spans as one whose hooks have. Plans that cannot
        prove a span return ``iteration`` (skip nothing), the
        conservative default.
        """
        return iteration

    def commit(self, executed: int) -> None:
        """Apply the aggregate state of the first ``executed`` plan
        iterations — contexts, step counters (cumulative: a resumed
        stretch commits again with the larger count)."""


class SteadyDecodeFastPath(DecodeFastPath):
    """Constant-overhead plan for backends with no per-iteration state."""

    def __init__(
        self,
        horizon: int,
        per_iteration_overhead: float = 0.0,
        commit=None,
    ) -> None:
        self.horizon = horizon
        self.per_iteration_overhead = per_iteration_overhead
        self._commit = commit

    def commit(self, executed: int) -> None:
        if self._commit is not None:
            self._commit(executed)


class _StretchPrep:
    """A prepared — not yet executed — steady decode stretch.

    :meth:`DecodeFastForwarder.prepare` builds one from pure reads of
    engine state (the memory plans are side-effect free until their
    hooks or ``commit`` run), so a prep can be abandoned — a cluster
    replica view builds its closed-form predictor from one it never
    executes.

    The iteration series is a property of the proof: :meth:`series`
    evaluates it over the whole ``horizon`` from ``start`` once, on
    first use, and every reader — the view's oracle, the stretch, each
    resumed stretch — indexes into that one pair of lists. ``base``
    counts the plan iterations already executed, so the next stretch
    runs ``[base, horizon)``. A stretch cut only by its ``stop_time``
    *resumes*: the executor sets ``base`` to the cumulative count and
    keeps the prep as the proof for the post-stretch state, which is the
    proof's own continuation (``starts[base]`` is the clock,
    ``total_tokens + base * batch_size`` the batch's tokens).
    """

    __slots__ = (
        "plan",
        "batch",
        "horizon",
        "stop_time",
        "start",
        "total_tokens",
        "batch_size",
        "overhead",
        "has_hooks",
        "base",
        "completion",
        "owner",
        "compute",
        "starts",
    )

    def series(self) -> Tuple[List[float], List[float]]:
        """``(compute, starts)`` over the whole horizon (see
        :func:`_series`), evaluated once and cached."""
        if self.starts is None:
            self.compute, self.starts = _series(self)
            self.owner.series_evaluations += 1
        return self.compute, self.starts


def _series(prep: _StretchPrep) -> Tuple[List[float], List[float]]:
    """Every iteration's compute time and start time over the horizon.

    Returns ``(compute, starts)``: ``compute[i]`` is plan-iteration
    ``i``'s latency term and ``starts[i]`` the clock at which it starts,
    so ``starts[i + 1] = starts[i] + compute[i]`` — the per-iteration
    loop's ``now += compute`` recurrence, float for float, with
    ``starts[0] = prep.start``. The batch's totals advance by
    ``batch_size`` a step, so the whole horizon is one call to
    :func:`~repro.kernels.costmodel.decode_iteration_seconds`, the
    function the stepped loop prices its one iteration with, and
    ``accumulate`` makes the same serial adds as the clock.
    """
    n = prep.horizon
    batch_size = prep.batch_size
    total = prep.total_tokens
    if prep.overhead is None:
        overheads = map(prep.plan.overhead_at, range(n))
    else:
        overheads = repeat(prep.overhead, n)
    engine = prep.owner.engine
    config = engine.config
    kernel = engine.decode_kernel
    compute = decode_iteration_seconds(
        config.shard,
        config.gpu,
        kernel,
        engine._block_size_for(kernel),
        batch_size,
        range(total, total + n * batch_size, batch_size),
        overheads,
    )
    return compute, list(accumulate(compute, initial=prep.start))


class StretchOracle:
    """Closed-form ``run_until`` replay over one prepared stretch.

    Answers — without touching the engine — how many stretch iterations
    ``engine.run_until(t)`` would execute, for any ``t`` strictly below
    :attr:`valid_until`. Built from a pure :class:`_StretchPrep`, it
    reads the prep's cached iteration-start series from ``base`` on —
    the very list the executor's stretch will bisect — so the count is
    exactly ``run_until``'s: an iteration runs iff it *starts* strictly
    before ``t``. The series is evaluated on the first read of
    :attr:`valid_until` or :meth:`iterations_before`, so an oracle
    nobody asks costs no series. The oracle keeps nothing on the prep;
    building another for the same prep re-derives the validity edge and
    reuses the series. The cluster's analytic router-state replay sits
    on top: outstanding tokens during a steady stretch are the
    build-time backlog minus ``batch_size`` per counted iteration, and
    the replica's radix tree is provably frozen inside the validity
    span (pure decode completes no prefill and retires nothing), so
    cache probes against the live tree are snapshot probes.

    Validity is capped at the earliest instant the closed form could go
    stale:

    * the first iteration whose memory-plan hooks are not provably
      no-ops (a hook's mutations could end the stretch early);
    * the stretch's final iteration (completion commits state, may
      retire finished requests, and retirement mutates the radix tree);
    * the prepared ``stop_time`` (past it the engine would ingest an
      arrival or re-plan).

    Callers must test strictly ``t < valid_until``; at or past the
    boundary they fall back to a real ``run_until`` sweep, which is
    always exact.
    """

    __slots__ = ("batch_size", "_prep", "_edge", "_stop_time", "_base")

    def __init__(self, prep: _StretchPrep, edge: int) -> None:
        self.batch_size = prep.batch_size
        self._prep = prep
        #: Plan iteration whose start bounds validity, and the build-time
        #: ``stop_time`` and ``base`` (a resume moves the prep's own).
        self._edge = edge
        self._stop_time = prep.stop_time
        self._base = prep.base

    @classmethod
    def build(cls, prep: _StretchPrep) -> Optional["StretchOracle"]:
        """The oracle for ``prep``, or ``None`` if no iteration is
        provably predictable (hooks fire immediately)."""
        horizon = prep.horizon
        base = prep.base
        quiet = (
            prep.plan.quiescent_until(base, horizon)
            if prep.has_hooks
            else horizon
        )
        edge = min(quiet, horizon - 1)
        if edge <= base:
            return None
        return cls(prep, edge)

    @property
    def valid_until(self) -> float:
        """The instant from which the closed form may be stale."""
        return min(self._prep.series()[1][self._edge], self._stop_time)

    def iterations_before(self, time: float) -> int:
        """Iterations ``run_until(time)`` would execute (requires
        ``time < valid_until``)."""
        base = self._base
        return bisect.bisect_left(self._prep.series()[1], time, base) - base


class DecodeFastForwarder:
    """Executes analytic decode stretches for one engine.

    The work counters are plain integers: proofs tried (:meth:`_prove`
    runs), backend plans built, stretches finished, resumed stretches
    finished, iterations executed analytically, backend hooks called
    (``on_iteration`` calls the quiescence proof did not skip), and
    iteration series evaluated (at most one per plan).
    """

    def __init__(self, engine: "LLMEngine") -> None:
        self.engine = engine
        #: The proof of bounds 1-3 (a staged prep, or ``None`` for "no
        #: stretch"), memoized against the state pair (``engine.
        #: _batch_version``, clock value) it holds for. A proof reads
        #: only the running batch, its requests and the memory backend,
        #: and everything that changes those either moves the clock (an
        #: executed iteration) or bumps the stamp — so while the pair is
        #: unchanged the proof is exactly what :meth:`prepare` would
        #: redo, and only the live ``stop_time`` is recomputed. A
        #: submission moves neither. :meth:`finish` re-keys a stretch
        #: cut at its ``stop_time`` to the post-stretch pair (the
        #: resume rule, see :class:`_StretchPrep`), so a stretch cut by
        #: an arrival or a sweep horizon continues without a re-proof.
        self._memo: Optional[_StretchPrep] = None
        self._memo_state = (-1, -1.0)
        self.proofs = 0
        self.plans = 0
        self.stretches = 0
        self.resumes = 0
        self.analytic_iterations = 0
        self.hook_calls = 0
        self.series_evaluations = 0

    # ------------------------------------------------------------------
    def execute(self, deadline: float) -> int:
        """Fast-forward as many steady decode iterations as provable.

        Returns the number of iterations executed (0 = no stretch was
        provable; the caller falls back to the per-iteration path).
        ``deadline`` and the next pending arrival bound the stretch
        dynamically — an iteration only runs if it *starts* strictly
        before both.
        """
        prep = self.prepare(deadline)
        if prep is None:
            return 0
        return self.finish(prep)

    def prepare(self, deadline: float) -> Optional[_StretchPrep]:
        """Prove and stage a steady stretch without executing it.

        Pure: no engine, clock or backend state changes. ``None`` means
        no stretch is provable and the caller must fall back to the
        per-iteration path (or an ordinary ``run_until``).
        """
        engine = self.engine
        state = (engine._batch_version, engine.clock.now)
        if self._memo_state != state:
            # A member awaiting its prefill means the next plan is not
            # a decode: record "no stretch" without the proof. This is
            # the only check; the policies' bound 2 does not repeat it.
            self._memo = None if engine._ledger.awaiting else self._prove()
            self._memo_state = state
        prep = self._memo
        if prep is None:
            return None
        # --- Bound (4): next arrival / caller deadline, checked live
        # (a full batch leaves pending arrivals inert, see
        # LLMEngine._arrival_cap).
        cap = engine._arrival_cap()
        prep.stop_time = cap if cap < deadline else deadline
        return prep

    def _prove(self) -> Optional[_StretchPrep]:
        """Prove bounds 1-3 and stage the stretch."""
        self.proofs += 1
        engine = self.engine
        batch: List["Request"] = list(engine._running)
        if not batch:
            return None
        # --- Bound (2): the scheduling policy's stability promise.
        horizon = engine.scheduler.stable_decode_horizon(
            batch, engine._scheduling_view()
        )
        if horizon < 2:
            return None
        # --- Bound (3): earliest completion (token budget or context
        # cap), the minimum of the engine ledger's frontier.
        ledger = engine._ledger
        completion = ledger.completion()
        if completion < horizon:
            horizon = completion
        if horizon < 2:
            return None
        # --- Bound (1): the memory backend's steady-state promise.
        plan = engine.memory.decode_fast_path(batch)
        if plan is None:
            return None
        self.plans += 1
        if plan.horizon < horizon:
            horizon = plan.horizon
        if horizon < 2:
            return None

        prep = _StretchPrep()
        prep.plan = plan
        prep.batch = batch
        prep.horizon = horizon
        prep.batch_size = len(batch)
        prep.overhead = plan.per_iteration_overhead
        prep.has_hooks = plan.has_hooks
        prep.start = engine.clock.now
        prep.total_tokens = ledger.tokens
        prep.completion = completion
        prep.base = 0
        prep.owner = self
        prep.starts = None
        return prep

    def finish(self, prep: _StretchPrep) -> int:
        """Execute a prepared stretch and land its state."""
        engine = self.engine
        plan = prep.plan
        batch = prep.batch
        batch_size = prep.batch_size
        horizon = prep.horizon
        base = prep.base
        compute, starts = prep.series()
        # Iteration i runs iff it *starts* strictly before stop_time.
        end = done = bisect.bisect_left(starts, prep.stop_time, base, horizon)
        resumable = True
        if prep.has_hooks:
            # Hooked plans observe every iteration — but a plan can
            # prove spans of iterations whose hooks would do nothing
            # and return True, and a provable no-op changes no state
            # the next hook decision reads, so skipping the calls is
            # exact. At fleet scale this turns the per-iteration
            # Python loop into a handful of span jumps.
            done = i = base
            while i < end:
                j = plan.quiescent_until(i, end)
                if j > i:
                    done = i = j
                    continue
                done = i + 1
                self.hook_calls += 1
                if not plan.on_iteration(i, compute[i]):
                    resumable = False
                    break
                i += 1
        executed = done - base
        if executed == 0:
            return 0
        self.stretches += 1
        if base:
            self.resumes += 1
        self.analytic_iterations += executed
        #: Exact per-iteration latencies — the slow path records
        #: (now + compute) - now — summed serially: downstream sums must
        #: add these (not stretch subtotals) to reproduce the
        #: per-iteration loop's float association bit for bit.
        latencies = [starts[i + 1] - starts[i] for i in range(base, done)]
        latency_sum = 0.0
        for latency in latencies:
            latency_sum += latency

        engine.clock.jump_to(starts[done])
        for request in batch:
            request.generated += executed
        engine._ledger.advance(executed)
        # The completion bound kept every member's remaining budget at
        # or above the horizon, so each owes exactly ``executed`` fewer.
        engine._outstanding -= executed * batch_size
        plan.commit(done)
        record = IterationRecord(
            start_time=starts[base],
            phase="decode",
            batch_size=batch_size,
            latency=latency_sum,
            alloc_sync=0.0,
            tokens=executed * batch_size,
            iterations=executed,
            latencies=tuple(latencies),
        )
        engine.metrics.record(record)
        if engine.telemetry is not None:
            # One aggregate sample for the stretch: the counters advance
            # by exactly what the legacy per-iteration loop would add
            # (iterations, tokens, busy seconds), and the stretch length
            # lands in the fast_forward_stretch_iterations histogram.
            # Spans follow suit — one decode span per request covering
            # the whole stretch, not one per collapsed iteration.
            engine.telemetry.on_iteration_spans(
                engine, record, decodes=batch
            )
            engine.telemetry.on_iteration(engine, record)
        if resumable and horizon - done >= 2:
            # Cut only by stop_time: the post-stretch state is this
            # proof's continuation — same batch, every member still
            # owes at least ``horizon - done`` tokens, the plan's hooks
            # all returned True — so the prep with ``base`` advanced to
            # the first iteration that did not run is exactly the proof
            # a fresh _prove would stage (a paged plan's horizon may be
            # shorter than a fresh one's, never longer). Below two
            # iterations a fresh proof would decline; so does this.
            prep.base = done
            self._memo = prep
            self._memo_state = (engine._batch_version, engine.clock.now)
        if done == prep.completion:
            # A member's budget or context ran out; short of the bound,
            # every member still owes a token and nothing retires.
            engine._retire_finished()
        return executed


class FleetStretchExecutor:
    """How the cluster advances its replicas, observed or not."""

    def sweep(self, engines: Sequence["LLMEngine"], horizon: float) -> None:
        """``run_until(horizon)`` on every engine with work (an idle
        engine's serve loop would not run a single pass)."""
        for engine in engines:
            if engine.has_work():
                engine.run_until(horizon)
