"""Multi-replica cluster serving: router + replicas on shared virtual time.

A :class:`ClusterEngine` owns N independent :class:`~repro.serving.
engine.LLMEngine` replicas — each with its own device, memory backend
(and optional radix-tree prefix cache) — and advances them against one
shared virtual timeline. Requests are dispatched by a pluggable
:mod:`routing policy <repro.cluster.router>` at their arrival instants,
when every replica's queue depth and cache content is exactly what the
router would observe in a live deployment. Inside each replica, batch
construction follows an engine-level :mod:`scheduling policy
<repro.scheduling>` (``ClusterConfig.scheduler_policy``); disaggregated
fleets can give the prefill tier its own policy
(``prefill_scheduler_policy``) — e.g. hybrid batching where prompts
stream in, FCFS where decodes dominate.

Time coordination is conservative parallel discrete-event simulation:
replicas that can *produce* events (arrival targets, whose prefill
completions spawn KV migrations in disaggregated mode) always run ahead
to the next-arrival horizon first, so every cross-replica event is known
before any replica advances past it. An idle replica's clock waits for
its next dispatch, and a busy replica may overshoot an event by at most
the iteration in flight — exactly the slack a real engine has.

**Disaggregated mode** splits the fleet into prefill and decode
replicas. A request's prompt runs on a prefill replica (producing the
first token); the finished prompt's KV cache is then handed to a decode
replica over a shared interconnect, charged per KV byte at NVLink/PCIe
bandwidth with transfers serializing on the link. The decode replica
re-materializes the migrated KV through the ordinary vAttention
demand-mapping path (map/unmap of physical page-groups against the
contiguous virtual tensor), so the handoff stresses exactly the
machinery the paper builds.

**Elastic mode** (``ClusterConfig.autoscaler`` other than ``static``)
makes the fleet itself react to load: an :mod:`autoscaling policy
<repro.cluster.autoscaler>` is evaluated at periodic ``SCALE_DECIDE``
events and can provision replicas (which walk PROVISIONING → WARMING →
SERVING through timed ``SCALE_UP`` events before the router sees them)
or gracefully drain them (queued work re-routes — cached prefix KV
migrating over the interconnect — in-flight work finishes, and the
replica retires at its ``DRAIN_COMPLETE`` event). The router only ever
selects among SERVING replicas. Under the default ``static`` policy no
lifecycle event enters the timeline and the run is byte-identical to
the fixed-fleet engine.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError, SchedulingError
from ..metrics import attribution
from ..metrics.rolling import RollingPercentileTracker
from ..metrics.telemetry import ClusterTelemetry
from ..metrics.telemetry import active as active_telemetry
from ..scheduling import validate_scheduler_policy
from ..serving.engine import EngineConfig, LLMEngine, _check_prompts_fit
from ..serving.request import Request
from ..sim.events import EventKind, EventQueue
from ..sim.fastforward import FleetStretchExecutor, StretchOracle
from .autoscaler import (
    FleetView,
    ReplicaState,
    ScaleEvent,
    SloSample,
    make_autoscaler,
    validate_autoscaler_policy,
)
from .interconnect import INTERCONNECTS, MigrationLink, get_interconnect
from .report import ClusterReport, RequestRecord
from .router import ROUTING_POLICIES, ReplicaView, least_loaded, make_policy


@dataclass
class ClusterConfig:
    """Configuration of one cluster: replica template + fleet shape."""

    #: Per-replica engine configuration (replicas are homogeneous).
    engine: EngineConfig
    n_replicas: int
    routing_policy: str = "round_robin"
    #: Split the fleet into prefill and decode replicas with KV handoff.
    disaggregated: bool = False
    n_prefill_replicas: int = 1
    #: Link carrying KV migrations: "nvlink" or "pcie".
    interconnect: str = "nvlink"
    #: Scheduler policy every replica engine runs
    #: (:mod:`repro.scheduling` registry name); ``None`` keeps the
    #: template ``engine.scheduler_policy``.
    scheduler_policy: Optional[str] = None
    #: Disaggregated mode: policy override for the *prefill tier* only —
    #: the tier where batch composition matters most (prompts stream in
    #: continuously, so e.g. "hybrid" keeps its iterations bounded
    #: while the decode tier stays FCFS). ``None`` = same policy as the
    #: rest of the fleet.
    prefill_scheduler_policy: Optional[str] = None
    #: Autoscaling policy (:mod:`repro.cluster.autoscaler` registry
    #: name): "static" (fixed fleet, byte-identical to the
    #: pre-autoscaler engine), "queue_depth" or "sla". ``n_replicas``
    #: is the *initial* fleet; elastic policies move within
    #: [min_replicas, max_replicas].
    autoscaler: str = "static"
    #: Fleet bounds for elastic policies (``None`` = ``n_replicas``,
    #: i.e. no room to move on that side).
    min_replicas: Optional[int] = None
    max_replicas: Optional[int] = None
    #: Seconds a provisioned replica spends in PROVISIONING (instance
    #: acquisition + model-weight load) before it starts warming.
    cold_start_seconds: float = 8.0
    #: Seconds of WARMING (allocator/cache warm-up) before SERVING.
    warmup_seconds: float = 2.0
    #: Cadence of SCALE_DECIDE policy evaluations.
    scale_decide_interval: float = 2.0
    #: ``queue_depth`` policy watermarks (outstanding tokens per
    #: serving replica).
    queue_high_watermark: int = 16_384
    queue_low_watermark: int = 2_048
    #: ``sla`` policy: the p99-TTFT objective (required for "sla") and
    #: its hysteresis/guard knobs.
    slo_ttft: Optional[float] = None
    drain_margin: float = 0.5
    backlog_guard_tokens: int = 65_536
    #: Rolling window the SLO tracker keeps TTFT completions over.
    slo_window_seconds: float = 30.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.n_replicas <= 0:
            raise ConfigError(
                f"n_replicas must be positive, got {self.n_replicas}"
            )
        if self.routing_policy not in ROUTING_POLICIES:
            known = ", ".join(sorted(ROUTING_POLICIES))
            raise ConfigError(
                f"unknown routing policy {self.routing_policy!r}; "
                f"known: {known}"
            )
        if self.interconnect not in INTERCONNECTS:
            known = ", ".join(sorted(INTERCONNECTS))
            raise ConfigError(
                f"unknown interconnect {self.interconnect!r}; known: {known}"
            )
        if self.disaggregated:
            if self.n_replicas < 2:
                raise ConfigError(
                    "disaggregated serving needs at least 2 replicas "
                    "(one prefill + one decode)"
                )
            if not 1 <= self.n_prefill_replicas < self.n_replicas:
                raise ConfigError(
                    f"n_prefill_replicas must be in [1, {self.n_replicas - 1}]"
                    f", got {self.n_prefill_replicas}"
                )
        for policy in (self.scheduler_policy, self.prefill_scheduler_policy):
            if policy is not None:
                validate_scheduler_policy(policy)
        if self.prefill_scheduler_policy is not None and not self.disaggregated:
            raise ConfigError(
                "prefill_scheduler_policy only applies to disaggregated "
                "fleets (there is no prefill tier otherwise); use "
                "scheduler_policy for a homogeneous fleet"
            )
        if (
            self.routing_policy == "cache_aware"
            and not self.engine.memory.enable_prefix_cache
        ):
            raise ConfigError(
                "cache_aware routing requires memory.enable_prefix_cache "
                "on the replica engine config: without radix trees there "
                "is nothing to probe"
            )
        validate_autoscaler_policy(self.autoscaler)
        if self.autoscaler != "static":
            if self.disaggregated:
                raise ConfigError(
                    "elastic autoscaling over a disaggregated fleet is "
                    "unsupported: per-tier scale decisions need their "
                    "own policy wiring; run the tiers static"
                )
            if self.autoscaler == "sla" and self.slo_ttft is None:
                raise ConfigError(
                    "the sla autoscaler needs ClusterConfig.slo_ttft"
                )
            # Negated comparisons: NaN fails every ordering test.
            if not (self.cold_start_seconds >= 0 and self.warmup_seconds >= 0):
                raise ConfigError("boot delays must be non-negative")
            if not self.scale_decide_interval > 0:
                raise ConfigError(
                    "scale_decide_interval must be positive, got "
                    f"{self.scale_decide_interval}"
                )
        low = self.resolved_min_replicas
        high = self.resolved_max_replicas
        if not 1 <= low <= self.n_replicas <= high:
            raise ConfigError(
                f"fleet bounds must satisfy 1 <= min ({low}) <= "
                f"initial ({self.n_replicas}) <= max ({high})"
            )

    @property
    def resolved_min_replicas(self) -> int:
        """The lower fleet bound (``n_replicas`` when unset)."""
        return (
            self.n_replicas if self.min_replicas is None else self.min_replicas
        )

    @property
    def resolved_max_replicas(self) -> int:
        """The upper fleet bound (``n_replicas`` when unset)."""
        return (
            self.n_replicas if self.max_replicas is None else self.max_replicas
        )


class Replica(ReplicaView):
    """One engine replica plus the state the router may observe."""

    def __init__(
        self,
        index: int,
        engine: LLMEngine,
        role: str,
        state: ReplicaState = ReplicaState.SERVING,
        provision_time: float = 0.0,
    ) -> None:
        self.index = index
        self.engine = engine
        #: "serve" (aggregated), or "prefill" / "decode" (disaggregated).
        self.role = role
        #: Lifecycle state; the router only sees SERVING replicas.
        self.state = state
        #: Birth of the replica-seconds meter (0.0 for the initial
        #: fleet, the scale-up instant for provisioned replicas).
        self.provision_time = provision_time
        #: When the replica reached SERVING / began draining / retired.
        self.serving_time: Optional[float] = (
            provision_time if state is ReplicaState.SERVING else None
        )
        self.drain_time: Optional[float] = None
        self.retire_time: Optional[float] = None
        #: Guards the one-shot DRAIN_COMPLETE event.
        self.drain_event_pushed = False

    @property
    def is_serving(self) -> bool:
        """Whether the router may dispatch new work here."""
        return self.state is ReplicaState.SERVING

    @property
    def outstanding_tokens(self) -> int:
        return self.engine.outstanding_tokens

    def probe_prefix(self, request: Request) -> int:
        if request.prefix is None:
            return 0
        # Same cap a real hit has: one prompt token always computes.
        return self.engine.memory.probe_prefix_tokens(
            request.prefix.token_ids, limit=request.prompt_len - 1
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Replica({self.index}, {self.role})"


class _Window:
    """The arrival instant window routing is answering for, shared by
    every :class:`_ReplicaReplay` view of one fast loop.

    The loop bumps ``seq`` once per routed arrival; a view whose last
    sync carries an older ``seq`` is stale and syncs on its next
    observation.
    """

    __slots__ = ("time", "seq")

    def __init__(self) -> None:
        self.time = 0.0
        self.seq = 0


class _ReplicaReplay(ReplicaView):
    """One serving replica as the router observes it at window instants,
    answered analytically where provable.

    A view syncs to the window's current arrival instant lazily, on its
    first observation there (``outstanding_tokens`` or
    ``probe_prefix``); a view the policy never reads is never synced,
    so a router that observes nothing routes a window as pure
    bookkeeping. Skipping a sync is exact: the next sync's ``run_until``
    composes with the ones skipped. While a replica's closed-form
    predictor (:class:`~repro.sim.fastforward.StretchOracle`, reading
    the proof's cached start series, or a constant for idle/parked
    replicas) is valid, observations cost a bisect (backlog) or a
    frozen-tree probe (cache) — no sweep. A replica whose clock already
    overshot the query instant, unmoved since the last rebuild, answers
    the same way under the one rule :meth:`_sync` applies in every
    window. When the predictor expires, the replica is swept to the
    query instant with a real ``run_until`` — exact by the run-until
    composition the fast loop is built on — and the predictor rebuilt
    from a fresh steady-stretch prep. Every answer therefore equals
    what per-arrival dispatch would have observed.

    A submission alone does not expire a predictor. Its tokens join
    the backlog at once (the view adds the contributions of requests
    submitted since its last rebuild), and its arrival is bounded by
    the engine's live arrival cap (:meth:`~repro.serving.engine.
    LLMEngine._arrival_cap`, the bound a stretch proof applies too): a
    query at or past the cap sweeps. A full batch has no cap — the
    queued request cannot be admitted before a completion, and the
    predictor expires before the first one — so a submission to a busy
    replica is answered in O(1).

    Views persist *across* arrival windows (the cluster loop keeps one
    per replica). Predictor answers stay exact across the intervening
    fleet execution because:

    * every mutation a prediction cannot model either bumps the
      engine's ``_batch_version`` (admission, prefix eviction,
      preemption, retirement, drain entry) or is a pending arrival
      under the live cap — both checked on every sync;
    * execution between windows only runs the *modeled* iterations for
      an untouched replica: its ``run_until`` stretches are
      deterministic continuations of the prepped stretch, the oracle's
      validity edge precedes the first completion and the first
      possible hook effect, and queries are monotone past every sweep
      horizon — so any execution beyond the modeled span implies the
      next query time already expired the predictor;
    * an idle or parked replica cannot change before its next pending
      arrival (the live cap) — sweeps to earlier instants are no-ops.
    """

    __slots__ = (
        "replica",
        "index",
        "_window",
        "_seq",
        "_time",
        "_base",
        "_oracle",
        "_valid",
        "_version",
        "_clock",
        "_submitted",
        "syncs",
        "answers",
        "oracle_builds",
    )

    def __init__(self, replica: Replica, window: _Window) -> None:
        self.replica = replica
        self.index = replica.index
        self._window = window
        self._seq = -1
        self._time = 0.0
        self._base = 0
        self._oracle: Optional[StretchOracle] = None
        self._valid = -math.inf
        self._version = -1
        self._clock = -math.inf
        self._submitted = 0
        #: Work counters: full syncs (a real ``run_until`` and a
        #: rebuild), syncs answered in O(1), ``StretchOracle`` builds.
        self.syncs = 0
        self.answers = 0
        self.oracle_builds = 0

    def _sync(self) -> None:
        """Bind observations to the window's current arrival instant."""
        window = self._window
        self._seq = window.seq
        time = self._time = window.time
        engine = self.replica.engine
        if (
            engine._batch_version == self._version
            and time < engine._arrival_cap()
            and (
                # The clock already overshot the query instant and has
                # not moved since the last rebuild: ``run_until(time)``
                # is a provable no-op (the serve prologue is idempotent
                # at a fixed state pair), so every answer is the last
                # rebuild's. Common for opaque replicas queried
                # repeatedly inside an arrival burst. Checked first: it
                # needs no predictor series.
                time <= engine.clock.now == self._clock
                or time < self._valid_until()
            )
        ):
            # Still exact; only the tokens submitted since join.
            self.answers += 1
            requests = engine._all_requests
            for request in requests[self._submitted:]:
                self._base += engine._contribution(request)
            self._submitted = len(requests)
            return
        self.syncs += 1
        engine.run_until(time)
        self._rebuild()
        self._version = engine._batch_version
        self._clock = engine.clock.now
        self._submitted = len(engine._all_requests)

    def _valid_until(self) -> float:
        """The instant from which the last rebuild's answers may be
        stale: the oracle's validity edge, or ``_valid`` without one."""
        oracle = self._oracle
        return self._valid if oracle is None else oracle.valid_until

    def _rebuild(self) -> None:
        engine = self.replica.engine
        self._oracle = None
        self._base = engine.outstanding_tokens
        if not engine._running:
            # Idle or parked (the sweep just ran the serve prologue, so
            # nothing more is admissible now): nothing changes before
            # the next pending arrival, which the live arrival cap
            # bounds — the backlog is constant, the tree frozen.
            self._valid = math.inf
            return
        # Opaque unless a predictor is built below: sweep per query,
        # unless the clock already passed the query instant (see _sync).
        self._valid = -math.inf
        # ``run_until`` just ran the serve prologue at this clock, so
        # this is the proof the serve loop would try next. An unbounded
        # deadline: the oracle's own validity edge (hook quiescence, the
        # completion bound) is what limits it, so a quiet replica's
        # predictor survives into later windows. A prep whose hooks may
        # fire at once builds no oracle; a running replica with no
        # provable steady stretch (prefill next, stretch too short, ...)
        # has no prep.
        prep = engine._fast.prepare(math.inf)
        if prep is not None:
            self.oracle_builds += 1
            self._oracle = StretchOracle.build(prep)

    @property
    def outstanding_tokens(self) -> int:
        if self._seq != self._window.seq:
            self._sync()
        oracle = self._oracle
        if oracle is None or self._time <= self._clock:
            # No iteration starts before the rebuild clock.
            return self._base
        return self._base - oracle.batch_size * oracle.iterations_before(
            self._time
        )

    def probe_prefix(self, request: Request) -> int:
        if self._seq != self._window.seq:
            self._sync()
        # A valid predictor freezes the radix tree (pure decode
        # completes no prefill and retires nothing inside the validity
        # span), so the live tree *is* the snapshot at every instant
        # this window can ask about.
        return self.replica.probe_prefix(request)


@dataclass
class _Migration:
    """One KV handoff in flight on the interconnect (a MIGRATION
    event's payload: dispatched when the bytes land)."""

    ready_time: float
    record: RequestRecord
    decode_request: Request
    #: Transfer size and telemetry transfer id (``None``: telemetry off).
    nbytes: int = 0
    transfer: Optional[int] = None


class ClusterEngine:
    """N engine replicas behind a router, on one virtual timeline."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.replicas: List[Replica] = []
        fleet_config = config.engine
        if config.scheduler_policy is not None:
            fleet_config = replace(
                fleet_config, scheduler_policy=config.scheduler_policy
            )
        for index in range(config.n_replicas):
            role = "serve"
            if config.disaggregated:
                role = (
                    "prefill"
                    if index < config.n_prefill_replicas
                    else "decode"
                )
            engine_config = fleet_config
            if role == "prefill" and config.prefill_scheduler_policy:
                engine_config = replace(
                    fleet_config,
                    scheduler_policy=config.prefill_scheduler_policy,
                )
            self.replicas.append(
                Replica(index, LLMEngine(engine_config), role)
            )
        #: Replicas arrivals are routed to (all of them, or the prefill
        #: tier in disaggregated mode). These are the event *sources*:
        #: only their retirements can spawn migrations.
        self._route_targets = [
            r for r in self.replicas if r.role in ("serve", "prefill")
        ]
        self._decode_targets = [
            r for r in self.replicas if r.role == "decode"
        ]
        self.router = make_policy(config.routing_policy)
        self.link = MigrationLink(get_interconnect(config.interconnect))
        self._submitted: List[Request] = []
        #: Arrival and migration-completion events on the shared
        #: timeline (populated by :meth:`run`).
        self._events: EventQueue = EventQueue()
        #: Finished prefills whose KV is not on the link yet, as a heap
        #: in (finish time, request id) order.
        self._pending_transfers: List[tuple] = []
        self._records: List[RequestRecord] = []
        #: prefill-clone id -> record, for the retire-time handoff hook.
        self._awaiting: Dict[str, RequestRecord] = {}
        self._started = False
        if config.disaggregated:
            for replica in self._route_targets:
                replica.engine.on_retire = self._harvest
        #: The resolved serve-tier engine config — scale-ups clone it.
        self._fleet_config = fleet_config
        self.autoscaler = make_autoscaler(
            config.autoscaler,
            high_watermark=config.queue_high_watermark,
            low_watermark=config.queue_low_watermark,
            slo_ttft=config.slo_ttft,
            drain_margin=config.drain_margin,
            backlog_guard_tokens=config.backlog_guard_tokens,
        )
        self._elastic = not self.autoscaler.is_static
        #: Rolling TTFT window the SLO-driven decisions read.
        self._slo_tracker = RollingPercentileTracker(
            config.slo_window_seconds
        )
        #: Routed records whose TTFT has not yet entered the tracker.
        #: Fed records leave the list, so each decide scans only the
        #: in-flight tail — never every record the run has produced.
        self._ttft_unfed: List[RequestRecord] = []
        self._scale_events: List[ScaleEvent] = []
        self._slo_samples: List[SloSample] = []
        #: Most replicas simultaneously SERVING (the initial fleet all
        #: serves from t=0; only SERVING transitions can raise it).
        self._peak_serving = self.n_serving
        #: request_id -> (record, leg) of a drain-withdrawn request
        #: awaiting re-dispatch. ``leg`` is ``(transfer id, bytes)`` of a
        #: traced drain-time KV transfer, else ``None``.
        self._rerouting: Dict[str, tuple] = {}
        #: Cluster-scope instruments from the installed registry
        #: (``None`` — the default — keeps every site a single check;
        #: replica engines bound their own scopes at construction above).
        registry = active_telemetry()
        self._telemetry: Optional[ClusterTelemetry] = (
            registry.cluster_telemetry() if registry is not None else None
        )
        self._sweeper = FleetStretchExecutor()
        #: Replica-view work, summed when the fast loop ends (see
        #: :class:`_ReplicaReplay`).
        self.view_syncs = 0
        self.view_answers = 0
        self.oracle_builds = 0

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, requests: Sequence[Request]) -> None:
        """Queue logical requests for routing at their arrival times.

        A prompt that leaves no room for an output token raises
        :class:`ConfigError` and queues nothing.
        """
        if self._started:
            raise SchedulingError(
                "cluster already ran; submit before calling run()"
            )
        _check_prompts_fit(requests, self.config.engine.shard)
        self._submitted.extend(requests)

    # ------------------------------------------------------------------
    # The next-event loop
    # ------------------------------------------------------------------
    def run(self) -> ClusterReport:
        """Serve every submitted request; returns the fleet report.

        A next-event loop over one :class:`~repro.sim.events.EventQueue`
        holding arrivals and KV-migration completions. Each pass:

        1. Event *sources* (replicas arrivals route to) run ahead to
           the next-arrival horizon — conservative parallel
           discrete-event simulation: their prefill completions are the
           only thing that can spawn new (migration) events, so every
           event earlier than that horizon is on the queue before
           anything commits to it. Harvested completions up to the
           horizon go onto the serialized link in simulated-time order
           and their landings are pushed as MIGRATION events.
        2. The earliest event is popped; replicas whose state the
           dispatch decision can observe (queue depths, cache content,
           outstanding tokens) advance to the event time first, so the
           router sees exactly what a live deployment's router would.
        3. Every event due at that instant dispatches — arrivals before
           migrations, both in deterministic order.

        With decode fast-forwarding inside each engine, a ``run_until``
        sweep costs one analytic stretch per replica instead of one
        Python loop per token — the fleet advances from event to event.

        An elastic autoscaler adds three event kinds: ``SCALE_DECIDE``
        (periodic policy evaluation — the run-ahead horizon also stops
        there, so the policy observes fleet state *at* the decision
        instant, not after a sweep past it), ``SCALE_UP`` (a booting
        replica's timed PROVISIONING → WARMING → SERVING transitions)
        and ``DRAIN_COMPLETE`` (a draining replica emptied and
        retires). Under the static policy none of these are scheduled
        and the loop below reduces exactly to the fixed-fleet one.

        A cluster runs once: a second call raises
        :class:`~repro.errors.SchedulingError` instead of re-routing
        every submitted request.
        """
        if self._started:
            raise SchedulingError("cluster already ran; run() is one-shot")
        self._started = True
        if self._telemetry is not None:
            for replica in self.replicas:
                self._telemetry.replica_init(
                    0.0, replica.index, replica.role, replica.state.value,
                    scope=self._engine_scope(replica),
                )
        self._events = EventQueue()
        for request in sorted(self._submitted, key=lambda r: r.arrival_time):
            self._events.push(request.arrival_time, EventKind.ARRIVAL, request)
        if self._elastic and self._submitted:
            first = min(r.arrival_time for r in self._submitted)
            self._events.push(
                first + self.config.scale_decide_interval,
                EventKind.SCALE_DECIDE,
            )
        if self.config.engine.fast_forward:
            self._run_fast_loop()
        else:
            self._run_event_loop()
        # Decode replicas never create events; they drain last.
        self._sweeper.sweep([replica.engine for replica in self.replicas], math.inf)
        return self._build_report()

    def _joint_horizon(self) -> float:
        """The instant the fleet cannot analytically skip past.

        The run-ahead sweep may advance every event source to the next
        arrival or scale decision, but no further: an arrival's routing
        observes replica state at the arrival instant, and a scale
        decision observes fleet state at the decision instant.
        Migration landings and the remaining lifecycle events
        (``SCALE_UP``, ``DRAIN_COMPLETE``) never bound the sweep — they
        touch no event source (a landing feeds the decode tier, a boot
        transition only changes who the *next* arrival may route to) —
        so between consecutive horizons every replica jumps through its
        own analytic decode stretches in one ``run_until`` call.
        """
        return min(
            self._events.next_time(EventKind.ARRIVAL),
            self._events.next_time(EventKind.SCALE_DECIDE),
        )

    def _dispatch_event(self, event) -> None:
        """Dispatch one due event (shared by both loops)."""
        if self._telemetry is not None:
            self._telemetry.on_sim_event(event)
        if event.kind is EventKind.ARRIVAL:
            self._route(event.payload)
        elif event.kind is EventKind.MIGRATION:
            self._dispatch_migration(event.payload)
        elif event.kind is EventKind.SCALE_UP:
            self._dispatch_scale_up(event.time, event.payload)
        elif event.kind is EventKind.SCALE_DECIDE:
            self._dispatch_scale_decide(event.time)
        else:
            self._dispatch_drain_complete(event.time, event.payload)

    def _run_event_loop(self) -> None:
        """The legacy next-event loop (``engine.fast_forward=False``)."""
        while True:
            horizon = self._joint_horizon()
            # Event sources first: every migration born before the next
            # arrival must be on the queue before the fleet advances.
            for replica in self._route_targets:
                replica.engine.run_until(horizon)
            self._schedule_transfers()
            if self._elastic:
                self._check_drain_completions()
            head = self._events.peek()
            if head is None:
                break
            now = head.time
            for replica in self.replicas:
                replica.engine.run_until(now)
            if head.kind is EventKind.ARRIVAL and self._telemetry is not None:
                self._sample_fleet(now)
            for event in self._events.pop_due(now):
                self._dispatch_event(event)

    def _run_fast_loop(self) -> None:
        """The joint-horizon loop (``engine.fast_forward=True``).

        Request-level identical to :meth:`_run_event_loop`; it drops
        work the legacy loop provably wastes:

        * ``run_until`` sweeps of idle replicas (``has_work()`` is
          ``False``: the engine's serve loop would not execute a single
          pass, and an idle clock never advances). Every replica
          advance, observed or not, goes through one
          :meth:`~repro.sim.fastforward.FleetStretchExecutor.sweep`.
        * The pre-dispatch re-sweep to the event instant. Event sources
          were just swept to ``horizon >= now`` and nothing was
          submitted to them since, so only replicas *outside* the
          run-ahead sweep — the disaggregated decode tier — can lag the
          event about to dispatch.
        * One sweep of the whole fleet per arrival. Every arrival up to
          the next non-arrival event — in the queue's (time, kind)
          order, so ties route as in the legacy loop — is routed in one
          pass against lazily synced :class:`_ReplicaReplay` views; a
          view the router never reads is never swept, so each engine
          crosses the window in analytic stretches broken only by its
          own admissions. Every observation equals per-arrival
          dispatch's, so the routing sequence is the legacy loop's. A
          draining replica receives nothing, so it is swept to the next
          fleet event first: a drain that completes inside the window
          bounds it. A migration landing reads only the decode tier,
          which is swept to its instant before it lands.
        """
        events = self._events
        sweep = self._sweeper.sweep
        window = _Window()
        # Persistent analytic views, one per replica index (indices are
        # never reused); see :class:`_ReplicaReplay` for why their
        # predictors survive across windows.
        views: Dict[int, _ReplicaReplay] = {}
        while True:
            sweep([r.engine for r in self._route_targets], self._joint_horizon())
            self._schedule_transfers()
            if self._elastic:
                self._check_drain_completions()
            head = events.peek()
            if head is None:
                break
            now = head.time
            sweep([r.engine for r in self._decode_targets], now)
            if head.kind is not EventKind.ARRIVAL:
                for event in events.pop_due(now):
                    self._dispatch_event(event)
                continue
            if self._telemetry is not None:
                self._sample_fleet(now)
            if self._elastic:
                sweep(
                    [r.engine for r in self.replicas
                     if r.state is ReplicaState.DRAINING],
                    events.next_fleet_event(),
                )
                self._check_drain_completions()
            replay = []
            for r in self._route_targets:
                if r.is_serving:
                    view = views.get(r.index)
                    if view is None:
                        view = views[r.index] = _ReplicaReplay(r, window)
                    replay.append(view)
            while head is not None and head.kind is EventKind.ARRIVAL:
                events.pop()
                if self._telemetry is not None:
                    self._telemetry.on_sim_event(head)
                window.time = head.time
                window.seq += 1
                choice = self.router.select(head.payload, replay)
                self._dispatch_to(head.payload, choice.replica)
                head = events.peek()
        for view in views.values():
            self.view_syncs += view.syncs
            self.view_answers += view.answers
            self.oracle_builds += view.oracle_builds

    # ------------------------------------------------------------------
    # Routing and KV migration
    # ------------------------------------------------------------------
    def _route(self, request: Request) -> None:
        # Only SERVING replicas are routable: a booting replica has no
        # loaded weights yet and a draining one admits nothing new. For
        # a static fleet every target is SERVING and the filter is a
        # no-op (the router sees the identical sequence it always did).
        targets = [r for r in self._route_targets if r.is_serving]
        replica = self.router.select(request, targets)
        self._dispatch_to(request, replica)

    def _dispatch_to(self, request: Request, replica: Replica) -> None:
        """Book ``request`` onto its selected replica and submit it.

        A first dispatch creates the request's record. A drain re-route
        (:meth:`_begin_replica_drain`) only moves the record it has, so
        the record keeps its original arrival and migration billing,
        and feeds the rolling TTFT window once.
        """
        rerouting = self._rerouting.pop(request.request_id, None)
        if rerouting is None:
            record = RequestRecord(
                request_id=request.request_id,
                arrival_time=request.arrival_time,
                prompt_len=request.prompt_len,
                max_new_tokens=request.max_new_tokens,
                replica=replica.index,
                serve_request=request,
            )
            self._records.append(record)
            self._ttft_unfed.append(record)
            leg = None
        else:
            record, leg = rerouting
            record.replica = replica.index
        if self._telemetry is not None:
            self._telemetry.request_routed(
                request.arrival_time,
                request.request_id,
                replica.index,
                request.prompt_len,
                request.max_new_tokens,
                rerouted=rerouting is not None,
            )
            if leg is not None:
                # The drain-leg KV transfer lands with its re-route.
                transfer, nbytes = leg
                self._telemetry.migration_land(
                    request.arrival_time,
                    transfer,
                    request.request_id,
                    replica.index,
                    nbytes,
                )
        if self.config.disaggregated:
            # The prefill tier runs the prompt and produces exactly the
            # first token; the rest of the decode happens post-handoff.
            clone = Request(
                request_id=f"{request.request_id}#prefill",
                prompt_len=request.prompt_len,
                max_new_tokens=1,
                arrival_time=request.arrival_time,
                prefix=request.prefix,
            )
            record.serve_request = clone
            # A prompt one token short of the model's context finishes
            # at its first token, as on an aggregated replica: it owes
            # no continuation (one would hold a full context and no room
            # for another token).
            if (
                request.max_new_tokens > 1
                and request.prompt_len + 1 < self.config.engine.shard.max_context
            ):
                record.awaits_decode = True
                self._awaiting[clone.request_id] = record
            replica.engine.submit([clone])
        else:
            replica.engine.submit([request])

    def _harvest(self, request: Request) -> None:
        """Retire hook on the prefill tier: queue a finished prompt's
        KV for migration (any non-clone retirement is ignored)."""
        record = self._awaiting.pop(request.request_id, None)
        if record is not None:
            key = (request.finish_time, request.request_id)
            heapq.heappush(self._pending_transfers, (*key, record, request))

    def _schedule_transfers(self) -> None:
        """Feed harvested prefill completions to the link in simulated-
        time order.

        Retire hooks fire during per-replica ``run_until`` sweeps, i.e.
        in replica order, while the link must serve transfers in the
        order they were *requested* on the shared timeline — otherwise a
        replica that happened to be swept first would cut the queue.
        Every event source was just swept to the joint horizon, so no
        earlier completion can still appear: those start, in time
        order. A later one waits for the pass whose horizon covers it
        (its landing lies past the horizon, after the next event), so
        the link order never depends on how finely replicas sweep.
        """
        pending = self._pending_transfers
        while pending and pending[0][0] <= self._joint_horizon():
            _, _, record, prefill = heapq.heappop(pending)
            self._start_migration(record, prefill)

    def _start_migration(
        self, record: RequestRecord, prefill: Request
    ) -> None:
        """Put a finished prompt's KV on the wire toward the decode tier.

        The transfer is charged per KV byte at the interconnect's
        bandwidth; the continuation becomes schedulable only once the
        bytes have landed, so migration cost reaches TTFT/e2e latency
        through plain clock arithmetic.
        """
        shard = self.config.engine.shard
        nbytes = prefill.context_len * shard.kv_bytes_per_token
        start, done = self._transfer(record, prefill.finish_time, nbytes)
        continuation = Request(
            request_id=f"{record.request_id}#decode",
            prompt_len=prefill.context_len,
            max_new_tokens=record.max_new_tokens - 1,
            arrival_time=done,
            # The migrated KV is resident once mapped; no prefill runs.
            prefill_done=True,
            prefilled_tokens=prefill.context_len,
        )
        transfer = None
        if self._telemetry is not None:
            transfer = self._telemetry.migration_start(
                prefill.finish_time,
                record.request_id,
                "disagg",
                nbytes,
                start,
                done,
            )
        self._events.push(
            done,
            EventKind.MIGRATION,
            _Migration(done, record, continuation, nbytes, transfer),
        )

    def _transfer(
        self, record: RequestRecord, requested: float, nbytes: int
    ) -> Tuple[float, float]:
        """Put ``nbytes`` of ``record``'s KV on the shared link at
        ``requested``; returns the link's ``(start, done)``.

        The leg's bytes, link wait and wire time accumulate on the
        record in place, so a request whose KV crosses the link more
        than once (repeated drains) accounts every transfer it caused.
        """
        start, done = self.link.transfer(requested, nbytes)
        record.migrated_bytes += nbytes
        record.migration_wait += start - requested
        record.migration_seconds += done - start
        return start, done

    def _dispatch_migration(self, migration: _Migration) -> None:
        replica = least_loaded(self._decode_targets)
        record = migration.record
        record.decode_replica = replica.index
        record.decode_request = migration.decode_request
        record.awaits_decode = False
        if self._telemetry is not None and migration.transfer is not None:
            self._telemetry.migration_land(
                migration.ready_time,
                migration.transfer,
                record.request_id,
                replica.index,
                migration.nbytes,
            )
        replica.engine.submit([migration.decode_request])

    # ------------------------------------------------------------------
    # Elastic scaling: lifecycle events and the decision loop
    # ------------------------------------------------------------------
    @property
    def n_serving(self) -> int:
        """Replicas currently in the routing set."""
        return sum(1 for r in self.replicas if r.is_serving)

    @staticmethod
    def _engine_scope(replica: Replica) -> str:
        """The replica engine's telemetry scope ("" when untraced)."""
        telemetry = replica.engine.telemetry
        return telemetry.scope if telemetry is not None else ""

    def _timeline(
        self, time: float, action: str, replica: int, reason: str = ""
    ) -> None:
        self._scale_events.append(
            ScaleEvent(
                time=time,
                action=action,
                replica=replica,
                n_serving=self.n_serving,
                reason=reason,
            )
        )
        if self._telemetry is not None:
            # Every call site mutates the replica's state *before*
            # reaching this chokepoint, so its current lifecycle value
            # is the transition the trace checker replays.
            self._telemetry.replica_state(
                time,
                self.replicas[replica].state.value,
                replica,
                self.n_serving,
                reason,
            )

    def _lifecycle_counts(self) -> Tuple[int, int]:
        """(booting, draining) replica counts."""
        states = [r.state for r in self.replicas]
        booting = states.count(ReplicaState.PROVISIONING) + states.count(
            ReplicaState.WARMING
        )
        return booting, states.count(ReplicaState.DRAINING)

    def _sample_fleet(
        self, now: float, p99_ttft: Optional[float] = None
    ) -> None:
        """Sample the fleet gauges (routing passes, scale decides)."""
        self._telemetry.sample_fleet(
            now,
            self.n_serving,
            *self._lifecycle_counts(),
            [(r.index, r.engine.outstanding_tokens) for r in self.replicas
             if r.state is not ReplicaState.RETIRED],
            p99_ttft,
        )

    def _feed_ttft_tracker(self, now: float) -> None:
        """Feed first-token completions born by ``now`` to the rolling
        window. Completions stamped past ``now`` (a replica's
        one-iteration overshoot) wait for the decide that covers them,
        keeping the tracker's time order intact."""
        fresh = []
        waiting = []
        for record in self._ttft_unfed:
            first = record.serve_request.first_token_time
            if first is not None and first <= now:
                fresh.append((first, record.ttft))
            else:
                waiting.append(record)
        self._ttft_unfed = waiting
        fresh.sort()
        for time, ttft in fresh:
            self._slo_tracker.observe(time, ttft)

    def _fleet_view(self, now: float) -> FleetView:
        serving = [r for r in self.replicas if r.is_serving]
        n_booting, n_draining = self._lifecycle_counts()
        slo = self.config.slo_ttft
        return FleetView(
            now=now,
            n_serving=len(serving),
            n_booting=n_booting,
            n_draining=n_draining,
            min_replicas=self.config.resolved_min_replicas,
            max_replicas=self.config.resolved_max_replicas,
            outstanding_tokens=sum(
                r.outstanding_tokens for r in serving
            ),
            rolling_p99_ttft=self._slo_tracker.percentile(99.0, now),
            rolling_attainment=(
                None
                if slo is None
                else self._slo_tracker.attainment(slo, now)
            ),
        )

    def _dispatch_scale_decide(self, now: float) -> None:
        self._feed_ttft_tracker(now)
        view = self._fleet_view(now)
        self._slo_samples.append(
            SloSample(
                time=now,
                p99_ttft=view.rolling_p99_ttft,
                attainment=view.rolling_attainment,
                n_serving=view.n_serving,
            )
        )
        if self._telemetry is not None:
            self._telemetry.scale_decides.inc()
            self._sample_fleet(now, p99_ttft=view.rolling_p99_ttft)
        decision = self.autoscaler.decide(view)
        if decision.delta > 0:
            headroom = view.max_replicas - view.n_live
            for _ in range(min(decision.delta, headroom)):
                self._provision_replica(now, decision.reason)
        elif decision.delta < 0:
            shrinkable = view.n_serving - view.min_replicas
            for _ in range(min(-decision.delta, shrinkable)):
                self._begin_replica_drain(now, decision.reason)
        # The control loop runs while there is anything left to react
        # to; once arrivals are exhausted and the fleet is empty, the
        # timeline must drain so the run can end.
        if self._events.next_time(EventKind.ARRIVAL) < math.inf or any(
            r.engine.has_work() for r in self.replicas
        ):
            self._events.push(
                now + self.config.scale_decide_interval,
                EventKind.SCALE_DECIDE,
            )

    def _provision_replica(self, now: float, reason: str) -> None:
        replica = Replica(
            index=len(self.replicas),
            engine=LLMEngine(self._fleet_config),
            role="serve",
            state=ReplicaState.PROVISIONING,
            provision_time=now,
        )
        self.replicas.append(replica)
        self._route_targets.append(replica)
        self._timeline(now, "provision", replica.index, reason)
        if self._telemetry is not None:
            # After the timeline event: the state checker accepts a
            # first-seen replica_state of "provisioning", and the init
            # record then binds the fresh engine scope to this cluster
            # for span stitching.
            self._telemetry.replica_init(
                now, replica.index, replica.role, replica.state.value,
                scope=self._engine_scope(replica),
            )
        boot = now + self.config.cold_start_seconds
        self._events.push(
            boot, EventKind.SCALE_UP, (replica, ReplicaState.WARMING)
        )
        self._events.push(
            boot + self.config.warmup_seconds,
            EventKind.SCALE_UP,
            (replica, ReplicaState.SERVING),
        )

    def _dispatch_scale_up(self, now: float, payload: tuple) -> None:
        replica, target = payload
        replica.state = target
        if target is ReplicaState.SERVING:
            replica.serving_time = now
            self._peak_serving = max(self._peak_serving, self.n_serving)
        self._timeline(now, target.value, replica.index)

    def _begin_replica_drain(self, now: float, reason: str) -> None:
        """Drain one serving replica and re-route its queued work.

        The victim's engine withdraws its never-admitted requests and
        refuses new ones (:meth:`LLMEngine.begin_drain`). Each withdrawn
        request re-enters the event queue as an arrival; its record
        waits in ``_rerouting`` for :meth:`_dispatch_to`.
        """
        candidates = [r for r in self._route_targets if r.is_serving]
        if len(candidates) <= 1:
            return  # never drain the last routable replica
        # Least backlog first (cheapest to finish), youngest on ties —
        # elastic capacity leaves in reverse order of arrival.
        victim = min(
            candidates,
            key=lambda r: (r.engine.outstanding_tokens, -r.index),
        )
        victim.state = ReplicaState.DRAINING
        victim.drain_time = now
        withdrawn = victim.engine.begin_drain()
        self._timeline(now, "drain", victim.index, reason)
        shard = self.config.engine.shard
        records = {
            id(record.serve_request): record
            for record in self._records
            if record.replica == victim.index
        }
        for request in withdrawn:
            record = records[id(request)]
            when = now
            # A twice-drained request already carries KV from its first
            # migration (prefilled_tokens): only the *additional*
            # prefix tokens this replica's cache holds cross the link,
            # and the record accumulates every leg's billing.
            cached = victim.probe_prefix(request)
            extra = cached - request.prefilled_tokens
            if extra > 0:
                # The prefix KV this request would have hit on the
                # draining replica follows it across the interconnect.
                # Delivery works like a disaggregation handoff: the
                # request arrives at its new replica already carrying
                # the migrated tokens (prefilled_tokens), the target
                # demand-maps their rows like any resident KV, and the
                # prefill computes only the uncached suffix — the
                # transfer buys real compute, it is not just billed.
                nbytes = extra * shard.kv_bytes_per_token
                start, when = self._transfer(record, now, nbytes)
                request.prefilled_tokens = cached
                request.cached_prefix_tokens = cached
            leg = None
            if self._telemetry is not None:
                # The re-route span covers drain → re-dispatch (zero
                # length when nothing crossed the link) and carries the
                # original arrival, which the re-routed engine request
                # no longer shows; a KV leg nests under it.
                reroute = self._telemetry.drain_reroute(
                    now, request.request_id, when,
                    record.arrival_time, victim.index,
                )
                if extra > 0:
                    transfer = self._telemetry.migration_start(
                        now, request.request_id, "drain",
                        nbytes, start, when, span_parent=reroute,
                    )
                    leg = (transfer, nbytes)
            # Causality: the request re-enters the timeline at the
            # re-dispatch (or KV-landing) instant — never at its
            # original arrival, which a lagging replica clock would
            # happily serve in the past. The record keeps the original
            # arrival, so TTFT still spans the whole disruption.
            self._rerouting[request.request_id] = (record, leg)
            request.arrival_time = when
            self._events.push(when, EventKind.ARRIVAL, request)

    def _check_drain_completions(self) -> None:
        """Push DRAIN_COMPLETE for draining replicas that emptied.

        Both loops call this after every sweep and stop only on an empty
        event queue, which leaves no arrival or scale decision to bound
        the last sweep: every replica ran to an infinite horizon, so
        every open drain is pushed here and dispatched before the loop
        ends. No drain outlives :meth:`run`.
        """
        for replica in self.replicas:
            if (
                replica.state is ReplicaState.DRAINING
                and not replica.drain_event_pushed
                and not replica.engine.has_work()
            ):
                replica.drain_event_pushed = True
                done = max(replica.drain_time, replica.engine.clock.now)
                self._events.push(done, EventKind.DRAIN_COMPLETE, replica)

    def _dispatch_drain_complete(
        self, now: float, replica: Replica
    ) -> None:
        replica.state = ReplicaState.RETIRED
        replica.retire_time = now
        self._timeline(now, "retire", replica.index)

    def _replica_seconds(self, end: float) -> float:
        """Fleet cost: provisioned-to-retired seconds summed over
        replicas (a booting or draining instance is still paid for)."""
        total = 0.0
        for replica in self.replicas:
            death = (
                replica.retire_time
                if replica.retire_time is not None
                else end
            )
            total += max(0.0, death - replica.provision_time)
        return total

    # ------------------------------------------------------------------
    def _build_report(self) -> ClusterReport:
        for record in self._records:
            record.cached_prefix_tokens = (
                record.serve_request.cached_prefix_tokens
            )
        end = max(
            (replica.engine.clock.now for replica in self.replicas),
            default=0.0,
        )
        report = ClusterReport(
            n_replicas=len(self.replicas),
            routing_policy=self.config.routing_policy,
            disaggregated=self.config.disaggregated,
            interconnect=self.config.interconnect,
            records=list(self._records),
            replica_reports=[
                replica.engine.partial_report()
                for replica in self.replicas
            ],
            start_time=0.0,
            end_time=end,
            migrations=self.link.transfers,
            migrated_bytes=self.link.migrated_bytes,
            migration_seconds=self.link.busy_seconds,
            autoscaler=self.config.autoscaler,
            replica_seconds=self._replica_seconds(end),
            scale_events=tuple(self._scale_events),
            slo_samples=tuple(self._slo_samples),
            peak_serving=self._peak_serving,
            latency_attribution=self._latency_attribution(),
        )
        if self._telemetry is not None:
            self._telemetry.on_report(report)
        return report

    def _latency_attribution(self) -> Optional[dict]:
        """Fleet-wide attribution summary (spans-on runs only).

        Replica-engine spans fold into this cluster's domain through
        the ``replica_init`` scope bindings, so disagg stage clones and
        drain re-routes stitch back into logical requests.
        """
        if self._telemetry is None:
            return None
        registry = self._telemetry.registry
        if not registry.record_spans:
            return None
        spans, cluster_of = registry.span_rows(self._telemetry.first_record)
        return attribution.attribute(
            spans, cluster_of, domains={self._telemetry.scope},
        ).to_json()
