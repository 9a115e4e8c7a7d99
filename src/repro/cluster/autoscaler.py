"""Elastic fleet autoscaling: policies and the replica lifecycle.

The cluster layer originally served a *fixed* replica fleet: the router
spread load over N engines that existed for the whole run. Production
fleets are elastic — bursty traffic (the on/off MMPP regime of
:func:`~repro.workloads.arrival.bursty_arrivals`) makes static
provisioning a dilemma: provision for the burst and idle through every
lull, or provision for the average and melt the tail during bursts.
This module turns the fleet size into a control loop.

An :class:`AutoscalerPolicy` is evaluated at periodic ``SCALE_DECIDE``
events on the cluster's shared timeline. It observes a
:class:`FleetView` — serving/warming/draining replica counts, the
outstanding-token backlog, and a rolling-window TTFT percentile
(:class:`~repro.metrics.rolling.RollingPercentileTracker`) — and
returns a :class:`ScaleDecision`: grow the fleet, drain part of it, or
hold. Three policies:

* :class:`StaticPolicy` — never scales; the pre-autoscaler behaviour,
  kept byte-identical (no lifecycle events enter the timeline at all).
* :class:`QueueDepthPolicy` — watermarks on the per-serving-replica
  outstanding-token backlog: scale up above the high watermark, drain
  below the low one. The classic reactive loop; cheap, but it reacts
  to *queues*, which lag the latencies users feel.
* :class:`SlaPolicy` — closes the loop on the objective itself:
  rolling p99 TTFT against an SLO target. Scale up while the recent
  tail breaches the objective, drain only while it holds with margin.

Replica lifecycle. A scale-up does not add capacity instantly: the new
replica walks ``PROVISIONING`` (instance acquisition + model-weight
load, ``cold_start_seconds``) then ``WARMING`` (allocator/cache
warm-up, ``warmup_seconds``) before reaching ``SERVING``, and only
SERVING replicas are routable. A scale-down is graceful: the victim
moves to ``DRAINING`` — no new work (the router skips it and the
draining engine refuses submissions), queued work is withdrawn and
re-routed with its original record (any radix-tree prefix KV it would
have hit migrates over the cluster's existing
:class:`~repro.cluster.interconnect.MigrationLink`), in-flight
requests finish where they run — and retires at its ``DRAIN_COMPLETE``
event. Replica-seconds (the cost metric elasticity buys down) accrue
from provisioning to retirement.
"""

from __future__ import annotations

import abc
import enum
import inspect
from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, List, Optional

from ..errors import ConfigError


class ReplicaState(enum.Enum):
    """Lifecycle states of one fleet replica."""

    #: Instance acquisition + weight load; not routable.
    PROVISIONING = "provisioning"
    #: Allocator/cache warm-up after boot; not routable yet.
    WARMING = "warming"
    #: In the routing set, accepting new work.
    SERVING = "serving"
    #: Graceful shutdown: finishes in-flight work, admits nothing new.
    DRAINING = "draining"
    #: Gone; accrues no further replica-seconds.
    RETIRED = "retired"


#: States that accrue replica-seconds (everything but RETIRED: a
#: provisioning or draining instance is still paid for).
BILLABLE_STATES = frozenset(
    state for state in ReplicaState if state is not ReplicaState.RETIRED
)


@dataclass(frozen=True)
class ScaleEvent:
    """One entry of the fleet's scale timeline."""

    time: float
    #: "provision" | "warming" | "serving" | "drain" | "retire".
    action: str
    replica: int
    #: SERVING replicas *after* this event applied.
    n_serving: int
    reason: str = ""


@dataclass(frozen=True)
class SloSample:
    """One SCALE_DECIDE observation of the rolling SLO state."""

    time: float
    #: Rolling-window p99 TTFT (``None`` while the window is empty).
    p99_ttft: Optional[float]
    #: Fraction of in-window TTFTs meeting the SLO (``None`` without a
    #: configured objective or an empty window).
    attainment: Optional[float]
    n_serving: int


@dataclass(frozen=True)
class FleetView:
    """What an autoscaling policy may observe at a decision point."""

    now: float
    n_serving: int
    #: Replicas booting toward SERVING (provisioning + warming): already
    #: paid for, not yet routable — a policy that ignores them
    #: over-provisions every burst.
    n_booting: int
    n_draining: int
    min_replicas: int
    max_replicas: int
    #: Outstanding tokens across SERVING replicas (queued + running).
    outstanding_tokens: int
    #: Rolling-window p99 TTFT over recent completions (``None`` while
    #: no completion falls in the window).
    rolling_p99_ttft: Optional[float]
    #: Rolling-window SLO attainment (``None`` without an objective).
    rolling_attainment: Optional[float]

    @property
    def n_live(self) -> int:
        """Capacity already committed: serving + booting replicas."""
        return self.n_serving + self.n_booting

    @property
    def backlog_per_serving(self) -> float:
        """Outstanding tokens per serving replica (inf with none)."""
        if self.n_serving == 0:
            return float("inf")
        return self.outstanding_tokens / self.n_serving


@dataclass(frozen=True)
class ScaleDecision:
    """One policy verdict: ``delta`` replicas to add (+) or drain (-)."""

    delta: int
    reason: str = ""

    #: The no-op decision, shared.
    HOLD: ClassVar["ScaleDecision"]


ScaleDecision.HOLD = ScaleDecision(0, "hold")


class AutoscalerPolicy(abc.ABC):
    """Decides fleet growth/shrinkage at each SCALE_DECIDE event.

    Policies are deterministic functions of the :class:`FleetView`, so
    a cluster run remains reproducible for a fixed trace seed. The
    engine clamps every decision to ``[min_replicas, max_replicas]``
    and to one lifecycle action per replica — a policy cannot drain a
    replica that is still booting.
    """

    #: Registry name (``ClusterConfig.autoscaler``).
    name: str

    #: Static policies skip the event machinery entirely, keeping the
    #: fixed-fleet timeline byte-identical to the pre-autoscaler engine.
    is_static: bool = False

    @abc.abstractmethod
    def decide(self, view: FleetView) -> ScaleDecision:
        """The scale action to take given the observed fleet state."""


class StaticPolicy(AutoscalerPolicy):
    """Fixed fleet — the control case and the pre-autoscaler default.

    ``ClusterEngine`` recognises ``is_static`` and pushes no lifecycle
    events at all, so a static run's event timeline (and therefore its
    report) is byte-identical to the engine before autoscaling existed.
    """

    name = "static"
    is_static = True

    def decide(self, view: FleetView) -> ScaleDecision:
        return ScaleDecision.HOLD


class QueueDepthPolicy(AutoscalerPolicy):
    """Watermark control on the per-serving-replica token backlog.

    Above ``high_watermark`` outstanding tokens per serving replica the
    fleet grows; below ``low_watermark`` it shrinks. Capacity already
    booting counts toward the high-side check (a burst should not
    provision twice for the same backlog), and both checks respect the
    configured fleet bounds.
    """

    name = "queue_depth"

    def __init__(
        self,
        high_watermark: int = 16_384,
        low_watermark: int = 2_048,
    ) -> None:
        if not (high_watermark > 0 and low_watermark >= 0):
            raise ConfigError(
                f"watermarks must be positive, got high={high_watermark} "
                f"low={low_watermark}"
            )
        if low_watermark >= high_watermark:
            raise ConfigError(
                f"low_watermark ({low_watermark}) must sit below "
                f"high_watermark ({high_watermark})"
            )
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark

    def decide(self, view: FleetView) -> ScaleDecision:
        if view.n_live < view.max_replicas:
            # Judge the backlog against the capacity already committed:
            # a replica mid-boot will absorb its share once SERVING.
            per_live = view.outstanding_tokens / max(1, view.n_live)
            if per_live > self.high_watermark:
                return ScaleDecision(
                    1,
                    f"backlog {per_live:.0f} tok/replica above "
                    f"{self.high_watermark}",
                )
        if (
            view.n_serving > view.min_replicas
            and view.n_booting == 0
            and view.backlog_per_serving < self.low_watermark
        ):
            return ScaleDecision(
                -1,
                f"backlog {view.backlog_per_serving:.0f} tok/replica "
                f"below {self.low_watermark}",
            )
        return ScaleDecision.HOLD


class SlaPolicy(AutoscalerPolicy):
    """Scale on rolling p99-TTFT SLO attainment.

    The policy watches the tail users actually experience: the p99 TTFT
    over the tracker's rolling window. While it breaches ``slo_ttft``
    the fleet grows; it shrinks only while the tail holds under
    ``drain_margin * slo_ttft`` (hysteresis — a fleet sized exactly at
    the objective flaps otherwise) with nothing booting. The backlog
    guard handles the cold-start blind spot: during a burst's first
    seconds no completion has landed yet, so an empty window must not
    read as "SLO met".
    """

    name = "sla"

    def __init__(
        self,
        slo_ttft: float,
        drain_margin: float = 0.5,
        backlog_guard_tokens: int = 65_536,
    ) -> None:
        if not slo_ttft > 0:
            raise ConfigError(f"slo_ttft must be positive, got {slo_ttft}")
        if not 0.0 < drain_margin < 1.0:
            raise ConfigError(
                f"drain_margin must be in (0, 1), got {drain_margin}"
            )
        if not backlog_guard_tokens > 0:
            raise ConfigError(
                f"backlog_guard_tokens must be positive, "
                f"got {backlog_guard_tokens}"
            )
        self.slo_ttft = slo_ttft
        self.drain_margin = drain_margin
        self.backlog_guard_tokens = backlog_guard_tokens

    def decide(self, view: FleetView) -> ScaleDecision:
        p99 = view.rolling_p99_ttft
        if view.n_live < view.max_replicas:
            if p99 is not None and p99 > self.slo_ttft:
                return ScaleDecision(
                    1,
                    f"rolling p99 TTFT {p99:.2f}s breaches "
                    f"{self.slo_ttft:.2f}s SLO",
                )
            # Blind spot: a burst has queued work but no in-window
            # completions to expose the tail yet. A backlog this deep
            # per committed replica cannot meet the SLO once it lands.
            per_live = view.outstanding_tokens / max(1, view.n_live)
            if per_live > self.backlog_guard_tokens:
                return ScaleDecision(
                    1,
                    f"backlog guard: {per_live:.0f} tok/replica with "
                    f"no in-window tail evidence",
                )
        if (
            view.n_serving > view.min_replicas
            and view.n_booting == 0
            and p99 is not None
            and p99 < self.drain_margin * self.slo_ttft
            and view.backlog_per_serving < self.backlog_guard_tokens / 4
        ):
            return ScaleDecision(
                -1,
                f"rolling p99 TTFT {p99:.2f}s holds under "
                f"{self.drain_margin:.0%} of the SLO",
            )
        return ScaleDecision.HOLD


#: Policy name -> constructor. ``make_autoscaler`` passes each policy
#: only the kwargs it declares.
AUTOSCALER_POLICIES: Dict[str, Callable[..., AutoscalerPolicy]] = {
    "static": StaticPolicy,
    "queue_depth": QueueDepthPolicy,
    "sla": SlaPolicy,
}


def validate_autoscaler_policy(name: str) -> str:
    """Reject unknown policy names (shared by config validation)."""
    if name not in AUTOSCALER_POLICIES:
        known = ", ".join(sorted(AUTOSCALER_POLICIES))
        raise ConfigError(
            f"unknown autoscaler policy {name!r}; known: {known}"
        )
    return name


def make_autoscaler(name: str, **kwargs) -> AutoscalerPolicy:
    """Instantiate an autoscaling policy by registry name.

    The caller may pass the union of every registered policy's knobs
    (``ClusterConfig`` carries them all); kwargs a policy's constructor
    does not declare are dropped, ``None`` values fall back to the
    constructor default, and a required knob left unset (e.g. the sla
    policy's ``slo_ttft``) raises :class:`~repro.errors.ConfigError`.
    Accepted knobs come from the constructor signature itself, so
    policies added to :data:`AUTOSCALER_POLICIES` need no registration
    beyond the registry entry.
    """
    validate_autoscaler_policy(name)
    factory = AUTOSCALER_POLICIES[name]
    parameters = inspect.signature(factory).parameters
    filtered = {
        key: value
        for key, value in kwargs.items()
        if key in parameters and value is not None
    }
    missing = [
        key
        for key, parameter in parameters.items()
        if parameter.default is inspect.Parameter.empty
        and parameter.kind
        in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        )
        and key not in filtered
    ]
    if missing:
        raise ConfigError(
            f"the {name} autoscaler needs {', '.join(missing)} "
            f"(see ClusterConfig)"
        )
    return factory(**filtered)


def policy_names() -> List[str]:
    """Registered autoscaler names in registry order."""
    return list(AUTOSCALER_POLICIES)
