"""Pluggable scheduling: the policy layer between queue and engine.

:class:`~repro.scheduling.base.SchedulerPolicy` factors the three
decisions the serving loop makes every iteration — admission order,
iteration shape (prefill / mixed / decode), and preemption victim —
out of :class:`~repro.serving.engine.LLMEngine` into replaceable
policies:

* :class:`~repro.scheduling.fcfs.FcfsPolicy` — strict arrival order,
  byte-identical to the pre-subsystem engine (the paper's S7.4 setup
  and the default),
* :class:`~repro.scheduling.sla.SlaAwarePolicy` — earliest-TTFT-
  deadline-first with per-request priorities,
* :class:`~repro.scheduling.hybrid.HybridBatchPolicy` — Sarathi-style
  mixed batches under a per-iteration token budget, with
  prefix-cache-aware chunk accounting.

Select via ``EngineConfig.scheduler_policy`` (single engine) or
``ClusterConfig.scheduler_policy`` / ``prefill_scheduler_policy``
(fleet / disaggregated prefill tier). See ``docs/scheduling.md``.
"""

from typing import Callable, Dict, List

from ..errors import ConfigError
from .base import (
    IterationPlan,
    PlanKind,
    SchedulerPolicy,
    SchedulingView,
)
from .fcfs import FcfsPolicy
from .hybrid import DEFAULT_TOKEN_BUDGET, HybridBatchPolicy
from .sla import SlaAwarePolicy

#: Policy name -> constructor. ``make_scheduler_policy`` passes each
#: constructor only the knobs listed in ``_POLICY_KNOBS``.
SCHEDULER_POLICIES: Dict[str, Callable[..., SchedulerPolicy]] = {
    "fcfs": FcfsPolicy,
    "sla": SlaAwarePolicy,
    "hybrid": HybridBatchPolicy,
}

#: Constructor keywords each policy accepts (unlisted = none).
_POLICY_KNOBS: Dict[str, tuple] = {
    "sla": ("default_ttft_budget",),
    "hybrid": ("token_budget",),
}


def validate_scheduler_policy(name: str) -> str:
    """Raise :class:`~repro.errors.ConfigError` for unregistered names.

    The one validation site — engine and cluster configs call this at
    construction so a typo fails before any replica is built.
    """
    if name not in SCHEDULER_POLICIES:
        known = ", ".join(sorted(SCHEDULER_POLICIES))
        raise ConfigError(
            f"unknown scheduler policy {name!r}; known: {known}"
        )
    return name


def make_scheduler_policy(name: str, **knobs) -> SchedulerPolicy:
    """Instantiate a scheduler policy by registry name.

    Knobs a policy does not take are ignored, so callers (the engine)
    can pass their full configuration unconditionally.
    """
    validate_scheduler_policy(name)
    accepted = _POLICY_KNOBS.get(name, ())
    return SCHEDULER_POLICIES[name](
        **{key: value for key, value in knobs.items() if key in accepted}
    )


def scheduler_policy_names() -> List[str]:
    """Registered policy names in registry order."""
    return list(SCHEDULER_POLICIES)


__all__ = [
    "DEFAULT_TOKEN_BUDGET",
    "FcfsPolicy",
    "HybridBatchPolicy",
    "IterationPlan",
    "PlanKind",
    "SCHEDULER_POLICIES",
    "SchedulerPolicy",
    "SchedulingView",
    "SlaAwarePolicy",
    "make_scheduler_policy",
    "scheduler_policy_names",
    "validate_scheduler_policy",
]
