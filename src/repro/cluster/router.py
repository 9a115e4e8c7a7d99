"""Request routing across engine replicas.

The router sees every replica's live state at the moment a request
arrives — outstanding work, and (when the prefix cache is on) how many
of the request's prompt tokens each replica's radix tree already holds
— and picks the replica the request is dispatched to. Three policies,
mirroring the spectrum SGLang's cache-aware load balancer spans:

* ``round_robin`` — cache- and load-blind cycling; the control case.
* ``least_outstanding_tokens`` — classic load balancing on the token
  backlog (un-prefilled prompt tokens + decode tokens still owed).
* ``cache_aware`` — probe each replica's radix tree for the longest
  prefix match and route to maximize KV reuse, *unless* the fleet is
  imbalanced beyond a cap, in which case it degrades to least-loaded
  routing until the backlog evens out. Affinity concentrates a prompt
  family's cache on one replica; the cap keeps a hot system prompt from
  melting it.

Policies are deterministic: ties always break toward the lowest replica
index, so a cluster run is reproducible for a fixed trace seed.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Sequence

from ..errors import ConfigError
from ..serving.request import Request


class ReplicaView(abc.ABC):
    """What a routing policy may observe about one replica."""

    index: int

    @property
    @abc.abstractmethod
    def outstanding_tokens(self) -> int:
        """Token backlog the replica still owes."""

    @abc.abstractmethod
    def probe_prefix(self, request: Request) -> int:
        """Prompt tokens of ``request`` the replica's cache would serve
        (0 without a prefix cache or a match). Must be side-effect free.
        """


class RoutingPolicy(abc.ABC):
    """Picks a replica for each arriving request.

    The contract: :meth:`select` observes replicas only through the
    :class:`ReplicaView` interface (``outstanding_tokens``,
    ``probe_prefix``), and its cross-call state must not depend on
    *when* replicas are simulated. The cluster fast loop relies on it
    to route whole arrival windows against *analytic* replica views —
    outstanding tokens replayed closed-form from each replica's steady
    decode stretch, cache probes against its provably-frozen radix
    tree, a real replica sweep only where a closed form expires, and
    none at all for a view :meth:`select` never reads — so window
    decisions are exactly per-arrival dispatch's.
    """

    name: str

    @abc.abstractmethod
    def select(
        self, request: Request, replicas: Sequence[ReplicaView]
    ) -> ReplicaView:
        """Choose the replica ``request`` is dispatched to."""


#: ``cache_aware`` load-imbalance cap: the backlog gap (tokens) and the
#: most-to-least loaded ratio that must both be exceeded.
BALANCE_ABS_TOKENS = 16_384
BALANCE_REL = 1.5


def least_loaded(replicas: Sequence[ReplicaView]) -> ReplicaView:
    return min(replicas, key=lambda r: (r.outstanding_tokens, r.index))


class RoundRobinPolicy(RoutingPolicy):
    """Cycle through replicas in index order."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def select(
        self, request: Request, replicas: Sequence[ReplicaView]
    ) -> ReplicaView:
        if not replicas:
            raise ConfigError("no replicas to route to")
        choice = replicas[self._next % len(replicas)]
        self._next += 1
        return choice


class LeastOutstandingPolicy(RoutingPolicy):
    """Route to the replica with the smallest token backlog."""

    name = "least_outstanding_tokens"

    def select(
        self, request: Request, replicas: Sequence[ReplicaView]
    ) -> ReplicaView:
        if not replicas:
            raise ConfigError("no replicas to route to")
        return least_loaded(replicas)


class CacheAwarePolicy(RoutingPolicy):
    """Longest-prefix-match routing under a load-imbalance cap.

    The fleet counts as *imbalanced* when the widest backlog gap exceeds
    :data:`BALANCE_ABS_TOKENS` AND the most loaded replica carries more
    than :data:`BALANCE_REL` times the least loaded one — both
    thresholds must trip, so a busy-but-even fleet and a near-idle
    fleet with a trivial absolute gap each keep their cache affinity.
    """

    name = "cache_aware"

    def select(
        self, request: Request, replicas: Sequence[ReplicaView]
    ) -> ReplicaView:
        if not replicas:
            raise ConfigError("no replicas to route to")
        loads = [replica.outstanding_tokens for replica in replicas]
        lowest, highest = min(loads), max(loads)
        imbalanced = (
            highest - lowest > BALANCE_ABS_TOKENS
            and highest > BALANCE_REL * max(lowest, 1)
        )
        if imbalanced:
            return least_loaded(replicas)
        matches = [replica.probe_prefix(request) for replica in replicas]
        best = max(matches)
        if best <= 0:
            # Nothing cached anywhere: place for load, which also seeds
            # distinct prompt families onto distinct replicas.
            return least_loaded(replicas)
        winners = [
            replica
            for replica, match in zip(replicas, matches)
            if match == best
        ]
        return least_loaded(winners)


#: Policy name -> constructor.
ROUTING_POLICIES: Dict[str, Callable[[], RoutingPolicy]] = {
    "round_robin": RoundRobinPolicy,
    "least_outstanding_tokens": LeastOutstandingPolicy,
    "cache_aware": CacheAwarePolicy,
}


def make_policy(name: str) -> RoutingPolicy:
    """Instantiate a routing policy by registry name."""
    try:
        factory = ROUTING_POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(ROUTING_POLICIES))
        raise ConfigError(
            f"unknown routing policy {name!r}; known: {known}"
        ) from None
    return factory()


def policy_names() -> List[str]:
    """Registered policy names in registry order."""
    return list(ROUTING_POLICIES)
