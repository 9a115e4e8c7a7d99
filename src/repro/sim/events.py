"""Time-ordered event queue for next-event simulation loops.

The cluster tier advances N replica engines against one shared virtual
timeline. Its events are *arrivals* (a logical request becomes
routable), *migrations* (a prefill's KV cache finishes crossing the
interconnect and its decode continuation becomes schedulable), and —
with an elastic :mod:`autoscaling policy <repro.cluster.autoscaler>` —
replica-lifecycle events: ``SCALE_UP`` (a provisioned replica finishes
a boot stage), ``SCALE_DECIDE`` (the policy's periodic evaluation
point) and ``DRAIN_COMPLETE`` (a draining replica's in-flight work has
finished and it retires). The loop repeatedly pops the earliest event,
advances the replicas that must be current for the dispatch decision,
and dispatches.

Ties are resolved deterministically: first by time, then by kind —
lifecycle transitions land before arrivals (a replica turning SERVING
at an arrival instant is already routable), arrivals before migrations
(preserving the pre-rewrite dispatch order of
:class:`~repro.cluster.engine.ClusterEngine`), scale decisions after
both (the policy observes the state the instant's traffic left behind)
— then by insertion sequence, so two runs of the same trace pop events
identically.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, List, Optional


class EventKind(enum.IntEnum):
    """Event categories, ordered by dispatch priority at equal times."""

    #: A provisioned replica completes a boot stage (PROVISIONING ->
    #: WARMING, or WARMING -> SERVING and becomes routable).
    SCALE_UP = 0
    #: A submitted request reaches its arrival time and gets routed.
    ARRIVAL = 1
    #: A KV migration lands on the decode tier and is dispatched.
    MIGRATION = 2
    #: The autoscaling policy's periodic evaluation point.
    SCALE_DECIDE = 3
    #: A draining replica's last in-flight request finished; it retires.
    DRAIN_COMPLETE = 4


@dataclass(frozen=True, order=True)
class Event:
    """One scheduled simulation event."""

    time: float
    kind: EventKind
    #: Deterministic tie-break among equal (time, kind) events.
    seq: int
    payload: Any = field(compare=False, default=None)


class EventQueue:
    """Events popped in timeline order, with O(1) per-kind horizons.

    One heap per :class:`EventKind`: the cluster loop reads "when is
    the next arrival" on every pass, which must not scan the (possibly
    trace-length) queue. The global order is recovered by comparing the
    per-kind heads — :class:`Event`'s ordering (time, kind, seq) makes
    that comparison identical to a single merged heap's.
    """

    def __init__(self) -> None:
        self._heaps: dict[EventKind, List[Event]] = {
            kind: [] for kind in EventKind
        }
        self._counter = itertools.count()

    def push(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event; returns the stored event."""
        event = Event(
            time=time, kind=kind, seq=next(self._counter), payload=payload
        )
        heapq.heappush(self._heaps[kind], event)
        return event

    def peek(self) -> Optional[Event]:
        """The earliest event without removing it (``None`` if empty)."""
        earliest: Optional[Event] = None
        for heap in self._heaps.values():
            if heap and (earliest is None or heap[0] < earliest):
                earliest = heap[0]
        return earliest

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        earliest = self.peek()
        if earliest is None:
            raise IndexError("pop from an empty EventQueue")
        return heapq.heappop(self._heaps[earliest.kind])

    def pop_due(self, deadline: float) -> List[Event]:
        """Remove and return every event with ``time <= deadline``.

        Returned in dispatch order (time, then kind, then insertion).
        """
        due: List[Event] = []
        while True:
            earliest = self.peek()
            if earliest is None or earliest.time > deadline:
                return due
            due.append(heapq.heappop(self._heaps[earliest.kind]))

    def next_time(self, kind: Optional[EventKind] = None) -> float:
        """Earliest scheduled time (optionally of one kind); inf if none."""
        if kind is None:
            earliest = self.peek()
            return earliest.time if earliest is not None else float("inf")
        heap = self._heaps[kind]
        return heap[0].time if heap else float("inf")

    def next_fleet_event(self) -> float:
        """Earliest scheduled *non-arrival* event (inf if none).

        Where an arrival window ends unless a drain completes first:
        the cluster sweeps its draining replicas to this instant.
        """
        return min(
            self.next_time(kind)
            for kind in EventKind
            if kind is not EventKind.ARRIVAL
        )

    def __len__(self) -> int:
        return sum(len(heap) for heap in self._heaps.values())

    def __bool__(self) -> bool:
        return any(self._heaps.values())
