"""The running batch's ledger: what proofs, decodes and retirement read.

Paper S7.2: a decode iteration's latency depends only on the batch's
total tokens and its size. Proving a decode stretch steady needs one
more number, the tokens left until the first member finishes, and
retirement needs to know which members have finished. A walk over the
running batch recomputes each of these; :class:`BatchLedger` keeps them
instead, changed only where the batch changes.

The ledger rests on one fact of the serving loop: every decode, mixed
iteration or analytic stretch advances *all* decoding members together,
one token per step. So one shared counter, the *tick*, stands for all
of their progress. A member that joins at tick ``t`` with ``r`` tokens
left (token budget or model context limit, whichever ends first)
finishes at tick ``t + r``, a constant; the *frontier* is a min-heap of
those finish ticks. A member that leaves (preemption) is marked dead in
place and dropped when it surfaces (lazy deletion).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, List, MutableSequence

from ..sim.fastforward import UNBOUNDED_HORIZON

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .request import Request


def remove_identical(
    members: MutableSequence["Request"], request: "Request"
) -> None:
    """Delete ``request`` from ``members`` by identity.

    ``Request`` is an ``eq=True`` dataclass, so ``list.remove`` would
    compare every field of every member it passes.
    """
    for index, member in enumerate(members):
        if member is request:
            del members[index]
            return
    raise ValueError(f"{request.request_id} is not a member")


class BatchLedger:
    """Incremental facts about an engine's running batch.

    A running request is either *decoding* (its prefill is done; it is
    on the frontier and in :attr:`tokens`) or *awaiting* its prefill (in
    :attr:`awaiting`, in running order). The engine reports each change:

    * :meth:`admit` — a request entered the batch (a swap-in or migrated
      request that already has its prefill joins the frontier);
    * :meth:`prefilled` — a prefill completed, after any tick of the
      same iteration;
    * :meth:`advance` — every decoding member generated ``steps``
      tokens;
    * :meth:`leave` — a preemption victim left, before its eviction
      rewrites its prompt;
    * :meth:`pop_due` — retirement takes the finished members out.
    """

    __slots__ = (
        "tick",
        "tokens",
        "awaiting",
        "_frontier",
        "_entries",
        "_joins",
        "_max_context",
    )

    def __init__(self, max_context: int) -> None:
        #: Decode steps taken by the decoding members so far.
        self.tick = 0
        #: The decoding members' total context (KV tokens).
        self.tokens = 0
        #: Running requests awaiting their prefill, in running order.
        self.awaiting: List["Request"] = []
        #: Heap of ``[finish tick, join number, request]``; a left
        #: member's entry holds ``None`` in place of the request.
        self._frontier: List[list] = []
        #: ``id(request)`` -> frontier entry, for the decoding members.
        self._entries: Dict[int, list] = {}
        self._joins = 0
        self._max_context = max_context

    def admit(self, request: "Request") -> None:
        """``request`` entered the batch."""
        if request.prefill_done:
            self._join(request)
        else:
            self.awaiting.append(request)

    def prefilled(self, request: "Request") -> None:
        """``request``'s prefill completed: it starts decoding."""
        remove_identical(self.awaiting, request)
        self._join(request)

    def _join(self, request: "Request") -> None:
        generated = request.generated
        context = request.prompt_len + generated
        remaining = min(
            request.max_new_tokens - generated, self._max_context - context
        )
        entry = [self.tick + remaining, self._joins, request]
        self._joins += 1
        heapq.heappush(self._frontier, entry)
        self._entries[id(request)] = entry
        self.tokens += context

    def leave(self, request: "Request") -> None:
        """``request`` left the batch unfinished (preemption)."""
        entry = self._entries.pop(id(request), None)
        if entry is None:
            remove_identical(self.awaiting, request)
            return
        entry[2] = None
        self.tokens -= request.prompt_len + request.generated

    def advance(self, steps: int) -> None:
        """Every decoding member generated ``steps`` tokens."""
        self.tick += steps
        self.tokens += steps * len(self._entries)

    def completion(self) -> int:
        """Decode steps until the first decoding member finishes
        (:data:`UNBOUNDED_HORIZON` with none decoding)."""
        frontier = self._frontier
        while frontier and frontier[0][2] is None:
            heapq.heappop(frontier)
        if not frontier:
            return UNBOUNDED_HORIZON
        return frontier[0][0] - self.tick

    def pop_due(self) -> List["Request"]:
        """Take the members that have finished out of the ledger.

        Returned in frontier order; the engine retires them in running
        order."""
        frontier = self._frontier
        tick = self.tick
        due: List["Request"] = []
        while frontier and frontier[0][0] <= tick:
            request = heapq.heappop(frontier)[2]
            if request is not None:
                del self._entries[id(request)]
                self.tokens -= request.prompt_len + request.generated
                due.append(request)
        return due
