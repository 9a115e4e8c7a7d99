"""Radix tree over prompt token ids (the RadixAttention index shape).

Each cached prefix is one :class:`PrefixEntry`: an opaque backend slot
(a vAttention reqId whose page-group rows hold the KV, or a
:mod:`repro.cache.backends` handle onto a block allocation) backing
``tokens`` prompt tokens, registered under the prompt's token ids. The
tree never interprets slots — backend mechanics live in the adapters —
so the index works over any sharing-capable allocator. The tree is
path-compressed (edges carry token ids, split lazily on divergence),
so entries sharing a prompt prefix share their path. Prompts, edges
and entries hold their ids as :class:`~repro.tokens.TokenRuns` —
runs of consecutive ids — so comparing a prompt with an edge walks
the two run lists (one step per run boundary, not per token).

Entries come in two flavours the :class:`~repro.cache.manager.
PrefixCacheManager` distinguishes by ownership:

* **live** — the slot belongs to a *running* request whose prefill has
  completed; its resident prompt KV can already be aliased by newcomers
  (intra-batch sharing), but the entry disappears if the owner is
  preempted and is never evictable while live.
* **cache-owned** — the owner finished and the slot was retained by the
  cache instead of freed. Cache-owned entries with no active borrowers
  (``ref_count == 0``) are the LRU eviction victims under memory
  pressure.

The tree itself is policy-free: it indexes, reference-counts and
selects LRU victims; mapping/unmapping physical rows or blocks is the
manager's (and its backend adapter's) job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import SchedulingError
from ..tokens import TokenRuns


@dataclass
class PrefixEntry:
    """One cached prefix: a resident slot and the token ids it backs."""

    entry_id: int
    #: Opaque backend slot holding this prefix's KV cache (a vAttention
    #: ``reqId``, or an adapter handle onto a block allocation).
    slot: int
    #: Token ids registered in the tree (``tokens == len(token_ids)``).
    token_ids: TokenRuns
    #: Workload-level group label (system prompt / chat session id).
    group: str
    #: Whether a running request still owns the slot (not evictable).
    live: bool
    #: Running requests currently borrowing (aliasing) this prefix.
    ref_count: int = 0
    #: Simulated time of the last insert or hit (LRU ordering).
    last_access: float = 0.0
    #: Times this entry served as an alias source.
    hits: int = 0

    @property
    def tokens(self) -> int:
        """Prompt tokens resident under this entry."""
        return len(self.token_ids)

    @property
    def evictable(self) -> bool:
        """Whether eviction may free this entry's slot right now."""
        return not self.live and self.ref_count == 0


@dataclass
class RadixTreeStats:
    """Lifetime counters of the prefix index."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    #: Cumulative tokens served from the cache across all hits.
    hit_tokens: int = 0
    insertions: int = 0
    #: Insertions declined because an entry already covered the tokens.
    duplicate_insertions: int = 0
    evictions: int = 0
    removals: int = 0
    #: Edge-vs-prompt token-run comparisons (one per edge a walk
    #: compares against the prompt).
    edge_compares: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that matched at least one token."""
        return self.hits / self.lookups if self.lookups else 0.0


class _Node:
    """One path-compressed tree node; ``edge`` labels the link from its
    parent (empty for the root)."""

    __slots__ = ("edge", "parent", "children", "entries")

    def __init__(self, edge: TokenRuns, parent: Optional["_Node"]):
        self.edge = edge
        self.parent = parent
        self.children: Dict[int, _Node] = {}
        self.entries: List[PrefixEntry] = []

    def subtree_entries(self) -> Iterator[PrefixEntry]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield from node.entries
            stack.extend(node.children.values())


class RadixTree:
    """Longest-prefix index of cached prompt KV, with LRU eviction."""

    def __init__(self) -> None:
        self._root = _Node(TokenRuns(), None)
        self._nodes: Dict[int, _Node] = {}  # entry_id -> terminal node
        self._entries: Dict[int, PrefixEntry] = {}  # entry_id -> entry
        self._next_entry_id = 0
        self.stats = RadixTreeStats()

    # ------------------------------------------------------------------
    @property
    def entries(self) -> List[PrefixEntry]:
        """All registered entries (live and cache-owned), in insertion
        order."""
        return list(self._entries.values())

    @property
    def entry_count(self) -> int:
        return len(self._entries)

    @property
    def cached_tokens(self) -> int:
        """Tokens resident under cache-owned entries."""
        return sum(e.tokens for e in self.entries if not e.live)

    def get(self, entry_id: int) -> PrefixEntry:
        """Look an entry up by id."""
        entry = self._entries.get(entry_id)
        if entry is None:
            raise SchedulingError(f"no cache entry {entry_id}")
        return entry

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def match_prefix(
        self,
        token_ids: Sequence[int],
        now: float = 0.0,
        limit: Optional[int] = None,
    ) -> Tuple[Optional[PrefixEntry], int]:
        """Longest-prefix match of ``token_ids`` against all entries.

        Returns ``(entry, matched_tokens)`` — the entry sharing the most
        leading tokens with the query, and how many it shares (never
        more than the entry holds, nor than ``limit`` if given).
        ``(None, 0)`` when nothing matches. Records hit/miss statistics
        and refreshes the winner's LRU timestamp — a match the caller
        could not use (``limit`` clamps it to zero) counts as a miss
        and leaves LRU order untouched.
        """
        self.stats.lookups += 1
        best, best_len = self._best_match(TokenRuns.of(token_ids))
        matched = 0 if best is None else min(best_len, best.tokens)
        if limit is not None:
            matched = min(matched, limit)
        if best is None or matched <= 0:
            self.stats.misses += 1
            return None, 0
        self.touch(best, now)
        best.hits += 1
        self.stats.hits += 1
        self.stats.hit_tokens += matched
        return best, matched

    def probe(
        self,
        token_ids: Sequence[int],
        limit: Optional[int] = None,
    ) -> Tuple[Optional[PrefixEntry], int]:
        """Longest-prefix match *without* side effects.

        Identical matching semantics to :meth:`match_prefix`, but no
        statistics are recorded and no LRU timestamp is refreshed — the
        cluster router probes every replica's tree per routing decision,
        and a probe that does not result in routing must leave the cache
        state (and its hit-rate accounting) untouched.
        """
        best, best_len = self._best_match(TokenRuns.of(token_ids))
        matched = 0 if best is None else min(best_len, best.tokens)
        if limit is not None:
            matched = min(matched, limit)
        if best is None or matched <= 0:
            return None, 0
        return best, matched

    def touch(self, entry: PrefixEntry, now: float) -> None:
        """Refresh ``entry``'s LRU timestamp. The timestamp breaks
        ``_fresher`` ties, so every ``last_access`` write routes
        through here — one site to audit for LRU-order changes."""
        entry.last_access = now

    def _best_match(
        self, query: TokenRuns
    ) -> Tuple[Optional[PrefixEntry], int]:
        """The shared longest-prefix walk of match/probe."""
        best: Optional[PrefixEntry] = None
        best_len = 0
        node = self._root
        depth = 0
        while True:
            # Entries ending exactly at this node share all `depth`
            # query tokens consumed so far.
            if node.entries and depth > 0:
                best, best_len = self._fresher(node.entries, depth, best, best_len)
            child = (
                node.children.get(query[depth])
                if depth < len(query)
                else None
            )
            if child is None:
                # Walk over (query exhausted, or no edge continues it):
                # every entry below this node still shares `depth`
                # tokens — its path diverges only past this point.
                if depth > 0:
                    below = [
                        e for c in node.children.values()
                        for e in c.subtree_entries()
                    ]
                    if below:
                        best, best_len = self._fresher(
                            below, depth, best, best_len
                        )
                break
            run = self._run(child, query, depth)
            if run < len(child.edge):
                # Diverged mid-edge: the whole subtree below shares
                # exactly `depth + run` tokens with the query.
                below = list(child.subtree_entries())
                best, best_len = self._fresher(
                    below, depth + run, best, best_len
                )
                break
            depth += run
            node = child
        return best, best_len

    def _run(self, node: _Node, query: TokenRuns, offset: int) -> int:
        """Common token run of ``node``'s edge and ``query[offset:]``."""
        self.stats.edge_compares += 1
        return node.edge.common_run(query, offset)

    @staticmethod
    def _fresher(
        candidates: Sequence[PrefixEntry],
        length: int,
        best: Optional[PrefixEntry],
        best_len: int,
    ) -> Tuple[Optional[PrefixEntry], int]:
        """Prefer longer matches; break ties toward the most recent."""
        for entry in candidates:
            shared = min(length, entry.tokens)
            if shared > best_len or (
                shared == best_len
                and best is not None
                and entry.last_access > best.last_access
            ):
                best, best_len = entry, shared
        return best, best_len

    # ------------------------------------------------------------------
    # Insertion / removal
    # ------------------------------------------------------------------
    def insert(
        self,
        token_ids: Sequence[int],
        slot: int,
        group: str,
        live: bool,
        now: float = 0.0,
    ) -> Optional[PrefixEntry]:
        """Register a resident prefix; returns the new entry.

        Declines (returns ``None``) when an existing entry already
        covers every token — a duplicate would hold a second physical
        copy of identical KV bytes, defeating de-duplication.
        """
        ids = TokenRuns.of(token_ids)
        if not ids:
            return None
        node = self._root
        depth = 0
        while depth < len(ids):
            child = node.children.get(ids[depth])
            if child is None:
                break
            run = self._run(child, ids, depth)
            depth += run
            if run < len(child.edge):
                # Split only once the walk has proven `ids` diverge
                # from the edge: the tree is never changed for a
                # duplicate.
                if depth < len(ids):
                    node = self._split(child, run)
                break
            node = child
        if depth == len(ids):
            # `ids` end on or inside an edge, and every non-root node
            # has an entry below it: that entry holds all of `ids`.
            self.stats.duplicate_insertions += 1
            return None
        leaf = _Node(ids[depth:], node)
        node.children[ids[depth]] = leaf
        entry = PrefixEntry(
            entry_id=self._next_entry_id,
            slot=slot,
            token_ids=ids,
            group=group,
            live=live,
            last_access=now,
        )
        self._next_entry_id += 1
        leaf.entries.append(entry)
        self._nodes[entry.entry_id] = leaf
        self._entries[entry.entry_id] = entry
        self.stats.insertions += 1
        return entry

    def _split(self, child: _Node, at: int) -> _Node:
        """Split ``child``'s edge after ``at`` tokens; returns the new
        intermediate node."""
        parent = child.parent
        assert parent is not None and 0 < at < len(child.edge)
        mid = _Node(child.edge[:at], parent)
        parent.children[mid.edge[0]] = mid
        child.edge = child.edge[at:]
        child.parent = mid
        mid.children[child.edge[0]] = child
        return mid

    def remove(self, entry: PrefixEntry) -> None:
        """Drop an entry and prune now-empty nodes."""
        node = self._nodes.pop(entry.entry_id, None)
        if node is None:
            raise SchedulingError(
                f"cache entry {entry.entry_id} is not registered"
            )
        del self._entries[entry.entry_id]
        node.entries.remove(entry)
        self.stats.removals += 1
        self._prune(node)

    def _prune(self, node: _Node) -> None:
        while (
            node.parent is not None
            and not node.entries
            and not node.children
        ):
            parent = node.parent
            del parent.children[node.edge[0]]
            node = parent
        # Merge a childless-entry-less chain back into one edge.
        if (
            node.parent is not None
            and not node.entries
            and len(node.children) == 1
        ):
            (child,) = node.children.values()
            child.edge = node.edge + child.edge
            child.parent = node.parent
            node.parent.children[child.edge[0]] = child

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def lru_victim(self) -> Optional[PrefixEntry]:
        """Oldest evictable entry, or ``None`` if nothing can go (the
        ``(last_access, entry_id)`` key is unique, so the choice does
        not depend on iteration order)."""
        return min(
            (e for e in self._entries.values() if e.evictable),
            key=lambda e: (e.last_access, e.entry_id),
            default=None,
        )

    def evict(self, entry: PrefixEntry) -> None:
        """Remove an entry, counting it as an eviction (not a removal)."""
        self.remove(entry)
        self.stats.evictions += 1
        self.stats.removals -= 1

    def evict_lru(self) -> Optional[PrefixEntry]:
        """Remove and return the LRU evictable entry."""
        victim = self.lru_victim()
        if victim is not None:
            self.evict(victim)
        return victim
