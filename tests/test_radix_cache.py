"""Radix-tree prefix index: matching, splitting, refcounts, LRU."""

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cache.radix import RadixTree
from repro.cluster.engine import ClusterConfig, ClusterEngine
from repro.errors import SchedulingError
from repro.gpu.spec import A100
from repro.memory import MemoryConfig
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.serving.engine import EngineConfig
from repro.tokens import TokenRuns
from repro.workloads.arrival import poisson_arrivals
from repro.workloads.traces import TraceSpec, shared_prefix_trace

RELAXED = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=30
)


def ids(*runs):
    """Build prompt token ids from (base, length) runs, as the trace
    generators do."""
    return TokenRuns(range(base * 1000, base * 1000 + length)
                     for base, length in runs)


class TestInsertAndMatch:
    def test_empty_tree_misses(self):
        tree = RadixTree()
        entry, matched = tree.match_prefix(ids((1, 8)))
        assert entry is None and matched == 0
        assert tree.stats.misses == 1

    def test_exact_match(self):
        tree = RadixTree()
        tree.insert(ids((1, 8)), slot=0, group="g", live=False)
        entry, matched = tree.match_prefix(ids((1, 8)))
        assert entry is not None
        assert matched == 8
        assert tree.stats.hits == 1
        assert tree.stats.hit_tokens == 8

    def test_query_longer_than_entry(self):
        tree = RadixTree()
        tree.insert(ids((1, 8)), slot=0, group="g", live=False)
        _, matched = tree.match_prefix(ids((1, 8), (2, 4)))
        assert matched == 8

    def test_query_shorter_than_entry(self):
        tree = RadixTree()
        tree.insert(ids((1, 8), (2, 4)), slot=0, group="g", live=False)
        _, matched = tree.match_prefix(ids((1, 8)))
        assert matched == 8

    def test_partial_overlap_mid_edge(self):
        tree = RadixTree()
        tree.insert(ids((1, 8)), slot=0, group="g", live=False)
        _, matched = tree.match_prefix(ids((1, 5), (9, 5)))
        assert matched == 5

    def test_divergence_at_split_node(self):
        # Two entries sharing a prefix force an edge split; a third
        # query diverging exactly at the split node must still match.
        tree = RadixTree()
        tree.insert(ids((1, 8), (2, 4)), slot=0, group="g", live=False)
        tree.insert(ids((1, 8), (3, 4)), slot=1, group="g", live=False)
        entry, matched = tree.match_prefix(ids((1, 8), (4, 4)))
        assert entry is not None
        assert matched == 8

    def test_unusable_match_counts_as_miss(self):
        # A 1-token prompt can never reuse a prefix (the prefill must
        # still compute its one token): with limit=0 the lookup is a
        # miss and must not disturb hit stats or LRU order.
        tree = RadixTree()
        entry = tree.insert(ids((1, 4)), slot=0, group="g", live=False,
                            now=1.0)
        found, matched = tree.match_prefix(ids((1, 4)), now=9.0, limit=0)
        assert found is None and matched == 0
        assert tree.stats.hits == 0 and tree.stats.misses == 1
        assert entry.last_access == 1.0  # LRU untouched
        _, matched = tree.match_prefix(ids((1, 4)), limit=2)
        assert matched == 2

    def test_disjoint_groups_do_not_match(self):
        tree = RadixTree()
        tree.insert(ids((1, 8)), slot=0, group="a", live=False)
        entry, matched = tree.match_prefix(ids((2, 8)))
        assert entry is None and matched == 0

    def test_longest_entry_wins(self):
        tree = RadixTree()
        short = tree.insert(ids((1, 4)), slot=0, group="g", live=False)
        long = tree.insert(ids((1, 4), (2, 4)), slot=1, group="g", live=False)
        entry, matched = tree.match_prefix(ids((1, 4), (2, 4), (3, 2)))
        assert entry is long
        assert matched == 8
        entry, matched = tree.match_prefix(ids((1, 4), (9, 2)))
        assert entry is short
        assert matched == 4

    def test_duplicate_insert_declined(self):
        tree = RadixTree()
        assert tree.insert(ids((1, 8)), slot=0, group="g", live=False)
        assert tree.insert(ids((1, 8)), slot=1, group="g", live=False) is None
        # A strict prefix of an existing entry is also already covered.
        assert tree.insert(ids((1, 4)), slot=2, group="g", live=False) is None
        assert tree.stats.duplicate_insertions == 2
        assert tree.entry_count == 1

    def test_longer_prompt_is_not_a_duplicate(self):
        tree = RadixTree()
        tree.insert(ids((1, 8)), slot=0, group="g", live=False)
        assert tree.insert(ids((1, 8), (2, 4)), slot=1, group="g", live=False)
        assert tree.entry_count == 2

    def test_empty_ids_declined(self):
        tree = RadixTree()
        assert tree.insert((), slot=0, group="g", live=False) is None


class TestRemoveAndPrune:
    def test_remove_then_miss(self):
        tree = RadixTree()
        entry = tree.insert(ids((1, 8)), slot=0, group="g", live=False)
        tree.remove(entry)
        found, matched = tree.match_prefix(ids((1, 8)))
        assert found is None and matched == 0
        assert tree.entry_count == 0

    def test_remove_keeps_siblings(self):
        tree = RadixTree()
        a = tree.insert(ids((1, 8), (2, 4)), slot=0, group="g", live=False)
        b = tree.insert(ids((1, 8), (3, 4)), slot=1, group="g", live=False)
        tree.remove(a)
        found, matched = tree.match_prefix(ids((1, 8), (3, 4)))
        assert found is b and matched == 12

    def test_double_remove_rejected(self):
        tree = RadixTree()
        entry = tree.insert(ids((1, 8)), slot=0, group="g", live=False)
        tree.remove(entry)
        with pytest.raises(SchedulingError):
            tree.remove(entry)


class TestEviction:
    def test_lru_order(self):
        tree = RadixTree()
        old = tree.insert(ids((1, 4)), slot=0, group="g", live=False, now=1.0)
        new = tree.insert(ids((2, 4)), slot=1, group="g", live=False, now=2.0)
        assert tree.evict_lru() is old
        assert tree.evict_lru() is new
        assert tree.evict_lru() is None
        assert tree.stats.evictions == 2

    def test_hit_refreshes_lru(self):
        tree = RadixTree()
        a = tree.insert(ids((1, 4)), slot=0, group="g", live=False, now=1.0)
        b = tree.insert(ids((2, 4)), slot=1, group="g", live=False, now=2.0)
        tree.match_prefix(ids((1, 4)), now=3.0)  # touch a
        assert tree.evict_lru() is b

    def test_referenced_entry_protected(self):
        tree = RadixTree()
        entry = tree.insert(ids((1, 4)), slot=0, group="g", live=False)
        entry.ref_count = 1
        assert tree.evict_lru() is None
        entry.ref_count = 0
        assert tree.evict_lru() is entry

    def test_live_entry_protected(self):
        tree = RadixTree()
        entry = tree.insert(ids((1, 4)), slot=0, group="g", live=True)
        assert tree.evict_lru() is None
        entry.live = False
        assert tree.evict_lru() is entry


class TestProbe:
    def test_probe_matches_like_match_prefix(self):
        tree = RadixTree()
        tree.insert(ids((1, 8), (2, 4)), slot=0, group="g", live=False)
        entry, matched = tree.probe(ids((1, 8)))
        assert entry is not None
        assert matched == 8
        entry, matched = tree.probe(ids((1, 8), (2, 4), (3, 2)))
        assert matched == 12
        assert tree.probe(ids((9, 4))) == (None, 0)

    def test_probe_respects_limit(self):
        tree = RadixTree()
        tree.insert(ids((1, 8)), slot=0, group="g", live=False)
        _, matched = tree.probe(ids((1, 8)), limit=3)
        assert matched == 3
        assert tree.probe(ids((1, 8)), limit=0) == (None, 0)

    def test_probe_leaves_state_untouched(self):
        # The cluster router probes every replica per routing decision;
        # probes must not skew hit statistics or refresh LRU order.
        tree = RadixTree()
        entry = tree.insert(
            ids((1, 8)), slot=0, group="g", live=False, now=5.0
        )
        for _ in range(3):
            tree.probe(ids((1, 8)))
            tree.probe(ids((9, 8)))
        assert tree.stats.lookups == 0
        assert tree.stats.hits == 0
        assert tree.stats.misses == 0
        assert tree.stats.hit_tokens == 0
        assert entry.hits == 0
        assert entry.last_access == 5.0


class TestStats:
    def test_hit_rate(self):
        tree = RadixTree()
        tree.insert(ids((1, 8)), slot=0, group="g", live=False)
        tree.match_prefix(ids((1, 8)))
        tree.match_prefix(ids((9, 8)))
        assert tree.stats.hit_rate == pytest.approx(0.5)

    def test_cached_tokens_counts_cache_owned_only(self):
        tree = RadixTree()
        tree.insert(ids((1, 8)), slot=0, group="g", live=False)
        tree.insert(ids((2, 6)), slot=1, group="g", live=True)
        assert tree.cached_tokens == 8


def lcp(a, b):
    """Brute-force longest common prefix length."""
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


#: Tree work on the small fleet below, summed over both replicas. The
#: router probe, the admission match and the prefill-end insert of a
#: prompt each compare it once against every edge on their path; any
#: increase fails, a decrease is an improvement to re-pin here. The
#: cache's decisions are fixed by the trace, so its lookup, hit,
#: insertion and eviction counts are exact.
EDGE_COMPARES_CEILING = 147
TREE_COUNTS = {
    "lookups": 64,
    "hits": 48,
    "misses": 16,
    "insertions": 64,
    "duplicate_insertions": 0,
    "evictions": 44,
}


class TestPinnedCompares:
    def test_cache_aware_fleet(self):
        cluster = ClusterEngine(
            ClusterConfig(
                engine=EngineConfig(
                    shard=ShardedModel(YI_6B, 1),
                    gpu=A100,
                    memory_backend="vattention",
                    max_batch_size=8,
                    memory=MemoryConfig(
                        enable_prefix_cache=True, prefix_cache_slots=2
                    ),
                ),
                n_replicas=2,
                routing_policy="cache_aware",
            )
        )
        requests = shared_prefix_trace(
            count=64,
            sharing_factor=8,
            prefix_tokens=1_024,
            suffix_spec=TraceSpec(low=16, high=256, mean=64),
            decode_spec=TraceSpec(low=4, high=32, mean=8),
            seed=11,
        )
        random.Random(5).shuffle(requests)
        arrivals = poisson_arrivals(qps=8.0, count=len(requests), seed=3)
        for request, arrival in zip(requests, arrivals):
            request.arrival_time = arrival
        cluster.submit(requests)
        assert len(cluster.run().finished_records) == 64
        stats = [r.engine.memory.cache.tree.stats for r in cluster.replicas]
        counts = {
            name: sum(getattr(s, name) for s in stats) for name in TREE_COUNTS
        }
        assert counts == TREE_COUNTS
        compares = sum(s.edge_compares for s in stats)
        assert compares <= EDGE_COMPARES_CEILING, (
            f"edge compares grew: {compares} > {EDGE_COMPARES_CEILING}"
        )


def tree_nodes(tree):
    """Every non-root node."""
    nodes, stack = [], list(tree._root.children.values())
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(node.children.values())
    return nodes


#: Prompts over a 3-token alphabet: short random runs share stems
#: often, so inserts split edges mid-way and removals merge them back.
PROMPTS = st.lists(
    st.lists(st.integers(0, 2), min_size=1, max_size=10).map(tuple),
    min_size=1,
    max_size=8,
)
OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "remove", "evict", "match", "probe", "touch"]
        ),
        st.integers(0, 63),
        st.integers(0, 11),
        st.booleans(),
    ),
    min_size=20,
    max_size=60,
)


class TestAgainstFlatReference:
    """Random operation sequences replayed against a flat entry list
    with brute-force longest-common-prefix matching."""

    @RELAXED
    @given(prompts=PROMPTS, ops=OPS, offset=st.integers(0, 2))
    # Removing (0, 1, 0) merges the (0, 1) node back into the (2,) node.
    @example(
        prompts=[(0, 1, 2), (0, 1, 0)],
        ops=[
            ("insert", 0, 0, False),
            ("insert", 1, 0, False),
            ("remove", 1, 0, False),
        ],
        offset=0,
    )
    def test_tree_matches_reference(self, prompts, ops, offset):
        prompts = [TokenRuns.of(prompt) for prompt in prompts]
        tree = RadixTree()
        entries = []  # the reference: every registered entry
        expected = dict(
            lookups=0, hits=0, misses=0, hit_tokens=0, insertions=0,
            duplicate_insertions=0, evictions=0, removals=0,
        )

        def best(query, limit):
            shared = {e.entry_id: lcp(e.token_ids, query) for e in entries}
            top = max(shared.values(), default=0)
            matched = top if limit is None else min(top, limit)
            candidates = [e for e in entries if shared[e.entry_id] == top]
            return top, matched, candidates

        def check_match(result, query, limit):
            found, matched = result
            top, want, candidates = best(query, limit)
            if want <= 0:
                assert (found, matched) == (None, 0)
                return False
            assert matched == want
            assert found in candidates
            # Of the longest matches, the most recently used (as of
            # before the operation).
            assert before[found.entry_id][0] == max(
                before[c.entry_id][0] for c in candidates
            )
            assert lcp(found.token_ids, query) == top
            return True

        for kind, a, b, flag in ops:
            query = prompts[a % len(prompts)]
            before = {e.entry_id: (e.last_access, e.hits) for e in entries}
            named = None  # the one entry the operation may refresh
            if kind == "insert":
                covered = any(e.token_ids[:len(query)] == query for e in entries)
                entry = tree.insert(query, slot=a, group="g", live=flag, now=b)
                assert (entry is None) == covered
                if covered:
                    expected["duplicate_insertions"] += 1
                else:
                    assert entry.token_ids == query and entry.last_access == b
                    entries.append(entry)
                    expected["insertions"] += 1
            elif kind in ("remove", "touch") and entries:
                entry = entries[a % len(entries)]
                if kind == "remove":
                    tree.remove(entry)
                    entries.remove(entry)
                    expected["removals"] += 1
                else:
                    tree.touch(entry, b)
                    assert entry.last_access == b
                    named = entry.entry_id
            elif kind == "evict":
                evictable = [e for e in entries if e.evictable]
                want = min(
                    evictable,
                    key=lambda e: (e.last_access, e.entry_id),
                    default=None,
                )
                assert tree.lru_victim() is want
                assert tree.evict_lru() is want
                if want is not None:
                    entries.remove(want)
                    expected["evictions"] += 1
            elif kind == "match":
                limit = b % 4 if flag else None
                result = tree.match_prefix(query, now=b, limit=limit)
                expected["lookups"] += 1
                if check_match(result, query, limit):
                    found, matched = result
                    assert found.last_access == b
                    expected["hits"] += 1
                    expected["hit_tokens"] += matched
                    named = found.entry_id
                else:
                    expected["misses"] += 1
            elif kind == "probe":
                limit = b % 4 if flag else None
                check_match(tree.probe(query, limit=limit), query, limit)
            # No operation refreshes an entry it does not name.
            after = {e.entry_id: (e.last_access, e.hits) for e in entries}
            assert {
                k: v for k, v in after.items() if k in before and k != named
            } == {
                k: v for k, v in before.items() if k in after and k != named
            }
            assert {e.entry_id for e in tree.entries} == {
                e.entry_id for e in entries
            }
            assert tree.entry_count == len(entries)
            assert tree.cached_tokens == sum(
                e.tokens for e in entries if not e.live
            )
            stats = tree.stats
            assert {k: getattr(stats, k) for k in expected} == expected
            # The walk-step contract off the walks' path: one step per
            # node with a fixed query at a fixed offset, against the
            # brute-force run of the node's current edge.
            sweep = prompts[0]
            for node in tree_nodes(tree):
                assert tree._run(node, sweep, offset) == lcp(
                    node.edge, sweep[offset:]
                )
