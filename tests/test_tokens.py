"""TokenRuns against the plain tuple of the same token ids."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.tokens import TokenRuns

RELAXED = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=60
)

#: A sequence as (base, length) blocks. Bases from a small range make
#: adjacent blocks (one starts where the previous stops) and repeated
#: ids common; length-1 blocks are in range too.
BLOCKS = st.lists(
    st.tuples(st.integers(0, 12), st.integers(1, 4)), max_size=6
)


def build(blocks):
    """The TokenRuns of ``blocks``, concatenated block by block."""
    out = TokenRuns()
    for base, length in blocks:
        out = out + TokenRuns.of(range(base, base + length))
    return out


def flat(blocks):
    return tuple(
        i for base, length in blocks for i in range(base, base + length)
    )


def brute_lcp(a, b):
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


class TestAgainstTuple:
    @RELAXED
    @given(blocks=BLOCKS)
    def test_len_indexing_and_iteration(self, blocks):
        runs, ref = build(blocks), flat(blocks)
        assert len(runs) == len(ref)
        assert tuple(runs) == ref
        for i in range(-len(ref), len(ref)):
            assert runs[i] == ref[i]
        for i in (len(ref), -len(ref) - 1):
            with pytest.raises(IndexError):
                runs[i]

    @RELAXED
    @given(blocks=BLOCKS)
    def test_every_step_one_slice(self, blocks):
        runs, ref = build(blocks), flat(blocks)
        bounds = [None, *range(-len(ref) - 1, len(ref) + 2)]
        for start in bounds:
            for stop in bounds:
                piece = runs[start:stop]
                assert isinstance(piece, TokenRuns)
                assert tuple(piece) == ref[start:stop]
                assert piece == TokenRuns.of(ref[start:stop])
                assert runs[start:stop:1] == piece

    @RELAXED
    @given(blocks=BLOCKS, step=st.integers(-3, 3).filter(lambda s: s != 1))
    def test_other_steps_raise(self, blocks, step):
        with pytest.raises(ValueError):
            build(blocks)[::step]

    @RELAXED
    @given(left=BLOCKS, right=BLOCKS)
    def test_concatenation(self, left, right):
        joined = build(left) + build(right)
        ref = flat(left) + flat(right)
        assert tuple(joined) == ref
        assert joined == TokenRuns.of(ref) and hash(joined) == hash(
            TokenRuns.of(ref)
        )

    @RELAXED
    @given(blocks=BLOCKS, cuts=st.lists(st.integers(0, 40), max_size=4))
    def test_equal_ids_equal_runs_however_split(self, blocks, cuts):
        ref = flat(blocks)
        whole = TokenRuns.of(ref)
        # The same ids cut into arbitrary pieces and put back together.
        pieces, last = TokenRuns(), 0
        for cut in sorted(min(c, len(ref)) for c in cuts) + [len(ref)]:
            pieces = pieces + TokenRuns.of(list(ref[last:cut]))
            last = cut
        for other in (build(blocks), pieces):
            assert other == whole and hash(other) == hash(whole)
            assert other.runs == whole.runs
        # Maximal: no run starts where the previous one stops.
        assert all(
            a.stop != b.start for a, b in zip(whole.runs, whole.runs[1:])
        )
        assert TokenRuns.of(whole) is whole

    @RELAXED
    @given(edge=BLOCKS, query=BLOCKS)
    def test_common_run_is_the_longest_common_prefix(self, edge, query):
        e, q = build(edge), build(query)
        ref_e, ref_q = flat(edge), flat(query)
        for offset in range(len(ref_q) + 2):
            assert e.common_run(q, offset) == brute_lcp(ref_e, ref_q[offset:])

    @RELAXED
    @given(blocks=BLOCKS)
    def test_common_run_of_a_prefix_of_itself(self, blocks):
        # Query and edge runs that start together and end at different
        # boundaries: the match stops exactly at the shorter side.
        runs, ref = build(blocks), flat(blocks)
        for cut in range(len(ref) + 1):
            assert runs[:cut].common_run(runs) == cut
            assert runs.common_run(runs[:cut]) == cut
            assert runs[cut:].common_run(runs, cut) == len(ref) - cut


class TestConstruction:
    def test_adjacent_ranges_merge(self):
        runs = TokenRuns([range(0, 3), range(3, 5), range(9, 10)])
        assert runs.runs == (range(0, 5), range(9, 10))

    def test_non_unit_range_rejected(self):
        with pytest.raises(ValueError):
            TokenRuns([range(0, 6, 2)])

    def test_strided_range_converts_token_by_token(self):
        assert tuple(TokenRuns.of(range(0, 6, 2))) == (0, 2, 4)

    def test_not_equal_to_a_tuple(self):
        # Equality is structural over runs; compare tuple(runs) to ints.
        assert TokenRuns.of((1, 2)) != (1, 2)
        assert tuple(TokenRuns.of((1, 2))) == (1, 2)
