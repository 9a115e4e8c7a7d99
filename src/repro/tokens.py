"""Prompt token ids as runs of consecutive ids.

A prompt built from synthetic text blocks is a few runs of consecutive
ids (a system prompt, then a private suffix), so :class:`TokenRuns`
stores it as a tuple of step-1 ``range`` objects instead of one int per
token. The runs are kept *maximal* — no run starts where the previous
one stops — so two sequences of the same ids hold the same runs, and
``==`` and ``hash`` compare runs, not tokens. Any sequence of ints
converts exactly (:meth:`TokenRuns.of`); an arbitrary prompt just has
more runs.

Lengths, indexing and slicing cost O(log runs) or O(runs), and
:meth:`TokenRuns.common_run` — the radix tree's edge comparison — walks
both run lists once instead of comparing tokens.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate, chain
from typing import Iterable, Iterator, List, Tuple, Union

__all__ = ["TokenRuns"]


class TokenRuns(Sequence):
    """An immutable sequence of token ids held as maximal runs."""

    __slots__ = ("runs", "_ends")

    def __init__(self, runs: Iterable[range] = ()) -> None:
        merged: List[range] = []
        for run in runs:
            if run.step != 1:
                raise ValueError(f"token runs need step 1, got {run!r}")
            if not run:
                continue
            if merged and merged[-1].stop == run.start:
                merged[-1] = range(merged[-1].start, run.stop)
            else:
                merged.append(run)
        #: The maximal runs, in order.
        self.runs: Tuple[range, ...] = tuple(merged)
        # _ends[k] counts the tokens of runs[0..k], so token i lives in
        # run bisect_right(_ends, i).
        self._ends = tuple(accumulate(map(len, self.runs)))

    @classmethod
    def of(cls, ids: Iterable[int]) -> "TokenRuns":
        """``ids`` as runs: a :class:`TokenRuns` is returned as is (so
        callers keep one object per prompt), anything else is converted
        exactly, one run per maximal stretch of consecutive ids."""
        if isinstance(ids, TokenRuns):
            return ids
        return cls(range(token, token + 1) for token in ids)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(self.runs)

    def __getitem__(self, index: Union[int, slice]) -> Union[int, "TokenRuns"]:
        if isinstance(index, slice):
            return self._slice(index)
        ends = self._ends
        if index < 0:
            index += len(self)
        k = bisect_right(ends, index)
        if index < 0 or k == len(ends):
            raise IndexError("token index out of range")
        # ends[k] - index tokens of run k lie at or past the index.
        return self.runs[k].stop - (ends[k] - index)

    def _slice(self, key: slice) -> "TokenRuns":
        ends = self._ends
        start, stop, step = key.indices(len(self))
        if step != 1:
            raise ValueError(f"token runs slice with step 1, got {step}")
        if start >= stop:
            return TokenRuns()
        first = bisect_right(ends, start)
        last = bisect_right(ends, stop - 1)
        runs = list(self.runs[first:last + 1])
        runs[0] = runs[0][start - (ends[first] - len(runs[0])):]
        cut = ends[last] - stop
        if cut:
            runs[-1] = runs[-1][:len(runs[-1]) - cut]
        return TokenRuns(runs)

    def __add__(self, other: object) -> "TokenRuns":
        if not isinstance(other, TokenRuns):
            return NotImplemented
        return TokenRuns(self.runs + other.runs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TokenRuns):
            return NotImplemented
        return self.runs == other.runs

    def __hash__(self) -> int:
        return hash(self.runs)

    def __repr__(self) -> str:
        inner = ", ".join(f"{r.start}..{r.stop}" for r in self.runs)
        return f"TokenRuns({inner})"

    # ------------------------------------------------------------------
    def common_run(self, query: "TokenRuns", offset: int = 0) -> int:
        """Length of the common prefix of ``self`` and ``query[offset:]``.

        Walks both run lists in step: while the two current ids are
        equal, both sides stay equal up to the nearer run end, so each
        step consumes a whole stretch and the walk costs one step per
        run boundary it crosses.
        """
        q_runs = query.runs
        q_ends = query._ends
        k = bisect_right(q_ends, offset)
        if k == len(q_runs):
            return 0
        q_run = q_runs[k]
        q_pos = q_run.start + offset - (q_ends[k] - len(q_run))
        q_stop = q_run.stop
        matched = 0
        for run in self.runs:
            pos, stop = run.start, run.stop
            while pos < stop:
                if pos != q_pos:
                    return matched
                step = min(stop - pos, q_stop - q_pos)
                matched += step
                pos += step
                q_pos += step
                if q_pos == q_stop:
                    k += 1
                    if k == len(q_runs):
                        return matched
                    q_pos, q_stop = q_runs[k].start, q_runs[k].stop
        return matched
