"""Per-iteration and per-request metrics collected by the engine."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..serving.request import Request
from .stats import mean, percentile


def none_on_empty(compute: Callable[[], float]) -> Optional[float]:
    """Evaluate a summary, mapping the empty-data ``ValueError`` to ``None``.

    The repo-wide contract: summary accessors *raise* ``ValueError``
    when there is nothing to summarize (callers who forgot to check are
    bugs, not silently-``None`` rows), and serialization paths —
    :meth:`RunReport.to_json`,
    :meth:`~repro.cluster.report.ClusterReport.to_json` — are the one
    place that absence is represented as an explicit ``None`` field.
    """
    try:
        return compute()
    except ValueError:
        return None


@dataclass(frozen=True)
class IterationRecord:
    """One engine iteration's accounting — or one fast-forwarded stretch.

    The decode fast path (:mod:`repro.sim.fastforward`) executes a run
    of provably-identical decode iterations analytically and records
    them as a *single* record with ``iterations > 1``: ``latency``,
    ``alloc_sync`` and ``tokens`` are then totals over the stretch
    (``alloc_sync`` is always 0 there — a stretch with synchronous
    allocation is never fast-forwarded), and :attr:`latencies` retains
    the exact per-iteration values. Summations must expand through
    :attr:`iteration_latencies` — adding pre-reduced subtotals
    re-associates the float additions and can drift by an ulp — and
    consumers that count iterations must weight by :attr:`iterations`;
    every summary in :class:`MetricsCollector` already does both.
    """

    start_time: float
    phase: str  # "prefill", "mixed" or "decode"
    batch_size: int
    #: Total wall-clock of the iteration(s) (seconds).
    latency: float
    #: Seconds of synchronous memory allocation inside the iteration(s).
    alloc_sync: float
    #: New tokens produced by this iteration (or stretch).
    tokens: int
    #: Engine iterations this record covers (> 1 for a fast-forwarded
    #: decode stretch; always 1 on the per-iteration path).
    iterations: int = 1
    #: Per-iteration latencies of a fast-forwarded stretch (``None``
    #: for ordinary single-iteration records).
    latencies: Optional[Tuple[float, ...]] = None

    @property
    def iteration_latencies(self) -> Tuple[float, ...]:
        """The record's latency series, one entry per engine iteration."""
        if self.latencies is not None:
            return self.latencies
        return (self.latency,)


@dataclass
class MetricsCollector:
    """Accumulates iteration records and computes summary statistics."""

    iterations: List[IterationRecord] = field(default_factory=list)

    def record(self, record: IterationRecord) -> None:
        """Append one iteration record."""
        self.iterations.append(record)

    # ------------------------------------------------------------------
    def of_phase(self, phase: str) -> List[IterationRecord]:
        """Records of one phase."""
        return [r for r in self.iterations if r.phase == phase]

    def iteration_count(self, phase: Optional[str] = None) -> int:
        """Engine iterations executed (optionally of one phase).

        Counts *iterations*, not records: a fast-forwarded decode
        stretch is one record covering many iterations.
        """
        records = self.iterations if phase is None else self.of_phase(phase)
        return sum(r.iterations for r in records)

    def decode_latencies(self) -> List[float]:
        """Latency series of decode iterations (the Figure 12 series).

        Fast-forwarded stretches expand to their exact per-iteration
        values, so the series is identical whichever path executed.
        """
        return [
            latency
            for record in self.of_phase("decode")
            for latency in record.iteration_latencies
        ]

    def mean_decode_latency(self) -> float:
        """Mean decode iteration latency."""
        return mean(self.decode_latencies())

    def decode_throughput(self) -> float:
        """Generated tokens per second over all decode iterations."""
        records = self.of_phase("decode")
        # Sum per-iteration values: adding stretch subtotals instead
        # would re-associate the additions and drift by an ulp.
        total_time = sum(
            latency for r in records for latency in r.iteration_latencies
        )
        total_tokens = sum(r.tokens for r in records)
        if total_time == 0:
            raise ValueError("no decode iterations recorded")
        return total_tokens / total_time

    def prefill_throughput(self) -> float:
        """Prompt tokens processed per second over prefill iterations."""
        records = self.of_phase("prefill")
        total_time = sum(r.latency for r in records)
        total_tokens = sum(r.tokens for r in records)
        if total_time == 0:
            raise ValueError("no prefill iterations recorded")
        return total_tokens / total_time


@dataclass(frozen=True)
class RunReport:
    """Final report of one engine run."""

    requests: Sequence[Request]
    metrics: MetricsCollector
    start_time: float
    end_time: float
    #: Radix-tree prefix-cache statistics
    #: (:class:`~repro.cache.manager.PrefixCacheReport`); ``None`` when
    #: the engine ran without the cache.
    prefix_cache: Optional[object] = None
    #: Span-derived phase breakdown
    #: (:meth:`repro.metrics.attribution.AttributionReport.to_json`);
    #: ``None`` unless the run recorded spans.
    latency_attribution: Optional[Dict[str, Any]] = None

    @property
    def makespan(self) -> float:
        """Wall-clock of the whole run."""
        return self.end_time - self.start_time

    @property
    def finished_requests(self) -> List[Request]:
        """Requests that completed."""
        return [r for r in self.requests if r.is_finished]

    def requests_per_minute(self) -> float:
        """Offline serving throughput (the Figure 9/11 metric)."""
        if self.makespan == 0:
            raise ValueError("empty run")
        return 60.0 * len(self.finished_requests) / self.makespan

    def e2e_latencies(self) -> List[float]:
        """Per-request end-to-end latency (the Figure 10 metric)."""
        return [r.e2e_latency for r in self.finished_requests]

    def median_latency(self) -> float:
        """Median request execution latency."""
        return percentile(self.e2e_latencies(), 50.0)

    def p99_latency(self) -> float:
        """Tail request execution latency."""
        return percentile(self.e2e_latencies(), 99.0)

    def ttft_latencies(self) -> List[float]:
        """Per-request time to first token.

        Requests whose first token was produced on another replica (a
        migrated decode continuation in disaggregated cluster serving)
        carry no first-token timestamp here and are skipped; their TTFT
        belongs to the prefill-side report.
        """
        return [
            r.ttft
            for r in self.finished_requests
            if r.first_token_time is not None
        ]

    def mean_ttft(self) -> float:
        """Mean time to first token."""
        return mean(self.ttft_latencies())

    def median_ttft(self) -> float:
        """Median time to first token."""
        return percentile(self.ttft_latencies(), 50.0)

    def p99_ttft(self) -> float:
        """Tail time to first token."""
        return percentile(self.ttft_latencies(), 99.0)

    def to_json(self) -> Dict[str, Any]:
        """The report as one JSON-able dict.

        The single serialization path shared by benchmarks, the
        telemetry event log and the dashboard. Summaries that have no
        data serialize as ``None`` (see :func:`none_on_empty`).
        """
        document: Dict[str, Any] = {
            "start_time": self.start_time,
            "end_time": self.end_time,
            "makespan": self.makespan,
            "num_requests": len(self.requests),
            "num_finished": len(self.finished_requests),
            "iterations": self.metrics.iteration_count(),
            "records": len(self.metrics.iterations),
            "requests_per_minute": none_on_empty(self.requests_per_minute),
            "median_latency": none_on_empty(self.median_latency),
            "p99_latency": none_on_empty(self.p99_latency),
            "mean_ttft": none_on_empty(self.mean_ttft),
            "median_ttft": none_on_empty(self.median_ttft),
            "p99_ttft": none_on_empty(self.p99_ttft),
            "decode_throughput": none_on_empty(
                self.metrics.decode_throughput
            ),
            "prefill_throughput": none_on_empty(
                self.metrics.prefill_throughput
            ),
        }
        if self.prefix_cache is not None and dataclasses.is_dataclass(
            self.prefix_cache
        ):
            document["prefix_cache"] = dataclasses.asdict(self.prefix_cache)
        if self.latency_attribution is not None:
            document["latency_attribution"] = self.latency_attribution
        return document
