"""Latency attribution: where each request's time went, additively.

Built on the span layer (:mod:`repro.metrics.spans`): for every
*logical* request — disagg stage clones stitched by
:func:`~repro.metrics.spans.base_request_id`, replica scopes folded
into their owning cluster via ``replica_init`` events — the analyzer
partitions the interval ``[arrival, finish]`` into labelled segments
and sums them into additive phase buckets:

``queue_wait``, ``admission``, ``prefill``, ``decode``, ``preempted``,
``kv_migration``, ``drain_reroute``, plus ``batch_wait`` — the gap
filler for time a request sat *inside* the running batch without its
phase advancing (e.g. decodes stalled behind another request's
monolithic prefill).

Gaps between spans are classified by what the request was waiting
*for*: a gap leading into a queueing-side phase (``queue_wait``,
``admission``, ``kv_migration``, ``drain_reroute``) counts as queue
wait — this restores the pre-drain wait of a re-routed request, whose
span tree only starts again at re-dispatch — while a gap leading into
a compute phase is ``batch_wait``. Drain-leg ``kv_migration`` spans
are subtracted from their ``drain_reroute`` parent, so nested time is
never double-counted.

The partition is the whole point: per request, the buckets sum to the
measured e2e latency (and, clipped at the first token, to TTFT) up to
float round-off — :data:`CLOSURE_TOL` relative — which is asserted by
the tracecheck span family and the catalogue attribution gate. On top
of the per-request decomposition the report aggregates per-phase
p50/p99 fleet-wide and per replica, and names the phase that dominates
the p99 tail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import fsum
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from .spans import (
    PHASE_ADMISSION,
    PHASE_DECODE,
    PHASE_DRAIN_REROUTE,
    PHASE_KV_MIGRATION,
    PHASE_PREEMPTED,
    PHASE_PREFILL,
    PHASE_QUEUE_WAIT,
    PHASE_REQUEST,
    base_request_id,
)
from .stats import mean, percentile

#: Gap-fill bucket: in-batch time whose phase did not advance.
BUCKET_BATCH_WAIT = "batch_wait"

#: Every attribution bucket, in lifecycle order (also the tie-break
#: order for dominance queries).
BUCKETS = (
    PHASE_QUEUE_WAIT,
    PHASE_ADMISSION,
    PHASE_PREFILL,
    BUCKET_BATCH_WAIT,
    PHASE_DECODE,
    PHASE_PREEMPTED,
    PHASE_KV_MIGRATION,
    PHASE_DRAIN_REROUTE,
)

#: Phases a request waits *for* from outside the batch: a gap leading
#: into one of these is queue wait; into any other, an in-batch stall.
_GAP_INTO = dict.fromkeys((
    PHASE_QUEUE_WAIT, PHASE_ADMISSION, PHASE_KV_MIGRATION,
    PHASE_DRAIN_REROUTE,
), PHASE_QUEUE_WAIT)

#: Relative closure tolerance: per-request bucket sums must match the
#: measured wall time to float round-off.
CLOSURE_TOL = 1e-9

#: One labelled slice of a request's timeline.
Segment = Tuple[float, float, str]

Record = Dict[str, Any]

#: What the walk reads of one span record, by position: ``(start, end,
#: span, phase, scope, request, parent, original_arrival,
#: first_token)``. :func:`build` takes it from dict records; the
#: registry yields it straight from its rows
#: (:meth:`~repro.metrics.telemetry.TelemetryRegistry.span_rows`).
SpanRow = Tuple[float, float, int, str, str, str, Optional[int],
                Optional[float], Optional[float]]

_SCOPE = 4
_REQUEST = 5

#: Walk order: top-level spans by ``(start, end, span id)``; children
#: by ``(start, end)``, ties kept in record order.
_TOP_ORDER = itemgetter(0, 1, 2)
_KID_ORDER = itemgetter(0, 1)


def _span_row(record: Record) -> SpanRow:
    """The walk's view of one span dict."""
    return (
        record["start"], record["end"], record["span"], record["phase"],
        record.get("scope", ""), record.get("request", ""),
        record.get("parent"), record.get("original_arrival"),
        record.get("first_token"),
    )


@dataclass(frozen=True)
class RequestAttribution:
    """One logical request's additive latency decomposition."""

    request: str
    #: Cluster scope for fleet runs, engine scope for standalone runs.
    domain: str
    #: Engine scope of the replica that decoded the request ("" if the
    #: request never reached decode).
    replica_scope: str
    arrival: float
    first_token: Optional[float]
    finish: float
    #: Phase bucket -> seconds, partitioning ``[arrival, finish]``.
    buckets: Dict[str, float] = field(default_factory=dict)
    #: The same partition clipped to ``[arrival, first_token]``.
    ttft_buckets: Optional[Dict[str, float]] = None
    #: ``sum(buckets) - e2e``: float round-off when well-formed,
    #: material when spans overlap or escape the request window.
    closure_error: float = 0.0

    @property
    def e2e(self) -> float:
        return self.finish - self.arrival

    @property
    def ttft(self) -> Optional[float]:
        if self.first_token is None:
            return None
        return self.first_token - self.arrival

    def closed(self, tol: float = CLOSURE_TOL) -> bool:
        """Do the buckets close to the wall time (within ``tol``)?"""
        return abs(self.closure_error) <= tol * max(1.0, abs(self.e2e))


def _segments(arrival: float, finish: float, top: List[SpanRow],
              children: Dict[int, List[SpanRow]]) -> Iterator[Segment]:
    """Partition ``[arrival, finish]`` along the request's span rows.

    Top-level spans are walked in start order; uncovered gaps are
    classified by the phase they lead into, child spans carve their
    interval out of the parent's, and a trailing gap (none, for a
    well-formed tree) falls to ``batch_wait``. Overlaps are clipped so
    the result is always a partition — the span checker, not this
    walk, is what flags ill-formed overlap.
    """
    for kids in children.values():
        kids.sort(key=_KID_ORDER)
    pos = arrival
    for start, end, span, phase, *_ in sorted(top, key=_TOP_ORDER):
        begin = max(start, pos)
        end = min(end, finish)
        if end <= begin:
            continue
        if begin > pos:
            yield (pos, begin, _GAP_INTO.get(phase, BUCKET_BATCH_WAIT))
        kpos = begin
        for kid in children.get(span, ()):
            kbegin = max(kid[0], kpos)
            kend = min(kid[1], end)
            if kend <= kbegin:
                continue
            if kbegin > kpos:
                yield (kpos, kbegin, phase)
            yield (kbegin, kend, kid[3])
            kpos = kend
        if end > kpos:
            yield (kpos, end, phase)
        pos = end
    if finish > pos:
        yield (pos, finish, BUCKET_BATCH_WAIT)


def _attribute(domain: str, request_id: str,
               group: List[SpanRow]) -> Optional[RequestAttribution]:
    """One logical request's row from its span rows (record order)."""
    top: List[SpanRow] = []
    children: Dict[int, List[SpanRow]] = {}
    arrival = group[0][0]
    finish: Optional[float] = None
    first_token: Optional[float] = None
    replica_scope = ""
    for span in group:
        start, end, _, phase, scope, _, parent, restored, token = span
        if start < arrival:
            arrival = start
        # A re-routed request's window opens at its original arrival.
        if restored is not None and restored < arrival:
            arrival = restored
        if phase == PHASE_REQUEST:
            if finish is None or end > finish:
                finish = end
            if token is not None and (first_token is None
                                      or token < first_token):
                first_token = token
            continue
        if phase == PHASE_DECODE:
            replica_scope = scope
        if parent is None:
            top.append(span)
        else:
            children.setdefault(parent, []).append(span)
    if finish is None:
        return None  # never finished inside the trace
    # Full and TTFT-clipped buckets in one pass; fsum is correctly
    # rounded, so the order parts are summed in cannot change a sum.
    parts: Dict[str, List[float]] = {bucket: [] for bucket in BUCKETS}
    clipped = {bucket: [] for bucket in BUCKETS}
    for start, end, bucket in _segments(arrival, finish, top, children):
        parts[bucket].append(end - start)
        if first_token is not None:
            start, end = max(start, arrival), min(end, first_token)
            if end > start:
                clipped[bucket].append(end - start)
    return RequestAttribution(
        request=request_id, domain=domain, replica_scope=replica_scope,
        arrival=arrival, first_token=first_token, finish=finish,
        buckets={bucket: fsum(parts[bucket]) for bucket in BUCKETS},
        ttft_buckets=None if first_token is None else {
            bucket: fsum(clipped[bucket]) for bucket in BUCKETS
        },
        closure_error=fsum(chain(*parts.values())) - (finish - arrival),
    )


def build(records: Iterable[Record],
          domains: Optional[Iterable[str]] = None,
          tol: float = CLOSURE_TOL) -> "AttributionReport":
    """Attribute every logical request found in a trace.

    ``records`` is any iterable of trace records (``registry.events``
    or a parsed JSONL trace); ``domains`` optionally restricts to one
    cluster or standalone-engine scope (the natural filter when a
    sweep ran many engines through one registry).

    One sweep over ``records`` takes each span's :data:`SpanRow` and
    the ``replica_init`` scope bindings, then :func:`attribute` runs.
    """
    cluster_of: Dict[str, str] = {}
    spans: List[SpanRow] = []
    for record in records:
        event = record.get("event")
        if event == "span":
            spans.append(_span_row(record))
        elif event == "replica_init" and record.get("scope"):
            cluster_of[record["scope"]] = record["cluster"]
    return attribute(spans, cluster_of, domains, tol)


def attribute(spans: Iterable[SpanRow], cluster_of: Dict[str, str],
              domains: Optional[Iterable[str]] = None,
              tol: float = CLOSURE_TOL) -> "AttributionReport":
    """Attribute the logical requests of a run's span rows.

    ``cluster_of`` maps replica engine scopes to their cluster, which
    folds replica spans into the cluster's domain. The cost is one
    grouping pass plus one sort-and-walk of each request's own rows.
    """
    wanted = None if domains is None else set(domains)
    groups: Dict[Tuple[str, str], List[SpanRow]] = {}
    for span in spans:
        scope = span[_SCOPE]
        domain = cluster_of.get(scope, scope)
        if wanted is not None and domain not in wanted:
            continue
        key = (domain, base_request_id(span[_REQUEST]))
        groups.setdefault(key, []).append(span)
    requests = []
    for (domain, request_id), group in sorted(groups.items()):
        attribution = _attribute(domain, request_id, group)
        if attribution is not None:
            requests.append(attribution)
    return AttributionReport(requests=requests, tol=tol)


@dataclass
class AttributionReport:
    """Fleet-wide view over per-request attributions."""

    requests: List[RequestAttribution]
    tol: float = CLOSURE_TOL

    def closure_violations(self) -> List[RequestAttribution]:
        """Requests whose buckets do not close to their wall time."""
        return [r for r in self.requests if not r.closed(self.tol)]

    # ------------------------------------------------------------------
    def _rows(self, metric: str) -> List[RequestAttribution]:
        if metric == "ttft":
            return [r for r in self.requests if r.ttft_buckets is not None]
        return self.requests

    @staticmethod
    def _metric_value(row: RequestAttribution, metric: str) -> float:
        return row.ttft if metric == "ttft" else row.e2e

    @staticmethod
    def _buckets(row: RequestAttribution, metric: str) -> Dict[str, float]:
        return row.ttft_buckets if metric == "ttft" else row.buckets

    def phase_summary(self, metric: str = "e2e") -> Dict[str, Dict[str, float]]:
        """Per-bucket total/share/mean/p50/p99 over ``e2e`` or ``ttft``."""
        rows = self._rows(metric)
        if not rows:
            return {}
        grand_total = fsum(self._metric_value(r, metric) for r in rows)
        summary: Dict[str, Dict[str, float]] = {}
        for bucket in BUCKETS:
            values = [self._buckets(r, metric)[bucket] for r in rows]
            total = fsum(values)
            summary[bucket] = {
                "total": total,
                "share": total / grand_total if grand_total else 0.0,
                "mean": mean(values),
                "p50": percentile(values, 50.0),
                "p99": percentile(values, 99.0),
            }
        return summary

    def dominant_tail_phase(self, metric: str = "ttft",
                            q: float = 99.0) -> Optional[str]:
        """The bucket holding the most time in the metric's q-tail."""
        rows = self._rows(metric)
        if not rows:
            return None
        threshold = percentile(
            [self._metric_value(r, metric) for r in rows], q
        )
        tail = [
            r for r in rows if self._metric_value(r, metric) >= threshold
        ] or rows
        totals = {
            bucket: fsum(self._buckets(r, metric)[bucket] for r in tail)
            for bucket in BUCKETS
        }
        return max(BUCKETS, key=lambda bucket: totals[bucket])

    def by_replica(self) -> Dict[str, List[RequestAttribution]]:
        """Requests grouped by the replica scope that decoded them."""
        groups: Dict[str, List[RequestAttribution]] = {}
        for row in self.requests:
            groups.setdefault(
                row.replica_scope or row.domain, []
            ).append(row)
        return {scope: groups[scope] for scope in sorted(groups)}

    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        """The report as a JSON-able summary (embedded in run reports)."""
        return {
            "requests": len(self.requests),
            "closure_tol": self.tol,
            "closure_violations": len(self.closure_violations()),
            "e2e": self.phase_summary("e2e"),
            "ttft": self.phase_summary("ttft"),
            "dominant_p99_ttft_phase": self.dominant_tail_phase("ttft"),
            "dominant_p99_e2e_phase": self.dominant_tail_phase("e2e"),
        }

    def render(self) -> str:
        """A fixed-width text summary for the CLI ``--attribution`` flag."""
        if not self.requests:
            return "latency attribution: no finished requests traced"
        violations = self.closure_violations()
        lines = [
            f"latency attribution ({len(self.requests)} requests, "
            + (
                "all phase sums close to wall time)"
                if not violations
                else f"{len(violations)} CLOSURE VIOLATIONS)"
            ),
            f"  {'phase':<13} {'e2e share':>9} {'p50':>8} {'p99':>8}"
            f"   {'ttft share':>10} {'p50':>8} {'p99':>8}",
        ]
        e2e = self.phase_summary("e2e")
        ttft = self.phase_summary("ttft")
        for bucket in BUCKETS:
            row = e2e[bucket]
            if row["total"] == 0.0 and (
                not ttft or ttft[bucket]["total"] == 0.0
            ):
                continue
            ttft_cells = (
                f"   {ttft[bucket]['share']:>10.1%}"
                f" {ttft[bucket]['p50']:>7.3f}s"
                f" {ttft[bucket]['p99']:>7.3f}s"
                if ttft else ""
            )
            lines.append(
                f"  {bucket:<13} {row['share']:>9.1%}"
                f" {row['p50']:>7.3f}s {row['p99']:>7.3f}s" + ttft_cells
            )
        tail_ttft = self.dominant_tail_phase("ttft")
        tail_e2e = self.dominant_tail_phase("e2e")
        if tail_ttft is not None:
            lines.append(
                f"  p99 tail dominated by: {tail_ttft} (ttft), "
                f"{tail_e2e} (e2e)"
            )
        replicas = self.by_replica()
        if len(replicas) > 1:
            for scope, rows in replicas.items():
                scoped = AttributionReport(requests=rows, tol=self.tol)
                lines.append(
                    f"    {scope}: {len(rows)} reqs, p99 ttft tail "
                    f"{scoped.dominant_tail_phase('ttft')}"
                )
        return "\n".join(lines)
