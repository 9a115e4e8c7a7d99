"""Per-request spans: the tracing layer over the telemetry event log.

A *span* is one interval of a request's life on simulated time. With
spans on (``TelemetryRegistry(record_spans=True)``, reachable from the
CLI via ``--spans-out`` / ``--attribution``), every request grows a
span tree rooted at its ``request`` span, with the phases emitted at
the same hook sites PR 6 instrumented:

========================  ============================================
phase                     interval
========================  ============================================
``request``               arrival → finish (the root; carries
                          ``first_token``)
``queue_wait``            arrival → picked by the scheduler
``admission``             picked → running (swap-in restores, when
                          admission itself costs time)
``prefill``               one span per prefill iteration — one chunk
                          each under hybrid scheduling (carries
                          ``chunk`` and ``produced``)
``decode``                one span per decode iteration; a
                          fast-forwarded stretch is a single span with
                          its ``iterations`` count
``preempted``             evicted → re-picked
``kv_migration``          transfer requested → bytes landed (disagg
                          and drain legs; carries ``bytes``, ``kind``)
``drain_reroute``         replica drain → re-dispatch on the new
                          replica (carries ``original_arrival``);
                          drain-leg ``kv_migration`` spans are its
                          children via ``parent``
========================  ============================================

The registry stores each span as one compact row beside its events
(built into a dict only when the trace is read) and stamps it from the
shared sequence counter, so spans interleave with events and gauge
samples in the JSONL trace; each is stamped at its *end*. The record
schema is::

    {"seq": ..., "time": end, "event": "span", "span": id,
     "phase": ..., "scope": ..., "request": ..., "start": ...,
     "end": ..., ("parent": id,) ...extras}

Engine-scope spans of one request form an implicit tree under the
``request`` root by interval containment; explicit ``parent`` links
mark the one sanctioned overlap (drain-leg migrations inside their
re-route). :mod:`repro.metrics.tracecheck` enforces the shape, and
:mod:`repro.metrics.attribution` turns the tree into additive latency
buckets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional

#: Span phases, in rough lifecycle order.
PHASE_REQUEST = "request"
PHASE_QUEUE_WAIT = "queue_wait"
PHASE_ADMISSION = "admission"
PHASE_PREFILL = "prefill"
PHASE_DECODE = "decode"
PHASE_PREEMPTED = "preempted"
PHASE_KV_MIGRATION = "kv_migration"
PHASE_DRAIN_REROUTE = "drain_reroute"

#: Every phase but the ``request`` root: within one (scope, request)
#: these are mutually exclusive in time — a request is in at most one
#: of them at any instant — except where a ``parent`` link declares
#: the nesting (drain-leg migrations inside their re-route span).
EXCLUSIVE_PHASES = frozenset({
    PHASE_QUEUE_WAIT, PHASE_ADMISSION, PHASE_PREFILL, PHASE_DECODE,
    PHASE_PREEMPTED, PHASE_KV_MIGRATION, PHASE_DRAIN_REROUTE,
})

#: The core record keys; everything else on a span record is an extra.
_FIELDS = ("seq", "time", "event", "span", "phase", "scope",
           "request", "start", "end", "parent")


@dataclass(frozen=True)
class Span:
    """One parsed span record."""

    span: int
    phase: str
    scope: str
    request: str
    start: float
    end: float
    parent: Optional[int] = None
    extras: Mapping[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def iter_spans(records: Iterable[Dict[str, Any]]) -> Iterator[Span]:
    """Parse the span records out of a merged trace."""
    for record in records:
        if record.get("event") != "span":
            continue
        yield Span(
            span=record["span"],
            phase=record["phase"],
            scope=record.get("scope", ""),
            request=record.get("request", ""),
            start=record["start"],
            end=record["end"],
            parent=record.get("parent"),
            extras={
                key: value for key, value in record.items()
                if key not in _FIELDS
            },
        )


def spans_from(records: Iterable[Dict[str, Any]]) -> List[Span]:
    """Every span in the trace, in sequence order."""
    return list(iter_spans(records))


def write_spans_jsonl(records: Iterable[Dict[str, Any]], path: str) -> int:
    """Write just the span records as JSON Lines; returns the count."""
    spans = [r for r in records if r.get("event") == "span"]
    spans.sort(key=lambda r: r["seq"])
    with open(path, "w") as handle:
        for record in spans:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
    return len(spans)


def base_request_id(request_id: str) -> str:
    """The logical request behind a disagg clone id.

    Disaggregated serving splits one logical request into
    ``<id>#prefill`` / ``<id>#decode`` stage clones; attribution and
    the span checker stitch them back together by this base id.
    """
    for suffix in ("#prefill", "#decode"):
        if request_id.endswith(suffix):
            return request_id[: -len(suffix)]
    return request_id
