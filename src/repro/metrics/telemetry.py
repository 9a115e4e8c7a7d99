"""Sim-time telemetry: named metrics, an event log, and engine bindings.

A fleet is operated through its metrics. This module gives every layer
of the simulator — engine, memory backend, prefix cache, cluster
router, autoscaler — one :class:`TelemetryRegistry` of named counters,
gauges and histograms sampled on **simulated time** (the
:class:`~repro.gpu.clock.SimClock` axis, never wall time), plus a
structured event log that records request lifecycles, replica
lifecycles and KV migrations with their simulated timestamps and
KV-byte deltas. Metric names follow sglang's serving metrics where an
analogue exists (``num_running_reqs``, ``num_queue_reqs``,
``token_usage``, ``gen_throughput``, ``cache_hit_rate``).

Telemetry is **off by default and near-zero cost when off**: engines
bind a registry only if one is installed (:func:`install` /
:func:`enabled`) at construction time, and every instrumentation site
is a single ``is None`` check otherwise. Simulation results are
bit-identical with telemetry on or off — instruments observe the
clock, they never advance it.

Events and gauge samples share one monotonically increasing sequence
counter, so the merged trace (:meth:`TelemetryRegistry.trace_records`)
is a totally ordered record of *what the simulator did in what order* —
which is what lets :mod:`repro.metrics.tracecheck` replay it and prove
cross-layer invariants (gauge values must be reconstructible from the
event stream alone). Per-scope streams are ordered by that sequence;
global *timestamps* are not monotone across replicas, whose clocks
legitimately interleave.
"""

from __future__ import annotations

import array
import contextlib
import itertools
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..errors import ConfigError
from .stats import mean, percentile

#: Layers an instrument can belong to (the dashboard groups by these).
LAYERS = ("engine", "memory", "cache", "cluster", "autoscaler")


@dataclass(frozen=True)
class MetricSpec:
    """Identity and classification of one instrument."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    #: Instance qualifier: one engine (``r0``), one cluster (``c0``),
    #: or a per-replica sub-scope (``c0.r1``). Empty for globals.
    scope: str = ""
    layer: str = ""
    unit: str = ""

    @property
    def key(self) -> str:
        """Registry key: the name qualified by its scope."""
        return f"{self.name}[{self.scope}]" if self.scope else self.name


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("spec", "value")

    def __init__(self, spec: MetricSpec) -> None:
        self.spec = spec
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigError(
                f"{self.spec.key}: counters only go up (got {amount})"
            )
        self.value += amount


class Gauge:
    """A sampled instantaneous value with its sim-time series.

    Samples live in three typed columns — sequence number, sim time and
    value — rather than one tuple per sample, so a sample costs 24 bytes
    instead of a tuple and three boxed numbers. Times and values are
    stored as C doubles: callers pass floats, and :attr:`samples`
    rebuilds the ``(seq, sim_time, value)`` triples on demand.
    """

    __slots__ = ("spec", "_seq", "_seqs", "_times", "_values")

    def __init__(self, spec: MetricSpec, seq: "itertools.count") -> None:
        self.spec = spec
        self._seq = seq
        self._seqs = array.array("q")
        self._times = array.array("d")
        self._values = array.array("d")

    def set(self, time: float, value: float) -> None:
        self._seqs.append(next(self._seq))
        self._times.append(time)
        self._values.append(value)

    @property
    def samples(self) -> List[Tuple[int, float, float]]:
        """``(seq, sim_time, value)`` triples in observation order."""
        return list(zip(self._seqs, self._times, self._values))

    @property
    def last(self) -> Optional[float]:
        return self._values[-1] if self._values else None

    def series(self) -> List[float]:
        """The sampled values in time order."""
        return self._values.tolist()


class Histogram:
    """A distribution of observed values.

    Percentiles use the same linear-interpolation estimator as every
    report summary (:func:`repro.metrics.stats.percentile`), and raise
    ``ValueError`` on an empty histogram — the repo-wide empty-summary
    contract (``None`` mapping happens only in serialization paths).
    """

    __slots__ = ("spec", "values")

    def __init__(self, spec: MetricSpec) -> None:
        self.spec = spec
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    def mean(self) -> float:
        return mean(self.values)

    def percentile(self, q: float) -> float:
        return percentile(self.values, q)

    def summary(self) -> Optional[Dict[str, float]]:
        """count/mean/p50/p99 dict, or ``None`` when nothing observed."""
        if not self.values:
            return None
        return {
            "count": float(self.count),
            "mean": self.mean(),
            "p50": self.percentile(50.0),
            "p99": self.percentile(99.0),
        }


class _EventLayout:
    """The shape of one family of event rows, interned per registry.

    An event row is ``(layout id, time, *values)``: the layout carries
    the event name and the field names once for every row of its shape,
    so a row is one small tuple, and :meth:`record` rebuilds the dict.
    Rows name their layout by index, not by reference, so a row holds
    only atomic values and the garbage collector stops tracking it.
    """

    __slots__ = ("event", "names", "positions")

    #: Row position of the first field value.
    FIELDS_AT = 2

    def __init__(self, event: str, names: Tuple[str, ...]) -> None:
        self.event = event
        self.names = names
        self.positions = {
            name: at for at, name in enumerate(names, self.FIELDS_AT)
        }

    def field(self, row: tuple, name: str) -> Any:
        """One field's value in ``row`` (``None`` if the shape lacks it)."""
        at = self.positions.get(name)
        return None if at is None else row[at]

    def record(self, seq: int, row: tuple) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "seq": seq, "time": row[1], "event": self.event,
        }
        record.update(zip(self.names, row[self.FIELDS_AT:]))
        return record


class _SpanLayout(_EventLayout):
    """Span rows: ``(layout id, start, end, span, phase, scope, request,
    parent, *extras)``, the layout naming the extras.

    ``row[1:8]`` is the head of attribution's
    :data:`~repro.metrics.attribution.SpanRow`; the layout knows where
    the tail's two extras sit (``None``: this shape lacks it).
    """

    __slots__ = ("original_arrival_at", "first_token_at")

    FIELDS_AT = 8

    def __init__(self, names: Tuple[str, ...]) -> None:
        super().__init__("span", names)
        self.original_arrival_at = self.positions.get("original_arrival")
        self.first_token_at = self.positions.get("first_token")

    def record(self, seq: int, row: tuple) -> Dict[str, Any]:
        _, start, end, span, phase, scope, request, parent = row[:8]
        record: Dict[str, Any] = {
            "seq": seq, "time": end, "event": "span",
            "span": span, "phase": phase, "scope": scope,
            "request": request, "start": start, "end": end,
        }
        if parent is not None:
            record["parent"] = parent
        record.update(zip(self.names, row[self.FIELDS_AT:]))
        return record


class TelemetryRegistry:
    """All instruments and events of one observed run."""

    def __init__(self, record_spans: bool = False) -> None:
        self._metrics: Dict[str, Any] = {}
        #: Events and spans in emission order, one tuple row each, led
        #: by the index of its layout in ``_layouts``; the dicts of
        #: :attr:`events` and :meth:`trace_records` are built on demand.
        self._rows: List[tuple] = []
        #: Each row's sequence number, index for index with ``_rows``.
        self._row_seqs = array.array("q")
        self._layouts: List[_EventLayout] = []
        #: ``(event, *field names)`` / span extras' names -> layout index.
        self._event_layout_ids: Dict[tuple, int] = {}
        self._span_layout_ids: Dict[Tuple[str, ...], int] = {}
        #: One sequence shared by events *and* gauge samples: the total
        #: order the trace checker replays.
        self._seq = itertools.count()
        self._engine_ids = itertools.count()
        self._cluster_ids = itertools.count()
        #: Opt-in per-request span tracing (``--spans-out`` /
        #: ``--attribution``). Spans are event rows and share
        #: the sequence counter, so they interleave with events and
        #: samples in the JSONL trace; off by default because every
        #: span is one more record per request-phase per iteration.
        self.record_spans = record_spans
        self._span_ids = itertools.count()
        #: ``(kind, name, scope)`` -> instrument: the hot-path lookup,
        #: which skips building a spec and its key string.
        self._handles: Dict[Tuple[str, str, str], Any] = {}

    # ------------------------------------------------------------------
    # Instrument creation (get-or-create, kind-checked)
    # ------------------------------------------------------------------
    def _instrument(self, cls, kind: str, name: str, scope: str,
                    layer: str, unit: str):
        handle = self._handles.get((kind, name, scope))
        if handle is not None:
            return handle
        spec = MetricSpec(name=name, kind=kind, scope=scope,
                          layer=layer, unit=unit)
        instrument = self._metrics.get(spec.key)
        if instrument is None:
            instrument = (
                cls(spec, self._seq) if kind == "gauge" else cls(spec)
            )
            self._metrics[spec.key] = instrument
        elif instrument.spec.kind != kind:
            raise ConfigError(
                f"metric {spec.key!r} already registered as a "
                f"{instrument.spec.kind}, not a {kind}"
            )
        self._handles[(kind, name, scope)] = instrument
        return instrument

    def counter(self, name: str, scope: str = "", layer: str = "",
                unit: str = "") -> Counter:
        return self._instrument(Counter, "counter", name, scope, layer, unit)

    def gauge(self, name: str, scope: str = "", layer: str = "",
              unit: str = "") -> Gauge:
        return self._instrument(Gauge, "gauge", name, scope, layer, unit)

    def histogram(self, name: str, scope: str = "", layer: str = "",
                  unit: str = "") -> Histogram:
        return self._instrument(
            Histogram, "histogram", name, scope, layer, unit
        )

    def get(self, name: str, scope: str = ""):
        """Look an instrument up without creating it (``None`` if absent)."""
        key = f"{name}[{scope}]" if scope else name
        return self._metrics.get(key)

    def metrics(self) -> List[Any]:
        """Every instrument, ordered by registry key."""
        return [self._metrics[key] for key in sorted(self._metrics)]

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def emit(self, time: float, event: str, **fields: Any) -> None:
        """Append one structured event at simulated ``time``."""
        key = (event, *fields)
        layout = self._event_layout_ids.get(key)
        if layout is None:
            layout = self._event_layout_ids[key] = self._intern(
                _EventLayout(event, key[1:])
            )
        self._row_seqs.append(next(self._seq))
        self._rows.append((layout, time, *fields.values()))

    def emit_span(self, *, phase: str, start: float, end: float,
                  scope: str = "", request: str = "",
                  parent: Optional[int] = None,
                  **extras: Any) -> Optional[int]:
        """Append one span record (no-op unless :attr:`record_spans`).

        A span is an interval of a request's life on simulated time.
        It is stamped at its *end* (``time == end``) so spans sequence
        into the trace at the instant the engine knew the phase was
        over — after the events that opened it, before the gauge
        samples that observe its effect. Returns the span id (for
        parent links), or ``None`` when spans are off.
        """
        if not self.record_spans:
            return None
        span = next(self._span_ids)
        names = tuple(extras)
        layout = self._span_layout_ids.get(names)
        if layout is None:
            layout = self._span_layout_ids[names] = self._intern(
                _SpanLayout(names)
            )
        self._row_seqs.append(next(self._seq))
        self._rows.append((
            layout, start, end, span, phase, scope, request, parent,
            *extras.values(),
        ))
        return span

    def _intern(self, layout: _EventLayout) -> int:
        self._layouts.append(layout)
        return len(self._layouts) - 1

    @property
    def events(self) -> List[Dict[str, Any]]:
        """Events and spans in emission order, built as dicts on demand.

        Each is a JSON-able dict with at least ``seq``, ``time`` and
        ``event``; count them with :attr:`event_count` instead.
        """
        layouts = self._layouts
        return [
            layouts[row[0]].record(seq, row)
            for seq, row in zip(self._row_seqs, self._rows)
        ]

    @property
    def event_count(self) -> int:
        """How many events and spans were emitted (no dicts built)."""
        return len(self._rows)

    def span_rows(
        self, first: int = 0,
    ) -> Tuple[List[tuple], Dict[str, str]]:
        """What latency attribution reads of the rows from ``first`` on.

        Returns one :data:`~repro.metrics.attribution.SpanRow` per span
        and the ``replica_init`` bindings of replica engine scopes to
        their cluster — what :func:`repro.metrics.attribution.build`
        collects from dict records, read straight from the rows.
        """
        spans: List[tuple] = []
        cluster_of: Dict[str, str] = {}
        layouts = self._layouts
        for row in itertools.islice(self._rows, first, None):
            layout = layouts[row[0]]
            if type(layout) is _SpanLayout:
                restored = layout.original_arrival_at
                token = layout.first_token_at
                spans.append(row[1:8] + (
                    None if restored is None else row[restored],
                    None if token is None else row[token],
                ))
            elif layout.event == "replica_init":
                scope = layout.field(row, "scope")
                if scope:
                    cluster_of[scope] = layout.field(row, "cluster")
        return spans, cluster_of

    # ------------------------------------------------------------------
    # Engine / cluster bindings
    # ------------------------------------------------------------------
    def engine_telemetry(self) -> "EngineTelemetry":
        """Instruments for the next engine (scopes ``r0``, ``r1``, ...)."""
        return EngineTelemetry(self, f"r{next(self._engine_ids)}")

    def cluster_telemetry(self) -> "ClusterTelemetry":
        """Instruments for the next cluster (scopes ``c0``, ``c1``, ...)."""
        return ClusterTelemetry(self, f"c{next(self._cluster_ids)}")

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def trace_records(self) -> List[Dict[str, Any]]:
        """Events and gauge samples merged into one seq-ordered trace."""
        records = self.events
        for instrument in self._metrics.values():
            if isinstance(instrument, Gauge):
                spec = instrument.spec
                for seq, time, value in instrument.samples:
                    records.append({
                        "seq": seq, "time": time, "event": "sample",
                        "metric": spec.name, "scope": spec.scope,
                        "value": value,
                    })
        records.sort(key=lambda r: r["seq"])
        return records

    def write_jsonl(self, path: str,
                    records: Optional[List[Dict[str, Any]]] = None) -> int:
        """Write the merged trace as JSON Lines; returns the line count.

        ``records`` is the :meth:`trace_records` list when the caller
        already built it.
        """
        if records is None:
            records = self.trace_records()
        with open(path, "w") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True))
                handle.write("\n")
        return len(records)

    def snapshot(self) -> List[Dict[str, Any]]:
        """Every instrument's current state as JSON-able dicts."""
        out: List[Dict[str, Any]] = []
        for instrument in self.metrics():
            spec = instrument.spec
            entry: Dict[str, Any] = {
                "name": spec.name, "scope": spec.scope,
                "layer": spec.layer, "kind": spec.kind, "unit": spec.unit,
            }
            if isinstance(instrument, Counter):
                entry["value"] = instrument.value
            elif isinstance(instrument, Gauge):
                series = instrument.series()
                entry["samples"] = len(series)
                entry["last"] = instrument.last
                if series:
                    entry["min"] = min(series)
                    entry["max"] = max(series)
            else:
                entry["summary"] = instrument.summary()
            out.append(entry)
        return out

    def to_json(self, include_events: bool = False) -> Dict[str, Any]:
        """The registry as one JSON-able document."""
        document: Dict[str, Any] = {
            "metrics": self.snapshot(),
            "events": self.event_count,
        }
        if include_events:
            document["trace"] = self.trace_records()
        return document

    #: Histogram upper bounds for the Prometheus exposition: one fixed
    #: log-ish ladder wide enough for seconds and iteration counts.
    PROMETHEUS_BUCKETS = (
        0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 2.5, 5.0,
        10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
    )

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (0.0.4).

        Counters become ``_total`` series, gauges expose their last
        sampled value, histograms expand into cumulative ``_bucket``
        series plus ``_sum`` / ``_count``. ``scope`` and ``layer``
        become labels, names are prefixed ``repro_``, and families are
        emitted in sorted order so the snapshot is deterministic.
        """
        lines: List[str] = []
        emitted_headers = set()

        def labels(spec: MetricSpec, extra: str = "") -> str:
            parts = []
            if spec.layer:
                parts.append(f'layer="{spec.layer}"')
            if spec.scope:
                parts.append(f'scope="{spec.scope}"')
            if extra:
                parts.append(extra)
            return "{" + ",".join(parts) + "}" if parts else ""

        def header(family: str, kind: str, spec: MetricSpec) -> None:
            if family in emitted_headers:
                return
            emitted_headers.add(family)
            help_text = spec.name + (f" ({spec.unit})" if spec.unit else "")
            lines.append(f"# HELP {family} {help_text}")
            lines.append(f"# TYPE {family} {kind}")

        for instrument in self.metrics():  # sorted by key: families group
            spec = instrument.spec
            family = f"repro_{spec.name}"
            if isinstance(instrument, Counter):
                if not family.endswith("_total"):
                    family += "_total"
                header(family, "counter", spec)
                lines.append(f"{family}{labels(spec)} {instrument.value}")
            elif isinstance(instrument, Gauge):
                if instrument.last is None:
                    continue
                header(family, "gauge", spec)
                lines.append(f"{family}{labels(spec)} {instrument.last}")
            else:
                header(family, "histogram", spec)
                values = sorted(instrument.values)
                cumulative = 0
                for bound in self.PROMETHEUS_BUCKETS:
                    while (cumulative < len(values)
                           and values[cumulative] <= bound):
                        cumulative += 1
                    le = 'le="%g"' % bound
                    lines.append(
                        f"{family}_bucket{labels(spec, le)} {cumulative}"
                    )
                inf = 'le="+Inf"'
                lines.append(
                    f"{family}_bucket{labels(spec, inf)} {len(values)}"
                )
                lines.append(
                    f"{family}_sum{labels(spec)} {instrument.total}"
                )
                lines.append(
                    f"{family}_count{labels(spec)} {instrument.count}"
                )
        return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# The global install point (the DEFAULT_FAST_FORWARD pattern): engines
# and clusters bind the active registry at construction, so a CLI flag
# can instrument every catalogued experiment without threading a knob
# through each driver.
# ----------------------------------------------------------------------
_ACTIVE: Optional[TelemetryRegistry] = None


def install(registry: TelemetryRegistry) -> TelemetryRegistry:
    """Make ``registry`` the one engines bind at construction."""
    global _ACTIVE
    _ACTIVE = registry
    return registry


def uninstall() -> None:
    """Detach the active registry (new engines run uninstrumented)."""
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional[TelemetryRegistry]:
    """The installed registry, or ``None`` (telemetry off)."""
    return _ACTIVE


@contextlib.contextmanager
def enabled(
    registry: Optional[TelemetryRegistry] = None,
) -> Iterator[TelemetryRegistry]:
    """Install a registry for the duration of a ``with`` block."""
    target = registry if registry is not None else TelemetryRegistry()
    previous = _ACTIVE
    install(target)
    try:
        yield target
    finally:
        if previous is None:
            uninstall()
        else:
            install(previous)


# ----------------------------------------------------------------------
class EngineTelemetry:
    """One engine's instruments, bound to a registry scope.

    Hook methods are called from :class:`~repro.serving.engine.LLMEngine`
    (and the decode fast-forwarder) at the points where state changes:
    they observe the engine, they never mutate it. The event/sample
    ordering contract the trace checker relies on: within a scope,
    ``request_admitted`` and ``request_preempted`` precede the
    iteration's gauge samples, which precede its ``request_finished``
    events — exactly the engine's own execution order.
    """

    def __init__(self, registry: TelemetryRegistry, scope: str) -> None:
        self.registry = registry
        self.scope = scope
        #: Index of this binding's first possible event row: scopes are
        #: unique per registry, so the engine's own events and spans all
        #: come from this row on.
        self.first_record = registry.event_count
        self.running = registry.gauge(
            "num_running_reqs", scope, "engine", "reqs")
        self.queued = registry.gauge(
            "num_queue_reqs", scope, "engine", "reqs")
        #: Resident context tokens across the running batch. (The
        #: pool-occupancy *fraction* backends report is
        #: ``kv_pool_usage``; this engine-level count is what the trace
        #: checker can re-derive exactly from events plus spans.)
        self.token_usage = registry.gauge(
            "token_usage", scope, "engine", "tok")
        self.batch = registry.gauge("batch_size", scope, "engine", "reqs")
        self.throughput = registry.gauge(
            "gen_throughput", scope, "engine", "tok/s")
        self.iterations = registry.counter(
            "engine_iterations_total", scope, "engine", "iters")
        self.tokens = registry.counter(
            "processed_tokens_total", scope, "engine", "tok")
        self.alloc_sync = registry.counter(
            "alloc_sync_seconds_total", scope, "engine", "s")
        self.busy = registry.counter(
            "busy_seconds_total", scope, "engine", "s")
        self.admits = registry.counter(
            "num_admitted_reqs_total", scope, "engine", "reqs")
        self.preempts = registry.counter(
            "num_preempted_reqs_total", scope, "engine", "reqs")
        self.finishes = registry.counter(
            "num_finished_reqs_total", scope, "engine", "reqs")
        self.stretches = registry.histogram(
            "fast_forward_stretch_iterations", scope, "engine", "iters")
        self.ttft = registry.histogram("ttft_seconds", scope, "engine", "s")
        self.e2e = registry.histogram(
            "e2e_latency_seconds", scope, "engine", "s")
        #: Last seen value per cumulative backend statistic, so backend
        #: totals (evictions, swap bytes) become registry counters by
        #: delta without the backend keeping telemetry state.
        self._cumulative: Dict[str, float] = {}
        #: Backend sample key -> its gauge (``None``: cumulative key).
        self._backend_gauges: Dict[str, Optional[Gauge]] = {}
        #: Open ``preempted`` span starts, closed at re-admission.
        self._open_preempts: Dict[str, float] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def _kv_bytes(engine, tokens: int) -> int:
        return tokens * engine.config.shard.kv_bytes_per_token

    def on_queued(self, engine, request) -> None:
        """A request entered the waiting queue (arrival ingested)."""
        self.registry.emit(
            engine.clock.now, "request_queued",
            scope=self.scope, request=request.request_id,
            arrival=request.arrival_time,
        )

    def on_withdrawn(self, engine, request) -> None:
        """A queued, never-admitted request was withdrawn (drain)."""
        self.registry.emit(
            engine.clock.now, "request_withdrawn",
            scope=self.scope, request=request.request_id,
        )

    def on_admit(self, engine, request, picked: Optional[float] = None) -> None:
        """A request entered the running batch.

        ``picked`` is the clock at the instant the scheduler chose the
        request — before the backend admit and any swap-in restore
        advanced time. It closes the queue-wait (or preempted) span;
        the remainder up to ``now`` is the ``admission`` span.
        """
        now = engine.clock.now
        if picked is None:
            picked = now
        self.admits.inc()
        self.registry.emit(
            now, "request_admitted",
            scope=self.scope, request=request.request_id,
            arrival=request.arrival_time,
            prompt_len=request.prompt_len,
            total_len=request.total_len,
            tokens_reserved=request.resident_tokens_needed,
            kv_bytes_reserved=self._kv_bytes(
                engine, request.resident_tokens_needed
            ),
        )
        if self.registry.record_spans:
            preempted_at = self._open_preempts.pop(request.request_id, None)
            if preempted_at is not None:
                self.registry.emit_span(
                    phase="preempted", start=preempted_at, end=picked,
                    scope=self.scope, request=request.request_id,
                )
            else:
                self.registry.emit_span(
                    phase="queue_wait", start=request.arrival_time,
                    end=picked, scope=self.scope,
                    request=request.request_id,
                )
            if now > picked:
                self.registry.emit_span(
                    phase="admission", start=picked, end=now,
                    scope=self.scope, request=request.request_id,
                )

    def on_preempt(self, engine, victim) -> None:
        """A running request was evicted (recompute or swap)."""
        self.preempts.inc()
        self.registry.emit(
            engine.clock.now, "request_preempted",
            scope=self.scope, request=victim.request_id,
            mode="swap" if victim.swapped else "recompute",
            tokens_freed=victim.context_len,
            kv_bytes_freed=self._kv_bytes(engine, victim.context_len),
        )
        if self.registry.record_spans:
            self._open_preempts[victim.request_id] = engine.clock.now

    def on_tier_transfer(self, engine, request, transfer) -> None:
        """KV moved across the GPU↔CPU tier boundary (manager verbs).

        ``transfer`` is the :class:`~repro.memory.manager.TierTransfer`
        the memory manager returned; the engine has already charged its seconds
        to the clock, so the event lands at the transfer's end time
        (stream-clock monotonicity holds). The trace checker matches
        "out"/"in" pairs per request for KV conservation across tiers.
        """
        self.registry.emit(
            engine.clock.now, "tier_transfer",
            scope=self.scope, request=request.request_id,
            direction=transfer.direction,
            nbytes=transfer.nbytes,
            seconds=transfer.seconds,
            mode=transfer.mode,
        )

    def on_finish(self, engine, request) -> None:
        """A request completed (emitted before any retire hook runs)."""
        finish = request.finish_time
        self.finishes.inc()
        if request.first_token_time is not None:
            self.ttft.observe(request.first_token_time - request.arrival_time)
        self.e2e.observe(finish - request.arrival_time)
        self.registry.emit(
            finish, "request_finished",
            scope=self.scope, request=request.request_id,
            arrival=request.arrival_time,
            admitted=request.admitted_time,
            first_token=request.first_token_time,
            finish=finish,
            prompt_len=request.prompt_len,
            generated=request.generated,
            total_len=request.total_len,
            context_capped=(
                request.context_len >= engine.config.shard.max_context
            ),
            kv_bytes_released=self._kv_bytes(engine, request.context_len),
        )
        if self.registry.record_spans:
            self.registry.emit_span(
                phase="request", start=request.arrival_time, end=finish,
                scope=self.scope, request=request.request_id,
                first_token=request.first_token_time,
            )

    def on_iteration_spans(self, engine, record, prefill=None, chunk=0,
                           decodes=()) -> None:
        """Emit compute spans for one iteration (or stretch).

        Called by the engine *before* :meth:`on_iteration`, so a
        request's produced-token deltas land ahead of the iteration's
        gauge samples in the trace — the order the checker's
        ``token_usage`` reconstruction replays. A fast-forwarded
        stretch passes its whole batch as ``decodes`` and contributes
        one span per request with the stretch's iteration count.
        """
        if not self.registry.record_spans:
            return
        start = record.start_time
        end = engine.clock.now
        if prefill is not None:
            self.registry.emit_span(
                phase="prefill", start=start, end=end,
                scope=self.scope, request=prefill.request_id,
                chunk=chunk, produced=1 if prefill.prefill_done else 0,
            )
        for request in decodes:
            self.registry.emit_span(
                phase="decode", start=start, end=end,
                scope=self.scope, request=request.request_id,
                iterations=record.iterations,
                produced=record.iterations,
            )

    def on_iteration(self, engine, record) -> None:
        """One iteration record landed (possibly a fast-forward stretch).

        A stretch contributes the same counter totals the legacy
        per-iteration loop would (iterations, tokens, busy seconds) and
        one aggregate gauge sample at its end — per-iteration samples
        inside a provably-steady stretch would all repeat the same
        batch state.
        """
        now = engine.clock.now
        self.running.set(now, float(len(engine._running)))
        self.queued.set(now, float(len(engine._waiting)))
        # The ledger's total covers the decoding members; the members
        # awaiting their prefill add their (prompt) context.
        ledger = engine._ledger
        self.token_usage.set(now, float(ledger.tokens + sum(
            request.prompt_len + request.generated
            for request in ledger.awaiting
        )))
        self.batch.set(now, float(record.batch_size))
        if record.latency > 0:
            self.throughput.set(now, record.tokens / record.latency)
        self.iterations.inc(record.iterations)
        self.tokens.inc(record.tokens)
        self.alloc_sync.inc(record.alloc_sync)
        self.busy.inc(record.latency)
        if record.iterations > 1:
            self.stretches.observe(float(record.iterations))
        sample = engine.memory.telemetry_sample()
        if sample:
            self._apply_backend_sample(now, sample)

    def on_report(self, engine, report) -> None:
        """A completed run's report, through the shared ``to_json``."""
        self.registry.emit(
            report.end_time, "run_report",
            scope=self.scope, report=report.to_json(),
        )

    # ------------------------------------------------------------------
    def _apply_backend_sample(self, now: float,
                              sample: Dict[str, float]) -> None:
        """Map a backend's sample dict onto instruments.

        Keys ending in ``_total`` are cumulative and become counters
        (by delta); the rest are gauges. Each key is resolved once per
        binding: its gauge, or ``None`` for a cumulative key.
        """
        gauges = self._backend_gauges
        for name, value in sample.items():
            try:
                gauge = gauges[name]
            except KeyError:
                gauge = None
                if not name.endswith("_total"):
                    gauge = self.registry.gauge(
                        name, self.scope, _backend_layer(name)
                    )
                gauges[name] = gauge
            if gauge is None:
                self._delta_counter(name, value)
            else:
                gauge.set(now, float(value))

    def _delta_counter(self, name: str, cumulative: float) -> None:
        last = self._cumulative.get(name, 0.0)
        if cumulative > last:
            self.registry.counter(
                name, self.scope, _backend_layer(name)
            ).inc(cumulative - last)
            self._cumulative[name] = cumulative


def _backend_layer(name: str) -> str:
    """``cache_*`` / ``shared_*`` sample keys belong to the cache layer,
    everything else to memory."""
    return "cache" if name.startswith(("cache_", "shared_")) else "memory"


# ----------------------------------------------------------------------
class ClusterTelemetry:
    """One cluster's instruments: routing, lifecycle, migrations, SLO."""

    def __init__(self, registry: TelemetryRegistry, scope: str) -> None:
        self.registry = registry
        self.scope = scope
        #: Index of this cluster's first possible event row (see
        #: :class:`EngineTelemetry`).
        self.first_record = registry.event_count
        self.routing = registry.counter(
            "routing_decisions_total", scope, "cluster", "reqs")
        self.migrations = registry.counter(
            "migration_transfers_total", scope, "cluster", "transfers")
        self.migrated = registry.counter(
            "migration_bytes_total", scope, "cluster", "B")
        self.scale_events = registry.counter(
            "scale_events_total", scope, "autoscaler", "events")
        self.scale_decides = registry.counter(
            "scale_decides_total", scope, "autoscaler", "decides")
        self.serving = registry.gauge(
            "num_serving_replicas", scope, "autoscaler", "replicas")
        self.warming = registry.gauge(
            "num_warming_replicas", scope, "autoscaler", "replicas")
        self.draining = registry.gauge(
            "num_draining_replicas", scope, "autoscaler", "replicas")
        self.outstanding = registry.gauge(
            "fleet_outstanding_tokens", scope, "cluster", "tok")
        self.slo_p99 = registry.gauge(
            "slo_window_p99_ttft", scope, "autoscaler", "s")
        self.link_gbps = registry.gauge(
            "migration_link_gbps", scope, "cluster", "GB/s")
        self.link_backlog = registry.gauge(
            "migration_link_backlog_seconds", scope, "cluster", "s")
        self._transfer_ids = itertools.count()

    # ------------------------------------------------------------------
    def on_sim_event(self, event) -> None:
        """Count one dispatched :class:`~repro.sim.events.Event`."""
        self.registry.counter(
            f"sim_events_{event.kind.name.lower()}_total",
            self.scope, "cluster", "events",
        ).inc()

    def replica_init(self, time: float, replica: int, role: str,
                     state: str, scope: str = "") -> None:
        """One replica joined the fleet.

        ``scope`` is the replica engine's registry scope (``r3``),
        recorded so trace consumers can stitch engine-scope spans back
        to the cluster that owns the replica.
        """
        self.registry.emit(
            time, "replica_init", cluster=self.scope,
            replica=replica, role=role, state=state, scope=scope,
        )

    def replica_state(self, time: float, action: str, replica: int,
                      n_serving: int, reason: str = "") -> None:
        if action == "retired":
            # Fleet samples skip retired replicas: end the series at 0.
            self._replica_backlog(replica).set(time, 0.0)
        self.scale_events.inc()
        self.registry.emit(
            time, "replica_state", cluster=self.scope,
            replica=replica, action=action,
            n_serving=n_serving, reason=reason,
        )

    def request_routed(self, time: float, request_id: str, replica: int,
                       prompt_len: int, max_new_tokens: int,
                       rerouted: bool) -> None:
        self.routing.inc()
        self.registry.emit(
            time, "request_routed", cluster=self.scope,
            request=request_id, replica=replica,
            prompt_len=prompt_len, max_new_tokens=max_new_tokens,
            rerouted=rerouted,
        )

    def sample_fleet(self, now: float, n_serving: int, n_warming: int,
                     n_draining: int,
                     per_replica: List[Tuple[int, int]],
                     p99_ttft: Optional[float] = None) -> None:
        """Sample fleet gauges (per routing pass and scale decide)."""
        self.serving.set(now, float(n_serving))
        self.warming.set(now, float(n_warming))
        self.draining.set(now, float(n_draining))
        total = 0
        for index, outstanding in per_replica:
            total += outstanding
            self._replica_backlog(index).set(now, float(outstanding))
        self.outstanding.set(now, float(total))
        if p99_ttft is not None:
            self.slo_p99.set(now, p99_ttft)

    def _replica_backlog(self, index: int) -> Gauge:
        return self.registry.gauge(
            "replica_outstanding_tokens", f"{self.scope}.r{index}",
            "cluster", "tok")

    def migration_start(self, requested: float, request_id: str, kind: str,
                        nbytes: int, start: float, done: float,
                        span_parent: Optional[int] = None) -> int:
        """A KV transfer entered the link; returns its transfer id.

        With spans on, the transfer also becomes a ``kv_migration``
        span over ``[requested, done]`` — queueing for the link plus
        the wire time — parented under ``span_parent`` when the leg
        belongs to a drain re-route.
        """
        transfer = next(self._transfer_ids)
        self.migrations.inc()
        self.migrated.inc(nbytes)
        duration = done - start
        if duration > 0:
            self.link_gbps.set(start, nbytes / duration / 1e9)
        self.link_backlog.set(requested, max(0.0, start - requested))
        self.registry.emit(
            requested, "migration_start", cluster=self.scope,
            transfer=transfer, request=request_id, kind=kind,
            bytes=nbytes, start=start, done=done,
        )
        self.registry.emit_span(
            phase="kv_migration", start=requested, end=done,
            scope=self.scope, request=request_id, parent=span_parent,
            kind=kind, bytes=nbytes, link_start=start,
        )
        return transfer

    def drain_reroute(self, time: float, request_id: str, until: float,
                      original_arrival: float,
                      replica: int) -> Optional[int]:
        """Span for a drained request's re-route gap; returns span id.

        ``time`` is the drain instant on the victim replica, ``until``
        the re-dispatch instant (KV-migration landing, or ``time``
        when nothing needed moving). The span carries the request's
        *original* arrival so attribution can restore the pre-drain
        queue wait the re-routed engine request no longer shows.
        """
        return self.registry.emit_span(
            phase="drain_reroute", start=time, end=until,
            scope=self.scope, request=request_id,
            original_arrival=original_arrival, replica=replica,
        )

    def migration_land(self, time: float, transfer: int, request_id: str,
                       replica: int, nbytes: int) -> None:
        """The transfer's bytes arrived and were dispatched."""
        self.registry.emit(
            time, "migration_land", cluster=self.scope,
            transfer=transfer, request=request_id,
            replica=replica, bytes=nbytes,
        )

    def on_report(self, report) -> None:
        """A completed cluster run's report, via the shared ``to_json``."""
        self.registry.emit(
            report.end_time, "cluster_report",
            cluster=self.scope, report=report.to_json(),
        )
