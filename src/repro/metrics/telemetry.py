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
    """A sampled instantaneous value with its sim-time series."""

    __slots__ = ("spec", "samples", "_seq")

    def __init__(self, spec: MetricSpec, seq: "itertools.count") -> None:
        self.spec = spec
        #: ``(seq, sim_time, value)`` triples in observation order.
        self.samples: List[Tuple[int, float, float]] = []
        self._seq = seq

    def set(self, time: float, value: float) -> None:
        self.samples.append((next(self._seq), time, value))

    @property
    def last(self) -> Optional[float]:
        return self.samples[-1][2] if self.samples else None

    def series(self) -> List[float]:
        """The sampled values in time order."""
        return [value for _, _, value in self.samples]


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


class TelemetryRegistry:
    """All instruments and events of one observed run."""

    def __init__(self, record_spans: bool = False) -> None:
        self._metrics: Dict[str, Any] = {}
        #: Structured events in emission order (each a JSON-able dict
        #: with at least ``seq``, ``time`` and ``event``).
        self.events: List[Dict[str, Any]] = []
        #: One sequence shared by events *and* gauge samples: the total
        #: order the trace checker replays.
        self._seq = itertools.count()
        self._engine_ids = itertools.count()
        self._cluster_ids = itertools.count()
        #: Opt-in per-request span tracing (``--spans-out`` /
        #: ``--attribution``). Spans ride in :attr:`events` and share
        #: the sequence counter, so they interleave with events and
        #: samples in the JSONL trace; off by default because every
        #: span is one more record per request-phase per iteration.
        self.record_spans = record_spans
        self._span_ids = itertools.count()

    # ------------------------------------------------------------------
    # Instrument creation (get-or-create, kind-checked)
    # ------------------------------------------------------------------
    def _instrument(self, cls, kind: str, name: str, scope: str,
                    layer: str, unit: str):
        spec = MetricSpec(name=name, kind=kind, scope=scope,
                          layer=layer, unit=unit)
        existing = self._metrics.get(spec.key)
        if existing is not None:
            if existing.spec.kind != kind:
                raise ConfigError(
                    f"metric {spec.key!r} already registered as a "
                    f"{existing.spec.kind}, not a {kind}"
                )
            return existing
        if kind == "gauge":
            instrument = cls(spec, self._seq)
        else:
            instrument = cls(spec)
        self._metrics[spec.key] = instrument
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
    def emit(self, time: float, event: str, **fields: Any) -> Dict[str, Any]:
        """Append one structured event at simulated ``time``."""
        record: Dict[str, Any] = {
            "seq": next(self._seq), "time": time, "event": event,
        }
        record.update(fields)
        self.events.append(record)
        return record

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
        record: Dict[str, Any] = {
            "seq": next(self._seq), "time": end, "event": "span",
            "span": span, "phase": phase, "scope": scope,
            "request": request, "start": start, "end": end,
        }
        if parent is not None:
            record["parent"] = parent
        record.update(extras)
        self.events.append(record)
        return span

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
        records: List[Dict[str, Any]] = list(self.events)
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

    def write_jsonl(self, path: str) -> int:
        """Write the merged trace as JSON Lines; returns the line count."""
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
            "events": len(self.events),
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
        self.token_usage.set(now, float(sum(
            request.prompt_len + request.generated
            for request in engine._running
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
        (by delta); the rest are gauges. ``cache_*`` / ``shared_*``
        keys belong to the cache layer, everything else to memory.
        """
        for name, value in sample.items():
            layer = (
                "cache" if name.startswith(("cache_", "shared_"))
                else "memory"
            )
            if name.endswith("_total"):
                self._delta_counter(name, value, layer)
            else:
                self.registry.gauge(name, self.scope, layer).set(
                    now, float(value)
                )

    def _delta_counter(self, name: str, cumulative: float,
                       layer: str) -> None:
        last = self._cumulative.get(name, 0.0)
        if cumulative > last:
            self.registry.counter(name, self.scope, layer).inc(
                cumulative - last
            )
            self._cumulative[name] = cumulative


# ----------------------------------------------------------------------
class ClusterTelemetry:
    """One cluster's instruments: routing, lifecycle, migrations, SLO."""

    def __init__(self, registry: TelemetryRegistry, scope: str) -> None:
        self.registry = registry
        self.scope = scope
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
        """Sample fleet gauges (at routing and scale-decide instants)."""
        self.serving.set(now, float(n_serving))
        self.warming.set(now, float(n_warming))
        self.draining.set(now, float(n_draining))
        total = 0
        for index, outstanding in per_replica:
            total += outstanding
            self.registry.gauge(
                "replica_outstanding_tokens",
                f"{self.scope}.r{index}", "cluster", "tok",
            ).set(now, float(outstanding))
        self.outstanding.set(now, float(total))
        if p99_ttft is not None:
            self.slo_p99.set(now, p99_ttft)

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
        queue wait the re-routed record no longer shows.
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
