"""End-of-run telemetry dashboard: registry state as ASCII.

The dashboard groups instruments by layer and renders counters as a
bar chart, gauges as last-value plus a sim-time sparkline, and
histograms as count/mean/p50/p99 summaries — all through the plotting
primitives in :mod:`repro.metrics.ascii_plot`. The JSON form of the
same state is :meth:`TelemetryRegistry.to_json
<repro.metrics.telemetry.TelemetryRegistry.to_json>`.

Spans-on runs additionally get :func:`render_waterfall` — a Gantt view
of the slowest requests' span trees, one row per phase, scaled to the
request's end-to-end window.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Tuple

from .ascii_plot import bar_chart, sparkline
from .spans import PHASE_REQUEST, Span, iter_spans
from .telemetry import LAYERS, Counter, Gauge, Histogram, TelemetryRegistry

#: Gauge sparklines downsample to this many points.
_SPARK_POINTS = 48


def _downsample(values: List[float], points: int = _SPARK_POINTS) -> List[float]:
    if len(values) <= points:
        return values
    step = len(values) / points
    return [values[int(index * step)] for index in range(points)]


def render_dashboard(registry: TelemetryRegistry, width: int = 40) -> str:
    """The registry's state as a layer-grouped ASCII dashboard."""
    by_layer = {}
    for instrument in registry.metrics():
        by_layer.setdefault(instrument.spec.layer, []).append(instrument)
    if not by_layer:
        return "telemetry: no metrics recorded"

    ordered = [layer for layer in LAYERS if layer in by_layer]
    ordered += sorted(set(by_layer) - set(LAYERS))

    sections: List[str] = []
    for layer in ordered:
        instruments = by_layer[layer]
        lines = [f"== {layer or 'other'} =="]

        counters = [
            (instrument.spec.key, instrument.value)
            for instrument in instruments
            if isinstance(instrument, Counter)
        ]
        if counters and max(value for _, value in counters) > 0:
            lines.append(bar_chart(counters, width=width))
        else:
            lines.extend(f"{key}: {value:g}" for key, value in counters)

        for instrument in instruments:
            if isinstance(instrument, Gauge):
                series = instrument.series()
                if not series:
                    continue
                unit = instrument.spec.unit
                suffix = f" {unit}" if unit else ""
                lines.append(
                    f"{instrument.spec.key}: last={instrument.last:g}"
                    f"{suffix}  "
                    f"[{min(series):g}..{max(series):g}] "
                    f"{sparkline(_downsample(series))}"
                )
            elif isinstance(instrument, Histogram):
                summary = instrument.summary()
                if summary is None:
                    continue
                lines.append(
                    f"{instrument.spec.key}: n={summary['count']:g} "
                    f"mean={summary['mean']:.6g} "
                    f"p50={summary['p50']:.6g} p99={summary['p99']:.6g}"
                )
        sections.append("\n".join(lines))

    header = f"telemetry dashboard ({registry.event_count} events)"
    return "\n\n".join([header] + sections)


def render_waterfall(
    records: Iterable[Dict[str, Any]],
    limit: int = 5,
    width: int = 56,
) -> str:
    """ASCII Gantt of the slowest requests' span trees.

    One row per phase: all of a phase's spans (thousands of
    per-iteration decode spans, say) collapse onto a single track whose
    filled cells mark the sim-time the phase covered within the
    request's end-to-end window. Rows are ordered by the phase's first
    appearance, and each carries the phase's summed duration.
    """
    groups: Dict[Tuple[str, str], List[Span]] = {}
    for span in iter_spans(records):
        groups.setdefault((span.scope, span.request), []).append(span)
    roots: List[Tuple[Span, List[Span]]] = []
    for group in groups.values():
        for span in group:
            if span.phase == PHASE_REQUEST:
                roots.append((span, group))
    if not roots:
        return "span waterfall: no request spans recorded"
    roots.sort(key=lambda pair: (-pair[0].duration,
                                 pair[0].scope, pair[0].request))

    shown = min(limit, len(roots))
    lines = [f"span waterfall: {shown} slowest of {len(roots)} requests"]
    for root, group in roots[:limit]:
        extent = root.duration or 1.0
        lines.append(
            f"{root.scope}/{root.request}  e2e={root.duration:.4g}s  "
            f"[{root.start:.4g} .. {root.end:.4g}]"
        )
        # phase -> [track cells, summed duration, first start].
        tracks: Dict[str, List[Any]] = {}
        for span in sorted(group, key=lambda s: (s.start, s.end)):
            if span.phase == PHASE_REQUEST:
                continue
            track = tracks.setdefault(
                span.phase, [bytearray(width), 0.0, span.start]
            )
            lo = int((span.start - root.start) / extent * width)
            hi = int(math.ceil((span.end - root.start) / extent * width))
            lo = max(0, min(width - 1, lo))
            hi = max(lo + 1, min(width, hi))
            for cell in range(lo, hi):
                track[0][cell] = 1
            track[1] += span.duration
        for phase, (cells, total, _first) in sorted(
            tracks.items(), key=lambda item: item[1][2]
        ):
            bar = "".join("█" if cell else "·" for cell in cells)
            lines.append(f"  {phase:<13} {total:>10.4g}s |{bar}|")
    return "\n".join(lines)
