"""Replay a telemetry trace and assert cross-layer invariants.

The merged trace (:meth:`TelemetryRegistry.trace_records
<repro.metrics.telemetry.TelemetryRegistry.trace_records>`) totally
orders every instrumentation event and gauge sample by the registry's
shared sequence counter. This module replays that order and proves the
properties the simulator is supposed to guarantee by construction:

* **Monotone request clocks** — per request: arrival ≤ admitted,
  arrival ≤ first-token ≤ finish.
* **Token conservation** — a request's token budget (``total_len``)
  is identical on every admission (preemption may re-partition
  prompt/output, never grow the total), and at finish
  ``prompt_len + generated`` equals the budget — or stays under it
  only when the finish was context-capped.
* **KV conservation across migration and drain re-routing** — every
  transfer that enters the migration link lands exactly once, with the
  same byte count, at exactly the transfer's computed arrival time.
* **Link FIFO** — per cluster, the serialized link serves transfers
  in request order: ``migration_start`` records in emission order carry
  non-decreasing ``time``, each starting at or after the previous
  ``done``.
* **KV conservation across tier transfers** — a request swapped out
  to the CPU KV tier is restored exactly once, with the same byte
  count, before it can be swapped out again; no request's KV is left
  stranded on the host tier at end of trace.
* **SERVING-only routing** — no ``request_routed`` event targets a
  replica whose replayed lifecycle state is not ``serving``, and
  replica lifecycles only take legal transitions
  (provisioning → warming → serving → draining → retired).
* **Gauge reconstruction** — ``num_running_reqs``,
  ``num_serving_replicas``, ``num_queue_reqs`` and ``token_usage``
  samples must equal the values re-derived from the event stream alone
  (queue/admit/preempt/withdraw/finish events, lifecycle actions, span
  ``produced`` counts), i.e. the gauges carry no information the
  events don't. ``num_queue_reqs`` is only checked when the trace
  contains ``request_queued`` events, and ``token_usage`` only when it
  contains spans — older traces lack the reconstruction inputs.
* **Span well-formedness** — every span runs forward in time
  (``start <= end``), a request's phase spans nest inside its single
  ``request`` root span, children nest inside their ``parent``,
  exclusive phases of one request never overlap with positive measure
  (unless parent-linked, like a drain's KV transfer inside its
  re-route), and top-level phase durations never sum past the
  request's end-to-end window.

* **Stream-clock monotonicity** — within one scope's stream, record
  times never run backwards in emission (seq) order: a component's
  clock only moves forward. This is the invariant an analytic
  fast-forward jump would break first — sweeping a replica to a joint
  horizon and then dispatching an event in its past. Records stamped
  at a semantic instant rather than the emitter's clock are exempt
  (spans, migration records and link gauges, the terminal report).

Streams are partitioned by scope (engine ``r0…``, cluster ``c0…``)
because request ids repeat across sweep cells; *times* are compared
only within a stream — replica clocks legitimately interleave on the
global axis, so the checker never asserts global time monotonicity.

Checks degrade gracefully: an invariant with no relevant events in the
trace simply passes, so the checker runs unmodified over single-engine
experiments (no cluster events) and cluster experiments alike.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from .spans import EXCLUSIVE_PHASES, PHASE_DECODE, PHASE_PREFILL, PHASE_REQUEST

#: Relative tolerance of the span-accounting sum (matches
#: :data:`repro.metrics.attribution.CLOSURE_TOL`).
_SPAN_TOL = 1e-9

#: Legal replica-lifecycle transitions (old state -> allowed new states).
_LIFECYCLE = {
    "provisioning": {"warming"},
    "warming": {"serving"},
    "serving": {"draining", "retired"},
    "draining": {"retired"},
    "retired": set(),
}


@dataclass(frozen=True)
class TraceViolation:
    """One broken invariant, anchored to the offending trace record."""

    invariant: str
    message: str
    seq: int

    def __str__(self) -> str:
        return f"[{self.invariant}] seq={self.seq}: {self.message}"


class _RequestLedger:
    """Per-(scope, request) lifecycle bookkeeping during replay."""

    __slots__ = ("total_len", "running", "finishes")

    def __init__(self, total_len: int) -> None:
        self.total_len = total_len
        self.running = False
        self.finishes = 0


def check_trace(records: Iterable[Dict[str, Any]]) -> List[TraceViolation]:
    """Replay ``records`` (seq order) and return every violation found."""
    records = sorted(records, key=lambda r: r["seq"])
    violations: List[TraceViolation] = []

    def flag(invariant: str, seq: int, message: str) -> None:
        violations.append(TraceViolation(invariant, message, seq))

    # Replay state --------------------------------------------------------
    # (scope, request_id) -> ledger; scope -> replayed running count.
    requests: Dict[Tuple[str, str], _RequestLedger] = {}
    running: Dict[str, int] = {}
    # cluster -> replica index -> lifecycle state; cluster -> serving count.
    replicas: Dict[str, Dict[int, str]] = {}
    serving: Dict[str, int] = {}
    # (cluster, transfer) -> the unmatched migration_start record.
    transfers: Dict[Tuple[str, int], Dict[str, Any]] = {}
    # (scope, request) -> the unmatched tier_transfer "out" record.
    tiered: Dict[Tuple[str, str], Dict[str, Any]] = {}
    # scope -> request ids currently in the waiting queue.
    queued: Dict[str, Set[str]] = {}
    # (scope, request_id) -> replayed resident KV tokens while running.
    resident: Dict[Tuple[str, str], int] = {}
    spans: List[Dict[str, Any]] = []
    # stream (scope or cluster) -> latest replayed record time.
    clocks: Dict[str, float] = {}
    # cluster -> the previous migration_start record.
    link_tail: Dict[str, Dict[str, Any]] = {}

    # Reconstruction inputs that only newer traces carry; without them
    # the corresponding gauge checks degrade to a pass.
    events_present = {record["event"] for record in records}
    has_spans = "span" in events_present
    has_queue_events = "request_queued" in events_present

    for record in records:
        seq = record["seq"]
        event = record["event"]

        # Exemptions are records stamped at a *semantic* instant
        # rather than the emitting component's clock: a span carries
        # its end (which may precede the emission instant, e.g. an
        # overlapped transfer closed at the next iteration boundary);
        # migration records and the migration_link_* gauges carry the
        # serialized link's schedule — start at max(prefill finish,
        # link free), landing at the computed arrival (both pinned
        # exactly by kv-conservation, their order by link-fifo) — but
        # are emitted when a later pass starts or lands the transfer,
        # behind routing records the stream already carries; and the
        # terminal cluster_report carries the fleet's last finish
        # time, which a final autoscaler tick may outrun.
        stream = record.get("scope") or record.get("cluster")
        link_gauge = (
            event == "sample"
            and record["metric"].startswith("migration_link_")
        )
        if stream and not link_gauge and event not in (
            "span", "migration_start", "migration_land",
            "cluster_report",
        ):
            last = clocks.get(stream)
            if last is not None and record["time"] < last:
                flag("stream-clock", seq,
                     f"stream {stream} emitted {event} at "
                     f"{record['time']} after already reaching {last}")
            else:
                clocks[stream] = record["time"]

        if event == "request_queued":
            pending = queued.setdefault(record["scope"], set())
            if record["request"] in pending:
                flag("queue-ledger", seq,
                     f"request {record['request']} queued while already "
                     f"in the waiting queue")
            else:
                pending.add(record["request"])

        elif event == "request_withdrawn":
            pending = queued.get(record["scope"])
            if pending is None or record["request"] not in pending:
                flag("queue-ledger", seq,
                     f"request {record['request']} withdrawn from a "
                     f"queue it never joined")
            else:
                pending.discard(record["request"])

        elif event == "request_admitted":
            key = (record["scope"], record["request"])
            ledger = requests.get(key)
            if ledger is None:
                requests[key] = ledger = _RequestLedger(record["total_len"])
            elif record["total_len"] != ledger.total_len:
                flag("token-conservation", seq,
                     f"request {key[1]} re-admitted with total_len "
                     f"{record['total_len']} != {ledger.total_len}")
            if ledger.running:
                flag("request-lifecycle", seq,
                     f"request {key[1]} admitted while already running")
            if record["time"] < record["arrival"]:
                flag("monotone-clock", seq,
                     f"request {key[1]} admitted at {record['time']} "
                     f"before its arrival {record['arrival']}")
            ledger.running = True
            running[key[0]] = running.get(key[0], 0) + 1
            queued.get(key[0], set()).discard(key[1])
            reserved = record.get("tokens_reserved")
            if has_spans and reserved is not None:
                resident[key] = reserved

        elif event == "request_preempted":
            key = (record["scope"], record["request"])
            ledger = requests.get(key)
            if ledger is None or not ledger.running:
                flag("request-lifecycle", seq,
                     f"request {key[1]} preempted while not running")
            else:
                ledger.running = False
                running[key[0]] -= 1
                # The victim re-enters the waiting queue head.
                queued.setdefault(key[0], set()).add(key[1])
                held = resident.pop(key, None)
                freed = record.get("tokens_freed")
                if held is not None and freed is not None and freed != held:
                    flag("token-conservation", seq,
                         f"request {key[1]} freed {freed} resident tokens "
                         f"on preemption but the replayed ledger holds "
                         f"{held}")

        elif event == "request_finished":
            key = (record["scope"], record["request"])
            ledger = requests.get(key)
            if ledger is None or not ledger.running:
                flag("request-lifecycle", seq,
                     f"request {key[1]} finished while not running")
            else:
                ledger.running = False
                ledger.finishes += 1
                running[key[0]] -= 1
                resident.pop(key, None)
                if ledger.finishes > 1:
                    flag("request-lifecycle", seq,
                         f"request {key[1]} finished more than once")
            _check_clocks(record, flag)
            _check_tokens(record, ledger, flag)

        elif event == "span":
            spans.append(record)
            if record["phase"] in (PHASE_PREFILL, PHASE_DECODE):
                key = (record["scope"], record["request"])
                if key in resident:
                    resident[key] += record.get("produced", 0)

        elif event == "replica_init":
            fleet = replicas.setdefault(record["cluster"], {})
            fleet[record["replica"]] = record["state"]
            serving[record["cluster"]] = sum(
                1 for state in fleet.values() if state == "serving"
            )

        elif event == "replica_state":
            cluster = record["cluster"]
            fleet = replicas.setdefault(cluster, {})
            previous = fleet.get(record["replica"])
            state = record["action"]
            if previous is None:
                if state != "provisioning":
                    flag("replica-lifecycle", seq,
                         f"replica {record['replica']} appeared in state "
                         f"{state!r} without provisioning")
            elif state not in _LIFECYCLE.get(previous, set()):
                flag("replica-lifecycle", seq,
                     f"replica {record['replica']} illegal transition "
                     f"{previous!r} -> {state!r}")
            fleet[record["replica"]] = state
            serving[cluster] = sum(
                1 for value in fleet.values() if value == "serving"
            )
            if record["n_serving"] != serving[cluster]:
                flag("gauge-reconstruction", seq,
                     f"replica_state reports n_serving="
                     f"{record['n_serving']} but replay counts "
                     f"{serving[cluster]}")

        elif event == "request_routed":
            cluster = record["cluster"]
            state = replicas.get(cluster, {}).get(record["replica"])
            if state != "serving":
                flag("serving-only-routing", seq,
                     f"request {record['request']} routed to replica "
                     f"{record['replica']} in state {state!r}")

        elif event == "migration_start":
            key = (record["cluster"], record["transfer"])
            if key in transfers:
                flag("kv-conservation", seq,
                     f"transfer {key[1]} started twice")
            else:
                previous = link_tail.get(key[0])
                if previous is not None and (
                    record["time"] < previous["time"]
                    or record["start"] < previous["done"]
                ):
                    flag("link-fifo", seq,
                         f"transfer {key[1]} (requested {record['time']}, "
                         f"start {record['start']}) is out of link order "
                         f"after transfer {previous['transfer']}")
                link_tail[key[0]] = record
            transfers[key] = record

        elif event == "migration_land":
            key = (record["cluster"], record["transfer"])
            start = transfers.pop(key, None)
            if start is None:
                flag("kv-conservation", seq,
                     f"transfer {key[1]} landed without a start")
                continue
            if record["bytes"] != start["bytes"]:
                flag("kv-conservation", seq,
                     f"transfer {key[1]} landed {record['bytes']} bytes "
                     f"but started with {start['bytes']}")
            if record["time"] != start["done"]:
                flag("kv-conservation", seq,
                     f"transfer {key[1]} landed at {record['time']} but "
                     f"the link computed arrival {start['done']}")

        elif event == "tier_transfer":
            key = (record["scope"], record["request"])
            if record["direction"] == "out":
                if key in tiered:
                    flag("tier-conservation", seq,
                         f"request {key[1]} swapped out to the CPU tier "
                         f"twice without an intervening restore")
                tiered[key] = record
            elif record["direction"] == "in":
                out = tiered.pop(key, None)
                if out is None:
                    flag("tier-conservation", seq,
                         f"request {key[1]} restored from the CPU tier "
                         f"without a prior swap-out")
                elif record["nbytes"] != out["nbytes"]:
                    flag("tier-conservation", seq,
                         f"request {key[1]} restored {record['nbytes']} "
                         f"bytes but swapped out {out['nbytes']}")
            else:
                flag("tier-conservation", seq,
                     f"request {key[1]} tier transfer has unknown "
                     f"direction {record['direction']!r}")

        elif event == "sample":
            _check_sample(record, running, serving, queued, resident,
                          has_queue_events, has_spans, flag)

    for (cluster, transfer), start in sorted(transfers.items()):
        flag("kv-conservation", start["seq"],
             f"transfer {transfer} on {cluster} never landed "
             f"({start['bytes']} bytes in flight at end of trace)")

    for (scope, request), out in sorted(tiered.items()):
        flag("tier-conservation", out["seq"],
             f"request {request} on {scope} never restored from the "
             f"CPU tier ({out['nbytes']} bytes stranded at end of trace)")

    _check_spans(spans, flag)

    violations.sort(key=lambda v: v.seq)
    return violations


def _check_clocks(record: Dict[str, Any], flag) -> None:
    """arrival ≤ admitted, arrival ≤ first-token ≤ finish."""
    request = record["request"]
    arrival = record["arrival"]
    admitted = record["admitted"]
    first = record["first_token"]
    finish = record["finish"]
    if admitted is not None and admitted < arrival:
        flag("monotone-clock", record["seq"],
             f"request {request} admitted ({admitted}) before "
             f"arrival ({arrival})")
    if first is not None:
        if first < arrival:
            flag("monotone-clock", record["seq"],
                 f"request {request} first token ({first}) before "
                 f"arrival ({arrival})")
        if finish < first:
            flag("monotone-clock", record["seq"],
                 f"request {request} finished ({finish}) before its "
                 f"first token ({first})")
    elif finish < arrival:
        flag("monotone-clock", record["seq"],
             f"request {request} finished ({finish}) before "
             f"arrival ({arrival})")


def _check_tokens(record: Dict[str, Any],
                  ledger: Optional[_RequestLedger], flag) -> None:
    """prompt + generated must close the admitted token budget."""
    request = record["request"]
    produced = record["prompt_len"] + record["generated"]
    total = record["total_len"]
    if ledger is not None and total != ledger.total_len:
        flag("token-conservation", record["seq"],
             f"request {request} finished with total_len {total} != "
             f"admitted budget {ledger.total_len}")
    if record["context_capped"]:
        if produced > total:
            flag("token-conservation", record["seq"],
                 f"request {request} produced {produced} tokens over "
                 f"its budget {total}")
    elif produced != total:
        flag("token-conservation", record["seq"],
             f"request {request} produced {produced} tokens, "
             f"budget was {total}")


def _check_sample(record: Dict[str, Any], running: Dict[str, int],
                  serving: Dict[str, int], queued: Dict[str, Set[str]],
                  resident: Dict[Tuple[str, str], int],
                  has_queue_events: bool, has_spans: bool, flag) -> None:
    """Replayable gauges must match the value re-derived from events."""
    metric = record["metric"]
    scope = record["scope"]
    if metric == "num_running_reqs":
        expected = running.get(scope, 0)
    elif metric == "num_serving_replicas":
        expected = serving.get(scope, 0)
    elif metric == "num_queue_reqs":
        if not has_queue_events:
            return
        expected = len(queued.get(scope, ()))
    elif metric == "token_usage":
        # Reconstructible only from spans: decode growth is invisible
        # in the event stream alone.
        if not has_spans:
            return
        expected = sum(
            tokens for (s, _), tokens in resident.items() if s == scope
        )
    else:
        return
    if record["value"] != float(expected):
        flag("gauge-reconstruction", record["seq"],
             f"{metric}[{scope}] sampled {record['value']} but the "
             f"event stream reconstructs {expected}")


def _check_spans(spans: List[Dict[str, Any]], flag) -> None:
    """Span well-formedness: direction, nesting, exclusivity, accounting.

    Runs as a post-pass because containment needs the full span set of
    each request (the root ``request`` span is emitted last, at
    finish).
    """
    by_id: Dict[int, Dict[str, Any]] = {}
    groups: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
    for record in spans:
        by_id[record["span"]] = record
        groups.setdefault(
            (record["scope"], record["request"]), []
        ).append(record)
        if record["start"] > record["end"]:
            flag("span-wellformed", record["seq"],
                 f"{record['phase']} span {record['span']} starts at "
                 f"{record['start']}, after its end {record['end']}")

    for record in spans:
        parent_id = record.get("parent")
        if parent_id is None:
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            flag("span-wellformed", record["seq"],
                 f"span {record['span']} references parent {parent_id} "
                 f"which is not in the trace")
        elif (record["start"] < parent["start"]
              or record["end"] > parent["end"]):
            flag("span-nesting", record["seq"],
                 f"{record['phase']} span [{record['start']}, "
                 f"{record['end']}] escapes its parent "
                 f"{parent['phase']} span [{parent['start']}, "
                 f"{parent['end']}]")

    for (scope, request), group in sorted(groups.items()):
        roots = [r for r in group if r["phase"] == PHASE_REQUEST]
        if len(roots) > 1:
            flag("span-wellformed", roots[1]["seq"],
                 f"request {request} has {len(roots)} root spans")
        root = roots[0] if roots else None
        phases = sorted(
            (r for r in group if r["phase"] in EXCLUSIVE_PHASES),
            key=lambda r: (r["start"], r["end"], r["seq"]),
        )

        if root is not None:
            for record in phases:
                if (record["start"] < root["start"]
                        or record["end"] > root["end"]):
                    flag("span-nesting", record["seq"],
                         f"{record['phase']} span [{record['start']}, "
                         f"{record['end']}] of request {request} escapes "
                         f"its root span [{root['start']}, "
                         f"{root['end']}]")
            # Top-level phase durations can never exceed the request's
            # end-to-end window (gaps — batch waits — are legal; excess
            # is not).
            total = math.fsum(
                r["end"] - r["start"]
                for r in phases
                if r.get("parent") is None
            )
            e2e = root["end"] - root["start"]
            if total > e2e + _SPAN_TOL * max(1.0, abs(e2e)):
                flag("span-accounting", root["seq"],
                     f"request {request} phase durations sum to {total}, "
                     f"exceeding its end-to-end window {e2e}")

        # Sweep for positive-measure overlap between exclusive phases.
        # Only parent-linked pairs (a drain's KV transfer inside its
        # re-route span) may nest.
        open_spans: List[Dict[str, Any]] = []
        for record in phases:
            open_spans = [
                s for s in open_spans if s["end"] > record["start"]
            ]
            for other in open_spans:
                if min(other["end"], record["end"]) <= record["start"]:
                    continue
                linked = (record.get("parent") == other["span"]
                          or other.get("parent") == record["span"])
                if not linked:
                    flag("span-overlap", record["seq"],
                         f"{record['phase']} span [{record['start']}, "
                         f"{record['end']}] of request {request} "
                         f"overlaps {other['phase']} span "
                         f"[{other['start']}, {other['end']}]")
                    break
            open_spans.append(record)


def check_jsonl(path: str) -> List[TraceViolation]:
    """Run :func:`check_trace` over a JSONL trace file."""
    records: List[Dict[str, Any]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return check_trace(records)


def assert_clean(records: Iterable[Dict[str, Any]]) -> None:
    """Raise ``AssertionError`` listing every violation, if any."""
    violations = check_trace(records)
    if violations:
        listing = "\n".join(f"  {violation}" for violation in violations)
        raise AssertionError(
            f"{len(violations)} trace invariant violation(s):\n{listing}"
        )
