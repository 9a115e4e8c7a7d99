"""The trace checker: synthetic violations and the catalogue gate.

Two layers:

* Synthetic unit tests — hand-built record lists that break exactly one
  invariant each, proving the checker actually detects what it claims
  to (a checker that passes everything proves nothing).
* The catalogue sweep — every experiment in the CLI catalogue runs at
  reduced scale with telemetry *and spans* enabled and its merged trace
  must replay with zero violations, with every attributed request's
  phase buckets closing to its measured wall time. This is the
  standing pytest/CI gate: any change that breaks KV conservation,
  replica lifecycles, request clocks, gauge/event consistency, span
  shape or attribution closure fails here before it ships. Experiments
  that never construct an engine (pure cost-model tables) produce
  empty traces that trivially pass; they stay in the sweep so the
  coverage assertion over the catalogue keys holds as the catalogue
  grows.
"""

import math

import pytest

from repro.__main__ import EXPERIMENTS
from repro.experiments import (
    ext_autoscale,
    ext_chunked_prefill,
    ext_cluster_router,
    ext_kv_tiering,
    ext_large_models,
    ext_prefix_cache,
    ext_prefix_sharing,
    ext_sched_policy,
    ext_swap_policy,
    ext_uvm_limitations,
    fig02_prefill_kernel_overhead,
    fig03_block_size_sensitivity,
    fig04_alloc_bandwidth_demand,
    fig07_prefill_throughput,
    fig08_decode_throughput,
    fig09_offline_throughput,
    fig10_online_latency,
    fig11_fa3_portability,
    fig12_overlap_ablation,
    fig13_deferred_reclamation,
    fig14_page_size_effect,
    fig15_max_batch_size,
    tab03_vmm_latency,
    tab06_prefill_times,
    tab07_decode_kernel_latency,
    tab08_block_sizes,
    tab09_alloc_bandwidth,
    tab10_tensor_slicing,
)
from repro.metrics import attribution
from repro.metrics.telemetry import TelemetryRegistry, enabled
from repro.metrics.tracecheck import (
    TraceViolation,
    assert_clean,
    check_jsonl,
    check_trace,
)
from repro.models.zoo import YI_6B
from repro.units import MB


# ----------------------------------------------------------------------
# Synthetic traces: each breaks exactly one invariant
# ----------------------------------------------------------------------
def _admit(seq, request="a", time=1.0, arrival=0.0, total_len=20,
           scope="r0"):
    return {
        "seq": seq, "time": time, "event": "request_admitted",
        "scope": scope, "request": request, "arrival": arrival,
        "prompt_len": 12, "total_len": total_len,
    }


def _finish(seq, request="a", arrival=0.0, admitted=1.0, first=2.0,
            finish=5.0, prompt_len=12, generated=8, total_len=20,
            capped=False, scope="r0"):
    return {
        "seq": seq, "time": finish, "event": "request_finished",
        "scope": scope, "request": request, "arrival": arrival,
        "admitted": admitted, "first_token": first, "finish": finish,
        "prompt_len": prompt_len, "generated": generated,
        "total_len": total_len, "context_capped": capped,
    }


def _invariants(records):
    return {violation.invariant for violation in check_trace(records)}


class TestSyntheticViolations:
    def test_clean_lifecycle(self):
        assert check_trace([_admit(0), _finish(1)]) == []

    def test_out_of_order_input_is_sorted(self):
        assert check_trace([_finish(1), _admit(0)]) == []

    def test_admitted_before_arrival(self):
        assert _invariants(
            [_admit(0, time=0.5, arrival=1.0)]
        ) == {"monotone-clock"}

    def test_finish_before_first_token(self):
        assert _invariants(
            [_admit(0), _finish(1, first=6.0, finish=5.0)]
        ) == {"monotone-clock"}

    def test_first_token_before_arrival(self):
        assert _invariants(
            [_admit(0, arrival=3.0),
             _finish(1, arrival=3.0, admitted=3.0, first=2.0)]
        ) == {"monotone-clock"}

    def test_token_budget_must_close(self):
        assert _invariants(
            [_admit(0), _finish(1, generated=7)]  # 12 + 7 != 20
        ) == {"token-conservation"}

    def test_context_cap_allows_undershoot_only(self):
        assert check_trace(
            [_admit(0), _finish(1, generated=7, capped=True)]
        ) == []
        assert _invariants(
            [_admit(0), _finish(1, generated=9, capped=True)]  # over budget
        ) == {"token-conservation"}

    def test_readmission_must_keep_total_len(self):
        records = [
            _admit(0),
            {"seq": 1, "time": 2.0, "event": "request_preempted",
             "scope": "r0", "request": "a"},
            _admit(2, time=3.0, total_len=24),
        ]
        assert _invariants(records) == {"token-conservation"}

    def test_double_admit_flagged(self):
        assert _invariants(
            [_admit(0), _admit(1, time=2.0)]
        ) == {"request-lifecycle"}

    def test_finish_without_admit(self):
        assert _invariants([_finish(0)]) == {"request-lifecycle"}

    def test_double_finish(self):
        assert _invariants(
            [_admit(0), _finish(1), _admit(2, time=6.0),
             _finish(3, first=6.5, finish=7.0)]
        ) == {"request-lifecycle"}

    def test_preempt_while_not_running(self):
        assert _invariants(
            [{"seq": 0, "time": 1.0, "event": "request_preempted",
              "scope": "r0", "request": "a"}]
        ) == {"request-lifecycle"}

    def test_same_request_id_in_other_scope_is_distinct(self):
        # Request ids repeat across sweep cells; scopes partition them.
        records = [
            _admit(0), _finish(1),
            _admit(2, scope="r1"), _finish(3, scope="r1"),
        ]
        assert check_trace(records) == []

    # -- replica lifecycle / routing ----------------------------------
    def _replica(self, seq, action, replica=0, n_serving=0, cluster="c0"):
        return {
            "seq": seq, "time": float(seq), "event": "replica_state",
            "cluster": cluster, "replica": replica, "action": action,
            "n_serving": n_serving, "reason": "",
        }

    def _init(self, seq, replica=0, state="serving", cluster="c0"):
        return {
            "seq": seq, "time": 0.0, "event": "replica_init",
            "cluster": cluster, "replica": replica, "role": "unified",
            "state": state,
        }

    def test_replica_full_lifecycle_clean(self):
        records = [
            self._replica(0, "provisioning"),
            self._replica(1, "warming"),
            self._replica(2, "serving", n_serving=1),
            self._replica(3, "draining"),
            self._replica(4, "retired"),
        ]
        assert check_trace(records) == []

    def test_replica_cannot_skip_warming(self):
        records = [
            self._replica(0, "provisioning"),
            self._replica(1, "serving", n_serving=1),
        ]
        assert _invariants(records) == {"replica-lifecycle"}

    def test_replica_must_start_provisioning(self):
        assert _invariants(
            [self._replica(0, "serving", n_serving=1)]
        ) == {"replica-lifecycle"}

    def test_replica_state_n_serving_checked(self):
        records = [
            self._init(0),
            self._replica(1, "draining", n_serving=1),  # replay says 0
        ]
        assert _invariants(records) == {"gauge-reconstruction"}

    def test_routing_to_draining_replica_flagged(self):
        route = {
            "seq": 2, "time": 2.0, "event": "request_routed",
            "cluster": "c0", "replica": 0, "request": "a",
            "prompt_len": 12, "max_new_tokens": 8, "rerouted": False,
        }
        assert check_trace([self._init(0), dict(route, seq=1)]) == []
        assert _invariants(
            [self._init(0), self._replica(1, "draining"), route]
        ) == {"serving-only-routing"}

    def test_routing_to_unknown_replica_flagged(self):
        route = {
            "seq": 0, "time": 0.0, "event": "request_routed",
            "cluster": "c0", "replica": 9, "request": "a",
            "prompt_len": 12, "max_new_tokens": 8, "rerouted": False,
        }
        assert _invariants([route]) == {"serving-only-routing"}

    # -- KV conservation ----------------------------------------------
    def _start(self, seq, transfer=0, nbytes=1024, start=1.0, done=2.0):
        return {
            "seq": seq, "time": 0.5, "event": "migration_start",
            "cluster": "c0", "transfer": transfer, "request": "a",
            "kind": "disagg", "bytes": nbytes, "start": start,
            "done": done,
        }

    def _land(self, seq, transfer=0, nbytes=1024, time=2.0):
        return {
            "seq": seq, "time": time, "event": "migration_land",
            "cluster": "c0", "transfer": transfer, "request": "a",
            "replica": 1, "bytes": nbytes,
        }

    def test_paired_transfer_clean(self):
        assert check_trace([self._start(0), self._land(1)]) == []

    def test_unlanded_transfer_flagged(self):
        assert _invariants([self._start(0)]) == {"kv-conservation"}

    def test_land_without_start_flagged(self):
        assert _invariants([self._land(0)]) == {"kv-conservation"}

    def test_byte_mismatch_flagged(self):
        assert _invariants(
            [self._start(0), self._land(1, nbytes=512)]
        ) == {"kv-conservation"}

    def test_land_time_must_match_link_arrival(self):
        assert _invariants(
            [self._start(0), self._land(1, time=2.5)]
        ) == {"kv-conservation"}

    def test_double_start_flagged(self):
        assert _invariants(
            [self._start(0), self._start(1), self._land(2)]
        ) == {"kv-conservation"}

    # -- link FIFO ----------------------------------------------------
    def _link_pair(self, first_requested, second_requested):
        # Two transfers back to back on the link: the second starts
        # when the first is done.
        first = dict(self._start(0, transfer=0), time=first_requested)
        second = dict(
            self._start(1, transfer=1, start=2.0, done=3.0),
            time=second_requested,
        )
        return [first, second, self._land(2), self._land(3, 1, time=3.0)]

    def test_out_of_order_transfer_flagged(self):
        assert check_trace(self._link_pair(0.5, 0.8)) == []
        # The later-requested transfer took the link first: a sweep
        # harvested it before an earlier completion of another replica.
        assert _invariants(self._link_pair(0.8, 0.5)) == {"link-fifo"}

    def test_overlapping_transfers_flagged(self):
        records = self._link_pair(0.5, 0.8)
        records[1] = dict(records[1], start=1.5, done=2.5)
        records[3] = dict(records[3], time=2.5)
        assert _invariants(records) == {"link-fifo"}

    # -- gauge reconstruction -----------------------------------------
    def _sample(self, seq, metric, value, scope="r0"):
        return {
            "seq": seq, "time": float(seq), "event": "sample",
            "metric": metric, "scope": scope, "value": value,
        }

    def test_running_gauge_must_match_events(self):
        records = [
            _admit(0),
            self._sample(1, "num_running_reqs", 1.0),
            _finish(2),
            self._sample(6, "num_running_reqs", 0.0),
        ]
        assert check_trace(records) == []
        records[3] = self._sample(6, "num_running_reqs", 1.0)
        assert _invariants(records) == {"gauge-reconstruction"}

    def test_serving_gauge_must_match_events(self):
        records = [
            self._init(0, cluster="c0"),
            self._sample(1, "num_serving_replicas", 2.0, scope="c0"),
        ]
        assert _invariants(records) == {"gauge-reconstruction"}

    def test_unreplayable_gauges_ignored(self):
        assert check_trace(
            [self._sample(0, "gen_throughput", 123.4)]
        ) == []

    # -- queue-depth reconstruction -----------------------------------
    def _queued(self, seq, request="a", scope="r0"):
        return {
            "seq": seq, "time": float(seq), "event": "request_queued",
            "scope": scope, "request": request, "arrival": float(seq),
        }

    def _withdrawn(self, seq, request="a", scope="r0"):
        return {
            "seq": seq, "time": float(seq), "event": "request_withdrawn",
            "scope": scope, "request": request,
        }

    def test_queue_gauge_must_match_events(self):
        records = [
            self._queued(0),
            self._sample(1, "num_queue_reqs", 1.0),
            _admit(2, time=2.0),
            self._sample(3, "num_queue_reqs", 0.0),
        ]
        assert check_trace(records) == []
        records[3] = self._sample(3, "num_queue_reqs", 1.0)
        assert _invariants(records) == {"gauge-reconstruction"}

    def test_queue_gauge_skipped_without_queue_events(self):
        # Older traces never emitted request_queued; their samples
        # cannot be reconstructed and must not be flagged.
        assert check_trace(
            [self._sample(0, "num_queue_reqs", 5.0)]
        ) == []

    def test_preempted_victim_rejoins_queue(self):
        records = [
            self._queued(0),
            _admit(1, time=1.0),
            {"seq": 2, "time": 2.0, "event": "request_preempted",
             "scope": "r0", "request": "a"},
            self._sample(3, "num_queue_reqs", 1.0),
        ]
        assert check_trace(records) == []

    def test_double_queue_flagged(self):
        assert _invariants(
            [self._queued(0), self._queued(1)]
        ) == {"queue-ledger"}

    def test_withdraw_of_never_queued_flagged(self):
        assert _invariants([self._withdrawn(0)]) == {"queue-ledger"}

    def test_withdrawn_request_leaves_queue(self):
        records = [
            self._queued(0),
            self._withdrawn(1),
            self._sample(2, "num_queue_reqs", 0.0),
        ]
        assert check_trace(records) == []

    # -- token-usage reconstruction -----------------------------------
    def _span(self, seq, span_id, phase, start, end, parent=None,
              scope="r0", request="a", **extras):
        record = {
            "seq": seq, "time": end, "event": "span", "span": span_id,
            "phase": phase, "scope": scope, "request": request,
            "start": start, "end": end, **extras,
        }
        if parent is not None:
            record["parent"] = parent
        return record

    def test_token_usage_gauge_must_match_spans(self):
        records = [
            dict(_admit(0), tokens_reserved=12),
            self._span(1, 0, "prefill", 1.0, 2.0, chunk=12, produced=1),
            self._sample(2, "token_usage", 13.0),
            self._span(3, 1, "decode", 2.0, 3.0, produced=1),
            self._sample(4, "token_usage", 14.0),
        ]
        assert check_trace(records) == []
        records[4] = self._sample(4, "token_usage", 13.0)
        assert _invariants(records) == {"gauge-reconstruction"}

    def test_token_usage_skipped_without_spans(self):
        # Decode growth is invisible without spans: the checker must
        # not guess.
        assert check_trace(
            [dict(_admit(0), tokens_reserved=12),
             self._sample(1, "token_usage", 99.0)]
        ) == []

    def test_preempt_must_free_ledger_tokens(self):
        def trace(freed):
            return [
                dict(_admit(0), tokens_reserved=12),
                self._span(1, 0, "decode", 1.0, 2.0, produced=3),
                {"seq": 2, "time": 2.0, "event": "request_preempted",
                 "scope": "r0", "request": "a", "tokens_freed": freed},
            ]

        assert check_trace(trace(15)) == []
        assert _invariants(trace(14)) == {"token-conservation"}

    # -- span well-formedness -----------------------------------------
    def _root(self, seq, span_id=99, start=0.0, end=10.0, request="a",
              scope="r0", **extras):
        return self._span(seq, span_id, "request", start, end,
                          scope=scope, request=request, **extras)

    def test_clean_span_tree(self):
        records = [
            self._span(0, 0, "queue_wait", 0.0, 1.0),
            self._span(1, 1, "prefill", 1.0, 3.0, produced=1),
            self._span(2, 2, "decode", 3.0, 6.0, iterations=3),
            self._span(3, 3, "decode", 6.0, 10.0, iterations=4),
            self._root(4),
        ]
        assert check_trace(records) == []

    def test_backwards_span_flagged(self):
        assert _invariants(
            [self._span(0, 0, "decode", 2.0, 1.0)]
        ) == {"span-wellformed"}

    def test_span_escaping_root_flagged(self):
        records = [
            self._span(0, 0, "decode", 5.0, 12.0),
            self._root(1),
        ]
        assert _invariants(records) == {"span-nesting"}

    def test_exclusive_overlap_flagged(self):
        records = [
            self._span(0, 0, "prefill", 1.0, 3.0),
            self._span(1, 1, "decode", 2.0, 4.0),
        ]
        assert "span-overlap" in _invariants(records)

    def test_touching_spans_do_not_overlap(self):
        records = [
            self._span(0, 0, "prefill", 1.0, 3.0),
            self._span(1, 1, "decode", 3.0, 4.0),
        ]
        assert check_trace(records) == []

    def test_parent_linked_nesting_allowed(self):
        records = [
            self._span(0, 0, "drain_reroute", 1.0, 5.0),
            self._span(1, 1, "kv_migration", 2.0, 4.0, parent=0),
        ]
        assert check_trace(records) == []

    def test_child_escaping_parent_flagged(self):
        records = [
            self._span(0, 0, "drain_reroute", 1.0, 5.0),
            self._span(1, 1, "kv_migration", 2.0, 6.0, parent=0),
        ]
        assert "span-nesting" in _invariants(records)

    def test_unknown_parent_flagged(self):
        assert _invariants(
            [self._span(0, 1, "kv_migration", 2.0, 4.0, parent=7)]
        ) == {"span-wellformed"}

    def test_double_root_flagged(self):
        assert _invariants(
            [self._root(0, span_id=0), self._root(1, span_id=1)]
        ) == {"span-wellformed"}

    def test_phase_durations_cannot_exceed_e2e(self):
        # Overlapping phases necessarily overshoot the wall time, so
        # both the overlap and the accounting invariant fire.
        records = [
            self._span(0, 0, "queue_wait", 0.0, 6.0),
            self._span(1, 1, "decode", 4.0, 10.0),
            self._root(2),
        ]
        assert "span-accounting" in _invariants(records)

    # -- stream-clock monotonicity ------------------------------------
    def _queued_at(self, seq, time, request, scope="r0"):
        return {
            "seq": seq, "time": time, "event": "request_queued",
            "scope": scope, "request": request, "arrival": time,
        }

    def test_stream_clock_backwards_flagged(self):
        # The failure mode a joint-horizon bug produces: a component
        # swept forward, then dispatched an event in its own past.
        assert _invariants(
            [self._queued_at(0, 5.0, "a"), self._queued_at(1, 4.0, "b")]
        ) == {"stream-clock"}

    def test_stream_clock_is_per_stream(self):
        # Replica clocks legitimately interleave on the global axis.
        records = [
            self._queued_at(0, 5.0, "a", scope="r0"),
            self._queued_at(1, 3.0, "a", scope="r1"),
            self._queued_at(2, 6.0, "b", scope="r0"),
        ]
        assert check_trace(records) == []

    def test_span_end_behind_stream_clock_exempt(self):
        # A span is stamped at its end, which may precede records the
        # stream already emitted (overlapped work closed late).
        records = [
            _admit(0, time=5.0, arrival=0.0),
            self._span(1, 0, "prefill", 1.0, 2.0),
        ]
        assert check_trace(records) == []

    def test_migration_records_behind_stream_clock_exempt(self):
        # Migration records carry the serialized link's schedule
        # (pinned by kv-conservation and link-fifo) but are emitted
        # when a later pass starts or lands the transfer: here the
        # stream reaches 3.0 by routing, then a start requested at 1.0
        # and its landing at 2.0 surface behind it.
        records = [
            self._queued_at(0, 3.0, "a", scope="c0"),
            {"seq": 1, "time": 1.0, "event": "migration_start",
             "cluster": "c0", "transfer": 0, "bytes": 64,
             "start": 1.0, "done": 2.0},
            {"seq": 2, "time": 2.0, "event": "migration_land",
             "cluster": "c0", "transfer": 0, "bytes": 64},
        ]
        assert check_trace(records) == []

    def test_link_gauge_behind_stream_clock_exempt(self):
        # migration_link_* gauges are stamped at link-schedule
        # instants alongside the migration records they accompany;
        # other gauges in the same stream still advance the clock.
        records = [
            self._queued_at(0, 5.0, "a", scope="c0"),
            {"seq": 1, "time": 4.0, "event": "sample", "scope": "c0",
             "metric": "migration_link_backlog_seconds", "value": 0.5},
        ]
        assert check_trace(records) == []
        records = [
            self._queued_at(0, 5.0, "a", scope="c0"),
            {"seq": 1, "time": 4.0, "event": "sample", "scope": "c0",
             "metric": "num_queue_reqs", "value": 1.0},
        ]
        assert _invariants(records) == {"stream-clock"}


class TestCheckerApi:
    def test_violation_str(self):
        violation = TraceViolation("monotone-clock", "went backwards", 7)
        assert str(violation) == "[monotone-clock] seq=7: went backwards"

    def test_violations_sorted_by_seq(self):
        records = [_finish(5), _finish(2)]
        violations = check_trace(records)
        assert [v.seq for v in violations] == sorted(v.seq for v in violations)

    def test_assert_clean_raises_with_listing(self):
        with pytest.raises(AssertionError, match="request-lifecycle"):
            assert_clean([_finish(0)])
        assert_clean([_admit(0), _finish(1)])  # no raise

    def test_check_jsonl(self, tmp_path):
        import json

        path = tmp_path / "trace.jsonl"
        with open(path, "w") as handle:
            for record in (_admit(0), _finish(1, generated=1)):
                handle.write(json.dumps(record) + "\n")
        violations = check_jsonl(str(path))
        assert [v.invariant for v in violations] == ["token-conservation"]


# ----------------------------------------------------------------------
# The catalogue gate
# ----------------------------------------------------------------------
#: Every catalogue entry at reduced scale (mirrors the fast-forward
#: sweep's reductions). Keys must cover ``EXPERIMENTS`` — the coverage
#: test below fails when a new experiment lands without a trace gate.
TRACE_SWEEP = {
    "fig02": lambda: fig02_prefill_kernel_overhead.run(),
    "fig03": lambda: fig03_block_size_sensitivity.run(),
    "fig04": lambda: fig04_alloc_bandwidth_demand.run(),
    "fig07": lambda: fig07_prefill_throughput.run(),
    "fig08": lambda: fig08_decode_throughput.run(
        models=[(YI_6B, 1)], batches=(1, 16), decode_iterations=60
    ),
    "fig09": lambda: fig09_offline_throughput.run(
        models=[(YI_6B, 1)], request_count=12
    ),
    "fig10": lambda: fig10_online_latency.run(
        grid=[(YI_6B, (2.0,))],
        systems=("FA2_Paged", "FA2_vAttention"),
        request_count=40,
    ),
    "fig11": lambda: fig11_fa3_portability.run(
        models=[(YI_6B, 1)], request_count=10
    ),
    "fig12": lambda: fig12_overlap_ablation.run(decode_iterations=80),
    "fig13": lambda: fig13_deferred_reclamation.run(),
    "fig14": lambda: fig14_page_size_effect.run(),
    "fig15": lambda: fig15_max_batch_size.run(
        models=[(YI_6B, 1)], page_group_sizes=(2 * MB,), request_count=24
    ),
    "tab03": lambda: tab03_vmm_latency.run(),
    "tab06": lambda: tab06_prefill_times.run(),
    "tab07": lambda: tab07_decode_kernel_latency.run(),
    "tab08": lambda: tab08_block_sizes.run(),
    "tab09": lambda: tab09_alloc_bandwidth.run(),
    "tab10": lambda: tab10_tensor_slicing.run(),
    "ext-sharing": lambda: ext_prefix_sharing.run(),
    "ext-prefix-cache": lambda: ext_prefix_cache.run(sharing_factors=(4,)),
    "ext-sched-policy": lambda: ext_sched_policy.run(count=40, qps=6.0),
    "ext-swap": lambda: ext_swap_policy.run(prompts=(8_192,)),
    # Exercises tier_transfer out/in pairing (tier-conservation).
    "ext-kv-tiering": lambda: ext_kv_tiering.run(prompts=(8_192,)),
    "ext-uvm": lambda: ext_uvm_limitations.run(request_count=60, qps=6.0),
    "ext-chunked": lambda: ext_chunked_prefill.run(),
    "ext-large-models": lambda: ext_large_models.run(),
    "ext-cluster-router": lambda: (
        ext_cluster_router.run(
            replica_counts=(2,),
            policies=("round_robin", "cache_aware"),
            sharing_factors=(4,),
            count=24,
            qps=8.0,
        ),
        # The disaggregated leg exercises migration start/land pairing.
        ext_cluster_router.run_disaggregated(
            interconnects=("nvlink",), count=24, qps=8.0
        ),
    ),
    # Elastic fleets exercise the full replica lifecycle (provision ->
    # warm -> serve -> drain -> retire) and drain re-routing.
    "ext-autoscale": lambda: ext_autoscale.run(
        fleets=("sla", "queue_depth"), count=96, qps=4.0
    ),
}

#: Entries that drive a serving engine or cluster: their traces must be
#: non-trivial (the gate would otherwise pass vacuously).
ENGINE_DRIVEN = {
    "fig08", "fig09", "fig10", "fig11", "fig12", "fig15",
    "ext-prefix-cache", "ext-sched-policy", "ext-swap", "ext-kv-tiering",
    "ext-uvm", "ext-chunked", "ext-cluster-router", "ext-autoscale",
}


class TestCatalogueGate:
    def test_covers_catalogue(self):
        assert set(TRACE_SWEEP) >= set(EXPERIMENTS), (
            "new catalogue entries need a TRACE_SWEEP gate: "
            f"{sorted(set(EXPERIMENTS) - set(TRACE_SWEEP))}"
        )

    @pytest.mark.parametrize("name", sorted(TRACE_SWEEP))
    def test_trace_invariants_hold(self, name):
        with enabled(TelemetryRegistry(record_spans=True)) as registry:
            TRACE_SWEEP[name]()
        records = registry.trace_records()
        if name in ENGINE_DRIVEN:
            assert any(
                record["event"] == "request_finished" for record in records
            ), "engine-driven experiment produced no lifecycle events"
        assert_clean(records)
        # Attribution closure: every attributed request's phase buckets
        # must sum to its measured wall time (and, clipped at the first
        # token, to its TTFT).
        report = attribution.build(records)
        if name in ENGINE_DRIVEN:
            assert report.requests, "spans-on run attributed no requests"
        assert report.closure_violations() == []
        for row in report.requests:
            if row.ttft_buckets is None:
                continue
            ttft_sum = math.fsum(row.ttft_buckets.values())
            assert math.isclose(
                ttft_sum, row.ttft, rel_tol=1e-9, abs_tol=1e-9
            ), f"{row.request}: ttft buckets {ttft_sum} != {row.ttft}"


# ----------------------------------------------------------------------
# The cluster fast-loop gate
# ----------------------------------------------------------------------
class TestClusterFastLoopGate:
    """The joint-horizon fleet loop replays clean with spans on.

    The catalogue gate runs the cluster drivers under the module
    default; this class pins the fast loop explicitly: an elastic
    fleet runs with ``fast_forward`` forced on, its merged trace
    replays with zero violations (including the stream-clock
    invariant the analytic jumps would break first), the replayable
    gauges are actually present — so gauge reconstruction is exercised
    rather than vacuously skipped — and attribution closes.
    """

    @pytest.fixture(scope="class")
    def records(self):
        import repro.serving.engine as engine_module

        previous = engine_module.DEFAULT_FAST_FORWARD
        engine_module.DEFAULT_FAST_FORWARD = True
        try:
            with enabled(TelemetryRegistry(record_spans=True)) as registry:
                ext_autoscale.serve("queue_depth", count=96, qps=4.0)
            return registry.trace_records()
        finally:
            engine_module.DEFAULT_FAST_FORWARD = previous

    def test_replays_clean(self, records):
        assert_clean(records)

    def test_fast_loop_engaged(self, records):
        # Stretch spans must actually collapse iterations — a gate
        # over a run the fast path never touched proves nothing.
        decode_spans = [
            record for record in records
            if record["event"] == "span" and record["phase"] == "decode"
        ]
        assert decode_spans
        assert any(
            record.get("iterations", 1) > 1 for record in decode_spans
        )

    def test_replayable_gauges_sampled(self, records):
        sampled = {
            record["metric"] for record in records
            if record["event"] == "sample"
        }
        assert {
            "num_running_reqs", "num_queue_reqs", "token_usage",
        } <= sampled
        assert any(
            record["event"] == "request_queued" for record in records
        ), "queue reconstruction would be skipped without queue events"

    def test_attribution_closes(self, records):
        report = attribution.build(records)
        assert report.requests
        assert report.closure_violations() == []


# ----------------------------------------------------------------------
# The migration-link gate
# ----------------------------------------------------------------------
class TestDisaggLinkGate:
    """The catalogue-scale disaggregated cells replay clean.

    Their KV transfers contend for the serialized link, so a link that
    served a later-requested transfer first (``link-fifo``) shows here;
    the reduced-scale catalogue gate above queues too little to tell.
    """

    @pytest.mark.parametrize("interconnect", ["nvlink", "pcie"])
    def test_link_serves_in_request_order(self, interconnect):
        with enabled(TelemetryRegistry(record_spans=True)) as registry:
            ext_cluster_router.run_disaggregated(
                interconnects=(interconnect,)
            )
        records = registry.trace_records()
        starts = [
            record for record in records
            if record["event"] == "migration_start"
        ]
        assert len(starts) == ext_cluster_router.REQUESTS
        assert any(record["start"] > record["time"] for record in starts), (
            "no transfer queued for the link: the gate is vacuous"
        )
        assert_clean(records)
