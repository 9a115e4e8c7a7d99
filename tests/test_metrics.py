"""Statistics helpers and the metrics collector."""

import json
import random

import pytest

from repro.errors import ConfigError
from repro.metrics.collector import (
    IterationRecord,
    MetricsCollector,
    RunReport,
    none_on_empty,
)
from repro.metrics.rolling import RollingPercentileTracker
from repro.metrics.stats import (
    cdf_at,
    cdf_points,
    geomean,
    mean,
    median,
    percentile,
    ratio,
)
from repro.serving.request import Request, RequestState


class TestStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_rejected(self):
        with pytest.raises(ValueError):
            mean([])

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geomean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_percentile_interpolates(self):
        values = [0.0, 10.0]
        assert percentile(values, 50) == 5.0
        assert percentile(values, 0) == 0.0
        assert percentile(values, 100) == 10.0

    def test_percentile_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_percentile_bounds(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_median(self):
        assert median([3.0, 1.0, 2.0]) == 2.0

    def test_cdf_points_monotone(self):
        points = cdf_points([3.0, 1.0, 2.0])
        values = [v for v, _ in points]
        fractions = [f for _, f in points]
        assert values == sorted(values)
        assert fractions[-1] == 1.0
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))

    def test_cdf_at(self):
        assert cdf_at([1.0, 2.0, 3.0, 4.0], 2.5) == 0.5

    def test_ratio_guard(self):
        assert ratio(4.0, 2.0) == 2.0
        with pytest.raises(ValueError):
            ratio(1.0, 0.0)


class TestPercentileEdgeCases:
    def test_single_element_every_q(self):
        for q in (0.0, 37.5, 50.0, 99.0, 100.0):
            assert percentile([42.0], q) == 42.0

    def test_q_zero_and_hundred_are_extremes(self):
        values = [9.0, -3.0, 4.0, 17.0]
        assert percentile(values, 0.0) == -3.0
        assert percentile(values, 100.0) == 17.0

    def test_unsorted_input_sorted_internally(self):
        shuffled = [30.0, 10.0, 20.0]
        assert percentile(shuffled, 50.0) == 20.0
        # The input list must not be reordered in place.
        assert shuffled == [30.0, 10.0, 20.0]

    def test_exact_rank_needs_no_interpolation(self):
        # Five elements: q=25 lands exactly on index 1.
        assert percentile([5.0, 1.0, 2.0, 3.0, 4.0], 25.0) == 2.0

    def test_interpolates_between_ranks(self):
        assert percentile([0.0, 10.0], 75.0) == pytest.approx(7.5)

    def test_empty_and_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)
        with pytest.raises(ValueError):
            percentile([1.0], 100.1)


def record(phase: str, latency: float, batch: int = 4, tokens: int = 4,
           alloc: float = 0.0, start: float = 0.0) -> IterationRecord:
    return IterationRecord(
        start_time=start, phase=phase, batch_size=batch,
        latency=latency, alloc_sync=alloc, tokens=tokens,
    )


class TestCollector:
    def test_phase_filter(self):
        collector = MetricsCollector()
        collector.record(record("prefill", 1.0))
        collector.record(record("decode", 0.01))
        assert len(collector.of_phase("decode")) == 1

    def test_decode_throughput(self):
        collector = MetricsCollector()
        collector.record(record("decode", 0.01, tokens=4))
        collector.record(record("decode", 0.01, tokens=4))
        assert collector.decode_throughput() == pytest.approx(400.0)

    def test_prefill_throughput(self):
        collector = MetricsCollector()
        collector.record(record("prefill", 2.0, tokens=16_384))
        assert collector.prefill_throughput() == pytest.approx(8192.0)

    def test_empty_throughput_rejected(self):
        with pytest.raises(ValueError):
            MetricsCollector().decode_throughput()


class TestRunReport:
    def _finished_request(self, rid: str, arrival: float, finish: float) -> Request:
        request = Request(request_id=rid, prompt_len=10, max_new_tokens=1,
                          arrival_time=arrival)
        request.state = RequestState.RUNNING
        request.record_prefill(now=finish)
        request.finish(now=finish)
        return request

    def test_requests_per_minute(self):
        requests = [
            self._finished_request("a", 0.0, 30.0),
            self._finished_request("b", 0.0, 60.0),
        ]
        report = RunReport(
            requests=requests, metrics=MetricsCollector(),
            start_time=0.0, end_time=60.0,
        )
        assert report.requests_per_minute() == pytest.approx(2.0)

    def test_latency_percentiles(self):
        requests = [
            self._finished_request("a", 0.0, 10.0),
            self._finished_request("b", 0.0, 20.0),
        ]
        report = RunReport(
            requests=requests, metrics=MetricsCollector(),
            start_time=0.0, end_time=20.0,
        )
        assert report.median_latency() == pytest.approx(15.0)
        assert report.p99_latency() <= 20.0

    def test_unfinished_requests_excluded(self):
        unfinished = Request(request_id="x", prompt_len=10, max_new_tokens=5)
        report = RunReport(
            requests=[unfinished, self._finished_request("a", 0.0, 5.0)],
            metrics=MetricsCollector(), start_time=0.0, end_time=10.0,
        )
        assert len(report.finished_requests) == 1

    def test_ttft_percentiles(self):
        requests = [
            self._finished_request("a", 0.0, 4.0),
            self._finished_request("b", 2.0, 10.0),
        ]
        report = RunReport(
            requests=requests, metrics=MetricsCollector(),
            start_time=0.0, end_time=10.0,
        )
        # record_prefill stamps first_token_time at the finish instant.
        assert report.ttft_latencies() == [4.0, 8.0]
        assert report.mean_ttft() == pytest.approx(6.0)
        assert report.median_ttft() == pytest.approx(6.0)
        assert report.p99_ttft() == pytest.approx(8.0, rel=0.01)

    def test_ttft_skips_requests_without_first_token(self):
        # A migrated decode continuation finishes on this replica but
        # produced its first token elsewhere: no TTFT sample here.
        continuation = Request(
            request_id="m#decode", prompt_len=11, max_new_tokens=2,
            prefill_done=True, prefilled_tokens=11,
        )
        continuation.state = RequestState.RUNNING
        continuation.record_decode_token(now=1.0)
        continuation.record_decode_token(now=2.0)
        continuation.finish(now=2.0)
        report = RunReport(
            requests=[continuation, self._finished_request("a", 0.0, 5.0)],
            metrics=MetricsCollector(), start_time=0.0, end_time=5.0,
        )
        assert len(report.finished_requests) == 2
        assert report.ttft_latencies() == [5.0]


class TestRunReportEmptyRuns:
    def _report(self, requests, end=0.0):
        return RunReport(
            requests=requests, metrics=MetricsCollector(),
            start_time=0.0, end_time=end,
        )

    def test_empty_run_accessors(self):
        report = self._report([])
        assert report.finished_requests == []
        assert report.e2e_latencies() == []
        assert report.ttft_latencies() == []
        assert report.makespan == 0.0
        with pytest.raises(ValueError):
            report.requests_per_minute()
        with pytest.raises(ValueError):
            report.median_latency()
        with pytest.raises(ValueError):
            report.p99_latency()
        with pytest.raises(ValueError):
            report.mean_ttft()
        with pytest.raises(ValueError):
            report.median_ttft()
        with pytest.raises(ValueError):
            report.p99_ttft()

    def test_zero_finished_run(self):
        # Requests arrived but none completed (an aborted run).
        stuck = Request(request_id="s", prompt_len=8, max_new_tokens=4)
        report = self._report([stuck], end=3.0)
        assert report.finished_requests == []
        assert report.requests_per_minute() == 0.0
        with pytest.raises(ValueError):
            report.median_latency()
        with pytest.raises(ValueError):
            report.median_ttft()


class TestRollingWindow:
    def test_empty_window_returns_none(self):
        tracker = RollingPercentileTracker(window_seconds=10.0)
        assert len(tracker) == 0
        assert tracker.values() == []
        assert tracker.percentile(99.0) is None
        assert tracker.attainment(1.0) is None

    def test_single_sample(self):
        tracker = RollingPercentileTracker(window_seconds=10.0)
        tracker.observe(1.0, 4.0)
        assert tracker.percentile(50.0) == 4.0
        assert tracker.percentile(99.0) == 4.0
        assert tracker.attainment(4.0) == 1.0
        assert tracker.attainment(3.9) == 0.0

    def test_eviction_exactly_at_boundary(self):
        # Pruning drops samples *strictly* older than the horizon: a
        # sample aged exactly window_seconds is still in-window.
        tracker = RollingPercentileTracker(window_seconds=10.0)
        tracker.observe(0.0, 1.0)
        tracker.observe(5.0, 2.0)
        assert tracker.values(now=10.0) == [1.0, 2.0]
        # One tick past the boundary evicts it.
        assert tracker.values(now=10.0 + 1e-9) == [2.0]
        # ...but total_observations survives pruning.
        assert tracker.total_observations == 2
        assert len(tracker) == 1

    def test_attainment_over_window(self):
        tracker = RollingPercentileTracker(window_seconds=10.0)
        for time, value in ((0.0, 9.0), (6.0, 1.0), (8.0, 2.0)):
            tracker.observe(time, value)
        # At now=12 the slow sample at t=0 has aged out.
        assert tracker.attainment(3.0, now=12.0) == 1.0

    def test_unwindowed_tracker_never_prunes(self):
        tracker = RollingPercentileTracker(window_seconds=None)
        tracker.observe(0.0, 1.0)
        tracker.observe(100.0, 3.0)
        assert tracker.values(now=1e9) == [1.0, 3.0]

    def test_time_regression_rejected(self):
        tracker = RollingPercentileTracker(window_seconds=10.0)
        tracker.observe(5.0, 1.0)
        with pytest.raises(ConfigError):
            tracker.observe(4.0, 1.0)

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ConfigError):
            RollingPercentileTracker(window_seconds=0.0)
        with pytest.raises(ConfigError):
            RollingPercentileTracker(window_seconds=-1.0)

    def test_randomized_equivalence_with_naive_reference(self):
        # The tracker maintains a bisect-sorted companion list; its
        # answers must be bit-identical to pruning the raw sample list
        # and calling stats.percentile / a counting loop on every query.
        # Duplicated values and duplicated timestamps are exercised on
        # purpose — both stress the leftmost-equal removal in prune().
        rng = random.Random(0xC0FFEE)
        for window in (5.0, 17.0, None):
            tracker = RollingPercentileTracker(window_seconds=window)
            naive: list = []  # (time, value), never pruned
            now = 0.0
            query_now = 0.0  # pruning is destructive, so queries advance
            for _ in range(400):
                now += rng.choice((0.0, 0.0, rng.expovariate(1.0)))
                value = rng.choice(
                    (rng.uniform(0.0, 10.0), round(rng.uniform(0.0, 10.0)))
                )
                tracker.observe(now, value)
                naive.append((now, value))
                query_now = max(query_now, now + rng.uniform(0.0, 3.0))
                if window is None:
                    in_window = [v for _, v in naive]
                else:
                    horizon = query_now - window
                    in_window = [v for t, v in naive if t >= horizon]
                q = rng.uniform(0.0, 100.0)
                threshold = rng.uniform(0.0, 10.0)
                assert tracker.percentile(q, now=query_now) == percentile(
                    in_window, q
                )
                assert tracker.attainment(
                    threshold, now=query_now
                ) == sum(1 for v in in_window if v <= threshold) / len(
                    in_window
                )
                assert tracker.values() == in_window
                assert sorted(in_window) == tracker._sorted


class TestRunReportToJson:
    def test_none_on_empty_maps_only_valueerror(self):
        assert none_on_empty(lambda: 3.0) == 3.0
        assert none_on_empty(lambda: (_ for _ in ()).throw(ValueError())) is None

    def test_empty_report_serializes_with_none_summaries(self):
        report = RunReport(
            requests=[], metrics=MetricsCollector(),
            start_time=0.0, end_time=0.0,
        )
        document = report.to_json()
        assert document["num_requests"] == 0
        assert document["num_finished"] == 0
        assert document["requests_per_minute"] is None
        assert document["median_latency"] is None
        assert document["p99_ttft"] is None
        assert document["decode_throughput"] is None
        assert "prefix_cache" not in document
        json.dumps(document)  # the whole document must be JSON-able

    def test_populated_report_round_trips_accessors(self):
        request = Request(request_id="a", prompt_len=10, max_new_tokens=1,
                          arrival_time=0.0)
        request.state = RequestState.RUNNING
        request.record_prefill(now=30.0)
        request.finish(now=30.0)
        metrics = MetricsCollector()
        metrics.record(record("decode", 0.01, tokens=4))
        report = RunReport(
            requests=[request], metrics=metrics,
            start_time=0.0, end_time=60.0,
        )
        document = report.to_json()
        assert document["num_finished"] == 1
        assert document["makespan"] == 60.0
        assert document["requests_per_minute"] == pytest.approx(
            report.requests_per_minute()
        )
        assert document["mean_ttft"] == pytest.approx(report.mean_ttft())
        assert document["decode_throughput"] == pytest.approx(
            metrics.decode_throughput()
        )
        # Prefill never ran: per-phase absence is None, not an error.
        assert document["prefill_throughput"] is None
