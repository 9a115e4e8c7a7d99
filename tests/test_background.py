"""Background allocation worker: overlap, spill and priorities."""

import math

import pytest

from repro.core.background import BackgroundWorker


class TestSubmitAndRun:
    def test_submit_accumulates(self):
        worker = BackgroundWorker()
        worker.submit(0.002)
        worker.submit(0.003)
        assert worker.pending_seconds == pytest.approx(0.005)

    def test_run_consumes_up_to_window(self):
        worker = BackgroundWorker()
        worker.submit(0.005)
        done = worker.run_for(0.002)
        assert done == pytest.approx(0.002)
        assert worker.pending_seconds == pytest.approx(0.003)

    def test_run_with_surplus_window(self):
        worker = BackgroundWorker()
        worker.submit(0.001)
        assert worker.run_for(1.0) == pytest.approx(0.001)
        assert worker.pending_seconds == 0.0

    def test_rejects_negative(self):
        worker = BackgroundWorker()
        with pytest.raises(ValueError):
            worker.submit(-1)
        with pytest.raises(ValueError):
            worker.run_for(-1)

    @pytest.mark.parametrize("seconds", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("critical", [True, False])
    def test_submit_rejects_non_finite(self, seconds, critical):
        worker = BackgroundWorker()
        worker.submit(0.002, critical=critical)
        with pytest.raises(ValueError):
            worker.submit(seconds, critical=critical)
        assert worker.pending_seconds == 0.002
        assert worker.submitted_seconds == 0.002

    @pytest.mark.parametrize("window", [math.nan, math.inf, -math.inf])
    def test_run_for_rejects_non_finite(self, window):
        worker = BackgroundWorker()
        worker.submit(0.002)
        worker.submit(0.003, critical=False)
        with pytest.raises(ValueError):
            worker.run_for(window)
        assert worker.critical_pending == 0.002
        assert worker.opportunistic_pending == 0.003
        assert worker.overlapped_seconds == 0.0


class TestPriorities:
    def test_critical_runs_first(self):
        worker = BackgroundWorker()
        worker.submit(0.004, critical=False)
        worker.submit(0.002, critical=True)
        worker.run_for(0.002)
        assert worker.critical_pending == 0.0
        assert worker.opportunistic_pending == pytest.approx(0.004)

    def test_flush_only_touches_critical(self):
        worker = BackgroundWorker()
        worker.submit(0.002, critical=True)
        worker.submit(0.004, critical=False)
        spilled = worker.flush_critical()
        assert spilled == pytest.approx(0.002)
        assert worker.opportunistic_pending == pytest.approx(0.004)

    def test_opportunistic_fills_leftover_window(self):
        worker = BackgroundWorker()
        worker.submit(0.001, critical=True)
        worker.submit(0.002, critical=False)
        done = worker.run_for(0.002)
        assert done == pytest.approx(0.002)
        assert worker.opportunistic_pending == pytest.approx(0.001)


class TestAccounting:
    def test_hidden_fraction_all_overlapped(self):
        worker = BackgroundWorker()
        worker.submit(0.002)
        worker.run_for(0.01)
        assert worker.hidden_fraction == pytest.approx(1.0)

    def test_hidden_fraction_all_spilled(self):
        worker = BackgroundWorker()
        worker.submit(0.002)
        worker.flush_critical()
        assert worker.hidden_fraction == 0.0
        assert worker.spilled_seconds == pytest.approx(0.002)

    def test_empty_worker_fully_hidden(self):
        assert BackgroundWorker().hidden_fraction == 1.0

    def test_lifetime_counters(self):
        worker = BackgroundWorker()
        worker.submit(0.004)
        worker.run_for(0.003)
        worker.flush_critical()
        assert worker.overlapped_seconds == pytest.approx(0.003)
        assert worker.spilled_seconds == pytest.approx(0.001)
        assert worker.submitted_seconds == pytest.approx(0.004)
