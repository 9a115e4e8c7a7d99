"""FCFS scheduler: admission, order preservation, preemption."""

import pytest

from repro.errors import SchedulingError
from repro.serving.request import Request, RequestState
from repro.scheduling.fcfs import FcfsScheduler, peak_batch_size


def make_request(rid: str, prompt: int = 100) -> Request:
    return Request(request_id=rid, prompt_len=prompt, max_new_tokens=10)


class TestAdmission:
    def test_admits_in_arrival_order(self):
        scheduler = FcfsScheduler(max_batch_size=4, can_admit=lambda r: True)
        for rid in ("a", "b", "c"):
            scheduler.enqueue(make_request(rid))
        admitted = scheduler.admit_ready()
        assert [r.request_id for r in admitted] == ["a", "b", "c"]
        assert all(r.state is RequestState.RUNNING for r in admitted)

    def test_respects_batch_cap(self):
        scheduler = FcfsScheduler(max_batch_size=2, can_admit=lambda r: True)
        for rid in ("a", "b", "c"):
            scheduler.enqueue(make_request(rid))
        assert len(scheduler.admit_ready()) == 2
        assert len(scheduler.waiting) == 1

    def test_strict_fcfs_head_of_line_blocking(self):
        # A too-big head request blocks smaller ones behind it (no
        # reordering — matches the paper's FCFS setup).
        scheduler = FcfsScheduler(
            max_batch_size=4, can_admit=lambda r: r.prompt_len < 1000
        )
        scheduler.enqueue(make_request("big", prompt=5000))
        scheduler.enqueue(make_request("small", prompt=10))
        assert scheduler.admit_ready() == []

    def test_enqueue_requires_queued_state(self):
        scheduler = FcfsScheduler(max_batch_size=4, can_admit=lambda r: True)
        request = make_request("a")
        request.state = RequestState.RUNNING
        with pytest.raises(SchedulingError):
            scheduler.enqueue(request)


class TestRetireAndPreempt:
    def test_retire_removes(self):
        scheduler = FcfsScheduler(max_batch_size=4, can_admit=lambda r: True)
        scheduler.enqueue(make_request("a"))
        (request,) = scheduler.admit_ready()
        scheduler.retire(request)
        assert scheduler.batch_size == 0

    def test_retire_unknown_rejected(self):
        scheduler = FcfsScheduler(max_batch_size=4, can_admit=lambda r: True)
        with pytest.raises(SchedulingError):
            scheduler.retire(make_request("ghost"))

    def test_preempt_newest(self):
        scheduler = FcfsScheduler(max_batch_size=4, can_admit=lambda r: True)
        for rid in ("a", "b"):
            scheduler.enqueue(make_request(rid))
        scheduler.admit_ready()
        victim = scheduler.preempt_newest()
        assert victim.request_id == "b"
        assert scheduler.batch_size == 1

    def test_preempt_newest_updates_victim_state(self):
        # Regression: the reusable scheduler used to leave the victim
        # RUNNING while the engine's inline path marks it preempted.
        scheduler = FcfsScheduler(max_batch_size=4, can_admit=lambda r: True)
        scheduler.enqueue(make_request("a", prompt=100))
        (request,) = scheduler.admit_ready()
        request.prefill_done = True
        request.generated = 4
        victim = scheduler.preempt_newest()
        assert victim.state is RequestState.PREEMPTED
        assert victim.preemptions == 1
        # Recompute semantics, like the engine: generated tokens fold
        # into the prompt for the re-run.
        assert victim.prompt_len == 104
        assert not victim.prefill_done

    def test_preempt_empty_returns_none(self):
        scheduler = FcfsScheduler(max_batch_size=4, can_admit=lambda r: True)
        assert scheduler.preempt_newest() is None

    def test_requeue_front_preserves_position(self):
        scheduler = FcfsScheduler(max_batch_size=4, can_admit=lambda r: True)
        scheduler.enqueue(make_request("later"))
        preempted = make_request("first")
        scheduler.requeue_front(preempted)
        assert scheduler.waiting[0].request_id == "first"


class TestPeakBatch:
    def test_peak(self):
        assert peak_batch_size([1, 4, 2, 4, 3]) == 4

    def test_empty_rejected(self):
        with pytest.raises(SchedulingError):
            peak_batch_size([])
