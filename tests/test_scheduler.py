"""FCFS scheduling in the engine's serve loop: admission, order
preservation, preemption."""

from repro.gpu.spec import A100
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.scheduling import FcfsPolicy
from repro.serving.engine import EngineConfig, LLMEngine
from repro.serving.request import Request, RequestState
from repro.units import GB
from repro.workloads.traces import fixed_trace


def make_request(rid: str, prompt: int = 100, arrival: float = 0.0) -> Request:
    return Request(
        request_id=rid, prompt_len=prompt, max_new_tokens=10,
        arrival_time=arrival,
    )


def make_engine(**overrides) -> LLMEngine:
    defaults = dict(
        shard=ShardedModel(YI_6B, 1),
        gpu=A100,
        memory_backend="vattention",
        max_batch_size=4,
    )
    defaults.update(overrides)
    return LLMEngine(EngineConfig(**defaults))


def admit_arrived(engine: LLMEngine, now: float = 0.0) -> None:
    """One admission pass at ``now``, as the serve loop runs it."""
    engine.clock.advance_to(now)
    engine._ingest_arrivals()
    engine._admit()


class RecordingFcfs(FcfsPolicy):
    """FCFS that logs each victim it picks and the queue each admission
    pass sees right after a preemption."""

    def __init__(self):
        self.victims = []
        self.queues_after_preemption = []
        self._preempted = False

    def select_victim(self, running, protected=None):
        victim = super().select_victim(running, protected)
        self.victims.append(([r.request_id for r in running], victim))
        self._preempted = True
        return victim

    def next_admission(self, waiting, view):
        if self._preempted:
            self.queues_after_preemption.append(
                [r.request_id for r in waiting]
            )
            self._preempted = False
        return super().next_admission(waiting, view)


def preempting_run():
    """Three 14K-token Yi-6B requests fill a 3 GB KV budget; their
    decode growth forces a preemption while a fourth request waits
    behind the full batch. Returns the engine, its recording policy and
    a snapshot of each victim right after its eviction."""
    engine = make_engine(
        kv_budget_bytes=3 * GB, max_batch_size=3, eager_allocation=False
    )
    policy = engine.scheduler = RecordingFcfs()
    evicted = []
    evict = engine._evict

    def spy(victim):
        generated = victim.generated
        evict(victim)
        evicted.append(dict(
            request=victim,
            generated=generated,
            state=victim.state,
            preemptions=victim.preemptions,
            prompt_len=victim.prompt_len,
            prefill_done=victim.prefill_done,
        ))

    engine._evict = spy
    engine.submit(
        fixed_trace(count=4, prompt_len=14_000, max_new_tokens=4_000)
    )
    report = engine.run()
    assert len(report.finished_requests) == 4
    assert evicted, "the scenario must preempt"
    return engine, policy, evicted


class TestAdmission:
    def test_admits_in_arrival_order(self):
        engine = make_engine()
        engine.submit([
            make_request("c", arrival=0.3),
            make_request("a", arrival=0.1),
            make_request("b", arrival=0.2),
        ])
        admit_arrived(engine, now=0.5)
        assert [r.request_id for r in engine._running] == ["a", "b", "c"]
        assert all(r.state is RequestState.RUNNING for r in engine._running)

    def test_respects_batch_cap(self):
        engine = make_engine(max_batch_size=2)
        engine.submit([make_request(rid) for rid in ("a", "b", "c")])
        admit_arrived(engine)
        assert [r.request_id for r in engine._running] == ["a", "b"]
        assert [r.request_id for r in engine._waiting] == ["c"]

    def test_strict_fcfs_head_of_line_blocking(self):
        # A too-big head request blocks smaller ones behind it (no
        # reordering — matches the paper's FCFS setup).
        engine = make_engine(kv_budget_bytes=1 * GB)
        big = make_request("big", prompt=30_000)
        small = make_request("small", prompt=10)
        assert not engine.memory.can_admit(big)
        assert engine.memory.can_admit(small)
        engine.submit([big, small])
        admit_arrived(engine)
        assert engine._running == []
        assert [r.request_id for r in engine._waiting] == ["big", "small"]


class TestRetireAndPreempt:
    def test_retire_removes(self):
        engine = make_engine()
        request = make_request("a")
        engine.submit([request])
        engine.run()
        assert request.state is RequestState.FINISHED
        assert engine._running == []
        assert not engine.has_work()

    def test_preempt_newest(self):
        _, policy, _ = preempting_run()
        for running, victim in policy.victims:
            assert victim.request_id == running[-1]
        first_running, first_victim = policy.victims[0]
        assert first_running == ["fixed-0000", "fixed-0001", "fixed-0002"]
        assert first_victim.request_id == "fixed-0002"

    def test_preempt_newest_updates_victim_state(self):
        _, _, evicted = preempting_run()
        snapshot = evicted[0]
        assert snapshot["state"] is RequestState.PREEMPTED
        assert snapshot["preemptions"] == 1
        # Recompute semantics: generated tokens fold into the prompt
        # for the re-run.
        assert snapshot["generated"] > 0
        assert snapshot["prompt_len"] == 14_000 + snapshot["generated"]
        assert not snapshot["prefill_done"]

    def test_requeue_front_preserves_position(self):
        # The victim re-enters the queue ahead of the request that was
        # waiting behind the full batch.
        _, policy, evicted = preempting_run()
        victim = evicted[0]["request"].request_id
        assert policy.queues_after_preemption[0] == [victim, "fixed-0003"]
