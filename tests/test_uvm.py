"""Unified-memory strawman (paper S8.1): semantics and limitations."""

import pytest

from repro.errors import OutOfPhysicalMemory, SchedulingError
from repro.gpu.phys import PhysicalMemoryPool
from repro.gpu.spec import A100
from repro.gpu.uvm import UVM_PAGE_SIZE, UvmKvRegion
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.serving.engine import EngineConfig, LLMEngine
from repro.units import GB, MB
from repro.workloads.traces import fixed_trace


def make_region(capacity=4 * GB, batch=4) -> UvmKvRegion:
    pool = PhysicalMemoryPool(capacity=capacity)
    shard = ShardedModel(YI_6B, 1)
    return UvmKvRegion(
        pool=pool,
        max_batch_size=batch,
        n_tensors=2 * shard.n_layers,
        bytes_per_token_per_tensor=(
            shard.kv_heads_per_worker * shard.head_dim * shard.dtype_bytes
        ),
    )


class TestTouchSemantics:
    def test_first_touch_materializes_pages(self):
        region = make_region()
        slot = region.acquire_slot()
        latency = region.touch(slot, 3_000)  # 2 rows at 2048 tokens/page
        assert region.committed_bytes == 2 * region.row_bytes
        assert latency > 0  # page faults are not free

    def test_second_touch_within_pages_is_free(self):
        region = make_region()
        slot = region.acquire_slot()
        region.touch(slot, 2_048)
        assert region.touch(slot, 2_048) == 0.0

    def test_pages_are_2mb(self):
        assert UVM_PAGE_SIZE == 2 * MB
        region = make_region()
        assert region.tokens_per_row == 2_048  # Yi-6B TP-1, like Table 8

    def test_shrinking_rejected(self):
        region = make_region()
        slot = region.acquire_slot()
        region.touch(slot, 1_000)
        with pytest.raises(SchedulingError):
            region.touch(slot, 500)

    def test_inactive_touch_rejected(self):
        region = make_region()
        with pytest.raises(SchedulingError):
            region.touch(0, 100)


class TestNoPartialFreeing:
    """The S8.1 limitation this backend exists to demonstrate."""

    def test_release_reclaims_nothing(self):
        region = make_region()
        slot = region.acquire_slot()
        region.touch(slot, 10_000)
        committed = region.committed_bytes
        assert region.release_slot(slot) == 0
        assert region.committed_bytes == committed  # still resident

    def test_committed_ratchets_across_slots(self):
        region = make_region(batch=2)
        first = region.acquire_slot()
        region.touch(first, 10_000)
        region.release_slot(first)
        # A different slot's touches add on top; the first slot's pages
        # never came back.
        second_id = None
        for slot in region.slots:
            if slot.touched_rows == 0:
                second_id = slot.slot_id
        second = region.acquire_slot()
        if second_id is not None and second == second_id:
            region.touch(second, 10_000)
            assert region.committed_bytes >= 2 * 5 * region.row_bytes

    def test_slot_reuse_is_the_only_relief(self):
        region = make_region()
        slot = region.acquire_slot()
        region.touch(slot, 10_000)
        region.release_slot(slot)
        reused = region.acquire_slot()
        assert reused == slot  # most-touched preferred
        # Re-touching the same virtual range faults nothing new.
        assert region.touch(reused, 10_000) == 0.0

    def test_oom_with_no_recourse(self):
        region = make_region(capacity=512 * MB)
        slot = region.acquire_slot()
        with pytest.raises(OutOfPhysicalMemory):
            region.touch(slot, 100_000)

    def test_destroy_is_the_only_full_release(self):
        region = make_region()
        slot = region.acquire_slot()
        region.touch(slot, 10_000)
        freed = region.destroy()
        assert freed > 0
        assert region.committed_bytes == 0
        with pytest.raises(SchedulingError):
            region.acquire_slot()


class TestUvmBackend:
    def test_engine_runs_on_uvm(self):
        engine = LLMEngine(
            EngineConfig(
                shard=ShardedModel(YI_6B, 1),
                gpu=A100,
                memory_backend="uvm",
                max_batch_size=4,
            )
        )
        engine.submit(fixed_trace(count=4, prompt_len=2_000, max_new_tokens=10))
        report = engine.run()
        assert len(report.finished_requests) == 4
        assert engine.memory.backend.committed_bytes > 0

    def test_uvm_strands_memory_vattention_reclaims_it(self):
        # Two concurrent 16K requests spread their footprints across two
        # slots (~2GB). A later 30K request needs ~1.9GB: vAttention
        # reclaims the finished requests' pages and serves it; UVM's
        # pages are stranded in per-slot footprints it cannot free, so
        # the request never fits.
        def run(backend):
            engine = LLMEngine(
                EngineConfig(
                    shard=ShardedModel(YI_6B, 1),
                    gpu=A100,
                    memory_backend=backend,
                    max_batch_size=2,
                    kv_budget_bytes=int(2.5 * GB),
                    eager_allocation=False,
                )
            )
            engine.submit(fixed_trace(
                count=2, prompt_len=16_000, max_new_tokens=5,
                name=f"{backend}-small",
            ))
            engine.submit(fixed_trace(
                count=1, prompt_len=30_000, max_new_tokens=5,
                name=f"{backend}-big", arrivals=[1_000.0],
            ))
            report = engine.run()
            return len(report.finished_requests)

        assert run("vattention") == 3
        assert run("uvm") == 2  # the 30K request is never admissible
