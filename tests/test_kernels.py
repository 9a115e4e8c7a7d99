"""Attention-kernel latency models: per-library behaviour and anchors."""

import pytest

from repro.errors import KernelError
from repro.gpu.spec import A100, H100
from repro.kernels.base import AttentionKernel, KvLayout
from repro.kernels.fa2 import FlashAttention2, FlashAttention2Paged
from repro.kernels.fa3 import FlashAttention3
from repro.kernels.fi import (
    FI_NONPAGED_DECODE_FACTOR,
    FlashInfer,
    FlashInferPaged,
)
from repro.kernels.registry import get_kernel, list_kernels, register_kernel
from repro.kernels.vllm_paged import VllmPaged, vllm_gqa_penalty
from repro.models.shard import ShardedModel
from repro.models.zoo import LLAMA3_8B, YI_34B, YI_6B


@pytest.fixture
def yi6b():
    return ShardedModel(YI_6B, 1)


@pytest.fixture
def llama():
    return ShardedModel(LLAMA3_8B, 2)


@pytest.fixture
def yi34b():
    return ShardedModel(YI_34B, 2)


class TestFa2Anchors:
    """Table 6/7 absolute anchors, within 10% of the paper."""

    def test_yi6b_192k_prefill_attention(self, yi6b):
        kernel = FlashAttention2(A100)
        assert kernel.prefill_time(yi6b, 196_608) == pytest.approx(53.6, rel=0.1)

    def test_yi6b_decode_bs16_ctx16k(self, yi6b):
        kernel = FlashAttention2(A100)
        latency = kernel.decode_time(yi6b, [16_384] * 16)
        assert latency == pytest.approx(11.3e-3, rel=0.1)

    def test_yi34b_decode_bs12(self, yi34b):
        kernel = FlashAttention2(A100)
        latency = kernel.decode_time(yi34b, [16_384] * 12)
        assert latency == pytest.approx(17.4e-3, rel=0.1)

    def test_paged_prefill_overhead_matches_fig2(self, llama):
        plain = FlashAttention2(A100)
        paged = FlashAttention2Paged(A100)
        shard = ShardedModel(LLAMA3_8B, 1)
        ratio_1k = paged.prefill_time(shard, 1_024) / plain.prefill_time(shard, 1_024)
        ratio_32k = paged.prefill_time(shard, 32_768) / plain.prefill_time(shard, 32_768)
        assert ratio_1k == pytest.approx(1.07, abs=0.02)
        assert ratio_32k == pytest.approx(1.37, abs=0.02)

    def test_paged_decode_near_parity(self, yi6b):
        # S7.2: decode attention is memory-bound, paged ~= non-paged.
        plain = FlashAttention2(A100)
        paged = FlashAttention2Paged(A100)
        ratio = paged.decode_time(yi6b, [16_384] * 16) / plain.decode_time(
            yi6b, [16_384] * 16
        )
        assert 1.0 <= ratio <= 1.05

    def test_paged_small_blocks_cost_up_to_9_percent(self, yi6b):
        paged = FlashAttention2Paged(A100)
        best = paged.decode_time(yi6b, [16_384] * 8, block_size=256)
        small = paged.decode_time(yi6b, [16_384] * 8, block_size=64)
        assert small / best == pytest.approx(1.09, abs=0.01)


class TestVllmKernel:
    def test_gqa_penalty_fit(self):
        # Table 7: 2.8x at GQA 8 (Yi-6B), 1.5x at GQA 4 (Llama-3-8B).
        assert vllm_gqa_penalty(8) == pytest.approx(2.8, abs=0.01)
        assert vllm_gqa_penalty(4) == pytest.approx(1.5, abs=0.01)

    def test_penalty_never_below_one(self):
        assert vllm_gqa_penalty(1) >= 1.0

    def test_block_size_sensitivity_fig3(self, yi6b):
        kernel = VllmPaged(A100)
        base = kernel.decode_time(yi6b, [16_384] * 8, block_size=16)
        worst = kernel.decode_time(yi6b, [16_384] * 8, block_size=128)
        assert worst / base == pytest.approx(1.90, abs=0.02)

    def test_no_prefill_kernel(self, yi6b):
        kernel = VllmPaged(A100)
        with pytest.raises(KernelError):
            kernel.prefill_time(yi6b, 1_024)

    def test_slower_than_fa2(self, yi6b, llama, yi34b):
        vllm = VllmPaged(A100)
        fa2 = FlashAttention2(A100)
        for shard in (yi6b, llama, yi34b):
            assert vllm.decode_time(shard, [16_384] * 16) > fa2.decode_time(
                shard, [16_384] * 16
            )


class TestFlashInfer:
    def test_nonpaged_prefill_matches_fa2(self, yi6b):
        # Table 6: FI_vAttention attention time ~= FA2_vAttention.
        assert FlashInfer(A100).prefill_time(yi6b, 65_536) == pytest.approx(
            FlashAttention2(A100).prefill_time(yi6b, 65_536)
        )

    def test_nonpaged_decode_uncompetitive(self, yi6b):
        # S7.2: up to 14.6x slower — why vAttention pairs FI prefill
        # with the FA2 decode kernel.
        fi = FlashInfer(A100).decode_time(yi6b, [16_384] * 8)
        fa2 = FlashAttention2(A100).decode_time(yi6b, [16_384] * 8)
        assert fi / fa2 == pytest.approx(FI_NONPAGED_DECODE_FACTOR)

    def test_paged_prefill_overhead_fig2(self):
        shard = ShardedModel(LLAMA3_8B, 1)
        plain = FlashInfer(A100)
        paged = FlashInferPaged(A100)
        ratio = paged.prefill_time(shard, 1_024) / plain.prefill_time(shard, 1_024)
        assert ratio == pytest.approx(1.42, abs=0.02)

    def test_paged_decode_depends_on_gqa(self, yi6b, llama):
        paged = FlashInferPaged(A100)
        fa2 = FlashAttention2(A100)
        gap_yi6b = paged.decode_time(yi6b, [16_384] * 16) / fa2.decode_time(
            yi6b, [16_384] * 16
        )
        gap_llama = paged.decode_time(llama, [16_384] * 16) / fa2.decode_time(
            llama, [16_384] * 16
        )
        assert gap_yi6b > gap_llama  # Yi-6B (GQA 8) suffers more


class TestFa3:
    def test_requires_hopper(self):
        with pytest.raises(KernelError):
            FlashAttention3(A100)

    def test_faster_than_fa2_on_h100(self, yi6b):
        fa3 = FlashAttention3(H100)
        fa2 = FlashAttention2(H100)
        ratio = fa2.prefill_time(yi6b, 65_536) / fa3.prefill_time(yi6b, 65_536)
        assert 1.3 < ratio < 1.6  # drives Figure 11's 1.26-1.5x end-to-end

    def test_decode_matches_fa2_on_same_gpu(self, yi6b):
        # Decode is memory-bound; FA3 does not change it.
        assert FlashAttention3(H100).decode_time(
            yi6b, [16_384] * 8
        ) == pytest.approx(FlashAttention2(H100).decode_time(yi6b, [16_384] * 8))


class TestKernelInterface:
    def test_layouts(self):
        assert FlashAttention2(A100).info.layout is KvLayout.CONTIGUOUS
        assert FlashAttention2Paged(A100).info.layout is KvLayout.PAGED
        assert not FlashAttention2(A100).is_paged

    def test_block_size_rejected_for_nonpaged(self, yi6b):
        with pytest.raises(KernelError):
            FlashAttention2(A100).decode_time(yi6b, [100], block_size=16)

    def test_unsupported_block_size_rejected(self, yi6b):
        with pytest.raises(KernelError):
            FlashAttention2Paged(A100).decode_time(yi6b, [100], block_size=16)

    def test_empty_batch_rejected(self, yi6b):
        with pytest.raises(KernelError):
            FlashAttention2(A100).decode_time(yi6b, [])

    def test_negative_context_rejected(self, yi6b):
        with pytest.raises(KernelError):
            FlashAttention2(A100).prefill_time(yi6b, -5)


class TestRegistry:
    def test_all_kernels_listed(self):
        names = list_kernels()
        for expected in ("fa2", "fa2_paged", "fi", "fi_paged", "vllm_paged", "fa3"):
            assert expected in names

    def test_get_kernel(self):
        assert isinstance(get_kernel("fa2", A100), FlashAttention2)

    def test_unknown_kernel(self):
        with pytest.raises(KernelError):
            get_kernel("nope", A100)

    def test_register_duplicate_rejected(self):
        with pytest.raises(KernelError):
            register_kernel("fa2", FlashAttention2)


class TestDecodeSeries:
    """``decode_time_total_series`` is each library's one decode rule.
    The scalar entry points read element 0 of it, so element ``i`` of a
    long series must equal ``decode_time_total`` and ``decode_time`` at
    that total float for float (not approximately), or a stretch would
    drift from the stepped loop."""

    @staticmethod
    def assert_series_equals_scalar(kernel, shard, batch):
        for block in kernel.info.supported_block_sizes or (None,):
            start = 1_237 * batch + 11
            totals = range(start, start + 500 * batch, batch)
            series = kernel.decode_time_total_series(
                shard, totals, batch, block
            )
            assert len(series) == len(totals)
            for i, total in enumerate(totals):
                share = total // batch
                contexts = [share] * (batch - 1)
                contexts.append(total - share * (batch - 1))
                where = (kernel.info.name, shard.model.name, block, batch, i)
                assert series[i].hex() == kernel.decode_time_total(
                    shard, total, batch, block
                ).hex(), where
                assert series[i].hex() == kernel.decode_time(
                    shard, contexts, block
                ).hex(), where

    @pytest.mark.parametrize("batch", [1, 8, 96])
    @pytest.mark.parametrize(
        "model, tp", [(YI_6B, 1), (YI_34B, 2)], ids=["yi6b-tp1", "yi34b-tp2"]
    )
    @pytest.mark.parametrize("name", list_kernels())
    def test_series_equals_scalar(self, name, model, tp, batch):
        kernel = get_kernel(name, H100 if name == "fa3" else A100)
        self.assert_series_equals_scalar(kernel, ShardedModel(model, tp), batch)

    @pytest.mark.parametrize("name", list_kernels())
    def test_each_kernel_states_its_decode_rule_once(self, name):
        """A kernel prices decode only as a series; the scalar form is
        the base class's element 0 of it."""
        cls = type(get_kernel(name, H100))
        assert "_decode_time_total_series" in vars(cls), name
        assert cls._decode_time_total is AttentionKernel._decode_time_total

    def test_negative_total_rejected(self, yi6b):
        for name in list_kernels():
            kernel = get_kernel(name, H100)
            with pytest.raises(KernelError, match="negative total"):
                kernel.decode_time_total(yi6b, -1, 1)

    def test_series_validates_like_scalar(self, yi6b):
        paged = get_kernel("fa2_paged", A100)
        with pytest.raises(KernelError):
            paged.decode_time_total_series(yi6b, range(10, 20), 0, 16)
        with pytest.raises(KernelError):
            paged.decode_time_total_series(yi6b, range(10, 20), 1, 3)
        with pytest.raises(KernelError):
            get_kernel("fa2", A100).decode_time_total_series(
                yi6b, range(10, 20), 1, 16
            )
