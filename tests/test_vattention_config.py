"""vAttention configuration layout math."""

import pytest

from repro.core.config import VAttentionConfig
from repro.errors import ConfigError
from repro.models.shard import ShardedModel
from repro.models.zoo import LLAMA3_8B, YI_34B, YI_6B
from repro.units import KB, MB


def config_for(model, tp, **kwargs):
    defaults = dict(max_batch_size=8, page_group_size=2 * MB)
    defaults.update(kwargs)
    return VAttentionConfig(shard=ShardedModel(model, tp), **defaults)


class TestTensorCounts:
    def test_2n_tensors(self):
        assert config_for(YI_6B, 1).n_tensors == 64
        assert config_for(YI_34B, 2).n_tensors == 120

    def test_slicing_uses_two_tensors(self):
        assert config_for(YI_6B, 1, tensor_slicing=True).n_tensors == 2


class TestBlockSizes:
    """Table 8 / Table 10 anchors via the config math."""

    def test_table8_yi6b(self):
        assert config_for(YI_6B, 1).tokens_per_page_group == 2048
        assert config_for(YI_6B, 1, page_group_size=64 * KB).tokens_per_page_group == 64
        assert config_for(YI_6B, 2).tokens_per_page_group == 4096

    def test_table8_llama(self):
        assert config_for(LLAMA3_8B, 1).tokens_per_page_group == 1024
        assert config_for(LLAMA3_8B, 2, page_group_size=128 * KB).tokens_per_page_group == 128

    def test_table10_slicing(self):
        assert config_for(YI_6B, 1, tensor_slicing=True).tokens_per_page_group == 64
        assert config_for(LLAMA3_8B, 2, tensor_slicing=True).tokens_per_page_group == 64


class TestStrides:
    def test_request_stride_is_aligned(self):
        config = config_for(YI_34B, 2)
        assert config.request_stride % config.page_group_size == 0
        # S ~= 200MB for Yi-34B TP-2 (S5.1.3).
        assert config.request_stride == pytest.approx(200e6, rel=0.03)

    def test_buffer_and_total_virtual(self):
        config = config_for(YI_34B, 2, max_batch_size=500)
        assert config.buffer_bytes == 500 * config.request_stride
        assert config.total_virtual_bytes == 120 * config.buffer_bytes
        # ~12TB of virtual memory (S5.1.3), well inside 128TB of VA.
        assert config.total_virtual_bytes == pytest.approx(12e12, rel=0.05)

    def test_rows_for_context(self):
        config = config_for(YI_6B, 1)  # 2048 tokens per page-group
        assert config.rows_for_context(0) == 0
        assert config.rows_for_context(1) == 1
        assert config.rows_for_context(2048) == 1
        assert config.rows_for_context(2049) == 2

    def test_rows_rejects_negative(self):
        with pytest.raises(ConfigError):
            config_for(YI_6B, 1).rows_for_context(-1)

    def test_row_bytes(self):
        config = config_for(YI_6B, 1)
        assert config.row_bytes == 64 * 2 * MB


class TestValidation:
    def test_rejects_bad_batch(self):
        with pytest.raises(ConfigError):
            config_for(YI_6B, 1, max_batch_size=0)

    def test_rejects_bad_page_size(self):
        with pytest.raises(ConfigError):
            config_for(YI_6B, 1, page_group_size=4 * KB)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ConfigError):
            config_for(YI_6B, 1, reclamation_threshold=1.5)

    def test_rejects_negative_eager(self):
        with pytest.raises(ConfigError):
            config_for(YI_6B, 1, eager_page_groups=-1)
