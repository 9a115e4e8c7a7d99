"""Model configuration math, anchored to numbers printed in the paper."""

import pytest

from repro.errors import ConfigError
from repro.models.config import ModelConfig
from repro.models.zoo import LLAMA3_8B, YI_34B, YI_6B
from repro.units import KB


class TestPaperAnchors:
    """S4 Observation-2 quotes the per-token KV footprints exactly."""

    def test_yi6b_kv_per_token_is_64kb(self):
        assert YI_6B.kv_bytes_per_token == 64 * KB

    def test_llama3_kv_per_token_is_128kb(self):
        assert LLAMA3_8B.kv_bytes_per_token == 128 * KB

    def test_yi34b_kv_per_token_is_240kb(self):
        assert YI_34B.kv_bytes_per_token == 240 * KB

    def test_parameter_counts_match_names(self):
        assert YI_6B.total_params == pytest.approx(6e9, rel=0.1)
        assert LLAMA3_8B.total_params == pytest.approx(8e9, rel=0.1)
        assert YI_34B.total_params == pytest.approx(34e9, rel=0.05)

    def test_table5_head_counts(self):
        assert (YI_6B.n_q_heads, YI_6B.n_kv_heads) == (32, 4)
        assert (LLAMA3_8B.n_q_heads, LLAMA3_8B.n_kv_heads) == (32, 8)
        assert (YI_34B.n_q_heads, YI_34B.n_kv_heads) == (56, 8)
        assert YI_34B.n_layers == 60


class TestDerivedShapes:
    def test_gqa_ratio(self):
        assert YI_6B.gqa_ratio == 8
        assert LLAMA3_8B.gqa_ratio == 4
        assert YI_34B.gqa_ratio == 7

    def test_kv_dim(self):
        assert YI_6B.kv_dim == 4 * 128

    def test_kv_bytes_layer_consistency(self):
        assert (
            YI_6B.kv_bytes_per_token
            == YI_6B.n_layers * YI_6B.kv_bytes_per_token_per_layer
        )

    def test_kv_for_context_scales_linearly(self):
        assert YI_6B.kv_bytes_for_context(100) == 100 * 64 * KB

    def test_kv_for_context_rejects_negative(self):
        with pytest.raises(ConfigError):
            YI_6B.kv_bytes_for_context(-1)


class TestFlops:
    def test_prefill_attention_quadratic(self):
        small = YI_6B.attention_flops_prefill(1_000)
        large = YI_6B.attention_flops_prefill(2_000)
        assert large / small == pytest.approx(4.0, rel=0.01)

    def test_decode_attention_linear(self):
        assert YI_6B.attention_flops_decode(2_000) == pytest.approx(
            2 * YI_6B.attention_flops_decode(1_000)
        )

    def test_linear_flops_reflect_params(self):
        # 2 FLOPs per weight per token, embeddings excluded from the
        # per-layer term.
        flops = YI_6B.linear_flops_per_token()
        lower = 2 * YI_6B.n_layers * YI_6B.params_per_layer
        assert flops >= lower
        assert flops <= 2.1 * YI_6B.total_params


class TestValidation:
    def test_rejects_indivisible_heads(self):
        with pytest.raises(ConfigError):
            ModelConfig(
                name="bad",
                n_layers=2,
                n_q_heads=6,
                n_kv_heads=4,
                head_dim=64,
                hidden_size=128,
                intermediate_size=256,
                vocab_size=100,
                max_context=1024,
            )

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ConfigError):
            ModelConfig(
                name="bad",
                n_layers=0,
                n_q_heads=4,
                n_kv_heads=4,
                head_dim=64,
                hidden_size=128,
                intermediate_size=256,
                vocab_size=100,
                max_context=1024,
            )
