"""Transformer model configurations and derived memory/FLOP math.

A :class:`ModelConfig` captures the architectural parameters the paper's
notation table (Table 2) uses: layers ``N``, KV heads ``H``, head
dimension ``D``, element size ``P``, maximum context ``L``. From these we
derive parameter counts, per-token KV cache footprints, and FLOP counts —
the quantities every experiment in the evaluation depends on.

The derivations are validated against numbers printed in the paper:
per-token KV cache of 64KB (Yi-6B), 128KB (Llama-3-8B) and 240KB (Yi-34B)
fall out of the configs in :mod:`repro.models.zoo` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of a decoder-only transformer LLM.

    Attributes
    ----------
    name:
        Identifier, e.g. ``"Yi-6B"``.
    n_layers:
        Number of transformer blocks (paper's ``N`` before sharding).
    n_q_heads / n_kv_heads:
        Query heads and KV heads (GQA when they differ).
    head_dim:
        Dimension of each attention head (paper's ``D``).
    hidden_size:
        Model embedding width ``E``.
    intermediate_size:
        MLP inner width (SwiGLU: three projections of this width).
    vocab_size:
        Token vocabulary (embedding + LM head).
    max_context:
        Maximum supported context length (paper's ``L``).
    dtype_bytes:
        Bytes per element (paper's ``P``; 2 for FP16/BF16).
    tied_embeddings:
        Whether input embedding and LM head share weights.
    """

    name: str
    n_layers: int
    n_q_heads: int
    n_kv_heads: int
    head_dim: int
    hidden_size: int
    intermediate_size: int
    vocab_size: int
    max_context: int
    dtype_bytes: int = 2
    tied_embeddings: bool = False

    def __post_init__(self) -> None:
        if min(
            self.n_layers,
            self.n_q_heads,
            self.n_kv_heads,
            self.head_dim,
            self.hidden_size,
            self.intermediate_size,
            self.vocab_size,
            self.max_context,
            self.dtype_bytes,
        ) <= 0:
            raise ConfigError(f"{self.name}: all dimensions must be positive")
        if self.n_q_heads % self.n_kv_heads != 0:
            raise ConfigError(
                f"{self.name}: q heads ({self.n_q_heads}) must be a "
                f"multiple of kv heads ({self.n_kv_heads})"
            )

    # ------------------------------------------------------------------
    # Attention shape helpers
    # ------------------------------------------------------------------
    @property
    def gqa_ratio(self) -> int:
        """Query heads per KV head (1 = MHA, >1 = GQA/MQA)."""
        return self.n_q_heads // self.n_kv_heads

    @property
    def q_dim(self) -> int:
        """Width of the query projection output."""
        return self.n_q_heads * self.head_dim

    @property
    def kv_dim(self) -> int:
        """Width of each of the K and V projection outputs."""
        return self.n_kv_heads * self.head_dim

    # ------------------------------------------------------------------
    # Parameter counts
    # ------------------------------------------------------------------
    @property
    def attn_params_per_layer(self) -> int:
        """Weights in Q/K/V/O projections of one layer."""
        q = self.hidden_size * self.q_dim
        kv = 2 * self.hidden_size * self.kv_dim
        o = self.q_dim * self.hidden_size
        return q + kv + o

    @property
    def mlp_params_per_layer(self) -> int:
        """Weights in one SwiGLU MLP (gate, up, down projections)."""
        return 3 * self.hidden_size * self.intermediate_size

    @property
    def params_per_layer(self) -> int:
        """All weights of one transformer block (norms ignored: ~0.01%)."""
        return self.attn_params_per_layer + self.mlp_params_per_layer

    @property
    def embedding_params(self) -> int:
        """Embedding table + LM head weights."""
        table = self.vocab_size * self.hidden_size
        return table if self.tied_embeddings else 2 * table

    @property
    def total_params(self) -> int:
        """Approximate total parameter count."""
        return self.n_layers * self.params_per_layer + self.embedding_params

    # ------------------------------------------------------------------
    # KV cache footprint (whole model; per-worker values via shard.py)
    # ------------------------------------------------------------------
    @property
    def kv_bytes_per_token_per_layer(self) -> int:
        """K + V bytes one token occupies in one layer."""
        return 2 * self.kv_dim * self.dtype_bytes

    @property
    def kv_bytes_per_token(self) -> int:
        """K + V bytes one token occupies across all layers.

        Paper S4 Observation-2 quotes 64KB / 128KB / 240KB for
        Yi-6B / Llama-3-8B / Yi-34B, which these configs reproduce.
        """
        return self.n_layers * self.kv_bytes_per_token_per_layer

    def kv_bytes_for_context(self, context_len: int) -> int:
        """Total KV bytes of one request with ``context_len`` tokens."""
        if context_len < 0:
            raise ConfigError(f"context length cannot be negative: {context_len}")
        return context_len * self.kv_bytes_per_token

    # ------------------------------------------------------------------
    # FLOP counts (whole model; cost models shard them per worker)
    # ------------------------------------------------------------------
    def linear_flops_per_token(self) -> float:
        """FLOPs of all position-wise (linear) operators for one token.

        2 FLOPs per weight per token (multiply + add) over projections,
        MLP and the LM head.
        """
        per_layer = 2.0 * self.params_per_layer
        lm_head = 2.0 * self.vocab_size * self.hidden_size
        return self.n_layers * per_layer + lm_head

    def attention_flops_prefill(self, context_len: int) -> float:
        """FLOPs of causal self-attention over a ``context_len`` prompt.

        QK^T and PV each cost ``2 * Hq * D`` per (query, key) pair; the
        causal mask halves the pair count.
        """
        pairs = context_len * (context_len + 1) / 2.0
        per_layer = 2.0 * 2.0 * self.n_q_heads * self.head_dim * pairs
        return self.n_layers * per_layer

    def attention_flops_decode(self, context_len: int) -> float:
        """FLOPs of attention for one new token against ``context_len`` keys."""
        per_layer = 2.0 * 2.0 * self.n_q_heads * self.head_dim * context_len
        return self.n_layers * per_layer

    def __str__(self) -> str:
        return (
            f"{self.name}(layers={self.n_layers}, q={self.n_q_heads}, "
            f"kv={self.n_kv_heads}, d={self.head_dim}, L={self.max_context})"
        )
