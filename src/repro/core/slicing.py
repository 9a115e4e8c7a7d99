"""Tensor-slicing: reducing 2MB-page fragmentation without driver changes.

Paper S8.2: instead of ``2N`` virtual tensors of shape ``[B, L, H, D]``,
allocate 2 tensors of shape ``[B, L, N, H, D]`` (one K, one V) and slice
them per layer. One 2MB page then holds tokens of *all* layers for a
request, cutting per-request internal fragmentation to ``1/N`` of the
unsliced design (Table 10) — at the cost of the per-layer cache no
longer being contiguous, which only kernels with stride support (e.g.
FlashAttention-2, but not early FlashInfer) can consume.

The mechanism itself is just a :class:`~repro.core.config.VAttentionConfig`
with ``tensor_slicing=True``; this module adds the block-size math and
the kernel-compatibility predicate used by Table 10 and the discussion
experiments.
"""

from __future__ import annotations

from typing import Dict

from ..errors import ConfigError
from ..models.shard import ShardedModel
from ..units import MB
from .config import VAttentionConfig

#: Kernel libraries able to address a strided (sliced) KV cache.
#: FlashAttention-2 supports strides out-of-the-box; early FlashInfer
#: lacked support (added later in commit 85b1878, see paper S8.2).
STRIDE_CAPABLE_LIBRARIES = {
    "FlashAttention-2": True,
    "FlashAttention-3": True,
    "FlashInfer": False,
    "vLLM": False,
}


def supports_tensor_slicing(library: str) -> bool:
    """Whether ``library``'s kernels can compute over a sliced KV cache."""
    try:
        return STRIDE_CAPABLE_LIBRARIES[library]
    except KeyError:
        known = ", ".join(sorted(STRIDE_CAPABLE_LIBRARIES))
        raise ConfigError(
            f"unknown kernel library {library!r}; known: {known}"
        ) from None


def block_size_tokens(
    shard: ShardedModel, page_group_size: int = 2 * MB, sliced: bool = False
) -> int:
    """Tokens per page-group — the paper's KV block size (Tables 8/10)."""
    per_token = shard.k_bytes_per_token_per_layer
    if sliced:
        per_token *= shard.n_layers
    return page_group_size // per_token


def sliced_config(
    shard: ShardedModel,
    max_batch_size: int,
    page_group_size: int = 2 * MB,
    **overrides,
) -> VAttentionConfig:
    """A vAttention configuration using tensor slicing."""
    return VAttentionConfig(
        shard=shard,
        max_batch_size=max_batch_size,
        page_group_size=page_group_size,
        tensor_slicing=True,
        **overrides,
    )


def fragmentation_reduction_factor(shard: ShardedModel) -> int:
    """How much slicing shrinks worst-case per-request waste: ``N`` (S8.2)."""
    return shard.n_layers


def table10_row(shard: ShardedModel) -> Dict[str, int]:
    """One row of paper Table 10 for ``shard``: 2MB block sizes."""
    return {
        "without_slicing": block_size_tokens(shard, 2 * MB, sliced=False),
        "with_slicing": block_size_tokens(shard, 2 * MB, sliced=True),
    }
