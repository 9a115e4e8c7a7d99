"""Configuration of the vAttention memory manager.

Mirrors the ``init`` parameters of the paper's Table 4 (N, B, L, H, D, P
and the page-group size — the model-derived ones arrive via
:class:`~repro.models.shard.ShardedModel`) plus switches for each of the
paper's optimizations, so ablation experiments can turn them off:

* ``deferred_reclamation`` — keep a finished request's page-groups mapped
  and hand its ``reqId`` to the next arrival (S6.1.2).
* ``eager_allocation`` — pre-map a few page-groups for the *next* reqId
  to be handed out (S6.1.2).
* ``overlap_allocation`` — perform predictable decode-phase mappings on a
  background thread during the previous iteration (S6.1.1).
* ``tensor_slicing`` — the driver-change-free alternative of S8.2: one
  virtual tensor of shape [B, L, N, H, D] per K/V, so a single 2MB page
  holds all layers of a request's tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..gpu.spec import SUPPORTED_PAGE_GROUP_SIZES
from ..models.shard import ShardedModel
from ..units import MB, align_up, ceil_div


@dataclass(frozen=True)
class VAttentionConfig:
    """Settings for one worker's vAttention instance."""

    shard: ShardedModel
    max_batch_size: int
    page_group_size: int = 2 * MB
    tensor_slicing: bool = False
    deferred_reclamation: bool = True
    eager_allocation: bool = True
    overlap_allocation: bool = True
    #: Page-groups (per tensor) pre-mapped for the next reqId handed out.
    eager_page_groups: int = 8
    #: Keep at least this fraction of page-group rows unmapped/free;
    #: below it, background reclamation unmaps inactive requests' rows.
    reclamation_threshold: float = 0.10

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ConfigError(
                f"max_batch_size must be positive, got {self.max_batch_size}"
            )
        if self.page_group_size not in SUPPORTED_PAGE_GROUP_SIZES:
            supported = ", ".join(str(s) for s in SUPPORTED_PAGE_GROUP_SIZES)
            raise ConfigError(
                f"page-group size {self.page_group_size} unsupported; "
                f"supported: {supported}"
            )
        if self.tensor_slicing and self.page_group_size != 2 * MB:
            # Slicing exists precisely to avoid the driver change; the two
            # can compose in principle (S8.2) but the paper deploys
            # slicing with stock 2MB pages.
            pass
        if not 0.0 <= self.reclamation_threshold < 1.0:
            raise ConfigError(
                f"reclamation_threshold must be in [0, 1), got "
                f"{self.reclamation_threshold}"
            )
        if self.eager_page_groups < 0:
            raise ConfigError("eager_page_groups cannot be negative")
        if self.tokens_per_page_group < 1:
            raise ConfigError(
                f"page-group of {self.page_group_size}B holds less than one "
                f"token of {self.shard} (slicing={self.tensor_slicing})"
            )

    # ------------------------------------------------------------------
    # Layout math
    # ------------------------------------------------------------------
    @property
    def bytes_per_token_per_tensor(self) -> int:
        """Bytes one token occupies in one virtual tensor.

        Without slicing a tensor is one layer's K (or V): ``H*D*P``.
        With slicing a tensor spans all layers: ``N*H*D*P``.
        """
        per_layer = self.shard.k_bytes_per_token_per_layer
        if self.tensor_slicing:
            return self.shard.n_layers * per_layer
        return per_layer

    @property
    def n_tensors(self) -> int:
        """Virtual tensors per worker: 2N normally, 2 with slicing."""
        return 2 if self.tensor_slicing else 2 * self.shard.n_layers

    @property
    def tokens_per_page_group(self) -> int:
        """Paper's KV cache *block size* (Tables 8/10): tokens per page-group."""
        return self.page_group_size // self.bytes_per_token_per_tensor

    @property
    def row_bytes(self) -> int:
        """Physical bytes of one page-group *row* across all tensors.

        ``step()`` always maps the same page-group index in every tensor
        together (the KV caches of all layers grow in lock-step), so the
        allocator works in rows of ``n_tensors`` page-groups.
        """
        return self.n_tensors * self.page_group_size

    @property
    def request_stride(self) -> int:
        """Paper's ``S``: per-request bytes in one tensor, page-aligned."""
        raw = self.shard.max_context * self.bytes_per_token_per_tensor
        return align_up(raw, self.page_group_size)

    @property
    def rows_per_full_request(self) -> int:
        """Page-group rows a maximal-context request needs."""
        return self.request_stride // self.page_group_size

    @property
    def buffer_bytes(self) -> int:
        """Paper's ``BS``: virtual size of one tensor (B requests)."""
        return self.max_batch_size * self.request_stride

    @property
    def total_virtual_bytes(self) -> int:
        """Total virtual memory reserved per worker."""
        return self.n_tensors * self.buffer_bytes

    def rows_for_context(self, context_len: int) -> int:
        """Page-group rows needed to back ``context_len`` tokens."""
        if context_len < 0:
            raise ConfigError(f"negative context length {context_len}")
        return ceil_div(context_len, self.tokens_per_page_group)
