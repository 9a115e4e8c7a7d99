"""Attention-kernel interface shared by all libraries' models.

A kernel model answers one question: *how long does attention take* for a
given model shard, on a given GPU, for a prefill prompt or a decode batch.
Paged kernels additionally take the KV block size, because the paper shows
(Figure 3) that block size changes paged-kernel latency.

Layout contract (the paper's central point): non-paged ("contiguous")
kernels require the KV cache to be virtually contiguous — they are only
usable with vAttention or with static pre-reservation, never on top of a
PagedAttention block pool. Paged kernels accept any layout but pay the
overheads measured in Figures 2/3. The serving engine enforces this
contract (:mod:`repro.serving.memory`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import KernelError
from ..gpu.spec import GpuSpec
from ..models.shard import ShardedModel


class Phase(Enum):
    """Inference phase; the two have different compute patterns (S2.1)."""

    PREFILL = "prefill"
    DECODE = "decode"


class KvLayout(Enum):
    """KV cache memory layout a kernel can consume."""

    CONTIGUOUS = "contiguous"  # virtually contiguous (vAttention / static)
    PAGED = "paged"  # user-space blocks + Block-Table


@dataclass(frozen=True)
class KernelInfo:
    """Static description of one attention kernel."""

    name: str
    library: str
    layout: KvLayout
    supports_prefill: bool
    supports_decode: bool
    #: Block sizes the kernel accepts (paged kernels only).
    supported_block_sizes: Tuple[int, ...] = ()
    #: Block size giving best performance (paper S7: 16 for vLLM and
    #: FlashInfer, 256 for FlashAttention-2's paged kernel).
    best_block_size: Optional[int] = None


class AttentionKernel(abc.ABC):
    """Latency model of one library's attention kernels on one GPU."""

    info: KernelInfo

    def __init__(self, gpu: GpuSpec) -> None:
        self.gpu = gpu

    # ------------------------------------------------------------------
    @property
    def is_paged(self) -> bool:
        """Whether this kernel reads a user-space paged KV cache."""
        return self.info.layout is KvLayout.PAGED

    def validate_block_size(self, block_size: Optional[int]) -> int:
        """Resolve and validate the block size for a paged invocation."""
        if not self.is_paged:
            if block_size is not None:
                raise KernelError(
                    f"{self.info.name} is not paged; block_size is meaningless"
                )
            return 0
        resolved = (
            block_size if block_size is not None else self.info.best_block_size
        )
        if resolved not in self.info.supported_block_sizes:
            raise KernelError(
                f"{self.info.name} does not support block size {resolved}; "
                f"supported: {self.info.supported_block_sizes}"
            )
        return resolved

    # ------------------------------------------------------------------
    def prefill_time(
        self,
        shard: ShardedModel,
        context_len: int,
        block_size: Optional[int] = None,
    ) -> float:
        """Seconds of prefill attention over all layers on one worker."""
        if not self.info.supports_prefill:
            raise KernelError(f"{self.info.name} has no prefill kernel")
        if context_len < 0:
            raise KernelError(f"negative context length {context_len}")
        resolved = self.validate_block_size(block_size)
        return self._prefill_time(shard, context_len, resolved)

    def decode_time(
        self,
        shard: ShardedModel,
        context_lens: Sequence[int],
        block_size: Optional[int] = None,
    ) -> float:
        """Seconds of decode attention over all layers on one worker."""
        if not self.info.supports_decode:
            raise KernelError(f"{self.info.name} has no decode kernel")
        if not context_lens:
            raise KernelError("decode batch cannot be empty")
        resolved = self.validate_block_size(block_size)
        return self._decode_time(shard, context_lens, resolved)

    def decode_time_total(
        self,
        shard: ShardedModel,
        total_tokens: int,
        batch_size: int,
        block_size: Optional[int] = None,
    ) -> float:
        """Decode attention time from aggregate batch properties.

        Every library's decode latency depends on the batch only through
        its *total* token count and its *size* (S7.2: latency is
        proportional to total tokens; per-library factors depend on
        batch size and block size). This is element 0 of
        :meth:`decode_time_total_series` over ``(total_tokens,)``, and
        :meth:`decode_time` routes through it, so every entry point
        returns the same float for the same total.
        """
        if not self.info.supports_decode:
            raise KernelError(f"{self.info.name} has no decode kernel")
        if batch_size <= 0:
            raise KernelError(f"decode batch must be positive, got {batch_size}")
        resolved = self.validate_block_size(block_size)
        if total_tokens < 0:
            raise KernelError(f"negative total tokens: {total_tokens}")
        return self._decode_time_total(shard, total_tokens, batch_size, resolved)

    def decode_time_total_series(
        self,
        shard: ShardedModel,
        totals: Iterable[int],
        batch_size: int,
        block_size: Optional[int] = None,
    ) -> List[float]:
        """Decode attention time for each of a series of total-token
        counts at one batch size.

        The library's decode rule, stated once
        (:meth:`_decode_time_total_series`): each kernel hoists its
        per-batch constants and returns one float per total. The decode
        fast-forwarder prices a whole stretch with one call.
        """
        if not self.info.supports_decode:
            raise KernelError(f"{self.info.name} has no decode kernel")
        if batch_size <= 0:
            raise KernelError(f"decode batch must be positive, got {batch_size}")
        resolved = self.validate_block_size(block_size)
        return self._decode_time_total_series(shard, totals, batch_size, resolved)

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _prefill_time(
        self, shard: ShardedModel, context_len: int, block_size: int
    ) -> float:
        """Library-specific prefill latency (block_size 0 if non-paged)."""

    def _decode_time(
        self, shard: ShardedModel, context_lens: Sequence[int], block_size: int
    ) -> float:
        """Decode latency of a context-length batch.

        Reduces the batch to (total tokens, batch size) and delegates to
        :meth:`_decode_time_total`, which reads the library's one
        series rule.
        """
        total_tokens = 0
        for ctx in context_lens:
            if ctx < 0:
                raise KernelError(f"negative context length: {ctx}")
            total_tokens += ctx
        return self._decode_time_total(
            shard, total_tokens, len(context_lens), block_size
        )

    def _decode_time_total(
        self,
        shard: ShardedModel,
        total_tokens: int,
        batch_size: int,
        block_size: int,
    ) -> float:
        """Element 0 of the library's series over ``(total_tokens,)``."""
        return self._decode_time_total_series(
            shard, (total_tokens,), batch_size, block_size
        )[0]

    @abc.abstractmethod
    def _decode_time_total_series(
        self,
        shard: ShardedModel,
        totals: Iterable[int],
        batch_size: int,
        block_size: int,
    ) -> List[float]:
        """Library-specific decode latency, one float per total
        (block_size 0 if non-paged)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.info.name} on {self.gpu.name})"
