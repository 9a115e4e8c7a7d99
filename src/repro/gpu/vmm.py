"""CUDA virtual memory management (VMM) API latencies.

The paper builds on the driver API family ``cuMemAddressReserve`` /
``cuMemCreate`` / ``cuMemMap`` / ``cuMemSetAccess`` / ``cuMemUnmap`` /
``cuMemRelease`` / ``cuMemAddressFree``. This module holds their costs,
taken verbatim from Table 3 of the paper: the 2MB column for the stock
CUDA APIs, the small-page columns for the extended driver. Both are
emulated by one class, :class:`repro.gpu.driver.ExtendedDriver`; the
stock APIs exist only at 2MB, the limitation that motivates the paper's
driver extension.

Time accounting
---------------
A driver call advances the simulated clock by its latency (the call
happens synchronously in the critical path). The vAttention manager
(:mod:`repro.core.vattention`) prices its page-group rows from
:func:`api_latency` directly; work it overlaps with compute is queued on
:class:`repro.core.background.BackgroundWorker`, which keeps its own
seconds and never calls a driver.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import ConfigError
from ..units import KB, MB, us

#: Per-API latency in seconds, keyed by page-group size, from paper Table 3.
#: ``None`` entries mean the API is not offered at that granularity.
API_LATENCY: Dict[str, Dict[int, Optional[float]]] = {
    "reserve": {64 * KB: us(18), 128 * KB: us(17), 256 * KB: us(16), 2 * MB: us(2)},
    "create": {64 * KB: us(1.7), 128 * KB: us(2), 256 * KB: us(2.1), 2 * MB: us(29)},
    "map": {64 * KB: us(8), 128 * KB: us(8.5), 256 * KB: us(9), 2 * MB: us(2)},
    "set_access": {64 * KB: None, 128 * KB: None, 256 * KB: None, 2 * MB: us(38)},
    "unmap": {64 * KB: None, 128 * KB: None, 256 * KB: None, 2 * MB: us(34)},
    "release": {64 * KB: us(2), 128 * KB: us(3), 256 * KB: us(4), 2 * MB: us(23)},
    "free": {64 * KB: us(35), 128 * KB: us(35), 256 * KB: us(35), 2 * MB: us(1)},
}


def api_latency(api: str, page_group_size: int) -> float:
    """Latency in seconds of one ``api`` call at ``page_group_size``."""
    try:
        per_size = API_LATENCY[api]
    except KeyError:
        raise ConfigError(f"unknown VMM API {api!r}") from None
    latency = per_size.get(page_group_size)
    if latency is None:
        raise ConfigError(
            f"API {api!r} not available at page-group size {page_group_size}"
        )
    return latency
