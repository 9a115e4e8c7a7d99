"""Size and time units used throughout the library.

All memory sizes are plain integers in bytes and all durations are floats
in seconds, so arithmetic stays explicit. The helpers here exist to make
call sites readable (``2 * MB``, ``us(40)``) and to format values for
reports.
"""

from __future__ import annotations

KB: int = 1024
MB: int = 1024 * KB
GB: int = 1024 * MB
TB: int = 1024 * GB

#: One microsecond / millisecond, expressed in seconds.
MICROSECOND: float = 1e-6
MILLISECOND: float = 1e-3


def us(value: float) -> float:
    """Convert microseconds to seconds."""
    return value * MICROSECOND


def ms(value: float) -> float:
    """Convert milliseconds to seconds."""
    return value * MILLISECOND


def to_us(seconds: float) -> float:
    """Convert seconds to microseconds."""
    return seconds / MICROSECOND


def fmt_bytes(n: int) -> str:
    """Render a byte count with a binary-unit suffix.

    >>> fmt_bytes(2 * 1024 * 1024)
    '2.0MB'
    """
    value = float(n)
    for suffix in ("B", "KB", "MB", "GB"):
        if abs(value) < 1024.0:
            return f"{value:.1f}{suffix}"
        value /= 1024.0
    return f"{value:.1f}TB"


def fmt_seconds(t: float) -> str:
    """Render a duration with an adaptive unit.

    >>> fmt_seconds(0.000040)
    '40.0us'
    """
    if t < 1e-3:
        return f"{t / MICROSECOND:.1f}us"
    if t < 1.0:
        return f"{t / MILLISECOND:.1f}ms"
    return f"{t:.2f}s"


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division; ``b`` must be positive."""
    if b <= 0:
        raise ValueError(f"divisor must be positive, got {b}")
    return -(-a // b)


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``."""
    return ceil_div(value, alignment) * alignment


def is_aligned(value: int, alignment: int) -> bool:
    """Whether ``value`` is a multiple of ``alignment``."""
    if alignment <= 0:
        raise ValueError(f"alignment must be positive, got {alignment}")
    return value % alignment == 0
