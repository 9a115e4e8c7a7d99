"""Every per-layer metric of the benchmark tracer still has a method.

``perfbench/tracer.py`` wraps layer methods by ``module:Class`` path and
skips a path that no longer resolves, so renaming a class would
silently drop its per-layer metric from the benchmark output. This test
only reads ``perfbench/``; it installs the tracer and restores it.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.append(ROOT)

from perfbench.tracer import Tracer  # noqa: E402


def test_every_wrapped_method_resolves():
    tracer = Tracer().install()
    try:
        assert tracer.missing == []
    finally:
        tracer.restore()
