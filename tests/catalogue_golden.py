"""Golden catalogue rows pinning the memory subsystem's single path.

The engine used to reach KV memory through two wirings — the
``MemoryManager`` facade and the raw-backend path with engine-inline
swap handling — and an on/off sweep proved every engine-driven
experiment produced identical rows through both. When the raw-backend
path was deleted, the rows that sweep compared were frozen here
instead: ``tests/golden/catalogue_rows.json`` was captured by running
this module standalone at the last commit that still had both paths::

    PYTHONPATH=src:tests python tests/catalogue_golden.py

and :mod:`tests.test_memory_facade` re-runs every case on the current
code and compares ``repr`` strings (floats included) byte-for-byte.
Regenerate the golden only for a deliberate, understood behaviour
change.
"""

from __future__ import annotations

import json
import os
from typing import Dict

from test_fastforward_equiv import CLUSTER_SWEEP, SWEEP, _cluster_fingerprint

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "catalogue_rows.json"
)

#: Cluster shapes whose KV paths (router probes, migration, drain
#: re-routing) go through every replica's memory manager.
CLUSTER_CASES = ("router:cache_aware", "disagg:nvlink")


def catalogue_rows(name: str) -> str:
    return repr(SWEEP[name]())


def cluster_rows(name: str) -> str:
    return repr(_cluster_fingerprint(CLUSTER_SWEEP[name]()))


def capture() -> Dict[str, Dict[str, str]]:
    return {
        "catalogue": {name: catalogue_rows(name) for name in sorted(SWEEP)},
        "cluster": {name: cluster_rows(name) for name in CLUSTER_CASES},
    }


def main() -> None:
    payload = capture()
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
