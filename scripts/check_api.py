#!/usr/bin/env python3
"""Check the public API surface against a committed snapshot.

Usage::

    python scripts/check_api.py            # compare against the snapshot
    python scripts/check_api.py --update   # re-bless the snapshot

Walks a fixed list of public modules and records, per module, the
sorted public names (``__all__`` when defined, else non-underscore
top-level names) — plus the field names of the config dataclasses that
form the construction API. The snapshot lives in
``scripts/api_surface.json``; any drift (a removed name, a renamed
config field, an accidental new export) fails CI until the change is
deliberately blessed with ``--update``. Run from the repo root with
``src`` importable (CI installs the package).

No third-party dependencies, like the rest of the repo.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
from pathlib import Path
from typing import Dict, List

SNAPSHOT = Path(__file__).resolve().parent / "api_surface.json"

#: The modules whose exports constitute the supported API. Order is
#: cosmetic (the snapshot is keyed by name); membership is the contract.
MODULES = [
    "repro.cache",
    "repro.cache.backends",
    "repro.cache.manager",
    "repro.cache.radix",
    "repro.cluster",
    "repro.memory",
    "repro.memory.config",
    "repro.memory.manager",
    "repro.memory.tier",
    "repro.metrics.telemetry",
    "repro.metrics.tracecheck",
    "repro.scheduling",
    "repro.serving.engine",
    "repro.serving.memory",
    "repro.tokens",
    "repro.workloads.traces",
]

#: Config dataclasses whose *field names* are construction API: renaming
#: or dropping a field breaks every caller spelling it as a kwarg.
CONFIG_CLASSES = [
    ("repro.serving.engine", "EngineConfig"),
    ("repro.memory.config", "MemoryConfig"),
    ("repro.cluster", "ClusterConfig"),
]


def public_names(module) -> List[str]:
    declared = getattr(module, "__all__", None)
    if declared is not None:
        return sorted(declared)
    return sorted(
        name for name in vars(module)
        if not name.startswith("_")
        and not isinstance(vars(module)[name], type(sys))  # skip imports
    )


def capture() -> Dict[str, object]:
    surface: Dict[str, object] = {"modules": {}, "config_fields": {}}
    for name in MODULES:
        module = importlib.import_module(name)
        surface["modules"][name] = public_names(module)
    for module_name, class_name in CONFIG_CLASSES:
        cls = getattr(importlib.import_module(module_name), class_name)
        surface["config_fields"][f"{module_name}.{class_name}"] = [
            field.name for field in dataclasses.fields(cls)
        ]
    return surface


def main(argv: List[str]) -> int:
    surface = capture()
    rendered = json.dumps(surface, indent=2, sort_keys=True) + "\n"
    if "--update" in argv:
        SNAPSHOT.write_text(rendered)
        print(f"blessed {SNAPSHOT.relative_to(Path.cwd())}"
              if SNAPSHOT.is_relative_to(Path.cwd()) else f"blessed {SNAPSHOT}")
        return 0
    if not SNAPSHOT.exists():
        print(f"{SNAPSHOT} is missing: create it with --update",
              file=sys.stderr)
        return 1
    committed = json.loads(SNAPSHOT.read_text())
    if committed == surface:
        modules = len(surface["modules"])
        print(f"API surface OK: {modules} modules, "
              f"{len(surface['config_fields'])} config classes")
        return 0
    # Report the drift precisely, section by section.
    for section in ("modules", "config_fields"):
        old, new = committed.get(section, {}), surface[section]
        for key in sorted(set(old) | set(new)):
            if key not in old:
                print(f"{section}: {key} is new (not in snapshot)",
                      file=sys.stderr)
            elif key not in new:
                print(f"{section}: {key} disappeared", file=sys.stderr)
            elif old[key] != new[key]:
                removed = sorted(set(old[key]) - set(new[key]))
                added = sorted(set(new[key]) - set(old[key]))
                if removed:
                    print(f"{section}: {key} lost {removed}",
                          file=sys.stderr)
                if added:
                    print(f"{section}: {key} gained {added}",
                          file=sys.stderr)
                if not removed and not added:
                    print(f"{section}: {key} reordered fields "
                          f"{old[key]} -> {new[key]}", file=sys.stderr)
    print("API surface drifted: bless deliberate changes with "
          "`python scripts/check_api.py --update`", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
