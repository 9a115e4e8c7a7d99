#!/usr/bin/env python3
"""Count the bytecodes one perfbench trace's ``run()`` executes.

Usage::

    python scripts/count_bytecodes.py --workload offline_tiered --seed 1 --trace 0

Builds the trace exactly as a perfbench pass does
(``prepare(WORKLOADS[workload], subseed(seed, trace), scale)``, so seed 1
trace 0 is trace 16), then runs ``run()`` with ``sys.settrace`` on and
``f_trace_opcodes`` set on every frame, counting ``opcode`` events and
frame entries (calls and generator resumptions) per code object. It
prints the ``--top`` functions by opcodes, the total over ``run()``, and
the engines' work counters summed over every engine of the workload.

A bytecode count is deterministic: it repeats exactly from run to run,
where wall time on a shared host does not. Count in a fresh process: the
first ``run()`` in a process also fills the model's cost caches, which a
later one reuses. It counts work, not time;
measure wall-clock gains with ``perfbench/run.py``. The count covers
Python frames only: time spent inside C functions costs no opcodes.

No third-party dependencies, like the rest of the repo.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from types import CodeType
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench.bench import subseed  # noqa: E402
from perfbench.workloads import WORKLOADS, prepare  # noqa: E402
from repro.metrics import telemetry  # noqa: E402

#: Engine work counters reported next to the opcodes: (label, reader).
COUNTERS = (
    ("proofs", lambda e: e._fast.proofs),
    ("plans", lambda e: e._fast.plans),
    ("stretches", lambda e: e._fast.stretches),
    ("resumes", lambda e: e._fast.resumes),
    ("analytic_iterations", lambda e: e._fast.analytic_iterations),
    ("stepped_iterations", lambda e: e.stepped_iterations),
    ("hook_calls", lambda e: e._fast.hook_calls),
    ("series_evaluations", lambda e: e._fast.series_evaluations),
    ("contexts_recorded", lambda e: _manager_stat(e, "contexts_recorded")),
    ("slots_visited", lambda e: _manager_stat(e, "slots_visited")),
)


def _manager_stat(engine, name: str) -> int:
    manager = getattr(engine.memory.backend, "manager", None)
    return getattr(manager.stats, name) if manager is not None else 0


def function_name(code: CodeType) -> str:
    module = os.path.splitext(os.path.basename(code.co_filename))[0]
    return f"{module}.{code.co_qualname}"


def count(
    workload: str, seed: int, trace: int, scale: float = 1.0
) -> Tuple[Dict[str, Tuple[int, int]], int, Dict[str, int]]:
    """Run one trace under the opcode tracer.

    Returns ``(functions, total, counters)``: opcodes and frame entries
    per function name, the opcodes of the whole ``run()``, and the work
    counters summed over the workload's engines.
    """
    prepared = prepare(WORKLOADS[workload], subseed(seed, trace), scale)
    opcodes: Counter = Counter()
    entries: Counter = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            opcodes[frame.f_code] += 1
        return local

    def on_call(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        entries[frame.f_code] += 1
        return local

    previous = sys.gettrace()
    try:
        sys.settrace(on_call)
        try:
            prepared.target.run()
        finally:
            sys.settrace(previous)
    finally:
        if prepared.registry is not None:
            telemetry.uninstall()

    functions: Dict[str, Tuple[int, int]] = {}
    for code in entries.keys() | opcodes.keys():
        name = function_name(code)
        ops, calls = functions.get(name, (0, 0))
        functions[name] = (ops + opcodes[code], calls + entries[code])
    replicas = getattr(prepared.target, "replicas", None)
    engines = (
        [r.engine for r in replicas] if replicas else [prepared.target]
    )
    counters = {
        label: sum(read(engine) for engine in engines)
        for label, read in COUNTERS
    }
    return functions, sum(opcodes.values()), counters


def report(
    functions: Dict[str, Tuple[int, int]],
    total: int,
    counters: Dict[str, int],
    top: int,
) -> List[str]:
    ranked = sorted(functions.items(), key=lambda item: (-item[1][0], item[0]))
    lines = [f"{'opcodes':>12} {'calls':>10}  function"]
    for name, (ops, calls) in ranked[:top]:
        lines.append(f"{ops:>12,} {calls:>10,}  {name}")
    lines.append(f"{total:>12,} {'':>10}  total run()")
    lines.append("")
    for label, value in counters.items():
        lines.append(f"{label:>20} {value:,}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--trace", type=int, default=0, help="trace index within the seed"
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--top", type=int, default=25, help="functions to list"
    )
    args = parser.parse_args(argv)
    functions, total, counters = count(
        args.workload, args.seed, args.trace, args.scale
    )
    print("\n".join(report(functions, total, counters, args.top)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
