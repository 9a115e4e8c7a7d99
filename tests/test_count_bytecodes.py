"""Smoke test of ``scripts/count_bytecodes.py`` at a tiny scale."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "count_bytecodes.py"
#: Eight requests per trace, the smallest a perfbench trace holds.
TINY = "0.001"


def load_script():
    spec = importlib.util.spec_from_file_location("count_bytecodes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_add_up():
    script = load_script()
    functions, total, counters = script.count(
        "offline_tiered", seed=1, trace=0, scale=float(TINY)
    )
    assert total == sum(ops for ops, _ in functions.values())
    assert functions["engine.LLMEngine.run"][1] == 1
    assert counters["stepped_iterations"] > 0
    assert set(counters) == {label for label, _ in script.COUNTERS}


def test_command_line_repeats_exactly():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    command = [
        sys.executable,
        str(SCRIPT),
        "--workload",
        "chat_day",
        "--scale",
        TINY,
        "--top",
        "3",
    ]
    outputs = []
    for _ in range(2):
        result = subprocess.run(
            command,
            cwd=REPO,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert len(lines) == 1 + 3 + 1 + 1 + len(load_script().COUNTERS)
    assert lines[4].endswith("total run()")
    assert lines[6].split()[0] == "proofs"
