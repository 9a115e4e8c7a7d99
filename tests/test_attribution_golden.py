"""Latency attribution reproduces its golden output exactly.

Every scenario in :mod:`tests.attribution_golden` is rebuilt on the
current code and compared with ``tests/golden/attribution.json`` by
exact equality: the whole-trace report, every per-request row (buckets,
TTFT buckets, closure error, replica scope) and each domain's report.
"""

from __future__ import annotations

import json

import pytest

import attribution_golden


@pytest.fixture(scope="module")
def golden():
    with open(attribution_golden.GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_every_scenario(golden):
    assert sorted(golden) == sorted(attribution_golden.SCENARIOS)


@pytest.mark.parametrize("scenario", sorted(attribution_golden.SCENARIOS))
def test_attribution_matches_golden(golden, scenario):
    live = attribution_golden.attribute(
        attribution_golden.SCENARIOS[scenario]()
    )
    assert live["report"] == golden[scenario]["report"]
    assert live["by_domain"] == golden[scenario]["by_domain"]
    assert len(live["rows"]) == len(golden[scenario]["rows"])
    for row, expected in zip(live["rows"], golden[scenario]["rows"]):
        assert row == expected
