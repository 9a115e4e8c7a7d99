"""CUDA VMM API latencies: the Table 3 lookup."""

import pytest

from repro.errors import ConfigError
from repro.gpu.vmm import API_LATENCY, api_latency
from repro.units import KB, MB, us


class TestLatencyTable:
    def test_table3_map_plus_set_access_is_40us(self):
        # The paper's S6.1 example: one cuMemMap + cuMemSetAccess pair
        # costs ~40 microseconds.
        total = api_latency("map", 2 * MB) + api_latency("set_access", 2 * MB)
        assert total == pytest.approx(us(40))

    def test_create_latencies_match_table3(self):
        assert api_latency("create", 64 * KB) == pytest.approx(us(1.7))
        assert api_latency("create", 2 * MB) == pytest.approx(us(29))

    def test_small_pages_have_no_separate_set_access(self):
        with pytest.raises(ConfigError):
            api_latency("set_access", 64 * KB)

    def test_unknown_api_rejected(self):
        with pytest.raises(ConfigError):
            api_latency("bogus", 2 * MB)

    def test_every_api_has_all_four_sizes(self):
        for api, by_size in API_LATENCY.items():
            assert set(by_size) == {64 * KB, 128 * KB, 256 * KB, 2 * MB}, api
