"""The MemoryManager: the engine's one memory object.

Byte identity of the memory paths is pinned twice: the FCFS goldens
(``tests/fcfs_golden.py``) cover CPU-tier preemption in both modes, the
prefix cache over both sharing backends and cache eviction under
pressure, and the catalogue goldens (``tests/catalogue_golden.py``)
freeze the rows every engine-driven experiment produced before the
memory subsystem collapsed to one path. The rest of this module covers
the manager's own surface: config validation, how the engine assembles
``backend`` / ``cache`` / ``tier``, and the verbs.
"""

import dataclasses
import json

import pytest

import catalogue_golden
from repro.cache.manager import PrefixCacheManager
from repro.errors import ConfigError, SchedulingError
from repro.gpu.spec import A100
from repro.memory import CpuKvTier, MemoryConfig, MemoryManager
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.serving.engine import EngineConfig, LLMEngine
from repro.serving.memory import MemoryBackend
from repro.serving.request import PrefixDescriptor, Request, RequestState
from repro.units import GB


def _shard():
    return ShardedModel(YI_6B, 1)


def _engine(**memory) -> LLMEngine:
    return LLMEngine(
        EngineConfig(
            shard=_shard(),
            gpu=A100,
            memory_backend="vattention",
            max_batch_size=4,
            memory=MemoryConfig(**memory),
        )
    )


class TestFacadeEquivalence:
    """The single path reproduces the rows the retired facade on/off
    sweep compared (frozen in ``tests/catalogue_golden.py``)."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(catalogue_golden.GOLDEN_PATH) as handle:
            return json.load(handle)

    @pytest.mark.parametrize("name", sorted(catalogue_golden.SWEEP))
    def test_identical_on_and_off(self, golden, name):
        rows = catalogue_golden.catalogue_rows(name)
        assert rows == golden["catalogue"][name]

    @pytest.mark.parametrize("name", catalogue_golden.CLUSTER_CASES)
    def test_cluster_identical_on_and_off(self, golden, name):
        rows = catalogue_golden.cluster_rows(name)
        assert rows == golden["cluster"][name]

    def test_default_is_facade(self):
        engine = _engine()
        assert isinstance(engine.memory, MemoryManager)
        assert engine.memory.cache is None
        assert engine.memory.tier is None


# ----------------------------------------------------------------------
# MemoryConfig validation
# ----------------------------------------------------------------------
class TestMemoryConfig:
    def test_unknown_mode_rejected_both_spellings(self):
        with pytest.raises(ConfigError, match="unknown preemption mode"):
            MemoryConfig(preemption_mode="bogus")
        with pytest.raises(ConfigError, match="unknown preemption mode"):
            dataclasses.replace(MemoryConfig(), preemption_mode="bogus")

    def test_swap_bytes_validated(self):
        with pytest.raises(ConfigError, match="swap_host_bytes"):
            MemoryConfig(swap_host_bytes=0)

    def test_cache_knobs_validated_in_nested_config(self):
        with pytest.raises(ConfigError, match="prefix_cache_slots"):
            MemoryConfig(enable_prefix_cache=True, prefix_cache_slots=0)
        with pytest.raises(ConfigError, match="prefix_cache_budget_bytes"):
            MemoryConfig(
                enable_prefix_cache=True, prefix_cache_budget_bytes=-1
            )


# ----------------------------------------------------------------------
# Manager API surface
# ----------------------------------------------------------------------
def _prefixed(rid: str) -> Request:
    return Request(
        request_id=rid,
        prompt_len=64,
        max_new_tokens=4,
        prefix=PrefixDescriptor(token_ids=tuple(range(32)), group=0),
    )


class TestFacadeApi:
    def test_facade_shares_tier_with_engine(self):
        engine = _engine(preemption_mode="tiered", swap_host_bytes=3 * GB)
        assert isinstance(engine.memory.tier, CpuKvTier)
        assert engine.memory.tier.capacity == 3 * GB

    def test_recompute_mode_has_no_tier(self):
        engine = _engine(preemption_mode="recompute")
        assert engine.memory.tier is None

    def test_tier_transfer_requires_tier(self):
        engine = _engine(preemption_mode="recompute")
        with pytest.raises(ValueError, match="no CPU tier"):
            engine.memory.tier_transfer("r", "out", nbytes=1)

    def test_tier_transfer_rejects_unknown_direction(self):
        engine = _engine(preemption_mode="tiered")
        with pytest.raises(ValueError, match="direction"):
            engine.memory.tier_transfer("r", "sideways", nbytes=1)

    def test_tier_transfer_round_trip(self):
        engine = _engine(preemption_mode="tiered")
        out = engine.memory.tier_transfer("r", "out", nbytes=1_000)
        assert out.nbytes == 1_000 and out.seconds > 0
        back = engine.memory.tier_transfer("r", "in")
        assert back.nbytes == 1_000
        assert back.seconds == out.seconds
        assert not engine.memory.tier.holds("r")

    def test_double_swap_out_rejected(self):
        engine = _engine(preemption_mode="tiered")
        engine.memory.tier_transfer("r", "out", nbytes=1_000)
        with pytest.raises(SchedulingError):
            engine.memory.tier_transfer("r", "out", nbytes=1_000)

    def test_backend_extras_live_on_the_backend(self):
        engine = _engine(enable_prefix_cache=True)
        memory = engine.memory
        # No pass-through layer: vattention introspection is reached on
        # the backend, and neither the manager nor the cache poses as
        # an allocator.
        assert not hasattr(memory, "manager")
        assert memory.backend.manager.config.shard is engine.config.shard
        assert isinstance(memory.backend, MemoryBackend)
        assert not isinstance(memory, MemoryBackend)
        assert not isinstance(memory.cache, MemoryBackend)
        assert isinstance(memory.cache, PrefixCacheManager)

    def test_allocate_request_reports_zero_transfer(self):
        engine = _engine(preemption_mode="tiered")
        request = Request(request_id="r", prompt_len=64, max_new_tokens=4)
        outcome = engine.memory.allocate_request(request)
        assert outcome.direction == "in"
        assert outcome.nbytes == 0 and outcome.seconds == 0.0
        assert request.memory_handle is not None

    def test_evict_releases_and_recomputes_without_tier(self):
        engine = _engine(preemption_mode="recompute")
        request = Request(request_id="r", prompt_len=64, max_new_tokens=4)
        engine.memory.allocate_request(request)
        request.state = RequestState.RUNNING
        outcome = engine.memory.evict(request)
        assert (outcome.direction, outcome.nbytes) == ("out", 0)
        assert outcome.mode == "recompute"
        assert request.memory_handle is None
        assert request.preemptions == 1

    def test_probe_without_cache_is_zero(self):
        engine = _engine()
        assert engine.memory.probe_prefix_tokens(range(32), limit=63) == 0

    def test_probe_with_cache_reads_the_tree(self):
        engine = _engine(enable_prefix_cache=True)
        memory = engine.memory
        request = _prefixed("a")
        memory.allocate_request(request)
        request.state = RequestState.RUNNING
        assert memory.allocate_tokens([request])
        request.record_prefill(engine.clock.now)
        memory.note_prefill_complete(request)
        tokens = request.prefix.token_ids
        assert memory.probe_prefix_tokens(tokens, limit=63) == 32
        assert memory.cache.tree.stats.lookups == 0  # probes are pure

    def test_telemetry_sample_merges_tier_gauges(self):
        engine = _engine(preemption_mode="tiered")
        sample = engine.memory.telemetry_sample()
        assert sample["kv_tier_usage"] == 0.0
        assert sample["tier_transfer_queue_depth"] == 0.0
        assert "tier_bytes_out_total" in sample

    def test_telemetry_sample_orders_backend_cache_tier(self):
        engine = _engine(preemption_mode="tiered", enable_prefix_cache=True)
        memory = engine.memory
        expected = [
            *memory.backend.telemetry_sample(),
            *memory.cache.telemetry_sample(),
            *memory.tier.telemetry_sample(),
        ]
        assert list(memory.telemetry_sample()) == expected

    def test_no_tier_no_tier_gauges(self):
        engine = _engine(preemption_mode="recompute")
        sample = engine.memory.telemetry_sample()
        assert "kv_tier_usage" not in sample
