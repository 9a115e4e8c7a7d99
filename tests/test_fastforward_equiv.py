"""Decode fast-forwarding is invisible in every report.

Two layers of enforcement:

* The FCFS golden scenarios (captured from the legacy per-iteration
  loop, ``tests/golden/fcfs_reports.json``) re-run with
  ``fast_forward=True`` must reproduce the golden's request-level
  timing byte-for-byte and its per-phase totals bit-for-bit — only the
  record *grouping* may differ.
* An on/off sweep over every engine-driven experiment in the catalogue:
  each driver runs once with fast-forwarding and once without (flipped
  through the module default), and the experiment's own output rows
  must compare equal — floats included, no tolerance. Experiments that
  never construct a serving engine (pure cost-model tables) have
  nothing to sweep; the two that pin ``fast_forward=False`` internally
  (fig12, ext-chunked: their *subject* is the per-iteration series)
  still run to prove the pin holds.

There is one stretch series, in pure Python, so each scenario runs
once; ``tests/test_kernels.py`` pins the kernels' attention series to
their scalar form float for float, and a proof's series is checked
against the clock of a per-iteration run under every backend. No
package of the simulator imports numpy.

A resumed stretch (a prep whose ``base`` advanced past a stop-time cut)
is held to a third bar: at every resume, a fresh proof of the same
state must stage the same stretch, field by field, and its series must
equal the resumed prep's cached suffix float for float.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fcfs_golden
import repro.serving.engine as engine_module
import repro.sim.fastforward as fastforward_module
from repro.cluster.autoscaler import AUTOSCALER_POLICIES
from repro.cluster.engine import ClusterEngine
from repro.cluster.router import policy_names
from repro.experiments import (
    ext_autoscale,
    ext_cluster_router,
    ext_prefix_cache,
    ext_sched_policy,
    ext_swap_policy,
    ext_uvm_limitations,
    fig08_decode_throughput,
    fig09_offline_throughput,
    fig10_online_latency,
    fig11_fa3_portability,
    fig12_overlap_ablation,
    fig15_max_batch_size,
)
from repro.gpu.spec import A100, H100
from repro.memory import MemoryConfig
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.serving.engine import EngineConfig, LLMEngine
from repro.serving.memory import _PagedDecodePlan
from repro.serving.request import Request
from repro.sim.fastforward import DecodeFastForwarder
from repro.units import GB, MB
from repro.workloads.arrival import poisson_arrivals
from repro.workloads.traces import fixed_trace, shared_prefix_trace


# ----------------------------------------------------------------------
# Golden scenarios with the fast path on
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden():
    with open(fcfs_golden.GOLDEN_PATH) as handle:
        return json.load(handle)


def assert_matches_golden(golden, scenario):
    live = fcfs_golden.canonicalize(
        fcfs_golden.SCENARIOS[scenario](fast_forward=True)
    )
    assert fcfs_golden.summarize(live) == fcfs_golden.summarize(
        golden[scenario]
    )
    # Strongest form: the per-iteration latency series (stretches
    # expanded through their stored values) is byte-identical to the
    # legacy loop's, entry for entry.
    assert fcfs_golden.iteration_series(live) == (
        fcfs_golden.iteration_series(golden[scenario])
    )


class TestGoldenEquivalence:
    @pytest.mark.parametrize("scenario", sorted(fcfs_golden.SCENARIOS))
    def test_fast_forward_matches_golden(self, golden, scenario):
        assert_matches_golden(golden, scenario)

    @pytest.mark.parametrize("scenario", sorted(fcfs_golden.SCENARIOS))
    def test_fast_forward_aggregates_records(self, golden, scenario):
        """The fast path must actually engage — fewer records than
        iterations — otherwise the equivalence above proves nothing."""
        live = fcfs_golden.canonicalize(
            fcfs_golden.SCENARIOS[scenario](fast_forward=True)
        )
        iterations = sum(
            r.get("iterations", 1) for r in live["iterations"]
        )
        assert iterations == len(golden[scenario]["iterations"])
        assert len(live["iterations"]) < iterations


# ----------------------------------------------------------------------
# The experiment-catalogue sweep
# ----------------------------------------------------------------------
#: Engine-driven catalogue entries, reduced to test scale. Catalogue
#: entries absent here run no serving engine (kernel/cost-model tables:
#: fig02-04, fig07, fig13, fig14, tab03-tab10, ext-sharing,
#: ext-large-models) — there is no iteration loop to fast-forward.
SWEEP = {
    "fig08": lambda: fig08_decode_throughput.run(
        models=[(YI_6B, 1)], batches=(1, 16), decode_iterations=60
    ),
    "fig09": lambda: fig09_offline_throughput.run(
        models=[(YI_6B, 1)], request_count=12
    ),
    "fig10": lambda: fig10_online_latency.run(
        grid=[(YI_6B, (2.0,))],
        systems=("FA2_Paged", "FA2_vAttention"),
        request_count=40,
    ),
    "fig11": lambda: fig11_fa3_portability.run(
        models=[(YI_6B, 1)], request_count=10
    ),
    "fig12": lambda: fig12_overlap_ablation.run(decode_iterations=80),
    "fig15": lambda: fig15_max_batch_size.run(
        models=[(YI_6B, 1)], page_group_sizes=(2 * MB,), request_count=24
    ),
    "ext-prefix-cache": lambda: ext_prefix_cache.run(sharing_factors=(4,)),
    "ext-sched-policy": lambda: ext_sched_policy.run(count=40, qps=6.0),
    "ext-swap": lambda: ext_swap_policy.run(prompts=(8_192,)),
    "ext-uvm": lambda: ext_uvm_limitations.run(request_count=60, qps=6.0),
    "ext-cluster-router": lambda: ext_cluster_router.run(
        replica_counts=(2,),
        policies=("round_robin", "cache_aware"),
        sharing_factors=(4,),
        count=24,
        qps=8.0,
    ),
}


class TestCatalogueSweep:
    @pytest.mark.parametrize("name", sorted(SWEEP))
    def test_identical_on_and_off(self, name, monkeypatch):
        monkeypatch.setattr(engine_module, "DEFAULT_FAST_FORWARD", True)
        fast = SWEEP[name]()
        monkeypatch.setattr(engine_module, "DEFAULT_FAST_FORWARD", False)
        legacy = SWEEP[name]()
        assert fast == legacy


# ----------------------------------------------------------------------
# The cluster-catalogue sweep (joint-horizon fleet loop on vs off)
# ----------------------------------------------------------------------
# Every cluster-driven experiment configuration, at test scale: the
# three routing policies, the disaggregated prefill/decode split, and
# one fleet per autoscaler policy. The template engine config's
# ``fast_forward`` drives both the fleet loop and every replica's decode
# fast-forwarding, so one flip of the module default toggles both.
CLUSTER_COUNT = 24
CLUSTER_QPS = 8.0


def _router_case(policy):
    def case():
        return ext_cluster_router.serve(
            2, policy, sharing_factor=4, count=CLUSTER_COUNT, qps=CLUSTER_QPS
        )

    return case


def _disagg_case(
    interconnect, count=CLUSTER_COUNT, sharing_factor=4, qps=CLUSTER_QPS
):
    def case():
        cluster = ext_cluster_router.build_cluster(
            4,
            "cache_aware",
            disaggregated=True,
            n_prefill_replicas=2,
            interconnect=interconnect,
        )
        cluster.submit(
            ext_cluster_router.cluster_trace(
                count=count, sharing_factor=sharing_factor, qps=qps
            )
        )
        return cluster.run()

    return case


def _autoscale_case(fleet):
    def case():
        return ext_autoscale.serve(fleet, count=160, qps=4.0)

    return case


def _windowed_case(fleet, policy):
    """An elastic fleet routed by ``policy`` instead of the autoscale
    experiment's baked-in ``least_outstanding_tokens``.

    These are the arrival-window fast paths under scale lifecycle:
    state-aware policies route whole windows against persistent
    analytic replica views that must survive (or be correctly replaced
    across) scale-ups, drains, and SCALE_DECIDE window splits."""

    def case():
        base = ext_autoscale.build_fleet(fleet).config
        cluster = ClusterEngine(
            dataclasses.replace(base, routing_policy=policy)
        )
        cluster.submit(
            ext_cluster_router.cluster_trace(
                count=160,
                sharing_factor=4,
                prefix_tokens=ext_autoscale.PREFIX_TOKENS,
                qps=4.0,
            )
        )
        return cluster.run()

    return case


CLUSTER_SWEEP = {
    **{
        f"router:{policy}": _router_case(policy) for policy in policy_names()
    },
    "disagg:nvlink": _disagg_case("nvlink"),
    "disagg:pcie": _disagg_case("pcie"),
    # The catalogue's disaggregation cells: the sweep-granularity check.
    # Their KV transfers contend for the link, and the fast loop routes
    # their arrivals in windows while the legacy loop sweeps the prefill
    # tier per arrival; both must hand the link the same request order,
    # which the 24-request cells above queue too little to show.
    **{
        f"disagg:{interconnect}:catalogue": _disagg_case(
            interconnect,
            count=ext_cluster_router.REQUESTS,
            sharing_factor=8,
            qps=ext_cluster_router.QPS,
        )
        for interconnect in ("nvlink", "pcie")
    },
    "autoscale:static_min": _autoscale_case("static_min"),
    "autoscale:queue_depth": _autoscale_case("queue_depth"),
    "autoscale:sla": _autoscale_case("sla"),
    **{
        f"windowed:{fleet}:{policy}": _windowed_case(fleet, policy)
        for fleet in ("queue_depth", "sla")
        for policy in ("round_robin", "cache_aware")
    },
}


def _cluster_fingerprint(report):
    """Request-level exactness: every per-request timing, byte for byte,
    plus the fleet-level aggregates a report exposes."""
    return (
        repr(report.end_time),
        report.n_replicas,
        report.migrations,
        report.migrated_bytes,
        repr(report.migration_seconds),
        repr(report.replica_seconds),
        report.peak_serving,
        len(report.scale_events),
        tuple(
            (
                record.request_id,
                record.replica,
                record.decode_replica,
                repr(record.ttft),
                repr(record.e2e_latency),
                repr(record.serve_request.finish_time),
            )
            for record in sorted(
                report.records, key=lambda record: record.request_id
            )
        ),
    )


def assert_cluster_identical_on_and_off(name, monkeypatch):
    monkeypatch.setattr(engine_module, "DEFAULT_FAST_FORWARD", True)
    fast = _cluster_fingerprint(CLUSTER_SWEEP[name]())
    monkeypatch.setattr(engine_module, "DEFAULT_FAST_FORWARD", False)
    legacy = _cluster_fingerprint(CLUSTER_SWEEP[name]())
    assert fast == legacy


class TestClusterSweep:
    @pytest.mark.parametrize("name", sorted(CLUSTER_SWEEP))
    def test_identical_on_and_off(self, name, monkeypatch):
        assert_cluster_identical_on_and_off(name, monkeypatch)

    def test_covers_every_routing_policy(self):
        swept = {
            name.split(":", 1)[1]
            for name in CLUSTER_SWEEP
            if name.startswith("router:")
        }
        assert swept == set(policy_names())

    def test_covers_router_by_autoscaler_matrix(self):
        """Every routing policy runs under every autoscaler policy
        somewhere in the sweep: router:* pins static fleets, the
        autoscale:* shapes pin ``least_outstanding_tokens`` under each
        elastic autoscaler, and windowed:* fills in the remaining
        elastic x policy cells."""
        covered = set()
        for policy in policy_names():
            covered.add(("static", policy))  # router:<policy>
        for fleet in ("static_min", "queue_depth", "sla"):
            autoscaler = ext_autoscale.FLEETS[fleet][0]
            covered.add((autoscaler, "least_outstanding_tokens"))
        for name in CLUSTER_SWEEP:
            if not name.startswith("windowed:"):
                continue
            _, fleet, policy = name.split(":")
            covered.add((ext_autoscale.FLEETS[fleet][0], policy))
        wanted = {
            (autoscaler, policy)
            for autoscaler in AUTOSCALER_POLICIES
            for policy in policy_names()
        }
        assert wanted <= covered

    def test_covers_every_autoscaler_policy(self):
        swept = {
            name.split(":", 1)[1]
            for name in CLUSTER_SWEEP
            if name.startswith("autoscale:")
        }
        policies = {ext_autoscale.FLEETS[fleet][0] for fleet in swept}
        assert policies == set(AUTOSCALER_POLICIES)

    def test_covers_every_cluster_driver(self):
        """A new cluster-driven experiment module must join the sweep."""
        import pathlib

        import repro.experiments

        root = pathlib.Path(repro.experiments.__file__).parent
        drivers = {
            path.stem
            for path in root.glob("*.py")
            if "ClusterEngine(" in path.read_text()
        }
        assert drivers == {"ext_cluster_router", "ext_autoscale"}


# ----------------------------------------------------------------------
# The simulator imports no third-party module
# ----------------------------------------------------------------------
#: Imports the simulator's packages and serves a two-replica vAttention
#: fleet to completion, fast-forwarding stretches on the way.
NO_NUMPY_SCRIPT = """
import sys

import repro.cluster
import repro.experiments
import repro.serving.engine
from repro.cluster import ClusterConfig, ClusterEngine
from repro.gpu.spec import A100, H100
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.serving.engine import EngineConfig
from repro.workloads.arrival import poisson_arrivals
from repro.workloads.traces import sharegpt_trace

fleet = ClusterEngine(
    ClusterConfig(
        engine=EngineConfig(
            shard=ShardedModel(YI_6B, 1),
            gpu=A100,
            memory_backend="vattention",
            max_batch_size=8,
        ),
        n_replicas=2,
        routing_policy="least_outstanding_tokens",
    )
)
fleet.submit(sharegpt_trace(poisson_arrivals(qps=4.0, count=24, seed=5)))
report = fleet.run()
assert len(report.records) == 24, len(report.records)
engines = [replica.engine for replica in fleet.replicas]
assert sum(e._fast.analytic_iterations for e in engines) > 0
assert "numpy" not in sys.modules, "the simulator imported numpy"
"""


def run_without_numpy(script):
    """Run ``script`` in a fresh interpreter that can import ``repro``."""
    src = str(Path(fastforward_module.__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_simulator_never_imports_numpy():
    """The stretch series is pure Python: serving a fleet loads no
    numpy, even where it is installed."""
    result = run_without_numpy(NO_NUMPY_SCRIPT)
    assert result.returncode == 0, result.stderr


#: Every package of the simulator, plus its command-line entry point.
REPRO_PACKAGES = ["repro", "repro.__main__"] + sorted(
    f"repro.{path.parent.name}"
    for path in Path(fastforward_module.__file__).resolve().parents[1].glob(
        "*/__init__.py"
    )
)


@pytest.mark.parametrize("package", REPRO_PACKAGES)
def test_package_imports_no_numpy(package):
    """No package pulls numpy in at import time, so the guard above
    holds for every entry point, not only the fleet it serves."""
    result = run_without_numpy(
        f"import sys, {package}\n"
        f"assert 'numpy' not in sys.modules, 'importing {package} loaded numpy'\n"
    )
    assert result.returncode == 0, result.stderr


# ----------------------------------------------------------------------
# The stretch series is the stepped clock
# ----------------------------------------------------------------------
#: (memory backend, decode kernel, GPU, KV block size) pairings a
#: stretch is priced under. Paged plans have no constant overhead (their
#: Block-Table preparation grows with block counts), so they take the
#: ``overhead_at`` branch of ``_series``; the rest take the constant.
SERIES_CASES = {
    "vattention:fa2": ("vattention", "fa2", A100, 16),
    "vattention:fi": ("vattention", "fi", A100, 16),
    "vattention:fa3": ("vattention", "fa3", H100, 16),
    "paged:fa2_paged": ("paged", "fa2_paged", A100, 64),
    "paged:fi_paged": ("paged", "fi_paged", A100, 16),
    "paged:vllm_paged": ("paged", "vllm_paged", A100, 16),
    "static:fa2": ("static", "fa2", A100, 16),
    "uvm:fa2": ("uvm", "fa2", A100, 16),
}


def _series_engine(backend, kernel, gpu, block_size, fast_forward):
    engine = LLMEngine(
        EngineConfig(
            shard=ShardedModel(YI_6B, 1),
            gpu=gpu,
            memory_backend=backend,
            decode_kernel=kernel,
            max_batch_size=8,
            block_size=block_size,
            fast_forward=fast_forward,
        )
    )
    engine.submit(fixed_trace(count=4, prompt_len=500, max_new_tokens=64))
    return engine


@pytest.mark.parametrize("case", sorted(SERIES_CASES))
def test_series_is_the_stepped_clock(case):
    """``_series`` over a proof's whole horizon reproduces the clock of
    the per-iteration loop float for float: every iteration's start
    time, and the time the last one ends."""
    backend, kernel, gpu, block_size = SERIES_CASES[case]
    engine = _series_engine(backend, kernel, gpu, block_size, fast_forward=True)
    prep = engine._fast.prepare(math.inf)
    while prep is None:  # step through the prefills
        engine.run_until(math.nextafter(engine.clock.now, math.inf))
        prep = engine._fast.prepare(math.inf)
    if backend == "paged":
        assert prep.overhead is None
    else:
        assert prep.overhead is not None
    compute, starts = fastforward_module._series(prep)
    n = prep.horizon
    assert len(compute) == n and len(starts) == n + 1

    stepped = _series_engine(
        backend, kernel, gpu, block_size, fast_forward=False
    )
    stepped.run()
    clock = [r.start_time for r in stepped.metrics.iterations]
    clock.append(stepped.clock.now)
    first = clock.index(prep.start)
    assert [t.hex() for t in starts] == [
        t.hex() for t in clock[first : first + n + 1]
    ]


# ----------------------------------------------------------------------
# Resumed stretches equal fresh proofs
# ----------------------------------------------------------------------
#: Per-stretch constants a resumed prep must share with a fresh proof.
RESUME_FIELDS = ("batch_size", "overhead")


def _swept_in_steps(engine):
    """Sweep ``engine`` in short ``run_until`` steps, so deadlines cut
    its decode stretches over and over (and most cuts resume). Returns
    every request's timing, plus the clock and vAttention's counters
    after every step."""
    manager = getattr(engine.memory.backend, "manager", None)
    steps = []
    deadline = engine.clock.now
    while engine.has_work():
        deadline += 0.05
        engine.run_until(deadline)
        steps.append(
            (repr(engine.clock.now), repr(manager.stats) if manager else None)
        )
    timings = [
        (r.request_id, repr(r.first_token_time), repr(r.finish_time))
        for r in engine._all_requests
    ]
    return timings, steps


def _deadline_driven(**overrides):
    def case():
        config = dict(
            shard=ShardedModel(YI_6B, 1),
            gpu=A100,
            memory_backend="vattention",
            max_batch_size=4,
        )
        config.update(overrides)
        engine = LLMEngine(EngineConfig(**config))
        engine.submit(
            fixed_trace(
                count=8,
                prompt_len=600,
                max_new_tokens=160,
                arrivals=poisson_arrivals(qps=2.0, count=8, seed=13),
            )
        )
        return _swept_in_steps(engine)

    return case


def _evicting_admission():
    """A failed admission check that evicts a cached prefix between a
    cut and its resume: the freed slot turns inactive with its rows
    still mapped, which a fresh plan's eager allocation and reclamation
    would see — so the stretch must not resume across it."""
    engine = LLMEngine(
        EngineConfig(
            shard=ShardedModel(YI_6B, 1),
            gpu=A100,
            memory_backend="vattention",
            max_batch_size=4,
            kv_budget_bytes=1_536 * MB,
            memory=MemoryConfig(enable_prefix_cache=True),
        )
    )
    (cached,) = shared_prefix_trace(
        count=1, sharing_factor=1, prefix_tokens=6_000, seed=3, arrivals=[0.0]
    )
    cached.max_new_tokens = 2
    engine.submit([cached])
    engine.run_until(math.inf)
    now = engine.clock.now
    engine.submit(
        fixed_trace(
            count=2, prompt_len=500, max_new_tokens=300, arrivals=[now, now]
        )
    )
    # Does not fit even after evicting the prefix, until the decodes
    # finish.
    engine.submit(
        fixed_trace(
            count=1,
            prompt_len=22_000,
            max_new_tokens=4,
            name="big",
            arrivals=[now + 0.5],
        )
    )
    return _swept_in_steps(engine)


def _reclaim_idle():
    """Eight decodes of staggered lengths fill a 16-row pool, so the
    free pool sits below vAttention's reclamation threshold. A
    completion leaves its slot's rows mapped for a later reclamation
    pass to drain; after that, passes reclaim nothing, and an idle pass
    lets a stretch skip its hooks up to the next crossing, across every
    deadline cut. Without eager allocation nothing else forces the
    reclaiming hooks to run."""
    engine = LLMEngine(
        EngineConfig(
            shard=ShardedModel(YI_6B, 1),
            gpu=A100,
            memory_backend="vattention",
            max_batch_size=8,
            kv_budget_bytes=2 * GB,
            eager_allocation=False,
        )
    )
    engine.submit(
        [
            Request(
                request_id=f"r{index}",
                prompt_len=2_000,
                max_new_tokens=max_new_tokens,
                arrival_time=0.0,
            )
            for index, max_new_tokens in enumerate(
                (300, 1_200, 600, 1_500, 900, 1_800, 450, 2_100)
            )
        ]
    )
    return _swept_in_steps(engine)


RESUME_SCENARIOS = {
    **{
        f"golden:{name}": (lambda name=name: fcfs_golden.SCENARIOS[name](
            fast_forward=True
        ))
        for name in fcfs_golden.SCENARIOS
    },
    **{f"cluster:{name}": case for name, case in CLUSTER_SWEEP.items()},
    "deadlines:vattention": _deadline_driven(),
    "deadlines:vattention_no_overlap": _deadline_driven(
        overlap_allocation=False
    ),
    "deadlines:uvm": _deadline_driven(memory_backend="uvm"),
    "deadlines:static": _deadline_driven(memory_backend="static"),
    "deadlines:evicting_admission": _evicting_admission,
    "deadlines:reclaim_idle": _reclaim_idle,
    "deadlines:paged": _deadline_driven(
        memory_backend="paged",
        prefill_kernel="fa2_paged",
        decode_kernel="fa2_paged",
        block_size=64,
    ),
}


def resumes_checked_against_fresh_proofs(scenario, monkeypatch):
    """Run ``scenario``; after every stretch that resumes, re-prove the
    state it left and compare. Returns the number of resumes checked."""
    monkeypatch.setattr(engine_module, "DEFAULT_FAST_FORWARD", True)
    real_finish = DecodeFastForwarder.finish
    checked = []
    staged = {}

    def evictions(engine):
        cache = engine.memory.cache
        return cache.stats.evictions if cache is not None else 0

    def finish(self, prep):
        engine = self.engine
        if prep.base:
            # Nothing outside the stamp changed memory since the stage.
            assert staged[id(prep)] == (prep.base, evictions(engine))
        executed = real_finish(self, prep)
        if not (
            executed
            and self._memo is prep
            and prep.base
            and self._memo_state == (engine._batch_version, engine.clock.now)
        ):
            return executed
        staged[id(prep)] = (prep.base, evictions(engine))
        counters = (self.proofs, self.plans)
        fresh = self._prove()
        self.proofs, self.plans = counters
        assert fresh is not None, "a fresh proof declined a resumed stretch"
        assert fresh.batch == prep.batch
        for name in RESUME_FIELDS:
            assert getattr(fresh, name) == getattr(prep, name), name
        base = prep.base
        compute, starts = prep.series()
        assert fresh.start == starts[base]
        assert fresh.total_tokens == (
            prep.total_tokens + base * prep.batch_size
        )
        remaining = prep.horizon - base
        if isinstance(prep.plan, _PagedDecodePlan):
            assert remaining <= fresh.horizon
        else:
            assert remaining == fresh.horizon
        # The fresh proof's series is the cached suffix, float for
        # float (a paged resume may cover fewer iterations).
        fresh_compute, fresh_starts = fastforward_module._series(fresh)
        assert fresh_compute[:remaining] == compute[base:]
        assert fresh_starts[: remaining + 1] == starts[base:]
        checked.append(base)
        return executed

    monkeypatch.setattr(DecodeFastForwarder, "finish", finish)
    RESUME_SCENARIOS[scenario]()
    return len(checked)


def assert_deadline_driven_exact(scenario, monkeypatch):
    """A deadline-driven scenario serves identically with the fast path
    on (resuming at every cut) and off."""
    monkeypatch.setattr(engine_module, "DEFAULT_FAST_FORWARD", True)
    fast = RESUME_SCENARIOS[scenario]()
    monkeypatch.setattr(engine_module, "DEFAULT_FAST_FORWARD", False)
    assert fast == RESUME_SCENARIOS[scenario]()


class TestResumeExactness:
    @pytest.mark.parametrize("scenario", sorted(RESUME_SCENARIOS))
    def test_resume_equals_fresh_proof(self, scenario, monkeypatch):
        resumed = resumes_checked_against_fresh_proofs(scenario, monkeypatch)
        if scenario.startswith("deadlines:"):
            # These exist to resume on every backend: they must, and
            # they must stay exact.
            assert resumed, f"{scenario} never resumed a stretch"
            assert_deadline_driven_exact(scenario, monkeypatch)
