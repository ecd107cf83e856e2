"""Generator layer: seeded, order-independent, JSON-round-trippable."""

import hashlib
import json

import pytest

from repro.core.params import NestParams
from repro.experiments.parallel import RunSpec
from repro.faults.plan import FaultConfig
from repro.hw.machines import ALL_MACHINES
from repro.kernel.scheduler_core import KernelConfig
from repro.verify.generate import (ABLATABLE_FEATURES, MACHINE_POOL,
                                   SCHEDULER_POOL, WORKLOAD_POOL,
                                   ScenarioGenerator)
from repro.workloads.catalog import workload_names

#: sha256 of the seed-1 corpus (200 scenarios, sorted-key JSON).  The CI
#: corpus check and every repro file's ``(base_seed, index)`` origin
#: depend on this stream: a change to the pools, the draw order or the
#: spec's fields moves it, and must be deliberate.
SEED1_CORPUS_SHA256 = (
    "f7d80552db9bf5e03180caf9de3c26f2ff778d83d66db2ff3b68012ca79d2753")


def test_same_seed_same_scenarios():
    a = ScenarioGenerator(7)
    b = ScenarioGenerator(7)
    assert [a.generate(i) for i in range(50)] == \
           [b.generate(i) for i in range(50)]


def test_different_seeds_diverge():
    a = [ScenarioGenerator(1).generate(i) for i in range(20)]
    b = [ScenarioGenerator(2).generate(i) for i in range(20)]
    assert a != b


def test_generation_is_order_independent():
    gen = ScenarioGenerator(3)
    forward = [gen.generate(i) for i in range(30)]
    backward = [gen.generate(i) for i in reversed(range(30))]
    assert forward == list(reversed(backward))
    # A fresh generator jumping straight to one index agrees too.
    assert ScenarioGenerator(3).generate(17) == forward[17]


def test_pools_reference_real_catalogue_entries():
    known = set(workload_names())
    for name, scales in WORKLOAD_POOL:
        assert name in known
        assert scales
    for key in MACHINE_POOL:
        assert key in ALL_MACHINES
    for feature in ABLATABLE_FEATURES:
        NestParams().without(feature)   # raises on unknown features


def test_generator_covers_the_interesting_space():
    gen = ScenarioGenerator(1)
    scenarios = [gen.generate(i) for i in range(200)]
    schedulers = {s.scheduler for s in scenarios}
    assert schedulers == set(SCHEDULER_POOL)
    assert any(s.nest_params is not None for s in scenarios)
    assert any(s.faults is not None for s in scenarios)
    assert any(s.max_us is not None for s in scenarios)
    assert len({s.workload for s in scenarios}) == len(WORKLOAD_POOL)


def test_scenario_json_roundtrip():
    gen = ScenarioGenerator(11)
    # The generator never sets kernel_config; one hand-made spec does.
    configured = RunSpec(workload="configure-gcc", machine="ryzen_4650g",
                         scheduler="nest", seed=5,
                         nest_params=NestParams(r_max=2, r_impatient=1),
                         kernel_config=KernelConfig(newidle_balance=False),
                         faults=FaultConfig(hotplug_rate_per_s=25.0))
    for sc in [gen.generate(i) for i in range(40)] + [configured]:
        cycled = RunSpec.from_dict(json.loads(json.dumps(sc.to_dict())))
        assert cycled == sc
        assert hash(cycled) == hash(sc)


def test_from_dict_loads_nine_key_scenario_json():
    """Repro files written before the verify layer used RunSpec carry
    nine keys (no ``kernel_config``, no ``record_trace``)."""
    data = {"workload": "deadline-periodic", "machine": "ryzen_4650g",
            "scheduler": "nest", "governor": "schedutil", "seed": 1,
            "scale": 0.5, "nest_params": {"r_max": 0},
            "faults": {"core_failure_rate_per_s": 50.0}, "max_us": None}
    sc = RunSpec.from_dict(data)
    assert sc.nest_params == NestParams(r_max=0)
    assert sc.faults == FaultConfig(core_failure_rate_per_s=50.0)
    assert sc.kernel_config is None and sc.record_trace is False


def test_seed1_corpus_is_pinned():
    gen = ScenarioGenerator(1)
    blob = json.dumps([gen.generate(i).to_dict() for i in range(200)],
                      sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == SEED1_CORPUS_SHA256


def test_generated_fault_configs_are_enabled():
    gen = ScenarioGenerator(1)
    faulted = [s for i in range(300) if (s := gen.generate(i)).faults]
    assert faulted
    for sc in faulted:
        assert sc.faults.enabled


def test_scenario_strategy_needs_hypothesis():
    pytest.importorskip("hypothesis")
    from repro.verify.generate import scenario_strategy
    strategy = scenario_strategy(base_seed=1)
    from hypothesis import given, settings

    seen = []

    @settings(max_examples=20, deadline=None)
    @given(strategy)
    def probe(scenario):
        seen.append(scenario)
        assert isinstance(scenario, RunSpec)

    probe()
    assert seen
