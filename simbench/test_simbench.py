"""Self-tests of the benchmark's own logic.

Run from the repository root: ``python3 -m pytest simbench -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import suite  # noqa: E402


# ---- tail percentile --------------------------------------------------------

@pytest.mark.parametrize("n", [11, 24, 72, 440])
def test_tail_leaves_ten_runs_beyond(n):
    samples = [float(i) for i in range(n, 0, -1)]
    value, pct, count = run.tail(samples)
    assert count == n
    assert sum(1 for s in samples if s > value) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_is_highest_such_percentile():
    samples = [float(i) for i in range(1, 25)]
    value, _pct, _n = run.tail(samples)
    # One rank higher would leave only nine runs beyond it.
    assert sum(1 for s in samples if s > value + 1) == 9


def test_tail_with_too_few_runs_is_the_minimum():
    assert run.tail([3.0, 1.0, 2.0])[0] == 1.0


# ---- calibration ----------------------------------------------------------------

def test_slowness_is_one_at_reference_speed_and_follows_elasticity():
    ref = calibrate.REFERENCE_S
    assert calibrate.slowness([ref, ref]) == pytest.approx(1.0)
    assert calibrate.slowness([ref, 3 * ref]) == pytest.approx(
        2.0 ** calibrate.ELASTICITY)
    assert calibrate.sample() > 0


# ---- self time ----------------------------------------------------------------

class FakeClock:
    """Each read advances time by one second."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_self_time_subtracts_nested_spans():
    rec = spans.Recorder(clock=FakeClock())
    inner = rec.wrap(lambda: None, "hw.inner")
    same = rec.wrap(lambda: inner(), "kernel.same")     # same layer: no span
    outer = rec.wrap(lambda: [inner(), same()], "kernel.outer")
    with rec.run("r1"):
        outer()
    totals = rec.totals()
    # Clock reads after the recorder's own: run 2, outer 3, inner 4-5,
    # inner 6-7 (through ``same``), outer 8, run 9.
    assert totals["hw.inner"] == [2, 2.0, 2.0]
    assert totals["kernel.outer"] == [1, 5.0 - 2.0, 5.0]
    assert "kernel.same" not in totals
    assert totals["other.run"] == [1, 7.0 - 5.0, 7.0]
    layer = spans.layer_metrics(totals)
    assert layer["kernel.self_s"] == 3.0
    assert layer["hw.self_s"] == 2.0
    assert layer["other.self_s"] == 2.0


def test_count_all_counts_same_layer_calls_without_spans():
    rec = spans.Recorder(clock=FakeClock())
    op = rec.wrap(lambda: None, "kernel.op", count_all=True)
    outer = rec.wrap(lambda: op(), "kernel.outer")
    with rec.run("r1"):
        outer()
        op()
    totals = rec.totals()
    assert totals["kernel.op"][0] == 2
    assert totals["kernel.op"][1] == 1.0      # only the crossing call timed


def test_coarse_spans_record_parent_and_run():
    rec = spans.Recorder(clock=FakeClock())
    eng = rec.wrap(lambda: None, "sim.run")
    exp = rec.wrap(lambda: eng(), "experiments.run_experiment")
    with rec.run("r7"):
        exp()
    by_name = {s[1]: s for s in rec.spans}
    root, e, s = (by_name["other.run"], by_name["experiments.run_experiment"],
                  by_name["sim.run"])
    assert e[4] == root[0] and s[4] == e[0]
    assert {sp[5] for sp in rec.spans} == {"r7"}
    assert all(sp[2] < sp[3] for sp in rec.spans)


# ---- digests and failures ------------------------------------------------------

CHEAP = suite.Run("configure-gcc", "5218_2s", "nest", "schedutil", 1, 0.6)


def test_forced_digest_mismatch_counts_as_failure(monkeypatch):
    api = suite.load_api()
    tally = run.Tally()
    p = run.run_pass(api, [CHEAP], tally)
    pins = {"configure-suite": {CHEAP.key: p.digests[CHEAP.key]}}
    monkeypatch.setattr(suite, "load_pins", lambda: pins)
    run.check_pins("configure-suite", suite.DEFAULT_SEED, api, [p], tally)
    assert tally.failed == 0
    pins["configure-suite"][CHEAP.key] = "0" * 16
    run.check_pins("configure-suite", suite.DEFAULT_SEED, api, [p], tally)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_pass_disagreement_counts_as_failure():
    a, b = run.Pass(), run.Pass()
    a.digests, b.digests = {"k": "1"}, {"k": "2"}
    tally = run.Tally()
    run.check_passes([a, b], tally, "untraced")
    assert tally.failed == 1


def test_pins_cover_every_default_seed_run():
    pins = suite.load_pins()
    for workload in suite.WORKLOADS:
        keys = {r.key for r in suite.runs_for(workload, suite.DEFAULT_SEED)}
        assert set(pins[workload]) == keys
        assert {r.key for r in suite.canary_runs(workload)} <= keys


# ---- seeds -------------------------------------------------------------------------

@pytest.mark.parametrize("workload", suite.WORKLOADS)
def test_seed_changes_the_generated_runs(workload):
    one, again, two = (suite.runs_for(workload, 1),
                       suite.runs_for(workload, 1),
                       suite.runs_for(workload, 2))
    assert one == again
    assert len(one) == len(two)
    assert {r.seed for r in one}.isdisjoint({r.seed for r in two})
    # Only the simulation seeds change; the mix stays the same.
    strip = [(r.workload, r.machine, r.scheduler, r.governor) for r in one]
    assert strip == [(r.workload, r.machine, r.scheduler, r.governor)
                     for r in two]


# ---- tracing -----------------------------------------------------------------------

def test_tracing_is_read_only_and_restores_classes():
    from repro.hw.freqmodel import FreqModel
    from repro.kernel.scheduler_core import Kernel
    from repro.sim.queue import EventQueue

    before = (dict(Kernel.__dict__), dict(FreqModel.__dict__),
              EventQueue.__dict__["pop"])
    api = suite.load_api()
    plain = suite.execute(api, CHEAP).digest
    rec = spans.Recorder()
    with spans.instrumented(rec) as inst:
        with rec.run("r"):
            traced = suite.execute(inst.api(api), CHEAP).digest
    assert traced == plain
    assert before == (dict(Kernel.__dict__), dict(FreqModel.__dict__),
                      EventQueue.__dict__["pop"])
    layer = spans.layer_metrics(rec.totals())
    assert layer["sim.events_dispatched"] > 0
    assert layer["sched.select_calls"] > 0
    assert layer["obs.emit_calls"] == 0


# ---- BENCHMARK.json ----------------------------------------------------------------

def test_benchmark_json_matches_the_code():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(suite.WORKLOADS)
    assert ({m["name"] for m in doc["end_to_end"]}
            == set(run.UNITS) - {"failed_frac"})
    per_layer = [m["name"] for m in doc["per_layer"]]
    assert per_layer == list(spans.layer_metrics({})) + ["trace.overhead_pct"]
    for m in doc["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    rows = json.loads((HERE / "predictions.json").read_text())["rows"]
    predicted = [n for row in rows for n in row["layer_metrics"]]
    assert sorted(predicted) == sorted(per_layer)
    e2e = {m["name"] for m in doc["end_to_end"]}
    for row in rows:
        assert set(row["moves"]) <= e2e
        assert set(row["workloads"]) <= set(suite.WORKLOADS)
