"""The ``benchmarks/profile_sweep.py --json`` record: per-pass noise fields."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.obs.history import trajectory_entries

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / \
    "profile_sweep.py"


@pytest.fixture
def profile_sweep():
    spec = importlib.util.spec_from_file_location("profile_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_record_has_per_pass_median_min_max(profile_sweep, monkeypatch):
    """Each pass is timed on its own; ``wall_s`` stays the total."""
    passes = iter([2.0, 5.0, 3.0])
    clock = SimpleNamespace(now=100.0)

    def fake_run_sweep(sweep):
        clock.now += next(passes)
        return [SimpleNamespace(events_processed=1_000)]

    monkeypatch.setattr(profile_sweep, "run_sweep", fake_run_sweep)
    monkeypatch.setattr(profile_sweep, "time",
                        SimpleNamespace(perf_counter=lambda: clock.now))
    monkeypatch.setattr(profile_sweep, "_git_sha", lambda: "abc1234")

    record = profile_sweep.benchmark_record(["one sim"], "stub sweep", 3)
    assert record["wall_s"] == 10.0
    assert record["wall_s_median"] == 3.0
    assert record["wall_s_min"] == 2.0
    assert record["wall_s_max"] == 5.0
    assert record["n_simulations"] == 3
    assert record["events_per_sec"] == 300.0

    # The trajectory export still reads the total.
    (entry,) = trajectory_entries(record, pr=1)
    assert entry["wall_s"] == 10.0


def test_single_pass_fields_agree(profile_sweep, monkeypatch):
    clock = SimpleNamespace(now=0.0)

    def fake_run_sweep(sweep):
        clock.now += 1.25
        return []

    monkeypatch.setattr(profile_sweep, "run_sweep", fake_run_sweep)
    monkeypatch.setattr(profile_sweep, "time",
                        SimpleNamespace(perf_counter=lambda: clock.now))
    monkeypatch.setattr(profile_sweep, "_git_sha", lambda: "abc1234")

    record = profile_sweep.benchmark_record([], "empty", 1)
    assert (record["wall_s"], record["wall_s_median"], record["wall_s_min"],
            record["wall_s_max"]) == (1.25, 1.25, 1.25, 1.25)
