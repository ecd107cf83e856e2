"""Hardened sweep execution: crash/hang recovery, checkpoints, quarantine.

The chaos worker hook (``$REPRO_CHAOS`` + ``$REPRO_CHAOS_DIR``) faults each
spec's *worker process* exactly once — a crash (`os._exit`) or a hang — so
these tests drive the executor's retry, timeout, degradation and resume
machinery end to end with real process pools.
"""

import hashlib
import json
import os

import pytest

from repro.experiments import cache as cache_mod
from repro.experiments.cache import (QUARANTINE_DIR, ResultCache,
                                     atomic_write_json, spec_key)
from repro.experiments.parallel import (RunSpec, SweepExecutor, SweepFailure,
                                        execute_spec)
from repro.faults import FaultConfig
from repro.obs.history import HistoryStore
from repro.obs.telemetry.hub import TelemetryHub

SPECS = [
    RunSpec(workload="phoronix-libavif-avifenc-1", machine="5218_2s",
            scheduler=sched, governor="schedutil", seed=seed, scale=0.3)
    for sched in ("cfs", "nest")
    for seed in (1, 2)
]


def assert_results_identical(a, b):
    assert a.makespan_us == b.makespan_us
    assert a.energy_joules == b.energy_joules
    assert a.metrics == b.metrics
    assert a.policy_stats == b.policy_stats


@pytest.fixture
def chaos(monkeypatch, tmp_path):
    """Arm the chaos worker hook; returns a setter for the mode list."""
    sentinel_dir = tmp_path / "sentinels"
    sentinel_dir.mkdir()
    monkeypatch.setenv("REPRO_CHAOS_DIR", str(sentinel_dir))

    def arm(modes):
        monkeypatch.setenv("REPRO_CHAOS", modes)

    return arm


class TestChaosHook:
    def test_inert_in_parent_process(self, chaos):
        """The hook must never fault the parent (serial/degraded path)."""
        chaos("crash-once")
        res = execute_spec(SPECS[0])     # would os._exit(23) if buggy
        assert res.makespan_us > 0

    def test_inert_without_env(self):
        assert execute_spec(SPECS[0]).makespan_us > 0


class TestCrashRecovery:
    def test_crashed_workers_retried_to_completion(self, chaos):
        chaos("crash-once")
        ex = SweepExecutor(jobs=2, retries=2)
        results = ex.run(SPECS)
        assert all(r is not None for r in results)
        assert ex.last_stats.retried > 0
        assert "retried" in ex.last_stats.summary()
        # Recovery must not change the science: same results as serial.
        for spec, res in zip(SPECS, results):
            assert_results_identical(res, execute_spec(spec))

    def test_pool_break_degrades_to_serial(self, chaos):
        chaos("crash-once")
        ex = SweepExecutor(jobs=2, retries=0)
        results = ex.run(SPECS)
        assert all(r is not None for r in results)
        assert ex.last_stats.degraded
        assert "degraded to serial" in ex.last_stats.summary()


class TestHangRecovery:
    def test_hung_pool_timed_out_and_retried(self, chaos):
        chaos("hang-once")
        ex = SweepExecutor(jobs=2, retries=2, timeout_s=1.0)
        results = ex.run(SPECS[:2])
        assert all(r is not None for r in results)
        assert ex.last_stats.timeouts >= 1
        for spec, res in zip(SPECS[:2], results):
            assert_results_identical(res, execute_spec(spec))


class TestFailureBudget:
    BAD = RunSpec(workload="no-such-workload", machine="5218_2s")

    def test_exhausted_retries_raise_sweep_failure(self):
        ex = SweepExecutor(jobs=1, retries=1, backoff_s=0.0)
        with pytest.raises(SweepFailure, match="no-such-workload"):
            ex.run([self.BAD])

    def test_skip_failures_yields_none_and_counts(self):
        ex = SweepExecutor(jobs=1, retries=1, backoff_s=0.0,
                           skip_failures=True)
        results = ex.run([SPECS[0], self.BAD])
        assert results[0] is not None
        assert results[1] is None
        assert ex.last_stats.skipped == 1
        assert "skipped" in ex.last_stats.summary()


class TestCheckpointResume:
    @staticmethod
    def _interrupt_after_first_run(monkeypatch):
        """Make the serial round raise KeyboardInterrupt once one spec
        has run; returns the labels that ran."""
        from repro.experiments import parallel
        calls = []

        def execute_then_interrupt(spec):
            if calls:
                raise KeyboardInterrupt
            calls.append(spec.label)
            return execute_spec(spec)

        monkeypatch.setattr(parallel, "execute_spec", execute_then_interrupt)
        return calls

    @staticmethod
    def _executor(cache, history):
        return SweepExecutor(jobs=1, cache=cache,
                             telemetry=TelemetryHub(history=history))

    def test_interrupt_flushes_completed_runs(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        calls = self._interrupt_after_first_run(monkeypatch)
        with HistoryStore(tmp_path / "history.sqlite") as history:
            ex = self._executor(cache, history)
            with pytest.raises(KeyboardInterrupt):
                ex.run(SPECS)
            assert ex.last_stats.interrupted
            assert len(calls) == 1
            # The completed run was checkpointed before the interrupt
            # landed and the history records the sweep as interrupted.
            assert cache.get_spec(SPECS[0]) is not None
            sweep = history.resolve("last")
            assert sweep["interrupted"] == 1
            runs = history.runs_of(sweep["id"])
        completed = [r for r in runs if r["completed"]]
        pending = [r for r in runs if r["outcome"] == "pending"]
        assert [r["label"] for r in completed] == calls
        assert len(pending) == len(SPECS) - 1
        assert all(r["sim_wall_s"] is None for r in pending)

    def test_resumed_sweep_recovers_from_checkpoint(self, tmp_path,
                                                    monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        with HistoryStore(tmp_path / "history.sqlite") as history:
            with monkeypatch.context() as m:
                self._interrupt_after_first_run(m)
                with pytest.raises(KeyboardInterrupt):
                    self._executor(cache, history).run(SPECS)

            ex = self._executor(cache, history)
            results = ex.run(SPECS)
            assert all(r is not None for r in results)
            assert ex.last_stats.recovered == 1
            assert ex.last_stats.cache_hits == 1
            assert "recovered from checkpoint" in ex.last_stats.summary()
            sweep = history.resolve("last")
            assert sweep["interrupted"] == 0
            outcomes = [r["outcome"] for r in history.runs_of(sweep["id"])]
        assert outcomes.count("checkpoint") == 1
        assert outcomes.count("simulated") == 3

    def test_resume_without_history_counts_hits_as_cached(self, tmp_path,
                                                          monkeypatch):
        """Resume comes from the cache alone; only the recovered count
        needs the run history."""
        cache = ResultCache(tmp_path / "cache")
        with monkeypatch.context() as m:
            self._interrupt_after_first_run(m)
            with pytest.raises(KeyboardInterrupt):
                SweepExecutor(jobs=1, cache=cache).run(SPECS)
        ex = SweepExecutor(jobs=1, cache=cache)
        assert all(r is not None for r in ex.run(SPECS))
        assert ex.last_stats.cache_hits == 1
        assert ex.last_stats.recovered == 0


class TestSpecKeys:
    def test_faults_do_not_perturb_clean_keys(self):
        """Pre-existing cache entries keep their address: a spec with
        faults=None hashes as if the field did not exist."""
        spec = SPECS[0]
        assert spec.nest_params is None and spec.kernel_config is None
        legacy = {f: getattr(spec, f)
                  for f in ("machine", "workload", "scale", "scheduler",
                            "governor", "seed", "max_us", "nest_params",
                            "kernel_config")}
        legacy.update(engine_version=cache_mod.ENGINE_VERSION,
                      format=cache_mod.FORMAT_VERSION)
        canon = json.dumps(legacy, sort_keys=True, separators=(",", ":"))
        assert spec_key(spec) == hashlib.sha256(canon.encode()).hexdigest()

    def test_faulted_spec_gets_a_distinct_key(self):
        import dataclasses
        faulted = dataclasses.replace(
            SPECS[0], faults=FaultConfig(hotplug_rate_per_s=1.0))
        assert spec_key(faulted) != spec_key(SPECS[0])


class TestQuarantine:
    def corrupt_entry(self, cache, spec):
        key = spec_key(spec)
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ torn", encoding="utf-8")
        return key, path

    def test_corrupt_entry_is_a_miss_and_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key, path = self.corrupt_entry(cache, SPECS[0])
        assert cache.get(key) is None
        assert not path.exists()
        qfile = cache.root / QUARANTINE_DIR / path.name
        assert qfile.exists()
        assert cache.quarantined == 1
        assert cache.stats()["quarantined"] == 1
        assert cache.stats()["entries"] == 0

    def test_quarantined_entry_resimulated_on_next_sweep(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        ex = SweepExecutor(jobs=1, cache=cache)
        first = ex.run(SPECS[:1])
        self.corrupt_entry(cache, SPECS[0])
        again = SweepExecutor(jobs=1, cache=cache).run(SPECS[:1])
        assert_results_identical(first[0], again[0])

    def test_verify_reports_and_fixes(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        SweepExecutor(jobs=1, cache=cache).run(SPECS[:2])
        self.corrupt_entry(cache, SPECS[2])
        report = cache.verify(fix=True)
        assert report["checked"] == 3
        assert report["corrupt"] == 1
        assert "quarantined_to" in report["entries"][0]
        # The survivors still decode.
        assert cache.verify(fix=True)["corrupt"] == 0

    def test_verify_dry_run_leaves_entries_in_place(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key, path = self.corrupt_entry(cache, SPECS[0])
        report = cache.verify(fix=False)
        assert report["corrupt"] == 1
        assert path.exists()

    def test_cli_cache_verify(self, tmp_path, monkeypatch, capsys):
        from repro.experiments.cli import main
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        cache = ResultCache()
        assert main(["cache", "verify"]) == 0
        self.corrupt_entry(cache, SPECS[0])
        assert main(["cache", "verify"]) == 1
        out = capsys.readouterr().out
        assert "corrupt" in out
        assert main(["cache", "verify"]) == 0   # already quarantined


class TestAtomicWrites:
    def test_no_tmp_droppings(self, tmp_path):
        target = tmp_path / "sub" / "report.json"
        atomic_write_json(target, {"a": 1}, indent=2)
        assert json.loads(target.read_text()) == {"a": 1}
        assert [p.name for p in target.parent.iterdir()] == ["report.json"]

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        target = tmp_path / "report.json"
        with pytest.raises(TypeError):
            atomic_write_json(target, {"bad": object()})
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_cache_put_is_atomic_format(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        SweepExecutor(jobs=1, cache=cache).run(SPECS[:1])
        entries = list(cache._entry_paths())
        assert len(entries) == 1
        json.loads(entries[0].read_text())   # decodes cleanly
        assert not any(p.suffix == ".tmp"
                       for p in entries[0].parent.iterdir())


class TestFaultedSweep:
    def test_faulted_specs_sweep_deterministically(self, tmp_path):
        fc = FaultConfig(hotplug_rate_per_s=300.0, thermal_rate_per_s=300.0,
                         hotplug_downtime_us=2500, horizon_us=10_000)
        import dataclasses
        specs = [dataclasses.replace(s, faults=fc) for s in SPECS]
        cache = ResultCache(tmp_path / "cache")
        first = SweepExecutor(jobs=2, cache=cache).run(specs)
        second = SweepExecutor(jobs=2, cache=ResultCache(tmp_path / "cache"))\
            .run(specs)
        for a, b in zip(first, second):
            assert_results_identical(a, b)
        serial = [execute_spec(s) for s in specs]
        for a, b in zip(first, serial):
            assert_results_identical(a, b)
