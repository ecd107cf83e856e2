"""Tests for the command-line interface."""

import pytest

from repro.experiments.cli import build_parser, main, make_workload, workload_names
from repro.workloads.configure import ConfigureWorkload
from repro.workloads.dacapo import DacapoWorkload
from repro.workloads.messaging import HackbenchWorkload
from repro.workloads.nas import NasWorkload
from repro.workloads.phoronix import PhoronixWorkload


class TestMakeWorkload:
    def test_configure(self):
        wl = make_workload("configure-gcc")
        assert isinstance(wl, ConfigureWorkload)
        assert wl.name == "configure-gcc"

    def test_dacapo(self):
        assert isinstance(make_workload("dacapo-h2"), DacapoWorkload)

    def test_nas_with_and_without_suffix(self):
        assert isinstance(make_workload("nas-mg"), NasWorkload)
        assert isinstance(make_workload("nas-mg.C"), NasWorkload)

    def test_phoronix(self):
        assert isinstance(make_workload("phoronix-rodinia-5"),
                          PhoronixWorkload)

    def test_simple_names(self):
        assert isinstance(make_workload("hackbench"), HackbenchWorkload)
        assert make_workload("nginx").name == "nginx"

    def test_scale_forwarded(self):
        assert make_workload("configure-gcc", scale=0.5).scale == 0.5

    def test_unknown(self):
        with pytest.raises(KeyError):
            make_workload("quake3")

    def test_every_listed_name_buildable(self):
        for name in workload_names():
            assert make_workload(name) is not None


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "5218_2s" in out and "configure-llvm_ninja" in out
        assert "fig5" in out

    def test_run(self, capsys):
        rc = main(["run", "--workload", "configure-gcc",
                   "--machine", "ryzen_4650g", "--scheduler", "nest",
                   "--scale", "0.5"])
        assert rc == 0
        assert "configure-gcc" in capsys.readouterr().out

    def test_run_verbose_prints_bins(self, capsys):
        main(["run", "--workload", "configure-gcc",
              "--machine", "ryzen_4650g", "--verbose", "--scale", "0.5"])
        assert "GHz" in capsys.readouterr().out

    def test_compare(self, capsys):
        rc = main(["compare", "--workload", "configure-gcc",
                   "--machine", "ryzen_4650g", "--seeds", "1",
                   "--scale", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "nest-schedutil" in out and "speedup" in out

    def test_describe(self, capsys):
        assert main(["describe", "fig12"]) == 0
        assert "Figure 12" in capsys.readouterr().out

    def test_describe_unknown_is_error(self, capsys):
        assert main(["describe", "fig99"]) == 2

    def test_run_unknown_workload_is_error(self):
        assert main(["run", "--workload", "nope"]) == 2

    def test_parser_rejects_bad_scheduler(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "x",
                                       "--scheduler", "rr"])


class TestObservabilityCli:
    def test_run_trace_writes_valid_perfetto_json(self, tmp_path, capsys):
        import json

        from repro.obs.export import validate_chrome_trace
        out = tmp_path / "trace.json"
        rc = main(["run", "--workload", "configure-gcc",
                   "--machine", "ryzen_4650g", "--scheduler", "nest",
                   "--scale", "0.3", "--trace", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        assert "perfetto" in capsys.readouterr().out

    def test_run_events_writes_jsonl(self, tmp_path):
        import json
        out = tmp_path / "events.jsonl"
        rc = main(["run", "--workload", "configure-gcc",
                   "--machine", "ryzen_4650g", "--scheduler", "nest",
                   "--scale", "0.3", "--events", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines
        first = json.loads(lines[0])
        assert set(first) == {"t", "kind", "cpu", "task", "value"}

    def test_trace_subcommand_registry_id(self, capsys):
        rc = main(["trace", "fig2", "--scale", "0.05"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cores used:" in out and "placements:" in out

    def test_trace_subcommand_workload_name(self, tmp_path, capsys):
        out_path = tmp_path / "t.json"
        rc = main(["trace", "configure-gcc", "--machine", "ryzen_4650g",
                   "--scale", "0.3", "--out", str(out_path)])
        assert rc == 0
        assert out_path.is_file()
        assert "cores used:" in capsys.readouterr().out

    def test_trace_pure_table_is_error(self, capsys):
        assert main(["trace", "table1"]) == 2

    def test_trace_unknown_name_is_error(self):
        assert main(["trace", "quake3"]) == 2

    def test_obs_report_without_sweep_is_error(self, tmp_path):
        assert main(["obs", "report", "--cache-dir",
                     str(tmp_path / "empty")]) == 1

    def test_obs_report_after_sweep(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        rc = main(["compare", "--workload", "configure-gcc",
                   "--machine", "ryzen_4650g", "--seeds", "1",
                   "--scale", "0.3", "--jobs", "1",
                   "--cache-dir", cache_dir, "--progress"])
        assert rc == 0
        capsys.readouterr()
        assert main(["obs", "report", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "sweep: 4 runs (4 simulated, 0 cached)" in out
        assert "cache: 0 hit(s), 4 miss(es)" in out

    def test_obs_report_json(self, tmp_path, capsys):
        import json as _json
        cache_dir = str(tmp_path / "cache")
        rc = main(["compare", "--workload", "configure-gcc",
                   "--machine", "ryzen_4650g", "--seeds", "1",
                   "--scale", "0.3", "--jobs", "1",
                   "--cache-dir", cache_dir, "--progress"])
        assert rc == 0
        capsys.readouterr()
        assert main(["obs", "report", "--cache-dir", cache_dir,
                     "--json"]) == 0
        report = _json.loads(capsys.readouterr().out)
        assert report["stats"]["n_specs"] == 4
        assert len(report["runs"]) == 4
        # sort_keys canonicalization: a second read emits the same doc.
        assert main(["obs", "report", "--cache-dir", cache_dir,
                     "--json"]) == 0
        assert _json.loads(capsys.readouterr().out) == report

    def test_interrupted_compare_resumes_from_checkpoint(self, tmp_path,
                                                         capsys,
                                                         monkeypatch):
        import json as _json

        from repro.experiments import parallel
        cache_dir = tmp_path / "cache"
        args = ["compare", "--workload", "configure-gcc",
                "--machine", "ryzen_4650g", "--seeds", "1",
                "--scale", "0.3", "--jobs", "1",
                "--cache-dir", str(cache_dir)]
        real_execute = parallel.execute_spec
        ran = []

        def execute_then_interrupt(spec):
            if ran:
                raise KeyboardInterrupt
            ran.append(spec.label)
            return real_execute(spec)

        with monkeypatch.context() as m:
            m.setattr(parallel, "execute_spec", execute_then_interrupt)
            with pytest.raises(KeyboardInterrupt):
                main(args)
        assert "INTERRUPTED" in capsys.readouterr().err

        # The interrupted sweep's pending runs have no wall time; the
        # report must still render them.
        assert main(["obs", "report", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "INTERRUPTED" in out
        assert "pending      0.00s" in out

        assert main(args) == 0
        assert "1 recovered from checkpoint" in capsys.readouterr().out

        assert main(["obs", "report", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "1 recovered from checkpoint" in out
        assert any(ln.split()[0] == "checkpoint" and ln.endswith(ran[0])
                   for ln in out.splitlines()[1:])
        assert main(["obs", "report", "--cache-dir", str(cache_dir),
                     "--json"]) == 0
        report = _json.loads(capsys.readouterr().out)
        outcomes = {r["label"]: r["outcome"] for r in report["runs"]}
        assert outcomes[ran[0]] == "checkpoint"
        assert report["stats"]["recovered"] == 1
        # History is the only sweep record: no JSON report sits beside
        # the cache shards.
        assert not list(cache_dir.glob("*.json"))

    def test_sweep_summary_shows_cache_counters(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = ["compare", "--workload", "configure-gcc",
                "--machine", "ryzen_4650g", "--seeds", "1",
                "--scale", "0.3", "--jobs", "1", "--cache-dir", cache_dir]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "(4 simulated, 0 cached)" in first
        assert "cache: 0 hit(s), 4 miss(es)" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "(0 simulated, 4 cached)" in second
        assert "cache: 4 hit(s), 0 miss(es)" in second

    def test_run_with_faults_profile(self, capsys):
        rc = main(["run", "--workload", "configure-gcc",
                   "--machine", "ryzen_4650g", "--scale", "0.3",
                   "--faults", "hotplug", "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "faults[hotplug]:" in out
        assert "planned" in out

    def test_run_with_none_faults_profile_is_clean_run(self, capsys):
        rc = main(["run", "--workload", "configure-gcc",
                   "--machine", "ryzen_4650g", "--scale", "0.3",
                   "--faults", "none"])
        assert rc == 0
        assert "faults[" not in capsys.readouterr().out

    def test_run_ftrt_with_corefail_profile(self, capsys):
        rc = main(["run", "--workload", "deadline-periodic",
                   "--machine", "ryzen_4650g", "--scheduler", "ftrt",
                   "--faults", "corefail", "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Ftrt-schedutil" in out
        assert "faults[corefail]:" in out and "planned" in out

    def test_run_corefail_burst_profile_parses(self, capsys):
        rc = main(["run", "--workload", "deadline-periodic",
                   "--machine", "5218_2s", "--scheduler", "ftrt",
                   "--faults", "corefail-burst", "--seed", "3"])
        assert rc == 0
        assert "faults[corefail-burst]:" in capsys.readouterr().out

    def test_scheduler_choices_come_from_registry(self):
        from repro.sched.registry import available_policies
        p = build_parser()
        args = p.parse_args(["run", "--workload", "deadline-periodic",
                             "--scheduler", "ftrt"])
        assert args.scheduler == "ftrt"
        assert "ftrt" in available_policies()

    def _populate_cache(self, cache_dir, capsys):
        assert main(["compare", "--workload", "configure-gcc",
                     "--machine", "ryzen_4650g", "--seeds", "1",
                     "--scale", "0.3", "--jobs", "1",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()

    @staticmethod
    def _cache_entries(tmp_path):
        # Entries live one shard-directory deep: <root>/<key[:2]>/<key>.json
        return sorted(p for p in (tmp_path / "cache").glob("*/*.json")
                      if p.parent.name != ".quarantine")

    def test_cache_verify_quarantines_corrupt_entry(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        self._populate_cache(cache_dir, capsys)
        victim = self._cache_entries(tmp_path)[0]
        victim.write_text("{ not json", encoding="utf-8")

        assert main(["cache", "verify", "--cache-dir", cache_dir]) == 1
        out = capsys.readouterr().out
        assert "1 corrupt" in out
        assert victim.name in out
        assert "quarantined entries are under" in out
        assert not victim.exists()          # moved out of the way
        quarantined = list((tmp_path / "cache" / ".quarantine").iterdir())
        assert len(quarantined) == 1

        # A second verify pass over the repaired cache is clean.
        assert main(["cache", "verify", "--cache-dir", cache_dir]) == 0
        assert "0 corrupt" in capsys.readouterr().out
        # And stats reports the quarantined entry.
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "1 quarantined" in capsys.readouterr().out

    def test_cache_verify_dry_run_leaves_entry_in_place(self, tmp_path,
                                                        capsys):
        cache_dir = str(tmp_path / "cache")
        self._populate_cache(cache_dir, capsys)
        victim = self._cache_entries(tmp_path)[0]
        victim.write_text("{ not json", encoding="utf-8")
        assert main(["cache", "verify", "--cache-dir", cache_dir,
                     "--dry-run"]) == 1
        out = capsys.readouterr().out
        assert "left in place" in out
        assert victim.exists()

    def test_obs_report_shape(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        self._populate_cache(cache_dir, capsys)
        assert main(["obs", "report", "--cache-dir", cache_dir,
                     "--top", "2"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("sweep: 4 runs")
        assert "worker(s)" in lines[0]
        assert "events/s" in lines[0]
        # --top bounds the slowest-runs listing; each row names its run.
        rows = [ln for ln in lines if "configure-gcc" in ln]
        assert len(rows) == 2
        assert all("s  " in ln and "ev" in ln for ln in rows)


class TestCliVerify:
    def test_fuzz_smoke(self, capsys):
        rc = main(["verify", "fuzz", "--runs", "5", "--seed", "1",
                   "--diff-every", "0", "--par-every", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fuzz: 5 scenario(s)" in out and "OK" in out

    def test_fuzz_writes_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(["verify", "fuzz", "--runs", "3", "--seed", "2",
                   "--diff-every", "0", "--par-every", "0",
                   "--report", str(report)])
        assert rc == 0
        capsys.readouterr()
        import json
        doc = json.loads(report.read_text())
        assert doc["runs"] == 3 and doc["ok"] is True

    def test_replay_clean_repro(self, capsys):
        from pathlib import Path
        repro = Path(__file__).resolve().parent / "repros" \
            / "reserve-bound-canary.json"
        assert main(["verify", "replay", str(repro)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_replay_failing_repro(self, tmp_path, capsys):
        import json
        # A scenario that cannot run -> run.completed fires on replay.
        doc = {"format": 1,
               "scenario": {"workload": "no-such-workload",
                            "machine": "ryzen_4650g", "scheduler": "cfs",
                            "governor": "schedutil", "seed": 1},
               "expect": ["run.completed"], "violations": []}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "replay", str(path)]) == 1
        out = capsys.readouterr().out
        assert "violation" in out and "run.completed" in out

    def test_replay_missing_file_is_clean_error(self, tmp_path, capsys):
        rc = main(["verify", "replay", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_replay_malformed_document_is_clean_error(self, tmp_path,
                                                      capsys):
        import json
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"format": 99, "scenario": {},
                                    "expect": []}))
        rc = main(["verify", "replay", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "format" in err
