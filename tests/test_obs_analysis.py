"""Trace-analysis engine: analyzers, reports, goldens, diffs, CLI.

The central contracts under test:

* every analyzer is a correct single-pass reduction (synthetic logs
  with known answers);
* a report is deterministic — byte-identical across repeat simulations
  — and the fig2 reference report is pinned byte-for-byte in ``tests/data/golden_analysis.json``
  (regenerate via tests/golden_regen.py after an intentional change);
* ``derived.*`` metrics are a pure function of a serialized metrics
  registry and ride into history rows, where ``repro history diff``
  gates on them (exit 1) and ``--attribute`` ranks what moved;
* the ``repro obs analyze`` / ``repro obs query`` CLI round-trips all
  of the above, including ``--events`` JSONL dumps and ``--baseline``
  cross-run attribution.
"""

import io
import json
from pathlib import Path

import pytest

from repro.experiments.cli import main
from repro.obs.analysis import (ANALYSIS_VERSION, AnalysisContext,
                                EventFilter, analysis_digest, analyze_run,
                                default_analyzers, derived_metrics,
                                diff_reports, filter_events, flatten_numeric,
                                rank_moves, render_attribution,
                                render_events_table, report_json,
                                report_text, run_analyzers)
from repro.obs.analysis.analyzers import (FreqRampAnalyzer,
                                          LatencyTierAnalyzer,
                                          NestDynamicsAnalyzer,
                                          OccupancyAnalyzer,
                                          SpinEconomicsAnalyzer,
                                          WarmCoreAnalyzer)
from repro.obs.events import (FREQ_STEP, NEST_COMPACT, NEST_EXPAND,
                              NEST_PROMOTE, PLACE_CFS, PLACE_PRIMARY,
                              SCHED_DISPATCH, SPIN_START, SPIN_STOP,
                              SchedEvent, event_from_dict, event_to_dict)
from repro.obs.export import events_from_jsonl, events_to_jsonl

ANALYSIS_GOLDEN_PATH = Path(__file__).parent / "data" / "golden_analysis.json"

_CACHE = {}


def analysis_golden_run():
    """The pinned reference run: fig2's traceable spec at scale 0.3."""
    from repro.experiments.registry import get_experiment, reference_spec
    from repro.experiments.runner import run_experiment
    from repro.hw.machines import get_machine
    from repro.workloads.catalog import make_workload

    spec = reference_spec(get_experiment("fig2"), seed=1, scale=0.3)
    machine = get_machine(spec.machine)
    res = run_experiment(
        make_workload(spec.workload, scale=spec.scale), machine,
        spec.scheduler, spec.governor, seed=spec.seed,
        record_trace=True, collect_events=True)
    return res, machine


def analysis_golden_report(cached: bool = True):
    """The full analysis report of the pinned reference run."""
    if cached and "report" in _CACHE:
        return _CACHE["report"]
    res, machine = analysis_golden_run()
    report = analyze_run(res, res.events, n_cpus=machine.n_cpus,
                         segments=res.trace_segments)
    if cached:
        _CACHE["report"] = report
    return report


def ev(t, kind, cpu=0, task=0, value=0):
    return SchedEvent(t, kind, cpu, task, value)


def finish(analyzer, events, **ctx_kw):
    for e in events:
        analyzer.feed(e)
    return analyzer.finish(AnalysisContext(**ctx_kw))


# ---------------------------------------------------------------------------
# Individual analyzers on synthetic logs with known answers
# ---------------------------------------------------------------------------

class TestLatencyTiers:
    def test_attributes_latency_to_placing_tier(self):
        rep = finish(LatencyTierAnalyzer(), [
            ev(10, PLACE_PRIMARY, task=1),
            ev(11, SCHED_DISPATCH, task=1, value=10),
            ev(20, PLACE_CFS, task=2),
            ev(21, SCHED_DISPATCH, task=2, value=100),
            ev(30, SCHED_DISPATCH, task=3, value=7),
        ])
        assert rep["overall"]["n"] == 3
        assert rep["tiers"]["primary"] == {
            "n": 1, "mean_us": 10.0, "max_us": 10,
            "p50_us": 10, "p90_us": 10, "p99_us": 10}
        assert rep["tiers"]["cfs"]["max_us"] == 100
        assert rep["tiers"]["unattributed"]["n"] == 1

    def test_top_tasks_ranked_by_total_latency(self):
        rep = finish(LatencyTierAnalyzer(), [
            ev(1, SCHED_DISPATCH, task=7, value=5),
            ev(2, SCHED_DISPATCH, task=7, value=5),
            ev(3, SCHED_DISPATCH, task=2, value=30),
        ])
        assert [t["task"] for t in rep["top_tasks"]] == [2, 7]
        assert rep["top_tasks"][0] == {
            "task": 2, "dispatches": 1, "total_us": 30, "max_us": 30}

    def test_tier_follows_latest_placement(self):
        rep = finish(LatencyTierAnalyzer(), [
            ev(1, PLACE_PRIMARY, task=1),
            ev(2, PLACE_CFS, task=1),
            ev(3, SCHED_DISPATCH, task=1, value=4),
        ])
        assert "primary" not in rep["tiers"]
        assert rep["tiers"]["cfs"]["n"] == 1


class TestWarmCores:
    def test_first_dispatch_on_a_core_is_cold(self):
        rep = finish(WarmCoreAnalyzer(), [
            ev(100, SCHED_DISPATCH, cpu=0, task=1),
        ], warm_window_us=1000)
        assert rep == {"window_us": 1000, "dispatches": 1, "warm": 0,
                       "warm_fraction": 0.0,
                       "tiers": {"unattributed": {
                           "dispatches": 1, "warm": 0,
                           "warm_fraction": 0.0}}}

    def test_window_boundary_is_inclusive(self):
        events = [ev(0, SCHED_DISPATCH, cpu=3, task=1),
                  ev(1000, SCHED_DISPATCH, cpu=3, task=1),   # age == window
                  ev(2500, SCHED_DISPATCH, cpu=3, task=1)]   # age 1500: cold
        rep = finish(WarmCoreAnalyzer(), events, warm_window_us=1000)
        assert (rep["dispatches"], rep["warm"]) == (3, 1)

    def test_spinning_keeps_a_core_warm(self):
        rep = finish(WarmCoreAnalyzer(), [
            ev(0, SPIN_START, cpu=1),
            ev(100, SPIN_STOP, cpu=1),
            ev(600, SCHED_DISPATCH, cpu=1, task=1),
        ], warm_window_us=1000)
        assert rep["warm"] == 1


class TestNestDynamics:
    EVENTS = [ev(100, NEST_PROMOTE, value=1),
              ev(200, NEST_EXPAND, value=2),
              ev(300, NEST_COMPACT, value=1),
              ev(400, NEST_PROMOTE, value=2)]

    def test_counts_churn_and_size_stats(self):
        rep = finish(NestDynamicsAnalyzer(), self.EVENTS, makespan_us=1000)
        assert rep["transitions"] == 4
        assert rep["by_kind"] == {"nest.promote": 2, "nest.expand": 1,
                                  "nest.compact": 1}
        assert rep["churn_per_s"] == 4000.0
        # Step function: 0 until t=100, then 1,2,1 for 100µs each, 2 for
        # the final 600µs -> mean (100+200+100+1200)/1000.
        assert rep["primary_size"] == {
            "min": 1, "max": 2, "final": 2, "time_weighted_mean": 1.6}
        assert rep["cadence"]["nest.promote"] == {
            "n_gaps": 1, "mean_gap_us": 300.0}

    def test_timeline_downsampled_keeps_final_point(self):
        events = [ev(t, NEST_PROMOTE, value=t % 5) for t in range(200)]
        rep = finish(NestDynamicsAnalyzer(), events, makespan_us=200)
        assert len(rep["timeline"]) == 65
        assert rep["timeline"][-1] == [199, 199 % 5]

    def test_empty_log(self):
        rep = finish(NestDynamicsAnalyzer(), [], makespan_us=1000)
        assert rep["transitions"] == 0 and "primary_size" not in rep


class TestFreqRamps:
    def test_steps_residency_and_time_to_peak(self):
        rep = finish(FreqRampAnalyzer(), [
            ev(0, FREQ_STEP, cpu=0, value=1000),
            ev(100, FREQ_STEP, cpu=0, value=2000),
            ev(300, FREQ_STEP, cpu=0, value=3000),
        ], makespan_us=1000)
        assert (rep["steps"], rep["up_steps"], rep["down_steps"]) == (3, 2, 0)
        assert rep["residency"] == [
            {"mhz": 1000, "us": 100, "fraction": 0.1},
            {"mhz": 2000, "us": 200, "fraction": 0.2},
            {"mhz": 3000, "us": 700, "fraction": 0.7},
        ]
        assert rep["peak_mhz"] == 3000 and rep["time_to_peak_us"] == 300
        assert rep["residency_basis"] == "wall"

    def test_down_steps_counted(self):
        rep = finish(FreqRampAnalyzer(), [
            ev(0, FREQ_STEP, cpu=1, value=3000),
            ev(50, FREQ_STEP, cpu=1, value=1000),
        ], makespan_us=100)
        assert rep["down_steps"] == 1
        assert rep["time_to_peak_us"] == 0   # first step was the peak


class TestOccupancy:
    def test_event_fallback_without_segments(self):
        rep = finish(OccupancyAnalyzer(), [
            ev(1, SCHED_DISPATCH, cpu=0, task=1),
            ev(2, SCHED_DISPATCH, cpu=0, task=2),
            ev(3, SCHED_DISPATCH, cpu=5, task=1),
        ], makespan_us=10, n_cpus=8)
        assert rep["source"] == "events"
        assert rep["cores_used"] == 2 and rep["n_cpus"] == 8
        assert rep["top_cores"][0] == {"cpu": 0, "dispatches": 2,
                                       "distinct_tasks": 2}

    def test_segments_give_busy_spin_idle(self):
        class Seg:
            def __init__(self, core, duration, spinning=False, task_id=0):
                self.core, self.duration = core, duration
                self.spinning, self.task_id = spinning, task_id
        segs = [Seg(0, 600), Seg(0, 100, spinning=True),
                Seg(1, 300), Seg(2, 50, task_id=-1)]   # idle seg ignored
        rep = finish(OccupancyAnalyzer(), [], makespan_us=1000, n_cpus=2,
                     segments=segs)
        assert rep["source"] == "segments"
        assert (rep["busy_us"], rep["spin_us"]) == (900, 100)
        assert rep["idle_us"] == 2 * 1000 - 900 - 100
        assert rep["mean_utilization"] == 0.45
        assert rep["top_cores"][0]["cpu"] == 0


class TestSpinEconomics:
    def test_pairs_spins_and_detects_absorption(self):
        rep = finish(SpinEconomicsAnalyzer(), [
            ev(0, SPIN_START, cpu=0),
            ev(50, SPIN_STOP, cpu=0),          # emission order: stop first
            ev(50, SCHED_DISPATCH, cpu=0),     # same-t dispatch = absorbed
            ev(100, SPIN_START, cpu=1),
            ev(400, SPIN_STOP, cpu=1),
            ev(900, SCHED_DISPATCH, cpu=1),    # long after: not absorbed
        ])
        assert rep["spins"] == 2 and rep["spin_us"] == 350
        assert rep["absorbed_wakeups"] == 1
        assert rep["absorbed_fraction_of_spins"] == 0.5
        assert rep["spin_us_per_absorbed"] == 350.0

    def test_dispatch_into_open_spin_is_absorbed(self):
        rep = finish(SpinEconomicsAnalyzer(), [
            ev(0, SPIN_START, cpu=2),
            ev(10, SCHED_DISPATCH, cpu=2),
        ])
        assert rep["absorbed_wakeups"] == 1
        assert rep["unfinished_spins"] == 1 and rep["spins"] == 0

    def test_empty_log_all_zero(self):
        rep = finish(SpinEconomicsAnalyzer(), [])
        assert rep["spins"] == 0 and rep["spin_us_per_absorbed"] == 0.0


# ---------------------------------------------------------------------------
# The driver and the report envelope
# ---------------------------------------------------------------------------

class TestRunAnalyzers:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_analyzers([], AnalysisContext(),
                          [SpinEconomicsAnalyzer(), SpinEconomicsAnalyzer()])

    def test_standard_analyzers_sorted(self):
        reports = run_analyzers([], AnalysisContext())
        assert list(reports) == sorted(a.name for a in default_analyzers())
        assert len(reports) == 7

    def test_envelope_without_result_uses_event_span(self):
        report = analyze_run(None, [ev(500, NEST_PROMOTE, value=1)])
        assert report["analysis_version"] == ANALYSIS_VERSION
        assert report["run"] == {"n_events": 1}
        assert report["analyzers"]["nest_dynamics"]["churn_per_s"] == 2000.0

    def test_report_json_is_canonical(self):
        report = {"b": 1, "a": {"z": 2, "y": 3}}
        doc = report_json(report)
        assert doc == json.dumps(report, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Determinism: repeats and the pinned golden
# ---------------------------------------------------------------------------

class TestDeterminism:
    def test_repeat_simulation_byte_identical(self):
        a = report_json(analysis_golden_report(cached=False))
        b = report_json(analysis_golden_report(cached=False))
        assert a == b

    def test_matches_golden_file(self):
        assert ANALYSIS_GOLDEN_PATH.is_file(), \
            "golden missing; regenerate via tests/golden_regen.py"
        assert report_json(analysis_golden_report()) == \
            ANALYSIS_GOLDEN_PATH.read_text(encoding="utf-8")

    def test_envelope_carries_no_host_or_engine_facts(self):
        doc = report_json(analysis_golden_report())
        for leak in ('"engine"', '"host"', '"wall_s"', '"rss_'):
            assert leak not in doc

    def test_digest_fingerprints_the_report(self):
        report = analysis_golden_report()
        digest = analysis_digest(report)
        assert digest["analysis_version"] == ANALYSIS_VERSION
        assert len(digest["sha256"]) == 64
        assert digest["summary"]["latency_n"] == \
            report["analyzers"]["latency_tiers"]["overall"]["n"]
        assert digest == analysis_digest(json.loads(report_json(report)))

    def test_text_digest_mentions_every_analyzer_family(self):
        text = report_text(analysis_golden_report())
        for token in ("latency:", "warm cores:", "nest:", "freq:",
                      "occupancy[segments]:", "spin:"):
            assert token in text


# ---------------------------------------------------------------------------
# Derived paper metrics (registry -> history scalars)
# ---------------------------------------------------------------------------

class TestDerivedMetrics:
    METRICS = {
        "kernel.wakeup_latency_us": {
            "type": "histogram", "edges": [1, 10, 100],
            "counts": [50, 40, 9, 1]},
        "nest.placements": {"type": "counter", "value": 100},
        "nest.attachment_hits": {"type": "counter", "value": 40},
        "nest.primary_hits": {"type": "counter", "value": 30},
        "nest.reserve_hits": {"type": "counter", "value": 20},
        "nest.impatient_placements": {"type": "counter", "value": 6},
        "nest.cfs_fallbacks": {"type": "counter", "value": 4},
    }

    def test_percentiles_and_shares(self):
        derived = derived_metrics(self.METRICS)
        assert derived["derived.wakeup_p50_us"] == 1
        assert derived["derived.wakeup_p90_us"] == 10
        assert derived["derived.wakeup_p99_us"] == 100
        assert derived["derived.share_attach"] == 0.4
        assert derived["derived.share_cfs"] == 0.04
        assert derived["derived.warm_share"] == 0.9   # attach+primary+reserve

    def test_empty_registry_yields_nothing(self):
        assert derived_metrics({}) == {}
        assert derived_metrics({"nest.placements": {
            "type": "counter", "value": 0}}) == {}

    def test_overflow_only_histogram_has_no_percentiles(self):
        derived = derived_metrics({"kernel.wakeup_latency_us": {
            "type": "histogram", "edges": [1], "counts": [0, 5]}})
        assert derived == {}

    def test_golden_run_carries_derived_metrics(self):
        res, _ = analysis_golden_run()
        derived = derived_metrics(res.metrics)
        assert derived["derived.warm_share"] > 0.5
        assert set(derived) >= {"derived.wakeup_p50_us",
                                "derived.share_cfs", "derived.warm_share"}


# ---------------------------------------------------------------------------
# Cross-run diffing and attribution
# ---------------------------------------------------------------------------

class TestDiffing:
    def test_flatten_skips_lists_and_bools(self):
        flat = flatten_numeric({"a": {"b": 1, "flag": True},
                                "timeline": [[1, 2]], "c": 2.5})
        assert flat == {"a.b": 1.0, "c": 2.5}

    def test_rank_moves_orders_by_relative_movement(self):
        cur = {"x": 110.0, "y": 4.0, "same": 7.0, "only_cur": 1.0}
        base = {"x": 100.0, "y": 1.0, "same": 7.0, "only_base": 9.0}
        moves = rank_moves(cur, base)
        assert [m.name for m in moves] == ["y", "x"]   # 3.0x beats 10%
        assert moves[0].rel == 3.0
        assert "+300.0%" in moves[0].render()

    def test_zero_baseline_ranks_by_absolute_delta(self):
        moves = rank_moves({"new": 5.0}, {"new": 0.0})
        assert moves[0].rel == 5.0
        assert "%" not in moves[0].render()

    def test_diff_reports_ranks_and_carries_tier_latency(self):
        cur = analysis_golden_report()
        base = json.loads(report_json(cur))
        base["run"]["makespan_us"] = cur["run"]["makespan_us"] * 2
        tier = next(iter(base["analyzers"]["latency_tiers"]["tiers"]))
        base["analyzers"]["latency_tiers"]["tiers"][tier]["p99_us"] += 40
        diff = diff_reports(cur, base, top=3)
        assert diff["compared_metrics"] > 20
        assert diff["moves"], "perturbed report must rank at least one move"
        rows = {r["tier"]: r for r in diff["tier_latency"]}
        assert rows[tier]["p99_us"][2] == -40

    def test_attribution_text_reads_as_a_verdict(self):
        cur = analysis_golden_report()
        base = json.loads(report_json(cur))
        base["run"]["makespan_us"] = max(cur["run"]["makespan_us"] // 2, 1)
        text = render_attribution(diff_reports(cur, base),
                                  cur_label="this run", base_label="base")
        assert "this run is" in text and "slower than base" in text
        assert "per-tier wakeup latency" in text

    def test_identical_reports_no_moves(self):
        cur = analysis_golden_report()
        text = render_attribution(diff_reports(cur, cur))
        assert "equal makespan" in text
        assert "no shared metric moved" in text


# ---------------------------------------------------------------------------
# Event querying
# ---------------------------------------------------------------------------

class TestQuery:
    EVENTS = [ev(10, PLACE_PRIMARY, cpu=1, task=5),
              ev(20, PLACE_CFS, cpu=2, task=6),
              ev(30, SCHED_DISPATCH, cpu=1, task=5, value=3),
              ev(40, NEST_PROMOTE, cpu=1, value=2)]

    def filtered(self, **kw):
        return list(filter_events(self.EVENTS, EventFilter(**kw)))

    def test_prefix_group_and_exact_kind(self):
        assert len(self.filtered(kinds=("place",))) == 2
        assert len(self.filtered(kinds=("place.cfs",))) == 1
        assert len(self.filtered(kinds=("place", "nest"))) == 3

    def test_cpu_task_and_time_window(self):
        assert len(self.filtered(cpu=1)) == 3
        assert len(self.filtered(task=5)) == 2
        assert len(self.filtered(since_us=20, until_us=30)) == 2
        assert self.filtered(cpu=1, kinds=("sched",)) == [self.EVENTS[2]]

    def test_table_footer_counts_hidden_rows(self):
        table = render_events_table(self.EVENTS[:2], total=10)
        assert "place.primary" in table
        assert "... 8 more matching event(s)" in table
        assert "more" not in render_events_table(self.EVENTS, total=4)


# ---------------------------------------------------------------------------
# JSONL event round-trip (the --events source)
# ---------------------------------------------------------------------------

class TestEventsJsonl:
    def test_roundtrip(self):
        events = [ev(1, PLACE_PRIMARY, cpu=2, task=3, value=0),
                  ev(9, FREQ_STEP, cpu=0, task=-1, value=2300)]
        buf = io.StringIO()
        assert events_to_jsonl(events, buf) == 2
        buf.seek(0)
        assert events_from_jsonl(buf) == events

    def test_dict_roundtrip_defaults(self):
        assert event_from_dict(event_to_dict(ev(5, SPIN_START, cpu=7))) == \
            ev(5, SPIN_START, cpu=7)
        assert event_from_dict({"t": 1, "kind": "sched.dispatch"}) == \
            SchedEvent(1, "sched.dispatch", -1, -1, 0)

    def test_strict_reader_rejects_garbage(self):
        bad = io.StringIO('{"t": 1, "kind": "sched.dispatch"}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            events_from_jsonl(bad)
        with pytest.raises(ValueError, match="not an event record"):
            events_from_jsonl(io.StringIO('{"no": "fields"}\n'))


# ---------------------------------------------------------------------------
# CLI: repro obs analyze / query
# ---------------------------------------------------------------------------

class TestAnalyzeCli:
    ARGS = ["obs", "analyze", "fig2", "--scale", "0.3"]

    def test_json_out_matches_golden(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        assert main(self.ARGS + ["--json", "--out", str(out)]) == 0
        doc = capsys.readouterr().out
        assert doc == out.read_text(encoding="utf-8")
        assert doc == ANALYSIS_GOLDEN_PATH.read_text(encoding="utf-8")

    def test_text_digest_default(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "warm cores:" in out and "spin:" in out

    def test_baseline_attribution(self, capsys, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(ANALYSIS_GOLDEN_PATH.read_text(encoding="utf-8"))
        assert main(self.ARGS + ["--baseline", str(base)]) == 0
        out = capsys.readouterr().out
        assert "equal makespan" in out

    def test_events_jsonl_source(self, capsys, tmp_path):
        res, _ = analysis_golden_run()
        dump = tmp_path / "events.jsonl"
        with dump.open("w", encoding="utf-8") as fh:
            events_to_jsonl(res.events, fh)
        assert main(["obs", "analyze", "--events", str(dump),
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["run"] == {"n_events": len(res.events)}
        assert report["analyzers"]["spin_economics"]["spins"] > 0

    def test_source_required(self, capsys):
        assert main(["obs", "analyze"]) == 2
        assert "--events" in capsys.readouterr().err

    def test_pure_table_experiment_rejected(self, capsys):
        # table1 aggregates published numbers; there is nothing to trace.
        assert main(["obs", "analyze", "table1"]) == 2
        assert "no traceable workload" in capsys.readouterr().err


class TestQueryCli:
    def test_table_with_filters(self, capsys):
        assert main(["obs", "query", "fig2", "--scale", "0.3",
                     "--kind", "nest", "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "nest." in out and "event(s) matched" in out

    def test_json_lines_parse_back(self, capsys):
        assert main(["obs", "query", "fig2", "--scale", "0.3", "--kind",
                     "sched.dispatch", "--limit", "3", "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            assert event_from_dict(json.loads(line)).kind == "sched.dispatch"
