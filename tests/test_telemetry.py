"""Sweep telemetry: records, views, the hub, and zero perturbation.

The load-bearing property is the last one: a sweep with telemetry
enabled must produce **bit-identical** results to one without — across
the pool path, the serial path and fault injection.
Telemetry observes; it never steers.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.experiments.cache import ResultCache, result_to_jsonable
from repro.experiments.parallel import RunSpec, SweepExecutor
from repro.experiments.runner import gc_totals
from repro.faults import fault_profile
from repro.obs.telemetry.hub import (TelemetryHub, WorkerTelemetry,
                                     load_stream, rss_peak_kb,
                                     worker_telemetry)
from repro.obs.telemetry.records import (RECORD_KINDS, make_record,
                                         read_stream, validate_record,
                                         write_record)
from repro.obs.telemetry.view import LiveView, PlainView, make_view

SPECS = [
    RunSpec(workload="configure-gcc", machine="ryzen_4650g",
            scheduler=sched, governor="schedutil", seed=1, scale=0.3)
    for sched in ("cfs", "nest")
]


def canonical(result):
    """The deterministic image of a result (host telemetry dropped)."""
    data = result_to_jsonable(result, result.machine)
    data.pop("sim_wall_s", None)
    data.pop("host", None)
    return data


# ---------------------------------------------------------------------------
# Record vocabulary
# ---------------------------------------------------------------------------

class TestRecords:
    def test_make_record_envelope(self):
        rec = make_record("hb", run="r", pid=1, sim_us=5, events=9,
                          wall_s=0.1)
        assert rec["t"] == "hb" and rec["v"] >= 1 and rec["ts"] > 0
        assert validate_record(rec) == []

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_record("nope")

    def test_validate_flags_missing_fields(self):
        rec = make_record("run_done", run="r", outcome="cached", done=1,
                          total=2)
        del rec["done"]
        assert any("done" in p for p in validate_record(rec))
        assert validate_record({"x": 1})  # no envelope, unknown kind

    def test_every_kind_has_required_fields(self):
        from repro.obs.telemetry.records import REQUIRED_FIELDS
        assert set(REQUIRED_FIELDS) == RECORD_KINDS

    def test_roundtrip_and_torn_tail(self):
        buf = io.StringIO()
        recs = [make_record("run_start", run="a", pid=1, ts=1.0),
                make_record("run_end", run="a", pid=1, wall_s=0.5,
                            events=10, makespan_us=100, ts=2.0)]
        for rec in recs:
            write_record(buf, rec)
        # A crash mid-append leaves a torn final line: must be skipped.
        buf.write('{"t": "hb", "truncat')
        buf.seek(0)
        back = list(read_stream(buf))
        assert back == recs

    def test_blank_and_garbage_lines_skipped(self):
        stream = io.StringIO('\n[1,2]\nnot json\n'
                             '{"t":"sweep_end","v":1,"ts":1}\n')
        back = list(read_stream(stream))
        assert len(back) == 1 and back[0]["t"] == "sweep_end"

    def test_truncated_line_mid_file_recovers(self):
        # A worker killed mid-write with the sweep carrying on: the torn
        # line sits between valid records and must not eat its neighbors.
        recs = [make_record("run_start", run="a", pid=1, ts=1.0),
                make_record("run_done", run="a", outcome="simulated",
                            done=1, total=2, ts=2.0)]
        buf = io.StringIO()
        write_record(buf, recs[0])
        buf.write('{"t": "hb", "run": "a", "sim_us": 12')   # no close, no \n?
        buf.write("\n")
        write_record(buf, recs[1])
        buf.seek(0)
        assert list(read_stream(buf)) == recs

    def test_garbage_burst_mid_file_recovers(self):
        recs = [make_record("run_start", run="a", pid=1, ts=1.0),
                make_record("run_start", run="b", pid=2, ts=2.0)]
        buf = io.StringIO()
        write_record(buf, recs[0])
        buf.write("\x00\x00binary junk\x00\n42\nnull\n\"str\"\n")
        write_record(buf, recs[1])
        buf.seek(0)
        assert list(read_stream(buf)) == recs

    def test_interleaved_valid_and_torn_lines(self):
        # Every other line torn: all valid records still come back, in
        # order, with nothing invented.
        recs = [make_record("hb", run=f"r{i}", pid=i, sim_us=i * 10,
                            events=i, wall_s=0.1, ts=float(i))
                for i in range(5)]
        buf = io.StringIO()
        for rec in recs:
            write_record(buf, rec)
            buf.write('{"t": "hb", "tor\n')
        buf.seek(0)
        assert list(read_stream(buf)) == recs


# ---------------------------------------------------------------------------
# Progress views
# ---------------------------------------------------------------------------

def _feed_sweep(view, n=2):
    view.handle(make_record("sweep_start", sweep="s", n_specs=n, jobs=2))
    for i in range(n):
        view.handle(make_record("run_start", run=f"run-{i}", pid=100 + i))
        view.handle(make_record("hb", run=f"run-{i}", pid=100 + i,
                                sim_us=500, events=42, wall_s=0.1))
        view.handle(make_record("run_done", run=f"run-{i}",
                                outcome="simulated", done=i + 1, total=n,
                                wall_s=0.2, events=42, makespan_us=900))
    view.handle(make_record("sweep_end", sweep="s", stats={},
                            interrupted=False))


class TestViews:
    def test_make_view_modes(self):
        buf = io.StringIO()
        assert make_view("none", buf) is None
        assert make_view("off", buf) is None
        assert isinstance(make_view("plain", buf), PlainView)
        assert isinstance(make_view("live", buf), LiveView)
        # StringIO is not a tty -> auto degrades to the plain view.
        assert isinstance(make_view("auto", buf), PlainView)
        with pytest.raises(ValueError):
            make_view("sideways", buf)

    def test_plain_view_lines(self):
        buf = io.StringIO()
        view = PlainView(buf)
        _feed_sweep(view)
        view.close()
        out = buf.getvalue()
        assert "[1/2]" in out and "[2/2]" in out
        assert "run-0" in out and "run-1" in out
        assert "done: 2/2 runs" in out and "2 simulated" in out

    def test_plain_view_marks_cached_runs(self):
        buf = io.StringIO()
        view = PlainView(buf)
        view.handle(make_record("sweep_start", sweep="s", n_specs=1, jobs=1))
        view.handle(make_record("run_done", run="c", outcome="cached",
                                done=1, total=1))
        view.close()
        assert "cache" in buf.getvalue()

    def test_live_view_renders_and_closes(self):
        buf = io.StringIO()
        view = LiveView(buf, fps=10_000)   # no throttling in the test
        _feed_sweep(view)
        view.close()
        out = buf.getvalue()
        assert "sweep" in out and "2/2" in out
        assert out.endswith("\n")

    def test_views_tolerate_unknown_kinds(self):
        for view in (PlainView(io.StringIO()), LiveView(io.StringIO())):
            view.handle({"t": "future_kind", "v": 99, "ts": 1.0})
            view.close()


# ---------------------------------------------------------------------------
# Worker-side emitter
# ---------------------------------------------------------------------------

class TestWorkerTelemetry:
    def test_heartbeat_wall_clock_gating(self):
        sent = []
        wt = WorkerTelemetry(sent.append, heartbeat_s=1e9)
        wt.run_start("r")

        class Eng:
            events_processed = 7
        sink = wt.heartbeat_sink(Eng())
        for _ in range(50):
            sink(0, 0, 10, 2500, 1, False)
        assert [r["t"] for r in sent] == ["run_start"]  # gate never opened

        wt2 = WorkerTelemetry(sent.append, heartbeat_s=0.0)
        wt2.run_start("r2")
        sink2 = wt2.heartbeat_sink(Eng())
        sink2(0, 0, 10, 2500, 1, False)
        assert sent[-1]["t"] == "hb" and sent[-1]["events"] == 7

    def test_send_failure_silences_emitter(self):
        def broken(rec):
            raise OSError("pipe gone")
        wt = WorkerTelemetry(broken)
        wt.run_start("r")          # first send fails -> emitter off
        wt.run_end(type("R", (), {"events_processed": 1, "makespan_us": 2,
                                  "rss_peak_kb": 0, "gc_collections": 0,
                                  "gc_collected": 0, "extra": {}})())
        assert wt._send is None    # and it stayed off without raising

    def test_run_error_record(self):
        sent = []
        wt = WorkerTelemetry(sent.append)
        wt.run_error("bad", ValueError("boom"))
        assert sent[0]["t"] == "run_error" and "boom" in sent[0]["error"]

    def test_host_probes(self):
        assert rss_peak_kb() > 0          # this test process has an RSS
        collections, _ = gc_totals()
        assert collections >= 0

    def test_no_emitter_outside_pool(self):
        assert worker_telemetry() is None


# ---------------------------------------------------------------------------
# The hub, end to end
# ---------------------------------------------------------------------------

class TestHub:
    def _sweep(self, tmp_path, specs, jobs=2, cache=None, **hub_kw):
        hub = TelemetryHub(stream_dir=tmp_path / "telemetry",
                           heartbeat_s=0.0, **hub_kw)
        ex = SweepExecutor(jobs=jobs, cache=cache, telemetry=hub)
        results = ex.run(specs)
        return hub, results

    def test_pool_sweep_streams_records(self, tmp_path):
        hub, results = self._sweep(tmp_path, SPECS)
        assert all(r is not None for r in results)
        recs = load_stream(hub.stream_path)
        kinds = {r["t"] for r in recs}
        assert {"sweep_start", "run_start", "run_end", "run_done",
                "sweep_end"} <= kinds
        for rec in recs:
            assert validate_record(rec) == []
        done = [r for r in recs if r["t"] == "run_done"]
        assert {d["run"] for d in done} == {s.label for s in SPECS}
        assert all(d["outcome"] == "simulated" for d in done)
        end = next(r for r in recs if r["t"] == "sweep_end")
        assert end["stats"]["n_specs"] == len(SPECS)

    def test_serial_sweep_streams_records(self, tmp_path):
        hub, results = self._sweep(tmp_path, SPECS[:1], jobs=1)
        kinds = {r["t"] for r in load_stream(hub.stream_path)}
        assert {"sweep_start", "run_start", "run_end", "run_done",
                "sweep_end"} <= kinds

    def test_cached_sweep_emits_cached_outcomes(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        self._sweep(tmp_path, SPECS, cache=cache)
        hub, _ = self._sweep(tmp_path, SPECS, cache=cache)
        recs = load_stream(hub.stream_path)
        done = [r for r in recs if r["t"] == "run_done"]
        assert all(d["outcome"] == "cached" for d in done)
        assert not any(r["t"] == "run_start" for r in recs)  # nothing ran

    def test_run_end_carries_memory_and_fault_fields(self, tmp_path):
        faulted = [
            RunSpec(workload="configure-gcc", machine="ryzen_4650g",
                    scheduler="nest", governor="schedutil", seed=2,
                    scale=0.3, faults=fault_profile("hotplug"))]
        hub, _ = self._sweep(tmp_path, faulted)
        end = next(r for r in load_stream(hub.stream_path)
                   if r["t"] == "run_end")
        assert end["rss_peak_kb"] > 0
        assert "gc_collections" in end and "faults" in end

    def test_stream_is_valid_jsonl(self, tmp_path):
        hub, _ = self._sweep(tmp_path, SPECS[:1])
        for line in hub.stream_path.read_text().splitlines():
            json.loads(line)

    def test_hub_without_stream_dir_still_works(self, tmp_path):
        hub = TelemetryHub()
        ex = SweepExecutor(jobs=2, cache=None, telemetry=hub)
        results = ex.run(SPECS)
        assert all(r is not None for r in results)
        assert hub.stream_path is None

    def test_view_failures_never_kill_the_sweep(self, tmp_path):
        class ExplodingView:
            def handle(self, rec):
                raise RuntimeError("renderer bug")

            def close(self):
                pass
        hub = TelemetryHub(view=ExplodingView())
        ex = SweepExecutor(jobs=1, cache=None, telemetry=hub)
        results = ex.run(SPECS[:1])
        assert results[0] is not None
        assert hub.view is None          # view benched after first failure

    def test_unwritable_stream_dir_degrades_to_silence(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        hub = TelemetryHub(stream_dir=blocked / "telemetry")
        ex = SweepExecutor(jobs=1, cache=None, telemetry=hub)
        assert ex.run(SPECS[:1])[0] is not None


# ---------------------------------------------------------------------------
# The tentpole invariant: telemetry changes nothing
# ---------------------------------------------------------------------------

class TestZeroPerturbation:
    def _images(self, specs, telemetry, tmp_path=None, jobs=2):
        hub = None
        if telemetry:
            hub = TelemetryHub(stream_dir=tmp_path / "telemetry",
                               heartbeat_s=0.0)   # heartbeat per segment
        ex = SweepExecutor(jobs=jobs, cache=None, telemetry=hub)
        return [canonical(r) for r in ex.run(specs)]

    def test_bit_identical_with_and_without_telemetry(self, tmp_path):
        with_t = self._images(SPECS, True, tmp_path)
        without = self._images(SPECS, False)
        assert with_t == without

    def test_bit_identical_under_fault_injection(self, tmp_path):
        specs = [
            RunSpec(workload="configure-gcc", machine="ryzen_4650g",
                    scheduler="nest", governor="schedutil", seed=s,
                    scale=0.3, faults=fault_profile("chaos"))
            for s in (1, 2)]
        assert self._images(specs, True, tmp_path) == \
            self._images(specs, False)

    def test_bit_identical_on_serial_path(self, tmp_path):
        assert self._images(SPECS, True, tmp_path, jobs=1) == \
            self._images(SPECS, False, jobs=1)
