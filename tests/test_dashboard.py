"""HTML dashboard: self-contained, well-formed, complete.

The contract under test: stdlib-only generation, every run referenced,
zero external resources (the file must render from disk forever), and a
working ``repro obs dashboard`` CLI path.
"""

from __future__ import annotations

import json
import re
from html.parser import HTMLParser

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.cli import main
from repro.experiments.parallel import RunSpec, SweepExecutor
from repro.obs.dashboard import build_dashboard
from repro.obs.history import HistoryStore
from repro.obs.telemetry.hub import TelemetryHub

SPECS = [
    RunSpec(workload="configure-gcc", machine="ryzen_4650g",
            scheduler=sched, governor="schedutil", seed=1, scale=0.3)
    for sched in ("cfs", "nest")
]

#: Tags whose open/close counts must balance for the page to be sane.
BALANCED_TAGS = ("html", "head", "body", "table", "svg", "div", "p")


class TagBalance(HTMLParser):
    def __init__(self):
        super().__init__()
        self.opened: dict = {}
        self.closed: dict = {}

    def handle_starttag(self, tag, attrs):
        self.opened[tag] = self.opened.get(tag, 0) + 1

    def handle_endtag(self, tag):
        self.closed[tag] = self.closed.get(tag, 0) + 1


def assert_well_formed(html_text: str) -> None:
    assert html_text.startswith("<!DOCTYPE html>")
    parser = TagBalance()
    parser.feed(html_text)
    parser.close()
    for tag in BALANCED_TAGS:
        assert parser.opened.get(tag, 0) == parser.closed.get(tag, 0), tag


def assert_self_contained(html_text: str) -> None:
    """No scripts, no external stylesheets/images/fonts."""
    assert "<script" not in html_text
    assert '<link' not in html_text
    assert "@import" not in html_text
    # The only allowed absolute URL is the documentation link telling
    # the reader where Perfetto traces open.
    urls = re.findall(r'(?:src|href)="(https?://[^"]+)"', html_text)
    assert all(u.startswith("https://ui.perfetto.dev") for u in urls), urls


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """Two sweeps (simulated, then fully cached) with full telemetry."""
    tmp = tmp_path_factory.mktemp("dash")
    cache = ResultCache(root=tmp / "cache")
    hist_path = cache.root / "history.sqlite"
    for label in ("first", "second"):
        hub = TelemetryHub(stream_dir=cache.root / "telemetry",
                           history=HistoryStore(hist_path),
                           heartbeat_s=0.0, label=label)
        SweepExecutor(jobs=2, cache=cache, telemetry=hub).run(SPECS)
    return tmp


class TestBuildDashboard:
    def test_well_formed_and_self_contained(self, swept):
        html_text = build_dashboard(
            swept / "cache" / "history.sqlite", "last-1",
            stream_dir=swept / "cache" / "telemetry")
        assert_well_formed(html_text)
        assert_self_contained(html_text)

    def test_every_run_is_referenced(self, swept):
        html_text = build_dashboard(swept / "cache" / "history.sqlite",
                                    "last-1")
        for spec in SPECS:
            assert spec.label in html_text

    def test_simulated_sweep_has_worker_timeline(self, swept):
        html_text = build_dashboard(
            swept / "cache" / "history.sqlite", "last-1",
            stream_dir=swept / "cache" / "telemetry")
        assert 'aria-label="worker timeline"' in html_text
        assert "pid " in html_text

    def test_cached_sweep_renders_without_timeline(self, swept):
        html_text = build_dashboard(
            swept / "cache" / "history.sqlite", "last",
            stream_dir=swept / "cache" / "telemetry")
        assert_well_formed(html_text)
        assert "cached" in html_text

    def test_history_sparkline_appears_with_two_sweeps(self, swept):
        html_text = build_dashboard(swept / "cache" / "history.sqlite")
        assert "sweep wall time" in html_text
        assert "<svg" in html_text

    def test_analysis_panel_renders_derived_metrics(self, swept):
        html_text = build_dashboard(swept / "cache" / "history.sqlite",
                                    "last-1")
        assert "<h2>Analysis</h2>" in html_text
        assert "warm share" in html_text
        assert "wakeup p99" in html_text
        # The nest run's placement-tier stacked bar with its legend.
        assert "placement tiers" in html_text
        assert "attach" in html_text and "cfs" in html_text

    def test_analysis_panel_degrades_without_derived_metrics(self, tmp_path):
        # A pre-analysis-layer sweep: rows with no derived.* keys.
        with HistoryStore(tmp_path / "h.sqlite") as st:
            st.record_sweep("u1", {"n_specs": 1, "simulated": 1}, [
                {"label": "old", "outcome": "simulated", "cached": False,
                 "completed": True, "sim_wall_s": 1.0,
                 "metrics": {"kernel.wakeups": 3}}])
        html_text = build_dashboard(tmp_path / "h.sqlite")
        assert "<h2>Analysis</h2>" in html_text
        assert "no derived metrics recorded" in html_text

    def test_labels_are_escaped(self, tmp_path):
        with HistoryStore(tmp_path / "h.sqlite") as st:
            st.record_sweep("u1", {"n_specs": 1, "simulated": 1}, [
                {"label": "<img src=x onerror=alert(1)>",
                 "outcome": "simulated", "cached": False, "completed": True,
                 "sim_wall_s": 1.0, "error": "<script>evil</script>"}],
                label="<b>bold</b>")
        html_text = build_dashboard(tmp_path / "h.sqlite")
        assert "<img src=x" not in html_text
        assert "<script>" not in html_text
        assert "&lt;img" in html_text

    def test_trace_links_section(self, swept, tmp_path):
        traces = tmp_path / "traces"
        traces.mkdir()
        (traces / "run1.json").write_text("{}")
        html_text = build_dashboard(swept / "cache" / "history.sqlite",
                                    traces_dir=traces)
        assert "run1.json" in html_text and "Traces" in html_text

    def test_unknown_ref_raises(self, swept):
        with pytest.raises(KeyError):
            build_dashboard(swept / "cache" / "history.sqlite", "nope")


class TestCliDashboard:
    def test_cli_writes_dashboard(self, swept, tmp_path, capsys):
        out = tmp_path / "dash.html"
        assert main(["obs", "dashboard",
                     "--cache-dir", str(swept / "cache"),
                     "--out", str(out)]) == 0
        assert "dashboard:" in capsys.readouterr().out
        html_text = out.read_text(encoding="utf-8")
        assert_well_formed(html_text)
        assert_self_contained(html_text)
        for spec in SPECS:
            assert spec.label in html_text

    def test_cli_without_history_is_an_error(self, tmp_path, capsys):
        assert main(["obs", "dashboard",
                     "--cache-dir", str(tmp_path / "void")]) == 1
        assert "no run history" in capsys.readouterr().err

    def test_cli_unknown_sweep_is_an_error(self, swept, tmp_path, capsys):
        assert main(["obs", "dashboard",
                     "--cache-dir", str(swept / "cache"),
                     "--sweep", "zzz",
                     "--out", str(tmp_path / "x.html")]) == 1
        assert "error" in capsys.readouterr().err
