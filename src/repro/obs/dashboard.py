"""Self-contained HTML dashboard for sweeps and their history.

``repro obs dashboard`` renders one static HTML file — stdlib only,
every byte inline (CSS and the few SVG charts are generated here in
Python), no server, no external scripts or fonts — so the artifact can
be archived from CI, attached to a PR, or opened from disk years later
and still work.

Sections, each fed by one observability layer:

* **Sweep summary** — tiles and a stacked outcome bar from the sweep's
  history row (:class:`~repro.obs.history.HistoryStore`);
* **Runs table** — per-run wall-time bars, outcome chips, makespan /
  energy / peak-RSS columns, attempts;
* **Worker timeline** — an SVG Gantt strip per worker pid, drawn from
  the sweep's telemetry JSONL stream (``run_start``/``run_end``
  records), with heartbeat ticks;
* **History sparklines** — wall time and events/s across the archived
  sweeps;
* **Trace links** — relative links to Perfetto traces when a trace
  directory is supplied.

Everything user-controlled goes through :func:`html.escape`; the
builder never embeds raw strings from specs, labels or errors.
"""

from __future__ import annotations

import html
import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from .history import HistoryStore

__all__ = ["build_dashboard", "render_dashboard"]

#: Outcome -> chip/bar color.  Keep in sync with the legend row.
OUTCOME_COLORS = {
    "simulated": "#2f9e44",
    "retried": "#e8930c",
    "cached": "#1971c2",
    "checkpoint": "#7048e8",
    "skipped": "#e03131",
    "pending": "#868e96",
}

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 70rem; color: #212529; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
.tiles { display: flex; flex-wrap: wrap; gap: .6rem; }
.tile { border: 1px solid #dee2e6; border-radius: .4rem;
        padding: .5rem .8rem; min-width: 7rem; }
.tile .v { font-size: 1.3rem; font-weight: 600; }
.tile .k { font-size: .75rem; color: #868e96; text-transform: uppercase; }
table { border-collapse: collapse; width: 100%; font-size: .85rem; }
th, td { text-align: left; padding: .3rem .5rem;
         border-bottom: 1px solid #e9ecef; }
th { color: #868e96; font-weight: 600; }
.chip { display: inline-block; padding: .05rem .5rem; border-radius: 1rem;
        color: #fff; font-size: .75rem; }
.bar { background: #e9ecef; border-radius: .2rem; height: .8rem;
       position: relative; min-width: 8rem; }
.bar span { display: block; height: 100%; border-radius: .2rem; }
.muted { color: #868e96; }
.warn { color: #e03131; font-weight: 600; }
svg text { font-family: inherit; }
footer { margin-top: 3rem; font-size: .75rem; color: #868e96; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _tile(key: str, value: Any) -> str:
    return (f'<div class="tile"><div class="v">{_esc(value)}</div>'
            f'<div class="k">{_esc(key)}</div></div>')


def _outcome_chip(outcome: str) -> str:
    color = OUTCOME_COLORS.get(outcome, "#868e96")
    return f'<span class="chip" style="background:{color}">{_esc(outcome)}</span>'


def _stacked_bar(counts: Dict[str, int]) -> str:
    total = sum(counts.values())
    if total <= 0:
        return '<div class="muted">no runs</div>'
    spans = []
    for outcome, color in OUTCOME_COLORS.items():
        n = counts.get(outcome, 0)
        if not n:
            continue
        pct = n / total * 100.0
        spans.append(f'<span title="{_esc(outcome)}: {n}" style="display:'
                     f'inline-block;width:{pct:.2f}%;height:100%;'
                     f'background:{color}"></span>')
    legend = " ".join(f'{_outcome_chip(o)} {n}'
                      for o, n in counts.items() if n)
    return (f'<div class="bar" style="height:1rem">{"".join(spans)}</div>'
            f'<p>{legend}</p>')


def _wall_bar(wall: Optional[float], max_wall: float, outcome: str) -> str:
    if wall is None:
        return '<span class="muted">—</span>'
    pct = 100.0 * wall / max_wall if max_wall > 0 else 0.0
    color = OUTCOME_COLORS.get(outcome, "#868e96")
    return (f'<div class="bar" title="{wall:.3f}s">'
            f'<span style="width:{max(pct, 1.0):.1f}%;'
            f'background:{color}"></span></div>')


def _sparkline(values: Sequence[float], width: int = 220, height: int = 40,
               color: str = "#1971c2", label: str = "") -> str:
    """An inline SVG sparkline (no JS, no external assets)."""
    pts = [v for v in values if v is not None]
    if len(pts) < 2:
        return '<span class="muted">not enough data</span>'
    lo, hi = min(pts), max(pts)
    span = (hi - lo) or 1.0
    step = (width - 10) / (len(pts) - 1)
    coords = []
    for i, v in enumerate(pts):
        x = 5 + i * step
        y = 5 + (height - 10) * (1.0 - (v - lo) / span)
        coords.append(f"{x:.1f},{y:.1f}")
    last_x, last_y = coords[-1].split(",")
    return (f'<svg width="{width}" height="{height}" role="img" '
            f'aria-label="{_esc(label)}">'
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{" ".join(coords)}"/>'
            f'<circle cx="{last_x}" cy="{last_y}" r="2.5" fill="{color}"/>'
            f'</svg>')


# ---------------------------------------------------------------------------
# Worker timeline (SVG Gantt from the telemetry stream)
# ---------------------------------------------------------------------------

def _timeline_svg(records: List[Dict[str, Any]]) -> str:
    """Per-pid activity strips from run_start/run_end/hb records."""
    starts: Dict[tuple, float] = {}
    spans: List[tuple] = []           # (pid, run, t0, t1, ok)
    beats: List[tuple] = []           # (pid, ts)
    t_min = t_max = None
    for rec in records:
        ts = rec.get("ts")
        if not isinstance(ts, (int, float)):
            continue
        t_min = ts if t_min is None else min(t_min, ts)
        t_max = ts if t_max is None else max(t_max, ts)
        kind, pid, run = rec.get("t"), rec.get("pid"), rec.get("run")
        if kind == "run_start":
            starts[(pid, run)] = ts
        elif kind in ("run_end", "run_error") and (pid, run) in starts:
            spans.append((pid, run, starts.pop((pid, run)), ts,
                          kind == "run_end"))
        elif kind == "hb" and pid is not None:
            beats.append((pid, ts))
    # A run cut off by an interrupt has a start and no end: draw it to
    # the end of the stream so the interruption is visible.
    for (pid, run), t0 in starts.items():
        if t_max is not None:
            spans.append((pid, run, t0, t_max, False))
    if not spans or t_min is None or t_max <= t_min:
        return ('<p class="muted">no worker activity recorded '
                '(fully cached sweep, or telemetry stream missing)</p>')
    pids = sorted({pid for pid, *_ in spans})
    width, row_h, left = 900, 26, 70
    height = row_h * len(pids) + 30
    scale = (width - left - 10) / (t_max - t_min)
    parts = [f'<svg width="{width}" height="{height}" role="img" '
             f'aria-label="worker timeline">']
    for row, pid in enumerate(pids):
        y = 10 + row * row_h
        parts.append(f'<text x="2" y="{y + 13}" font-size="11" '
                     f'fill="#868e96">pid {_esc(pid)}</text>')
        for s_pid, run, t0, t1, ok in spans:
            if s_pid != pid:
                continue
            x = left + (t0 - t_min) * scale
            w = max((t1 - t0) * scale, 2.0)
            color = "#2f9e44" if ok else "#e03131"
            parts.append(
                f'<rect x="{x:.1f}" y="{y}" width="{w:.1f}" '
                f'height="{row_h - 8}" rx="2" fill="{color}" '
                f'opacity="0.8"><title>{_esc(run)} '
                f'({t1 - t0:.2f}s)</title></rect>')
        for b_pid, ts in beats:
            if b_pid != pid:
                continue
            x = left + (ts - t_min) * scale
            parts.append(f'<rect x="{x:.1f}" y="{y + row_h - 7}" width="1" '
                         f'height="4" fill="#1971c2"/>')
    axis_y = height - 14
    parts.append(f'<text x="{left}" y="{axis_y + 10}" font-size="10" '
                 f'fill="#868e96">0s</text>')
    parts.append(f'<text x="{width - 50}" y="{axis_y + 10}" font-size="10" '
                 f'fill="#868e96">{t_max - t_min:.1f}s</text>')
    parts.append('</svg>')
    return "".join(parts)


# ---------------------------------------------------------------------------
# Dashboard assembly
# ---------------------------------------------------------------------------

def _summary_section(sweep: Dict[str, Any],
                     runs: List[Dict[str, Any]]) -> str:
    stats = json.loads(sweep.get("stats_json") or "{}")
    when = time.strftime("%Y-%m-%d %H:%M:%S",
                         time.localtime(sweep.get("ts", 0)))
    tiles = [
        _tile("runs", sweep.get("n_specs", 0)),
        _tile("simulated", sweep.get("simulated", 0)),
        _tile("cached", sweep.get("cache_hits", 0)),
        _tile("wall", f"{sweep.get('wall_s', 0.0):.2f}s"),
        _tile("events", f"{sweep.get('events', 0):,}"),
        _tile("events/s", f"{stats.get('events_per_sec', 0.0):,.0f}"),
        _tile("workers", sweep.get("workers", 0)),
    ]
    badges = []
    for key in ("retried", "timeouts", "skipped"):
        if sweep.get(key):
            badges.append(f'<span class="warn">{sweep[key]} {key}</span>')
    if sweep.get("degraded"):
        badges.append('<span class="warn">degraded to serial</span>')
    if sweep.get("interrupted"):
        badges.append('<span class="warn">INTERRUPTED</span>')
    counts: Dict[str, int] = {}
    for run in runs:
        counts[run["outcome"]] = counts.get(run["outcome"], 0) + 1
    head = (f'<p class="muted">sweep <code>{_esc(sweep.get("uid"))}</code>'
            f' — {_esc(when)} — git <code>{_esc(sweep.get("git_sha"))}</code>'
            + (f' — {_esc(sweep.get("label"))}' if sweep.get("label")
               else "") + '</p>')
    return (head + f'<div class="tiles">{"".join(tiles)}</div>'
            + (f'<p>{" · ".join(badges)}</p>' if badges else "")
            + "<h2>Outcomes</h2>" + _stacked_bar(counts))


def _runs_section(runs: List[Dict[str, Any]]) -> str:
    if not runs:
        return '<p class="muted">no runs recorded</p>'
    max_wall = max((r.get("sim_wall_s") or 0.0) for r in runs) or 1.0
    rows = []
    for run in runs:
        wall = run.get("sim_wall_s")
        rss = run.get("rss_peak_kb")
        makespan = run.get("makespan_us")
        energy = run.get("energy_j")
        rows.append(
            "<tr>"
            f'<td><code>{_esc(run["label"])}</code></td>'
            f"<td>{_outcome_chip(run['outcome'])}</td>"
            f"<td>{_wall_bar(wall, max_wall, run['outcome'])}</td>"
            f'<td>{f"{wall:.3f}s" if wall is not None else "—"}</td>'
            f'<td>{makespan if makespan is not None else "—"}</td>'
            f'<td>{f"{energy:.3f}" if energy is not None else "—"}</td>'
            f'<td>{f"{rss:,} KiB" if rss else "—"}</td>'
            f'<td>{run.get("attempts", 0)}</td>'
            f'<td class="muted">{_esc(run.get("error") or "")}</td>'
            "</tr>")
    return ('<table><thead><tr><th>run</th><th>outcome</th>'
            '<th>wall time</th><th></th><th>makespan (µs)</th>'
            '<th>energy (J)</th><th>peak RSS</th><th>att</th><th></th>'
            '</tr></thead><tbody>' + "".join(rows) + "</tbody></table>")


#: Placement tier -> stacked-bar color (analysis panel).
TIER_COLORS = (
    ("share_attach", "#2f9e44"),
    ("share_primary", "#1971c2"),
    ("share_reserve", "#7048e8"),
    ("share_impatient", "#e8930c"),
    ("share_cfs", "#e03131"),
)


def _tier_bar(metrics: Dict[str, Any]) -> str:
    """A stacked placement-tier share bar from a run's derived metrics."""
    spans = []
    for name, color in TIER_COLORS:
        share = metrics.get(f"derived.{name}")
        if not share:
            continue
        spans.append(f'<span title="{_esc(name[6:])}: {share:.1%}" '
                     f'style="display:inline-block;width:{share * 100:.2f}%;'
                     f'height:100%;background:{color}"></span>')
    if not spans:
        return '<span class="muted">—</span>'
    return f'<div class="bar" style="height:.8rem">{"".join(spans)}</div>'


def _analysis_section(runs: List[Dict[str, Any]]) -> str:
    """Derived paper metrics per run (trace-analysis layer).

    Fed by the ``derived.*`` scalars the sweep parent computes from each
    run's metrics registry; sweeps archived before the analysis layer
    have no derived keys and fall back to the muted notice.
    """
    rows = []
    for run in runs:
        m = run.get("metrics") or {}
        if not any(k.startswith("derived.") for k in m):
            continue
        p50 = m.get("derived.wakeup_p50_us")
        p99 = m.get("derived.wakeup_p99_us")
        warm = m.get("derived.warm_share")
        jobs = m.get("derived.deadline_jobs")
        if jobs:
            missed = m.get("derived.deadline_misses", 0)
            deadline = f"{jobs - missed:g}/{jobs:g}"
            activations = m.get("derived.deadline_activations")
            if activations:
                deadline += f" ({activations:g} promo)"
        else:
            deadline = "—"
        rows.append(
            "<tr>"
            f'<td><code>{_esc(run["label"])}</code></td>'
            f'<td>{f"≤{p50:g}" if p50 is not None else "—"}</td>'
            f'<td>{f"≤{p99:g}" if p99 is not None else "—"}</td>'
            f'<td>{f"{warm:.1%}" if warm is not None else "—"}</td>'
            f"<td>{_tier_bar(m)}</td>"
            f"<td>{deadline}</td>"
            "</tr>")
    if not rows:
        return ('<p class="muted">no derived metrics recorded '
                '(sweep predates the trace-analysis layer)</p>')
    legend = " ".join(
        f'<span class="chip" style="background:{color}">'
        f'{_esc(name[6:])}</span>' for name, color in TIER_COLORS)
    return ('<table><thead><tr><th>run</th><th>wakeup p50 (µs)</th>'
            '<th>wakeup p99 (µs)</th><th>warm share</th>'
            '<th>placement tiers</th><th>deadlines met</th>'
            '</tr></thead><tbody>'
            + "".join(rows) + "</tbody></table>"
            + f"<p>{legend}</p>")


def _history_section(store: HistoryStore, limit: int = 30) -> str:
    sweeps = list(reversed(store.sweeps(limit=limit)))
    if len(sweeps) < 2:
        return '<p class="muted">fewer than two archived sweeps</p>'
    walls = [s.get("wall_s") for s in sweeps]
    eps = [json.loads(s.get("stats_json") or "{}").get("events_per_sec")
           for s in sweeps]
    return (f'<p>sweep wall time (last {len(sweeps)}): '
            f'{_sparkline(walls, label="sweep wall seconds")} '
            f'<span class="muted">{walls[0]:.2f}s → {walls[-1]:.2f}s</span>'
            f'</p><p>events/s: '
            f'{_sparkline(eps, color="#2f9e44", label="events per second")}'
            f'</p>')


def _traces_section(traces_dir: Optional[Path]) -> str:
    if traces_dir is None:
        return ""
    traces_dir = Path(traces_dir)
    if not traces_dir.is_dir():
        return ""
    links = []
    for path in sorted(traces_dir.glob("*.json")) + \
            sorted(traces_dir.glob("*.pftrace")):
        links.append(f'<li><a href="{_esc(path.as_posix())}">'
                     f'{_esc(path.name)}</a></li>')
    if not links:
        return ""
    return ("<h2>Traces</h2><p>Open in "
            "<a href=\"https://ui.perfetto.dev\">ui.perfetto.dev</a>:</p>"
            f"<ul>{''.join(links)}</ul>")


def build_dashboard(history_path: Path,
                    sweep_ref: str = "last",
                    stream_dir: Optional[Path] = None,
                    traces_dir: Optional[Path] = None) -> str:
    """The dashboard HTML for one archived sweep (raises KeyError if the
    ref matches nothing)."""
    with HistoryStore(Path(history_path)) as store:
        sweep = store.resolve(sweep_ref)
        runs = store.runs_of(sweep["id"])
        history_html = _history_section(store)
    records: List[Dict[str, Any]] = []
    if stream_dir is not None:
        stream = Path(stream_dir) / f"{sweep['uid']}.jsonl"
        if stream.exists():
            from .telemetry.hub import load_stream
            records = load_stream(stream)
    return render_dashboard(sweep, runs, records, history_html, traces_dir)


def render_dashboard(sweep: Dict[str, Any], runs: List[Dict[str, Any]],
                     records: List[Dict[str, Any]], history_html: str,
                     traces_dir: Optional[Path] = None) -> str:
    """Assemble the final single-file HTML from pre-fetched pieces."""
    generated = time.strftime("%Y-%m-%d %H:%M:%S")
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro sweep dashboard — {_esc(sweep.get('uid'))}</title>
<style>{_CSS}</style>
</head>
<body>
<h1>Sweep dashboard</h1>
{_summary_section(sweep, runs)}
<h2>Runs</h2>
{_runs_section(runs)}
<h2>Analysis</h2>
{_analysis_section(runs)}
<h2>Worker timeline</h2>
{_timeline_svg(records)}
<h2>History</h2>
{history_html}
{_traces_section(traces_dir)}
<footer>generated {_esc(generated)} by <code>repro obs dashboard</code>
— self-contained: no external scripts, styles or fonts.</footer>
</body>
</html>
"""
