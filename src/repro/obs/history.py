"""Persistent run history: every finished sweep, queryable and diffable.

The telemetry JSONL streams (``obs/telemetry``) answer "what is this
sweep doing *right now*"; this module answers "how does it compare to
every sweep that came before".  A :class:`HistoryStore` is a single
sqlite file (usually ``<cache>/history.sqlite``) that
:meth:`~repro.obs.telemetry.hub.TelemetryHub.close_sweep` appends to:
one row per sweep (stats, git sha, wall time, hardening counters) and
one row per run (spec key, outcome, wall time, makespan, energy, peak
RSS, scalar metrics; the ``engine`` column is kept for rows written
while a second backend existed).

On top of the store sit the regression gates:

* :meth:`HistoryStore.diff` compares two sweeps run-by-run (matched on
  ``spec_key``) and flags wall-time regressions beyond a relative
  tolerance and *any* drift in deterministic outputs (makespan, energy,
  metrics — those must be bit-stable unless ``ENGINE_VERSION`` moved);
  ``repro history diff <ref>`` exits non-zero when a gate fires.

Schema versioning: the sqlite ``user_version`` pragma tracks the schema
generation; :data:`MIGRATIONS` is an ordered list whose *i*-th entry
upgrades version *i* to *i+1*.  Opening a store applies any pending
migrations inside one transaction, so old history files keep working
across PRs (a new column arrives as a migration, never as a breaking
re-create).
"""

from __future__ import annotations

import json
import sqlite3
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["HistoryStore", "HistoryDiff", "Regression", "git_sha"]


def git_sha() -> str:
    """Short sha of the working tree's HEAD ('unknown' outside a repo)."""
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, check=True,
                              timeout=10).stdout.strip()
    except Exception:
        return "unknown"


# ---------------------------------------------------------------------------
# Schema + migrations
# ---------------------------------------------------------------------------

def _migrate_to_v1(con: sqlite3.Connection) -> None:
    """v0 (empty file) -> v1: the initial sweeps/runs schema."""
    con.execute("""
        CREATE TABLE sweeps (
            id          INTEGER PRIMARY KEY AUTOINCREMENT,
            uid         TEXT UNIQUE NOT NULL,
            ts          REAL NOT NULL,
            label       TEXT,
            git_sha     TEXT,
            interrupted INTEGER NOT NULL DEFAULT 0,
            n_specs     INTEGER NOT NULL DEFAULT 0,
            simulated   INTEGER NOT NULL DEFAULT 0,
            cache_hits  INTEGER NOT NULL DEFAULT 0,
            retried     INTEGER NOT NULL DEFAULT 0,
            timeouts    INTEGER NOT NULL DEFAULT 0,
            skipped     INTEGER NOT NULL DEFAULT 0,
            degraded    INTEGER NOT NULL DEFAULT 0,
            workers     INTEGER NOT NULL DEFAULT 0,
            wall_s      REAL NOT NULL DEFAULT 0,
            events      INTEGER NOT NULL DEFAULT 0,
            stats_json  TEXT NOT NULL DEFAULT '{}'
        )""")
    con.execute("""
        CREATE TABLE runs (
            id          INTEGER PRIMARY KEY AUTOINCREMENT,
            sweep_id    INTEGER NOT NULL REFERENCES sweeps(id)
                        ON DELETE CASCADE,
            label       TEXT NOT NULL,
            spec_key    TEXT,
            engine      TEXT,
            seed        INTEGER,
            outcome     TEXT NOT NULL,
            cached      INTEGER NOT NULL DEFAULT 0,
            completed   INTEGER NOT NULL DEFAULT 0,
            attempts    INTEGER NOT NULL DEFAULT 0,
            sim_wall_s  REAL,
            events      INTEGER,
            makespan_us INTEGER,
            energy_j    REAL,
            rss_peak_kb INTEGER,
            metrics_json TEXT,
            error       TEXT
        )""")
    con.execute("CREATE INDEX idx_runs_sweep ON runs(sweep_id)")
    con.execute("CREATE INDEX idx_runs_spec ON runs(spec_key)")


#: Ordered migrations; entry *i* upgrades ``user_version`` i -> i+1.
#: Append, never edit: old history files replay the whole chain.
MIGRATIONS = [_migrate_to_v1]

SCHEMA_VERSION = len(MIGRATIONS)


@dataclass
class Regression:
    """One gate violation found by :meth:`HistoryStore.diff`."""

    kind: str          # "wall" | "metric" | "missing" | "outcome"
    label: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.label}: {self.detail}"


@dataclass
class HistoryDiff:
    """The result of comparing a sweep against a baseline sweep."""

    current: Dict[str, Any]
    baseline: Dict[str, Any]
    regressions: List[Regression] = field(default_factory=list)
    improvements: List[str] = field(default_factory=list)
    #: Per-run "what moved most" summaries (``diff(attribute=True)``).
    attributions: List[str] = field(default_factory=list)
    compared: int = 0

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions)

    def render(self) -> str:
        lines = [f"history diff: sweep #{self.current['id']} "
                 f"({self.current['uid']}) vs baseline #{self.baseline['id']} "
                 f"({self.baseline['uid']}) — {self.compared} run(s) compared"]
        for reg in self.regressions:
            lines.append(f"  REGRESSION {reg}")
        for imp in self.improvements:
            lines.append(f"  improved   {imp}")
        if not self.regressions:
            lines.append("  no regressions")
        for attr in self.attributions:
            lines.append(f"  {attr}")
        return "\n".join(lines)


class HistoryStore:
    """Sqlite-backed archive of completed sweeps and their runs."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._con = sqlite3.connect(str(self.path))
        self._con.row_factory = sqlite3.Row
        self._migrate()

    def close(self) -> None:
        self._con.close()

    def __enter__(self) -> "HistoryStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _migrate(self) -> None:
        version = self._con.execute("PRAGMA user_version").fetchone()[0]
        if version > SCHEMA_VERSION:
            raise RuntimeError(
                f"history file {self.path} is schema v{version}, newer than "
                f"this code's v{SCHEMA_VERSION} — refusing to touch it")
        while version < SCHEMA_VERSION:
            with self._con:
                MIGRATIONS[version](self._con)
                version += 1
                self._con.execute(f"PRAGMA user_version = {version}")

    @property
    def schema_version(self) -> int:
        return self._con.execute("PRAGMA user_version").fetchone()[0]

    # -- writing ---------------------------------------------------------

    def record_sweep(self, uid: str, stats: Dict[str, Any],
                     runs: Sequence[Dict[str, Any]],
                     label: Optional[str] = None,
                     interrupted: bool = False,
                     sha: Optional[str] = None,
                     ts: Optional[float] = None) -> int:
        """Archive one finished sweep; returns its integer history id."""
        with self._con:
            cur = self._con.execute(
                """INSERT INTO sweeps (uid, ts, label, git_sha, interrupted,
                       n_specs, simulated, cache_hits, retried, timeouts,
                       skipped, degraded, workers, wall_s, events, stats_json)
                   VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)""",
                (uid, ts if ts is not None else time.time(), label,
                 sha if sha is not None else git_sha(),
                 int(bool(interrupted)),
                 int(stats.get("n_specs", 0)),
                 int(stats.get("simulated", 0)),
                 int(stats.get("cache_hits", 0)),
                 int(stats.get("retried", 0)),
                 int(stats.get("timeouts", 0)),
                 int(stats.get("skipped", 0)),
                 int(bool(stats.get("degraded", False))),
                 int(stats.get("workers", 0)),
                 float(stats.get("wall_s", 0.0)),
                 int(stats.get("events", 0)),
                 json.dumps(stats, sort_keys=True)))
            sweep_id = cur.lastrowid
            self._con.executemany(
                """INSERT INTO runs (sweep_id, label, spec_key, engine, seed,
                       outcome, cached, completed, attempts, sim_wall_s,
                       events, makespan_us, energy_j, rss_peak_kb,
                       metrics_json, error)
                   VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)""",
                [(sweep_id, r.get("label", "?"), r.get("spec_key"),
                  r.get("engine"), r.get("seed"), r.get("outcome", "?"),
                  int(bool(r.get("cached", False))),
                  int(bool(r.get("completed", False))),
                  int(r.get("attempts", 0)), r.get("sim_wall_s"),
                  r.get("events_processed"), r.get("makespan_us"),
                  r.get("energy_j"), r.get("rss_peak_kb"),
                  json.dumps(r["metrics"], sort_keys=True)
                  if r.get("metrics") else None,
                  r.get("error")) for r in runs])
        return int(sweep_id)

    # -- reading ---------------------------------------------------------

    def sweeps(self, limit: int = 20) -> List[Dict[str, Any]]:
        """The most recent sweeps, newest first."""
        rows = self._con.execute(
            "SELECT * FROM sweeps ORDER BY id DESC LIMIT ?",
            (int(limit),)).fetchall()
        return [dict(r) for r in rows]

    def runs_of(self, sweep_id: int) -> List[Dict[str, Any]]:
        rows = self._con.execute(
            "SELECT * FROM runs WHERE sweep_id = ? ORDER BY id",
            (int(sweep_id),)).fetchall()
        out = []
        for row in rows:
            d = dict(row)
            d["metrics"] = (json.loads(d.pop("metrics_json"))
                            if d.get("metrics_json") else {})
            out.append(d)
        return out

    def resolve(self, ref: str) -> Dict[str, Any]:
        """A sweep row from a reference: ``last``, ``last-N``, an integer
        history id, or a (prefix of a) sweep uid."""
        ref = str(ref).strip()
        row = None
        if ref == "last" or ref.startswith("last-"):
            back = 0 if ref == "last" else int(ref.split("-", 1)[1])
            rows = self._con.execute(
                "SELECT * FROM sweeps ORDER BY id DESC LIMIT 1 OFFSET ?",
                (back,)).fetchall()
            row = rows[0] if rows else None
        elif ref.isdigit():
            row = self._con.execute("SELECT * FROM sweeps WHERE id = ?",
                                    (int(ref),)).fetchone()
        if row is None:
            row = self._con.execute(
                "SELECT * FROM sweeps WHERE uid LIKE ? ORDER BY id DESC",
                (ref + "%",)).fetchone()
        if row is None:
            raise KeyError(f"no sweep matches {ref!r}")
        return dict(row)

    # -- regression gate -------------------------------------------------

    def diff(self, current_ref: str = "last", baseline_ref: str = "last-1",
             wall_tol: float = 0.5, metric_tol: float = 0.0,
             attribute: bool = False, top_moves: int = 3) -> HistoryDiff:
        """Compare two archived sweeps run-by-run.

        Runs are matched on ``spec_key`` (falling back to label).  A run
        that *simulated* on both sides gates on wall time:
        ``current > baseline * (1 + wall_tol)`` is a regression (cached
        hits are skipped — they replay the producing run's wall time).
        Deterministic outputs (makespan, energy, scalar metrics — which
        since the analysis layer include the ``derived.*`` paper
        metrics) gate at ``metric_tol`` relative drift **whenever both
        sides completed**, cached or not: those must not move unless the
        engine version did.

        ``attribute=True`` additionally ranks, per matched run, the
        ``top_moves`` metrics that moved most relative to the baseline
        (the history-level cross-run attribution; ``repro obs analyze
        --baseline`` gives the deeper per-tier latency attribution).
        """
        cur = self.resolve(current_ref)
        base = self.resolve(baseline_ref)
        diff = HistoryDiff(current=cur, baseline=base)
        base_runs = {(r["spec_key"] or r["label"]): r
                     for r in self.runs_of(base["id"])}
        for run in self.runs_of(cur["id"]):
            key = run["spec_key"] or run["label"]
            other = base_runs.get(key)
            if other is None:
                continue   # spec not in baseline: nothing to gate against
            diff.compared += 1
            label = run["label"]
            if run["outcome"] in ("skipped", "pending"):
                if other["completed"]:
                    diff.regressions.append(Regression(
                        "outcome", label,
                        f"{other['outcome']} in baseline, now "
                        f"{run['outcome']}"))
                continue
            if (not run["cached"] and not other["cached"]
                    and run["sim_wall_s"] and other["sim_wall_s"]):
                ratio = run["sim_wall_s"] / other["sim_wall_s"]
                if ratio > 1.0 + wall_tol:
                    diff.regressions.append(Regression(
                        "wall", label,
                        f"{other['sim_wall_s']:.3f}s -> "
                        f"{run['sim_wall_s']:.3f}s ({ratio:.2f}x, "
                        f"tolerance {1.0 + wall_tol:.2f}x)"))
                elif ratio < 1.0 - wall_tol:
                    diff.improvements.append(
                        f"{label}: {other['sim_wall_s']:.3f}s -> "
                        f"{run['sim_wall_s']:.3f}s ({ratio:.2f}x)")
            if run["completed"] and other["completed"]:
                self._gate_metrics(diff, label, run, other, metric_tol)
                if attribute:
                    self._attribute(diff, label, run, other, top_moves)
        return diff

    @staticmethod
    def _attribute(diff: HistoryDiff, label: str, run: Dict[str, Any],
                   other: Dict[str, Any], top_moves: int) -> None:
        """Rank which metrics moved most between two matched runs."""
        from .analysis.diff import rank_moves

        def flat(r: Dict[str, Any]) -> Dict[str, float]:
            out = {k: v for k, v in (r.get("metrics") or {}).items()
                   if isinstance(v, (int, float))}
            for scalar in ("makespan_us", "energy_j"):
                if r.get(scalar) is not None:
                    out[scalar] = r[scalar]
            return out

        moves = rank_moves(flat(run), flat(other), top=top_moves)
        if not moves:
            diff.attributions.append(f"{label}: no metric moved")
            return
        detail = "; ".join(m.render() for m in moves)
        diff.attributions.append(f"{label}: moved most — {detail}")

    @staticmethod
    def _gate_metrics(diff: HistoryDiff, label: str, run: Dict[str, Any],
                      other: Dict[str, Any], tol: float) -> None:
        scalars = [("makespan_us", run.get("makespan_us"),
                    other.get("makespan_us")),
                   ("energy_j", run.get("energy_j"), other.get("energy_j")),
                   ("events", run.get("events"), other.get("events"))]
        cur_m, base_m = run.get("metrics") or {}, other.get("metrics") or {}
        for name in sorted(cur_m.keys() & base_m.keys()):
            scalars.append((name, cur_m[name], base_m[name]))
        for name, a, b in scalars:
            if a is None or b is None:
                continue
            if b == 0:
                drift = 0.0 if a == 0 else float("inf")
            else:
                drift = abs(a - b) / abs(b)
            if drift > tol:
                diff.regressions.append(Regression(
                    "metric", label, f"{name}: {b} -> {a} "
                    f"(drift {drift:.2%}, tolerance {tol:.2%})"))

