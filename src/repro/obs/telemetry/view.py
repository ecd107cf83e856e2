"""Progress views over the telemetry record stream.

Two renderers, one interface: the :class:`TelemetryHub` feeds every
record to ``view.handle(record)`` from its drain thread and calls
``view.close()`` when the sweep ends.

* :class:`LiveView` — a redrawn multi-line block for interactive
  terminals: a header with done/total, throughput, ETA and cache
  counters, then one line per busy worker showing the run it is
  simulating, its sim-time progress and wall seconds.
* :class:`PlainView` — the non-TTY/CI fallback (``--progress=plain``):
  one terminal-width-clipped line per *completed* run plus a final
  summary line.

Both render to ``stderr`` by default and never touch ``stdout`` (result
tables stay machine-diffable).
"""

from __future__ import annotations

import shutil
import sys
import time
from typing import Any, Dict, Optional, TextIO


def _term_width(stream: TextIO) -> int:
    try:
        if stream.isatty():
            return shutil.get_terminal_size().columns
    except (ValueError, OSError):
        pass
    return 100


def _fmt_eta(seconds: float) -> str:
    if seconds < 0 or seconds != seconds:  # negative or NaN
        return "?"
    seconds = int(seconds)
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


class ProgressView:
    """Base class: counts completions, leaves rendering to subclasses."""

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.total = 0
        self.done = 0
        self.cached = 0
        self.t0 = time.monotonic()

    # -- record ingestion ------------------------------------------------

    def handle(self, rec: Dict[str, Any]) -> None:
        kind = rec.get("t")
        if kind == "sweep_start":
            self.total = int(rec.get("n_specs", 0))
            self.t0 = time.monotonic()
            self.on_sweep_start(rec)
        elif kind == "run_done":
            self.done = int(rec.get("done", self.done + 1))
            self.total = max(self.total, int(rec.get("total", self.total)))
            if rec.get("outcome") in ("cached", "checkpoint"):
                self.cached += 1
            self.on_run_done(rec)
        elif kind == "sweep_end":
            self.on_sweep_end(rec)
        else:
            self.on_other(rec)

    # -- subclass hooks --------------------------------------------------

    def on_sweep_start(self, rec: Dict[str, Any]) -> None: ...

    def on_run_done(self, rec: Dict[str, Any]) -> None: ...

    def on_sweep_end(self, rec: Dict[str, Any]) -> None: ...

    def on_other(self, rec: Dict[str, Any]) -> None: ...

    def close(self) -> None: ...

    # -- shared formatting -----------------------------------------------

    def _rate_eta(self) -> str:
        elapsed = max(time.monotonic() - self.t0, 1e-6)
        rate = self.done / elapsed
        left = self.total - self.done
        eta = _fmt_eta(left / rate) if rate > 0 else "?"
        return f"{rate:.1f} runs/s, ETA {eta}"


class PlainView(ProgressView):
    """One line per completed run; safe for CI logs and pipes."""

    def on_run_done(self, rec: Dict[str, Any]) -> None:
        outcome = rec.get("outcome", "?")
        src = ("cache " if outcome in ("cached", "checkpoint")
               else f"{rec.get('wall_s', 0.0):5.2f}s")
        line = (f"[{self.done}/{self.total}] {src}  "
                f"{rec.get('run', '?')}")
        width = _term_width(self.stream)
        self.stream.write(line[:width - 1] + "\n")
        self.stream.flush()

    def on_sweep_end(self, rec: Dict[str, Any]) -> None:
        st = rec.get("stats", {})
        wall = st.get("wall_s", time.monotonic() - self.t0)
        line = (f"done: {self.done}/{self.total} runs in {wall:.2f}s "
                f"({st.get('simulated', self.done - self.cached)} simulated, "
                f"{st.get('cache_hits', self.cached)} cached)")
        if rec.get("interrupted"):
            line += "  INTERRUPTED"
        self.stream.write(line + "\n")
        self.stream.flush()


class LiveView(ProgressView):
    """Redrawn per-worker block for interactive terminals.

    Renders at most ``fps`` times a second (heartbeats can be chatty) and
    repaints in place with ANSI cursor movement; ``close`` leaves the
    final frame on screen followed by a newline.
    """

    def __init__(self, stream: Optional[TextIO] = None,
                 fps: float = 10.0) -> None:
        super().__init__(stream)
        self._min_dt = 1.0 / max(fps, 0.1)
        self._last_draw = 0.0
        self._lines_drawn = 0
        self._drew = False
        #: pid -> latest run_start/hb payload for the run in flight.
        self._workers: Dict[int, Dict[str, Any]] = {}

    # -- ingestion -------------------------------------------------------

    def on_sweep_start(self, rec: Dict[str, Any]) -> None:
        self._draw(force=True)

    def on_other(self, rec: Dict[str, Any]) -> None:
        kind = rec.get("t")
        if kind in ("run_start", "hb"):
            self._workers[int(rec.get("pid", 0))] = rec
        elif kind in ("run_end", "run_error"):
            self._workers.pop(int(rec.get("pid", 0)), None)
        self._draw()

    def on_run_done(self, rec: Dict[str, Any]) -> None:
        self._draw()

    def on_sweep_end(self, rec: Dict[str, Any]) -> None:
        self._workers.clear()
        self._draw(force=True)

    def close(self) -> None:
        self._draw(force=True)
        if self._drew:
            # Terminate the final frame (its last line ends on "\r") so
            # whatever prints next starts on a fresh line.
            self.stream.write("\n")
            self.stream.flush()
            self._lines_drawn = 0
            self._drew = False

    # -- rendering -------------------------------------------------------

    def _draw(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last_draw < self._min_dt:
            return
        self._last_draw = now
        width = _term_width(self.stream)
        pct = (100 * self.done // self.total) if self.total else 0
        lines = [f"sweep {self.done}/{self.total} ({pct}%)  "
                 f"{self._rate_eta()}  cache {self.cached} hit(s)"]
        for pid in sorted(self._workers):
            rec = self._workers[pid]
            if rec.get("t") == "hb":
                detail = (f"sim {rec.get('sim_us', 0) / 1e6:.3f}s "
                          f"{rec.get('events', 0):,} ev "
                          f"{rec.get('wall_s', 0.0):.1f}s")
            else:
                detail = rec.get("phase", "build")
            lines.append(f"  w{pid} {rec.get('run', '?')}  {detail}")
        out = self.stream
        if self._lines_drawn:
            out.write(f"\x1b[{self._lines_drawn}F")  # up to first line
        for i, line in enumerate(lines):
            out.write("\x1b[2K" + line[:width - 1])
            out.write("\n" if i < len(lines) - 1 else "\r")
        # A shrinking block must blank the lines it no longer uses.
        extra = self._lines_drawn - (len(lines) - 1)
        for _ in range(max(0, extra)):
            out.write("\n\x1b[2K")
        for _ in range(max(0, extra)):
            out.write("\x1b[F")
        self._lines_drawn = len(lines) - 1
        self._drew = True
        out.flush()


def make_view(mode: str,
              stream: Optional[TextIO] = None) -> Optional[ProgressView]:
    """Map a ``--progress`` mode to a view instance (``None`` = silent).

    ``auto`` picks :class:`LiveView` on a TTY and :class:`PlainView`
    otherwise, so ``--progress`` does the right thing both interactively
    and inside CI logs.
    """
    stream = stream if stream is not None else sys.stderr
    if mode in (None, "", "none", "off"):
        return None
    if mode == "auto":
        try:
            tty = stream.isatty()
        except (ValueError, OSError):
            tty = False
        mode = "live" if tty else "plain"
    if mode == "live":
        return LiveView(stream)
    if mode == "plain":
        return PlainView(stream)
    raise ValueError(f"unknown progress mode {mode!r} "
                     f"(expected auto, live, plain or none)")
