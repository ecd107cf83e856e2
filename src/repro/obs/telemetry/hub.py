"""Live sweep telemetry: worker emitters and the parent-side hub.

The flow, end to end::

    pool worker                           parent process
    -----------                           --------------
    execute_spec()                        TelemetryHub.open_sweep()
      WorkerTelemetry.run_start()   --+     spawns the drain thread
      heartbeats from the tracer    --+-->  mp.Queue --> drain thread:
      WorkerTelemetry.run_end()     --+       * append to <sweep>.jsonl
                                              * feed the progress view
    (parent also emits run_done/           TelemetryHub.close_sweep()
     sweep_start/sweep_end records            flush + fsync, stop thread,
     into the same queue)                     record the sweep in history

Worker emitters are installed by the pool initializer
(:func:`init_worker`); the queue crosses the process boundary through
the ``ProcessPoolExecutor``'s worker-spawn path, so no manager process
is needed.  Everything is **best-effort and read-only**: a full queue, a
dead pipe or an unwritable stream directory degrades telemetry to
silence, never the sweep — and emitters only *observe* engine state
(no RNG draws, no event-queue writes), so a telemetry-on sweep is
bit-identical to a telemetry-off sweep (enforced by
``tests/test_telemetry.py``).

Crash safety of the JSONL stream: records are appended one line at a
time and the file handle is flushed after every record, so an
interrupted sweep (SIGKILL included) loses at most the final,
possibly-torn line — which :func:`~repro.obs.telemetry.records.read_stream`
skips on read.  The handle is fsynced on open and close.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from .records import make_record, read_stream, write_record

__all__ = [
    "TelemetryHub", "WorkerTelemetry", "init_worker", "worker_telemetry",
    "rss_peak_kb", "load_stream",
]

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX
    _resource = None


def rss_peak_kb() -> int:
    """This process's peak resident set size, in KiB (0 if unknown).

    ``ru_maxrss`` is a process-lifetime high-water mark: in a pool worker
    that has executed several runs it is the peak *so far*, not the peak
    of the current run alone.
    """
    if _resource is None:
        return 0
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - reported in bytes
        peak //= 1024
    return int(peak)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

class WorkerTelemetry:
    """Per-process emitter of run telemetry records.

    Lives as a module global inside each pool worker (installed by
    :func:`init_worker`) and in the parent for serial/degraded rounds.
    ``send`` is any callable accepting one record dict (normally
    ``queue.put``); the first send failure silences the emitter for the
    rest of the process lifetime.
    """

    def __init__(self, send: Callable[[Dict[str, Any]], None],
                 heartbeat_s: float = 0.5) -> None:
        self._send: Optional[Callable] = send
        self.heartbeat_s = heartbeat_s
        self._run: Optional[str] = None
        self._t0 = 0.0
        self._last_hb = 0.0

    def emit(self, rec: Dict[str, Any]) -> None:
        send = self._send
        if send is None:
            return
        try:
            send(rec)
        except Exception:
            self._send = None   # dead pipe: telemetry off, sweep unharmed

    # -- run lifecycle ---------------------------------------------------

    def run_start(self, label: str) -> None:
        self._run = label
        self._t0 = self._last_hb = time.monotonic()
        self.emit(make_record("run_start", run=label, pid=os.getpid(),
                              phase="build"))

    def heartbeat_sink(self, engine: Any) -> Callable:
        """A tracer segment sink that emits wall-clock-gated heartbeats.

        Piggybacks on the tracer's segment callbacks (which fire on every
        task/frequency transition, telemetry or not) so no extra engine
        events are scheduled: the simulation is observed, never steered.
        """
        def sink(core: int, start: int, end: int, freq_mhz: int,
                 task_id: int, spinning: bool) -> None:
            now = time.monotonic()
            if now - self._last_hb < self.heartbeat_s:
                return
            self._last_hb = now
            self.emit(make_record(
                "hb", run=self._run, pid=os.getpid(), phase="sim",
                sim_us=end, events=engine.events_processed,
                wall_s=round(now - self._t0, 3),
                rss_peak_kb=rss_peak_kb()))
        return sink

    def run_end(self, result: Any) -> None:
        self.emit(make_record(
            "run_end", run=self._run, pid=os.getpid(),
            wall_s=round(time.monotonic() - self._t0, 3),
            events=result.events_processed,
            makespan_us=result.makespan_us,
            rss_peak_kb=result.rss_peak_kb,
            gc_collections=result.gc_collections,
            gc_collected=result.gc_collected,
            faults=int(result.extra.get("faults_injected", 0))))
        self._run = None

    def run_error(self, label: str, exc: BaseException) -> None:
        self.emit(make_record("run_error", run=label, pid=os.getpid(),
                              error=repr(exc)))
        self._run = None


#: The process-local emitter (None = telemetry off in this process).
_worker: Optional[WorkerTelemetry] = None


def init_worker(queue: Any, heartbeat_s: float) -> None:
    """Pool-worker initializer: install this process's emitter."""
    global _worker
    _worker = WorkerTelemetry(queue.put, heartbeat_s)


def worker_telemetry() -> Optional[WorkerTelemetry]:
    """The installed emitter of the current process, if any."""
    return _worker


def _install_local(emitter: Optional[WorkerTelemetry]) -> Optional[WorkerTelemetry]:
    """Swap the process-local emitter (parent-side serial rounds)."""
    global _worker
    prev, _worker = _worker, emitter
    return prev


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

#: Parent-enqueued sentinel that stops the drain thread.
_STOP = {"t": "__stop__"}


class TelemetryHub:
    """Parent-side collector: drains the queue, streams JSONL, renders.

    Construct one per sweep *configuration* and hand it to
    :class:`~repro.experiments.parallel.SweepExecutor`; the executor
    drives ``open_sweep`` / ``run_done`` / ``close_sweep``.  All three
    sinks are optional:

    * ``stream_dir`` — directory for the crash-safe ``<sweep>.jsonl``
      record stream (usually ``<cache>/telemetry/``);
    * ``view`` — a :class:`~repro.obs.telemetry.view.ProgressView`;
    * ``history`` — a :class:`~repro.obs.history.HistoryStore` that
      receives the finished sweep (and its runs) on ``close_sweep``.
    """

    def __init__(self, stream_dir: Optional[Path] = None,
                 view: Optional[Any] = None,
                 history: Optional[Any] = None,
                 heartbeat_s: float = 0.5,
                 label: Optional[str] = None) -> None:
        self.stream_dir = Path(stream_dir) if stream_dir else None
        self.view = view
        self.history = history
        self.heartbeat_s = heartbeat_s
        self.label = label
        self.sweep_id: Optional[str] = None
        self.stream_path: Optional[Path] = None
        self.records_handled = 0
        self._queue: Optional[Any] = None
        self._thread: Optional[threading.Thread] = None
        self._fh = None
        self._prev_local: Optional[WorkerTelemetry] = None

    # -- executor API ----------------------------------------------------

    def open_sweep(self, n_specs: int, jobs: int) -> str:
        """Start the drain thread and announce the sweep; returns its id."""
        self.sweep_id = (time.strftime("%Y%m%d-%H%M%S")
                         + f"-{os.urandom(3).hex()}")
        self.records_handled = 0
        self._queue = multiprocessing.get_context().Queue()
        if self.stream_dir is not None:
            try:
                self.stream_dir.mkdir(parents=True, exist_ok=True)
                self.stream_path = self.stream_dir / f"{self.sweep_id}.jsonl"
                self._fh = open(self.stream_path, "a", encoding="utf-8")
            except OSError:
                self.stream_path = None
                self._fh = None
        self._thread = threading.Thread(target=self._drain,
                                        name="telemetry-drain", daemon=True)
        self._thread.start()
        self.emit(make_record("sweep_start", sweep=self.sweep_id,
                              n_specs=n_specs, jobs=jobs, label=self.label))
        # Serial/degraded rounds execute specs in this process; give them
        # the same emitter a pool worker would have.
        self._prev_local = _install_local(
            WorkerTelemetry(self._queue.put, self.heartbeat_s))
        return self.sweep_id

    def pool_init(self) -> tuple:
        """(initializer, initargs) to pass to ``ProcessPoolExecutor``."""
        return init_worker, (self._queue, self.heartbeat_s)

    def emit(self, rec: Dict[str, Any]) -> None:
        """Parent-side record injection (same queue the workers use)."""
        q = self._queue
        if q is None:
            return
        try:
            q.put(rec)
        except Exception:
            pass

    def run_done(self, label: str, outcome: str, done: int, total: int,
                 result: Optional[Any] = None, attempts: int = 0) -> None:
        fields: Dict[str, Any] = dict(run=label, outcome=outcome, done=done,
                                      total=total, attempts=attempts)
        if result is not None:
            fields.update(wall_s=result.sim_wall_s,
                          events=result.events_processed,
                          makespan_us=result.makespan_us)
        self.emit(make_record("run_done", **fields))

    def close_sweep(self, stats: Optional[Dict[str, Any]] = None,
                    runs: Optional[List[Dict[str, Any]]] = None,
                    interrupted: bool = False) -> None:
        """Emit the final record, stop the drain, persist to history."""
        if self._queue is None:
            return
        _install_local(self._prev_local)
        self._prev_local = None
        self.emit(make_record("sweep_end", sweep=self.sweep_id,
                              stats=stats or {}, interrupted=interrupted))
        self.emit(_STOP)
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=10.0)
        queue, self._queue = self._queue, None
        try:
            queue.close()
        except Exception:
            pass
        if self._fh is not None:
            try:
                self._fh.flush()
                os.fsync(self._fh.fileno())
                self._fh.close()
            except (OSError, ValueError):
                pass
            self._fh = None
        if self.view is not None:
            self.view.close()
        if self.history is not None and stats is not None:
            try:
                self.history.record_sweep(self.sweep_id, stats, runs or [],
                                          label=self.label,
                                          interrupted=interrupted)
            except Exception:
                pass   # history is a sink, never a failure mode

    # -- drain thread ----------------------------------------------------

    def _drain(self) -> None:
        queue = self._queue
        while True:
            try:
                rec = queue.get(timeout=0.25)
            except Exception:
                # Timeout, or a worker died mid-put and tore the pipe.
                if self._queue is None:
                    return     # close_sweep gave up on us
                continue
            if not isinstance(rec, dict):
                continue
            if rec.get("t") == "__stop__":
                return
            self._handle(rec)

    def _handle(self, rec: Dict[str, Any]) -> None:
        self.records_handled += 1
        if self._fh is not None:
            try:
                write_record(self._fh, rec)
                self._fh.flush()
            except (OSError, ValueError):
                self._fh = None   # stream gone; keep the sweep alive
        if self.view is not None:
            try:
                self.view.handle(rec)
            except Exception:
                self.view = None  # a broken renderer must not kill runs


def load_stream(path: Path) -> List[Dict[str, Any]]:
    """All records of one JSONL telemetry stream (torn tail tolerated)."""
    with open(path, encoding="utf-8") as fh:
        return list(read_stream(fh))
