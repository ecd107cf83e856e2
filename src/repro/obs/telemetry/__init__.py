"""Sweep-level telemetry: live worker streaming and crash-safe JSONL.

PR 2 made a single *run* observable; this package makes the *sweep* the
observable unit.  Workers stream structured records (heartbeats, per-run
summaries with peak RSS and GC deltas) over a multiprocessing queue to a
:class:`~repro.obs.telemetry.hub.TelemetryHub` in the parent, which

* appends every record to a crash-safe JSONL stream
  (``<cache>/telemetry/<sweep>.jsonl``) so an interrupted sweep leaves a
  readable trail,
* renders a live progress view (:class:`~repro.obs.telemetry.view.LiveView`
  per-worker block on TTYs, :class:`~repro.obs.telemetry.view.PlainView`
  one-line-per-run fallback for CI logs), and
* hands the finished sweep to the run-history store
  (:mod:`repro.obs.history`) that feeds ``repro history diff`` and the
  HTML dashboard (:mod:`repro.obs.dashboard`).

Telemetry is strictly an observer: a sweep with telemetry enabled is
bit-identical to one without (enforced by ``tests/test_telemetry.py``).
"""

from .hub import (TelemetryHub, WorkerTelemetry, init_worker, load_stream,
                  rss_peak_kb, worker_telemetry)
from .records import (RECORD_KINDS, SCHEMA_VERSION, make_record, read_stream,
                      validate_record)
from .view import LiveView, PlainView, ProgressView, make_view

__all__ = [
    "TelemetryHub", "WorkerTelemetry", "init_worker", "worker_telemetry",
    "rss_peak_kb", "load_stream",
    "RECORD_KINDS", "SCHEMA_VERSION", "make_record", "read_stream",
    "validate_record",
    "LiveView", "PlainView", "ProgressView", "make_view",
]
