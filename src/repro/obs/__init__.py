"""Unified observability layer.

Designed to cost nothing when nobody is looking.  Per-run pieces:

* :mod:`repro.obs.events` — the typed, timestamped record vocabulary: one
  :class:`~repro.obs.events.SchedEvent` per scheduler decision (placement,
  nest transition, wakeup, preemption, DVFS step, spin start/stop).
* :mod:`repro.obs.log` — the :class:`~repro.obs.log.EventLog` hub the
  simulator emits into.  Hot paths guard every emission with
  ``if obs.enabled:``, so a run with no sinks attached allocates no event
  objects and pays one attribute read per potential emission.
* :mod:`repro.obs.metrics` — the :class:`~repro.obs.metrics.MetricsRegistry`
  of named counters, gauges and fixed-bucket histograms.  Always on (it
  replaced the ad-hoc ``NestPolicy.stats`` dict) and serialized into
  :class:`~repro.metrics.summary.RunResult` and the result cache.
* :mod:`repro.obs.export` — exporters: Perfetto/Chrome ``trace_event``
  JSON (open it at https://ui.perfetto.dev), a JSONL event dump, and the
  plain-text summary behind ``repro trace``.

Sweep-level pieces (see DESIGN.md §8):

* :mod:`repro.obs.telemetry` — live worker→parent record streaming
  (heartbeats, per-run summaries) over a multiprocessing queue, with a
  crash-safe JSONL stream and live/plain progress views (``--progress``).
* :mod:`repro.obs.history` — sqlite-backed run-history store behind the
  ``repro history`` CLI: every completed sweep is recorded and ``history
  diff`` gates wall-time and metric regressions.
* :mod:`repro.obs.dashboard` — ``repro obs dashboard``: a self-contained
  static HTML rendering of a sweep plus its history (stdlib only, inline
  CSS/SVG, no scripts).
"""

from .events import EVENT_KINDS, SchedEvent
from .log import EventLog
from .metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "EVENT_KINDS",
    "SchedEvent",
    "EventLog",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]
