"""The analyzer protocol: single-pass, composable, deterministic.

An :class:`Analyzer` consumes a run's structured event log once, event
by event, and finishes into a JSON-serializable report fragment.  The
driver (:func:`run_analyzers`) feeds every analyzer from the same single
pass over the log, so analyzing a million-event run costs one iteration
regardless of how many analyzers are registered.

The determinism contract (DESIGN.md §9): a report is a pure function of
the event log plus the :class:`AnalysisContext` — no wall-clock reads,
no host information, no iteration over unordered containers without
sorting.  The same run therefore yields a byte-identical report on
every repeat, which the golden files pin.

Analyzers are strictly post-hoc: nothing here is imported by the engine
or kernel hot paths, and event collection itself is the pre-existing
``collect_events`` memory sink.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..events import SchedEvent

#: Bump when a report's meaning changes (additions are free); the
#: envelope carries it so archived reports stay interpretable.
ANALYSIS_VERSION = 1

#: Default warm window: a core counts as warm for a dispatch when it was
#: last active at most this many simulated microseconds earlier (about
#: one scheduling tick on the modeled machines).
DEFAULT_WARM_WINDOW_US = 1000


@dataclass
class AnalysisContext:
    """Everything an analyzer may consult besides the event stream.

    Only run-describing, deterministic inputs belong here — never wall
    time, engine choice or host facts (see the determinism contract).
    """

    makespan_us: int = 0
    n_cpus: int = 0
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Tracer segments when the run recorded them (``record_trace``);
    #: the occupancy analyzer degrades gracefully without them.
    segments: Optional[Sequence[Any]] = None
    warm_window_us: int = DEFAULT_WARM_WINDOW_US


class Analyzer:
    """One single-pass reduction over the event log.

    Subclasses set ``name`` (the report key), accumulate state in
    :meth:`feed` and produce a JSON-ready dict in :meth:`finish`.
    """

    name: str = "?"

    def feed(self, ev: SchedEvent) -> None:
        raise NotImplementedError

    def finish(self, ctx: AnalysisContext) -> Dict[str, Any]:
        raise NotImplementedError


def default_analyzers() -> List[Analyzer]:
    """Fresh instances of the seven standard analyzers."""
    from .analyzers import (DeadlineAnalyzer, FreqRampAnalyzer,
                            LatencyTierAnalyzer, NestDynamicsAnalyzer,
                            OccupancyAnalyzer, SpinEconomicsAnalyzer,
                            WarmCoreAnalyzer)
    return [LatencyTierAnalyzer(), WarmCoreAnalyzer(),
            NestDynamicsAnalyzer(), FreqRampAnalyzer(),
            OccupancyAnalyzer(), SpinEconomicsAnalyzer(),
            DeadlineAnalyzer()]


def run_analyzers(events: Iterable[SchedEvent], ctx: AnalysisContext,
                  analyzers: Optional[Sequence[Analyzer]] = None,
                  ) -> Dict[str, Dict[str, Any]]:
    """Feed every analyzer from one pass over ``events``.

    Returns ``{analyzer.name: report}`` with names sorted, so the
    serialized output is stable however the analyzers were listed.
    """
    active = list(analyzers) if analyzers is not None else default_analyzers()
    names = [a.name for a in active]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate analyzer names: {sorted(names)}")
    for ev in events:
        for a in active:
            a.feed(ev)
    return {a.name: a.finish(ctx) for a in sorted(active,
                                                  key=lambda a: a.name)}
