"""Outside-in per-layer tracing of the simulator, from the benchmark's files.

The traced run wraps the public entry points of each layer (class
attributes, restored on exit) and the program functions the benchmark calls
itself.  A wrapper opens a span only when the call crosses into its layer
from another one; a call within the same layer runs unwrapped, so nested
``super()`` calls or a policy delegating to CFS count once.  A span's self
time is its duration minus the time covered by its child spans, and goes
to the layer in the span's name; the benchmark's own code between spans
goes to ``other``.

Spans at run granularity (a simulation, its workload build and start, the
engine loop, analysis, export) are kept one by one.  Hot-path spans occur
hundreds of thousands of times per simulation, so they are kept as one
aggregate per run and name: calls, total and self time.

Tracing is read-only: wrappers pass arguments and results through
untouched, the one listener added (``FreqModel.add_listener``) only counts,
and a dispatched event's callback is wrapped only after the queue has
popped it.  The benchmark checks that traced runs reproduce untraced
digests.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

OTHER = "other"
LAYERS = ("sim", "kernel", "sched", "hw", "governors", "metrics", "obs",
          "workloads", "experiments")

#: Names of the spans kept one by one rather than aggregated.
COARSE = frozenset({
    "experiments.run_experiment", "workloads.build", "workloads.start",
    "kernel.init", "kernel.run_until_idle", "sim.run", "obs.analyze",
    "obs.report", "obs.export"})

_MODULE_LAYER = {"sim": "sim", "kernel": "kernel", "sched": "sched",
                 "core": "sched", "hw": "hw", "governors": "governors",
                 "metrics": "metrics", "obs": "obs",
                 "workloads": "workloads", "experiments": "experiments"}


def layer_of_module(module: str) -> str:
    """``repro.core.nest`` -> ``sched``; anything outside ``repro`` -> other."""
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro":
        return _MODULE_LAYER.get(parts[1], OTHER)
    return OTHER


class Recorder:
    """Span stack, per-name aggregates and the run-granularity span list.

    A stack frame is ``[layer, child_seconds, coarse_span_id]``; a span
    adds its duration to its parent frame's ``child_seconds``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.t0 = clock()
        self.stack: List[list] = [[OTHER, 0.0, None]]
        #: name -> [calls, self_s, total_s] for the current run.
        self.table: Dict[str, List[float]] = {}
        #: Finished per-run aggregates: (run_id, name, calls, self, total).
        self.aggregates: List[Tuple[str, str, int, float, float]] = []
        #: Run-granularity spans: (id, name, start, end, parent, run_id).
        self.spans: List[Tuple[int, str, float, float, Optional[int], str]] = []
        self.run_id = ""
        self._next_id = 0

    def stat(self, name: str) -> List[float]:
        st = self.table.get(name)
        if st is None:
            st = self.table[name] = [0, 0.0, 0.0]
        return st

    # ---- spans ----------------------------------------------------------

    def wrap(self, fn: Callable, name: str, count_all: bool = False
             ) -> Callable:
        """``fn`` with a span named ``name`` (``layer.what``).

        ``count_all`` counts same-layer calls too (they still open no
        span); otherwise only calls crossing into the layer count.
        """
        layer = name.split(".", 1)[0]
        stack, clock, st = self.stack, self.clock, self.stat(name)
        coarse = name in COARSE
        spans, rec = self.spans, self

        def traced(*args, **kwargs):
            if stack[-1][0] == layer:
                if count_all:
                    st[0] += 1
                return fn(*args, **kwargs)
            parent_id = stack[-1][2]
            span_id = parent_id
            if coarse:
                span_id = rec._next_id
                rec._next_id += 1
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                stack[-1][1] += d
                st[0] += 1
                st[1] += d - frame[1]
                st[2] += d
                if coarse:
                    spans.append((span_id, name, t0 - rec.t0, t1 - rec.t0,
                                  parent_id, rec.run_id))

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def run(self, run_id: str) -> Iterator[None]:
        """Root span of one simulation; its self time is ``other``."""
        self.run_id = run_id
        span_id = self._next_id
        self._next_id += 1
        frame = [OTHER, 0.0, span_id]
        self.stack.append(frame)
        t0 = self.clock()
        try:
            yield
        finally:
            t1 = self.clock()
            self.stack.pop()
            st = self.stat("other.run")
            st[0] += 1
            st[1] += (t1 - t0) - frame[1]
            st[2] += t1 - t0
            self.spans.append((span_id, "other.run", t0 - self.t0,
                               t1 - self.t0, None, run_id))
            self.end_run()

    def end_run(self) -> None:
        """Move the current run's aggregates out and zero them in place."""
        for name, st in self.table.items():
            if st[0]:
                self.aggregates.append((self.run_id, name, int(st[0]),
                                        st[1], st[2]))
            st[0], st[1], st[2] = 0, 0.0, 0.0

    # ---- summaries ------------------------------------------------------

    def totals(self, since: int = 0) -> Dict[str, List[float]]:
        """name -> [calls, self_s, total_s] summed over the finished runs
        from index ``since`` of :attr:`aggregates` on."""
        out: Dict[str, List[float]] = {}
        for _run, name, calls, self_s, total_s in self.aggregates[since:]:
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += self_s
            acc[2] += total_s
        return out

    def write(self, path: str) -> int:
        """Write spans and per-run aggregates as JSON lines."""
        n = 0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({
                    "type": "span", "run": run_id, "id": sid, "name": name,
                    "start_s": round(start, 9), "end_s": round(end, 9),
                    "parent": parent}) + "\n")
                n += 1
            for run_id, name, calls, self_s, total_s in self.aggregates:
                fh.write(json.dumps({
                    "type": "aggregate", "run": run_id, "name": name,
                    "calls": calls, "self_s": round(self_s, 9),
                    "total_s": round(total_s, 9)}) + "\n")
                n += 1
        return n


class Instrumentation:
    """Installs and removes the class-level wrappers of one traced pass."""

    #: (module, class, methods, span name) — method spans at layer entries.
    METHOD_SPANS = (
        ("repro.sim.engine", "Engine", ("at", "after"), "sim.schedule"),
        ("repro.sim.engine", "Engine", ("cancel",), "sim.cancel"),
        ("repro.sim.engine", "Engine", ("run",), "sim.run"),
        ("repro.sim.trace", "Tracer",
         ("begin", "end", "freq_change", "flush"), "sim.tracer"),
        ("repro.kernel.scheduler_core", "Kernel", ("__init__",),
         "kernel.init"),
        ("repro.kernel.scheduler_core", "Kernel", ("run_until_idle",),
         "kernel.run_until_idle"),
        ("repro.kernel.scheduler_core", "Kernel", ("spawn",), "kernel.spawn"),
        ("repro.hw.freqmodel", "FreqModel", ("set_thread_state",),
         "hw.thread_state"),
        ("repro.hw.freqmodel", "FreqModel", ("notify_request_change",),
         "hw.request_change"),
        ("repro.hw.freqmodel", "FreqModel",
         ("freq_mhz", "core_freq_mhz", "idle_duration", "core_is_active",
          "active_physical_cores", "thread_state", "force_freq",
          "set_thermal_cap"), "hw.freq_query"),
        ("repro.hw.energy", "EnergyMeter",
         ("set_core_freq", "set_core_active", "advance", "sample",
          "current_power_watts"), "hw.energy"),
        ("repro.metrics.underload", "UnderloadTracker", ("segment_sink",),
         "metrics.segment"),
        ("repro.metrics.freqdist", "FreqDistribution", ("segment_sink",),
         "metrics.segment"),
        ("repro.metrics.underload", "UnderloadTracker",
         ("runnable_sink", "finalize"), "metrics.other"),
        ("repro.obs.log", "EventLog", ("emit",), "obs.emit"),
    )
    #: Kernel data structures counted on every call, from any layer; their
    #: time stays with the caller (a policy's load scan is placement time).
    COUNTERS = (
        ("repro.kernel.runqueue", "RunQueue",
         ("push", "pop", "peek", "remove", "steal_one", "load_avg", "util",
          "queued_tasks"), "kernel.runqueue_op"),
        ("repro.kernel.pelt", "PeltAvg", ("update", "peek", "add", "remove"),
         "kernel.pelt"),
    )
    SELECT = ("select_cpu_fork", "select_cpu_wakeup",
              "select_cpu_offline_migration")
    HOOKS = ("bind", "on_bind", "spin_ticks", "on_tick", "on_enqueue",
             "on_exit_idle", "on_cpu_offline", "on_cpu_online",
             "check_invariants")
    GOVERNOR = ("bind", "on_bind", "floor_mhz", "request_mhz", "on_tick",
                "on_activity_change")

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self._saved: List[Tuple[type, str, Any]] = []

    def _patch(self, cls: type, attr: str, wrapper: Callable) -> None:
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def _patch_own(self, cls: type, methods, name: str,
                   count_all: bool = False) -> None:
        for attr in methods:
            if attr in cls.__dict__:
                self._patch(cls, attr, self.rec.wrap(
                    cls.__dict__[attr], name, count_all))

    def install(self) -> None:
        import importlib

        from repro.governors.base import Governor
        from repro.sched import registry
        from repro.sched.base import SelectionPolicy
        from repro.sim.queue import EventQueue
        from repro.workloads.base import Workload

        rec = self.rec
        for module, cls_name, methods, name in self.METHOD_SPANS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch_own(cls, methods, name)
        for module, cls_name, methods, name in self.COUNTERS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch_own(cls, methods, name, count_all=True)

        registry.available_policies()  # imports every registered policy
        for cls in _subclasses(SelectionPolicy):
            self._patch_own(cls, self.SELECT, "sched.select")
            self._patch_own(cls, self.HOOKS, "sched.hook")
        for cls in _subclasses(Governor):
            self._patch_own(cls, self.GOVERNOR, "governors.call")
        for cls in _subclasses(Workload):
            self._patch_own(cls, ("start",), "workloads.start")

        # Engine dispatch: wrap each popped event's callback in a span of
        # the layer owning it (the engine reads ``ev.callback`` once, right
        # after the pop, and drops the event).
        names: Dict[Any, str] = {}
        dispatched = rec.stat("sim.dispatch")
        orig_pop = EventQueue.__dict__["pop"]

        def pop(queue):
            ev = orig_pop(queue)
            if ev is not None:
                dispatched[0] += 1
                fn = getattr(ev.callback, "__func__", ev.callback)
                name = names.get(fn)
                if name is None:
                    name = names[fn] = (f"{layer_of_module(fn.__module__)}"
                                        f".callback.{fn.__qualname__}")
                ev.callback = rec.wrap(ev.callback, name)
            return ev
        self._patch(EventQueue, "pop", pop)

        # Frequency changes, counted through the public listener API.
        from repro.kernel.scheduler_core import Kernel
        kernel_init = Kernel.__dict__["__init__"]
        changes = rec.stat("hw.freq_change")

        def on_freq_change(_pc: int, _mhz: int) -> None:
            changes[0] += 1

        def init(kernel, *args, **kwargs):
            kernel_init(kernel, *args, **kwargs)
            kernel.freq.add_listener(on_freq_change)
        self._patch(Kernel, "__init__", init)

    def uninstall(self) -> None:
        while self._saved:
            cls, attr, orig = self._saved.pop()
            setattr(cls, attr, orig)

    def api(self, api: Any) -> Any:
        """The benchmark's own calls into the program, wrapped."""
        w = self.rec.wrap
        return api._replace(
            make_workload=w(api.make_workload, "workloads.build"),
            run_experiment=w(api.run_experiment,
                             "experiments.run_experiment"),
            analyze_run=w(api.analyze_run, "obs.analyze"),
            report_json=w(api.report_json, "obs.report"),
            export_trace=w(api.export_trace, "obs.export"))


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


@contextmanager
def instrumented(rec: Recorder) -> Iterator[Instrumentation]:
    inst = Instrumentation(rec)
    inst.install()
    try:
        yield inst
    finally:
        inst.uninstall()


# ---- per-layer metrics ------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: Dict[str, List[float]]) -> Dict[str, float]:
    """Per-layer metrics from one traced pass's ``Recorder.totals()``."""
    def calls(*names: str) -> int:
        return int(sum(totals.get(n, (0,))[0] for n in names))

    def self_s(*names: str) -> float:
        return sum(totals.get(n, (0, 0.0))[1] for n in names)

    def prefixed(prefix: str) -> List[str]:
        return [n for n in totals if n.startswith(prefix)]

    layer_self = {layer: 0.0 for layer in LAYERS + (OTHER,)}
    for name, (_c, s, _t) in totals.items():
        layer = name.split(".", 1)[0]
        layer_self[layer if layer in layer_self else OTHER] += s

    scheduled = calls("sim.schedule")
    dispatched = calls("sim.dispatch")
    reprices = calls("hw.thread_state", "hw.request_change",
                     *prefixed("hw.callback."))
    run_total = totals.get("experiments.run_experiment", (0, 0.0, 0.0))[2]
    engine_total = totals.get("sim.run", (0, 0.0, 0.0))[2]
    m = {
        "sim.events_scheduled": scheduled,
        "sim.events_cancelled": calls("sim.cancel"),
        "sim.events_dispatched": dispatched,
        "sim.dispatch_ratio": _ratio(dispatched, scheduled),
        "kernel.callbacks": calls(*prefixed("kernel.callback.")),
        "kernel.runqueue_ops": calls("kernel.runqueue_op"),
        "kernel.pelt_calls": calls("kernel.pelt"),
        "sched.select_calls": calls("sched.select"),
        "sched.select_s": self_s("sched.select"),
        "sched.hook_calls": calls("sched.hook", *prefixed("sched.callback.")),
        "sched.hook_s": self_s("sched.hook", *prefixed("sched.callback.")),
        "hw.thread_state_calls": calls("hw.thread_state"),
        "hw.reprice_calls": reprices,
        "hw.freq_changes": calls("hw.freq_change"),
        "hw.freq_change_ratio": _ratio(calls("hw.freq_change"), reprices),
        "hw.freq_s": layer_self["hw"] - self_s("hw.energy"),
        "hw.energy_calls": calls("hw.energy"),
        "hw.energy_s": self_s("hw.energy"),
        "governors.calls": calls("governors.call"),
        "metrics.segment_calls": calls("metrics.segment"),
        "obs.emit_calls": calls("obs.emit"),
        "obs.emit_s": self_s("obs.emit"),
        "obs.analyze_s": self_s("obs.analyze"),
        "obs.export_s": self_s("obs.report", "obs.export"),
        "workloads.build_s": self_s("workloads.build"),
        "workloads.start_s": self_s("workloads.start"),
        "experiments.run_setup_s": run_total - engine_total,
    }
    for layer, s in layer_self.items():
        m[f"{layer}.self_s"] = s
    return m

