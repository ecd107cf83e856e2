"""Command-line interface: run experiments without writing Python.

Usage (installed as ``python -m repro`` or the ``nest-repro`` script)::

    python -m repro list                 # machines, workloads, experiments
    python -m repro run --workload configure-llvm_ninja \
        --machine 5218_2s --scheduler nest --governor schedutil \
        --trace out.json                 # Perfetto trace (ui.perfetto.dev)
    python -m repro trace fig2 --scale 0.5   # text digest of a traced run
    python -m repro compare --workload dacapo-h2 --machine 6130_4s --jobs 8
    python -m repro sweep fig5 --seeds 2 --scale 0.5   # registry sweep
    python -m repro cache stats          # result-cache maintenance
    python -m repro obs report           # newest sweep in the run history
    python -m repro obs dashboard        # self-contained HTML dashboard
    python -m repro obs analyze fig2 --scale 0.3   # trace-analysis report
    python -m repro obs query fig2 --kind place --cpu 3   # event queries
    python -m repro history list         # archived sweeps (sqlite-backed)
    python -m repro history diff last    # regression gate vs previous sweep
    python -m repro describe fig5        # registry entry for an artefact
    python -m repro verify fuzz --runs 200 --seed 1   # invariant fuzzing
    python -m repro verify replay repro.json          # re-run a saved repro

Sweeping commands (``compare``, ``sweep``) parallelise over worker
processes (``--jobs`` / ``$REPRO_JOBS``, default: all cpus), consult
the content-addressed result cache under ``.repro-cache/`` unless
``--no-cache`` is given, and show a live view with ``--progress``
(``--progress=plain`` for CI logs).  Every sweep streams telemetry to
``<cache>/telemetry/<sweep>.jsonl`` and archives itself into
``<cache>/history.sqlite``, the only on-disk record of a sweep (``--no-cache``
sweeps keep none); ``repro obs report`` digests the newest one, ``repro
history diff`` gates a sweep against a baseline and ``repro obs
dashboard`` renders the whole thing as one self-contained HTML file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

import dataclasses

from ..analysis.tables import pct, render_table
from ..faults import FAULT_PROFILES, FaultConfig, fault_profile
from ..hw.machines import ALL_MACHINES, get_machine
from ..obs.export import events_to_jsonl, text_summary, write_chrome_trace
from ..obs.history import HistoryStore
from ..obs.telemetry.hub import TelemetryHub
from ..obs.telemetry.view import make_view
from ..sched.registry import available_policies, iter_policy_infos
# Re-exported for backward compatibility: the catalogue used to live here.
from ..workloads.catalog import make_workload, workload_names
from .cache import ResultCache
from .parallel import RunSpec, SweepExecutor, SweepStats, execute_spec
from .registry import EXPERIMENTS, get_experiment, reference_spec, specs_for
from .runner import STANDARD_COMBOS, compare

__all__ = ["build_parser", "main", "make_workload", "workload_names"]


def _history_path(cache_dir) -> Path:
    """The history sqlite lives next to the result cache it describes."""
    return ResultCache(Path(cache_dir) if cache_dir else None).root \
        / "history.sqlite"


def _executor_from_args(args) -> SweepExecutor:
    cache = None
    if not getattr(args, "no_cache", False):
        root = getattr(args, "cache_dir", None)
        cache = ResultCache(Path(root) if root else None)
    view = make_view(getattr(args, "progress", None) or "none", sys.stderr)
    telemetry = None
    if cache is not None or view is not None:
        stream_dir = history = None
        if cache is not None:
            stream_dir = cache.root / "telemetry"
            history = HistoryStore(cache.root / "history.sqlite")
        telemetry = TelemetryHub(stream_dir=stream_dir, view=view,
                                 history=history)
    return SweepExecutor(jobs=args.jobs, cache=cache,
                         timeout_s=getattr(args, "timeout", None),
                         retries=getattr(args, "retries", 2),
                         skip_failures=getattr(args, "keep_going", False),
                         telemetry=telemetry)


def _faults_from_args(args) -> "FaultConfig | None":
    name = getattr(args, "faults", None)
    if not name or name == "none":
        return None
    cfg = fault_profile(name)
    return cfg if cfg.enabled else None


def _cmd_list(args) -> int:
    print("machines:")
    for key, m in ALL_MACHINES.items():
        print(f"  {key:12s} {m.describe()}")
    print("\nschedulers (policy registry):")
    for info in iter_policy_infos():
        suffix = (f" [invariants: {','.join(sorted(info.invariant_groups))}]"
                  if info.invariant_groups else "")
        print(f"  {info.name:12s} {info.description}{suffix}")
    print("\nworkloads:")
    for name in workload_names():
        print(f"  {name}")
    print("\nexperiments (registry):")
    for exp_id, exp in EXPERIMENTS.items():
        print(f"  {exp_id:20s} {exp.artefact}: {exp.description}")
    return 0


def _cmd_run(args) -> int:
    trace_path = getattr(args, "trace", None)
    events_path = getattr(args, "events", None)
    faults = _faults_from_args(args)
    spec = RunSpec(workload=args.workload, machine=args.machine,
                   scheduler=args.scheduler, governor=args.governor,
                   seed=args.seed, scale=args.scale,
                   record_trace=bool(trace_path), faults=faults)
    res = execute_spec(spec,
                       collect_events=bool(trace_path or events_path))
    print(res.brief())
    print(f"  wall={res.sim_wall_s:.3f}s  events={res.events_processed:,}  "
          f"({res.events_per_sec:,.0f} events/s)")
    if res.rss_peak_kb:
        mem = (f"  rss-peak={res.rss_peak_kb:,} KiB  "
               f"gc={res.gc_collections} collection(s), "
               f"{res.gc_collected:,} collected")
        if res.alloc_peak_kb:
            mem += f"  alloc-peak={res.alloc_peak_kb:,} KiB"
        print(mem)
    if faults is not None:
        injected = int(res.extra.get("faults_injected", 0))
        counters = {k.split(".", 1)[1]: v["value"]
                    for k, v in sorted(res.metrics.items())
                    if k.startswith("kernel.fault_")}
        detail = ", ".join(f"{k}={v}" for k, v in counters.items())
        print(f"  faults[{args.faults}]: {injected} planned"
              + (f" ({detail})" if detail else ""))
    if args.verbose and res.freq_dist is not None:
        for label, frac in res.freq_dist.as_dict().items():
            if frac >= 0.005:
                print(f"  {label}: {frac:.1%}")
    if trace_path:
        label = f"{res.workload} {res.scheduler}-{res.governor}"
        write_chrome_trace(trace_path, res.trace_segments, res.events,
                           n_cpus=get_machine(spec.machine).n_cpus,
                           label=label)
        print(f"  trace: {trace_path} "
              f"({len(res.trace_segments)} segments, "
              f"{len(res.events)} events; open at ui.perfetto.dev)")
    if events_path:
        with open(events_path, "w", encoding="utf-8") as fh:
            n = events_to_jsonl(res.events, fh)
        print(f"  events: {events_path} ({n} JSONL records)")
    return 0


def _cmd_trace(args) -> int:
    try:
        res, events, segments, n_cpus = _analysis_events(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(res.brief())
    print(text_summary(segments, events, res.metrics))
    if args.out:
        write_chrome_trace(args.out, segments, events, n_cpus=n_cpus,
                           label=f"{res.workload} "
                                 f"{res.scheduler}-{res.governor}")
        print(f"trace: {args.out} (open at ui.perfetto.dev)")
    return 0


def _cmd_obs(args) -> int:
    if args.action == "dashboard":
        return _cmd_obs_dashboard(args)
    if args.action == "analyze":
        return _cmd_obs_analyze(args)
    if args.action == "query":
        return _cmd_obs_query(args)
    import json as _json
    path = _history_path(args.cache_dir)
    if not path.exists():
        print(f"no run history at {path} — run a sweep or compare first",
              file=sys.stderr)
        return 1
    with HistoryStore(path) as store:
        try:
            sweep = store.resolve("last")
        except KeyError:
            print(f"run history at {path} is empty — run a sweep or "
                  f"compare first", file=sys.stderr)
            return 1
        stats = _json.loads(sweep.pop("stats_json"))
        runs = store.runs_of(sweep["id"])
    if args.json:
        print(_json.dumps({"sweep": sweep, "stats": stats, "runs": runs},
                          sort_keys=True, indent=2))
        return 0
    fields = {f.name for f in dataclasses.fields(SweepStats)}
    print(SweepStats(**{k: v for k, v in stats.items()
                        if k in fields}).summary())
    # Runs that never finished (pending/skipped) have a NULL wall time.
    slowest = sorted(runs, key=lambda r: -(r["sim_wall_s"] or 0.0))
    for run in slowest[:args.top]:
        print(f"  {run['outcome']:10s} {run['sim_wall_s'] or 0.0:6.2f}s  "
              f"{run['events'] or 0:>12,} ev  {run['label']}")
    return 0


def _analysis_events(args):
    """The (result, events, segments, n_cpus) a trace/analyze/query works on.

    ``--events FILE`` analyzes a JSONL dump; otherwise the experiment's
    reference run (or a bare workload name's nest/schedutil run) is
    simulated with event collection on.  A pure table entry raises
    ``ValueError``; an unknown name raises ``KeyError``.
    """
    from ..obs.export import events_from_jsonl

    if getattr(args, "events", None):
        with open(args.events, encoding="utf-8") as fh:
            events = events_from_jsonl(fh)
        n_cpus = 1 + max((ev.cpu for ev in events if ev.cpu >= 0), default=-1)
        return None, events, None, n_cpus

    try:
        exp = get_experiment(args.experiment)
    except KeyError:
        exp = None
    if exp is not None:
        spec = reference_spec(exp, seed=args.seed, scale=args.scale,
                              machine=args.machine)
        if spec is None:
            raise ValueError(f"{args.experiment} has no traceable workload "
                             f"(pure table entry)")
    else:
        make_workload(args.experiment)   # raises KeyError on bad names
        spec = RunSpec(workload=args.experiment,
                       machine=args.machine or "5218_2s",
                       scheduler="nest", governor="schedutil",
                       seed=args.seed, scale=args.scale, record_trace=True)
    res = execute_spec(spec, collect_events=True)
    return (res, res.events, res.trace_segments,
            get_machine(spec.machine).n_cpus)


def _cmd_obs_analyze(args) -> int:
    """Replay a run's event log through the analyzers; print/save the
    report (deterministic: byte-identical across repeats)."""
    from ..obs.analysis import (analyze_run, diff_reports,
                                render_attribution, report_json, report_text)

    if not args.experiment and not args.events:
        print("error: give an experiment/workload or --events FILE",
              file=sys.stderr)
        return 2
    try:
        result, events, segments, n_cpus = _analysis_events(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = analyze_run(result, events, n_cpus=n_cpus, segments=segments,
                         warm_window_us=args.warm_window_us)
    doc = report_json(report)
    if args.out:
        Path(args.out).write_text(doc, encoding="utf-8")
    if args.json:
        sys.stdout.write(doc)
    else:
        print(report_text(report))
        if args.out:
            print(f"report: {args.out} ({len(doc):,} bytes)")
    if args.baseline:
        import json as _json
        try:
            base = _json.loads(Path(args.baseline).read_text(
                encoding="utf-8"))
        except (OSError, _json.JSONDecodeError) as exc:
            print(f"error: baseline report unreadable: {exc}",
                  file=sys.stderr)
            return 2
        diff = diff_reports(report, base, top=args.top_moves)
        print()
        print(render_attribution(
            diff, cur_label="this run",
            base_label=Path(args.baseline).name))
    return 0


def _cmd_obs_query(args) -> int:
    """Filter a run's event log by kind/cpu/task/time range."""
    import json as _json

    from ..obs.analysis import EventFilter, filter_events, \
        render_events_table
    from ..obs.events import event_to_dict

    if not args.experiment and not args.events:
        print("error: give an experiment/workload or --events FILE",
              file=sys.stderr)
        return 2
    try:
        _, events, _, _ = _analysis_events(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    flt = EventFilter(kinds=tuple(args.kind or ()), cpu=args.cpu,
                      task=args.task, since_us=args.since,
                      until_us=args.until)
    matched = list(filter_events(events, flt))
    shown = matched[:args.limit] if args.limit else matched
    if args.json:
        for ev in shown:
            print(_json.dumps(event_to_dict(ev), sort_keys=True,
                              separators=(",", ":")))
    else:
        print(render_events_table(shown, total=len(matched)))
        print(f"{len(matched)} of {len(events)} event(s) matched")
    return 0


def _cmd_obs_dashboard(args) -> int:
    """Render the self-contained HTML dashboard for one archived sweep."""
    from ..obs.dashboard import build_dashboard

    history = _history_path(args.cache_dir)
    if not history.exists():
        print(f"no run history at {history} — run a sweep with telemetry "
              f"enabled first", file=sys.stderr)
        return 1
    try:
        html_text = build_dashboard(
            history, sweep_ref=args.sweep,
            stream_dir=history.parent / "telemetry",
            traces_dir=Path(args.traces_dir) if args.traces_dir else None)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out)
    out.write_text(html_text, encoding="utf-8")
    print(f"dashboard: {out} ({len(html_text):,} bytes, self-contained)")
    return 0


def _cmd_history(args) -> int:
    path = _history_path(args.cache_dir)
    if not path.exists():
        print(f"no run history at {path} — run a sweep with telemetry "
              f"enabled first", file=sys.stderr)
        return 1
    with HistoryStore(path) as store:
        if args.action == "list":
            sweeps = store.sweeps(limit=args.limit)
            if not sweeps:
                print("history is empty")
                return 0
            rows = []
            for s in sweeps:
                import time as _time
                when = _time.strftime("%Y-%m-%d %H:%M:%S",
                                      _time.localtime(s["ts"]))
                flags = []
                if s["interrupted"]:
                    flags.append("interrupted")
                if s["degraded"]:
                    flags.append("degraded")
                if s["skipped"]:
                    flags.append(f"{s['skipped']} skipped")
                rows.append([str(s["id"]), s["uid"], when,
                             s["git_sha"] or "-", str(s["n_specs"]),
                             str(s["simulated"]), str(s["cache_hits"]),
                             f"{s['wall_s']:.2f}s",
                             ",".join(flags) or "-",
                             s["label"] or "-"])
            print(render_table(
                ["id", "sweep", "when", "git", "runs", "sim", "cached",
                 "wall", "flags", "label"], rows,
                title=f"run history at {path}"))
            return 0
        if args.action == "show":
            try:
                sweep = store.resolve(args.ref)
            except KeyError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            print(f"sweep #{sweep['id']} {sweep['uid']} "
                  f"(git {sweep['git_sha'] or '?'}"
                  + (f", {sweep['label']}" if sweep["label"] else "") + ")")
            st = {k: sweep[k] for k in ("n_specs", "simulated", "cache_hits",
                                        "retried", "timeouts", "skipped")}
            print("  " + ", ".join(f"{v} {k}" for k, v in st.items() if v))
            print(f"  wall {sweep['wall_s']:.2f}s, "
                  f"{sweep['events']:,} events, "
                  f"{sweep['workers']} worker(s)")
            for run in store.runs_of(sweep["id"]):
                wall = (f"{run['sim_wall_s']:6.2f}s"
                        if run["sim_wall_s"] is not None else "     -")
                print(f"  {run['outcome']:10s} {wall}  "
                      f"x{run['attempts']}  {run['label']}"
                      + (f"  [{run['error']}]" if run["error"] else ""))
            return 0
        # diff
        try:
            diff = store.diff(args.ref, args.baseline,
                              wall_tol=args.wall_tol,
                              metric_tol=args.metric_tol,
                              attribute=args.attribute,
                              top_moves=args.top_moves)
        except KeyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(diff.render())
        return 1 if diff.has_regressions else 0


def _compare_combos(schedulers):
    """The (scheduler, governor) grid for ``compare --scheduler``.

    No flags: the paper's standard four combos.  With flags: the CFS
    baseline pair first (speedups are quoted against cfs-schedutil),
    then each requested scheduler under both governors, deduplicated in
    order."""
    if not schedulers:
        return STANDARD_COMBOS
    combos = [("cfs", "schedutil"), ("cfs", "performance")]
    for sched in schedulers:
        for governor in ("schedutil", "performance"):
            if (sched, governor) not in combos:
                combos.append((sched, governor))
    return tuple(combos)


def _cmd_compare(args) -> int:
    executor = _executor_from_args(args)
    cmp = compare(lambda: make_workload(args.workload, scale=args.scale),
                  get_machine(args.machine),
                  combos=_compare_combos(args.scheduler),
                  seeds=tuple(range(1, args.seeds + 1)), executor=executor,
                  faults=_faults_from_args(args))
    rows = []
    for (sched, gov), stats in cmp.combos.items():
        rows.append([
            stats.label,
            f"{stats.mean_makespan_us / 1e6:.4f}s",
            pct(cmp.speedup_of(sched, gov)),
            f"{stats.mean_energy_j:.1f}J",
            pct(cmp.energy_savings_of(sched, gov)),
            f"{stats.mean_underload_per_s:.2f}",
        ])
    print(render_table(
        ["scheduler", "time", "speedup", "energy", "savings", "underload/s"],
        rows, title=f"{cmp.workload} on {cmp.machine} "
                    f"({args.seeds} seeds, vs CFS-schedutil)"))
    print(executor.last_stats.summary())
    return 0


def _cmd_sweep(args) -> int:
    exp = get_experiment(args.experiment)
    specs = specs_for(exp, seeds=tuple(range(1, args.seeds + 1)),
                      scale=args.scale, machines=tuple(args.machine or ()))
    if not specs:
        print(f"error: {args.experiment} has no buildable workloads to sweep",
              file=sys.stderr)
        return 2
    if args.scheduler:
        specs = [dataclasses.replace(s, scheduler=args.scheduler)
                 for s in specs]
    faults = _faults_from_args(args)
    if faults is not None:
        specs = [dataclasses.replace(s, faults=faults) for s in specs]
    executor = _executor_from_args(args)
    results = executor.run(specs)
    for spec, res in zip(specs, results):
        if res is None:
            print(f"SKIPPED {spec.label} (failed after retries)")
        else:
            print(res.brief())
    print(executor.last_stats.summary())
    return 0


def _cmd_cache(args) -> int:
    root = Path(args.cache_dir) if args.cache_dir else None
    cache = ResultCache(root)
    if args.action == "stats":
        st = cache.stats()
        quarantined = (f", {st['quarantined']} quarantined"
                       if st.get("quarantined") else "")
        print(f"cache at {st['root']}: {st['entries']} entries, "
              f"{st['bytes'] / 1024:.1f} KiB{quarantined}")
    elif args.action == "verify":
        report = cache.verify(fix=not args.dry_run)
        print(f"cache at {cache.root}: {report['checked']} entries checked, "
              f"{report['corrupt']} corrupt")
        for entry in report["entries"]:
            dest = entry.get("quarantined_to")
            where = f" -> {dest}" if dest else " (left in place)"
            print(f"  corrupt: {entry['path']}{where}")
            print(f"    {entry['error']}")
        if report["corrupt"] and not args.dry_run:
            print(f"quarantined entries are under {report['quarantine_dir']}")
        return 1 if report["corrupt"] else 0
    else:  # clear
        n = cache.clear()
        print(f"cleared {n} cached result(s)")
    return 0


def _cmd_verify(args) -> int:
    # Imported lazily: the verify subsystem is only needed by this command.
    from ..verify.fuzz import FuzzConfig, fuzz
    from ..verify.repro import replay_repro

    if args.action == "conformance":
        return _cmd_verify_conformance(args)
    if args.action == "fuzz":
        config = FuzzConfig(
            runs=args.runs, base_seed=args.seed,
            diff_every=args.diff_every, par_every=args.par_every,
            max_failures=args.max_failures,
            repro_dir=Path(args.repro_dir) if args.repro_dir else None,
            shrink_budget=args.shrink_budget)
        report = fuzz(config, log=lambda msg: print(msg, file=sys.stderr))
        print(report.summary())
        for failure in report.failures:
            names = ", ".join(sorted({v.invariant
                                      for v in failure.violations}))
            print(f"  [{failure.index}] {failure.scenario.label}: {names}")
            print(f"        shrunk: {failure.shrunk.label}")
            if failure.repro_path is not None:
                print(f"        repro:  {failure.repro_path}")
        if args.report:
            from .cache import atomic_write_json
            atomic_write_json(Path(args.report), report.to_dict(), indent=2)
            print(f"report: {args.report}")
        return 1 if report.failures else 0

    # replay
    rc = 0
    for path in args.repro:
        try:
            violations = replay_repro(Path(path))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if violations:
            rc = 1
            print(f"{path}: {len(violations)} violation(s)")
            for v in violations[:10]:
                print(f"  {v}")
        else:
            print(f"{path}: clean (the captured failure no longer "
                  f"reproduces)")
    return rc


def _cmd_verify_conformance(args) -> int:
    """Run the policy conformance battery; exit 1 on any failure.

    ``--expect-broken`` instead certifies the suite itself: the broken
    fixture policy is registered, run, and must be *convicted* — exit 0
    means the suite caught it."""
    from ..sched.registry import unregister_policy
    from ..verify.conformance import (register_broken_fixture,
                                      render_report, run_conformance)

    if args.expect_broken:
        register_broken_fixture()
        try:
            report = run_conformance("broken", hashseed_check=False)
        finally:
            unregister_policy("broken")
        print(render_report(report))
        if report.passed:
            print("error: the broken fixture passed conformance — the "
                  "suite has lost its teeth", file=sys.stderr)
            return 1
        oracle_failures = [c for c in report.failures()
                           if c.name == "oracle"]
        if not oracle_failures:
            print("error: the broken fixture failed, but not via the "
                  "oracle", file=sys.stderr)
            return 1
        print("broken fixture convicted, as required")
        return 0

    policies = args.policy or available_policies()
    rc = 0
    for name in policies:
        report = run_conformance(name, hashseed_check=not args.fast)
        print(render_report(report))
        if not report.passed:
            rc = 1
    return rc


def _cmd_describe(args) -> int:
    exp = get_experiment(args.experiment)
    print(f"{exp.artefact}: {exp.description}")
    print(f"  bench:     {exp.bench}")
    print(f"  machines:  {', '.join(exp.machines) or '-'}")
    print(f"  combos:    {', '.join('-'.join(c) for c in exp.combos) or '-'}")
    print(f"  expected:  {exp.expected_shape}")
    if exp.workloads:
        print(f"  workloads: {', '.join(exp.workloads)}")
    return 0


def _add_sweep_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: $REPRO_JOBS or cpu count)")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore the result cache and re-simulate everything")
    p.add_argument("--cache-dir", default=None,
                   help="result-cache directory (default: "
                        "$REPRO_CACHE_DIR or .repro-cache)")
    p.add_argument("--progress", nargs="?", const="auto", default=None,
                   choices=["auto", "live", "plain", "none"],
                   help="sweep progress on stderr: 'live' (multi-line ANSI "
                        "view with per-worker heartbeats), 'plain' (one "
                        "line per run — the non-TTY/CI fallback), 'auto' "
                        "(live on a TTY, plain otherwise).  Bare "
                        "--progress means auto")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="kill and retry the worker pool if no run completes "
                        "for this long (default: wait forever)")
    p.add_argument("--retries", type=int, default=2,
                   help="attempts per spec after crashes/timeouts "
                        "(default: 2)")
    p.add_argument("--keep-going", action="store_true",
                   help="skip specs that exhaust their retries instead of "
                        "aborting the sweep")


def _add_faults_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("--faults", default=None, metavar="PROFILE",
                   choices=sorted(FAULT_PROFILES),
                   help="inject seeded faults (profiles: "
                        + ", ".join(sorted(FAULT_PROFILES)) + ")")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nest-repro",
        description="Reproduction of 'OS Scheduling with Nest' (EuroSys'22)")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list machines, workloads, experiments") \
       .set_defaults(fn=_cmd_list)

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("--workload", required=True)
    run_p.add_argument("--machine", default="5218_2s")
    run_p.add_argument("--scheduler", default="nest",
                       choices=available_policies())
    run_p.add_argument("--governor", default="schedutil",
                       choices=["schedutil", "performance"])
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--scale", type=float, default=1.0)
    run_p.add_argument("--verbose", action="store_true")
    run_p.add_argument("--trace", default=None, metavar="PATH",
                       help="write a Perfetto/Chrome trace JSON here")
    run_p.add_argument("--events", default=None, metavar="PATH",
                       help="write the structured event log as JSONL here")
    _add_faults_option(run_p)
    run_p.set_defaults(fn=_cmd_run)

    trace_p = sub.add_parser(
        "trace", help="trace one representative run of an experiment")
    trace_p.add_argument("experiment",
                         help="registry id (e.g. fig2) or workload name")
    trace_p.add_argument("--machine", default=None)
    trace_p.add_argument("--seed", type=int, default=1)
    trace_p.add_argument("--scale", type=float, default=1.0)
    trace_p.add_argument("--out", default=None, metavar="PATH",
                         help="also write the Perfetto trace JSON here")
    trace_p.set_defaults(fn=_cmd_trace)

    cmp_p = sub.add_parser("compare",
                           help="compare schedulers on one workload")
    cmp_p.add_argument("--workload", required=True)
    cmp_p.add_argument("--machine", default="5218_2s")
    cmp_p.add_argument("--scheduler", action="append", default=None,
                       choices=available_policies(), metavar="POLICY",
                       help="compare these schedulers against the CFS "
                            "baseline (repeatable; default: the standard "
                            "cfs/nest grid)")
    cmp_p.add_argument("--seeds", type=int, default=3)
    cmp_p.add_argument("--scale", type=float, default=1.0)
    _add_sweep_options(cmp_p)
    _add_faults_option(cmp_p)
    cmp_p.set_defaults(fn=_cmd_compare)

    sweep_p = sub.add_parser("sweep",
                             help="run a registry experiment's full sweep")
    sweep_p.add_argument("experiment", help="registry id, e.g. fig5")
    sweep_p.add_argument("--scheduler", default=None,
                         choices=available_policies(), metavar="POLICY",
                         help="override every spec's scheduler (e.g. run "
                              "a registry sweep under scxnest)")
    sweep_p.add_argument("--seeds", type=int, default=1)
    sweep_p.add_argument("--scale", type=float, default=1.0)
    sweep_p.add_argument("--machine", action="append",
                         help="restrict to these machine keys (repeatable)")
    _add_sweep_options(sweep_p)
    _add_faults_option(sweep_p)
    sweep_p.set_defaults(fn=_cmd_sweep)

    cache_p = sub.add_parser("cache", help="result-cache maintenance")
    cache_p.add_argument("action", choices=["stats", "verify", "clear"])
    cache_p.add_argument("--cache-dir", default=None)
    cache_p.add_argument("--dry-run", action="store_true",
                         help="verify: report corrupt entries without "
                              "quarantining them")
    cache_p.set_defaults(fn=_cmd_cache)

    obs_p = sub.add_parser(
        "obs", help="observability: reports, dashboard, trace analysis")
    obs_sub = obs_p.add_subparsers(dest="action", required=True)

    oreport_p = obs_sub.add_parser(
        "report", help="digest of the newest sweep in the run history")
    oreport_p.add_argument("--cache-dir", default=None)
    oreport_p.add_argument("--top", type=int, default=8,
                           help="show the N slowest runs (default: 8)")
    oreport_p.add_argument("--json", action="store_true",
                           help="print the sweep, its stats and its runs "
                                "as JSON instead of the text digest")

    odash_p = obs_sub.add_parser(
        "dashboard", help="self-contained HTML dashboard of a sweep")
    odash_p.add_argument("--cache-dir", default=None)
    odash_p.add_argument("--sweep", default="last", metavar="REF",
                         help="sweep to render — 'last', 'last-N', a "
                              "history id, or a sweep-uid prefix "
                              "(default: last)")
    odash_p.add_argument("--out", default="dashboard.html", metavar="PATH",
                         help="output HTML path (default: dashboard.html)")
    odash_p.add_argument("--traces-dir", default=None, metavar="DIR",
                         help="link Perfetto traces found here")

    def _add_analysis_source(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("experiment", nargs="?", default=None,
                        help="registry id (e.g. fig2) or workload name")
        sp.add_argument("--events", default=None, metavar="JSONL",
                        help="analyze this event dump (from `run "
                             "--events`) instead of simulating")
        sp.add_argument("--machine", default=None)
        sp.add_argument("--seed", type=int, default=1)
        sp.add_argument("--scale", type=float, default=1.0)
        sp.add_argument("--json", action="store_true",
                        help="machine-readable output")

    oana_p = obs_sub.add_parser(
        "analyze",
        help="replay a run's event log through the trace analyzers")
    _add_analysis_source(oana_p)
    oana_p.add_argument("--warm-window-us", type=int, default=1000,
                        help="a dispatch counts as warm when its core "
                             "was active within this window "
                             "(default: 1000µs)")
    oana_p.add_argument("--out", default=None, metavar="PATH",
                        help="also write the canonical JSON report here")
    oana_p.add_argument("--baseline", default=None, metavar="REPORT.json",
                        help="diff against a saved report: rank moved "
                             "metrics and per-tier latency deltas")
    oana_p.add_argument("--top-moves", type=int, default=3,
                        help="baseline diff: metrics to rank "
                             "(default: 3)")

    oq_p = obs_sub.add_parser(
        "query", help="filter a run's event log by kind/cpu/task/time")
    _add_analysis_source(oq_p)
    oq_p.add_argument("--kind", action="append", metavar="KIND",
                      help="keep these kinds — exact (sched.dispatch) or "
                           "prefix group (place); repeatable")
    oq_p.add_argument("--cpu", type=int, default=None)
    oq_p.add_argument("--task", type=int, default=None)
    oq_p.add_argument("--since", type=int, default=None, metavar="US",
                      help="keep events at or after this simulated µs")
    oq_p.add_argument("--until", type=int, default=None, metavar="US",
                      help="keep events at or before this simulated µs")
    oq_p.add_argument("--limit", type=int, default=50,
                      help="rows to print (default: 50; 0 = all)")

    obs_p.set_defaults(fn=_cmd_obs)

    hist_p = sub.add_parser(
        "history", help="persistent run history and regression gates")
    hist_sub = hist_p.add_subparsers(dest="action", required=True)
    hlist_p = hist_sub.add_parser("list", help="recent sweeps, newest first")
    hlist_p.add_argument("--limit", type=int, default=20)
    hshow_p = hist_sub.add_parser("show", help="one sweep's runs")
    hshow_p.add_argument("ref", nargs="?", default="last",
                         help="'last', 'last-N', id, or uid prefix")
    hdiff_p = hist_sub.add_parser(
        "diff", help="gate a sweep against a baseline sweep "
                     "(exit 1 on regression)")
    hdiff_p.add_argument("ref", nargs="?", default="last",
                         help="sweep under test (default: last)")
    hdiff_p.add_argument("--baseline", default="last-1", metavar="REF",
                         help="baseline sweep (default: last-1)")
    hdiff_p.add_argument("--wall-tol", type=float, default=0.5,
                         help="relative wall-time regression tolerance "
                              "(default: 0.5 = flag >1.5x slower)")
    hdiff_p.add_argument("--metric-tol", type=float, default=0.0,
                         help="relative drift tolerance for deterministic "
                              "outputs (default: 0 = bit-stable)")
    hdiff_p.add_argument("--attribute", action="store_true",
                         help="rank, per matched run, which metrics "
                              "(incl. derived.* paper metrics) moved "
                              "most vs the baseline")
    hdiff_p.add_argument("--top-moves", type=int, default=3,
                         help="attribution: metrics to rank per run "
                              "(default: 3)")
    for sp in (hlist_p, hshow_p, hdiff_p):
        sp.add_argument("--cache-dir", default=None)
    hist_p.set_defaults(fn=_cmd_history)

    verify_p = sub.add_parser(
        "verify", help="property-based fuzzing and repro replay")
    verify_sub = verify_p.add_subparsers(dest="action", required=True)
    fuzz_p = verify_sub.add_parser(
        "fuzz", help="fuzz seeded scenarios through the invariant oracle")
    fuzz_p.add_argument("--runs", type=int, default=200,
                        help="scenarios to generate (default: 200)")
    fuzz_p.add_argument("--seed", type=int, default=1,
                        help="base seed of the scenario stream (default: 1)")
    fuzz_p.add_argument("--diff-every", type=int, default=10, metavar="N",
                        help="differential checks on every Nth clean "
                             "scenario (0 disables; default: 10)")
    fuzz_p.add_argument("--par-every", type=int, default=100, metavar="N",
                        help="serial-vs-parallel check on every Nth "
                             "scenario (0 disables; default: 100)")
    fuzz_p.add_argument("--max-failures", type=int, default=5,
                        help="stop after this many failures (0 = never; "
                             "default: 5)")
    fuzz_p.add_argument("--repro-dir", default=None, metavar="DIR",
                        help="write shrunk repro JSON files here")
    fuzz_p.add_argument("--shrink-budget", type=int, default=40,
                        help="re-runs allowed while shrinking each failure "
                             "(0 disables shrinking; default: 40)")
    fuzz_p.add_argument("--report", default=None, metavar="PATH",
                        help="write the full campaign report as JSON here")
    replay_p = verify_sub.add_parser(
        "replay", help="re-run saved repro files through their checks")
    replay_p.add_argument("repro", nargs="+", metavar="REPRO.json")
    conf_p = verify_sub.add_parser(
        "conformance",
        help="run the policy conformance battery (verify/conformance.py)")
    conf_p.add_argument("--policy", action="append", default=None,
                        choices=available_policies(), metavar="POLICY",
                        help="certify only these policies (repeatable; "
                             "default: every registered policy)")
    conf_p.add_argument("--fast", action="store_true",
                        help="skip the cross-interpreter PYTHONHASHSEED "
                             "determinism check (spawns subprocesses)")
    conf_p.add_argument("--expect-broken", action="store_true",
                        help="self-test: run the deliberately broken "
                             "fixture policy and exit 0 only if the "
                             "suite convicts it")
    verify_p.set_defaults(fn=_cmd_verify)

    desc_p = sub.add_parser("describe", help="show a registry entry")
    desc_p.add_argument("experiment")
    desc_p.set_defaults(fn=_cmd_describe)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
