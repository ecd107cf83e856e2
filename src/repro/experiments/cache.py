"""Content-addressed on-disk cache of simulation results.

A :class:`RunSpec` fully determines a simulation (the engine is
deterministic), so its canonical JSON — machine, workload and scale,
scheduler, governor, Nest parameters, kernel config, fault config, seed —
hashed together with the engine-version salt is a content address for the
:class:`RunResult`.  Re-running a figure or a benchmark sweep then only
simulates cache misses; everything else is a JSON read.

Entries live under ``.repro-cache/<hh>/<hash>.json`` (sharded by the first
two hex digits; override the root with ``$REPRO_CACHE_DIR``).  Writes are
atomic and durable (temp file + fsync + rename) so concurrent sweep
workers never expose a torn entry and a crash never leaves a half-written
one.  An entry that fails to decode is moved into ``.quarantine/`` rather
than deleted — ``repro cache verify`` scans for such entries in bulk.
:data:`repro.sim.engine.ENGINE_VERSION` is mixed into every key: bumping
it after a semantic engine change orphans all stale entries at once.

Wall-clock telemetry (``sim_wall_s``, ``events_processed``) is stored with
the entry, so a hit reports the cost of the run that produced it.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..hw.machines import get_machine
from ..metrics.freqdist import FreqDistribution
from ..metrics.summary import RunResult
from ..metrics.underload import UnderloadResult
from ..sim.engine import ENGINE_VERSION

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .parallel import RunSpec

#: Default cache root, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Bump when the cache *format* (not the engine) changes shape.
#: 2: added the serialized observability metrics registry ("metrics").
#: 3: added the nondeterministic "host" telemetry block (peak RSS, GC
#:    deltas, tracemalloc peak) — dropped, like sim_wall_s, by every
#:    determinism comparison.
FORMAT_VERSION = 3

#: Subdirectory of the cache root where corrupt entries are parked.
QUARANTINE_DIR = ".quarantine"

#: Exceptions that mean "this entry cannot be decoded" (as opposed to
#: "this entry does not exist", which is a plain miss).
_DECODE_ERRORS = (json.JSONDecodeError, KeyError, TypeError, ValueError)


def default_cache_root() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


def atomic_write_json(path: Path, payload: Any, *, indent: Optional[int] = None,
                      sort_keys: bool = False) -> None:
    """Write JSON so readers never observe a torn or half-flushed file.

    Temp file in the destination directory (same filesystem, so the final
    ``os.replace`` is atomic), fsync before the rename (so a crash cannot
    leave a zero-length or truncated file under the final name).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=indent, sort_keys=sort_keys,
                      separators=None if indent else (",", ":"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------

def spec_key(spec: "RunSpec") -> str:
    """Stable content address of one simulation configuration.

    The payload is the spec's own :meth:`~RunSpec.to_dict` plus the
    salts.  ``record_trace`` is left out (trace runs bypass the cache)
    and ``faults`` only mixed in when set, so every fault-free entry
    kept its address when fault configs were added.
    """
    payload: Dict[str, Any] = spec.to_dict()
    del payload["record_trace"]
    if payload["faults"] is None:
        del payload["faults"]
    payload["engine_version"] = ENGINE_VERSION
    payload["format"] = FORMAT_VERSION
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# RunResult <-> JSON
# ---------------------------------------------------------------------------

def result_to_jsonable(result: RunResult, machine_key: str) -> Dict[str, Any]:
    """Serialize everything deterministic about a RunResult.

    Trace segments are intentionally not cached (they are huge and only
    trace-shaped benchmarks want them; those bypass the cache).
    """
    under = result.underload
    fdist = result.freq_dist
    return {
        "machine_key": machine_key,
        "scheduler": result.scheduler,
        "governor": result.governor,
        "machine": result.machine,
        "workload": result.workload,
        "seed": result.seed,
        "makespan_us": result.makespan_us,
        "energy_joules": result.energy_joules,
        "underload": None if under is None else {
            "interval_us": under.interval_us,
            "series": list(under.series),
            "end_us": under.end_us,
        },
        "freq_dist": None if fdist is None else {
            "bin_time_us": list(fdist.bin_time_us),
            "total_us": fdist.total_us,
        },
        "n_tasks": result.n_tasks,
        "n_migrations": result.n_migrations,
        "total_wakeups": result.total_wakeups,
        "wakeup_latency_us": result.wakeup_latency_us,
        "policy_stats": dict(result.policy_stats),
        "extra": dict(result.extra),
        "metrics": dict(result.metrics),
        "sim_wall_s": result.sim_wall_s,
        "events_processed": result.events_processed,
        # Host-side memory telemetry: nondeterministic like sim_wall_s
        # (grouped so determinism comparisons drop one key).
        "host": {
            "rss_peak_kb": result.rss_peak_kb,
            "gc_collections": result.gc_collections,
            "gc_collected": result.gc_collected,
            "alloc_peak_kb": result.alloc_peak_kb,
        },
    }


def result_from_jsonable(data: Dict[str, Any]) -> RunResult:
    """Rebuild a RunResult equal (field by field) to the cached one."""
    under = None
    if data["underload"] is not None:
        u = data["underload"]
        under = UnderloadResult(u["interval_us"], list(u["series"]),
                                u["end_us"])
    fdist = None
    if data["freq_dist"] is not None:
        fdist = FreqDistribution(get_machine(data["machine_key"]))
        fdist.bin_time_us = list(data["freq_dist"]["bin_time_us"])
        fdist.total_us = data["freq_dist"]["total_us"]
    host = data.get("host", {})
    return RunResult(
        scheduler=data["scheduler"],
        governor=data["governor"],
        machine=data["machine"],
        workload=data["workload"],
        seed=data["seed"],
        makespan_us=data["makespan_us"],
        energy_joules=data["energy_joules"],
        underload=under,
        freq_dist=fdist,
        n_tasks=data["n_tasks"],
        n_migrations=data["n_migrations"],
        total_wakeups=data["total_wakeups"],
        wakeup_latency_us=data["wakeup_latency_us"],
        policy_stats=dict(data["policy_stats"]),
        extra=dict(data["extra"]),
        metrics=dict(data.get("metrics", {})),
        sim_wall_s=data["sim_wall_s"],
        events_processed=data["events_processed"],
        rss_peak_kb=host.get("rss_peak_kb", 0),
        gc_collections=host.get("gc_collections", 0),
        gc_collected=host.get("gc_collected", 0),
        alloc_peak_kb=host.get("alloc_peak_kb", 0),
    )


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------

class ResultCache:
    """Content-addressed RunResult store under a root directory."""

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.hits = 0
        self.misses = 0
        self.quarantined = 0   # corrupt entries moved aside this session

    # -- path plumbing ---------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _entry_paths(self):
        """Every cache entry on disk (quarantine excluded)."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*/*.json")):
            if path.parent.name == QUARANTINE_DIR:
                continue
            yield path

    # -- spec-level API --------------------------------------------------

    def cacheable(self, spec: "RunSpec") -> bool:
        """Trace-recording runs are not cached (segments are not stored)."""
        return not spec.record_trace

    def get_spec(self, spec: "RunSpec") -> Optional[RunResult]:
        if not self.cacheable(spec):
            return None
        return self.get(spec_key(spec))

    def put_spec(self, spec: "RunSpec", result: RunResult) -> None:
        if not self.cacheable(spec):
            return
        self.put(spec_key(spec), result_to_jsonable(result, spec.machine))

    # -- key-level API ---------------------------------------------------

    def get(self, key: str) -> Optional[RunResult]:
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            result = result_from_jsonable(data)
        except OSError:
            self.misses += 1           # plain miss: no such entry
            return None
        except _DECODE_ERRORS:
            # A torn, truncated or schema-incompatible entry: park it in
            # quarantine so the miss is repaired by re-simulation and the
            # evidence survives for inspection.
            self.misses += 1
            try:
                self.quarantine(path)
            except OSError:
                pass
            return None
        self.hits += 1
        return result

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        atomic_write_json(self._path(key), payload)

    # -- quarantine ------------------------------------------------------

    def quarantine(self, path: Path) -> Path:
        """Move one corrupt entry into ``.quarantine/`` (same filesystem,
        atomic rename); returns the new location."""
        qdir = self.root / QUARANTINE_DIR
        qdir.mkdir(parents=True, exist_ok=True)
        dest = qdir / path.name
        os.replace(path, dest)
        self.quarantined += 1
        return dest

    def verify(self, fix: bool = True) -> Dict[str, Any]:
        """Decode every entry; report (and with ``fix`` quarantine) the
        corrupt ones.  Backs the ``repro cache verify`` subcommand."""
        checked = 0
        bad: List[Dict[str, str]] = []
        for path in self._entry_paths():
            checked += 1
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    result_from_jsonable(json.load(fh))
            except (OSError,) + _DECODE_ERRORS as exc:
                entry = {"path": str(path),
                         "error": f"{type(exc).__name__}: {exc}"}
                if fix:
                    try:
                        entry["quarantined_to"] = str(self.quarantine(path))
                    except OSError as move_exc:
                        entry["quarantine_failed"] = str(move_exc)
                bad.append(entry)
        return {"checked": checked, "corrupt": len(bad), "entries": bad,
                "quarantine_dir": str(self.root / QUARANTINE_DIR)}

    # -- maintenance -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Entry count and total size on disk (plus session hit counters)."""
        n = 0
        size = 0
        quarantined = 0
        for path in self._entry_paths():
            n += 1
            try:
                size += path.stat().st_size
            except OSError:
                pass
        qdir = self.root / QUARANTINE_DIR
        if qdir.is_dir():
            quarantined = sum(1 for _ in qdir.glob("*.json"))
        return {"root": str(self.root), "entries": n, "bytes": size,
                "quarantined": quarantined,
                "session_hits": self.hits, "session_misses": self.misses}

    def clear(self) -> int:
        """Remove every entry; returns how many were deleted."""
        n = self.stats()["entries"]
        if self.root.is_dir():
            shutil.rmtree(self.root)
        return n
