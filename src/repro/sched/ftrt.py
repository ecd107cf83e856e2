"""Fault-tolerant real-time placement: primary/backup re-execution.

FT-RT schedules deadline-carrying jobs as primary/backup pairs (see
DESIGN.md §10).  The primary forks like any CFS task; its *backup* copy
is admitted cold — it parks on an activation channel immediately — and
FT-RT's sole placement obligation is **failure disjointness**: the backup
must land on a different physical core than the primary, preferring a
different socket entirely, so that one correlated same-socket failure
burst cannot destroy both copies of a job.

Everything that is not a backup fork falls through to stock CFS: FT-RT
is a placement veneer, not a new runqueue discipline, exactly the way
Nest wraps CFS core selection.
"""

from __future__ import annotations

from typing import Optional

from ..kernel.task import Task
from ..obs import events as oev
from ..obs.log import EventLog
from ..obs.metrics import MetricsRegistry
from .base import SelectionPolicy
from .cfs import LOAD_EPSILON, CfsPolicy


class FtrtPolicy(SelectionPolicy):
    """Primary/backup deadline placement wrapping CFS."""

    #: FT-RT adds the disjointness scan in front of CFS selection —
    #: cheaper than Nest's nest walk, dearer than stock CFS.
    selection_cost_us = 2

    def __init__(self) -> None:
        super().__init__()
        self._cfs = CfsPolicy()
        self.metrics = MetricsRegistry()
        m = self.metrics
        self._c_placements = m.counter("placements")
        self._c_backup = m.counter("backup_placements")
        self._c_disjoint = m.counter("disjoint_ok")
        self._c_fallback = m.counter("disjoint_fallbacks")
        # Replaced with the engine's log on bind; a detached placeholder
        # lets unbound policies (unit tests) run with events disabled.
        self._obs = EventLog()

    def on_bind(self) -> None:
        self._cfs.kernel = self.kernel
        self._obs = self.kernel.engine.obs

    @property
    def name(self) -> str:
        return "Ftrt"

    def check_invariants(self) -> None:
        """Every backup placement is claimed by exactly one outcome."""
        c = self.metrics.counters()
        claimed = c["disjoint_ok"] + c["disjoint_fallbacks"]
        if claimed != c["backup_placements"]:
            raise AssertionError(
                f"ftrt counter inconsistency: disjoint({c['disjoint_ok']})"
                f" + fallback({c['disjoint_fallbacks']}) = {claimed}"
                f" != backups({c['backup_placements']})")
        if c["backup_placements"] > c["placements"]:
            raise AssertionError(
                f"ftrt counter inconsistency: backups"
                f"({c['backup_placements']}) exceed placements"
                f"({c['placements']})")

    # ------------------------------------------------------------------
    # Selection entry points
    # ------------------------------------------------------------------

    def select_cpu_fork(self, task: Task, parent_cpu: int) -> int:
        self._c_placements.value += 1
        primary = task.backup_of
        if primary is None:
            return self._cfs.select_cpu_fork(task, parent_cpu)
        return self._place_backup(task, primary, parent_cpu)

    def select_cpu_wakeup(self, task: Task, waker_cpu: int) -> int:
        self._c_placements.value += 1
        return self._cfs.select_cpu_wakeup(task, waker_cpu)

    # ------------------------------------------------------------------
    # Backup admission
    # ------------------------------------------------------------------

    def _place_backup(self, task: Task, primary: Task,
                      parent_cpu: int) -> int:
        kernel = self.kernel
        now = kernel.engine.now
        self._c_backup.value += 1
        pcpu = self._primary_cpu(primary)
        cpu = None if pcpu is None else self._disjoint_cpu(pcpu)
        if cpu is None:
            # No committed primary core yet, or every other physical core
            # is offline: take CFS's pick and record the fallback.
            cpu = self._cfs.select_cpu_fork(task, parent_cpu)
            self._c_fallback.value += 1
            value = -1
        else:
            self._c_disjoint.value += 1
            value = pcpu
        if self._obs.enabled:
            self._obs.emit(now, oev.RT_BACKUP_PLACE, cpu=cpu,
                           task=task.tid, value=value)
        return cpu

    def _disjoint_cpu(self, pcpu: int) -> Optional[int]:
        """The emptiest online cpu sharing no physical core with ``pcpu``,
        different socket first (a whole-socket burst must not be able to
        reach both copies)."""
        kernel = self.kernel
        die_of = kernel.die_of
        now = kernel.engine.now
        p_pc = kernel.pc_of[pcpu]
        p_socket = die_of[pcpu]
        best = None
        best_key = None
        for c in range(kernel.topology.n_cpus):
            if not kernel.cpu_online[c] or kernel.pc_of[c] == p_pc:
                continue
            rq = kernel.rqs[c]
            occupancy = (rq.nr_queued + rq.placement_pending
                         + (0 if kernel.cpus[c].current is None else 1))
            key = (0 if die_of[c] != p_socket else 1,
                   occupancy, int(rq.load_avg(now) / LOAD_EPSILON), c)
            if best_key is None or key < best_key:
                best, best_key = c, key
        return best

    @staticmethod
    def _primary_cpu(primary: Task) -> Optional[int]:
        """Where the primary runs or was last committed (None if nowhere)."""
        if primary.cpu is not None:
            return primary.cpu
        for c in primary.core_history:
            if c is not None:
                return c
        return None
