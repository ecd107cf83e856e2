"""The Nest scheduling policy (paper §3).

Nest maintains two sets of cores:

* the **primary nest** — cores in use or recently used, searched first;
* the **reserve nest** — cores that left the primary nest or that CFS chose
  recently, bounded at ``R_max`` entries.

The search path on fork/wakeup is primary → reserve → CFS (Figure 1, red
arrows); core movement between the nests follows the blue arrows: reserve
hits are promoted, CFS picks enter the reserve, unused primary cores are
demoted when a task next trips over them (compaction), and a core whose task
exits is demoted immediately.  Impatient tasks (too many previous-core
collisions) skip the primary nest and their chosen core is promoted
directly, growing the nest.  See DESIGN.md for the mapping to the paper.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..kernel.task import Task
from ..obs import events as oev
from ..obs.log import EventLog
from ..obs.metrics import MetricsRegistry
from ..sim.clock import TICK_US
from .params import DEFAULT_PARAMS, NestParams
from ..sched.base import SelectionPolicy
from ..sched.cfs import CfsPolicy, _rotate

#: Keys of the legacy ``stats`` dict, preserved by the compat property.
STAT_KEYS = (
    "primary_hits", "reserve_hits", "cfs_fallbacks", "attachment_hits",
    "compactions", "exit_demotions", "impatient_placements", "placements",
)

#: Bucket edges for the placement-search-length histogram (cores examined
#: before a placement was decided) and the primary-nest-size histogram.
SEARCH_LEN_EDGES = (0, 1, 2, 4, 8, 16, 32, 64, 128)
NEST_SIZE_EDGES = (0, 1, 2, 4, 8, 16, 32, 64, 128)


class NestPolicy(SelectionPolicy):
    """Nest placement wrapping CFS (most of the paper's patch sits in front
    of CFS's core-selection function, §7)."""

    #: Nest adds a block of code to core selection (§3.4/§5.6), so its
    #: per-selection cost is higher than stock CFS.
    selection_cost_us = 3

    def __init__(self, params: NestParams = DEFAULT_PARAMS) -> None:
        super().__init__()
        self.params = params
        self.primary: Set[int] = set()
        self.reserve: Set[int] = set()
        self.home_cpu: Optional[int] = None
        self._cfs = CfsPolicy()
        # Placement statistics live in a metrics registry (obs/metrics.py);
        # the hot path increments counter objects directly.  The legacy
        # ``stats`` dict is still available as a property view.
        self.metrics = MetricsRegistry()
        m = self.metrics
        self._c_primary = m.counter("primary_hits")
        self._c_reserve = m.counter("reserve_hits")
        self._c_cfs = m.counter("cfs_fallbacks")
        self._c_attach = m.counter("attachment_hits")
        self._c_compact = m.counter("compactions")
        self._c_exit = m.counter("exit_demotions")
        self._c_impatient = m.counter("impatient_placements")
        self._c_placements = m.counter("placements")
        self._h_search = m.histogram("search_len", SEARCH_LEN_EDGES)
        self._h_size = m.histogram("primary_size", NEST_SIZE_EDGES)
        # Replaced with the engine's log on bind; a detached placeholder
        # lets unbound policies (unit tests) run with events disabled.
        self._obs = EventLog()

    def on_bind(self) -> None:
        self._cfs.kernel = self.kernel
        self._cfs.check_pending_default = self.params.placement_flag
        self._obs = self.kernel.engine.obs

    @property
    def stats(self) -> Dict[str, int]:
        """Legacy view of the placement counters (read-only snapshot)."""
        counters = self.metrics.counters()
        return {k: counters[k] for k in STAT_KEYS}

    def check_invariants(self) -> None:
        """Every placement is claimed by exactly one search tier."""
        c = self.metrics.counters()
        hits = (c["attachment_hits"] + c["primary_hits"]
                + c["reserve_hits"] + c["cfs_fallbacks"])
        if hits != c["placements"]:
            raise AssertionError(
                f"nest counter inconsistency: attachment({c['attachment_hits']})"
                f" + primary({c['primary_hits']}) + reserve({c['reserve_hits']})"
                f" + cfs({c['cfs_fallbacks']}) = {hits}"
                f" != placements({c['placements']})")

    @property
    def name(self) -> str:
        return "Nest"

    # ------------------------------------------------------------------
    # Selection entry points
    # ------------------------------------------------------------------

    def select_cpu_fork(self, task: Task, parent_cpu: int) -> int:
        if self.home_cpu is None:
            # The paper starts reserve searches from the core on which the
            # system call that enabled Nest ran.
            self.home_cpu = parent_cpu
        return self._select(task, start=parent_cpu, is_fork=True)

    def select_cpu_wakeup(self, task: Task, waker_cpu: int) -> int:
        start = task.prev_cpu if task.prev_cpu is not None else waker_cpu
        if self.home_cpu is None:
            self.home_cpu = waker_cpu
        if self.params.impatience_enabled and task.prev_cpu is not None:
            if self._idle(task.prev_cpu):
                task.impatience = 0
            else:
                task.impatience += 1
        return self._select(task, start=start, is_fork=False,
                            waker_cpu=waker_cpu)

    # ------------------------------------------------------------------
    # The §3 search
    # ------------------------------------------------------------------

    def _select(self, task: Task, start: int, is_fork: bool,
                waker_cpu: Optional[int] = None) -> int:
        p = self.params
        self._c_placements.value += 1
        obs = self._obs
        examined = 0

        # §3.3: the first choice is always the attached core, if it is in
        # the primary nest and idle — even if it is compaction-eligible.
        if p.attachment_enabled and not is_fork:
            ac = task.attached_core
            if ac is not None and ac in self.primary and self._idle(ac):
                self._c_attach.value += 1
                task.impatience = 0
                self._finish_placement(0)
                if obs.enabled:
                    obs.emit(self.kernel.engine.now, oev.PLACE_ATTACH,
                             cpu=ac, task=task.tid)
                return ac

        impatient = (p.impatience_enabled
                     and task.impatience >= p.r_impatient and not is_fork)

        if not impatient:
            cpu, n = self._search_primary(start, task, is_fork)
            examined += n
            if cpu is not None:
                self._c_primary.value += 1
                self._finish_placement(examined)
                if obs.enabled:
                    obs.emit(self.kernel.engine.now, oev.PLACE_PRIMARY,
                             cpu=cpu, task=task.tid, value=examined)
                return cpu

        if p.reserve_enabled:
            cpu, n = self._search_reserve(start)
            examined += n
            if cpu is not None:
                self.reserve.discard(cpu)
                self.primary.add(cpu)
                self._c_reserve.value += 1
                if impatient:
                    self._c_impatient.value += 1
                    task.impatience = 0
                self._finish_placement(examined)
                if obs.enabled:
                    now = self.kernel.engine.now
                    kind = oev.PLACE_IMPATIENT if impatient \
                        else oev.PLACE_RESERVE
                    obs.emit(now, kind, cpu=cpu, task=task.tid, value=examined)
                    obs.emit(now, oev.NEST_PROMOTE, cpu=cpu, task=task.tid,
                             value=len(self.primary))
                return cpu

        # Fall back on CFS (with Nest's §3.4 wakeup work conservation).
        self._c_cfs.value += 1
        if is_fork:
            cpu = self._cfs.select_cpu_fork(task, start)
        else:
            target = self._cfs._wake_affine(
                task, start, waker_cpu if waker_cpu is not None else start)
            cpu = self._cfs.select_idle_sibling(
                target,
                all_dies=p.wakeup_work_conservation,
                check_pending=p.placement_flag)

        if impatient:
            # §3.1: the chosen core joins the primary nest directly, to
            # expand it, and the impatience counter resets.
            self.reserve.discard(cpu)
            self.primary.add(cpu)
            self._c_impatient.value += 1
            task.impatience = 0
            if obs.enabled:
                now = self.kernel.engine.now
                obs.emit(now, oev.PLACE_IMPATIENT, cpu=cpu, task=task.tid,
                         value=examined)
                obs.emit(now, oev.NEST_EXPAND, cpu=cpu, task=task.tid,
                         value=len(self.primary))
        elif cpu not in self.primary and cpu not in self.reserve:
            if p.reserve_enabled and len(self.reserve) < p.r_max:
                self.reserve.add(cpu)
            # else: reserve full -> the core joins no nest (§3.1).
        if obs.enabled and not impatient:
            obs.emit(self.kernel.engine.now, oev.PLACE_CFS, cpu=cpu,
                     task=task.tid, value=examined)
        self._finish_placement(examined)
        return cpu

    def _finish_placement(self, examined: int) -> None:
        """Per-placement metric observations (search effort, nest size)."""
        self._h_search.observe(examined)
        self._h_size.observe(len(self.primary))

    def _search_primary(self, start: int, task: Task,
                        is_fork: bool) -> tuple[Optional[int], int]:
        """Idle-core search over the primary nest, same-die first, with
        compaction of stale cores encountered along the way (§3.1).
        Returns (chosen cpu or None, candidates examined)."""
        if not self.primary:
            return None, 0
        p = self.params
        kernel = self.kernel
        now = kernel.engine.now
        stale_cutoff_us = int(p.p_remove_ticks * TICK_US)

        die_of = kernel.die_of
        start_die = die_of[start]
        same_die = [c for c in self.primary if die_of[c] == start_die]
        other = [c for c in self.primary if die_of[c] != start_die]
        candidates = list(_rotate(tuple(same_die), start)) + sorted(other)

        prefer = []
        if p.prev_core_first and not is_fork and task.prev_cpu is not None \
                and task.prev_cpu in self.primary:
            prefer = [task.prev_cpu]

        examined = 0
        for cpu in prefer + candidates:
            examined += 1
            if not self._idle(cpu):
                continue
            if p.compaction_enabled and cpu not in prefer:
                idle_for = now - kernel.cpu_last_used(cpu)
                if idle_for >= stale_cutoff_us:
                    # §3.1: a task tried to use a stale core -> demote it.
                    self._demote(cpu)
                    continue
            return cpu, examined
        return None, examined

    def _search_reserve(self, start: int) -> tuple[Optional[int], int]:
        """Idle-core search over the reserve nest, same-die-as-start first,
        scanning from the fixed home core to limit dispersal (§3.1).
        Returns (chosen cpu or None, candidates examined)."""
        if not self.reserve:
            return None, 0
        home = self.home_cpu if self.home_cpu is not None else start
        die_of = self.kernel.die_of
        start_die = die_of[start]
        same_die = [c for c in self.reserve if die_of[c] == start_die]
        other = [c for c in self.reserve if die_of[c] != start_die]
        examined = 0
        for cpu in list(_rotate(tuple(same_die), home)) \
                + list(_rotate(tuple(other), home)):
            examined += 1
            if self._idle(cpu):
                return cpu, examined
        return None, examined

    # ------------------------------------------------------------------
    # Nest maintenance hooks
    # ------------------------------------------------------------------

    def on_enqueue(self, task: Task, cpu: int) -> None:
        """Any cpu that actually receives work is useful: keep nest state
        consistent if the balancer moved a task onto an unnested core."""

    def on_exit_idle(self, cpu: int) -> None:
        """§3.1: a task terminated and left the core idle — the core is no
        longer considered useful and is demoted immediately."""
        if cpu in self.primary and self.kernel.cpu_is_idle(cpu):
            self._demote(cpu, kind=oev.NEST_EXIT_DEMOTE)
            self._c_exit.value += 1

    def on_cpu_offline(self, cpu: int) -> None:
        """Nest repair for a hotplug fault: a vanished core must leave both
        nests immediately, or the primary/reserve searches would keep
        tripping over it.  The eviction is not a compaction — it does not
        touch the placement counters, so the accounting invariant is
        unaffected.  (The kernel scrubs task attachment histories.)"""
        evicted = False
        if cpu in self.primary:
            self.primary.discard(cpu)
            evicted = True
        if cpu in self.reserve:
            self.reserve.discard(cpu)
            evicted = True
        if self.home_cpu == cpu:
            # Reserve scans re-anchor on the next placement's cpu.
            self.home_cpu = None
        if evicted:
            # Lazily created so fault-free runs keep an identical metrics
            # dict (and identical cached results).
            self.metrics.counter("offline_evictions").value += 1
            obs = self._obs
            if obs.enabled:
                obs.emit(self.kernel.engine.now, oev.NEST_OFFLINE_EVICT,
                         cpu=cpu, value=len(self.primary))

    def select_cpu_offline_migration(self, task: Task,
                                     offline_cpu: int) -> Optional[int]:
        """Re-place a task orphaned by a hotplug fault through the normal
        nest search, so the move is counted like any other placement and
        the orphan lands back inside the (repaired) nest when possible."""
        return self._select(task, start=offline_cpu, is_fork=False,
                            waker_cpu=offline_cpu)

    def _demote(self, cpu: int, kind: str = oev.NEST_COMPACT) -> None:
        self.primary.discard(cpu)
        if self.params.reserve_enabled and len(self.reserve) < self.params.r_max:
            self.reserve.add(cpu)
        self._c_compact.value += 1
        obs = self._obs
        if obs.enabled:
            obs.emit(self.kernel.engine.now, kind, cpu=cpu,
                     value=len(self.primary))

    def spin_ticks(self) -> float:
        return self.params.s_max_ticks if self.params.spin_enabled else 0.0

    # ------------------------------------------------------------------

    def _idle(self, cpu: int) -> bool:
        """Idle and not targeted by an in-flight placement (§3.4 flag)."""
        if not self.kernel.cpu_is_idle(cpu):
            return False
        if self.params.placement_flag \
                and self.kernel.rqs[cpu].placement_pending > 0:
            return False
        return True

    def nest_sizes(self) -> tuple[int, int]:
        return len(self.primary), len(self.reserve)
