"""Model of CFS core selection (Linux v5.9 ``select_task_rq_fair``).

Implements the behaviour the paper describes in §2.1:

**Fork** walks the scheduling domains from the highest level down.  At each
level it picks the least-loaded group — most idle cpus first, then lowest
recent load — and then the least-loaded cpu inside that group, scanning in
numerical order modulo the group size, starting from the forking cpu.
Because *recent load* (PELT) is part of the choice, an idle core that ran a
task a moment ago loses to a long-idle core: this is the anti-reuse bias
that Nest removes.

**Wakeup** picks a target (the task's previous cpu or the waker's), then
searches the target's die only: first for a physical core whose hyperthreads
are both idle, then a bounded linear scan for any idle cpu, then the
target's hyperthread, and finally settles on the target itself.  The scan is
in numerical order, so recently-used idle cores can be overlooked; recent
load is *not* consulted.  Wakeup is not work conserving: other dies are
never examined (Nest's fallback extends this, §3.4).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence, Tuple

from ..kernel.task import Task
from .base import SelectionPolicy

#: Upper bound on the wakeup path's linear scan for an idle cpu ("it only
#: makes a limited effort to find an idle core on that die", §2.1).
WAKEUP_SCAN_LIMIT = 8

#: Load quantum for comparisons: loads within one bucket are considered
#: equal (PELT noise), letting the numerical-order tiebreak decide — this is
#: how "the recent load's influence times out" (§5.2) and CFS returns to the
#: cores near the forking one.
LOAD_EPSILON = 32.0


class CfsPolicy(SelectionPolicy):
    """Linux CFS placement (the paper's baseline)."""

    selection_cost_us = 1

    def __init__(self, check_pending_default: bool = False) -> None:
        super().__init__()
        #: When used as Nest's fallback, the §3.4 placement flag applies to
        #: the fork path too; stock CFS leaves this off.
        self.check_pending_default = check_pending_default

    # ------------------------------------------------------------------
    # Fork path
    # ------------------------------------------------------------------

    def select_cpu_fork(self, task: Task, parent_cpu: int) -> int:
        kernel = self.kernel
        cpu = parent_cpu
        stack = kernel.domains.domains_of(cpu)
        # Walk from the highest domain down to the lowest.
        for level in range(len(stack) - 1, -1, -1):
            dom = stack[level]
            group = self._find_idlest_group(dom.groups, cpu)
            cpu = self._find_idlest_cpu(group, from_cpu=parent_cpu)
            stack = kernel.domains.domains_of(cpu)
        return cpu

    def _find_idlest_group(self, groups: Sequence[Tuple[int, ...]],
                           current_cpu: int) -> Tuple[int, ...]:
        """Linux v5.9 semantics: the local group (the one containing the
        forking cpu) wins unless another group has strictly more idle cpus;
        among the others, more idle cpus then less quantized load.

        Loads are read only where they decide: the counts settle most walks
        (the local group holds its own, or one group alone has the best
        (idle, running) pair), and only groups tied on both are summed.
        """
        kernel = self.kernel
        rqs = kernel.rqs
        cpus = kernel.cpus
        online = kernel.cpu_online
        local = None
        best_idle = -1
        best_running = 0
        tied = []           # groups sharing the best (idle, running), in order
        for group in groups:
            if current_cpu in group:
                local = group
                continue
            idle_cpus = 0
            running = 0
            n_online = 0
            for c in group:
                if not online[c]:
                    continue
                n_online += 1
                q = rqs[c].nr_queued
                if cpus[c].current is None:
                    if q == 0:
                        idle_cpus += 1
                    running += q
                else:
                    running += q + 1
            if n_online == 0:
                continue    # hotplugged-out group: not a placement target
            if idle_cpus > best_idle or (idle_cpus == best_idle
                                         and running < best_running):
                best_idle, best_running = idle_cpus, running
                tied = [group]
            elif idle_cpus == best_idle and running == best_running:
                tied.append(group)
        if not tied:
            return local
        if local is not None:
            local_idle = sum(1 for c in local
                             if online[c] and cpus[c].current is None
                             and rqs[c].nr_queued == 0)
            if local_idle >= best_idle:
                return local
        if len(tied) == 1:
            return tied[0]
        # Break the tie on summed recent load; the first strictly smaller
        # quantized load wins, so group order still decides equal ones.
        now = kernel.engine.now
        best = None
        best_q = 0
        for group in tied:
            load = 0.0
            for c in group:
                if online[c]:
                    load += rqs[c].load_avg(now)
            q = _qload(load)
            if best is None or q < best_q:
                best, best_q = group, q
        return best

    def _find_idlest_cpu(self, group: Tuple[int, ...], from_cpu: int) -> int:
        """Least-loaded cpu of the group, scanned in numerical order modulo
        the group, starting from the forking cpu's position.

        The choice is the smallest (busy, nr_running, quantized load, rank)
        key; a load is read only when the cpu can still win on it, and the
        scan stops at an idle cpu with no quantized load, which no later
        rank can beat.
        """
        kernel = self.kernel
        now = kernel.engine.now
        rqs = kernel.rqs
        cpus = kernel.cpus
        online = kernel.cpu_online
        check_pending = self.check_pending_default
        best = None
        best_idle = False
        best_nr = 0
        best_q = 0
        for c in _rotate(group, from_cpu):
            if not online[c]:
                continue
            rq = rqs[c]
            q = rq.nr_queued
            busy = cpus[c].current is not None
            if not busy and q == 0 \
                    and not (check_pending and rq.placement_pending > 0):
                # Idle cpus compete on recent load: CFS prefers the one
                # idle longest (smallest decayed load, quantized so that
                # fully-decayed cores tie and scan order decides).
                load_q = _qload(rq.load_avg(now))
                if not best_idle or load_q < best_q:
                    best, best_idle, best_q = c, True, load_q
                    if load_q == 0:
                        break
                continue
            if best_idle:
                continue
            nr = q + (1 if busy else 0)
            if best is not None and nr > best_nr:
                continue
            load_q = _qload(rq.load_avg(now))
            if best is None or nr < best_nr or load_q < best_q:
                best, best_nr, best_q = c, nr, load_q
        if best is None:
            # Every cpu of the group went offline mid-walk: fall back to
            # the machine-wide least loaded online cpu.
            return kernel.least_loaded_online(from_cpu)
        return best

    # ------------------------------------------------------------------
    # Wakeup path
    # ------------------------------------------------------------------

    def select_cpu_wakeup(self, task: Task, waker_cpu: int) -> int:
        prev = task.prev_cpu if task.prev_cpu is not None else waker_cpu
        target = self._wake_affine(task, prev, waker_cpu)
        return self.select_idle_sibling(target, all_dies=False,
                                        check_pending=False)

    def _wake_affine(self, task: Task, prev: int, waker: int) -> int:
        """Choose between the previous cpu and the waker's cpu.

        Mirrors v5.9 ``wake_affine``: if the waker's cpu is idle and shares
        a cache with prev, stay with whichever of the two is idle;
        otherwise compare effective loads (``wake_affine_weight``) with the
        kernel's ~117% imbalance margin.  Because the previous cpu carries
        the wakee's own decaying blocked footprint, a frequently-sleeping
        task can be pulled toward its (varying) wakers — the seed of the
        dispersal cascades that §3.3 describes.
        """
        kernel = self.kernel
        online = kernel.cpu_online
        if not online[prev]:
            # prev was hotplugged out; the waker's cpu (or, for timer
            # wakes from a dead cpu, an online fallback) takes its place.
            return waker if online[waker] else kernel.least_loaded_online(waker)
        if not online[waker]:
            return prev
        if prev == waker:
            return prev
        now = kernel.engine.now
        die_of = kernel.die_of
        if kernel.cpu_is_idle(waker) and die_of[prev] == die_of[waker]:
            return prev if kernel.cpu_is_idle(prev) else waker
        this_load = kernel.rqs[waker].load_avg(now) + task.util_est
        prev_load = kernel.rqs[prev].load_avg(now)
        if this_load * 1.17 < prev_load:
            return waker
        return prev

    def select_idle_sibling(self, target: int, all_dies: bool,
                            check_pending: bool) -> int:
        """The CFS idle search around ``target`` (``select_idle_sibling``).

        ``all_dies`` enables Nest's §3.4 wakeup work conservation: if the
        target die has no idle cpu, other dies are searched too.
        ``check_pending`` makes the search skip cpus with an in-flight
        placement (Nest's §3.4 placement flag).
        """
        kernel = self.kernel

        if self._usable_idle(target, check_pending):
            return target

        die = kernel.die_span[target]
        if not all_dies:
            cpu = self._search_die(die, target, check_pending)
            if cpu is not None:
                return cpu
        else:
            # Work-conserving variant (Nest §3.4): prefer a fully-idle
            # physical core on *any* die over a hyperthread sibling on the
            # local one — this is what lets a Nest burst scatter across the
            # machine instead of doubling up on hyperthreads (the paper's
            # rodinia observation).
            spans = kernel.topology.cpus_of_socket
            target_die = kernel.die_of[target]
            other_spans = [spans[s]
                           for s in _rotate(tuple(range(len(spans))),
                                            target_die + 1)
                           if s != target_die]
            cpu = self._search_idle_core(die, target, check_pending)
            if cpu is not None:
                return cpu
            for span in other_spans:
                cpu = self._search_idle_core(span, span[0], check_pending)
                if cpu is not None:
                    return cpu
            cpu = self._search_any_idle(die, target, check_pending,
                                        unbounded=False)
            if cpu is not None:
                return cpu
            for span in other_spans:
                cpu = self._search_any_idle(span, span[0], check_pending,
                                            unbounded=True)
                if cpu is not None:
                    return cpu

        sib = kernel.sibling_of[target]
        if sib != target and self._usable_idle(sib, check_pending):
            return sib
        if not kernel.cpu_online[target]:
            return kernel.least_loaded_online(target)
        return target

    def _search_die(self, die: Sequence[int], target: int,
                    check_pending: bool, unbounded: bool = False) -> Optional[int]:
        cpu = self._search_idle_core(die, target, check_pending)
        if cpu is not None:
            return cpu
        return self._search_any_idle(die, target, check_pending, unbounded)

    def _search_idle_core(self, die: Sequence[int], target: int,
                          check_pending: bool) -> Optional[int]:
        """Step 1: a physical core with every hyperthread idle."""
        kernel = self.kernel
        pc_of = kernel.pc_of
        threads_of_pc = kernel.threads_of_pc
        seen_cores = set()
        for c in _rotate(tuple(die), target):
            pc = pc_of[c]
            if pc in seen_cores:
                continue
            seen_cores.add(pc)
            sibs = threads_of_pc[pc]
            if all(self._usable_idle(s, check_pending) for s in sibs):
                return min(sibs)
        return None

    def _search_any_idle(self, die: Sequence[int], target: int,
                         check_pending: bool,
                         unbounded: bool = False) -> Optional[int]:
        """Step 2: bounded linear scan for any idle cpu."""
        ordered = _rotate(tuple(die), target)
        limit = len(ordered) if unbounded else min(len(ordered),
                                                   WAKEUP_SCAN_LIMIT)
        for c in ordered[:limit]:
            if self._usable_idle(c, check_pending):
                return c
        return None

    def _usable_idle(self, cpu: int, check_pending: bool) -> bool:
        kernel = self.kernel
        if not kernel.cpu_online[cpu]:
            return False
        if kernel.cpus[cpu].current is not None \
                or kernel.rqs[cpu].nr_queued != 0:
            return False
        if check_pending and kernel.rqs[cpu].placement_pending > 0:
            return False
        return True


def _qload(load: float) -> int:
    """Quantize a PELT load for comparisons (see LOAD_EPSILON)."""
    return int(load / LOAD_EPSILON)


@lru_cache(maxsize=4096)
def _rotate(seq: Tuple[int, ...], start: int) -> Tuple[int, ...]:
    """Return ``seq`` rotated so scanning starts at ``start`` (or just after
    its insertion point when ``start`` is not a member).

    Memoized: the wakeup path rotates the same die span for every placement,
    and there are only (spans x cpus) distinct rotations per machine.
    """
    ordered = sorted(seq)
    pivot = 0
    for i, v in enumerate(ordered):
        if v >= start:
            pivot = i
            break
    else:
        pivot = 0
    return tuple(ordered[pivot:] + ordered[:pivot])
