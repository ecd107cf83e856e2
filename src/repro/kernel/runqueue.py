"""Per-CPU runqueue.

Ordering follows CFS: the runnable task with the smallest virtual runtime
runs next.  A binary heap keyed on (vruntime, enqueue sequence) replaces the
kernel's red-black tree; removal of arbitrary tasks (for load-balancer
migration) is by lazy invalidation.

The runqueue also carries the signals the placement heuristics read:

* ``busy_avg`` — a PELT average of "this CPU was running something", used by
  schedutil for its frequency request and by CFS's fork path as the "recent
  load" that makes it disfavour recently-used idle cores (§2.1);
* ``blocked_load`` — decaying load contributed by tasks that blocked while
  attached here, which keeps a core looking loaded briefly after its task
  sleeps (the effect that makes CFS scatter forks to long-idle cores);
* ``placement_pending`` — the flag Nest checks with compare-and-swap to
  prevent two concurrent placements choosing the same core (§3.4).
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from .pelt import PELT_MAX, PeltAvg, decay_factor
from .task import Task, TaskState

#: Vruntime credit granted to waking sleepers (Linux's sleeper fairness:
#: half the scheduling latency), letting them preempt long-running tasks.
SLEEPER_BONUS_US = 9_000


class RunQueue:
    """Runnable tasks waiting on one hardware thread."""

    __slots__ = ("cpu", "_heap", "_seq", "_queued", "nr_queued",
                 "min_vruntime", "busy_avg", "blocked_load",
                 "placement_pending", "last_busy_us", "nr_switches",
                 "currently_busy")

    def __init__(self, cpu: int, now: int = 0) -> None:
        self.cpu = cpu
        self._heap: List[tuple[float, int, Task]] = []
        self._seq = 0
        self._queued: set[int] = set()        # tids currently queued
        #: ``len(self._queued)``, maintained eagerly — the placement paths
        #: read it for every candidate cpu, so it must be an attribute.
        self.nr_queued = 0
        self.min_vruntime = 0.0
        self.busy_avg = PeltAvg(now)
        self.blocked_load = PeltAvg(now)
        self.placement_pending = 0    # count of in-flight placements (§3.4)
        self.last_busy_us = 0                 # when the cpu last ran a task
        self.nr_switches = 0
        self.currently_busy = False           # maintained by the kernel

    # ---- queue operations ----------------------------------------------

    def __len__(self) -> int:
        return self.nr_queued

    def push(self, task: Task) -> None:
        if task.tid in self._queued:
            raise RuntimeError(f"{task} already queued on cpu {self.cpu}")
        # CFS clamps a re-entering task's vruntime near min_vruntime so a
        # long sleep does not turn into unbounded credit, but grants a
        # bounded sleeper bonus so wakers can preempt CPU hogs.
        task.vruntime = max(task.vruntime, self.min_vruntime - SLEEPER_BONUS_US)
        heapq.heappush(self._heap, (task.vruntime, self._seq, task))
        self._seq += 1
        self._queued.add(task.tid)
        self.nr_queued += 1

    def pop(self) -> Optional[Task]:
        """Remove and return the leftmost (smallest-vruntime) task."""
        heap = self._heap
        while heap:
            vr, _, task = heapq.heappop(heap)
            if task.tid in self._queued:
                self._queued.discard(task.tid)
                self.nr_queued -= 1
                self.min_vruntime = max(self.min_vruntime, vr)
                return task
        return None

    def peek(self) -> Optional[Task]:
        heap = self._heap
        while heap:
            _, _, task = heap[0]
            if task.tid in self._queued:
                return task
            heapq.heappop(heap)
        return None

    def remove(self, task: Task) -> bool:
        """Remove a specific queued task (load-balancer migration)."""
        if task.tid in self._queued:
            self._queued.discard(task.tid)
            self.nr_queued -= 1
            return True
        return False

    def steal_one(self) -> Optional[Task]:
        """Remove the task best suited for migration (largest vruntime,
        i.e. the one that has waited the least benefit from staying)."""
        candidates = [(vr, seq, t) for vr, seq, t in self._heap
                      if t.tid in self._queued]
        if not candidates:
            return None
        vr, _, task = max(candidates, key=lambda x: (x[0], x[1]))
        self._queued.discard(task.tid)
        self.nr_queued -= 1
        return task

    def queued_tasks(self) -> List[Task]:
        return [t for _, _, t in self._heap if t.tid in self._queued]

    def add_queued_util_est(self, est: float) -> float:
        """``est`` plus each queued task's ``util_est``, added one at a time
        in :meth:`queued_tasks` order (so the float sum is the same), but
        without building the list — schedutil calls this per request."""
        queued = self._queued
        for _, _, t in self._heap:
            if t.tid in queued:
                est += t.util_est
        return est

    # ---- placement signals ------------------------------------------------

    def load_avg(self, now: int) -> float:
        """Recent-load signal used by CFS fork placement: how busy this CPU
        has been, plus the decaying load of recently blocked tasks.

        This is :meth:`PeltAvg.peek` inlined twice.  The CFS fork walk is
        its main caller; it reads a cpu's load only where the load can
        decide the placement (tied groups, idle or equally busy cpus).
        """
        busy = self.busy_avg
        v = busy.value
        delta = now - busy.last_update_us
        if delta > 0:
            if self.currently_busy:
                y = decay_factor(delta)
                v = v * y + PELT_MAX * (1.0 - y)
            elif v != 0.0:
                v = v * decay_factor(delta)
        blocked = self.blocked_load
        bv = blocked.value
        if bv != 0.0:
            delta = now - blocked.last_update_us
            if delta > 0:
                bv = bv * decay_factor(delta)
        return v + bv

    def util(self, now: int) -> float:
        """Utilisation signal used by schedutil (0..1024)."""
        busy = self.busy_avg
        v = busy.value
        delta = now - busy.last_update_us
        if delta <= 0:
            return v
        if self.currently_busy:
            y = decay_factor(delta)
            return v * y + PELT_MAX * (1.0 - y)
        if v == 0.0:
            return 0.0
        return v * decay_factor(delta)
