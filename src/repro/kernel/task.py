"""Task objects and lifecycle state."""

from __future__ import annotations

import enum
from typing import Any, Generator, List, Optional, Set

from .pelt import PeltAvg


class TaskState(enum.Enum):
    NEW = "new"            # created, not yet enqueued
    RUNNABLE = "runnable"  # on a runqueue, waiting for the CPU
    RUNNING = "running"    # currently on a CPU
    SLEEPING = "sleeping"  # blocked on a timer (Sleep)
    BLOCKED = "blocked"    # blocked on a child, barrier or channel
    EXITED = "exited"


class BlockReason(enum.Enum):
    NONE = "none"
    TIMER = "timer"
    CHILDREN = "children"
    TASK = "task"
    BARRIER = "barrier"
    CHANNEL = "channel"


class Task:
    """A schedulable task driving a behaviour generator.

    The previous-core history (size 2, §3.3 of the paper) and the impatience
    counter (§3.1) live here because they are per-task Nest state; they are
    maintained by the Nest policy and ignored by CFS.
    """

    __slots__ = (
        "tid", "name", "generator", "parent", "children", "n_live_children",
        "state", "block_reason", "cpu", "prev_cpu", "core_history",
        "impatience", "remaining_cycles", "vruntime", "pelt",
        "run_start_us", "run_freq_mhz", "last_ran_us", "enqueued_us",
        "completion_event", "sleep_event", "created_us", "exited_us",
        "exec_start_us", "total_cycles", "total_runtime_us", "n_migrations",
        "n_wakeups", "wakeup_latency_us", "resume_value", "waited_by",
        "waiting_for", "util_est",
        "deadline_us", "wcet_cycles", "backup", "backup_of", "rt_channel",
        "rt_activated_us", "rt_killed", "rt_accounted",
    )

    def __init__(
        self,
        tid: int,
        name: str,
        generator: Generator[Any, Any, None],
        parent: Optional["Task"],
        now: int,
    ) -> None:
        self.tid = tid
        self.name = name
        self.generator = generator
        self.parent = parent
        self.children: Set["Task"] = set()
        #: Children not yet EXITED; the kernel decrements it when one exits.
        self.n_live_children = 0
        if parent is not None:
            parent.children.add(self)
            parent.n_live_children += 1

        self.state = TaskState.NEW
        self.block_reason = BlockReason.NONE
        self.cpu: Optional[int] = None           # CPU while RUNNING
        self.prev_cpu: Optional[int] = None      # last CPU it ran on
        self.core_history: List[Optional[int]] = [None, None]  # Nest §3.3
        self.impatience = 0                       # Nest §3.1

        self.remaining_cycles = 0.0               # of the current Compute
        self.vruntime = 0.0
        # New tasks start at half utilisation, as Linux's
        # init_entity_runnable_average does: a fresh fork immediately makes
        # schedutil request a mid-range frequency.
        self.pelt = PeltAvg(now, value=512.0)
        self.util_est = 512.0                     # snapshot at last dequeue

        self.run_start_us: Optional[int] = None   # start of current stint
        self.run_freq_mhz = 0                     # freq pricing the stint
        self.last_ran_us = now
        self.enqueued_us: Optional[int] = None

        self.completion_event = None              # engine Event handles
        self.sleep_event = None

        self.created_us = now
        self.exited_us: Optional[int] = None
        self.exec_start_us: Optional[int] = None

        # Statistics.
        self.total_cycles = 0.0
        self.total_runtime_us = 0
        self.n_migrations = 0
        self.n_wakeups = 0
        self.wakeup_latency_us = 0

        self.resume_value: Any = None             # sent into the generator
        self.waited_by: Optional["Task"] = None   # a parent in WaitTask
        self.waiting_for: Optional["Task"] = None

        # Real-time job state (fault-tolerant scheduling; see DESIGN.md §10).
        # ``deadline_us`` is an *absolute* deadline; a task with one set is
        # an RT copy.  A primary copy points at its cold backup via
        # ``backup`` and holds the activation channel; the backup points
        # back via ``backup_of``.
        self.deadline_us: Optional[int] = None
        self.wcet_cycles = 0.0
        self.backup: Optional["Task"] = None
        self.backup_of: Optional["Task"] = None
        self.rt_channel: Any = None
        self.rt_activated_us: Optional[int] = None  # backup promotion time
        self.rt_killed = False                    # destroyed by a core failure
        self.rt_accounted = False                 # job outcome recorded

    # ---- Nest helpers (§3.3 attachment) ----------------------------------

    def record_core(self, cpu: int) -> None:
        """Push ``cpu`` into the 2-deep previous-core history."""
        self.core_history[1] = self.core_history[0]
        self.core_history[0] = cpu

    @property
    def attached_core(self) -> Optional[int]:
        """The core the task is attached to, if the last two runs agree."""
        a, b = self.core_history
        if a is not None and a == b:
            return a
        return None

    # ---- predicates --------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.state is not TaskState.EXITED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Task({self.tid}:{self.name} {self.state.value} cpu={self.cpu})"
