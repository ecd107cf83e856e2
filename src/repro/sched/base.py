"""Interface between the kernel and a core-selection policy.

This module is the author-facing half of the policy SDK (the other half
is :mod:`repro.sched.registry`).  A new scheduler is one subclass of
:class:`SelectionPolicy` plus one ``register_policy`` call; everything
else — CLI exposure, fuzzing, the invariant oracle, the conformance
suite — derives from the registry entry.  See README "Writing a new
scheduler" and DESIGN.md §11 for the walkthrough.

The contract a policy must honour:

**Lifecycle.**  A policy instance is constructed unbound (no kernel),
bound exactly once via :meth:`bind` (which stores ``self.kernel`` and
calls :meth:`on_bind`), used for one simulation, then discarded.  All
per-run state must be reset by constructing a fresh instance — the
registry factory is called once per run, so instance attributes are the
right place for run state.  Never cache anything across instances in
class or module globals.

**Determinism.**  A policy must be a pure function of the simulation
state it observes.  Concretely: no wall-clock reads, no ``random``
module (draw from the engine's seeded streams via
``self.kernel.engine.rng`` if randomness is needed), and no iteration
over unordered containers where the order can leak into a decision —
sort, or keep insertion-ordered structures.  The conformance suite runs
every policy twice and under two ``PYTHONHASHSEED`` values and requires
bit-identical results and event streams.

**Event-emission obligations.**  Observability is opt-in per run: guard
every emit with ``if self._obs.enabled:`` (bind-time pattern: replace a
detached placeholder ``EventLog()`` with ``self.kernel.engine.obs`` in
:meth:`on_bind`, as Nest/FT-RT/scx_nest do).  Every kind emitted must be
a member of ``repro.obs.events.EVENT_KINDS`` — the oracle's
``events.vocabulary`` invariant convicts unknown kinds.  If the policy
keeps counters that mirror events (it should), the mirror must be exact:
the oracle families (``nest.*``, ``scxnest.*``, ``rt.*``) cross-check
counters against the event stream.  The registry entry's
``invariant_groups`` declares which of ``nest.*`` / ``scxnest.*``
applies; ``rt.*`` applies to every policy's runs, since the kernel owns
RT accounting.  Behaviour must not change with observability on/off —
events and counters are read-only taps, never control flow.

**Self-check protocol.**  :meth:`check_invariants` is called by the
experiment runner after every completed simulation.  Raise
``AssertionError`` with a message naming the inconsistent counters when
internal accounting does not add up (e.g. Nest: tier hits must equal
total placements).  The self-check guards the policy's own bookkeeping;
the external oracle guards its observable behaviour — mutation canaries
deliberately construct bugs that pass the former and are caught by the
latter, so do not treat a passing self-check as correctness.

**Metrics convention.**  Keep counters/histograms in a
``repro.obs.metrics.MetricsRegistry`` exposed as ``self.metrics``; the
runner serializes it onto the result under the ``{name.lower()}.``
prefix.  Create fault-path-only counters lazily so fault-free runs keep
an identical metrics dict (and identical cached results).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.scheduler_core import Kernel
    from ..kernel.task import Task


class SelectionPolicy:
    """Chooses a CPU for a forking or waking task.

    Subclasses implement the two selection paths; the remaining hooks have
    no-op defaults.  A policy instance is bound to exactly one kernel.
    """

    #: CPU time consumed by one run of the selection code.  Nest adds code
    #: to core selection (the paper measures this through hackbench's
    #: instruction-cache misses, §5.6), so its value is larger.
    selection_cost_us: int = 1

    def __init__(self) -> None:
        self.kernel: Optional["Kernel"] = None

    def bind(self, kernel: "Kernel") -> None:
        if self.kernel is not None:
            raise RuntimeError("policy already bound to a kernel")
        self.kernel = kernel
        self.on_bind()

    def on_bind(self) -> None:
        """Hook called once the kernel reference is available."""

    # ---- required selection paths ----------------------------------------

    def select_cpu_fork(self, task: "Task", parent_cpu: int) -> int:
        """Choose the cpu for a newly forked ``task``.

        Must return an **online** cpu id synchronously; the kernel then
        runs the two-step commit (the §3.4 ``placement_pending`` window)
        and emits the ``sched.fork`` commit event itself."""
        raise NotImplementedError

    def select_cpu_wakeup(self, task: "Task", waker_cpu: int) -> int:
        """Choose the cpu for a waking ``task`` (same obligations as
        :meth:`select_cpu_fork`; the commit event is ``sched.wakeup``)."""
        raise NotImplementedError

    # ---- optional hooks ------------------------------------------------

    def spin_ticks(self) -> float:
        """Ticks the idle loop should spin after a task blocks (§3.2)."""
        return 0.0

    def on_tick(self, cpu: int, freq_mhz: int) -> None:
        """Scheduler tick on a busy cpu (Smove samples frequencies here)."""

    def on_enqueue(self, task: "Task", cpu: int) -> None:
        """A task was enqueued on ``cpu`` (placement or migration)."""

    def on_exit_idle(self, cpu: int) -> None:
        """A task exited and ``cpu`` may now be idle."""

    def on_cpu_offline(self, cpu: int) -> None:
        """``cpu`` was hotplugged out (faults/): drop any per-cpu state.

        The kernel has already drained the cpu's runqueue when this fires;
        policies must not propose the cpu while ``kernel.cpu_online[cpu]``
        is false."""

    def select_cpu_offline_migration(self, task: "Task",
                                     offline_cpu: int) -> Optional[int]:
        """Choose a new cpu for a task orphaned by a hotplug fault.

        Returning ``None`` (the default) lets the kernel pick the least
        loaded online cpu; policies with placement state (Nest) route the
        orphan through their normal search so counters stay consistent."""
        return None

    def check_invariants(self) -> None:
        """Verify internal counter consistency after a run (no-op default).

        Policies that keep placement statistics assert here that the
        counters add up (e.g. Nest: tier hits == total placements); the
        experiment runner calls this once per completed simulation."""

    @property
    def name(self) -> str:
        return type(self).__name__
