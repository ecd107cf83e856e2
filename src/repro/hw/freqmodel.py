"""Per-core DVFS model.

Frequency is a property of the *physical core* (both hyperthreads run at the
same frequency, as on Intel).  The frequency of a core is decided by the
hardware within governor-supplied bounds (§2.3 of the paper):

* the ceiling is the socket's turbo limit given the number of active physical
  cores on the socket (Table 3), further capped by the governor's request
  (schedutil requests track utilisation; performance requests the full range
  with a floor at the nominal frequency);
* the hardware *ramps* toward the target rather than jumping: Speed Shift
  hardware (Skylake/Cascade Lake) ramps quickly, Enhanced SpeedStep
  (Broadwell E7-8870 v4) ramps slowly and drops out of turbo quickly when it
  observes gaps in the computation — the behaviour §5.2 calls the machine
  being "prone to using subturbo frequencies";
* an idle core holds its frequency for a short grace period and then decays
  stepwise to the minimum.  A core whose idle loop is *spinning* (Nest's
  ``S_max`` warm-core mechanism) counts as active and keeps its frequency.

This model is what makes task placement matter: a task placed on a long-idle
core starts at the minimum frequency and pays the ramp latency, while a task
placed on a just-vacated warm core starts fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..sim.engine import Engine
from ..sim.events import Event, EventKind
from .topology import Topology
from .turbo import TurboTable


@dataclass(frozen=True)
class PMParams:
    """Power-management personality of a microarchitecture.

    The pivotal behaviour is the *sustained-activity boost*: hardware grants
    the full per-count turbo ceiling only to cores that have been active for
    ``turbo_latency_us`` without a gap longer than ``gap_forgiveness_us``.
    Before that, an active core is capped at ``presustain_cap`` (the all-core
    turbo on Speed Shift parts, the nominal frequency on Broadwell) and runs
    at whatever the governor requests below the cap.  This is why short
    tasks scattered onto long-idle cores never reach the high turbo range,
    while a compact, continuously-warm nest does — the causal core of the
    paper.
    """

    name: str
    ramp_up_step_mhz: int       # frequency gained per ramp interval
    ramp_interval_us: int       # time between upward ramp steps
    decay_step_mhz: int         # frequency lost per decay interval when idle
    decay_interval_us: int      # time between downward steps
    idle_hold_us: int           # grace period before an idle core decays
    turbo_latency_us: int       # sustained activity needed for full turbo
    gap_forgiveness_us: int     # idle gaps shorter than this keep "sustained"
    presustain_cap: str         # "allcore" or "nominal"
    #: Speed Shift hardware programs the computed P-state on the wakeup path
    #: (transitions take tens of µs); SpeedStep only honours the governor's
    #: floor immediately and ramps toward anything above it.
    instant_pstate: bool = True
    #: HWP parts autonomously drive a sustained-active core to the full
    #: turbo budget regardless of the governor's hint.  Pre-HWP SpeedStep
    #: always follows the OS request — sustained activity merely unlocks the
    #: turbo *range* — which is why utilisation-gated schedutil leaves the
    #: E7-8870 v4 at low frequencies whenever tasks pause (§5.3).
    autonomous_boost: bool = True

    def __post_init__(self) -> None:
        if self.presustain_cap not in ("allcore", "nominal"):
            raise ValueError("presustain_cap must be 'allcore' or 'nominal'")


#: Intel Speed Shift (HWP): fast ramp, quick autonomous boost of busy cores
#: (Skylake 6130, Cascade Lake 5218/5220).
SPEED_SHIFT = PMParams(
    name="Intel Speed Shift",
    ramp_up_step_mhz=700,
    ramp_interval_us=500,
    decay_step_mhz=700,
    decay_interval_us=1_000,
    idle_hold_us=3_000,
    turbo_latency_us=8_000,
    gap_forgiveness_us=500,
    presustain_cap="allcore",
)

#: Enhanced Intel SpeedStep (Broadwell E7-8870 v4): slow ramp, quick decay,
#: long sustained activity required, and gaps in the computation drop the
#: core back to sub-turbo (§5.2: the machine is "prone to using subturbo
#: frequencies" whenever there are gaps).
SPEED_STEP = PMParams(
    name="Enhanced Intel SpeedStep",
    ramp_up_step_mhz=250,
    ramp_interval_us=1_000,
    decay_step_mhz=500,
    decay_interval_us=500,
    idle_hold_us=400,
    turbo_latency_us=15_000,
    gap_forgiveness_us=500,
    presustain_cap="nominal",
    instant_pstate=False,
    autonomous_boost=False,
)

#: AMD Precision Boost (Ryzen 4650G): fast, HWP-like.
AMD_BOOST = PMParams(
    name="AMD Precision Boost",
    ramp_up_step_mhz=800,
    ramp_interval_us=400,
    decay_step_mhz=800,
    decay_interval_us=1_000,
    idle_hold_us=3_000,
    turbo_latency_us=6_000,
    gap_forgiveness_us=2_000,
    presustain_cap="allcore",
)


#: Callback signature for frequency transitions: (physical_core, new_mhz).
FreqListener = Callable[[int, int], None]


class GovernorProtocol:
    """What the frequency model needs from a power governor (see governors/)."""

    def floor_mhz(self, cpu: int) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def request_mhz(self, cpu: int) -> int:  # pragma: no cover - interface
        raise NotImplementedError


class _CoreState:
    """Mutable DVFS state of one physical core."""

    __slots__ = ("mhz", "active_threads", "spinning_threads", "active_since",
                 "idle_since", "step_event", "prev_active_since")

    def __init__(self, mhz: int) -> None:
        self.mhz = mhz
        self.active_threads = 0        # hw threads running a task
        self.spinning_threads = 0      # hw threads in the spinning idle loop
        self.active_since: Optional[int] = None
        self.idle_since: Optional[int] = 0
        self.step_event: Optional[Event] = None
        self.prev_active_since: Optional[int] = None  # for gap forgiveness

    @property
    def is_active(self) -> bool:
        return self.active_threads > 0 or self.spinning_threads > 0


class FreqModel:
    """Tracks and evolves per-physical-core frequencies."""

    def __init__(
        self,
        engine: Engine,
        topology: Topology,
        turbo: TurboTable,
        pm: PMParams,
        governor: GovernorProtocol,
    ) -> None:
        self.engine = engine
        self.topology = topology
        self.turbo = turbo
        self.pm = pm
        self.governor = governor
        self._listeners: List[FreqListener] = []
        self._cores = [_CoreState(turbo.min_mhz)
                       for _ in range(topology.n_physical_cores)]
        self._socket_active = [0] * topology.n_sockets
        self._thread_state: List[tuple[bool, bool]] = \
            [(False, False)] * topology.n_cpus
        # Lookups for the hot re-pricing paths: the topology's own tables,
        # and the turbo table flattened once (it is a pure function of the
        # active-core count).
        self._min_mhz = turbo.min_mhz
        self._pc_of = topology.pc_of_cpu
        self._socket_of_pc = topology.socket_of_pc
        self._siblings_of_pc = topology.threads_of_pc
        self._ceiling_by_active = tuple(
            turbo.ceiling(k) for k in range(topology.cores_per_socket + 1))
        if pm.presustain_cap == "allcore":
            cap = turbo.limits[-1]
        else:
            cap = turbo.nominal_mhz
        self._presustain_cap_mhz = max(cap, turbo.nominal_mhz)
        # PMParams is frozen: the fields read on every re-pricing are
        # bound once, as is the queue that ramp steps move within.
        self._queue = engine.queue
        self._turbo_latency_us = pm.turbo_latency_us
        self._autonomous_boost = pm.autonomous_boost
        self._ramp_interval_us = pm.ramp_interval_us
        self._decay_interval_us = pm.decay_interval_us
        self._idle_hold_us = pm.idle_hold_us
        #: Thermal caps injected by faults/ (None = uncapped).  A cap
        #: clamps the target below everything else the model computes,
        #: like a firmware thermal limit.
        self._thermal_cap: List[Optional[int]] = \
            [None] * topology.n_physical_cores

    # ---- public queries -----------------------------------------------

    def add_listener(self, fn: FreqListener) -> None:
        self._listeners.append(fn)

    def freq_mhz(self, cpu: int) -> int:
        """Current frequency of the physical core containing hw thread cpu."""
        return self._cores[self._pc_of[cpu]].mhz

    def core_freq_mhz(self, physical_core: int) -> int:
        return self._cores[physical_core].mhz

    def active_physical_cores(self, socket: int) -> int:
        return self._socket_active[socket]

    def core_is_active(self, physical_core: int) -> bool:
        return self._cores[physical_core].is_active

    def idle_duration(self, cpu: int, now: int) -> Optional[int]:
        """How long the physical core of ``cpu`` has been fully idle."""
        st = self._cores[self._pc_of[cpu]]
        if st.idle_since is None:
            return None
        return now - st.idle_since

    # ---- state transitions ----------------------------------------------

    def set_thread_state(self, cpu: int, busy: bool, spinning: bool) -> None:
        """Report the activity of one hardware thread.

        ``busy`` means a task is running; ``spinning`` means the idle loop is
        spinning to keep the core warm.  At most one of them may be True.
        """
        if busy and spinning:
            raise ValueError("a thread cannot be busy and spinning")
        pc = self._pc_of[cpu]
        st = self._cores[pc]
        was_active = st.is_active

        # The caller gives absolute state, so subtract the previous
        # contribution of this thread before adding the new one.
        prev = self._thread_state
        old_busy, old_spin = prev[cpu]
        if old_busy:
            st.active_threads -= 1
        if old_spin:
            st.spinning_threads -= 1
        if busy:
            st.active_threads += 1
        if spinning:
            st.spinning_threads += 1
        prev[cpu] = (busy, spinning)

        now = self.engine.now
        if st.is_active and not was_active:
            # Gap forgiveness: a brief idle interruption does not reset the
            # hardware's sustained-activity observation.
            if (st.idle_since is not None
                    and st.prev_active_since is not None
                    and now - st.idle_since <= self.pm.gap_forgiveness_us):
                st.active_since = st.prev_active_since
            else:
                st.active_since = now
            st.idle_since = None
            socket = self._socket_of_pc[pc]
            self._socket_active[socket] += 1
            # A waking core exits its idle state directly at the governor's
            # floor P-state (the performance governor's guarantee).  Speed
            # Shift hardware programs the full computed P-state on the
            # wakeup path, so there is no slow climb out of idle at all.
            if self.pm.instant_pstate:
                jump = self._target_mhz(pc, now)
            else:
                jump = max(self.governor.floor_mhz(t)
                           for t in self._siblings_of_pc[pc])
                cap = self._thermal_cap[pc]
                if cap is not None and jump > cap:
                    jump = cap
            if st.mhz < jump:
                st.mhz = jump
                for fn in self._listeners:
                    fn(pc, jump)
            self._reevaluate_socket(socket)
        elif was_active and not st.is_active:
            st.prev_active_since = st.active_since
            st.active_since = None
            st.idle_since = now
            socket = self._socket_of_pc[pc]
            self._socket_active[socket] -= 1
            self._reevaluate_socket(socket)
        else:
            self._reevaluate(pc)

    def thread_state(self, cpu: int) -> tuple[bool, bool]:
        """(busy, spinning) state last reported for hardware thread ``cpu``."""
        return self._thread_state[cpu]

    def notify_request_change(self, cpu: int) -> None:
        """Governor request for ``cpu`` may have changed; re-evaluate."""
        self._reevaluate(self._pc_of[cpu])

    def set_thermal_cap(self, physical_core: int,
                        mhz: Optional[int]) -> None:
        """Clamp (or, with ``None``, unclamp) a core below ``mhz``.

        Installed by the fault injector.  Like a firmware thermal limit the
        clamp-down is immediate — running tasks are re-priced through the
        listener — while recovery after the cap lifts follows the normal
        ramp intervals.
        """
        if mhz is not None:
            mhz = max(int(mhz), self._min_mhz)
        self._thermal_cap[physical_core] = mhz
        st = self._cores[physical_core]
        if mhz is not None and st.mhz > mhz:
            st.mhz = mhz
            for fn in self._listeners:
                fn(physical_core, mhz)
        self._reevaluate(physical_core)

    def thermal_cap(self, physical_core: int) -> Optional[int]:
        return self._thermal_cap[physical_core]

    # ---- target computation and ramping -----------------------------------

    def _target_mhz(self, pc: int, now: int) -> int:
        st = self._cores[pc]
        if st.active_threads == 0 and st.spinning_threads == 0:
            return self._min_mhz
        ceiling = self._ceiling_by_active[
            self._socket_active[self._socket_of_pc[pc]]]
        sustained = (st.active_since is not None
                     and now - st.active_since >= self._turbo_latency_us)
        if sustained and self._autonomous_boost:
            # HWP autonomous boost: the hardware drives a continuously-
            # active core to its full turbo budget, whatever the governor
            # hints.
            target = ceiling
        else:
            if not sustained:
                if self._presustain_cap_mhz < ceiling:
                    ceiling = self._presustain_cap_mhz
            # Governor bounds, evaluated over the core's hw threads: the
            # hardware honours the strongest request on the core.
            request = 0
            floor = self._min_mhz
            governor = self.governor
            for t in self._siblings_of_pc[pc]:
                r = governor.request_mhz(t)
                if r > request:
                    request = r
                f = governor.floor_mhz(t)
                if f > floor:
                    floor = f
            # min(ceiling, max(request, floor)), as comparisons.
            target = floor if floor > request else request
            if target >= ceiling:
                target = ceiling
        # A spinning idle loop looks 100%-active to the hardware, which
        # therefore holds the frequency even if the governor's request sinks
        # (Nest's warm-core mechanism, §3.2).
        if st.spinning_threads > 0 and st.active_threads == 0:
            if st.mhz > target:
                target = st.mhz
            if target >= ceiling:
                target = ceiling
        if self._min_mhz > target:
            target = self._min_mhz
        cap = self._thermal_cap[pc]
        if cap is not None and target > cap:
            target = cap
        return target

    def _reevaluate_socket(self, socket: int) -> None:
        """Re-price every core of a socket after its active count changed.

        Settled idle cores — inactive, already at the minimum frequency,
        with no ramp step pending — are skipped: their target is the
        minimum regardless of the socket's active-core count, so
        re-evaluating them is always a no-op.  This turns the per-socket
        sweep from O(cores) target computations into O(non-settled cores),
        the "batched re-pricing" fast path.
        """
        cores = self._cores
        min_mhz = self._min_mhz
        for pc in self.topology.pcs_of_socket[socket]:
            st = cores[pc]
            if (st.active_threads == 0 and st.spinning_threads == 0
                    and st.step_event is None and st.mhz == min_mhz):
                continue
            self._reevaluate(pc)

    def _reevaluate(self, pc: int) -> None:
        """Recompute the target and (re)schedule the next ramp step."""
        st = self._cores[pc]
        if (st.active_threads == 0 and st.spinning_threads == 0
                and st.step_event is None and st.mhz == self._min_mhz):
            return    # settled idle core: target == mhz == min
        now = self.engine.now
        target = self._target_mhz(pc, now)
        delay: Optional[int] = None
        if target == st.mhz:
            # If turbo reluctance is still capping us, wake up when it lifts.
            latency = self._turbo_latency_us
            if st.is_active and latency > 0 \
                    and st.active_since is not None:
                remaining = latency - (now - st.active_since)
                if remaining > 0:
                    delay = remaining
        elif target > st.mhz:
            delay = self._ramp_interval_us
        else:
            delay = self._decay_interval_us
            if st.idle_since is not None:
                held = now - st.idle_since
                if held < self._idle_hold_us:
                    delay = self._idle_hold_us - held
        ev = st.step_event
        if delay is None:
            if ev is not None:
                self.engine.cancel(ev)
                st.step_event = None
        elif ev is not None:
            # Re-pricing mostly lands the step at the time already pending;
            # moving the event in place keeps tombstones out of the queue.
            # Every delay above is positive, so the queue is called
            # directly, without Engine.reschedule's argument checks.
            st.step_event = self._queue.reschedule(ev, now + delay)
        else:
            st.step_event = self.engine.after(
                delay, EventKind.FREQ, self._step, (pc,))

    def _step(self, pc: int) -> None:
        """One ramp step: move the frequency toward the current target."""
        st = self._cores[pc]
        st.step_event = None
        now = self.engine.now
        target = self._target_mhz(pc, now)
        if target > st.mhz:
            new = min(st.mhz + self.pm.ramp_up_step_mhz, target)
        elif target < st.mhz:
            new = max(st.mhz - self.pm.decay_step_mhz, target)
        else:
            new = st.mhz
        if new != st.mhz:
            st.mhz = new
            for fn in self._listeners:
                fn(pc, new)
        self._reevaluate(pc)

    # ---- warm start -----------------------------------------------------

    def force_freq(self, physical_core: int, mhz: int) -> None:
        """Set a core's frequency directly (tests and warm-start)."""
        st = self._cores[physical_core]
        if st.mhz != mhz:
            st.mhz = mhz
            for fn in self._listeners:
                fn(physical_core, mhz)
        self._reevaluate(physical_core)
