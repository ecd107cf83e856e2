"""The schedutil governor (paper §2.3).

Schedutil couples the frequency request to the scheduler's utilisation
signal: ``f = C * f_max * util / util_max`` with C = 1.25 headroom, exactly
the kernel's ``get_next_freq``.  A cpu whose runqueue has been busy recently
requests a high frequency; a cpu that has been idle for a while — or that
just received its first short-lived task — requests a low one.  This is the
governor under which CFS's task-scattering hurts: every placement on a
long-idle core restarts from a low request (and a low actual frequency).
"""

from __future__ import annotations

from ..kernel.pelt import PELT_MAX
from ..obs import events as oev
from ..obs.log import EventLog
from .base import Governor

#: Headroom multiplier used by the kernel ("1.25 * max * util / max_cap").
HEADROOM = 1.25


class SchedutilGovernor(Governor):
    """Utilisation-driven frequency requests with the full range allowed."""

    def __init__(self) -> None:
        super().__init__()
        self._obs = EventLog()   # replaced with the engine's log on bind

    def on_bind(self) -> None:
        # The frequency model asks for a request on every re-pricing, so
        # everything that is fixed for the kernel's lifetime is bound once.
        # ``_scale`` keeps the kernel's ``HEADROOM * max_turbo_mhz`` product:
        # ``_scale * util / PELT_MAX`` is then bit-identical to the formula
        # evaluated left to right.
        kernel = self.kernel
        machine = kernel.machine
        self._engine = kernel.engine
        self._obs = kernel.engine.obs
        self._rqs = kernel.rqs
        self._cpus = kernel.cpus
        self._min_mhz = machine.min_mhz
        self._max_turbo_mhz = machine.max_turbo_mhz
        self._scale = HEADROOM * machine.max_turbo_mhz

    def floor_mhz(self, cpu: int) -> int:
        return self._min_mhz

    def request_mhz(self, cpu: int) -> int:
        now = self._engine.now
        rq = self._rqs[cpu]
        # Running average of cpu activity...
        util = rq.util(now)
        # ...bumped immediately by the utilisation estimates of the tasks
        # now attached to the cpu (the kernel's util_est): a wakeup of a
        # known-busy task raises the request without waiting for PELT.
        est = 0.0
        current = self._cpus[cpu].current
        if current is not None:
            ue = current.util_est
            pelt = current.pelt.peek(now, True)
            est += pelt if pelt > ue else ue
        est = rq.add_queued_util_est(est)
        if est >= PELT_MAX:
            est = PELT_MAX
        if est > util:
            util = est
        mhz = int(self._scale * util / PELT_MAX)
        if mhz > self._max_turbo_mhz:
            mhz = self._max_turbo_mhz
        if mhz < self._min_mhz:
            mhz = self._min_mhz
        if self._obs.enabled:
            self._obs.emit(now, oev.FREQ_REQUEST, cpu=cpu, value=mhz)
        return mhz

    @property
    def name(self) -> str:
        return "schedutil"
