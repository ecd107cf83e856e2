"""One configure-suite pass against the ``repro`` package of a given tree.

Usage: ``python3 simbench/reference.py SRC_DIR SEED``.  Prints one JSON
line: the pass's host and reference seconds (see ``calibrate.py``) and
each run's makespan and energy.  Uses only entry points every version of
the simulator has had (``ConfigureWorkload``, ``get_machine``,
``run_experiment``), so it runs against the original seed tree, which
predates the workload catalogue.
"""

from __future__ import annotations

import json
import sys
import time


def main(src: str, seed: int) -> int:
    sys.path.insert(0, src)
    import calibrate
    import suite
    from repro.experiments.runner import run_experiment
    from repro.hw.machines import get_machine
    from repro.workloads.configure import ConfigureWorkload

    runs = suite.runs_for("configure-suite", seed)
    out = {}
    calib = []
    wall = 0.0
    for run in runs:
        calib.append(calibrate.sample())
        t0 = time.perf_counter()
        wl = ConfigureWorkload(run.workload.removeprefix("configure-"),
                               scale=run.scale)
        res = run_experiment(wl, get_machine(run.machine), run.scheduler,
                             run.governor, seed=run.seed)
        wall += time.perf_counter() - t0
        out[run.key] = [res.makespan_us, repr(res.energy_joules)]
    print(json.dumps({"wall_s": wall,
                      "reference_s": wall / calibrate.slowness(calib),
                      "runs": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
