"""Repro files: a failing scenario frozen as a small JSON document.

A repro carries everything needed to re-provoke a failure with no fuzz
state: the (shrunk) scenario, the invariant names it tripped, the
violations observed when it was saved, and where the fuzzer found it
(base seed + index), so the original unshrunk scenario can always be
regenerated.  ``verify replay repro.json`` re-runs exactly the checks
the repro names — a repro whose bug has been fixed replays clean, which
is what lets fixed repros live on under ``tests/repros/`` as permanent
regression tests.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..experiments.cache import atomic_write_json
from ..experiments.parallel import RunSpec
from .execute import run_scenario
from .oracle import Violation, check_run

FORMAT = 1


def save_repro(
    path: Path,
    scenario: RunSpec,
    violations: List[Violation],
    origin: Optional[Dict[str, Any]] = None,
    analysis: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write a replayable repro document for a failing scenario.

    ``analysis`` is an optional trace-analysis digest of the failing
    run (see :func:`repro.obs.analysis.analysis_digest`): it records
    what the run *looked like* — latency percentiles, warm fraction,
    a sha256 of the full report — so a repro remains interpretable
    after the bug is fixed and the failure no longer reproduces.
    """
    payload = {
        "format": FORMAT,
        "scenario": scenario.to_dict(),
        "expect": sorted({v.invariant for v in violations}),
        "violations": [v.to_dict() for v in violations],
        "origin": origin or {},
    }
    if analysis is not None:
        payload["analysis"] = analysis
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_json(path, payload, indent=2, sort_keys=True)
    return path


def load_repro(path: Path) -> Dict[str, Any]:
    """Read and structurally validate a repro document."""
    data = json.loads(Path(path).read_text())
    if data.get("format") != FORMAT:
        raise ValueError(f"{path}: unsupported repro format "
                         f"{data.get('format')!r}")
    for field in ("scenario", "expect"):
        if field not in data:
            raise ValueError(f"{path}: repro missing {field!r}")
    return data


def replay_repro(path: Path) -> List[Violation]:
    """Re-run a repro's scenario through the checks it names.

    Oracle invariants are always evaluated; ``diff.*`` expectations
    re-run the corresponding differential checks.  Returns the current
    violations — empty means the bug the repro captured no longer
    reproduces.
    """
    data = load_repro(path)
    scenario = RunSpec.from_dict(data["scenario"])
    violations = list(check_run(run_scenario(scenario)))
    diff_names = {name for name in data["expect"]
                  if name.startswith("diff.")}
    if diff_names:
        from .differential import DIFF_CHECKS
        for name, fn in DIFF_CHECKS:
            if name in diff_names:
                violations.extend(fn(scenario))
    return violations
