"""Shared pytest configuration for the unit/property test suite."""

import pytest
from hypothesis import HealthCheck, settings

# Simulation-backed property tests legitimately take tens of milliseconds
# per example; disable the per-example deadline so slow CI machines don't
# produce flaky failures.
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(autouse=True)
def _private_cache_root(tmp_path, monkeypatch):
    """Point the default result-cache root at a per-test directory.

    A command run without ``--cache-dir`` would otherwise write into the
    checkout's ``.repro-cache/`` and answer every later run of the suite
    from that cache instead of simulating."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
