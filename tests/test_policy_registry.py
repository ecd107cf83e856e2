"""Drift tests: the policy registry is the single source of truth.

The scheduler name lists used to live in several places (CLI choices,
runner factory, fuzz pool) and could drift apart silently.  They are now all *derived* from sched/registry.py;
these tests pin that derivation so a future hand-edited list is an
immediate failure, and pin the SDK metadata contract every entry must
honour.
"""

import dataclasses

import pytest

from repro.core.params import NestParams
from repro.sched.base import SelectionPolicy
from repro.sched.registry import (PolicyInfo, available_policies,
                                  fuzz_scheduler_pool, invariant_groups_of,
                                  iter_policy_infos, make_registered_policy,
                                  policy_info, register_policy,
                                  unregister_policy)

EXPECTED_BUILTINS = {"cfs", "ftrt", "nest", "scxnest", "smove"}


def test_expected_builtins_are_registered():
    assert set(available_policies()) == EXPECTED_BUILTINS


def test_cli_choices_come_from_the_registry():
    from repro.experiments.cli import build_parser
    parser = build_parser()
    run_choices = None
    for action in parser._subparsers._group_actions[0].choices["run"]._actions:
        if "--scheduler" in action.option_strings:
            run_choices = list(action.choices)
    assert run_choices == available_policies()


def test_cli_compare_and_sweep_choices_come_from_the_registry():
    from repro.experiments.cli import build_parser
    sub = build_parser()._subparsers._group_actions[0].choices
    for command in ("compare", "sweep"):
        choices = None
        for action in sub[command]._actions:
            if "--scheduler" in action.option_strings:
                choices = list(action.choices)
        assert choices == available_policies(), command


def test_fuzz_pool_is_derived_and_weighted():
    from repro.verify.generate import SCHEDULER_POOL
    assert SCHEDULER_POOL == fuzz_scheduler_pool()
    for info in iter_policy_infos():
        assert SCHEDULER_POOL.count(info.name) == info.fuzz_weight


def test_every_builtin_has_complete_metadata():
    # The policy-author surface: growing it is a reviewed diff here.
    assert [f.name for f in dataclasses.fields(PolicyInfo)] == [
        "name", "factory", "description", "invariant_groups",
        "uses_nest_params", "fuzz_weight"]
    for info in iter_policy_infos():
        assert info.description, info.name
        assert info.fuzz_weight >= 1, (
            f"{info.name}: built-ins must be fuzzable")
        policy = make_registered_policy(info.name)
        assert isinstance(policy, SelectionPolicy)
        assert invariant_groups_of(info.name) == info.invariant_groups


def test_nest_params_flow_only_where_declared():
    params = NestParams(r_max=7)
    for info in iter_policy_infos():
        if not info.uses_nest_params:
            continue
        policy = make_registered_policy(info.name, params)
        assert policy.params.r_max == 7, info.name


def test_duplicate_registration_is_rejected():
    with pytest.raises(ValueError, match="already registered"):
        register_policy("cfs", lambda params: None)


def test_replace_and_unregister_round_trip():
    from repro.sched import registry
    original = policy_info("cfs")
    sentinel = lambda params: None
    register_policy("cfs", sentinel, replace=True,
                    description="shadowed for the test")
    try:
        assert policy_info("cfs").factory is sentinel
    finally:
        # Restore the real entry exactly as it was registered.
        registry._REGISTRY["cfs"] = original
    assert policy_info("cfs") is original

    register_policy("ephemeral", sentinel, description="temp")
    assert "ephemeral" in available_policies()
    unregister_policy("ephemeral")
    assert "ephemeral" not in available_policies()


def test_unknown_policy_error_names_the_candidates():
    with pytest.raises(ValueError) as exc:
        policy_info("bogus")
    assert "bogus" in str(exc.value)
    assert "cfs" in str(exc.value)


def test_policy_names_are_case_insensitive():
    assert policy_info("NEST").name == "nest"
    assert isinstance(make_registered_policy("Scxnest"), SelectionPolicy)
