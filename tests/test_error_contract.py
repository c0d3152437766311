"""Property test of the Python API's error contract.

Every input-taking name in ``hcskit.__all__`` is called with one argument
swapped for a hostile value (a bool, float, str, None, nested list, huge
int, nan or inf) and the others valid.  Whatever the call does, only
HcsError or ValueError may escape it.  A str is a valid path, so a path
argument's hostile values are the others.  Records (plain dataclasses and
the exception classes) take any value, so every argument is hostile there.
"""
import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hcskit
from hcskit import (
    DriverSequences,
    FixedScheme,
    HcsError,
    HcsSet,
    SimConfig,
    SystemConfig,
    construct1,
    construct2,
    save_set,
    to_document,
    verify,
)
from hcskit.construction1 import derive_drivers

SET = construct2(SystemConfig(t=8, levels=((1, 1), (3, 1), (4, 1))), n=2, g=3)
SCHEME = FixedScheme((0, 1))
SIM = SimConfig(t=8, scheme=SCHEME, snr_db=(0.0,), interference_slots=(1,), frames=10,
                symbols_per_slot=4)
SCRIPT = [
    {"frame": 0, "action": "join", "user": "a", "level": 1},
    {"frame": 3, "action": "leave", "user": "a"},
]

RECORDS = {
    "Audit", "BoundReport", "ComparisonReport", "ComparisonRow", "DriverSequences",
    "SacEvent", "SerCurve", "SerPoint", "UserCountTuple", "VerificationReport",
    "ConfigError", "EnumerationCapError", "HcsError", "SchemaError",
}

FIXED_HOSTILE = [
    True, False, None, 1.5, -0.0, math.nan, math.inf, -math.inf, "", "x", "7",
    [], [[]], [1, [2, [3]]], [[1, 2], [3]], [None, "x"],
    2**63, 2**64, 10**30, -(2**63) - 1, -(10**30),
]
NESTED = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats() | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=8,
)
NOT_STR = st.one_of(
    st.sampled_from([v for v in FIXED_HOSTILE if not isinstance(v, str)]),
    st.booleans(),
    st.none(),
    st.floats(),
    st.integers(min_value=2**63, max_value=2**300),
    st.integers(min_value=-(2**300), max_value=-(2**63) - 1),
    st.lists(NESTED, max_size=3),
)
HOSTILE = NOT_STR | st.text(max_size=4)


@pytest.fixture(scope="module")
def calls(tmp_path_factory):
    """{name: valid keyword arguments} for every validating name."""
    tmp = tmp_path_factory.mktemp("contract")
    save_set(SET, tmp / "set.json")
    cfg = SET.config
    return {
        "FixedScheme": {"slots": (0, 1)},
        "HcsScheme": {"hcs_set": SET, "level": 0, "user": 0},
        "HcsSequence": {"level": 0, "user": 0, "frames": SET.sequences[0].frames},
        "HcsSet": {
            "config": cfg, "length": SET.length, "sequences": SET.sequences,
            "provenance": SET.provenance,
        },
        "LevelSpec": {"r": 1, "u": 1},
        "SacState": {
            "hcs_set": SET, "alignment": "global", "sync_delay": 0, "assign_seed": None,
        },
        "SimConfig": {
            "t": 8, "scheme": SCHEME, "snr_db": (0.0,), "interference_slots": (1,),
            "interference_power_db": 10.0, "symbols_per_slot": 4, "frames": 10, "seed": 0,
        },
        "SystemConfig": {"t": 8, "levels": cfg.levels, "seed": 0},
        "check_bound": {"config": cfg},
        "compare_schemes": {"config_a": SIM, "config_b": SIM},
        "construct1": {"config": SystemConfig(t=8, levels=((4, 2),), seed=1105), "drivers": None},
        "construct2": {"config": cfg, "n": 2, "g": 3, "d": None},
        "dumps_document": {"obj": {"a": [1, 2]}},
        "enumerate_user_counts": {"t": 12, "level_values": (1, 2, 3), "cap": 1000},
        "from_document": {"doc": to_document(SET)},
        "hamming_correlation": {"x": [0, 1, 2, 3], "y": [1, 2, 3, 0], "tau": 1},
        "interference_hit_fraction": {
            "scheme": SCHEME, "interference_slots": (1,), "frames": 10, "t": 8,
        },
        "load_set": {"path": tmp / "set.json"},
        "run_script": {
            "hcs_set": SET, "script": SCRIPT, "alignment": "global", "sync_delay": 0,
            "assign_seed": None,
        },
        "save_set": {"hcs_set": SET, "path": tmp / "out.json"},
        "simulate_ser": {"config": SIM},
        "to_document": {"hcs_set": SET},
        "verify": {"hcs_set": SET},
    }


def call_with(calls, name: str, param: str | None, value) -> None:
    """Call ``name`` with ``param`` (every argument of a record) set to ``value``;
    only HcsError or ValueError may escape."""
    func, args = getattr(hcskit, name), ()
    if name in calls:
        kwargs = {**calls[name], param: value}
    elif issubclass(func, BaseException):
        args, kwargs = (value,), {}
    else:
        kwargs = {field.name: value for field in dataclasses.fields(func)}
    try:
        func(*args, **kwargs)
    except (HcsError, ValueError):
        pass


def test_every_export_is_covered(calls):
    assert set(calls) | RECORDS == set(hcskit.__all__) - {"__version__"}
    for name, kwargs in calls.items():
        getattr(hcskit, name)(**kwargs)


@pytest.mark.parametrize("name", sorted(set(hcskit.__all__) - {"__version__"}))
def test_fixed_hostile_values(calls, name):
    params = sorted(calls[name]) if name in calls else [None]
    for param in params:
        for value in FIXED_HOSTILE:
            if param == "path" and isinstance(value, str):
                continue
            call_with(calls, name, param, value)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_only_contract_errors_escape(calls, data):
    name = data.draw(st.sampled_from(sorted(set(hcskit.__all__) - {"__version__"})))
    param = data.draw(st.sampled_from(sorted(calls[name]))) if name in calls else None
    call_with(calls, name, param, data.draw(NOT_STR if param == "path" else HOSTILE))


C1_CONFIG = SystemConfig(t=8, levels=((4, 2),), seed=1105)
C1_DRIVERS = derive_drivers(C1_CONFIG)


def _set_with(provenance) -> HcsSet:
    return HcsSet(config=SET.config, length=SET.length, sequences=SET.sequences,
                  provenance=provenance)


def _report_and_file(hcs_set, tmp_path) -> None:
    verify(hcs_set)
    save_set(hcs_set, tmp_path / "nested.json")


# a hostile value placed inside an object that the called name accepts
NESTED_SITES = {
    "construct1-selector": lambda v, tmp: construct1(
        C1_CONFIG, DriverSequences(selector=v, level_base=C1_DRIVERS.level_base)),
    "construct1-level_base": lambda v, tmp: construct1(
        C1_CONFIG, DriverSequences(selector=C1_DRIVERS.selector, level_base=v)),
    "construct1-level_base-item": lambda v, tmp: construct1(
        C1_CONFIG, DriverSequences(selector=C1_DRIVERS.selector, level_base=(v,))),
    "provenance-kind": lambda v, tmp: _report_and_file(
        _set_with({"kind": v, "params": {}}), tmp),
    "provenance-params": lambda v, tmp: _report_and_file(
        _set_with({"kind": "c2", "params": v}), tmp),
    "provenance-params-d": lambda v, tmp: _report_and_file(
        _set_with({"kind": "c2", "params": {"d": v, "n": 2}}), tmp),
    "provenance-params-n": lambda v, tmp: _report_and_file(
        _set_with({"kind": "c2", "params": {"d": 4, "n": v}}), tmp),
    "provenance-params-seed": lambda v, tmp: _report_and_file(
        _set_with({"kind": "c1", "params": {"seed": v}}), tmp),
}


@pytest.mark.parametrize("site", sorted(NESTED_SITES))
def test_nested_hostile_values(tmp_path, site):
    for value in FIXED_HOSTILE:
        try:
            NESTED_SITES[site](value, tmp_path)
        except (HcsError, ValueError):
            pass


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(site=st.sampled_from(sorted(NESTED_SITES)), value=HOSTILE)
def test_nested_contract_errors_escape(tmp_path_factory, site, value):
    try:
        NESTED_SITES[site](value, tmp_path_factory.mktemp("nested"))
    except (HcsError, ValueError):
        pass


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: construct1(C1_CONFIG, DriverSequences(selector=[0] * 32, level_base=None)),
         "level base streams must be a list or tuple, got None"),
        (lambda: construct1(C1_CONFIG, DriverSequences(selector=None, level_base=())),
         "selector stream must be an integer array, got dtype object"),
        (lambda: construct1(C1_CONFIG, DriverSequences(selector=[0.5] * 32, level_base=())),
         "selector stream must be an integer array, got dtype float64"),
        (lambda: construct1(C1_CONFIG, DriverSequences(selector=[-1] * 32, level_base=())),
         "selector entries must lie in [0, 2)"),
        (lambda: construct1(C1_CONFIG, DriverSequences(C1_DRIVERS.selector, ([0] * 31,))),
         "level 0 base stream must have 32 entries, got shape (31,)"),
        (lambda: _set_with({"kind": "c2", "params": None}),
         "provenance params must be a dict, got None"),
        (lambda: _set_with({"kind": "c2", "params": {"d": 4}}),
         "c2 provenance param n must be a non-negative int, got None"),
        (lambda: _set_with({"kind": "c2", "params": {"d": math.inf, "n": 2}}),
         "c2 provenance param d must be a non-negative int, got inf"),
    ],
    ids=["level_base-None", "selector-None", "selector-float", "selector-negative",
         "level_base-short", "params-None", "params-no-n", "params-d-inf"],
)
def test_nested_input_is_refused(call, message):
    with pytest.raises(HcsError) as excinfo:
        call()
    assert str(excinfo.value) == message
