"""Property tests of the input-file contract.

Whatever a set document holds, ``hcs verify`` ends with exit code 0, 2, 3, 4
or 5 and at most one JSON line on stderr, never a Python traceback (exit 1).
The documents are small c1 and c2 sets with keys dropped, values swapped for
other JSON types or for huge and negative integers, and arrays truncated.
The same holds for sac scripts through ``hcs sac-trace``, driver files
through ``hcs gen1 --drivers`` and pipeline plans through ``hcs pipeline``.
"""
import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hcskit import SystemConfig, construct1, construct2, derive_drivers, to_document
from hcskit.cli import dispatch

DOCUMENTS = {
    "c1": to_document(construct1(SystemConfig(t=8, levels=((4, 2),), seed=1105))),
    "c2": to_document(construct2(SystemConfig(t=8, levels=((1, 1), (3, 1), (4, 1))), n=2, g=3)),
}

EXTREME_INTS = st.sampled_from([-1, 0, 2**31, 2**62, 2**63, -(2**63) - 1, 10**30, -(10**30)])
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10, 10),
    EXTREME_INTS,
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 9), max_size=4),
    st.dictionaries(st.sampled_from(["r", "u", "d", "n", "kind"]), st.integers(-2, 9), max_size=2),
)


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, path + (key,))


def _mutate(data, doc):
    """Drop, replace or truncate the value at one path of the document.

    The depth is drawn first, so a slot deep in a frame is as likely a
    target as a top-level key.
    """
    by_depth = {}
    for path in _paths(doc):
        by_depth.setdefault(len(path), []).append(path)
    path = data.draw(st.sampled_from(by_depth[data.draw(st.sampled_from(sorted(by_depth)))]))
    if not path:
        return data.draw(JSON_VALUES)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    op = data.draw(st.sampled_from(["drop", "replace", "extreme", "truncate"]))
    if op == "drop":
        del parent[key]
    elif op == "truncate" and isinstance(parent[key], list):
        del parent[key][data.draw(st.integers(0, len(parent[key]))):]
    elif op == "extreme":
        parent[key] = data.draw(EXTREME_INTS)
    else:
        parent[key] = data.draw(JSON_VALUES)
    return doc


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_verify_exit_contract(kind, data):
    doc = copy.deepcopy(DOCUMENTS[kind])
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(data, doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "set.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dispatch(["verify", str(path)])
    assert code in {0, 2, 3, 4, 5}
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1
    for line in lines:
        assert set(json.loads(line)) == {"error", "message"}


SCRIPT = [
    {"frame": 0, "action": "join", "user": "a", "level": 0},
    {"frame": 1, "action": "join", "user": "b", "level": 2},
    {"frame": 2, "action": "join", "user": "c", "level": 2},
    {"frame": 3, "action": "leave", "user": "b"},
]
DRIVER_CONFIG = SystemConfig(t=8, levels=((4, 2),), seed=7)
DRIVERS = derive_drivers(DRIVER_CONFIG)
DRIVER_DOCUMENT = {
    "selector": DRIVERS.selector.tolist(),
    "level_base": [base.tolist() for base in DRIVERS.level_base],
}
# values a plan node may be swapped for: no strings, so no argument is ever
# rewritten into one that argparse refuses with its multi-line usage text
STRUCTURE_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10, 10),
    EXTREME_INTS,
    st.floats(),
    st.lists(st.integers(-2, 9), max_size=3),
    st.dictionaries(st.sampled_from(["stages", "x"]), st.integers(-2, 9), max_size=2),
)


def _assert_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    assert code in {0, 2, 3, 4, 5}
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1
    for line in lines:
        assert set(json.loads(line)) == {"error", "message"}


def _last_frame(script):
    entries = script if isinstance(script, list) else []
    frames = [e.get("frame") for e in entries if isinstance(e, dict)]
    return max((f for f in frames if isinstance(f, int)), default=0)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_sac_trace_exit_contract(data):
    script = copy.deepcopy(SCRIPT)
    for _ in range(data.draw(st.integers(1, 3))):
        script = _mutate(data, script)
    # run_script audits every frame up to the last scripted one, so a script
    # reaching frame 2**31 would run for hours; it is no exit-code case
    assume(_last_frame(script) <= 1000)
    with tempfile.TemporaryDirectory() as tmp:
        set_path, script_path = Path(tmp) / "set.json", Path(tmp) / "script.json"
        set_path.write_text(json.dumps(DOCUMENTS["c2"]), encoding="utf-8")
        script_path.write_text(json.dumps(script), encoding="utf-8")
        _assert_exit_contract(
            ["sac-trace", "--set", str(set_path), "--script", str(script_path),
             "--out", str(Path(tmp) / "trace.json")]
        )


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_gen1_drivers_exit_contract(data):
    doc = copy.deepcopy(DRIVER_DOCUMENT)
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(data, doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drivers.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        _assert_exit_contract(
            ["gen1", "--t", "8", "--levels", "4:2", "--seed", "7", "--drivers", str(path),
             "--out", str(Path(tmp) / "set.json")]
        )


def _cheap_stages(tmp):
    """Stages that each succeed in milliseconds, the last one refused."""
    return [
        ["bound", "--t", "8", "--levels", "1:1,3:1,4:1"],
        ["enumerate", "--t", "8", "--r", "1,3,4"],
        ["gen2", "--t", "8", "--levels", "1:1,3:1,4:1", "--rounds", "1", "--g", "3",
         "--out", f"{tmp}/gen2.json"],
        ["verify", f"{tmp}/set.json"],
        ["sac-trace", "--set", f"{tmp}/set.json", "--script", f"{tmp}/script.json",
         "--out", f"{tmp}/trace.json"],
        ["pipeline", f"{tmp}/plan.json"],
    ]


def _mutate_structure(data, doc):
    """One structural change to a plan, never to the text of an argument.

    Drops a key or a stage, swaps a node for another JSON type, nests it in
    a list, or puts an integer where it was.
    """
    path = data.draw(st.sampled_from(list(_paths(doc))))
    op = data.draw(st.sampled_from(["drop", "swap", "nest", "int"]))
    parent, node = None, doc
    for key in path:
        parent, node = node, node[key]
    if op == "drop" and parent is not None and not isinstance(node, str):
        del parent[path[-1]]
        return doc
    if op == "nest":
        value = [node]
    elif op == "swap":
        value = data.draw(STRUCTURE_VALUES)
    else:  # an int, also in place of a dropped root or argument
        value = data.draw(st.one_of(st.integers(-10, 10), EXTREME_INTS))
    if parent is None:
        return value
    parent[path[-1]] = value
    return doc


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_pipeline_exit_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        stages = _cheap_stages(tmp)
        plan = [stages[i] for i in data.draw(st.lists(st.integers(0, len(stages) - 1), max_size=3))]
        doc = {"stages": plan} if data.draw(st.booleans()) else plan
        for _ in range(data.draw(st.integers(0, 2))):
            doc = _mutate_structure(data, doc)
        Path(tmp, "set.json").write_text(json.dumps(DOCUMENTS["c2"]), encoding="utf-8")
        Path(tmp, "script.json").write_text(json.dumps(SCRIPT), encoding="utf-8")
        Path(tmp, "plan.json").write_text(json.dumps(doc), encoding="utf-8")
        _assert_exit_contract(["pipeline", f"{tmp}/plan.json"])
