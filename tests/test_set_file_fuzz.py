"""Property tests of the input-file contract.

Whatever a set document holds, ``hcs verify`` ends with exit code 0, 2, 3, 4
or 5 and at most one JSON line on stderr, never a Python traceback (exit 1).
The documents are small c1 and c2 sets with keys dropped, values swapped for
other JSON types or for huge and negative integers, and arrays truncated.
The same holds for sac scripts through ``hcs sac-trace`` and pipeline plans
through ``hcs pipeline``.  ``load_set``, which reads canonical files in
numpy, returns what ``from_document(read_json(path))`` returns, or raises its
error, for the same documents written in canonical form and for hand-made
texts around that form.  The integer writer behind set files and the
enumerate CSV gives the text of ``json.dumps`` and ``csv.writer``.
"""
import contextlib
import copy
import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hcskit import (
    SchemaError,
    SystemConfig,
    construct1,
    construct2,
    dumps_document,
    from_document,
    load_set,
    to_document,
)
from hcskit.cli import dispatch
from hcskit import core
from hcskit.core import _CSV_ROWS, _load_canonical, _tables_bytes, read_json

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


INT64_ENDS = st.sampled_from([0, -1, 1, -(2**63), 2**63 - 1])
WRITER_TABLES = hnp.arrays(
    np.int64,
    st.one_of(
        st.tuples(st.just(1), st.integers(1, 6)),
        st.tuples(st.integers(1, 6), st.just(1)),
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
    ),
    elements=st.one_of(INT64_ENDS, st.integers(-(2**63), 2**63 - 1), st.integers(-99, 99)),
)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(table=WRITER_TABLES)
def test_integer_writer_matches_json_and_csv(table):
    rows = table.tolist()
    assert _tables_bytes([table], ["", ""]).decode() == json.dumps(rows, separators=(",", ":"))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert _tables_bytes([table], ["", ""], _CSV_ROWS).decode() == buf.getvalue()


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


def _load_outcome(load, path):
    """What ``load(path)`` gives: the set's config, length, provenance and
    (level, user, frames) per sequence, or the message of its SchemaError."""
    try:
        s = load(path)
    except SchemaError as exc:
        return str(exc)
    return (s.config, s.length, s.provenance,
            [(q.level, q.user, q.frames.dtype, q.frames.tolist()) for q in s.sequences])


def _assert_loads_as_reference(path):
    assert _load_outcome(load_set, path) == _load_outcome(
        lambda p: from_document(read_json(p)), path
    )


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_canonical_load_matches_reference(kind, data):
    doc = copy.deepcopy(DOCUMENTS[kind])
    for _ in range(data.draw(st.integers(0, 3))):
        doc = _mutate(data, doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "set.json"
        path.write_text(dumps_document(doc), encoding="utf-8")
        _assert_loads_as_reference(path)


def _edit(kind, old, new, count=1):
    text = dumps_document(DOCUMENTS[kind])
    assert old in text
    return text.replace(old, new, count)


def _reordered(kind):
    doc = copy.deepcopy(DOCUMENTS[kind])
    doc["sequences"].reverse()
    return dumps_document(doc)


def _with_params(kind, **params):
    doc = copy.deepcopy(DOCUMENTS[kind])
    doc["construction"]["params"].update(params)
    return dumps_document(doc)


# texts near the canonical form: (text, whether load_set reads it in numpy)
NEAR_CANONICAL = {
    "canonical": (dumps_document(DOCUMENTS["c2"]), True),
    "leading-zero": (_edit("c2", '"frames":[[', '"frames":[[0'), False),
    "minus-zero": (_edit("c1", "[[0,", "[[-0,"), False),
    "minus-slot": (_edit("c1", "[[0,", "[[-1,"), True),
    "empty-row": (_edit("c2", "],[", "],[],["), False),
    "ragged-row": (_edit("c1", "[[0,3,", "[[0,"), False),
    "empty-frames": (_edit("c1", '"frames":[[', '"frames":[],"x":[['), False),
    "swapped-sequences": (_reordered("c2"), False),
    "no-trailing-newline": (dumps_document(DOCUMENTS["c1"])[:-1], False),
    "space-after-comma": (_edit("c1", "],[", "], ["), False),
    "trailing-space": (dumps_document(DOCUMENTS["c1"]) + " ", False),
    "crlf": (_edit("c1", "}\n", "}\r\n"), False),
    "params-t-key": (_with_params("c2", note='],"t":8}\n'), True),
    "params-sequences-text": (_with_params("c2", note='"sequences":[{"frames":[[1]]'), True),
    "params-sequences-key": (_with_params("c2", sequences=[{"frames": [[1]]}], t=9), True),
    "slot-beyond-int64": (_edit("c1", "[[0,", "[[9223372036854775808,"), False),
    "slot-int64-min": (_edit("c1", "[[0,", "[[-9223372036854775808,"), True),
    "slot-20-digits": (_edit("c1", "[[0,", "[[10000000000000000000,"), False),
    "huge-t": (_edit("c1", '"t":8}', '"t":' + "9" * 30 + "}"), False),
    "head-not-json": (_edit("c1", '"format_version":1', '"format_version":1,,'), False),
    "level-digits-swapped": (_edit("c2", '"level":0,"user":0', '"level":0,"user":00'), False),
    "non-ascii-param": (_with_params("c1", note="\u00e9"), True),
    # numpy's parser reads a lone "-" as 0, stops at a doubled comma and reads
    # the digits left once other bytes are deleted; none of them is canonical
    "lone-minus-slot": (_edit("c1", "[[0,", "[[-,"), False),
    "trailing-comma-in-row": (_edit("c1", "[[0,3,4,7]", "[[0,3,4,7,]"), False),
    "space-in-row": (_edit("c1", "[[0,3", "[[0, 3"), False),
    "exponent-slot": (_edit("c1", "[[0,3", "[[1e0,3"), False),
}


@pytest.mark.parametrize("name", sorted(NEAR_CANONICAL))
def test_near_canonical_texts_load_as_reference(tmp_path, name):
    text, in_numpy = NEAR_CANONICAL[name]
    path = tmp_path / "set.json"
    path.write_bytes(text.encode("utf-8"))
    assert (_load_canonical(path.read_bytes()) is not None) == in_numpy
    _assert_loads_as_reference(path)


def test_exactness_check_beyond_recursion_limit_falls_back(tmp_path, monkeypatch):
    # params nested about as deep as json.loads reads can need more stack to
    # write again than they took to read; such a file goes the reference route
    def too_deep(hcs_set):
        raise RecursionError("maximum recursion depth exceeded while encoding a JSON object")

    path = tmp_path / "set.json"
    path.write_text(dumps_document(DOCUMENTS["c1"]), encoding="utf-8")
    monkeypatch.setattr(core, "_canonical_bytes", too_deep)
    assert core._load_canonical(path.read_bytes()) is None
    _assert_loads_as_reference(path)


SCRIPT = [
    {"frame": 0, "action": "join", "user": "a", "level": 0},
    {"frame": 1, "action": "join", "user": "b", "level": 2},
    {"frame": 2, "action": "join", "user": "c", "level": 2},
    {"frame": 3, "action": "leave", "user": "b"},
]
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


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_sac_trace_exit_contract(data):
    script = copy.deepcopy(SCRIPT)
    for _ in range(data.draw(st.integers(1, 3))):
        script = _mutate(data, script)
    with tempfile.TemporaryDirectory() as tmp:
        set_path, script_path = Path(tmp) / "set.json", Path(tmp) / "script.json"
        set_path.write_text(json.dumps(DOCUMENTS["c2"]), encoding="utf-8")
        script_path.write_text(json.dumps(script), encoding="utf-8")
        _assert_exit_contract(
            ["sac-trace", "--set", str(set_path), "--script", str(script_path),
             "--out", str(Path(tmp) / "trace.json")]
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
        # a bare stage list fails the entry check; test_cli's TestPipeline covers it
        doc = {"stages": plan}
        for _ in range(data.draw(st.integers(0, 2))):
            doc = _mutate_structure(data, doc)
        Path(tmp, "set.json").write_text(json.dumps(DOCUMENTS["c2"]), encoding="utf-8")
        Path(tmp, "script.json").write_text(json.dumps(SCRIPT), encoding="utf-8")
        Path(tmp, "plan.json").write_text(json.dumps(doc), encoding="utf-8")
        _assert_exit_contract(["pipeline", f"{tmp}/plan.json"])
