"""Property test of the set-file contract.

Whatever a set document holds, ``hcs verify`` ends with exit code 0, 2, 3, 4
or 5 and at most one JSON line on stderr, never a Python traceback (exit 1).
The documents are small c1 and c2 sets with keys dropped, values swapped for
other JSON types or for huge and negative integers, and arrays truncated.
"""
import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcskit import SystemConfig, construct1, construct2, to_document
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
