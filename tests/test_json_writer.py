"""The envelope writer prints exactly what ``json.dumps(indent=2,
sort_keys=True)`` prints, and streams.

Every subcommand writes its report through ``histories._write_json``, so
these tests hold the writer to the standard library's text on random
trees, on every golden command and on the n = 6 scan, and pin that it
never holds a whole report's text.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

import qcover.cli
from qcover.cli import main
from qcover.histories import _write_json

from conftest import SHARED_CLI_RUNS
from test_golden import DIGESTS, FAMILIES, FUNCTIONALS, SHAPES


def _text(obj) -> str:
    parts = []
    _write_json(obj, parts.append)
    return "".join(parts)


def _reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


class TestFixedValues:
    @pytest.mark.parametrize("obj", [
        None, True, False, 0, -7, 2**80, "", "a\"b\\c\n\t\x00\x1f\x7f é€😀",
        0.1, -0.0, 5e-324, 1e16, 1e-7, math.nan, math.inf, -math.inf,
        np.float64(1.5), np.float64(math.nan),
        [], (), {}, [[]], {"": {}}, [1, 2, 3], (1, 2), [True, 1, False],
        [1, 2.0], [1, None], {"b": [1, [2, [3]]], "a": {"z": (), "y": []}},
        [[0.0, -0.0], [math.nan, math.inf, -math.inf], [1e16, 5e-324]],
        [[1.5, np.float64(2.5)], [1.0, 1], [True, 0.5]], [[[0.25, -0.5]]],
    ])
    def test_equals_json(self, obj):
        assert _text(obj) == _reference(obj)

    def test_bool_in_int_list_prints_true(self):
        assert _text([1, True]) == "[\n  1,\n  true\n]"

    def test_same_int_list_at_two_depths(self):
        # the memo keys each list's text by its indentation too
        labels = [1, 3, 4]
        obj = {"a": [labels, labels], "b": {"c": [[labels], labels]}}
        assert _text(obj) == _reference(obj)
        assert _text([[labels], [[labels]], labels]) == _reference(
            [[labels], [[labels]], labels]
        )

    @pytest.mark.parametrize("obj", [
        [[1, 2], [True, 2], [1, 2]],
        [[True, 2], [1, 2]],
        [[1, 0], [True, False], [1, False]],
    ])
    def test_bool_lists_skip_the_memo(self, obj):
        memo = {}
        parts = []
        _write_json(obj, parts.append, memo=memo)
        assert "".join(parts) == _reference(obj)
        # the memo keys each list by its values and by its id
        lists = {id(value): value for value in obj}
        memoed = [lists.get(key, key) for texts in memo.values() for key in texts]
        assert memoed
        assert all(type(v) is int for key in memoed for v in key)

    def test_a_list_of_known_int_lists_is_one_write(self):
        labels, other = [1, 3, 4], [2]
        obj = [[labels, other], [other, labels, other], [other, [5]]]
        parts = []
        _write_json(obj, parts.append)
        assert "".join(parts) == _reference(obj)
        # the second list's items were all met in the first
        nested = _reference([other, labels, other]).replace("\n", "\n  ")
        assert parts[3] == ",\n  " + nested
        assert len(parts) == 8

    @pytest.mark.parametrize("obj", [
        {1: "x"}, {None: 1}, {(1, 2): 3}, {"a": {2.5: 0}},
    ])
    def test_non_str_key_raises(self, obj):
        with pytest.raises(TypeError):
            _text(obj)

    @pytest.mark.parametrize("value", [
        {1, 2}, b"x", 1j, object(), np.int64(3), np.bool_(True),
        np.array([1, 2]),
    ])
    def test_unsupported_value_raises_like_json(self, value):
        with pytest.raises(TypeError):
            _reference({"a": [value]})
        with pytest.raises(TypeError):
            _text({"a": [value]})


def test_random_trees_equal_json():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    strings = st.text() | st.text(st.sampled_from('"\\/\n\r\t\x00\x1f\x7fé€😀ab'))
    floats = (
        st.floats()
        | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e16,
                           1e-7, 0.1, math.nan, math.inf, -math.inf])
        | st.floats().map(np.float64)
    )
    leaves = st.none() | st.booleans() | st.integers() | floats | strings
    # int lists take the writer's one-join path; a bool among ints must not
    int_lists = st.lists(st.integers()) | st.lists(st.booleans() | st.integers())
    trees = st.recursive(
        leaves | int_lists,
        lambda children: (
            st.lists(children, max_size=6)
            | st.lists(children, max_size=6).map(tuple)
            | st.dictionaries(strings, children, max_size=6)
        ),
        max_leaves=40,
    )

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(trees)
    def check(obj):
        assert _text(obj) == _reference(obj)

    check()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("writer")
    paths = {}
    for name, fam in FAMILIES.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(fam))
    for name, rows in FUNCTIONALS.items():
        paths[name] = root / f"{name}.json"
        entries = [[[x, 0.0] for x in row] for row in rows]
        paths[name].write_text(json.dumps({"n": len(rows), "entries": entries}))
    return {name: str(p) for name, p in paths.items()}


@pytest.mark.parametrize("command", sorted(DIGESTS) + sorted(SHAPES))
def test_cli_text_equals_json(monkeypatch, capsys, inputs, command, request):
    # the envelope is caught on its way to the writer, so the stdout text
    # can be set against json.dumps of the very same object
    if command in SHARED_CLI_RUNS:  # the session's one CLI run of it
        run = request.getfixturevalue(SHARED_CLI_RUNS[command])
        code, seen, out = run.code, run.seen, run.out
    else:
        seen = []

        def spy(obj, write):
            seen.append(obj)
            _write_json(obj, write)

        monkeypatch.setattr(qcover.cli, "_write_json", spy)
        code = main([arg.format(**inputs) for arg in command.split()])
        out = capsys.readouterr().out
    assert code == 0
    (envelope,) = seen
    assert out == _reference(envelope) + "\n"


class _CountingSink:
    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)


def test_envelope_streams():
    # 20,000 long strings: 12 MB of text in few allocations, since
    # tracemalloc slows every allocation down about tenfold
    entries = [f"{i:06d}" * 107 for i in range(20_000)]
    envelope = {"command": "scan", "report": {"uncertified": entries}}
    sink = _CountingSink()
    tracemalloc.start()
    try:
        _write_json(envelope, sink.write)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size > 10 * 2**20
    # measured: a peak of about 1.4 kB against 12 MB of text; the text
    # gathered into one string would need all 12 MB
    assert peak < 2 * 2**20
