"""The JSON writer of the command line: json.dumps(obj, indent=2), byte
for byte, on every JSON-native tree, shared sub-objects included."""
import io
import json
import math
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from wreath_centers import cli
from wreath_centers.cli import _json_text

SPECIAL = [10 ** 40, -(10 ** 40), 2 ** 63, -0.0, math.nan, math.inf,
           -math.inf, 1e-310, True, False, 1, 0, 1.0, 0.0, None]
LEAVES = (st.none() | st.booleans() | st.integers() | st.floats()
          | st.sampled_from(SPECIAL)
          | st.text(st.characters(max_codepoint=0x24)) | st.text())
TREES = st.recursive(
    LEAVES,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(st.text(), kids, max_size=4)),
    max_leaves=24)


@given(TREES)
@example({})
@example([])
@example([{}, [], {"": []}])
@example(SPECIAL)
@example({"\x00\x1f\"\\/": "é \U0001f600\ud800", "b": [True, 1, False, 0]})
def test_writer_equals_json_dumps(tree):
    assert _json_text(tree) == json.dumps(tree, indent=2)


@given(TREES, TREES)
def test_writer_equals_json_dumps_with_shared_objects(shared, other):
    """One object at two different depths and twice at one depth is
    written as if each place held its own copy."""
    tree = {"a": shared, "b": [other, {"c": shared}, [shared, shared]],
            "d": other}
    assert _json_text(tree) == json.dumps(tree, indent=2)


def test_non_string_keys_as_json_dumps_writes_them():
    tree = {7: "a", -2.5: [], True: {}, False: 0, None: [1], math.inf: 2,
            10 ** 30: {"x": None}}
    assert _json_text(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize("bad", [
    1j, {1, 2}, b"x", Fraction(1, 2), {"a": [object()]}, [[frozenset()]],
    {(1,): 2},
])
def test_non_json_value_raises_type_error(bad):
    with pytest.raises(TypeError):
        json.dumps(bad, indent=2)
    with pytest.raises(TypeError):
        _json_text(bad)


def test_writer_peak_memory_near_twice_the_output(monkeypatch, capsys):
    """A container's string is kept only once the container is met a
    second time: on the cyclic:3 verify-iso rows (1.5 MB of output, every
    row sharing its family dicts with others) the writer's peak stays
    near the output plus the pieces it joins, not every row held twice."""
    payloads = []
    monkeypatch.setattr(cli, "_emit_json", payloads.append)
    assert cli.main(["--group", "cyclic:3", "verify-iso", "--size-cap", "2",
                     "--point-size", "4"]) == 0
    rows = list(payloads[0])
    capsys.readouterr()
    tracemalloc.start()
    try:
        text = _json_text(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == json.dumps(rows, indent=2)
    assert len(text) > 1_400_000
    assert peak < 2.75 * len(text), (peak, len(text))


@pytest.mark.parametrize("count", [0, 1, cli._CHUNK, 4 * cli._CHUNK + 3])
def test_streamed_list_equals_json_dumps(capsys, count):
    """An iterator payload is written as json.dumps of its list.  Each
    item is built fresh around sub-dicts that live as long as the stream
    and sub-dicts that two neighbours share, and is freed once written,
    so CPython hands its id and those of its parts to later items: a
    memo that trusted an id met in an earlier chunk would write a dict
    freed long ago."""
    shared = [{"s": s, "parts": [s, 1]} for s in range(3)]

    def items():
        pair = None
        for i in range(count):
            if i % 2 == 0:
                pair = {"pair": [i // 2]}
            yield {"i": i, "own": {"i": [i, -i]}, "shared": shared[i % 3],
                   "pair": pair, "again": [pair, shared[(i + 1) % 3]]}

    cli._emit_json(items())
    out = capsys.readouterr().out
    assert out == json.dumps(list(items()), indent=2) + "\n"
    if not count:
        assert out == "[]\n"


class _Discard:
    """A stdout that keeps only the count of what it is given."""
    size = 0

    def write(self, text):
        self.size += len(text)

    def flush(self):
        pass


def test_verify_iso_peak_memory_below_its_output(monkeypatch):
    """verify-iso writes its rows as the sweep yields them: the peak
    traced memory of a whole request stays below the size of its output,
    instead of holding every row and the whole text at once.  A first
    request fills the bounded caches the sweep reads, which every later
    request finds filled; the second is measured."""
    argv = ["--group", "cyclic:3", "verify-iso", "--size-cap", "2",
            "--point-size", "4"]
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    monkeypatch.setattr(sys, "stdout", _Discard())
    assert cli.main(argv) == 0
    sink = _Discard()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size > 1_400_000
    assert peak < sink.size, (peak, sink.size)
