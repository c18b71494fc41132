"""The JSON writer of the command line: json.dumps(obj, indent=2), byte
for byte, on every JSON-native tree, shared sub-objects included."""
import json
import math
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
    second time: on the cyclic:3 verify-iso rows (1.6 MB of output, every
    row sharing its family dicts with others) the writer's peak stays
    near the output plus the pieces it joins, not every row held twice."""
    payloads = []
    monkeypatch.setattr(cli, "_emit_json", payloads.append)
    assert cli.main(["--group", "cyclic:3", "verify-iso", "--size-cap", "2",
                     "--point-size", "4"]) == 0
    capsys.readouterr()
    tracemalloc.start()
    try:
        text = _json_text(payloads[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == json.dumps(payloads[0], indent=2)
    assert len(text) > 1_500_000
    assert peak < 2.75 * len(text), (peak, len(text))
