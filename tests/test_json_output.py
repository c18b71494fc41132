"""The JSON writer of the command line: json.dumps(obj, indent=2), byte
for byte, on every JSON-native tree, shared sub-objects included."""
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

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
