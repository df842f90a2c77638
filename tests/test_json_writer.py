"""cli._json, the writer of every JSON report, against json.dumps(indent=2)."""

import enum
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricwidth.cli import _json


class Level(enum.IntEnum):
    LOW = 1


class Name(str):
    pass


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308])
    | st.text()
    | st.text(alphabet=st.characters(max_codepoint=0x1F) | st.sampled_from('"\\/é \U0001F600'))
)
KEYS = st.text() | st.text(alphabet=st.characters(max_codepoint=0x1F) | st.sampled_from('"\\é'))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_the_writer_is_json_dumps_with_indent_2(obj):
    assert _json(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [
    [], {}, [[]], {"a": {}}, [{}, [], ""],
    # subclasses take json's isinstance order, not their own repr
    [np.float64(0.1), np.float64("nan"), Level.LOW, Name('q"uote')],
    {Name("key"): [True, None, -0.0, math.inf, Level.LOW]},
    [{"name": "radial_bound", "passed": True, "deviation": -1.2e-5, "tolerance": 1e-9}],
])
def test_empty_containers_and_subclasses_match_json_dumps(obj):
    assert _json(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [object(), [1, {2}], {"k": b"bytes"}, {(1, 2): 3}, np.int64(3)])
def test_what_json_refuses_the_writer_refuses(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        _json(obj)


@pytest.mark.parametrize("key", [1, 2.5, True, None])
def test_keys_that_are_no_str_are_refused(key):
    # json.dumps would write them as strings; no report has such a key
    with pytest.raises(TypeError):
        _json({key: 1})
