import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bimod import cli
from bimod.serde import _complex_array, _pairs, decode_bimodule, encode_bimodule
from helpers import corpus, random_bimodule, reference_decode_bimodule, reference_encode_bimodule

# the round-trip shapes of the benchmark: d = 13, 18, 24
ROUNDTRIP_SHAPES = [
    ([2, 1, 1], [2, 1, 1], [[1, 1, 0], [1, 1, 1], [0, 1, 2]]),
    ([2, 1, 1], [2, 1, 1], [[2, 1, 0], [1, 1, 1], [0, 2, 2]]),
    ([2, 1, 1], [2, 1, 1], [[2, 1, 1], [2, 1, 1], [1, 2, 2]]),
]
TENSORS = ("right_gram", "left_action", "right_action", "left_gram")
MODULES = corpus() + [(f"roundtrip_d{X.dim}", X) for X in
                      (random_bimodule(*shape, seed=1) for shape in ROUNDTRIP_SHAPES)]


def _bitwise_equal(a, b) -> bool:
    return a.shape == b.shape and a.view(float).tobytes() == b.view(float).tobytes()


@pytest.mark.parametrize("name, X", MODULES, ids=[name for name, _ in MODULES])
def test_block_codec_matches_per_scalar_reference(name, X):
    text = json.dumps(encode_bimodule(X))
    assert text == json.dumps(reference_encode_bimodule(X))
    obj = json.loads(text)
    new, old = decode_bimodule(obj), reference_decode_bimodule(obj)
    assert new.dim == old.dim and new.A == old.A and new.B == old.B
    for field in TENSORS:
        a, b = getattr(new, field), getattr(old, field)
        assert (a is None) == (b is None), field
        assert a is None or _bitwise_equal(a, b), field


_finite_complex = st.complex_numbers(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(hnp.arrays(complex, hnp.array_shapes(min_dims=1, max_dims=4, max_side=3),
                  elements=_finite_complex))
def test_complex_arrays_round_trip_bitwise(arr):
    back = _complex_array(json.loads(json.dumps(_pairs(arr))), arr.shape, "array")
    assert back.dtype == complex and _bitwise_equal(back, arr)


def _paths(obj, prefix=()):
    """Every path to a list, object or leaf below the root of ``obj``."""
    if isinstance(obj, (dict, list)):
        for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield prefix + (key,)
            yield from _paths(value, prefix + (key,))


_MODULE = encode_bimodule(dict(corpus())["random_112"])
_json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers()
    | st.sampled_from([10**400, -1, 0, 1, 2, 4, 1e308]) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(list(_paths(_MODULE))), _json_values)
def test_one_replaced_value_never_exits_three(tmp_path_factory, path, value):
    obj = copy.deepcopy(_MODULE)
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    file = tmp_path_factory.getbasetemp() / "mutated_module.json"
    file.write_text(json.dumps(obj))
    status, report = cli.run(cli.CommandRequest("validate", [str(file)]))
    assert status in (0, 1, 2), report["error"]
