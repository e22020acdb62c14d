import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

import msgflow as mf
from msgflow.system import save_system
from msgflow.values import json_text

# Text the encoder must escape (quotes, backslashes, control characters,
# non-ASCII, astral code points) mixed with any other code point.
_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7fé \U0001f600') | st.characters())
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1e16, 1e300])
    | _TEXT
)
_DOCS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=25,
)


def _stdlib(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


@given(_DOCS)
def test_json_text_is_the_stdlib_indented_text(doc):
    assert json_text(doc) == _stdlib(doc)


def test_json_text_writes_a_float_subclass_as_a_float():
    # float.__repr__, as the stdlib writes it, not the subclass repr.
    doc = {"p": [np.float64(0.1), np.float64(-0.0), np.float64(1e300)]}
    assert json_text(doc) == _stdlib(doc)


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
def test_json_text_refuses_a_non_finite_float(x):
    with pytest.raises(ValueError):
        json_text({"p": [1, x]})


@pytest.mark.parametrize("doc", [{1: "a"}, {"a": 1, "b": [{2: 3}]}, {1, 2}, [b"x"]],
                         ids=["int-key", "nested-int-key", "set", "bytes"])
def test_json_text_refuses_other_keys_and_types(doc):
    with pytest.raises(TypeError):
        json_text(doc)


@pytest.mark.parametrize("name", mf.FIXTURE_NAMES)
def test_saved_systems_are_the_stdlib_indented_text(fixtures, tmp_path, name):
    path = tmp_path / f"{name}.json"
    spec = fixtures[name].spec
    save_system(spec, path)
    assert path.read_text() == _stdlib(spec.to_json_dict()) + "\n"
