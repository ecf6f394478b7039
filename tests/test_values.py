import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from notation.values import (
    DEFAULT_PROFILE,
    DELIMITER_PROFILE,
    TABULAR_PROFILE,
    Array,
    Bool,
    GenProfile,
    Null,
    Number,
    Object,
    Text,
    from_python,
    generate,
    signature,
    to_python,
)

from conftest import sample_document


def test_null_equality():
    assert Null() == Null()


def test_object_rejects_duplicate_keys():
    with pytest.raises(ValueError):
        Object((("a", Null()), ("a", Null())))


def test_number_keeps_literal():
    assert Number("7.5").literal == "7.5"
    assert Number("7").is_integer
    assert not Number("7.0").is_integer
    assert Number("7.0") != Number("7")
    with pytest.raises(ValueError):
        Number("07")
    with pytest.raises(ValueError):
        Number("nan")


def test_key_order_sensitivity():
    a = from_python({"a": 1, "b": 2})
    b = from_python({"b": 2, "a": 1})
    assert a != b
    nested_a = from_python({"outer": {"a": 1, "b": [1, {"x": 1, "y": 2}]}})
    nested_b = from_python({"outer": {"a": 1, "b": [1, {"y": 2, "x": 1}]}})
    assert nested_a != nested_b


def test_signature():
    assert signature(from_python({"id": 1, "name": "x"})) == ("id", "name")
    assert signature(Number("7")) is None
    assert signature(from_python({"name": "x", "id": 1})) != ("id", "name")


def test_signature_of_sample_rows():
    hikes = sample_document().get("hikes")
    sigs = {signature(row) for row in hikes.items}
    assert sigs == {("id", "name", "distanceKm")}


def test_from_python_round_trip():
    data = {"a": [1, 2.5, True, None, "s"], "b": {"c": "d"}}
    assert to_python(from_python(data)) == data


def test_from_python_rejects_non_finite():
    with pytest.raises(ValueError):
        from_python(float("inf"))


def test_generate_deterministic():
    for seed in (0, 1, 99, 12345):
        assert generate(seed) == generate(seed)
        assert generate(seed, DELIMITER_PROFILE) == generate(seed, DELIMITER_PROFILE)


def test_generate_zero_depth_is_scalar():
    profile = GenProfile(max_depth=0)
    for seed in range(30):
        v = generate(seed, profile)
        assert isinstance(v, (Null, Bool, Number, Text))


def test_generate_tabular_shape():
    for seed in range(50):
        v = generate(seed, TABULAR_PROFILE)
        assert isinstance(v, Array)
        assert len(v) >= 3
        sigs = {signature(row) for row in v.items}
        assert len(sigs) == 1
        assert len(next(iter(sigs))) >= 2


def test_profile_bounds_enforced():
    with pytest.raises(ValueError):
        GenProfile(max_depth=9)
    with pytest.raises(ValueError):
        GenProfile(max_array_len=65)
    with pytest.raises(ValueError):
        GenProfile(max_key_len=17)


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=10**9))
def test_generated_value_self_equal(seed):
    v = generate(seed, DEFAULT_PROFILE)
    assert v == v


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=10**9))
def test_permuting_keys_changes_signature(seed):
    v = generate(seed, DEFAULT_PROFILE)
    sig = signature(v)
    if sig is None or len(sig) < 2:
        return
    permuted = Object(tuple(reversed(v.pairs)))
    assert signature(permuted) != sig
