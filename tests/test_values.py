import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from notation.json_codec import decode_json
from notation.values import (
    DEFAULT_PROFILE,
    DELIMITER_PROFILE,
    NULL,
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
)

from conftest import sample_document


def signature(v):
    """Ordered key sequence of an object; None for anything else."""
    return v.keys if isinstance(v, Object) else None


def to_python(v):
    """Plain Python data for a Value; numbers become int or float."""
    if isinstance(v, Object):
        return {k: to_python(x) for k, x in v.pairs}
    if isinstance(v, Array):
        return [to_python(x) for x in v.items]
    if isinstance(v, Number):
        literal = v.literal
        return float(literal) if any(c in literal for c in ".eE") else int(literal)
    if isinstance(v, (Bool, Text)):
        return v.value
    return None


def test_null_equality():
    assert Null() == Null()
    assert NULL == Null()


# one node of each kind, none equal to another
DISTINCT = [
    Null(),
    Bool(True),
    Bool(False),
    Number("1"),
    Number("0"),
    Text("1"),
    Text("true"),
    Text(""),
    Array(()),
    Array((Number("1"),)),
    Array((Text("1"),)),
    Object(()),
    Object((("a", Number("1")),)),
    Object((("a", Text("1")),)),
]


def test_equality_is_exact_about_type():
    for i, a in enumerate(DISTINCT):
        for j, b in enumerate(DISTINCT):
            assert (a == b) == (i == j), (a, b)
            assert (a != b) == (i != j), (a, b)
    assert Text("1") != Number("1")
    assert Bool(True) != Number("1")
    assert Bool(False) != Null()
    assert Array(()) != Object(())


def test_equal_nodes_hash_equally():
    doc = {"a": [1, "1", True, None, 2.5], "b": {"c": "d", "e": []}}
    built = from_python(doc)
    decoded = decode_json('{"a":[1,"1",true,null,2.5],"b":{"c":"d","e":[]}}')
    assert built == decoded
    assert hash(built) == hash(decoded)
    for a, b in zip(DISTINCT, [copy.deepcopy(x) for x in DISTINCT]):
        assert a == b and hash(a) == hash(b)
    assert len(set(DISTINCT)) == len(DISTINCT)


def test_setting_an_attribute_raises():
    for v, name in [
        (Text("a"), "value"),
        (Number("1"), "literal"),
        (Bool(True), "value"),
        (Array(()), "items"),
        (Object(()), "pairs"),
        (Null(), "value"),
    ]:
        with pytest.raises(AttributeError):
            setattr(v, name, None)
        with pytest.raises(AttributeError):
            v.extra = 1


def test_repr():
    v = from_python({"a": [1, "x", True, None], "b": {}})
    assert repr(v) == (
        "Object(pairs=(('a', Array(items=(Number(literal='1'), Text(value='x'), Bool(value=True), Null()))),"
        " ('b', Object(pairs=()))))"
    )
    assert repr(Array(())) == "Array(items=())"


@pytest.mark.parametrize("profile", [DEFAULT_PROFILE, DELIMITER_PROFILE, TABULAR_PROFILE])
def test_copy_and_pickle_round_trip(profile):
    for seed in range(20):
        v = generate(seed, profile)
        for other in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert other == v and type(other) is type(v)
            assert repr(other) == repr(v)
    for v in DISTINCT:
        assert pickle.loads(pickle.dumps(v)) == v
        assert copy.copy(v) == v


def test_object_rejects_duplicate_keys():
    with pytest.raises(ValueError):
        Object((("a", Null()), ("a", Null())))


def test_number_keeps_literal():
    assert Number("7.5").literal == "7.5"
    assert Number("7.0") != Number("7")
    with pytest.raises(ValueError):
        Number("07")
    with pytest.raises(ValueError):
        Number("nan")


def test_key_order_sensitivity():
    a = from_python({"a": 1, "b": 2})
    b = from_python({"b": 2, "a": 1})
    assert a != b
    assert a.keys == ("a", "b") and b.keys == ("b", "a")
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
