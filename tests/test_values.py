import copy
import enum
import gc
import hashlib
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from notation import json_codec, tron_codec
from notation.json_codec import Scanner, decode_json, encode_json
from notation.toon_codec import decode_toon, encode_toon
from notation.tron_codec import decode_tron, decode_tron_batch, encode_tron, encode_tron_batch
from notation.values import (
    DEFAULT_PROFILE,
    DELIMITER_PROFILE,
    NULL,
    SAFE_WORDS,
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

from conftest import check_record, sample_document


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
    Object((("b", Number("1")),)),
    Object((("a", Number("1")), ("b", Number("1")))),
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


def test_from_python_refuses_an_unknown_type():
    with pytest.raises(TypeError) as e:
        from_python(object())
    assert str(e.value) == "cannot convert object to Value"


def test_object_rejects_duplicate_keys():
    with pytest.raises(ValueError, match="duplicate object key: 'a'"):
        Object((("a", Null()), ("b", Null()), ("a", Null())))


def test_number_keeps_literal():
    assert Number("7.5").literal == "7.5"
    assert Number("7.0") != Number("7")
    with pytest.raises(ValueError):
        Number("07")
    with pytest.raises(ValueError):
        Number("nan")


@pytest.mark.parametrize(
    "make,field",
    [
        (lambda: Bool("no"), "Bool value must be a bool, not str"),
        (lambda: Bool(1), "Bool value must be a bool, not int"),
        (lambda: Text(5), "Text value must be a str, not int"),
        (lambda: Text(b"a"), "Text value must be a str, not bytes"),
        (lambda: Number(1), "Number literal must be a str, not int"),
        (lambda: Array([1]), "Array item must be a Value, not int"),
        (lambda: Array(["a"]), "Array item must be a Value, not str"),
        (lambda: Array([None]), "Array item must be a Value, not NoneType"),
        (lambda: Object([(1, NULL)]), "Object key must be a str, not int"),
        (lambda: Object([("a", "x")]), "Object value must be a Value, not str"),
        (lambda: Object({"a": True}), "Object value must be a Value, not bool"),
    ],
)
def test_constructors_check_their_fields(make, field):
    with pytest.raises(TypeError, match=f"^{field}$"):
        make()


def test_constructors_store_what_decoding_stores():
    # a tree built by hand encodes and decodes back to itself, leaf types included
    v = Object([("a", Bool(False)), ("b", Array([Text("x"), NULL]))])
    assert decode_json(encode_json(v)) == v == from_python({"a": False, "b": ["x", None]})
    assert Bool(False) != Bool(True) and Text("1") != Number("1")
    # a str subclass is stored as a plain str
    text = Text(type("Name", (str,), {})("n"))
    assert type(text.value) is str and Array([text]) == from_python(["n"])
    assert Array([text])[1] == ("n",) and type(Array([text])[1][0]) is str
    # copy and pickle rebuild through the checked constructors, from boxed items
    arr = Array([Text("a"), Bool(True), NULL, Number("1")])
    assert arr.__getnewargs__() == ((Text("a"), Bool(True), NULL, Number("1")),)
    assert Object([("k", Text("v"))]).__getnewargs__() == ((("k", Text("v")),),)


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


class Cents(int):
    def __str__(self):
        return f"{self / 100:.2f}"


class Ratio(float):
    def __repr__(self):
        return "a ratio"


class Level(enum.IntEnum):
    HIGH = 3


def test_from_python_reads_a_number_subclass_as_its_base_type():
    # the text is the number's own, as json.dumps writes it, not the subclass's __str__ or __repr__
    for obj in (Cents(150), Ratio(0.25), Level.HIGH, [Cents(7), {"k": Ratio(-1.5)}]):
        assert encode_json(from_python(obj)) == json.dumps(obj, separators=(",", ":"))
    assert from_python(Cents(150)) == Number("150")


_finite = st.floats(allow_nan=False, allow_infinity=False)
_dict_keys = st.one_of(st.text(max_size=4), st.integers(), _finite, st.booleans(), st.none())
# keys distinct as Python keys (1 and True are one key) and as json.dumps spells them (1 and "1")
_plain_data = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _finite, st.text(max_size=4)),
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(
        st.tuples(_dict_keys, kids), max_size=4, unique_by=(lambda kv: kv[0], lambda kv: json.dumps({kv[0]: 0}))
    ).map(dict),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_plain_data)
def test_from_python_spells_keys_as_json_dumps(data):
    expected = json.dumps(data, ensure_ascii=False, separators=(",", ":"), allow_nan=False)
    assert encode_json(from_python(data)) == expected


@pytest.mark.parametrize(
    "data,error,message",
    [
        ({float("nan"): 1}, ValueError, "non-finite float"),
        ({float("-inf"): 1}, ValueError, "non-finite float"),
        ({(1, 2): 1}, TypeError, "keys must be str, int, float, bool or None, not tuple"),
        ({"a": {b"k": 1}}, TypeError, "not bytes"),
        ({1: "a", "1": "b"}, ValueError, "duplicate object key: '1'"),
        ({None: 1, "null": 2}, ValueError, "duplicate object key: 'null'"),
    ],
)
def test_from_python_refuses_a_key_json_dumps_refuses(data, error, message):
    with pytest.raises(error, match=message):
        from_python(data)


def test_from_python_spells_literal_keys_as_json():
    data = {True: 1, False: 2, None: 3, 2.5: 4, Level.HIGH: 5, Ratio(0.25): 6}
    assert encode_json(from_python(data)) == '{"true":1,"false":2,"null":3,"2.5":4,"3":5,"0.25":6}'
    assert encode_json(from_python(data)) == json.dumps(data, separators=(",", ":"))


def test_generate_deterministic():
    for seed in (0, 1, 99, 12345):
        assert generate(seed) == generate(seed)
        assert generate(seed, DELIMITER_PROFILE) == generate(seed, DELIMITER_PROFILE)


GENERATOR_DIGESTS = {
    "default": (DEFAULT_PROFILE, "9d01da6851558633"),
    "delimiters": (DELIMITER_PROFILE, "475eeea6e9d33e8c"),
    "tabular": (TABULAR_PROFILE, "57106174d4fe119c"),
}


@pytest.mark.parametrize("name", GENERATOR_DIGESTS)
def test_generate_output_is_pinned(name):
    # the corpus every round-trip check and benchmark draws from stays the same documents
    profile, expected = GENERATOR_DIGESTS[name]
    h = hashlib.blake2b(digest_size=8)
    for seed in range(2000):
        h.update((encode_json(generate(seed, profile)) + "\n").encode("utf-8"))
    assert h.hexdigest() == expected


def test_generate_zero_depth_is_scalar():
    # a root drawn as a scalar comes back boxed, one seed for each kind
    roots = {seed: type(generate(seed)) for seed in range(100)}
    assert [roots[seed] for seed in (1, 3, 4, 90)] == [Text, Number, Bool, Null]


def test_generate_tabular_shape():
    for seed in range(50):
        v = generate(seed, TABULAR_PROFILE)
        assert isinstance(v, Array)
        assert len(v) >= 3
        sigs = {signature(row) for row in v.items}
        assert len(sigs) == 1
        assert len(next(iter(sigs))) >= 2


def test_profile_record_contract():
    def make():
        return GenProfile(("k",))

    assert GenProfile._fields == ("key_pool", "tabular")
    assert repr(make()) == "GenProfile(key_pool=('k',), tabular=False)"
    check_record(make, GenProfile(("j",)), "key_pool")
    assert GenProfile() == GenProfile(key_pool=SAFE_WORDS) == DEFAULT_PROFILE
    assert DEFAULT_PROFILE._replace(tabular=True) == TABULAR_PROFILE


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


# ---------------------------------------------------------------------------
# The Object layout: (Object, keys, values). Every decode path builds the
# same nodes as the public constructor, and the objects of one TOON table or
# one TRON class share one key tuple.

LAYOUT_DOC = {
    "rows": [{"id": 1, "name": "a"}, {"id": 2, "name": "b"}, {"id": 3, "name": "c"}],
    "meta": {"k": "v", "n": None, "t": True, "e": {}, "deep": {"x": [1.5, {"y": "z"}]}},
    "list": [1, {"id": 4, "name": "d"}, [], {}],
    "": "empty key",
}


def decode_paths(v):
    """(path, decoded value) for every decode path, each forced where it can be."""
    text = encode_json(v)
    tron = encode_tron(v)
    classes, body = tron_codec._split_header(tron)
    marked = json_codec._as_json(body)
    assert "(" in body and marked is not None
    paths = {
        "json accept": json_codec._accept(text, None),
        "json Scanner": Scanner(text).parse_document(),
        "toon": decode_toon(encode_toon(v)),
        "tron accept": json_codec._accept(marked, classes),
        "tron Scanner": Scanner(body, classes).parse_document(),
        "tron batch": decode_tron_batch(encode_tron_batch([v, v]))[1],
    }
    assert None not in paths.values()
    return paths


def objects_in(v):
    if type(v) is Object:
        yield v
        for x in v[2]:
            yield from objects_in(x)
    elif type(v) is Array:
        for x in v[1]:
            yield from objects_in(x)


def stored_children(v):
    """Every child stored below the node ``v``, depth first."""
    t = type(v)
    for x in v[2] if t is Object else v[1] if t is Array else ():
        yield x
        yield from stored_children(x)


def built_by_hand(v):
    """``v`` rebuilt through the public constructors only, from its accessors."""
    if isinstance(v, Object):
        return Object([(k, built_by_hand(x)) for k, x in v.pairs])
    if isinstance(v, Array):
        return Array([built_by_hand(x) for x in v.items])
    return type(v)(*v.__getnewargs__())


def assert_plain_leaves(v, where):
    kinds = {type(x) for x in stored_children(v)}
    assert kinds <= {str, bool, type(None), Number, Array, Object}, (where, kinds)


def test_every_decode_path_builds_the_constructors_nodes():
    built = from_python(LAYOUT_DOC)
    paths = {**decode_paths(built), "from_python": built, "constructors": built_by_hand(built)}
    for path, got in paths.items():
        assert got == built and hash(got) == hash(built), path
        assert repr(got) == repr(built), path
        for obj in objects_in(got):
            assert len(obj) == len(obj.keys) == len(obj[2]), path
            assert type(obj[1]) is tuple and type(obj[2]) is tuple, path
            assert all(type(k) is str for k in obj.keys), path
        # no Text, Bool or Null below the root: the leaves are there, stored plain
        assert_plain_leaves(got, path)
        assert {str, bool, type(None)} <= {type(x) for x in stored_children(got)}, path
    for seed in range(40):
        for profile in (DEFAULT_PROFILE, DELIMITER_PROFILE, TABULAR_PROFILE):
            v = generate(seed, profile)
            assert_plain_leaves(v, ("generate", seed))
            assert built_by_hand(v) == v and from_python(v) == v


def test_keys_is_the_stored_tuple_and_pairs_is_built_from_it():
    v = from_python({"a": 1, "b": [2]})
    assert v.keys is v[1] and v.keys == ("a", "b")
    assert v.pairs == (("a", Number("1")), ("b", Array((Number("2"),))))
    assert Object(v.pairs) == v == Object({"a": Number("1"), "b": Array((Number("2"),))})
    assert v.get("b") == Array((Number("2"),))
    assert v.get("c") is None and Object(()).get("a") is None


def test_rows_of_a_table_and_instances_of_a_class_share_one_key_tuple():
    built = from_python(LAYOUT_DOC)
    for path, got in decode_paths(built).items():
        if path.startswith("json"):
            continue
        rows = got.get("rows").items
        assert all(r.keys is rows[0].keys for r in rows), path
        if path.startswith("tron"):
            # the same class, elsewhere in the document
            assert got.get("list").items[1].keys is rows[0].keys, path
    docs = decode_tron_batch(encode_tron_batch([built, built]))
    assert docs[0].get("rows").items[0].keys is docs[1].get("list").items[1].keys


def test_decoded_objects_copy_and_pickle():
    for got in decode_paths(from_python(LAYOUT_DOC)).values():
        for other in (copy.copy(got), copy.deepcopy(got), pickle.loads(pickle.dumps(got))):
            assert other == got and hash(other) == hash(got)
            assert repr(other) == repr(got)


# ---------------------------------------------------------------------------
# Plain leaves: below the root, a string is stored as its str, a boolean as
# True or False, a null as None. The accessors and every scalar root box them.


def test_accessors_box_the_leaves():
    built = from_python(LAYOUT_DOC)
    for path, got in decode_paths(built).items():
        meta = got.get("meta")
        assert [type(x) for _, x in meta.pairs] == [Text, Null, Bool, Object, Object], path
        assert meta.get("k") == Text("v") and type(meta.get("k")) is Text, path
        assert meta.get("t") == Bool(True) and type(meta.get("t")) is Bool, path
        # a present null is NULL; only a missing key gives None
        assert meta.get("n") is NULL and meta.get("missing") is None, path
        assert got.get("") == Text("empty key"), path
        row = got.get("rows").items[0]
        assert row.pairs == (("id", Number("1")), ("name", Text("a"))), path
        assert type(row.get("name")) is Text, path
        assert [type(x) for x in got.get("meta").get("deep").get("x").items] == [Number, Object], path
    assert Array([Text("a"), Bool(False), NULL]).items == (Text("a"), Bool(False), NULL)
    assert [type(x) for x in Array([Text("a"), Bool(False), NULL]).items] == [Text, Bool, Null]


SCALARS = [Text("s"), Text(""), Text("null"), Bool(True), Bool(False), NULL, Number("0")]


@pytest.mark.parametrize("root", SCALARS, ids=repr)
def test_a_scalar_root_comes_back_boxed(root):
    text = encode_json(root)
    classes, body = tron_codec._split_header(encode_tron(root))
    got = {
        "json": decode_json(text),
        "json Scanner": Scanner(text).parse_document(),
        "toon": decode_toon(encode_toon(root), unwrap=True),
        "tron": decode_tron(encode_tron(root)),
        "tron Scanner": Scanner(body, classes).parse_document(),
        "tron batch": decode_tron_batch(encode_tron_batch([root, root]))[1],
        "from_python": from_python(root),
    }
    for path, v in got.items():
        assert v == root and type(v) is type(root) and repr(v) == repr(root), path


def test_from_python_and_generate_box_a_scalar_root():
    got = [from_python(x) for x in ("s", True, False, None)]
    assert got == [Text("s"), Bool(True), Bool(False), NULL]
    assert [type(v) for v in got] == [Text, Bool, Bool, Null]
    kinds = {type(generate(seed)) for seed in range(100)} - {Array, Object}
    assert kinds == {Text, Bool, Null, Number}


def test_the_values_of_a_decoded_all_string_object_are_untracked():
    doc = Object([("a", Text("x")), ("b", Text("y")), ("c", NULL), ("d", Bool(True))])
    decoded = [decode_json(encode_json(doc)), decode_toon(encode_toon(doc)), decode_tron(encode_tron(doc))]
    decoded += decode_tron_batch(encode_tron_batch([doc, doc]))
    gc.collect()
    for v in decoded:
        assert v == doc
        assert not gc.is_tracked(v[1]) and not gc.is_tracked(v[2]), v
    # a node holds its class, so the collector keeps tracking it
    assert all(gc.is_tracked(v) for v in decoded)


# Falsy leaves: false, null, "", 0 and the strings that spell them keep their
# type through every construct of each format.
FALSY = [Bool(False), NULL, Text(""), Number("0"), Text("false"), Text("null"), Text("0")]
FALSY_PLAIN = [Bool(False), NULL, Number("0")]


def _rows(cells):
    return Array([Object([(f"c{i}", x) for i, x in enumerate(cells)])] * 2)


# (document, a piece its TOON text must hold), one per construct
FALSY_DOCUMENTS = [
    pytest.param(Object([("rows", _rows(FALSY_PLAIN))]), "rows[2]{c0,c1,c2}:\n  false,null,0", id="table"),
    pytest.param(Object([("rows", _rows([x for x in FALSY if x != Text("")]))]), "rows[2]{", id="quoted table"),
    pytest.param(Object([("xs", Array(FALSY_PLAIN))]), "xs[3]: false,null,0", id="inline"),
    pytest.param(Object([("xs", Array(FALSY))]), "xs[7]: false,null,", id="quoted inline"),
    pytest.param(Object([("xs", Array([*FALSY, Array(FALSY), Object([("k", NULL)])]))]), "  - false", id="items"),
    pytest.param(Object([("o", Object([(f"k{i}", x) for i, x in enumerate(FALSY)]))]), "  k0: false", id="key: scalar"),
    *(pytest.param(x, None, id=f"root {x!r}") for x in FALSY),
]


@pytest.mark.parametrize("doc,piece", FALSY_DOCUMENTS)
def test_falsy_leaves_keep_their_type(doc, piece):
    toon = encode_toon(doc)
    if piece is not None:
        assert piece in toon, toon
    wrapped = not isinstance(doc, Object)
    batch = encode_tron_batch([doc, doc])
    if not wrapped:
        # each shape is met twice in the batch, so every object is a TRON instance
        assert batch.startswith("class A: ") and "{" not in batch.split("\n\n", 1)[1], batch
    got = {
        "json": decode_json(encode_json(doc)),
        "json array": decode_json(encode_json(Array([doc, doc]))).items[1],
        "toon": decode_toon(toon, unwrap=wrapped),
        "tron": decode_tron(encode_tron(doc)),
        "tron batch": decode_tron_batch(batch)[1],
    }
    for path, v in got.items():
        assert v == doc and repr(v) == repr(doc), path
