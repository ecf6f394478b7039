import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from notation.errors import (
    ArityMismatchError,
    CodecError,
    DuplicateClassError,
    DuplicateKeyError,
    ParseError,
    UnknownClassError,
)
from notation.json_codec import encode_json
from notation.tron_codec import (
    _class_name_for,
    decode_tron,
    decode_tron_batch,
    encode_tron,
    encode_tron_batch,
    encode_tron_corpus,
    extract_classes,
)
from notation.values import (
    DEFAULT_PROFILE,
    DELIMITER_PROFILE,
    TABULAR_PROFILE,
    Array,
    Number,
    Object,
    Value,
    from_python,
    generate,
)

from conftest import FIXTURES, tron_classing_singletons


def tron_golden_joined() -> str:
    """Golden fixture with the display line-wrapping removed from the body."""
    raw = (FIXTURES / "figure3.tron").read_text()
    head, _, body = raw.partition("\n\n")
    return head + "\n\n" + body.replace("\n", "")


def brute_force_signature_counts(roots: list[Value]) -> dict[tuple, int]:
    """Independent occurrence counter used as the extraction oracle."""
    counts: dict[tuple, int] = {}
    stack = list(reversed(roots))
    while stack:
        v = stack.pop()
        if isinstance(v, Object):
            counts[v.keys] = counts.get(v.keys, 0) + 1
            stack.extend(x for _, x in reversed(v.pairs))
        elif isinstance(v, Array):
            stack.extend(reversed(v.items))
    return counts


def test_class_naming_sequence():
    names = [_class_name_for(i) for i in range(30)]
    assert names[:3] == ["A", "B", "C"]
    assert names[25] == "Z"
    assert names[26] == "AA"
    assert names[27] == "AB"


def test_extract_classes_sample(sample_value):
    assert extract_classes([sample_value]) == {("id", "name", "distanceKm"): "A"}


def test_extract_classes_single_object_below_threshold():
    assert extract_classes([from_python({"a": 1})]) == {}


def test_extract_counts_across_batch():
    schema = {"params": [{"type": "int", "doc": "x"}, {"type": "str", "doc": "y"}, {"type": "bool", "doc": "z"}]}
    a = from_python(schema)
    b = from_python(schema)
    oracle = brute_force_signature_counts([a, b])
    assert oracle[("type", "doc")] == 6
    assert oracle[("params",)] == 2
    assert list(extract_classes([a, b]).items()) == [(("params",), "A"), (("type", "doc"), "B")]


def test_corpus_encoder_refuses_an_empty_batch_only():
    with pytest.raises(ValueError, match="batch must contain at least one document"):
        encode_tron_corpus([], True)
    assert encode_tron_corpus([]) == ([], None)


def assert_corpus_texts(roots):
    """encode_tron_corpus's texts are encode_tron's per root and encode_tron_batch's for the roots."""
    texts, batch = encode_tron_corpus(roots, True)
    assert texts == [encode_tron(v) for v in roots]
    assert batch == encode_tron_batch(roots)
    assert encode_tron_corpus(roots, False) == (texts, None)
    return texts, batch


GENERATED_DOC = st.tuples(
    st.integers(min_value=0, max_value=10**9), st.sampled_from([DEFAULT_PROFILE, DELIMITER_PROFILE, TABULAR_PROFILE])
)


@settings(max_examples=150, deadline=None)
@given(st.lists(GENERATED_DOC, min_size=1, max_size=6), st.booleans())
def test_corpus_encoder_matches_the_single_and_batch_encoders(docs, doubled):
    # a doubled corpus meets every shape at least twice, so its batch classes every classable shape
    roots = [generate(seed, profile) for seed, profile in docs]
    assert_corpus_texts(roots + roots if doubled else roots)


# corpora where a shape occurs once in each of two files, so only the batch
# classes it at the default threshold; scalar, empty and unclassable roots ride along
CROSS_FILE_CORPORA = [
    [{"p": {"a": 1, "b": 2}}, {"q": {"a": 3, "b": 4}}],
    [{"city": "Oslo", "hours": 3}, [{"x": 1}, {"x": 2}], {"city": "Lima", "hours": 4}],
    [[{"a": 1, "b": [{"c": 1}]}], "text", {"a": 2, "b": {"c": 2}}, 7, {}],
    [{"a,b": 1, "k": {"m": 1}}, {"a,b": 2, "k": {"m": 2}}, None],
    [{"x": {"y": {"z": 1}}}, {"y": {"z": 2}, "x": {"y": {"z": 3}}}, {"z": 4}],
]


@pytest.mark.parametrize("corpus", CROSS_FILE_CORPORA)
@pytest.mark.parametrize("copies", [1, 2, 3])
def test_corpus_encoder_matches_on_shapes_shared_across_files(corpus, copies):
    roots = [from_python(doc) for doc in corpus] * copies
    texts, batch = assert_corpus_texts(roots)
    assert decode_tron_batch(batch) == roots
    assert [decode_tron(t) for t in texts] == roots


def test_a_shape_once_in_each_of_two_files_is_a_batch_class_only():
    roots = [from_python(doc) for doc in CROSS_FILE_CORPORA[0]]
    texts, batch = encode_tron_corpus(roots, True)
    assert texts == ['{"p":{"a":1,"b":2}}', '{"q":{"a":3,"b":4}}']
    assert batch == 'class A: a,b\n\n{"p":A(1,2)}\n{"q":A(3,4)}'


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.booleans())
def test_extract_classes_matches_brute_force(seed, doubled):
    v = generate(seed, DEFAULT_PROFILE)
    roots = [v, v] if doubled else [v]
    counts = brute_force_signature_counts(roots)
    qualifying = [
        sig
        for sig, n in counts.items()
        if n >= 2 and sig and all(f and "," not in f and "\n" not in f and "\r" not in f for f in sig)
    ]
    index = extract_classes(roots)
    # same shapes, in discovery order, named A, B, C, ...
    assert list(index.items()) == [(sig, _class_name_for(i)) for i, sig in enumerate(qualifying)]


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.booleans())
def test_header_is_one_class_line_per_index_item(seed, doubled):
    v = generate(seed, DEFAULT_PROFILE)
    roots = [v, v] if doubled else [v]
    index = extract_classes(roots)
    # each document's body is one line, so the last blank line ends the header
    head, blank, body = encode_tron_batch(roots).rpartition("\n\n")
    assert len(body.split("\n")) == len(roots)
    assert (head.split("\n") if blank else []) == [f"class {name}: {','.join(fields)}" for fields, name in index.items()]


def test_golden_encode(sample_value):
    assert encode_tron(sample_value) == tron_golden_joined()


def test_golden_decode(sample_value):
    assert decode_tron(tron_golden_joined()) == sample_value


def test_scalar_root_has_no_class_block():
    assert encode_tron(Number("42")) == "42"
    assert decode_tron("42") == Number("42")


def test_arity_mismatch():
    with pytest.raises(ArityMismatchError) as e:
        decode_tron('class A: id,name,distanceKm\n\nA(1,"x")')
    assert e.value.class_name == "A"
    assert e.value.expected == 3
    assert e.value.actual == 2


def test_unknown_class():
    with pytest.raises(UnknownClassError) as e:
        decode_tron("B(1)")
    assert e.value.name == "B"


def test_duplicate_class():
    with pytest.raises(DuplicateClassError):
        decode_tron("class A: x\nclass A: y\n\nA(1)")


def test_duplicate_keys_still_rejected():
    with pytest.raises(DuplicateKeyError):
        decode_tron('{"a":1,"a":2}')
    with pytest.raises(ParseError):
        decode_tron("class A: x,x\n\nA(1)")


def test_class_header_strictness():
    for bad in (
        "class a: x\n\na(1)",  # lowercase name
        "class A x\n\nA(1)",  # missing colon
        "class A: \n\nA(1)",  # empty fields
        "class A: x,\n\nA(1)",  # trailing comma
        "class A: x\n{1}",  # missing blank line
    ):
        with pytest.raises(CodecError):
            decode_tron(bad)


def test_instances_with_delimiter_strings():
    rows = [
        {"a": "f(1)", "b": "x,y"},
        {"a": "close)", "b": 'quo"te'},
    ]
    v = from_python({"rows": rows})
    text = encode_tron(v)
    assert "class A: a,b" in text
    assert decode_tron(text) == v


def test_nested_instances():
    v = from_python(
        {
            "left": {"inner": {"x": 1, "y": 2}},
            "right": {"inner": {"x": 3, "y": 4}},
        }
    )
    text = encode_tron(v)
    assert set(extract_classes([v])) == {("inner",), ("x", "y")}
    # instances nest inside instance args
    assert "A(B(" in text or "B(A(" in text
    assert decode_tron(text) == v


def test_unclassable_keys_fall_back_to_json_objects():
    v = from_python({"a,b": 1, "c": 2})
    doubled = from_python([{"a,b": 1, "c": 2}, {"a,b": 3, "c": 4}])
    assert extract_classes([doubled]) == {}
    text = encode_tron(doubled)
    assert text == encode_json(doubled)
    assert decode_tron(text) == doubled
    assert decode_tron(encode_tron(v)) == v


def test_zero_key_objects_never_classed():
    v = from_python([{}, {}, {}])
    assert encode_tron(v) == "[{},{},{}]"
    assert decode_tron("[{},{},{}]") == v


def test_batch_single_root_matches_single_encode(sample_value):
    assert encode_tron_batch([sample_value]) == encode_tron(sample_value)


def test_batch_shares_class_block(sample_value):
    text = encode_tron_batch([sample_value, sample_value])
    head, _, body = text.partition("\n\n")
    assert head.count("class ") == len(head.split("\n"))
    bodies = body.split("\n")
    assert len(bodies) == 2
    assert bodies[0] == bodies[1]
    roots = decode_tron_batch(text)
    assert roots == [sample_value, sample_value]


def test_batch_amortizes_class_header():
    schemas = []
    for i in range(5):
        schemas.append(
            from_python(
                {
                    "name": f"tool{i}",
                    "description": f"does thing {i}",
                    "parameters": {
                        "kind": "object",
                        "fields": [
                            {"type": "string", "doc": "first"},
                            {"type": "int", "doc": "second"},
                        ],
                    },
                }
            )
        )
    batched = len(encode_tron_batch(schemas).encode())
    individual = sum(len(encode_tron(s).encode()) for s in schemas)
    assert batched < individual


def test_batch_decode_strict_per_line():
    text = "class A: x\n\nA(1)\nA(2)"
    assert decode_tron_batch(text) == [
        from_python({"x": 1}),
        from_python({"x": 2}),
    ]
    with pytest.raises(ParseError):
        decode_tron_batch("class A: x\n\nA(1) A(2)")


def test_empty_batch_rejected():
    with pytest.raises(ValueError):
        encode_tron_batch([])
    with pytest.raises(ParseError):
        decode_tron_batch("class A: x\n\n")


def test_min_occurrences_one_classes_singletons():
    v = from_python({"a": 1, "b": 2})
    text = tron_classing_singletons(v)
    assert text.startswith("class A: a,b\n\nA(")
    assert decode_tron(text) == v
    assert "class " not in encode_tron(v)


def test_backfire_regime_small_objects():
    """Forced singleton classing never beats plain JSON for <= 5 fields."""
    for k in range(1, 6):
        v = from_python({f"f{i}": i for i in range(k)})
        forced = len(tron_classing_singletons(v).encode())
        plain = len(encode_json(v).encode())
        assert forced >= plain, (k, forced, plain)
        # every shape met once: no classes, body is exactly minimal JSON
        assert encode_tron(v) == encode_json(v)


def test_savings_increase_with_repetition():
    def tron_savings(n: int) -> int:
        rows = from_python([{"alpha": i, "beta": i + 1} for i in range(n)])
        return len(encode_json(rows).encode()) - len(encode_tron(rows).encode())

    savings = [tron_savings(n) for n in range(2, 12)]
    assert all(b > a for a, b in zip(savings, savings[1:]))
    assert savings[0] > 0


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.sampled_from(["default", "delim", "tab"]))
def test_round_trip_generated(seed, profile_name):
    profile = {"default": DEFAULT_PROFILE, "delim": DELIMITER_PROFILE, "tab": TABULAR_PROFILE}[
        profile_name
    ]
    v = generate(seed, profile)
    assert decode_tron(encode_tron(v)) == v


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_batch_round_trip_generated(seed):
    roots = [generate(seed + i, DEFAULT_PROFILE) for i in range(3)]
    assert decode_tron_batch(encode_tron_batch(roots)) == roots
