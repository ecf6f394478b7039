import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from notation.errors import (
    ArityMismatchError,
    CodecError,
    DuplicateKeyError,
    IndentError,
    LengthMismatchError,
    ParseError,
)
from notation.json_codec import encode_json
from notation.toon_codec import (
    ArrayShape,
    classify_array,
    decode_toon,
    encode_toon,
)
from notation.values import (
    DEFAULT_PROFILE,
    DELIMITER_PROFILE,
    TABULAR_PROFILE,
    Object,
    from_python,
    generate,
)

from conftest import FIXTURES, sample_document


def test_golden_encode_byte_exact(sample_value):
    golden = (FIXTURES / "figure3.toon").read_text()
    assert encode_toon(sample_value) + "\n" == golden


def test_golden_decodes_to_sample(sample_value):
    golden = (FIXTURES / "figure3.toon").read_text()
    assert decode_toon(golden) == sample_value


def test_single_field():
    assert encode_toon(from_python({"a": 1})) == "a: 1"
    assert decode_toon("a: 1") == from_python({"a": 1})


def test_classify_primitive():
    arr = from_python(["ana", "luis", "sam"])
    assert classify_array(arr) == (ArrayShape.PRIMITIVE_INLINE, None)


def test_classify_uniform_table(sample_value):
    hikes = sample_value.get("hikes")
    shape, sig = classify_array(hikes)
    assert shape is ArrayShape.UNIFORM_TABLE
    assert sig == ("id", "name", "distanceKm")


def test_classify_mixed_signatures():
    arr = from_python([{"a": 1}, {"b": 2}])
    assert classify_array(arr) == (ArrayShape.ITEM_LIST, None)


def test_classify_below_min_rows():
    arr = from_python([{"a": 1, "b": 2}])
    assert classify_array(arr)[0] is ArrayShape.ITEM_LIST


def test_classify_rejects_empty_string_cells():
    arr = from_python([{"a": "", "b": 1}, {"a": "x", "b": 2}])
    assert classify_array(arr)[0] is ArrayShape.ITEM_LIST


def test_classify_rejects_nested_cells():
    arr = from_python([{"a": [1]}, {"a": [2]}])
    assert classify_array(arr)[0] is ArrayShape.ITEM_LIST


def test_classify_mixed_scalar_and_object():
    arr = from_python([1, {"a": 2}])
    assert classify_array(arr)[0] is ArrayShape.ITEM_LIST


def test_length_mismatch():
    with pytest.raises(LengthMismatchError) as e:
        decode_toon("friends[2]: ana,luis,sam")
    assert e.value.declared == 2
    assert e.value.actual == 3


def test_table_row_arity_mismatch():
    doc = "rows[2]{a,b,c}:\n  1,2,3\n  1,2"
    with pytest.raises(ArityMismatchError) as e:
        decode_toon(doc)
    assert e.value.expected == 3
    assert e.value.actual == 2
    assert e.value.row == 2


def test_table_row_count_checked():
    doc = "rows[3]{a,b}:\n  1,2\n  3,4"
    with pytest.raises(LengthMismatchError):
        decode_toon(doc)


def test_indent_errors():
    for doc, message in (
        ("a:\n   b: 1", "indentation of 3 is not a multiple of 2"),  # three spaces under indent_width=2
        ("a:\n\tb: 1", "tab in indentation"),
        ("a:\n  \tb: 1", "tab in indentation"),
        ("a: 1\n    b: 2", "unexpected indentation depth 2"),  # depth jumps past +1
    ):
        with pytest.raises(IndentError) as e:
            decode_toon(doc)
        assert str(e.value) == f"{message} at line 2", doc


@pytest.mark.parametrize(
    "doc, error, message",
    [
        ("k[1]:\n  -x", ParseError, "expected '- ' item at line 2"),
        ("k[2]{a,", ParseError, "unterminated table header at line 1"),
        ("k[1]{,a}:\n  1", ParseError, "empty table header field at line 1"),
        ('k: "a"b', ParseError, "trailing content after quoted string at line 1"),
        ("k[1]{a}:\n  1\n    2", IndentError, "unexpected indentation depth 2 at line 3"),
    ],
)
def test_reject_reason_and_line(doc, error, message):
    with pytest.raises(CodecError) as e:
        decode_toon(doc)
    assert type(e.value) is error
    assert str(e.value) == message


def test_duplicate_keys_rejected():
    with pytest.raises(DuplicateKeyError):
        decode_toon("a: 1\na: 2")
    for doc in ("rows[2]{a,b,a}:\n  1,2,3\n  4,5,6", "x: 1\nrows[0]{a,a}:"):
        with pytest.raises(DuplicateKeyError) as e:
            decode_toon(doc)
        assert e.value.key == "a"
        assert e.value.line == doc.count("\n", 0, doc.index("{")) + 1


def test_bare_carriage_return_rejected():
    for doc, line in (
        ("a: 1\rb: 2", 1),
        ("a: 1\nb: x\ry", 2),
        ('a: "x\ry"', 1),
        ("a: 1\r\r\nb: 2", 1),
        ("a: 1\n\r \nb: 2", 2),
        ("rows[2]{a,b}:\n  1,2\n  3\r,4", 3),
        ("k[2]: a,b\rc", 1),
    ):
        with pytest.raises(ParseError) as e:
            decode_toon(doc)
        assert e.value.line == line, doc
        assert e.value.reason == "bare carriage return in line", doc


def test_quoting_rules():
    cases = {
        "plain words stay bare": "plain words stay bare",
        "7": '"7"',
        "true": '"true"',
        "a,b": '"a,b"',
        "x: y": '"x: y"',
        "{brace": '"{brace"',
        "[bracket": '"[bracket"',
        "": '""',
        " pad": '" pad"',
        "pad ": '"pad "',
        "new\nline": '"new\\nline"',
        'quo"te': '"quo\\"te"',
    }
    for raw, expected in cases.items():
        doc = encode_toon(from_python({"k": raw}))
        assert doc == f"k: {expected}", raw
        assert decode_toon(doc) == from_python({"k": raw})


def test_keys_are_quoted_when_unsafe():
    v = from_python(
        {"a,b": 1, "x: y": 2, "a[0]": 3, "}k": 4, "": 5, "-x": 6, "l": [{"--dry-run": 7}, 8]}
    )
    doc = encode_toon(v)
    assert decode_toon(doc) == v
    assert '"a,b": 1' in doc
    assert '"": 5' in doc
    assert '"-x": 6' in doc


def test_item_list_forms():
    v = from_python({"k": [1, "x", {"a": 1}, [2, 3], []]})
    doc = encode_toon(v)
    assert decode_toon(doc) == v
    lines = doc.split("\n")
    assert lines[0] == "k[5]:"
    assert "  - 1" in lines
    assert "  - [2]: 2,3" in lines
    assert "  - [0]:" in lines


def test_nested_table_inside_items():
    v = from_python({"k": [[{"a": 1, "b": 2}, {"a": 3, "b": 4}], 7]})
    doc = encode_toon(v)
    assert decode_toon(doc) == v
    assert "- [2]{a,b}:" in doc


def test_empty_shapes():
    for value in ({}, {"k": {}}, {"k": []}, {"k": [{}]}, {"k": [[]]}):
        v = from_python(value)
        assert decode_toon(encode_toon(v)) == v


def test_wrap_non_object_roots():
    for value in (7, "seven", [1, 2], None, True):
        v = from_python(value)
        doc = encode_toon(v)
        assert doc.startswith("value")
        assert decode_toon(doc, unwrap=True) == v
    # an actual {value: x} object is only unwrapped when the caller says so
    obj = from_python({"value": 7})
    assert decode_toon(encode_toon(obj)) == obj


def test_unwrap_requires_single_value_key():
    with pytest.raises(ParseError):
        decode_toon("other: 1", unwrap=True)


def test_blank_line_flag():
    # a blank line between top-level fields on encode; optional on decode
    v = from_python({"a": 1, "b": 2})
    assert encode_toon(v) == "a: 1\n\nb: 2"
    assert decode_toon("a: 1\nb: 2") == v


def test_nested_fields_indent_two_spaces():
    v = from_python({"a": {"b": 1}})
    doc = encode_toon(v)
    assert doc == "a:\n  b: 1"
    assert decode_toon(doc) == v
    with pytest.raises(IndentError):
        decode_toon("a:\n    b: 1")  # one level is two spaces, not four


def test_crlf_input_tolerated():
    v = from_python({"a": 1, "b": {"c": "x"}})
    doc = encode_toon(v).replace("\n", "\r\n")
    assert decode_toon(doc) == v


def test_table_cells_with_delimiters_round_trip():
    rows = [
        {"name": "a,b", "note": "x: y"},
        {"name": 'say "hi"', "note": "plain"},
        {"name": "07", "note": "1e3"},
    ]
    v = from_python({"rows": rows})
    doc = encode_toon(v)
    assert decode_toon(doc) == v
    assert "rows[3]{name,note}:" in doc


def test_strictness_single_character_mutations():
    """Structural one-character edits must not decode to a different value."""
    doc = encode_toon(sample_document())
    original = decode_toon(doc)
    mutations = [
        doc.replace("[3]", "[2]", 1),  # length marker
        doc.replace("{id,name,distanceKm}", "{id,name}", 1),  # header arity
        doc.replace("  1,Blue", "   1,Blue", 1),  # indent deepened
        doc.replace("friends[3]", "friends[3exit", 1),  # marker syntax
        doc.replace("context:", "context", 1),  # missing colon
    ]
    for mutated in mutations:
        assert mutated != doc
        with pytest.raises(CodecError):
            decode_toon(mutated)
    assert decode_toon(doc) == original


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.sampled_from(["default", "delim", "tab"]))
def test_round_trip_generated(seed, profile_name):
    profile = {"default": DEFAULT_PROFILE, "delim": DELIMITER_PROFILE, "tab": TABULAR_PROFILE}[
        profile_name
    ]
    v = generate(seed, profile)
    wrapped = not isinstance(v, Object)
    assert decode_toon(encode_toon(v), unwrap=wrapped) == v


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_tables_beat_minimal_json(seed):
    v = generate(seed, TABULAR_PROFILE)
    assert len(encode_toon(v).encode()) < len(encode_json(v).encode())


def test_empty_cell_rejected():
    # a leading, trailing or doubled comma in an inline array and in a table
    # row, with no quote in the text (split by str.split) and with one
    for doc, line in (
        ("k[3]: a,,b", 1),
        ("k[2]: a,", 1),
        ("k[3]: ,a,b", 1),
        ("k[1]: ", 1),
        ('k[2]: "a",', 1),
        ("rows[2]{a,b}:\n  ,1\n  2,3", 2),
        ("rows[2]{a,b}:\n  1,2\n  3,", 3),
        ("rows[2]{a,b}:\n  1,,2\n  3,4", 2),
        ('rows[2]{a,b}:\n  "x",,1\n  2,3', 2),
        ('rows[2]{a,b}:\n  "x,y",1\n  2,', 3),
    ):
        with pytest.raises(ParseError) as e:
            decode_toon(doc)
        assert type(e.value) is ParseError
        assert str(e.value) == f"empty cell at line {line}", doc


def test_cells_split_at_commas_outside_quotes():
    # a quote inside a bare cell or header field is part of it; a quoted cell
    # may hold a comma
    cases = {
        'k[2]: a"b,c': {"k": ['a"b', "c"]},
        'rows[2]{a,b}:\n  x,a"b\n  1,2': {"rows": [{"a": "x", "b": 'a"b'}, {"a": 1, "b": 2}]},
        'k[2]: "a,b",c': {"k": ["a,b", "c"]},
        'rows[2]{a,b}:\n  "x,y",1\n  2,"3"': {"rows": [{"a": "x,y", "b": 1}, {"a": 2, "b": "3"}]},
        'rows[1]{a"b,c}:\n  1,2': {"rows": [{'a"b': 1, "c": 2}]},
    }
    for doc, expected in cases.items():
        assert decode_toon(doc) == from_python(expected), doc
