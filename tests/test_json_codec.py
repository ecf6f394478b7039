import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from notation.errors import DuplicateKeyError, ParseError
from notation.json_codec import JsonStyle, decode_json, encode_json
from notation.values import (
    DEFAULT_PROFILE,
    DELIMITER_PROFILE,
    Null,
    Number,
    Object,
    Text,
    generate,
)

from conftest import FIXTURES, sample_document

# the pretty listing the minimal golden file is derived from
PRETTY_SAMPLE = """\
{
  "context": {
    "task": "Our favorite hikes",
    "location": "Boulder",
    "season": "spring_2025"
  },
  "friends": ["ana", "luis", "sam"],
  "hikes": [
    {
     "id": 1,
     "name": "Blue Lake Trail",
     "distanceKm": 7.5
    },
    {
     "id": 2,
     "name": "Ridge Overlook",
     "distanceKm": 9.2
    },
    {
     "id": 3,
     "name": "Wildflower Loop",
     "distanceKm": 5.1
    }
  ]
}
"""


def test_encode_null():
    assert encode_json(Null()) == "null"


def test_decode_null():
    assert decode_json("null") == Null()


def test_minimal_golden_file(sample_value):
    golden = (FIXTURES / "figure3.json").read_text()
    assert encode_json(sample_value) + "\n" == golden


def test_decode_pretty_listing_matches_sample():
    assert decode_json(PRETTY_SAMPLE) == sample_document()


def test_pretty_listing_minimizes_to_golden_bytes():
    golden = (FIXTURES / "figure3.json").read_text().rstrip("\n")
    assert encode_json(decode_json(PRETTY_SAMPLE)) == golden


def test_trailing_content_rejected():
    with pytest.raises(ParseError):
        decode_json('{"a":1} x')
    decode_json('{"a":1}  \n')  # trailing whitespace is fine


def test_duplicate_key_rejected():
    with pytest.raises(DuplicateKeyError):
        decode_json('{"a":1,"a":2}')


def test_number_literals_preserved():
    for lit in ("7", "7.5", "7.50", "-0", "1e3", "1E3", "1.25e-7"):
        v = decode_json(lit)
        assert isinstance(v, Number)
        assert v.literal == lit
        assert encode_json(v) == lit


def test_strictness_cases():
    for bad in ("", "{", "[1,]", "{'a':1}", '"unterminated', "01", "NaN", "Infinity", "+1", "tru"):
        with pytest.raises(ParseError):
            decode_json(bad)


def test_number_errors_name_the_part_and_the_start():
    for bad, reason, pos in (
        ("[1.]", "malformed number fraction", 1),
        ('{"a":-1.e3}', "malformed number fraction", 5),
        ('{"a":1e}', "malformed number exponent", 5),
        ("[2, 1.5e+]", "malformed number exponent", 4),
        ("[-]", "malformed number", 1),
        ("[01]", "expected ',' or ']' in array", 2),
    ):
        with pytest.raises(ParseError) as e:
            decode_json(bad)
        assert (e.value.reason, e.value.pos) == (reason, pos), bad


def test_string_escapes():
    assert decode_json('"a\\nb"') == Text("a\nb")
    assert decode_json('"\\u00e9"') == Text("é")
    assert decode_json('"\\ud83d\\ude00"') == Text("\U0001f600")
    with pytest.raises(ParseError):
        decode_json('"\\x41"')
    with pytest.raises(ParseError):
        decode_json('"raw\ncontrol"')
    # \u takes exactly four hex digits, no sign, prefix, blank or underscore
    for bad in ('"\\u-123"', '"\\u0x1a"', '"\\u 1a "', '"\\u1_2a"', '"\\u+123"', '"\\u12"'):
        with pytest.raises(ParseError):
            decode_json(bad)


def test_unpaired_surrogates_rejected():
    for bad, pos in (
        ('{"a":"\\ud800"}', 6),
        ('"\\udc00"', 1),
        ('"x\\ud800\\u0041"', 2),
        ('"\\ud800\\ud800"', 1),
        ('"\\ude00\\ud83d"', 1),
        ('"\\ud83d', 1),
    ):
        with pytest.raises(ParseError) as e:
            decode_json(bad)
        assert e.value.pos == pos, bad
    # a str argument may hold a raw surrogate code point; it is rejected too
    for raw in ('"\ud800"', '{"\udfff":1}', '["ok","a\ud83d\ude00"]'):
        with pytest.raises(ParseError):
            decode_json(raw)


def test_unicode_emitted_raw():
    assert encode_json(Text("café")) == '"café"'
    assert encode_json(Text("tab\there")) == '"tab\\there"'


def test_pretty_style_is_larger_or_equal():
    for seed in range(50):
        v = generate(seed)
        minimal = encode_json(v)
        pretty = encode_json(v, JsonStyle(indent=2))
        assert len(minimal.encode()) <= len(pretty.encode())
        assert decode_json(pretty) == v


def test_minimal_is_fixpoint():
    v = sample_document()
    once = encode_json(decode_json(encode_json(v)))
    assert once == encode_json(v)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.booleans())
def test_round_trip_generated(seed, use_delimiters):
    profile = DELIMITER_PROFILE if use_delimiters else DEFAULT_PROFILE
    v = generate(seed, profile)
    assert decode_json(encode_json(v)) == v


def test_object_key_order_preserved():
    text = '{"b":1,"a":2}'
    v = decode_json(text)
    assert isinstance(v, Object)
    assert v.keys == ("b", "a")
    assert encode_json(v) == text
