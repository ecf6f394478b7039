"""Decoders must answer arbitrary input with a value or a CodecError.

Anything else escaping (IndexError, RecursionError, ...) would be a
parser hole, so garbage and near-miss documents are thrown at all three
decoders and only the sanctioned error type is allowed out. The JSON
decoder is also held to the stdlib parser's accept/reject decisions, and
the nesting cap to its exact depth.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from notation.errors import CodecError, ParseError
from notation.json_codec import MAX_NESTING, MINIMAL, JsonStyle, decode_json, encode_json
from notation.toon_codec import decode_toon, encode_toon
from notation.tron_codec import decode_tron, decode_tron_batch, encode_tron
from notation.values import (
    DEFAULT_PROFILE,
    DELIMITER_PROFILE,
    Array,
    Number,
    Object,
    Text,
    Value,
    generate,
)

DECODERS = (decode_json, decode_toon, decode_tron, decode_tron_batch)

STRUCTURAL = list('{}[]():,"\n \t-0123456789abcA\\') + ["\r"]


def decode_or_codec_error(text: str) -> None:
    for decode in DECODERS:
        try:
            decode(text)
        except CodecError:
            pass


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=120))
def test_garbage_never_escapes_codec_errors(text):
    decode_or_codec_error(text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="".join(STRUCTURAL), max_size=60))
def test_structural_soup_never_escapes_codec_errors(text):
    decode_or_codec_error(text)


def test_pathological_nesting_is_a_parse_error():
    from notation.errors import ParseError, IndentError

    for text in ("[" * 5000, '{"a":' * 5000, "[" * 5000 + "1" + "]" * 5000):
        for decode in (decode_json, decode_tron):
            try:
                decode(text)
                raise AssertionError("expected a CodecError")
            except CodecError:
                pass
    deep_lines = [("  " * i) + (f"k{i}:" if i < 2999 else f"k{i}: 1") for i in range(3000)]
    try:
        decode_toon("\n".join(deep_lines))
        raise AssertionError("expected a CodecError")
    except CodecError:
        pass
    deep_items = "k[1]:\n" + "\n".join(("  " * (i + 1)) + "- [1]:" for i in range(3000))
    try:
        decode_toon(deep_items)
        raise AssertionError("expected a CodecError")
    except CodecError:
        pass


def test_mutated_documents_never_escape_codec_errors():
    rng = random.Random(13)

    def mutate(text: str) -> str:
        if not text:
            return rng.choice(STRUCTURAL)
        op = rng.randrange(3)
        i = rng.randrange(len(text))
        if op == 0:
            return text[:i] + rng.choice(STRUCTURAL) + text[i:]
        if op == 1:
            return text[:i] + text[i + 1 :]
        return text[:i] + rng.choice(STRUCTURAL) + text[i + 1 :]

    for seed in range(150):
        v = generate(seed, DELIMITER_PROFILE)
        for enc in (encode_json, encode_toon, encode_tron):
            text = enc(v)
            for _ in range(5):
                text = mutate(text)
                decode_or_codec_error(text)


# ---------------------------------------------------------------------------
# The nesting cap: MAX_NESTING values deep is accepted, one more is not.

# opener, closer and empty-container leaf; a class instance is never empty
NESTINGS = {
    "array": ("[", "]", "[]"),
    "object": ('{"k":', "}", "{}"),
    "instance": ("A(", ")", "[]"),
}


def _nested(opener: str, closer: str, depth: int, leaf: str) -> tuple[str, int]:
    """A document ``depth`` values deep, and the offset of its innermost value."""
    prefix = opener * (depth - 1)
    return prefix + leaf + closer * (depth - 1), len(prefix)


@pytest.mark.parametrize("leaf", ["scalar", "empty"])
@pytest.mark.parametrize("kind", list(NESTINGS))
def test_nesting_cap_boundary(kind, leaf):
    opener, closer, empty = NESTINGS[kind]
    leaf_text = empty if leaf == "empty" else "1"
    header = "class A: k\n\n"
    cases = [(decode_tron, header)] if kind == "instance" else [(decode_json, ""), (decode_tron, header)]
    for decode, head in cases:
        ok, _ = _nested(opener, closer, MAX_NESTING, leaf_text)
        decode(head + ok)
        bad, offset = _nested(opener, closer, MAX_NESTING + 1, leaf_text)
        with pytest.raises(ParseError) as e:
            decode(head + bad)
        assert e.value.reason == "nesting too deep"
        assert e.value.pos == offset


# ---------------------------------------------------------------------------
# Differential check against the stdlib parser: same accept/reject decision,
# same document on acceptance (number literals compared as written).


class _Literal(str):
    """A number literal as the stdlib parser saw it."""


class _Pairs(list):
    """An object's (key, value) pairs in document order."""


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name}")


def _pairs_without_duplicates(pairs):
    keys = [k for k, _ in pairs]
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate key")
    return _Pairs(pairs)


def _stdlib_canonical(x) -> str:
    if isinstance(x, _Literal):
        return str(x)
    if isinstance(x, str):
        return json.dumps(x, ensure_ascii=False)
    if isinstance(x, _Pairs):
        return "{" + ",".join(f"{_stdlib_canonical(k)}:{_stdlib_canonical(v)}" for k, v in x) + "}"
    if isinstance(x, list):
        return "[" + ",".join(_stdlib_canonical(v) for v in x) + "]"
    return json.dumps(x)  # None, True, False


def _canonical(v: Value) -> str:
    if isinstance(v, Number):
        return v.literal
    if isinstance(v, Text):
        return json.dumps(v.value, ensure_ascii=False)
    if isinstance(v, Object):
        return "{" + ",".join(f"{json.dumps(k, ensure_ascii=False)}:{_canonical(x)}" for k, x in v.pairs) + "}"
    if isinstance(v, Array):
        return "[" + ",".join(_canonical(x) for x in v.items) + "]"
    return encode_json(v)  # null, true, false


def _has_surrogate(s: str) -> bool:
    return any("\ud800" <= ch <= "\udfff" for ch in s)


def assert_agrees_with_stdlib(text: str) -> None:
    try:
        ref = json.loads(
            text,
            parse_int=_Literal,
            parse_float=_Literal,
            parse_constant=_reject_constant,
            object_pairs_hook=_pairs_without_duplicates,
        )
    except ValueError:
        expected = None
    else:
        expected = _stdlib_canonical(ref)
        # the stdlib keeps an unpaired surrogate escape; decode_json rejects it
        if _has_surrogate(expected):
            expected = None
    try:
        got = _canonical(decode_json(text))
    except CodecError as e:
        pos = getattr(e, "pos", None)
        assert pos is None or 0 <= pos <= len(text), (text, pos)
        got = None
    assert got == expected, text


JSON_TOKENS = list('{}[]:,"\\ \t\n\r-+.eE0123456789abcfuxAZ') + [
    "true",
    "false",
    "null",
    "NaN",
    "Infinity",
    '"k"',
    '"k":',
    "\\u00e9",
    "\\ud83d\\ude00",
    "\\ud800",
    "\\udc00",
    "\\u",
    "\\u0",
    "_",
    "\x01",
    "é",
]


# soup on its own is rarely a document, so it is also tried as the inside
# of a string, an array and an object member
SOUP_FRAMES = ("{}", '"{}"', "[{}]", '{{"k":{}}}')


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(SOUP_FRAMES), st.lists(st.sampled_from(JSON_TOKENS), max_size=30).map("".join))
def test_structural_soup_agrees_with_stdlib(frame, soup):
    assert_agrees_with_stdlib(frame.format(soup))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(["default", "delimiter"]),
    st.booleans(),
    st.lists(
        st.tuples(st.sampled_from(["insert", "delete", "replace"]), st.floats(0, 1), st.sampled_from(JSON_TOKENS)),
        max_size=4,
    ),
)
def test_mutated_encodings_agree_with_stdlib(seed, profile, pretty, mutations):
    v = generate(seed, DELIMITER_PROFILE if profile == "delimiter" else DEFAULT_PROFILE)
    text = encode_json(v, JsonStyle(indent=2) if pretty else MINIMAL)
    for op, where, token in mutations:
        i = min(int(where * len(text)), len(text))
        if op == "insert":
            text = text[:i] + token + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + 1 :]
        else:
            text = text[:i] + token + text[i + 1 :]
    assert_agrees_with_stdlib(text)
