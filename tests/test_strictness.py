"""Decoders must answer arbitrary input with a value or a CodecError.

Anything else escaping (IndexError, RecursionError, ...) would be a
parser hole, so garbage and near-miss documents are thrown at all three
decoders and only the sanctioned error type is allowed out. The JSON
decoder is also held to the stdlib parser's accept/reject decisions, to
``Scanner``'s exact values and errors (``decode_json`` reads most text
with the stdlib's C scanner and leaves the rest to ``Scanner``), and the
nesting cap to its exact depth. The TRON decoders are held to
``Scanner`` given the class table the same way, and the decoders start
the scanner only on text that fails.
"""

import gc
import json
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from notation import json_codec, toon_codec, tron_codec
from notation.errors import ArityMismatchError, CodecError, DuplicateKeyError, ParseError, UnknownClassError
from notation.json_codec import MAX_NESTING, Scanner, decode_json, encode_json
from notation.toon_codec import decode_toon, encode_toon
from notation.tron_codec import decode_tron, decode_tron_batch, encode_tron, encode_tron_batch, encode_tron_corpus
from notation.values import (
    DEFAULT_PROFILE,
    DELIMITER_PROFILE,
    TABULAR_PROFILE,
    Array,
    Bool,
    Null,
    Number,
    Object,
    Text,
    Value,
    from_python,
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
# Mutation fuzzing of TOON and TRON: valid encodings of generated documents,
# truncated, with UTF-8 bytes flipped, or with delimiters spliced in. A
# decoder returns a value or raises CodecError, and a value it returns
# encodes back to text that decodes to the same value.

CODECS = {
    "toon": (encode_toon, decode_toon),
    "tron": (encode_tron, decode_tron),
    "tron batch": (encode_tron_batch, decode_tron_batch),
}
DELIMITERS = list(',:"\\\n\r\t -[]{}()#') + ["  ", "- ", "[2]", "[0]:", "{a,b}:", "A(", "class A: a", '""', "null"]
MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0, 1), st.just("")),
    st.tuples(st.just("flip"), st.floats(0, 1), st.sampled_from([chr(1 << k) for k in range(8)])),
    st.tuples(st.just("splice"), st.floats(0, 1), st.sampled_from(DELIMITERS)),
    st.tuples(st.just("replace"), st.floats(0, 1), st.sampled_from(DELIMITERS)),
)


def mutate(text: str, op: str, where: float, token: str) -> str:
    if op == "flip":  # one UTF-8 byte; bytes that are not UTF-8 become lone surrogates
        data = bytearray(text.encode("utf-8", "surrogateescape"))
        if not data:
            return token
        i = min(int(where * len(data)), len(data) - 1)
        data[i] ^= ord(token)
        return data.decode("utf-8", "surrogateescape")
    i = min(int(where * len(text)), len(text))
    if op == "truncate":
        return text[:i]
    if op == "splice":
        return text[:i] + token + text[i:]
    return text[:i] + token + text[i + 1 :]


GENERATED = st.tuples(st.integers(0, 10**6), st.sampled_from([DEFAULT_PROFILE, DELIMITER_PROFILE, TABULAR_PROFILE]))


@settings(max_examples=600, deadline=None)
@given(
    st.sampled_from(sorted(CODECS)),
    st.lists(GENERATED, min_size=1, max_size=3),
    st.lists(MUTATIONS, min_size=1, max_size=4),
)
def test_mutated_toon_and_tron_decode_or_raise_codec_error(codec, docs, mutations):
    encode, decode = CODECS[codec]
    roots = [generate(seed, profile) for seed, profile in docs]
    text = encode(roots) if codec == "tron batch" else encode(roots[0])
    for mutation in mutations:
        text = mutate(text, *mutation)
    try:
        v = decode(text)
    except CodecError:
        return
    assert decode(encode(v)) == v


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
    assert_agrees_with_scanner(frame.format(soup))


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
    text = encode_json(v, 2 if pretty else None)
    for op, where, token in mutations:
        i = min(int(where * len(text)), len(text))
        if op == "insert":
            text = text[:i] + token + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + 1 :]
        else:
            text = text[:i] + token + text[i + 1 :]
    assert_agrees_with_stdlib(text)
    assert_agrees_with_scanner(text)


# ---------------------------------------------------------------------------
# Differential check against Scanner, the reject path: decode_json gives the
# same nodes, or the same error class, message and position.


def _scanner_outcome(decode, text: str):
    try:
        return "value", decode(text)
    except CodecError as e:
        return type(e), str(e), getattr(e, "reason", None), getattr(e, "pos", None)


def assert_agrees_with_scanner(text: str) -> None:
    expected = _scanner_outcome(lambda t: Scanner(t).parse_document(), text)
    got = _scanner_outcome(decode_json, text)
    assert got == expected, text
    if expected[0] == "value":
        assert repr(got[1]) == repr(expected[1]), text


# (text; the value, node class or error class decode_json answers with;
# whether the stdlib parser reads the text before Scanner does)
PINNED = [
    ('{"a":[{"b":{"c":1,"c":2}}]}', DuplicateKeyError, True),
    ('[{"k":{},"k":[]}]', DuplicateKeyError, True),
    (_nested("[", "]", MAX_NESTING, "1")[0], Array, True),
    (_nested("[", "]", MAX_NESTING + 1, "1")[0], ParseError, True),
    (_nested('{"k":', "}", MAX_NESTING, "[]")[0], Object, True),
    (_nested('{"k":', "}", MAX_NESTING + 1, "[]")[0], ParseError, True),
    ("[" * 100_000, ParseError, True),
    ("[" * 100_000 + "]" * 100_000, ParseError, True),
    ("\ufeff{}", ParseError, True),
    ("\ufeff 1", ParseError, True),
    ("NaN", ParseError, True),
    ("-Infinity", ParseError, True),
    ('{"a":[1,Infinity]}', ParseError, True),
    ('"\ud800"', ParseError, False),
    ('["a\ud800b"]', ParseError, False),
    (r'"\ud800"', ParseError, True),
    (r'["\uDBFF"]', ParseError, True),
    (r'"\ud83d\ude00"', Text("\U0001f600"), True),
    (r'"\\ud800"', Text("\\ud800"), True),
    (r'"\u00e9\\"', Text("\u00e9\\"), True),
    ('{"a":1,"b":[true,false,null,-0.5e+3,""]} ', Object, True),
    ("1 2", ParseError, True),
    ("", ParseError, True),
    # TRON's marked spelling of an instance is not JSON
    ('[NaN,"A",[1],Infinity]', ParseError, True),
]


@pytest.mark.parametrize("text,expected,stdlib_first", PINNED, ids=range(len(PINNED)))
def test_pinned_cases_agree_with_scanner(monkeypatch, text, expected, stdlib_first):
    assert_agrees_with_scanner(text)
    outcome = _scanner_outcome(decode_json, text)
    if isinstance(expected, Value):
        assert outcome[1] == expected
    elif issubclass(expected, CodecError):
        assert outcome[0] is expected
    else:
        assert type(outcome[1]) is expected
    calls = {"stdlib": 0, "scanner": 0}
    stdlib_decode = json_codec._stdlib_decode

    def counting_stdlib(t):
        calls["stdlib"] += 1
        return stdlib_decode(t)

    class CountingScanner(Scanner):
        def __init__(self, t, classes=None):
            calls["scanner"] += 1
            super().__init__(t, classes)

    monkeypatch.setattr(json_codec, "_stdlib_decode", counting_stdlib)
    monkeypatch.setattr(json_codec, "Scanner", CountingScanner)
    assert _scanner_outcome(decode_json, text) == outcome
    # Scanner reads exactly the texts the stdlib does not accept
    assert calls == {"stdlib": int(stdlib_first), "scanner": int(not stdlib_first or outcome[0] != "value")}


def test_accepted_nodes_hold_plain_strings():
    v = decode_json('{"a":[1,-2.5e3,"x",true,null],"b":{"c":0}}')
    assert v == Object(
        (
            ("a", Array((Number("1"), Number("-2.5e3"), Text("x"), Bool(True), Null()))),
            ("b", Object((("c", Number("0")),))),
        )
    )
    literals = [x.literal for x in v.get("a").items[:2]] + [v.get("b").get("c").literal]
    assert {type(x) for x in literals} == {str}


# pieces of string content around surrogate escapes: pairs, lone halves,
# a reversed pair, a high half before a non-surrogate escape, and escaped
# backslashes that make "\ud800" plain text
SURROGATE_PIECES = [
    r"\ud83d\ude00",
    r"\uDBFF\uDFFF",
    r"\ud800",
    r"\udc00",
    r"\ude00\ud83d",
    r"\ud83d\u0041",
    r"\\ud800",
    r"\\\ud83d\ude00",
    r"\\",
    r"\"",
    "a",
    "\u00e9",
]


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(["value", "array", "object"]),
    st.lists(st.lists(st.sampled_from(SURROGATE_PIECES), max_size=5).map("".join), min_size=1, max_size=3),
)
def test_surrogate_escapes_agree_with_scanner(frame, strings):
    if frame == "value":
        text = f'"{strings[0]}"'
    elif frame == "array":
        text = "[" + ",".join(f'"{s}"' for s in strings) + "]"
    else:
        text = "{" + ",".join(f'"{s}{i}":"{s}"' for i, s in enumerate(strings)) + "}"
    assert_agrees_with_scanner(text)
    assert_agrees_with_stdlib(text)


# ---------------------------------------------------------------------------
# The TRON accept path against Scanner, the reject path: decode_tron and
# decode_tron_batch give the same nodes, or the same error class, message and
# position, as the scanner reading every body.

TRON_HEADER = "class A: a\nclass B: a,b\n\n"


def _tron_scanner(text: str) -> Value:
    classes, body = tron_codec._split_header(text)
    return Scanner(body, classes).parse_document()


def _tron_batch_scanner(text: str) -> list[Value]:
    classes, body = tron_codec._split_header(text)
    roots = [Scanner(line, classes).parse_document() for line in body.split("\n") if line.strip()]
    if not roots:
        raise ParseError("batch has no document bodies")
    return roots


def assert_tron_agrees_with_scanner(text: str) -> None:
    for decode, scan in ((decode_tron, _tron_scanner), (decode_tron_batch, _tron_batch_scanner)):
        expected = _scanner_outcome(scan, text)
        got = _scanner_outcome(decode, text)
        assert got == expected, text
        if expected[0] == "value":
            assert repr(got[1]) == repr(expected[1]), text


def _tron_nested(depth: int) -> str:
    return _nested("A(", ")", depth, "1")[0]


# (body after TRON_HEADER; the node class or error class decode_tron answers
# with; whether the accept path takes the body, so the scanner never runs)
TRON_PINNED = [
    ("A([1)]", ParseError, False),
    ("[[1)", ParseError, False),
    ("A(1],[2)", ParseError, False),
    ("A(1]]", ParseError, False),
    ("A(1],2]", ParseError, False),
    ("[A(1),[2)", ParseError, False),
    ("(1)", ParseError, False),
    ('A("x)', ParseError, False),
    ('"x A(1)', ParseError, False),
    ("NaN", ParseError, False),
    ('[A(1),[NaN,"A",[1],Infinity]]', ParseError, False),
    ('[A(2),[NaN,"A",[1)]', ParseError, False),
    ("A(1],Infinity]", ParseError, False),
    ("A(Infinity)", ParseError, False),
    ("B(1,-Infinity)", ParseError, False),
    ('A("A(1)")', Object, True),
    ('"A(1)"', Text, True),
    ('["NaN","Infinity",A(")")]', Array, True),
    (r'B("x\"",")")', Object, True),
    (r'B("x\\",A(")"))', Object, True),
    ('A("\x00")', ParseError, False),
    ("A(1)\x00", ParseError, False),
    ("1E(2)", ParseError, False),
    ("A (1)", ParseError, False),
    ("A()", ArityMismatchError, False),
    ("C(1)", UnknownClassError, False),
    ("B(1)", ArityMismatchError, False),
    ("A(1,2)", ArityMismatchError, False),
    ('A({"k":1,"k":2})', DuplicateKeyError, False),
    ('[A({"k":B(1,{"x":1,"x":2})})]', DuplicateKeyError, False),
    ('{"a":[B(1,A(null)),{"b":true}]}', Object, True),
    (_tron_nested(MAX_NESTING - 1), Object, True),
    (_tron_nested(MAX_NESTING), Object, True),
    (_tron_nested(MAX_NESTING + 1), ParseError, False),
    # an instance is one value, its args the next
    ("[" * (MAX_NESTING - 2) + "A(1)" + "]" * (MAX_NESTING - 2), Array, True),
    ("[" * (MAX_NESTING - 1) + "A(1)" + "]" * (MAX_NESTING - 1), ParseError, False),
    (r'A("\ud83d\ude00")', Object, True),
    (r'B("\ud800",1)', ParseError, False),
    (r'B(1,"\\ud800\udc00")', ParseError, False),
    (r'B(1,"\\\ud83d\ude00")', Object, True),
    # bodies with no instance take the same path
    ('[1,{"a":"x"}]', Array, True),
    ('[NaN,"A",[1],Infinity]', ParseError, False),
    ('{"k":NaN}', ParseError, False),
    ("-Infinity", ParseError, False),
]


@pytest.mark.parametrize("body,expected,accepted", TRON_PINNED, ids=range(len(TRON_PINNED)))
def test_tron_pinned_cases_agree_with_scanner(monkeypatch, body, expected, accepted):
    text = TRON_HEADER + body
    assert_tron_agrees_with_scanner(text)
    outcome = _scanner_outcome(decode_tron, text)
    if issubclass(expected, CodecError):
        assert outcome[0] is expected
    else:
        assert type(outcome[1]) is expected
    calls = []
    stdlib_calls = []
    stdlib_decode = json_codec._stdlib_decode

    def counting_stdlib(t):
        stdlib_calls.append(t)
        return stdlib_decode(t)

    class CountingScanner(Scanner):
        def __init__(self, t, classes=None):
            calls.append(t)
            super().__init__(t, classes)

    monkeypatch.setattr(json_codec, "_stdlib_decode", counting_stdlib)
    monkeypatch.setattr(json_codec, "Scanner", CountingScanner)
    assert _scanner_outcome(decode_tron, text) == outcome
    # the scanner reads exactly the bodies the accept path does not take
    assert calls == ([] if accepted else [body])
    # the one stdlib decoder reads every body in its marked spelling, except one _as_json screens out
    marked = json_codec._as_json(body)
    assert stdlib_calls == ([] if marked is None else [marked])
    # and in a batch, exactly the lines it does not take
    calls.clear()
    batch = TRON_HEADER + "A(1)\n" + body + '\n{"k":B(2,[3])}'
    got = _scanner_outcome(decode_tron_batch, batch)
    if accepted:
        assert got[0] == "value" and got[1][1] == outcome[1]
        assert calls == []
    else:
        assert got == outcome
        assert calls == [body]


TRON_TOKENS = [*"{}[](),:\" \t\n-.0123456789eEAZ", "A(", "B(", "C(", "AB(", "NaN", "Infinity", "-Infinity"] + [
    "true",
    "null",
    '"k"',
    '"k":',
    '"A(1)"',
    '")"',
    '"x',
    '\\"',
    "\\\\",
    "\\ud83d\\ude00",
    "\\ud800",
    "\x00",
    "],",
    ")]",
    "é",
]
TRON_FRAMES = ("{}", "A({})", "[{}]", "B(1,{})", '{{"k":A({})}}', '"{}"')


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from(["", TRON_HEADER, "class A: a\nclass AB: k\nclass C: c,d\n\n"]),
    st.sampled_from(TRON_FRAMES),
    st.lists(st.sampled_from(TRON_TOKENS), max_size=24).map("".join),
)
def test_tron_soup_agrees_with_scanner(header, frame, soup):
    assert_tron_agrees_with_scanner(header + frame.format(soup))


# ---------------------------------------------------------------------------
# Scanner is plain recursive descent because the decoders hand it only text
# that fails: every text that decodes takes the accept path. Each run the
# decoders start must therefore end in a CodecError.


class _RecordedRuns:
    """Appends how each parse_document run ended to ``runs``."""

    runs: list[str]

    def parse_document(self):
        try:
            v = super().parse_document()
        except CodecError:
            self.runs.append("error")
            raise
        self.runs.append("value")
        return v


@settings(max_examples=400, deadline=None)
@given(st.lists(GENERATED, min_size=1, max_size=3), st.booleans(), st.lists(MUTATIONS, max_size=3))
def test_decoders_run_the_scanner_only_on_text_that_fails(docs, pretty, mutations):
    roots = [generate(seed, profile) for seed, profile in docs]
    texts = {
        decode_json: encode_json(roots[0], 2 if pretty else None),
        decode_tron: encode_tron(roots[0]),
        decode_tron_batch: encode_tron_batch(roots),
    }
    runs: list[str] = []
    scanner = type("RecordedScanner", (_RecordedRuns, Scanner), {"runs": runs})
    with mock.patch.object(json_codec, "Scanner", scanner):
        for decode, text in texts.items():
            for mutation in mutations:
                text = mutate(text, *mutation)
            try:
                decode(text)
            except CodecError:
                pass
    assert "value" not in runs


# ---------------------------------------------------------------------------
# The decoders and encoders pause the cyclic collector while they run
# (``values._collector_paused``). Every way out of a codec call leaves
# ``gc.isenabled()`` as it found it, and no collection starts while one runs.

_DEEP_TOON = "\n".join(("  " * i) + (f"k{i}:" if i < 2999 else f"k{i}: 1") for i in range(3000))
PAUSE_EXITS = {
    # decoder: (accepted text, rejected text, text nested past the stack)
    decode_json: ('{"a":[1,"b"]}', '{"a":}', "[" * 100_000),
    decode_toon: ("a: 1\nb[2]: x,y", "a: 1\n  b: 2", _DEEP_TOON),
    decode_tron: ('class A: k\n\n[A(1),"b"]', "class A: k\n\nA(1,2)", "[" * 100_000),
    decode_tron_batch: ("[1]\n[2]", "", "[1]\n" + "[" * 100_000),
}


@pytest.fixture
def restore_collector():
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("decode", list(PAUSE_EXITS), ids=lambda f: f.__name__)
def test_decoders_leave_the_collector_as_they_found_it(decode, enabled, restore_collector):
    accepted, rejected, deep = PAUSE_EXITS[decode]
    (gc.enable if enabled else gc.disable)()
    decode(accepted)
    assert gc.isenabled() is enabled
    for text in (rejected, deep):
        with pytest.raises(CodecError):
            decode(text)
        assert gc.isenabled() is enabled


_PAUSE_DOC = from_python({"a": [1, "b", None]})
ENCODE_EXITS = {
    # encoder: (accepted arguments, rejected arguments, error raised)
    encode_json: ((_PAUSE_DOC, 2), (_PAUSE_DOC, 0), ValueError),
    encode_toon: ((_PAUSE_DOC,), ("x",), TypeError),
    encode_tron: ((_PAUSE_DOC,), ("x",), TypeError),
    encode_tron_batch: (([_PAUSE_DOC, _PAUSE_DOC],), ([],), ValueError),
    encode_tron_corpus: (([_PAUSE_DOC, _PAUSE_DOC], True), ([], True), ValueError),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("encode", list(ENCODE_EXITS), ids=lambda f: f.__name__)
def test_encoders_leave_the_collector_as_they_found_it(encode, enabled, restore_collector):
    accepted, rejected, error = ENCODE_EXITS[encode]
    (gc.enable if enabled else gc.disable)()
    encode(*accepted)
    assert gc.isenabled() is enabled
    with pytest.raises(error):
        encode(*rejected)
    assert gc.isenabled() is enabled


def test_nested_pause_leaves_the_collector_off_until_the_outer_call_returns(restore_collector):
    from notation.values import _collector_paused

    seen = []

    @_collector_paused
    def inner():
        seen.append(gc.isenabled())

    @_collector_paused
    def outer():
        inner()
        seen.append(gc.isenabled())
        raise ValueError("out")

    gc.enable()
    with pytest.raises(ValueError):
        outer()
    assert seen == [False, False]
    assert gc.isenabled()


_CODEC_FILES = {json_codec.__file__, toon_codec.__file__, tron_codec.__file__}


def test_no_collection_starts_while_a_decoder_builds(restore_collector):
    rows = [{"id": i, "name": f"n{i}", "tags": [i, "t", None], "ok": i % 2 == 0} for i in range(1000)]
    doc = from_python({"rows": rows})  # about 8000 nodes
    codecs = {
        decode_json: encode_json,
        decode_toon: encode_toon,
        decode_tron: encode_tron,
        decode_tron_batch: encode_tron_batch,
    }
    texts = {decode: encode([doc, doc] if decode is decode_tron_batch else doc) for decode, encode in codecs.items()}
    inside = []

    def count(phase, info):
        # a collection counts when a codec frame is on the stack
        frame = sys._getframe(1)
        while frame is not None:
            if phase == "start" and frame.f_code.co_filename in _CODEC_FILES:
                inside.append(info["generation"])
                return
            frame = frame.f_back

    gc.enable()
    gc.callbacks.append(count)
    try:
        for decode, encode in codecs.items():
            gc.collect()
            result = decode(texts[decode])
            # straight after a decode, as in a round trip: the young collection
            # the decode held back must not start inside the encoder
            again = encode(result)
            assert result == ([doc, doc] if decode is decode_tron_batch else doc)
            assert again == texts[decode]
    finally:
        gc.callbacks.remove(count)
    assert inside == []
