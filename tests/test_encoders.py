"""Byte identity of the encoders against per-character reference copies.

The references below are the earlier encoders, kept here as test-only
oracles: a per-character JSON string escaper, the recursive minimal and
pretty JSON writers, TRON's own term writer and shape walk, and TOON's
recursive encoder with its array classifier and its per-character quoting
and trigger checks. The codecs must give the same text for every
generated document.
"""

import itertools
import json
import re
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from notation import toon_codec
from notation.json_codec import MAX_NESTING, decode_json, encode_json, encode_string
from notation.toon_codec import WRAP_KEY, ArrayShape, classify_array, encode_toon
from notation.tron_codec import encode_tron, encode_tron_batch
from notation.values import (
    DEFAULT_PROFILE,
    DELIMITER_PROFILE,
    NUMBER_LITERAL_RE,
    TABULAR_PROFILE,
    Array,
    Bool,
    Null,
    Number,
    Object,
    Text,
    from_python,
    generate,
)

# ---------------------------------------------------------------------------
# Reference encoders.

_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def reference_encode_string(s):
    out = ['"']
    for ch in s:
        if ch in _ESCAPES:
            out.append(_ESCAPES[ch])
        elif ch < " ":
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def reference_term(v, index):
    """Minimal JSON with an empty index; a TRON body term otherwise."""
    if isinstance(v, Null):
        return "null"
    if isinstance(v, Bool):
        return "true" if v.value else "false"
    if isinstance(v, Number):
        return v.literal
    if isinstance(v, Text):
        return reference_encode_string(v.value)
    if isinstance(v, Array):
        return "[" + ",".join(reference_term(x, index) for x in v.items) + "]"
    if isinstance(v, Object):
        name = index.get(v.keys)
        if name is not None:
            return f"{name}(" + ",".join(reference_term(x, index) for _, x in v.pairs) + ")"
        members = (f"{reference_encode_string(k)}:{reference_term(x, index)}" for k, x in v.pairs)
        return "{" + ",".join(members) + "}"
    raise TypeError(f"not a Value: {v!r}")


def reference_pretty(v, width, depth=0):
    pad = " " * (width * (depth + 1))
    close = " " * (width * depth)
    if isinstance(v, Array):
        if not v.items:
            return "[]"
        body = ",\n".join(pad + reference_pretty(x, width, depth + 1) for x in v.items)
        return f"[\n{body}\n{close}]"
    if isinstance(v, Object):
        if not v.pairs:
            return "{}"
        body = ",\n".join(
            f"{pad}{reference_encode_string(k)}: {reference_pretty(x, width, depth + 1)}" for k, x in v.pairs
        )
        return f"{{\n{body}\n{close}}}"
    return reference_term(v, {})


def _walk_objects(v, visit):
    if isinstance(v, Object):
        visit(v)
        for _, x in v.pairs:
            _walk_objects(x, visit)
    elif isinstance(v, Array):
        for x in v.items:
            _walk_objects(x, visit)


def reference_classes(roots, min_occurrences=2):
    counts = {}

    def visit(obj):
        sig = obj.keys
        if sig and all(f and "," not in f and "\n" not in f and "\r" not in f for f in sig):
            counts[sig] = counts.get(sig, 0) + 1

    for root in roots:
        _walk_objects(root, visit)
    qualifying = [sig for sig, n in counts.items() if n >= min_occurrences]
    return dict(zip(qualifying, reference_class_names()))


def reference_class_names():
    """A, B, ..., Z, AA, AB, ...: every string of capital letters, shorter ones first."""
    for width in itertools.count(1):
        for letters in itertools.product(string.ascii_uppercase, repeat=width):
            yield "".join(letters)


def reference_tron(roots):
    index = reference_classes(roots)
    bodies = [reference_term(root, index) for root in roots]
    if index:
        header = "\n".join(f"class {name}: {','.join(fields)}" for fields, name in index.items())
        return header + "\n\n" + "\n".join(bodies)
    return "\n".join(bodies)


_SCALAR_TRIGGERS = set(',:"\n\r{[')
_KEY_TRIGGERS = _SCALAR_TRIGGERS | set("}]")
_QUOTE_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r"}


def reference_quote(s):
    return '"' + "".join(_QUOTE_ESCAPES.get(ch, ch) for ch in s) + '"'


def reference_toon_scalar(v):
    if isinstance(v, Text):
        s = v.value
        if (
            not s
            or s in ("true", "false", "null")
            or NUMBER_LITERAL_RE.match(s)
            or any(ch in _SCALAR_TRIGGERS for ch in s)
            or s[0].isspace()
            or s[-1].isspace()
        ):
            return reference_quote(s)
        return s
    return reference_term(v, {})


def reference_toon_key(s):
    if not s or s[0] == "-" or any(ch in _KEY_TRIGGERS for ch in s) or s[0].isspace() or s[-1].isspace():
        return reference_quote(s)
    return s


def reference_classify(arr):
    if all(isinstance(x, (Null, Bool, Number, Text)) for x in arr.items):
        return ArrayShape.PRIMITIVE_INLINE, None
    if len(arr) >= 2 and all(isinstance(x, Object) for x in arr.items):
        sig = arr.items[0].keys
        if sig and all(x.keys == sig for x in arr.items):
            cells_ok = all(
                isinstance(v, (Null, Bool, Number, Text)) and not (isinstance(v, Text) and v.value == "")
                for x in arr.items
                for _, v in x.pairs
            )
            if cells_ok:
                return ArrayShape.UNIFORM_TABLE, sig
    return ArrayShape.ITEM_LIST, None


def reference_toon(v):
    """The recursive TOON encoder, one list of lines per node."""
    root = v if isinstance(v, Object) else Object(((WRAP_KEY, v),))
    lines = []
    for k, x in root.pairs:
        if lines:
            lines.append("")
        lines.extend(_reference_field(k, x, 0))
    return "\n".join(lines)


def _reference_field(key, v, depth):
    head = "  " * depth + reference_toon_key(key)
    if isinstance(v, (Null, Bool, Number, Text)):
        return [f"{head}: {reference_toon_scalar(v)}"]
    if isinstance(v, Object):
        lines = [f"{head}:"]
        for k, x in v.pairs:
            lines.extend(_reference_field(k, x, depth + 1))
        return lines
    return _reference_array(head, v, depth)


def _reference_array(head, arr, depth):
    shape, sig = reference_classify(arr)
    n = len(arr)
    if shape is ArrayShape.PRIMITIVE_INLINE:
        if n == 0:
            return [f"{head}[0]:"]
        return [f"{head}[{n}]: " + ",".join(reference_toon_scalar(x) for x in arr.items)]
    if shape is ArrayShape.UNIFORM_TABLE:
        lines = [f"{head}[{n}]{{" + ",".join(reference_toon_key(f) for f in sig) + "}:"]
        for item in arr.items:
            lines.append("  " * (depth + 1) + ",".join(reference_toon_scalar(x) for _, x in item.pairs))
        return lines
    lines = [f"{head}[{n}]:"]
    for item in arr.items:
        lines.extend(_reference_item(item, depth + 1))
    return lines


def _reference_item(v, depth):
    dash = "  " * depth + "-"
    if isinstance(v, (Null, Bool, Number, Text)):
        return [f"{dash} {reference_toon_scalar(v)}"]
    if isinstance(v, Object):
        lines = [dash]
        for k, x in v.pairs:
            lines.extend(_reference_field(k, x, depth + 1))
        return lines
    return _reference_array(dash + " ", v, depth)


def arrays_in(v):
    if isinstance(v, Object):
        for _, x in v.pairs:
            yield from arrays_in(x)
    elif isinstance(v, Array):
        yield v
        for x in v.items:
            yield from arrays_in(x)


# ---------------------------------------------------------------------------
# Properties.

PROFILES = st.sampled_from([DEFAULT_PROFILE, DELIMITER_PROFILE, TABULAR_PROFILE])
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

# every character either encoder treats specially, plus ones neither does
SPECIAL_TEXT = st.text(
    alphabet=st.sampled_from(
        list(',:"\\{}[]-\n\r\t\b\f\x0b \x00\x01\x1c\x1f\x7f\x85\xa0\u2028\u2029\u3000\ud800\udfff')
        + ["a", "1", "é", "😀"]
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(SEEDS, PROFILES)
def test_documents_encode_as_the_references_do(seed, profile):
    v = generate(seed, profile)
    assert encode_json(v) == reference_term(v, {})
    for width in (1, 2, 3, 4):
        assert encode_json(v, width) == reference_pretty(v, width)
    assert encode_toon(v) == reference_toon(v)
    assert all(classify_array(arr) == reference_classify(arr) for arr in arrays_in(v))
    assert encode_tron(v) == reference_tron([v])


# pretty JSON re-spaces minimal JSON's pieces by what each one is, so these
# aim at pieces that look like another kind: keys and strings that read as a
# bracket, a comma or a key, empty containers, and a root with no container
PUNCTUATION = ["{", "[", "]", ",", ":", "a:", '""', ""]
AT_THE_CAP = []
for _ in range(MAX_NESTING - 1):
    AT_THE_CAP = [AT_THE_CAP]
PRETTY_CASES = {
    "punctuation keys and values": {s: s for s in PUNCTUATION},
    "punctuation items": PUNCTUATION,
    "punctuation nested": {s: [s, {s: [s]}] for s in PUNCTUATION},
    "empty containers in an array": [[], {}],
    "empty object as a value": {"a": {}},
    "empty array root": [],
    "empty object root": {},
    "number root": 1.5,
    "string root": "a:",
    "bracket string root": "{",
    "null root": None,
    "arrays MAX_NESTING deep": AT_THE_CAP,
}


@pytest.mark.parametrize("width", [1, 2, 3, 4])
@pytest.mark.parametrize("doc", list(PRETTY_CASES.values()), ids=list(PRETTY_CASES))
def test_pretty_json_pinned_cases(doc, width):
    v = from_python(doc)
    text = encode_json(v, width)
    assert text == reference_pretty(v, width)
    assert decode_json(text) == v


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(SEEDS, PROFILES), min_size=1, max_size=6))
def test_tron_batch_encodes_as_the_reference_does(docs):
    roots = [generate(seed, profile) for seed, profile in docs]
    assert encode_tron_batch(roots) == reference_tron(roots)


@settings(max_examples=300, deadline=None)
@given(SPECIAL_TEXT)
@example("\x00\x1f\x7f\u2028\ud800")
def test_encode_string_is_json_dumps(s):
    assert encode_string(s) == json.dumps(s, ensure_ascii=False) == reference_encode_string(s)


@settings(max_examples=300, deadline=None)
@given(SPECIAL_TEXT)
@example("\x0bx")
@example("x\x1c")
@example("\u3000-1\u3000")
@example("-1e5")
def test_toon_scalar_and_key_quoting_as_the_references_do(s):
    assert toon_codec.encode_scalar(s) == reference_toon_scalar(Text(s))
    assert toon_codec._key_text[s] == reference_toon_key(s)
    # a key-shaped document: every field name and cell goes through both
    doc = Object(((s, Text(s)), ("rows", Array((Object(((s, Text(s)),)),) * 2))))
    assert encode_toon(doc) == reference_toon(doc)
    assert encode_tron(doc) == reference_tron([doc])


def test_toon_quotes_every_space_at_an_edge():
    # the encoder tests edges with the regex \s, the reference with str.isspace()
    every = "".join(map(chr, range(0x110000)))
    spaces = {c for c in every if c.isspace()} | set(re.findall(r"\s", every))
    for c in sorted(spaces):
        for s in (c, c + "x", "x" + c, "x" + c + "x", c + "-1"):
            assert toon_codec.encode_scalar(s) == reference_toon_scalar(Text(s))
            assert toon_codec._key_text[s] == reference_toon_key(s)


# "-x" is a bare scalar but a quoted key; a bracket or brace quotes only a key
@pytest.mark.parametrize("s,scalar,key", [("-x", "-x", '"-x"'), ("a]", "a]", '"a]"'), ("}k", "}k", '"}k"')])
@pytest.mark.parametrize("first", ["key", "scalar"])
def test_quoting_memos_keep_each_rule(s, scalar, key, first):
    toon_codec._scalar_text.clear()
    toon_codec._key_text.clear()
    encode = {"key": lambda: toon_codec._key_text[s], "scalar": lambda: toon_codec.encode_scalar(s)}
    other = "scalar" if first == "key" else "key"
    expected = {"key": key, "scalar": scalar}
    for kind in (first, other, first, other):
        assert encode[kind]() == expected[kind]
    assert (scalar, key) == (reference_toon_scalar(Text(s)), reference_toon_key(s))
    doc = Object(((s, Text(s)), ("rows", Array((Object(((s, Text(s)),)),) * 2))))
    assert encode_toon(doc) == reference_toon(doc) == f"{key}: {scalar}\n\nrows[2]{{{key}}}:\n  {scalar}\n  {scalar}"


def test_quoting_memos_stay_within_their_bounds(monkeypatch):
    memos = (toon_codec._scalar_text, toon_codec._key_text)
    for memo in memos:
        monkeypatch.setattr(memo, "size", 8)
        monkeypatch.setattr(memo, "max_len", 6)
        memo.clear()
    for seed in range(40):
        for profile in (DEFAULT_PROFILE, DELIMITER_PROFILE, TABULAR_PROFILE):
            v = generate(seed, profile)
            assert encode_toon(v) == reference_toon(v)
            for memo in memos:
                assert len(memo) <= 8
                assert all(len(s) <= 6 for s in memo)


def test_quoting_memos_do_not_keep_long_strings(monkeypatch):
    for memo in (toon_codec._scalar_text, toon_codec._key_text):
        monkeypatch.setattr(memo, "max_len", 4)
        memo.clear()
    for s in ("true", "a b", "long", "longer", "-x,y:z", " edge "):
        doc = Object(((s, Text(s)),))
        assert encode_toon(doc) == reference_toon(doc)
        assert (s in toon_codec._scalar_text) == (s in toon_codec._key_text) == (len(s) <= 4)
