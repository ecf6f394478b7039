"""Byte identity of the encoders against per-character reference copies.

The references below are the earlier encoders, kept here as test-only
oracles: a per-character JSON string escaper, the recursive minimal and
pretty JSON writers, TRON's own term writer and shape walk, and TOON's
per-character quoting and trigger checks. The codecs must give the same
text for every generated document.
"""

import json
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from notation import toon_codec
from notation.json_codec import JsonStyle, encode_json, encode_string
from notation.toon_codec import encode_toon
from notation.tron_codec import ClassDef, ClassTable, class_name_for, encode_tron, encode_tron_batch
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
    return ClassTable(tuple(ClassDef(class_name_for(i), sig) for i, sig in enumerate(qualifying)))


def reference_tron(roots):
    table = reference_classes(roots)
    index = {d.fields: d.name for d in table.defs}
    bodies = [reference_term(root, index) for root in roots]
    if len(table):
        return "\n".join(table.header_lines()) + "\n\n" + "\n".join(bodies)
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


def reference_toon(v):
    """encode_toon with the per-character scalar and key quoting put back."""
    with mock.patch.object(toon_codec, "encode_scalar", reference_toon_scalar), mock.patch.object(
        toon_codec, "_encode_key", reference_toon_key
    ):
        return encode_toon(v)


# ---------------------------------------------------------------------------
# Properties.

PROFILES = st.sampled_from([DEFAULT_PROFILE, DELIMITER_PROFILE, TABULAR_PROFILE])
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

# every character either encoder treats specially, plus ones neither does
SPECIAL_TEXT = st.text(
    alphabet=st.sampled_from(
        list(',:"\\{}[]-\n\r\t\b\f \x00\x01\x1f\x7f\x85\xa0\u2028\u2029\ud800\udfff')
        + ["a", "1", "é", "😀"]
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(SEEDS, PROFILES)
def test_documents_encode_as_the_references_do(seed, profile):
    v = generate(seed, profile)
    assert encode_json(v) == reference_term(v, {})
    assert encode_json(v, JsonStyle(indent=2)) == reference_pretty(v, 2)
    assert encode_json(v, JsonStyle(indent=3)) == reference_pretty(v, 3)
    assert encode_toon(v) == reference_toon(v)
    assert encode_tron(v) == reference_tron([v])


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
def test_toon_scalar_and_key_quoting_as_the_references_do(s):
    assert toon_codec.encode_scalar(Text(s)) == reference_toon_scalar(Text(s))
    assert toon_codec._encode_key(s) == reference_toon_key(s)
    # a key-shaped document: every field name and cell goes through both
    doc = Object(((s, Text(s)), ("rows", Array((Object(((s, Text(s)),)),) * 2))))
    assert encode_toon(doc) == reference_toon(doc)
    assert encode_tron(doc) == reference_tron([doc])
