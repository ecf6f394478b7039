"""Canonical JSON serializer and strict parser.

Minimal-style output is the baseline every byte/token delta is measured
against, so the encoder emits raw UTF-8 (no \\uXXXX escaping beyond the
mandatory quote/backslash/control cases) and the parser keeps number
literals exactly as written instead of widening them to floats. One
walker writes minimal JSON and, given a class index, TRON bodies; strings
go through the stdlib's C escaper.

The parser reads whitespace, runs of plain string characters and number
literals with one compiled-regex match each, so per-character work
happens only at an escape. Decoded strings are always valid Unicode
(RFC 8259 section 8.2): a \\uD800-\\uDFFF escape that is not a high-low
pair, and a raw surrogate code point in a ``str`` argument, are both a
``ParseError``, since such a string cannot be written out as UTF-8.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from json.encoder import encode_basestring

from .errors import DuplicateKeyError, ParseError
from .values import NULL, Array, Bool, Null, Number, Object, StructSignature, Text, Value, _trusted

__all__ = ["JsonStyle", "MINIMAL", "encode_json", "decode_json", "Scanner"]


@dataclass(frozen=True)
class JsonStyle:
    """indent=None emits minimal JSON; an int emits pretty output."""

    indent: int | None = None

    def __post_init__(self) -> None:
        if self.indent is not None and self.indent < 1:
            raise ValueError("indent width must be >= 1")


MINIMAL = JsonStyle()

# the stdlib's (C ``_json`` when built, else a regex): escapes ", \, \b \f
# \n \r \t and other C0 controls as lowercase \u00xx, and nothing else, so
# DEL, U+2028 and lone surrogates pass through
encode_string = encode_basestring


def encode_json(v: Value, style: JsonStyle = MINIMAL) -> str:
    if style.indent is None:
        return _minimal(v)
    return _encode_pretty(v, style.indent, 0)


def _minimal(v: Value) -> str:
    out: list[str] = []
    _emit(v, out, {})
    return "".join(out)


def _emit(v: Value, out: list[str], index: dict[StructSignature, str]) -> None:
    """Append the minimal JSON text of ``v`` to ``out``, piece by piece.

    With a non-empty class index this is TRON's body writer: an object whose
    key tuple has a class name is written positionally as ``Name(a1,...)``.
    Every container appends a separator after each child and then overwrites
    the last one with its closing bracket.
    """
    t = type(v)
    if t is Text:
        out.append(encode_string(v.value))
    elif t is Number:
        out.append(v.literal)
    elif t is Object:
        pairs = v.pairs
        if not pairs:
            out.append("{}")
            return
        name = index.get(v.keys) if index else None
        if name is None:
            out.append("{")
            for k, x in pairs:
                out.append(encode_string(k) + ":")
                _emit(x, out, index)
                out.append(",")
            out[-1] = "}"
        else:
            out.append(name + "(")
            for _, x in pairs:
                _emit(x, out, index)
                out.append(",")
            out[-1] = ")"
    elif t is Array:
        items = v.items
        if not items:
            out.append("[]")
            return
        out.append("[")
        for x in items:
            _emit(x, out, index)
            out.append(",")
        out[-1] = "]"
    elif t is Bool:
        out.append("true" if v.value else "false")
    elif t is Null:
        out.append("null")
    else:
        raise TypeError(f"not a Value: {v!r}")


def _encode_pretty(v: Value, width: int, depth: int) -> str:
    pad = " " * (width * (depth + 1))
    close = " " * (width * depth)
    if isinstance(v, Array):
        if not v.items:
            return "[]"
        body = ",\n".join(pad + _encode_pretty(x, width, depth + 1) for x in v.items)
        return f"[\n{body}\n{close}]"
    if isinstance(v, Object):
        if not v.pairs:
            return "{}"
        body = ",\n".join(
            f"{pad}{encode_string(k)}: {_encode_pretty(x, width, depth + 1)}" for k, x in v.pairs
        )
        return f"{{\n{body}\n{close}}}"
    return _minimal(v)


# ---------------------------------------------------------------------------
# Strict parsing.

_WS = r"[ \t\n\r]*"
# a run of string characters that need no per-character work; surrogate
# code points are left out so that a lone one in a str argument is rejected
_PLAIN = r'[^"\\\x00-\x1f\ud800-\udfff]*'

_skip_ws = re.compile(_WS).match
_string_run = re.compile(_PLAIN).match
_hex4 = re.compile(r"[0-9a-fA-F]{4}").match
# looser than the grammar, so a dangling '.' or exponent gets its own message
_number = re.compile(r"-?(?:0|[1-9][0-9]*)(\.[0-9]*)?([eE][+-]?[0-9]*)?").match
# a plain string, number or literal and the whitespace after it; the
# lookahead leaves 01, 1. and 1e to the general path, which reports them
_SCALAR = (
    f'(?:"({_PLAIN})"'
    r"|(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)(?![0-9.eE])"
    f"|(true|false|null)){_WS}"
)
_scalar = re.compile(_WS + _SCALAR).match
# the usual object member, ws "key" ws : ws, with its value when that is a
# plain scalar (groups 2-4)
_member = re.compile(f'{_WS}"({_PLAIN})"{_WS}:{_WS}(?:{_SCALAR})?').match

_SIMPLE_ESCAPES = {'"': '"', "\\": "\\", "/": "/", "b": "\b", "f": "\f", "n": "\n", "r": "\r", "t": "\t"}
_LITERALS = {"true": Bool(True), "false": Bool(False), "null": NULL}

# nesting cap keeps hostile input from exhausting the interpreter stack
MAX_NESTING = 120


class Scanner:
    """Position-tracking recursive-descent scanner over JSON grammar.

    The TRON decoder subclasses the value dispatch to add class instances,
    so everything lives on one class instead of free functions. Runs of
    whitespace, plain string characters and number literals are each read
    with one compiled-regex match. An object member whose value is a plain
    string, number or literal is one match, head and value, and so is such
    an array item; every other value takes the general path through
    ``parse_value``.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, pos=self.pos)

    def skip_ws(self) -> None:
        self.pos = _skip_ws(self.text, self.pos).end()

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        if self.at_end():
            raise self.error("unexpected end of input")
        return self.text[self.pos]

    def expect(self, ch: str) -> None:
        if self.at_end() or self.text[self.pos] != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse_document(self) -> Value:
        self.skip_ws()
        v = self.parse_value()
        self.skip_ws()
        if not self.at_end():
            raise self.error("trailing content after document")
        return v

    def parse_value(self) -> Value:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error("nesting too deep")
        try:
            return self.dispatch_value()
        finally:
            self.depth -= 1

    def dispatch_value(self) -> Value:
        ch = self.text[self.pos : self.pos + 1]
        if ch == "{":
            return self.parse_object()
        if ch == "[":
            return _trusted(Array, tuple(self.parse_items("]", "array")))
        if ch == '"':
            return Text(self.parse_string())
        if ch == "-" or "0" <= ch <= "9":
            return _trusted(Number, self.parse_number_literal())
        for literal, value in _LITERALS.items():
            if self.text.startswith(literal, self.pos):
                self.pos += len(literal)
                return value
        if not ch:
            raise self.error("unexpected end of input")
        raise self.error(f"unexpected character {ch!r}")

    def parse_object(self) -> Object:
        text = self.text
        pos = _skip_ws(text, self.pos + 1).end()
        if text.startswith("}", pos):
            self.pos = pos + 1
            return _trusted(Object, ())
        # a member is one value deeper than this object; at the cap every
        # member goes the general way, where parse_value rejects it
        fast = self.depth < MAX_NESTING
        members: dict[str, Value] = {}
        while True:
            m = _member(text, pos) if fast else None
            if m is not None:
                key = m.group(1)
                if key in members:
                    raise DuplicateKeyError(key, pos=m.start(1) - 1)
                kind = m.lastindex
                pos = m.end()
            else:
                key = self._parse_key(pos, members)
                kind = 1
                pos = self.pos
            if kind == 2:
                members[key] = Text(m.group(2))
            elif kind == 3:
                members[key] = _trusted(Number, m.group(3))
            elif kind == 4:
                members[key] = _LITERALS[m.group(4)]
            else:
                self.pos = pos
                members[key] = self.parse_value()
                pos = _skip_ws(text, self.pos).end()
            ch = text[pos : pos + 1]
            if ch == ",":
                pos += 1
                continue
            self.pos = pos
            if ch == "}":
                self.pos += 1
                return _trusted(Object, tuple(members.items()))
            if not ch:
                raise self.error("unexpected end of input")
            raise self.error("expected ',' or '}' in object")

    def _parse_key(self, pos: int, members: dict[str, Value]) -> str:
        """General path for a member head; leaves self.pos after the ":" and whitespace."""
        self.pos = pos
        self.skip_ws()
        key_pos = self.pos
        if self.peek() != '"':
            raise self.error("expected string key")
        key = self.parse_string()
        if key in members:
            raise DuplicateKeyError(key, pos=key_pos)
        self.skip_ws()
        self.expect(":")
        self.skip_ws()
        return key

    def parse_items(self, close: str, what: str) -> list[Value]:
        """Comma-separated values after an opening bracket, through ``close``."""
        text = self.text
        pos = _skip_ws(text, self.pos + 1).end()
        items: list[Value] = []
        if text.startswith(close, pos):
            self.pos = pos + 1
            return items
        fast = self.depth < MAX_NESTING
        while True:
            m = _scalar(text, pos) if fast else None
            if m is not None:
                kind = m.lastindex
                if kind == 1:
                    items.append(Text(m.group(1)))
                elif kind == 2:
                    items.append(_trusted(Number, m.group(2)))
                else:
                    items.append(_LITERALS[m.group(3)])
                pos = m.end()
            else:
                self.pos = _skip_ws(text, pos).end()
                items.append(self.parse_value())
                pos = _skip_ws(text, self.pos).end()
            ch = text[pos : pos + 1]
            if ch == ",":
                pos += 1
                continue
            self.pos = pos
            if ch == close:
                self.pos += 1
                return items
            if not ch:
                raise self.error("unexpected end of input")
            raise self.error(f"expected ',' or {close!r} in {what}")

    def parse_string(self) -> str:
        self.expect('"')
        text = self.text
        start = self.pos
        end = _string_run(text, start).end()
        if text.startswith('"', end):
            self.pos = end + 1
            return text[start:end]
        out: list[str] = []
        while True:
            out.append(text[start:end])
            self.pos = end
            ch = text[end : end + 1]
            if ch == '"':
                self.pos += 1
                return "".join(out)
            if ch == "\\":
                simple = _SIMPLE_ESCAPES.get(text[end + 1 : end + 2])
                if simple is not None:
                    out.append(simple)
                    start = end + 2
                else:
                    self.pos += 1
                    out.append(self._unicode_escape())
                    start = self.pos
                end = _string_run(text, start).end()
                continue
            if not ch:
                raise self.error("unterminated string")
            if ch < " ":
                raise self.error("raw control character in string")
            raise self.error("surrogate code point in string")

    def _unicode_escape(self) -> str:
        """The escape at pos, just after a backslash, when it is not a one-character one.

        That is a \\uXXXX escape, or a surrogate pair of them; anything else
        is an error.
        """
        if self.at_end():
            raise self.error("unterminated escape")
        ch = self.text[self.pos]
        if ch != "u":
            raise self.error(f"invalid escape \\{ch}")
        backslash = self.pos - 1
        self.pos += 1
        code = self._parse_hex4()
        if not 0xD800 <= code <= 0xDFFF:
            return chr(code)
        if code <= 0xDBFF and self.text.startswith("\\u", self.pos):
            self.pos += 2
            low = self._parse_hex4()
            if 0xDC00 <= low <= 0xDFFF:
                return chr(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
        self.pos = backslash
        raise self.error("unpaired surrogate escape")

    def _parse_hex4(self) -> int:
        if self.pos + 4 > len(self.text):
            raise self.error("truncated \\u escape")
        m = _hex4(self.text, self.pos)
        if m is None:
            raise self.error(f"invalid \\u escape {self.text[self.pos : self.pos + 4]!r}")
        self.pos += 4
        return int(m.group(), 16)

    def parse_number_literal(self) -> str:
        m = _number(self.text, self.pos)
        if m is None:
            raise self.error("malformed number")
        fraction, exponent = m.groups()
        if fraction == ".":
            raise self.error("malformed number fraction")
        if exponent is not None and not exponent[-1].isdigit():
            raise self.error("malformed number exponent")
        self.pos = m.end()
        return m.group()


def decode_json(text: str) -> Value:
    """Parse exactly one JSON value; trailing non-whitespace is an error."""
    return Scanner(text).parse_document()
