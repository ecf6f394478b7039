"""Canonical JSON serializer and strict parser.

Minimal JSON, ``encode_json(v)``, is the baseline every byte/token delta
is measured against, so the encoder emits raw UTF-8 (no \\uXXXX escaping
beyond the mandatory quote/backslash/control cases) and the parser keeps
number literals exactly as written instead of widening them to floats. One
walker writes minimal JSON and, given a class index, TRON bodies; pretty
JSON, ``encode_json(v, indent)``, is its pieces re-spaced ``indent`` spaces
a level, and strings go through the stdlib's C escaper.

One decoder, ``_decode``, reads JSON text and, given a class table, TRON
bodies, on two paths. The accept path hands the text to one stdlib decoder
(the C scanner), with hooks that keep number literals as written, object
members as ordered pairs, and ``NaN`` and ``Infinity`` as two instance
marks, then builds the nodes in one walk (``_build``) that also checks for
duplicate keys and nesting past ``MAX_NESTING``. Every TRON body reaches it
with its instances spelled as marked arrays (``_as_json``), which the walk
builds against the class table. ``Scanner``, the reject path, is the strict
recursive-descent parser that defines what is accepted and what each error
says, given the same table. It reads every text the accept path does not take:

* text with a raw surrogate code point, sent there before the stdlib
  sees it;
* text the stdlib rejects, including a BOM, trailing data, ``-Infinity``
  and nesting deep enough for a ``RecursionError``;
* text the stdlib accepts but the walk refuses: a duplicate key, a value
  deeper than ``MAX_NESTING``, or a mark outside an instance;
* text with a surrogate escape that is not half of a high-low pair, which
  the stdlib keeps as a lone surrogate. A pair is one code point and stays
  on the accept path; only the escapes are looked at, not the built value.

Both paths return the same nodes, and every error is ``Scanner``'s, with
its reason and position. Every text that decodes takes the accept path,
so ``Scanner`` runs only on text that fails, and in tests that call it
directly. It is therefore kept as plain recursive descent with no fast
paths; regex matches read only whitespace, runs of plain string
characters and number literals. Decoded strings are always valid Unicode
(RFC 8259 section 8.2): a \\uD800-\\uDFFF escape that is not a high-low
pair, and a raw surrogate code point in a ``str`` argument, are both a
``ParseError``, since such a string cannot be written out as UTF-8.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring

from .errors import ArityMismatchError, DuplicateKeyError, ParseError, UnknownClassError
from .values import Array, Number, Object, StructSignature, Value, _box, _collector_paused, _unbox

__all__ = ["encode_json", "decode_json", "Scanner"]


# the stdlib's (C ``_json`` when built, else a regex): escapes ", \, \b \f
# \n \r \t and other C0 controls as lowercase \u00xx, and nothing else, so
# DEL, U+2028 and lone surrogates pass through
encode_string = encode_basestring


@_collector_paused
def encode_json(v: Value, indent: int | None = None) -> str:
    """The JSON text of ``v``: ``_emit``'s pieces, re-spaced ``indent`` spaces a level if given, then joined."""
    # the width is checked before the document is read
    if indent is not None and (not isinstance(indent, int) or isinstance(indent, bool)):
        raise ValueError(f"indent width must be an int or None, not {type(indent).__name__}")
    if indent is not None and indent < 1:
        raise ValueError("indent width must be >= 1")
    pieces: list[str] = []
    _emit(_unbox(v, "document"), pieces, {})
    if indent is not None:
        step = " " * indent
        pad = "\n"
        for i, p in enumerate(pieces):
            if p == ",":
                pieces[i] = "," + pad
            elif p[-1] == ":":  # a key; no scalar piece ends in a colon
                pieces[i] = p + " "
            elif p == "{" or p == "[":
                pad += step
                pieces[i] = p + pad
            elif p == "}" or p == "]":
                pad = pad[: -len(step)]
                pieces[i] = pad + p
    return "".join(pieces)


def _emit(v, out: list[str], index: dict[StructSignature, str]) -> None:
    """Append the minimal JSON text of the stored value ``v`` to ``out``, piece by piece.

    ``v`` is a node or a plain leaf (a ``str``, ``True``, ``False`` or
    ``None``), as a container stores its children; a caller unboxes a root.
    With a non-empty class index this is TRON's body writer: an object whose
    key tuple has a class name is written positionally as ``Name(a1,...)``.
    Every container appends a separator after each child and then overwrites
    the last one with its closing bracket. String and Number children, the
    most common, are written inside the container loops, which saves a call
    per scalar. With no class index every piece is one token (an opening or
    closing bracket, a comma, a ``"key":``, a scalar, or an empty ``{}`` or
    ``[]``), and ``encode_json``'s re-spacing loop relies on that.
    """
    t = type(v)
    if t is str:
        out.append(encode_string(v))
        return
    if t is Number:
        out.append(v[1])
        return
    if t is Object:
        keys = v[1]
        if not keys:
            out.append("{}")
            return
        name = index.get(keys) if index else None
        if name is None:
            out.append("{")
            # keys by index: a zip per object costs more than the usual
            # three or four members take
            i = 0
            for x in v[2]:
                out.append(encode_string(keys[i]) + ":")
                i += 1
                t = type(x)
                if t is str:
                    out.append(encode_string(x))
                elif t is Number:
                    out.append(x[1])
                else:
                    _emit(x, out, index)
                out.append(",")
            out[-1] = "}"
            return
        out.append(name + "(")
        items = v[2]
        close = ")"
    elif t is Array:
        items = v[1]
        if not items:
            out.append("[]")
            return
        out.append("[")
        close = "]"
    elif v is None:
        out.append("null")
        return
    elif t is bool:
        out.append("true" if v else "false")
        return
    else:
        raise TypeError(f"not a Value: {v!r}")
    # the items of an array or the args of a class instance
    for x in items:
        t = type(x)
        if t is str:
            out.append(encode_string(x))
        elif t is Number:
            out.append(x[1])
        else:
            _emit(x, out, index)
        out.append(",")
    out[-1] = close


# ---------------------------------------------------------------------------
# Strict parsing.

_skip_ws = re.compile(r"[ \t\n\r]*").match
# a run of string characters that need no per-character work; surrogate
# code points are left out so that a lone one in a str argument is rejected
_string_run = re.compile(r'[^"\\\x00-\x1f\ud800-\udfff]*').match
_hex4 = re.compile(r"[0-9a-fA-F]{4}").match
# looser than the grammar, so a dangling '.' or exponent gets its own message
_number = re.compile(r"-?(?:0|[1-9][0-9]*)(\.[0-9]*)?([eE][+-]?[0-9]*)?").match

_SIMPLE_ESCAPES = {'"': '"', "\\": "\\", "/": "/", "b": "\b", "f": "\f", "n": "\n", "r": "\r", "t": "\t"}
# the one table of literals, as a container stores them; toon_codec reads it too
_LITERALS = {"true": True, "false": False, "null": None}
_new = tuple.__new__

_INSTANCE_HEAD = re.compile(r"([A-Z]+)\(")
_class_name = re.compile(r"[A-Z]*").match

# nesting cap keeps hostile input from exhausting the interpreter stack;
# toon_codec holds its documents to the same cap
MAX_NESTING = 120


class Scanner:
    """Position-tracking recursive-descent scanner over JSON grammar.

    It defines what is accepted and what each error says, but it runs only
    on text the accept path refuses, and in tests that call it directly, so
    it is kept as plain recursive descent: one loop per container, one
    method per token. Given a TRON class table, even an empty one, it reads
    a TRON body: a class instance ``Name(a1,...)`` is one more kind of
    value.
    """

    def __init__(self, text: str, classes: dict[str, StructSignature] | None = None):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.classes = classes

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
        """The document's value, a scalar root boxed; values below it are stored plain."""
        self.skip_ws()
        v = self.parse_value()
        self.skip_ws()
        if not self.at_end():
            raise self.error("trailing content after document")
        return _box(v)

    def parse_value(self) -> Value:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error("nesting too deep")
        try:
            ch = self.text[self.pos : self.pos + 1]
            if ch == "{":
                return self.parse_object()
            if ch == "[":
                return _new(Array, (Array, tuple(self.parse_items("]", "array"))))
            if ch == '"':
                return self.parse_string()
            if ch == "-" or "0" <= ch <= "9":
                return _new(Number, (Number, self.parse_number_literal()))
            if self.classes is not None and "A" <= ch <= "Z":
                return self._parse_instance()
            for literal, value in _LITERALS.items():
                if self.text.startswith(literal, self.pos):
                    self.pos += len(literal)
                    return value
            if not ch:
                raise self.error("unexpected end of input")
            raise self.error(f"unexpected character {ch!r}")
        finally:
            self.depth -= 1

    def _parse_instance(self) -> Object:
        start = self.pos
        m = _INSTANCE_HEAD.match(self.text, start)
        if m is None:
            self.pos = _class_name(self.text, start).end()
            name = self.text[start : self.pos]
            raise ParseError(f"expected '(' after class name {name}", pos=self.pos)
        name = m.group(1)
        fields = self.classes.get(name)
        if fields is None:
            raise UnknownClassError(name, pos=start)
        self.pos = m.end() - 1
        args = self.parse_items(")", "instance args")
        if len(args) != len(fields):
            raise ArityMismatchError(len(fields), len(args), class_name=name)
        # declared fields are distinct (checked in tron_codec._parse_class_line)
        return _new(Object, (Object, fields, tuple(args)))

    def parse_object(self) -> Object:
        self.pos += 1
        self.skip_ws()
        if self.text.startswith("}", self.pos):
            self.pos += 1
            return _new(Object, (Object, (), ()))
        members: dict[str, Value] = {}
        while True:
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
            members[key] = self.parse_value()
            if self.closes("}", "object"):
                return _new(Object, (Object, tuple(members), tuple(members.values())))

    def parse_items(self, close: str, what: str) -> list[Value]:
        """Comma-separated values after an opening bracket, through ``close``."""
        self.pos += 1
        self.skip_ws()
        items: list[Value] = []
        if self.text.startswith(close, self.pos):
            self.pos += 1
            return items
        while True:
            self.skip_ws()
            items.append(self.parse_value())
            if self.closes(close, what):
                return items

    def closes(self, close: str, what: str) -> bool:
        """Step over whitespace and the comma or ``close`` after an item; True at ``close``."""
        self.skip_ws()
        ch = self.text[self.pos : self.pos + 1]
        if ch == "," or ch == close:
            self.pos += 1
            return ch == close
        if not ch:
            raise self.error("unexpected end of input")
        raise self.error(f"expected ',' or {close!r} in {what}")

    def parse_string(self) -> str:
        self.expect('"')
        text = self.text
        start = self.pos
        out: list[str] = []
        while True:
            end = _string_run(text, start).end()
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


# ---------------------------------------------------------------------------
# The accept path: the stdlib's C scanner reads the text, one walk builds the
# nodes. Scanner stays the judge of every text this path does not accept.


def _number_node(literal: str) -> Number:
    return _new(Number, (Number, literal))


class _Constants(dict):
    """What ``parse_constant`` maps NaN and Infinity to; a constant it lacks, -Infinity, is rejected."""

    def __missing__(self, name: str):
        raise ValueError(f"non-standard constant {name}")


# The opening and closing marks of a TRON instance, which _as_json spells
# as [NaN,"Name",[args...],Infinity].
_OPEN = object()
_CLOSE = object()

# A TRON body is JSON text once every ``Name(`` outside a string becomes
# ``[NaN,"Name",[`` and every ``)`` becomes ``],Infinity]``; the stdlib reads
# NaN and Infinity as the instance marks, and ``_build`` takes an instance
# only as [_OPEN, declared name, args of the declared arity, _CLOSE]. A body
# whose text outside strings already holds NaN or Infinity, or the NUL that
# joins the pieces below, is left to Scanner, which reads every body this
# path does not accept and so alone says what each error is. Nothing else
# needs screening: a "(" after no class name stays a "(", and a quote that
# opens an unterminated string runs to the end or to the first inserted
# quote, which a class name follows; the stdlib rejects all three.

# the string tokens of a body, in odd places of the split
_split_strings = re.compile(r'("[^"\\]*(?:\\.[^"\\]*)*")', re.S).split


def _as_json(body: str) -> str | None:
    """The body with its instances spelled as marked JSON arrays, or None."""
    if "\0" in body:
        return None
    pieces = _split_strings(body)
    outside = "\0".join(pieces[::2])
    if "NaN" in outside or "Infinity" in outside:
        return None
    # a callable: up to Python 3.11 a template's group reference is expanded in Python, a third slower here
    outside = _INSTANCE_HEAD.sub(lambda m: '[NaN,"' + m[1] + '",[', outside)
    pieces[::2] = outside.replace(")", "],Infinity]").split("\0")
    return "".join(pieces)


# numbers arrive as Number nodes holding the literal as written, objects as
# tuples of (key, value) pairs in document order, duplicates included, and
# NaN and Infinity as the marks, which _build refuses outside an instance
_stdlib_decode = json.JSONDecoder(
    parse_int=_number_node,
    parse_float=_number_node,
    parse_constant=_Constants(NaN=_OPEN, Infinity=_CLOSE).__getitem__,
    object_pairs_hook=tuple,
).decode
# a \uD800-\uDFFF escape, paired or not; it also matches an escaped
# backslash before "uD800". Only text that has one can decode to a lone
# surrogate, so only such text is checked for one
_surrogate_escape = re.compile(r"\\u[dD][89a-fA-F]").search
# In text the stdlib accepted, every backslash starts an escape, so these
# matches are the escapes in order: a high-low pair, which the stdlib
# decodes to one code point; a surrogate escape that is not part of a pair,
# which it keeps as a lone surrogate (group 1); and any other escape.
_escapes = re.compile(
    r"\\(?:u[dD][89abAB][0-9a-fA-F]{2}\\u[dD][c-fC-F][0-9a-fA-F]{2}|(u[dD][89a-fA-F][0-9a-fA-F]{2})|.)", re.S
).findall


def _build(x, depth: int, classes: dict[str, StructSignature] | None):
    """The stored value of the stdlib result ``x``, a value ``depth`` values deep.

    Containers become nodes; a string, ``True``, ``False`` or ``None`` is
    already the plain leaf a container stores, so it is kept as it is, and
    string children, the most common, are never passed down. With a
    non-empty class table, a list ``[_OPEN, name, args, _CLOSE]`` is an
    instance of a declared class with as many args as it has fields; it is
    one value, and its args are one value deeper. Raises ValueError on a
    duplicate key, on a non-empty container at ``MAX_NESTING``, whose
    children would be past the cap, and on an instance mark anywhere else.
    """
    t = type(x)
    if t is tuple:
        if not x:
            return _new(Object, (Object, (), ()))
        if depth >= MAX_NESTING:
            raise ValueError("nesting too deep")
        depth += 1
        members = {}
        for k, v in x:
            members[k] = v if type(v) is str else _build(v, depth, classes)
        if len(members) != len(x):
            raise ValueError("duplicate key")
        return _new(Object, (Object, tuple(members), tuple(members.values())))
    if t is list:
        if not x:
            return _new(Array, (Array, ()))
        if depth >= MAX_NESTING:
            raise ValueError("nesting too deep")
        depth += 1
        if classes and x[0] is _OPEN:
            fields = classes.get(x[1]) if len(x) == 4 and x[3] is _CLOSE else None
            if fields is None or len(fields) != len(x[2]):
                raise ValueError("not an instance of a declared class")
            # declared fields are distinct
            args = [v if type(v) is str else _build(v, depth, classes) for v in x[2]]
            return _new(Object, (Object, fields, tuple(args)))
        return _new(Array, (Array, tuple([v if type(v) is str else _build(v, depth, classes) for v in x])))
    if t is str or t is Number or t is bool or x is None:
        return x
    raise ValueError("instance mark out of place")


def _accept(text: str, classes: dict[str, StructSignature] | None) -> Value | None:
    """The value of ``text`` read by the stdlib, or None when it is not accepted.

    ``text`` is JSON text, or a TRON body in ``_as_json``'s marked spelling,
    and ``classes`` its class table. A scalar root is boxed, so a null root
    is never taken for None. None means the reject path must read the text:
    it holds a raw surrogate code point, the stdlib rejects it, ``_build``
    refuses its result, or it has a surrogate escape that is not half of a
    pair.
    """
    try:
        if not text.isascii():
            text.encode("utf-8")  # raises on a raw surrogate
        v = _build(_stdlib_decode(text), 1, classes)
        if _surrogate_escape(text) is not None and any(_escapes(text)):
            # a lone surrogate cannot be written out as UTF-8
            return None
        return _box(v)
    except (ValueError, RecursionError):
        # UnicodeEncodeError and the stdlib's JSONDecodeError are
        # ValueErrors; RecursionError is deep nesting in the C scanner
        return None


def _decode(text: str, classes: dict[str, StructSignature] | None) -> Value:
    """The one value of a JSON text, or, given a class table, of a TRON body.

    The accept path (``_accept``) reads the text first, a body in
    ``_as_json``'s marked spelling. Any text it does not accept is parsed
    again by ``Scanner``, which raises the error with its reason and
    position.
    """
    marked = text if classes is None else _as_json(text)
    v = None if marked is None else _accept(marked, classes)
    return Scanner(text, classes).parse_document() if v is None else v


@_collector_paused
def decode_json(text: str) -> Value:
    """Parse exactly one JSON value; trailing non-whitespace is an error."""
    return _decode(text, None)
