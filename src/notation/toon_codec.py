"""Indentation-based object notation with inline arrays and CSV-style tables.

Grammar emitted by the encoder, one construct per line:

    key: scalar                 scalar field
    key:                        nested object, children one level deeper
    key[N]: v1,v2,...           array of N scalars, inline
    key[N]{f1,f2,...}:          array of N same-shape objects, one CSV row
      c1,c2,...                 per element, cells in declared field order
    key[N]:                     any other array, N dash items
      - item

Bare strings carry no escapes, so any string that could be confused with
a number/bool/null, contains a structural character, or has edge
whitespace is double-quoted with backslash escapes. Length markers are
mandatory on encode and verified on decode.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import partial

from ._memo import Memo
from .errors import (
    ArityMismatchError,
    DuplicateKeyError,
    IndentError,
    LengthMismatchError,
    ParseError,
)
from .json_codec import MAX_NESTING, _LITERALS
from .values import (
    NUMBER_LITERAL_RE,
    Array,
    Number,
    Object,
    StructSignature,
    Value,
    _box,
    _collector_paused,
)

__all__ = [
    "WRAP_KEY",
    "ArrayShape",
    "classify_array",
    "encode_toon",
    "decode_toon",
]

# Synthetic root key for non-object documents; the grammar is key-rooted.
WRAP_KEY = "value"


# spaces per nesting level
INDENT = 2
# a same-shape object array shorter than this is an item list, not a table
TABLE_MIN_ROWS = 2


class ArrayShape(Enum):
    PRIMITIVE_INLINE = "primitive_inline"
    UNIFORM_TABLE = "uniform_table"
    ITEM_LIST = "item_list"


# the types of the scalars a container stores
_SCALAR_TYPES = frozenset((type(None), bool, Number, str))


def classify_array(arr: Array) -> tuple[ArrayShape, StructSignature | None]:
    """Pick the encoding for an array; tables need same-signature scalar rows."""
    items = arr[1]
    kinds = set(map(type, items))
    if kinds <= _SCALAR_TYPES:
        return ArrayShape.PRIMITIVE_INLINE, None
    if len(items) >= TABLE_MIN_ROWS and kinds == {Object}:
        sig = items[0][1]
        if sig and all(x[1] == sig for x in items):
            cells = [v for x in items for v in x[2]]
            # an empty cell would read back as a missing one
            if set(map(type, cells)) <= _SCALAR_TYPES and "" not in cells:
                return ArrayShape.UNIFORM_TABLE, sig
    return ArrayShape.ITEM_LIST, None


# ---------------------------------------------------------------------------
# Encoding.

# A string is written bare when it reads back as the same string: not empty,
# not a literal or a number, no space at either edge, and none of the
# characters that end a scalar or open a container. A bare key must also not
# start with '-', which would read back as a list item, nor hold a bracket.
_is_bare_scalar = re.compile(
    rf'(?!(?:true|false|null)\Z|{NUMBER_LITERAL_RE.pattern})(?!\s)[^,:"\n\r{{\[]+(?<!\s)'
).fullmatch
_is_bare_key = re.compile(r'(?![\s-])[^,:"\n\r{\[}\]]+(?<!\s)').fullmatch
_QUOTE_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r"}
_quote_specials = re.compile(r'["\\\n\r]').sub


def _quote(s: str) -> str:
    return '"' + _quote_specials(lambda m: _QUOTE_ESCAPES[m.group()], s) + '"'


def _bare_or_quoted(is_bare, s: str) -> str:
    return s if is_bare(s) else _quote(s)


# The TOON text of each string met, worked out once. The rules differ ("-x" is
# a bare scalar but a quoted key), so each has its own memo. A string longer
# than 128 characters is quoted on each use and never kept.
_scalar_text = Memo(partial(_bare_or_quoted, _is_bare_scalar), 4096, 128)
_key_text = Memo(partial(_bare_or_quoted, _is_bare_key), 4096, 128)


def encode_scalar(v) -> str:
    """The TOON text of a stored scalar: a ``str``, a Number, ``True``, ``False`` or ``None``."""
    t = type(v)
    if t is str:
        return _scalar_text[v]
    if t is Number:
        return v[1]
    if t is bool:
        return "true" if v else "false"
    if v is None:
        return "null"
    raise TypeError(f"not a scalar: {v!r}")


@_collector_paused
def encode_toon(v: Value) -> str:
    """Encode a document; non-object roots get wrapped under WRAP_KEY.

    A blank line separates top-level fields.
    """
    root = v if type(v) is Object else Object(((WRAP_KEY, v),))
    out: list[str] = []
    for k, x in zip(root[1], root[2]):
        if out:
            out.append("")
        _emit_fields((k,), (x,), 0, out)
    return "\n".join(out)


# The walker: _emit_fields appends the lines of an object's fields,
# _emit_array those of one array, item lists included; both dispatch on
# type(v) and append to one list that encode_toon joins once.


def _emit_fields(keys: StructSignature, values: tuple[Value, ...], depth: int, out: list[str]) -> None:
    pad = " " * (depth * INDENT)
    for k, v in zip(keys, values):
        head = pad + _key_text[k]
        t = type(v)
        if t is str:
            out.append(head + ": " + _scalar_text[v])
        elif t is Object:
            out.append(head + ":")
            _emit_fields(v[1], v[2], depth + 1, out)
        elif t is Array:
            _emit_array(head, v, depth, out)
        else:
            out.append(head + ": " + encode_scalar(v))


def _emit_array(head: str, arr: Array, depth: int, out: list[str]) -> None:
    """head is a field's padded key, or a padded "- " for an item."""
    shape, sig = classify_array(arr)
    items = arr[1]
    n = len(items)
    if shape is ArrayShape.PRIMITIVE_INLINE:
        out.append(f"{head}[{n}]: " + ",".join(map(encode_scalar, items)) if n else f"{head}[0]:")
    elif shape is ArrayShape.UNIFORM_TABLE:
        out.append(f"{head}[{n}]{{" + ",".join(map(_key_text.__getitem__, sig)) + "}:")
        pad = " " * ((depth + 1) * INDENT)
        for x in items:
            out.append(pad + ",".join(map(encode_scalar, x[2])))
    else:
        out.append(f"{head}[{n}]:")
        dash = " " * ((depth + 1) * INDENT) + "-"
        for x in items:
            t = type(x)
            if t is Object:
                out.append(dash)
                _emit_fields(x[1], x[2], depth + 2, out)
            elif t is Array:
                _emit_array(dash + " ", x, depth + 1, out)
            else:
                out.append(dash + " " + encode_scalar(x))


# ---------------------------------------------------------------------------
# Decoding.

_ARRAY_MARK_RE = re.compile(r"\[([0-9]+)\]")
_quoted_run = re.compile(r'[^"\\]*').match
# a quoted token with no escape in it, the usual kind
_plain_quoted = re.compile(r'"([^"\\]*)"').match
_bare_key = re.compile(r"[^:\[]*").match
# the usual entry lines, a bare key and then a scalar ("key: rest", group 2)
# or nothing ("key:", a nested object)
_plain_entry = re.compile(r'([^":\[][^:\[]*):(?: (.*))?\Z', re.S).match
_header_field = re.compile(r"[^,}]*").match
_is_number = NUMBER_LITERAL_RE.match
_UNESCAPE = {'"': '"', "\\": "\\", "n": "\n", "r": "\r", "t": "\t"}
_new = tuple.__new__


class _ToonParser:
    """Recursive descent over the non-blank lines of a document.

    The lines are three parallel lists: line number, indent level and the
    content after the indent. ``indents`` ends with a -1 past the last line,
    which matches no depth, so the loops test one list item for both "at the
    end" and "not at this depth".
    """

    def __init__(self, text: str):
        numbers: list[int] = []
        indents: list[int] = []
        contents: list[str] = []
        cr = "\r" in text
        for i, raw in enumerate(text.split("\n"), start=1):
            if cr:
                if raw.endswith("\r"):
                    raw = raw[:-1]
                if "\r" in raw:
                    raise ParseError("bare carriage return in line", line=i)
            stripped = raw.lstrip(" ")
            if not stripped or stripped.isspace():
                continue
            if stripped[0] == "\t":
                raise IndentError("tab in indentation", line=i)
            width = len(raw) - len(stripped)
            if width % INDENT:
                raise IndentError(f"indentation of {width} is not a multiple of {INDENT}", line=i)
            numbers.append(i)
            indents.append(width // INDENT)
            contents.append(stripped)
        indents.append(-1)
        self.numbers = numbers
        self.indents = indents
        self.contents = contents
        self.pos = 0

    def _unexpected_depth(self) -> IndentError:
        pos = self.pos
        return IndentError(f"unexpected indentation depth {self.indents[pos]}", line=self.numbers[pos])

    def parse_document(self) -> Object:
        doc = self.parse_fields(0)
        if self.pos < len(self.contents):
            raise self._unexpected_depth()
        return doc

    def parse_fields(self, depth: int) -> Object:
        """The object whose entry lines start at this line, ``depth`` levels in."""
        indents = self.indents
        numbers = self.numbers
        contents = self.contents
        pos = self.pos
        if depth > MAX_NESTING and indents[pos] >= 0:
            raise IndentError("nesting too deep", line=numbers[pos])
        members: dict[str, Value] = {}
        while indents[pos] == depth:
            content = contents[pos]
            if content[0] == "-":
                break
            lineno = numbers[pos]
            self.pos = pos + 1
            m = _plain_entry(content)
            if m is not None:
                key, rest = m.groups()
                if rest is None:
                    value = self.parse_fields(depth + 1)
                else:
                    value = _parse_scalar_rest(rest, lineno)
            else:
                key, idx = _parse_key(content, lineno)
                value = self._parse_payload(content, idx, depth, lineno)
            if key in members:
                raise DuplicateKeyError(key, line=lineno)
            members[key] = value
            pos = self.pos
        if indents[pos] > depth:
            raise self._unexpected_depth()
        return _new(Object, (Object, tuple(members), tuple(members.values())))

    def _parse_payload(self, content: str, idx: int, depth: int, lineno: int) -> Value:
        if idx < len(content) and content[idx] == "[":
            m = _ARRAY_MARK_RE.match(content, idx)
            if not m:
                raise ParseError("malformed array length marker", line=lineno)
            try:
                declared = int(m.group(1))
            except ValueError:  # more digits than int() converts
                raise ParseError("array length marker too long", line=lineno) from None
            idx = m.end()
            if idx < len(content) and content[idx] == "{":
                header, idx = _parse_header(content, idx, lineno)
                _expect_colon(content, idx, lineno)
                if content[idx + 1 :]:
                    raise ParseError("table header line must end at ':'", line=lineno)
                return self._parse_table(declared, tuple(header), depth, lineno)
            _expect_colon(content, idx, lineno)
            rest = content[idx + 1 :]
            if not rest:
                return self._parse_items(declared, depth, lineno)
            if rest[0] != " ":
                raise ParseError("expected space after ':'", line=lineno)
            cells = _split_cells(rest[1:], lineno)
            if len(cells) != declared:
                raise LengthMismatchError(declared, len(cells), line=lineno)
            return _new(Array, (Array, tuple(cells)))
        _expect_colon(content, idx, lineno)
        rest = content[idx + 1 :]
        if not rest:
            return self.parse_fields(depth + 1)
        if rest[0] != " ":
            raise ParseError("expected space after ':'", line=lineno)
        return _parse_scalar_rest(rest[1:], lineno)

    def _parse_table(self, declared: int, header: StructSignature, depth: int, lineno: int) -> Array:
        indents = self.indents
        numbers = self.numbers
        contents = self.contents
        pos = self.pos
        depth += 1
        rows: list[Value] = []
        while indents[pos] == depth:
            cells = _split_cells(contents[pos], numbers[pos])
            if len(cells) != len(header):
                raise ArityMismatchError(len(header), len(cells), row=len(rows) + 1)
            # header fields are distinct (checked in _parse_header); every
            # row shares the one key tuple
            rows.append(_new(Object, (Object, header, tuple(cells))))
            pos += 1
        self.pos = pos
        if indents[pos] > depth:
            raise self._unexpected_depth()
        if len(rows) != declared:
            raise LengthMismatchError(declared, len(rows), line=lineno)
        return _new(Array, (Array, tuple(rows)))

    def _parse_items(self, declared: int, depth: int, lineno: int) -> Array:
        if depth > MAX_NESTING:
            raise IndentError("nesting too deep", line=lineno)
        indents = self.indents
        contents = self.contents
        depth += 1
        items: list[Value] = []
        while indents[self.pos] == depth:
            pos = self.pos
            content = contents[pos]
            if content[0] != "-":
                break
            self.pos = pos + 1
            items.append(self._parse_item(content, depth, self.numbers[pos]))
        if indents[self.pos] > depth:
            raise self._unexpected_depth()
        if len(items) != declared:
            raise LengthMismatchError(declared, len(items), line=lineno)
        return _new(Array, (Array, tuple(items)))

    def _parse_item(self, content: str, depth: int, lineno: int) -> Value:
        if content == "-":
            return self.parse_fields(depth + 1)
        if not content.startswith("- "):
            raise ParseError("expected '- ' item", line=lineno)
        rest = content[2:]
        if rest.startswith("["):
            return self._parse_payload(content, 2, depth, lineno)
        return _parse_scalar_rest(rest, lineno)


def _parse_key(content: str, lineno: int) -> tuple[str, int]:
    if content[0] == '"':
        return _take_quoted(content, 0, lineno)
    i = _bare_key(content).end()
    if i == len(content):
        raise ParseError("expected ':' after key", line=lineno)
    if i == 0:
        raise ParseError("empty key must be quoted", line=lineno)
    return content[:i], i


def _expect_colon(content: str, idx: int, lineno: int) -> None:
    if idx >= len(content) or content[idx] != ":":
        raise ParseError("expected ':' after key", line=lineno)


def _parse_header(content: str, idx: int, lineno: int) -> tuple[list[str], int]:
    """The field names of ``{f1,f2,...}`` at ``idx``, and the index past ``}``."""
    idx += 1  # past '{'
    n = len(content)
    fields: list[str] = []
    while True:
        if idx >= n:
            raise ParseError("unterminated table header", line=lineno)
        if content[idx] == '"':
            name, idx = _take_quoted(content, idx, lineno)
        else:
            j = _header_field(content, idx).end()
            if j >= n:
                raise ParseError("unterminated table header", line=lineno)
            name = content[idx:j]
            if not name:
                raise ParseError("empty table header field", line=lineno)
            idx = j
        if name in fields:
            raise DuplicateKeyError(name, line=lineno)
        fields.append(name)
        if idx >= n or content[idx] not in ",}":
            raise ParseError("expected ',' or '}' in table header", line=lineno)
        if content[idx] == ",":
            idx += 1
            continue
        return fields, idx + 1


def _take_quoted(s: str, idx: int, lineno: int) -> tuple[str, int]:
    """Read a double-quoted token starting at s[idx]; returns (text, next index)."""
    m = _plain_quoted(s, idx)
    if m is not None:
        return m.group(1), m.end()
    idx += 1
    out: list[str] = []
    while True:
        end = _quoted_run(s, idx).end()
        out.append(s[idx:end])
        if end == len(s):
            raise ParseError("unterminated quoted string", line=lineno)
        if s[end] == '"':
            return "".join(out), end + 1
        escaped = s[end + 1 : end + 2]
        if escaped not in _UNESCAPE:
            raise ParseError("invalid escape in quoted string", line=lineno)
        out.append(_UNESCAPE[escaped])
        idx = end + 2


def _classify_bare(token: str):
    if token in _LITERALS:
        return _LITERALS[token]
    if _is_number(token):
        return _new(Number, (Number, token))
    return token


def _parse_scalar_rest(rest: str, lineno: int):
    """Whole remainder of a line as one stored scalar."""
    if rest.startswith('"'):
        text, idx = _take_quoted(rest, 0, lineno)
        if rest[idx:]:
            raise ParseError("trailing content after quoted string", line=lineno)
        return text
    return _classify_bare(rest)


def _split_cells(s: str, lineno: int) -> list:
    """Comma-separated stored scalar cells; quoted cells may contain commas.

    Text with no quote is split by ``str.split``; an empty piece is an empty
    cell.
    """
    if '"' not in s:
        tokens = s.split(",")
        if "" in tokens:
            raise ParseError("empty cell", line=lineno)
        # _classify_bare of each token, inlined
        return [
            _LITERALS[t] if t in _LITERALS else _new(Number, (Number, t)) if _is_number(t) else t for t in tokens
        ]
    cells: list[Value] = []
    idx = 0
    n = len(s)
    while True:
        if idx < n and s[idx] == '"':
            text, idx = _take_quoted(s, idx, lineno)
            cells.append(text)
            if idx < n and s[idx] != ",":
                raise ParseError("expected ',' after quoted cell", line=lineno)
        else:
            j = s.find(",", idx)
            j = n if j < 0 else j
            token = s[idx:j]
            if not token:
                raise ParseError("empty cell", line=lineno)
            cells.append(_classify_bare(token))
            idx = j
        if idx >= n:
            return cells
        idx += 1  # past ','
        if idx >= n:
            raise ParseError("empty cell", line=lineno)


@_collector_paused
def decode_toon(text: str, *, unwrap: bool = False) -> Value:
    """Strict inverse of encode_toon.

    Pass unwrap=True when the document is known to carry a wrapped
    non-object root (the encoder wraps those under WRAP_KEY); the flag
    travels outside the text, e.g. in a CLI header.
    """
    doc = _ToonParser(text).parse_document()
    if unwrap:
        if len(doc) != 1 or doc.keys != (WRAP_KEY,):
            raise ParseError(f"expected a single {WRAP_KEY!r} key to unwrap")
        return _box(doc[2][0])
    return doc
