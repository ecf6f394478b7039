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
from dataclasses import dataclass
from enum import Enum

from .errors import (
    ArityMismatchError,
    DuplicateKeyError,
    IndentError,
    LengthMismatchError,
    ParseError,
)
from .values import (
    NULL,
    NUMBER_LITERAL_RE,
    Array,
    Bool,
    Null,
    Number,
    Object,
    StructSignature,
    Text,
    Value,
    _trusted,
    is_scalar,
    signature,
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


def classify_array(arr: Array) -> tuple[ArrayShape, StructSignature | None]:
    """Pick the encoding for an array; tables need same-signature scalar rows."""
    if all(is_scalar(x) for x in arr.items):
        return ArrayShape.PRIMITIVE_INLINE, None
    if len(arr) >= TABLE_MIN_ROWS and all(isinstance(x, Object) for x in arr.items):
        sig = signature(arr.items[0])
        if sig and all(signature(x) == sig for x in arr.items):
            cells_ok = all(
                is_scalar(v) and not (isinstance(v, Text) and v.value == "")
                for x in arr.items
                for _, v in x.pairs
            )
            if cells_ok:
                return ArrayShape.UNIFORM_TABLE, sig
    return ArrayShape.ITEM_LIST, None


# ---------------------------------------------------------------------------
# Encoding.

# a bare scalar or key holding any of these must be quoted
_scalar_trigger = re.compile(r'[,:"\n\r{\[]').search
_key_trigger = re.compile(r'[,:"\n\r{\[}\]]').search
_QUOTE_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r"}
_quote_specials = re.compile(r'["\\\n\r]').sub


def _quote(s: str) -> str:
    return '"' + _quote_specials(lambda m: _QUOTE_ESCAPES[m.group()], s) + '"'


def _looks_reserved(s: str) -> bool:
    return s in ("true", "false", "null") or bool(NUMBER_LITERAL_RE.match(s))


def encode_scalar(v: Value) -> str:
    if isinstance(v, Null):
        return "null"
    if isinstance(v, Bool):
        return "true" if v.value else "false"
    if isinstance(v, Number):
        return v.literal
    if isinstance(v, Text):
        s = v.value
        if (
            not s
            or _looks_reserved(s)
            or _scalar_trigger(s)
            or s[0].isspace()
            or s[-1].isspace()
        ):
            return _quote(s)
        return s
    raise TypeError(f"not a scalar: {v!r}")


def _encode_key(s: str) -> str:
    # a bare key starting with '-' would read back as a list item
    if (
        not s
        or s[0] == "-"
        or _key_trigger(s)
        or s[0].isspace()
        or s[-1].isspace()
    ):
        return _quote(s)
    return s


def encode_toon(v: Value) -> str:
    """Encode a document; non-object roots get wrapped under WRAP_KEY.

    A blank line separates top-level fields.
    """
    root = v if isinstance(v, Object) else Object(((WRAP_KEY, v),))
    lines: list[str] = []
    for k, x in root.pairs:
        if lines:
            lines.append("")
        lines.extend(_encode_field(k, x, 0))
    return "\n".join(lines)


def _pad(depth: int) -> str:
    return " " * (depth * INDENT)


def _encode_field(key: str, v: Value, depth: int) -> list[str]:
    head = _pad(depth) + _encode_key(key)
    if is_scalar(v):
        return [f"{head}: {encode_scalar(v)}"]
    if isinstance(v, Object):
        lines = [f"{head}:"]
        for k, x in v.pairs:
            lines.extend(_encode_field(k, x, depth + 1))
        return lines
    if isinstance(v, Array):
        return _encode_array(head, v, depth)
    raise TypeError(f"not a Value: {v!r}")


def _encode_array(head: str, arr: Array, depth: int) -> list[str]:
    shape, sig = classify_array(arr)
    n = len(arr)
    if shape is ArrayShape.PRIMITIVE_INLINE:
        if n == 0:
            return [f"{head}[0]:"]
        cells = ",".join(encode_scalar(x) for x in arr.items)
        return [f"{head}[{n}]: {cells}"]
    if shape is ArrayShape.UNIFORM_TABLE:
        assert sig is not None
        header = ",".join(_encode_key(f) for f in sig)
        lines = [f"{head}[{n}]{{{header}}}:"]
        row_pad = _pad(depth + 1)
        for item in arr.items:
            assert isinstance(item, Object)
            lines.append(row_pad + ",".join(encode_scalar(x) for _, x in item.pairs))
        return lines
    lines = [f"{head}[{n}]:"]
    for item in arr.items:
        lines.extend(_encode_item(item, depth + 1))
    return lines


def _encode_item(v: Value, depth: int) -> list[str]:
    dash = _pad(depth) + "-"
    if is_scalar(v):
        return [f"{dash} {encode_scalar(v)}"]
    if isinstance(v, Object):
        lines = [dash]
        for k, x in v.pairs:
            lines.extend(_encode_field(k, x, depth + 1))
        return lines
    if isinstance(v, Array):
        return _encode_array(dash + " ", v, depth)
    raise TypeError(f"not a Value: {v!r}")


# ---------------------------------------------------------------------------
# Decoding.

_ARRAY_MARK_RE = re.compile(r"\[([0-9]+)\]")
_quoted_run = re.compile(r'[^"\\]*').match
_bare_key = re.compile(r"[^:\[]*").match
_UNESCAPE = {'"': '"', "\\": "\\", "n": "\n", "r": "\r", "t": "\t"}
_LITERALS = {"null": NULL, "true": Bool(True), "false": Bool(False)}

# nesting cap keeps hostile input from exhausting the interpreter stack
MAX_NESTING = 120


@dataclass
class _Line:
    number: int
    indent: int
    content: str


class _ToonParser:
    def __init__(self, text: str):
        self.lines: list[_Line] = []
        for i, raw in enumerate(text.split("\n"), start=1):
            if raw.endswith("\r"):
                raw = raw[:-1]
            if "\r" in raw:
                raise ParseError("bare carriage return in line", line=i)
            if not raw.strip():
                continue
            stripped = raw.lstrip(" ")
            indent_chars = raw[: len(raw) - len(stripped)]
            if stripped[0] == "\t" or "\t" in indent_chars:
                raise IndentError("tab in indentation", line=i)
            width = len(indent_chars)
            if width % INDENT:
                raise IndentError(f"indentation of {width} is not a multiple of {INDENT}", line=i)
            self.lines.append(_Line(i, width // INDENT, stripped))
        self.pos = 0

    def at_end(self) -> bool:
        return self.pos >= len(self.lines)

    def peek(self) -> _Line:
        return self.lines[self.pos]

    def parse_document(self) -> Object:
        pairs = self.parse_fields(0)
        if not self.at_end():
            line = self.peek()
            raise IndentError(f"unexpected indentation depth {line.indent}", line=line.number)
        return _trusted(Object, tuple(pairs))

    def parse_fields(self, depth: int) -> list[tuple[str, Value]]:
        if depth > MAX_NESTING and not self.at_end():
            raise IndentError("nesting too deep", line=self.peek().number)
        pairs: list[tuple[str, Value]] = []
        seen: set[str] = set()
        while not self.at_end() and self.peek().indent == depth:
            line = self.peek()
            if line.content.startswith("-"):
                break
            key, value = self.parse_entry(depth)
            if key in seen:
                raise DuplicateKeyError(key, line=line.number)
            seen.add(key)
            pairs.append((key, value))
        if not self.at_end() and self.peek().indent > depth:
            line = self.peek()
            raise IndentError(f"unexpected indentation depth {line.indent}", line=line.number)
        return pairs

    def parse_entry(self, depth: int) -> tuple[str, Value]:
        line = self.peek()
        self.pos += 1
        content = line.content
        key, idx = self._parse_key(content, line.number)
        return key, self._parse_payload(content, idx, depth, line.number)

    def _parse_key(self, content: str, lineno: int) -> tuple[str, int]:
        if content[0] == '"':
            return _take_quoted(content, 0, lineno)
        i = _bare_key(content).end()
        if i == len(content):
            raise ParseError("expected ':' after key", line=lineno)
        if i == 0:
            raise ParseError("empty key must be quoted", line=lineno)
        return content[:i], i

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
                header, idx = self._parse_header(content, idx, lineno)
                self._expect_colon_eol(content, idx, lineno)
                return self._parse_table(declared, header, depth, lineno)
            self._expect_colon(content, idx, lineno)
            rest = content[idx + 1 :]
            if not rest:
                return self._parse_items(declared, depth, lineno)
            if rest[0] != " ":
                raise ParseError("expected space after ':'", line=lineno)
            cells = _split_cells(rest[1:], lineno)
            if len(cells) != declared:
                raise LengthMismatchError(declared, len(cells), line=lineno)
            return _trusted(Array, tuple(cells))
        self._expect_colon(content, idx, lineno)
        rest = content[idx + 1 :]
        if not rest:
            return _trusted(Object, tuple(self.parse_fields(depth + 1)))
        if rest[0] != " ":
            raise ParseError("expected space after ':'", line=lineno)
        return _parse_scalar_rest(rest[1:], lineno)

    @staticmethod
    def _expect_colon(content: str, idx: int, lineno: int) -> None:
        if idx >= len(content) or content[idx] != ":":
            raise ParseError("expected ':' after key", line=lineno)

    def _expect_colon_eol(self, content: str, idx: int, lineno: int) -> None:
        self._expect_colon(content, idx, lineno)
        if content[idx + 1 :]:
            raise ParseError("table header line must end at ':'", line=lineno)

    def _parse_header(self, content: str, idx: int, lineno: int) -> tuple[list[str], int]:
        idx += 1  # past '{'
        fields: list[str] = []
        while True:
            if idx >= len(content):
                raise ParseError("unterminated table header", line=lineno)
            if content[idx] == '"':
                name, idx = _take_quoted(content, idx, lineno)
            else:
                j = idx
                while j < len(content) and content[j] not in ",}":
                    j += 1
                if j >= len(content):
                    raise ParseError("unterminated table header", line=lineno)
                name = content[idx:j]
                if not name:
                    raise ParseError("empty table header field", line=lineno)
                idx = j
            if name in fields:
                raise DuplicateKeyError(name, line=lineno)
            fields.append(name)
            if idx >= len(content) or content[idx] not in ",}":
                raise ParseError("expected ',' or '}' in table header", line=lineno)
            if content[idx] == ",":
                idx += 1
                continue
            return fields, idx + 1

    def _parse_table(self, declared: int, header: list[str], depth: int, lineno: int) -> Array:
        rows: list[Value] = []
        while not self.at_end() and self.peek().indent == depth + 1:
            line = self.peek()
            self.pos += 1
            cells = _split_cells(line.content, line.number)
            if len(cells) != len(header):
                raise ArityMismatchError(len(header), len(cells), row=len(rows) + 1)
            # header fields are distinct (checked in _parse_header)
            rows.append(_trusted(Object, tuple(zip(header, cells))))
        if not self.at_end() and self.peek().indent > depth + 1:
            line = self.peek()
            raise IndentError(f"unexpected indentation depth {line.indent}", line=line.number)
        if len(rows) != declared:
            raise LengthMismatchError(declared, len(rows), line=lineno)
        return _trusted(Array, tuple(rows))

    def _parse_items(self, declared: int, depth: int, lineno: int) -> Array:
        if depth > MAX_NESTING:
            raise IndentError("nesting too deep", line=lineno)
        items: list[Value] = []
        while not self.at_end() and self.peek().indent == depth + 1:
            line = self.peek()
            if not line.content.startswith("-"):
                break
            self.pos += 1
            items.append(self._parse_item(line, depth + 1))
        if not self.at_end() and self.peek().indent > depth + 1:
            line = self.peek()
            raise IndentError(f"unexpected indentation depth {line.indent}", line=line.number)
        if len(items) != declared:
            raise LengthMismatchError(declared, len(items), line=lineno)
        return _trusted(Array, tuple(items))

    def _parse_item(self, line: _Line, depth: int) -> Value:
        content = line.content
        if content == "-":
            return _trusted(Object, tuple(self.parse_fields(depth + 1)))
        if not content.startswith("- "):
            raise ParseError("expected '- ' item", line=line.number)
        rest = content[2:]
        if rest.startswith("["):
            return self._parse_payload(content, 2, depth, line.number)
        return _parse_scalar_rest(rest, line.number)


def _take_quoted(s: str, idx: int, lineno: int) -> tuple[str, int]:
    """Read a double-quoted token starting at s[idx]; returns (text, next index)."""
    assert s[idx] == '"'
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


def _classify_bare(token: str) -> Value:
    literal = _LITERALS.get(token)
    if literal is not None:
        return literal
    if NUMBER_LITERAL_RE.match(token):
        return _trusted(Number, token)
    return Text(token)


def _parse_scalar_rest(rest: str, lineno: int) -> Value:
    """Whole remainder of a line as one scalar."""
    if rest.startswith('"'):
        text, idx = _take_quoted(rest, 0, lineno)
        if rest[idx:]:
            raise ParseError("trailing content after quoted string", line=lineno)
        return Text(text)
    return _classify_bare(rest)


def _split_cells(s: str, lineno: int) -> list[Value]:
    """Comma-separated scalar cells; quoted cells may contain commas."""
    cells: list[Value] = []
    idx = 0
    n = len(s)
    while True:
        if idx < n and s[idx] == '"':
            text, idx = _take_quoted(s, idx, lineno)
            cells.append(Text(text))
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
        return doc.pairs[0][1]
    return doc
