"""Class-table object notation: repeated object shapes become named classes.

A document is a header of ``class <Name>: f1,f2,...`` lines (blank line
after, when any exist) followed by a JSON-like body in which every object
whose key sequence earned a class is emitted positionally as
``Name(a1,a2,...)``. Shapes are keyed by their exact ordered key sequence,
since positional arguments make key order load-bearing. Compression comes
entirely from repetition, so a batch encoder shares one class table across
many documents.

The body decoder is the JSON scanner with one more kind of value, so it
shares that scanner's regex runs and its string rules (no unpaired
surrogates); an instance head ``Name(`` is read with one match.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    ArityMismatchError,
    DuplicateClassError,
    ParseError,
    UnknownClassError,
)
from .json_codec import Scanner, _emit
from .values import Array, Object, StructSignature, Value, _trusted

__all__ = [
    "ClassDef",
    "ClassTable",
    "extract_classes",
    "encode_tron",
    "encode_tron_batch",
    "decode_tron",
    "decode_tron_batch",
]

DEFAULT_MIN_OCCURRENCES = 2


@dataclass(frozen=True)
class ClassDef:
    name: str
    fields: StructSignature

    def __post_init__(self) -> None:
        if not self.fields:
            raise ValueError("a class needs at least one field")

    def header_line(self) -> str:
        return f"class {self.name}: {','.join(self.fields)}"


@dataclass(frozen=True)
class ClassTable:
    defs: tuple[ClassDef, ...]

    def __post_init__(self) -> None:
        names = [d.name for d in self.defs]
        sigs = [d.fields for d in self.defs]
        if len(set(names)) != len(names) or len(set(sigs)) != len(sigs):
            raise ValueError("class table must map names and signatures one-to-one")

    def __len__(self) -> int:
        return len(self.defs)

    def header_lines(self) -> list[str]:
        return [d.header_line() for d in self.defs]


def class_name_for(i: int) -> str:
    """0 -> A, 25 -> Z, 26 -> AA, ... (bijective base 26)."""
    out = []
    i += 1
    while i:
        i, rem = divmod(i - 1, 26)
        out.append(chr(ord("A") + rem))
    return "".join(reversed(out))


def _classable(sig: StructSignature) -> bool:
    # field lists live on one comma-separated header line
    return bool(sig) and all(f and "," not in f and "\n" not in f and "\r" not in f for f in sig)


def _count_shapes(v: Value, counts: dict[StructSignature, int]) -> None:
    t = type(v)
    if t is Object:
        sig = v.keys
        counts[sig] = counts.get(sig, 0) + 1
        for _, x in v.pairs:
            _count_shapes(x, counts)
    elif t is Array:
        for x in v.items:
            _count_shapes(x, counts)


def extract_classes(roots: list[Value], min_occurrences: int = DEFAULT_MIN_OCCURRENCES) -> ClassTable:
    """Count object shapes across all roots; shapes seen often enough get a class.

    Discovery order is a depth-first, field-order walk of the roots in
    sequence, so naming is deterministic.
    """
    if min_occurrences < 1:
        raise ValueError("min_occurrences must be >= 1")
    counts: dict[StructSignature, int] = {}
    for root in roots:
        _count_shapes(root, counts)
    qualifying = [sig for sig, n in counts.items() if n >= min_occurrences and _classable(sig)]
    return ClassTable(tuple(ClassDef(class_name_for(i), sig) for i, sig in enumerate(qualifying)))


# ---------------------------------------------------------------------------
# Encoding.


def _render(table: ClassTable, roots: list[Value]) -> str:
    """The class lines and a blank line, if any, then one body line per root.

    A body is the JSON walker's output with this table's class index.
    """
    index = {d.fields: d.name for d in table.defs}
    out: list[str] = []
    if index:
        out.append("\n".join(table.header_lines()) + "\n\n")
    for root in roots:
        _emit(root, out, index)
        out.append("\n")
    out.pop()
    return "".join(out)


def encode_tron(v: Value, min_occurrences: int = DEFAULT_MIN_OCCURRENCES) -> str:
    return _render(extract_classes([v], min_occurrences), [v])


def encode_tron_batch(roots: list[Value], min_occurrences: int = DEFAULT_MIN_OCCURRENCES) -> str:
    """One shared class table, then each root's body on its own line."""
    if not roots:
        raise ValueError("batch must contain at least one document")
    return _render(extract_classes(roots, min_occurrences), roots)


# ---------------------------------------------------------------------------
# Decoding.


_instance_head = re.compile(r"([A-Z]+)\(").match
_class_name = re.compile(r"[A-Z]*").match


class _TronScanner(Scanner):
    def __init__(self, text: str, classes: dict[str, StructSignature]):
        super().__init__(text)
        self.classes = classes

    def dispatch_value(self) -> Value:
        if "A" <= self.text[self.pos : self.pos + 1] <= "Z":
            return self._parse_instance()
        return super().dispatch_value()

    def _parse_instance(self) -> Object:
        start = self.pos
        m = _instance_head(self.text, start)
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
        # declared fields are distinct (checked in _parse_class_line)
        return _trusted(Object, tuple(zip(fields, args)))


_CLASS_PREFIX = "class "


def _parse_class_line(line: str, lineno: int) -> ClassDef:
    rest = line[len(_CLASS_PREFIX) :]
    sep = rest.find(": ")
    if sep < 0:
        raise ParseError("malformed class declaration", line=lineno)
    name = rest[:sep]
    if not name or not all("A" <= c <= "Z" for c in name):
        raise ParseError(f"invalid class name {name!r}", line=lineno)
    fields = rest[sep + 2 :].split(",")
    if not fields or any(not f for f in fields):
        raise ParseError("empty field in class declaration", line=lineno)
    if len(set(fields)) != len(fields):
        raise ParseError("repeated field in class declaration", line=lineno)
    return ClassDef(name, tuple(fields))


def _split_header(text: str) -> tuple[dict[str, StructSignature], str]:
    """Read class lines off the top; returns (classes, body text)."""
    classes: dict[str, StructSignature] = {}
    rest = text
    lineno = 0
    while rest.startswith(_CLASS_PREFIX):
        lineno += 1
        nl = rest.find("\n")
        line, rest = (rest, "") if nl < 0 else (rest[:nl], rest[nl + 1 :])
        cdef = _parse_class_line(line, lineno)
        if cdef.name in classes:
            raise DuplicateClassError(cdef.name)
        classes[cdef.name] = cdef.fields
    if classes:
        if not rest.startswith("\n"):
            raise ParseError("expected blank line after class declarations", line=lineno + 1)
        rest = rest[1:]
    return classes, rest


def decode_tron(text: str) -> Value:
    classes, body = _split_header(text)
    return _TronScanner(body, classes).parse_document()


def decode_tron_batch(text: str) -> list[Value]:
    """Strict inverse of encode_tron_batch: one document term per body line."""
    classes, body = _split_header(text)
    roots: list[Value] = []
    for line in body.split("\n"):
        if not line.strip():
            continue
        roots.append(_TronScanner(line, classes).parse_document())
    if not roots:
        raise ParseError("batch has no document bodies")
    return roots
