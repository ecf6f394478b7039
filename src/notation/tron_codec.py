"""Class-table object notation: repeated object shapes become named classes.

A document is a header of ``class <Name>: f1,f2,...`` lines (blank line
after, when any exist) followed by a JSON-like body in which every object
whose key sequence earned a class is emitted positionally as
``Name(a1,a2,...)``. Shapes are keyed by their exact ordered key sequence,
since positional arguments make key order load-bearing. Compression comes
entirely from repetition: a shape earns a class when it occurs at least
twice (``_MIN_OCCURRENCES``), and a batch encoder shares one class table
across many documents.

This module owns the class table: it finds the shapes, names them, and
writes and reads the header. One census walk per root counts its shapes,
and every class table is made from censuses (see ``encode_tron_corpus``).
One renderer writes every header and body. A body is written by JSON's
walker given the class index, and read by JSON's one decoder
(``json_codec._decode``) given the class table, on the same two paths as
JSON text: every body reaches the same stdlib decoder in its marked
spelling, and ``Scanner`` reads the rest.
Both keep the same string rules (no unpaired surrogates), duplicate-key
check and nesting cap, under which an instance is one value and its args
are one value deeper.
"""

from __future__ import annotations

from .errors import DuplicateClassError, ParseError
from .json_codec import _decode, _emit
from .values import Array, Object, StructSignature, Value, _collector_paused, _unbox

__all__ = [
    "extract_classes",
    "encode_tron",
    "encode_tron_batch",
    "encode_tron_corpus",
    "decode_tron",
    "decode_tron_batch",
]

# a shape met once is written plainer as JSON: its class line costs more than its one instance saves
_MIN_OCCURRENCES = 2


def _class_name_for(i: int) -> str:
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


def _count_shapes(v: Object | Array, counts: dict[StructSignature, int]) -> None:
    """Count the shapes in v; scalar children are tested here, not visited."""
    if type(v) is Object:
        sig = v[1]
        counts[sig] = counts.get(sig, 0) + 1
        children = v[2]
    else:
        children = v[1]
    for x in children:
        t = type(x)
        if t is Object or t is Array:
            _count_shapes(x, counts)


def _census(roots: list[Value]) -> dict[StructSignature, int]:
    """{fields: occurrences} over the roots, in a depth-first, field-order walk of them in sequence."""
    counts: dict[StructSignature, int] = {}
    for root in roots:
        t = type(root)
        if t is Object or t is Array:
            _count_shapes(root, counts)
    return counts


def _index(counts: dict[StructSignature, int]) -> dict[StructSignature, str]:
    """{fields: name} for each shape counted at least twice, named in the census's order."""
    qualifying = [sig for sig, n in counts.items() if n >= _MIN_OCCURRENCES and _classable(sig)]
    return {sig: _class_name_for(i) for i, sig in enumerate(qualifying)}


def extract_classes(roots: list[Value]) -> dict[StructSignature, str]:
    """The class index: {fields: name} for each shape seen at least twice across all roots.

    Discovery order is a depth-first, field-order walk of the roots in
    sequence, so naming is deterministic.
    """
    return _index(_census(roots))


# ---------------------------------------------------------------------------
# Encoding.


def _render(index: dict[StructSignature, str], roots: list[Value]) -> str:
    """The class lines and a blank line, if any, then one body line per root.

    A body is the JSON walker's output with this class index.
    """
    out = [f"class {name}: {','.join(fields)}\n" for fields, name in index.items()]
    if out:
        out.append("\n")
    for root in roots:
        _emit(_unbox(root, "document"), out, index)
        out.append("\n")
    out.pop()
    return "".join(out)


@_collector_paused
def encode_tron(v: Value) -> str:
    return _render(extract_classes([v]), [v])


@_collector_paused
def encode_tron_batch(roots: list[Value]) -> str:
    """One shared class table, then each root's body on its own line."""
    if not roots:
        raise ValueError("batch must contain at least one document")
    return _render(extract_classes(roots), roots)


@_collector_paused
def encode_tron_corpus(roots: list[Value], batch: bool = False) -> tuple[list[str], str | None]:
    """Each root's ``encode_tron`` text, and with ``batch`` the roots' ``encode_tron_batch`` text.

    One census walk per root serves both class tables: the batch's counts
    are the roots' counts summed in order, which discovers the shapes in
    the order one walk of the roots in sequence would, so its classes get
    the same names. Without ``batch`` the batch text is None.
    """
    if batch and not roots:
        raise ValueError("batch must contain at least one document")
    censuses = [_census([root]) for root in roots]
    texts = [_render(_index(counts), [root]) for counts, root in zip(censuses, roots)]
    if not batch:
        return texts, None
    total: dict[StructSignature, int] = {}
    for counts in censuses:
        for sig, n in counts.items():
            total[sig] = total.get(sig, 0) + n
    return texts, _render(_index(total), roots)


# ---------------------------------------------------------------------------
# Decoding.


_CLASS_PREFIX = "class "


def _parse_class_line(line: str, lineno: int) -> tuple[str, StructSignature]:
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
    return name, tuple(fields)


def _split_header(text: str) -> tuple[dict[str, StructSignature], str]:
    """Read class lines off the top; returns (classes, body text)."""
    classes: dict[str, StructSignature] = {}
    start = 0
    lineno = 0
    while text.startswith(_CLASS_PREFIX, start):
        lineno += 1
        nl = text.find("\n", start)
        end = len(text) if nl < 0 else nl
        name, fields = _parse_class_line(text[start:end], lineno)
        if name in classes:
            raise DuplicateClassError(name)
        classes[name] = fields
        start = end + 1
    if classes:
        if not text.startswith("\n", start):
            raise ParseError("expected blank line after class declarations", line=lineno + 1)
        start += 1
    return classes, text[start:]


@_collector_paused
def decode_tron(text: str) -> Value:
    classes, body = _split_header(text)
    return _decode(body, classes)


@_collector_paused
def decode_tron_batch(text: str) -> list[Value]:
    """Strict inverse of encode_tron_batch: one document term per body line."""
    classes, body = _split_header(text)
    roots: list[Value] = []
    for line in body.split("\n"):
        if not line or line.isspace():
            continue
        roots.append(_decode(line, classes))
    if not roots:
        raise ParseError("batch has no document bodies")
    return roots
