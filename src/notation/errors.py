"""Decode-time error types shared by the three codecs."""

from __future__ import annotations

__all__ = [
    "CodecError",
    "ParseError",
    "DuplicateKeyError",
    "LengthMismatchError",
    "ArityMismatchError",
    "IndentError",
    "UnknownClassError",
    "DuplicateClassError",
]


class CodecError(ValueError):
    """Base class for every strict-decoding failure."""


def _where(line: int | None, pos: int | None = None) -> str:
    """A message's location suffix: the line when known, else the position, else nothing."""
    if line is not None:
        return f" at line {line}"
    return "" if pos is None else f" at position {pos}"


class ParseError(CodecError):
    def __init__(self, message: str, *, pos: int | None = None, line: int | None = None):
        self.pos = pos
        self.line = line
        super().__init__(f"{message}{_where(line, pos)}")
        self.reason = message


class DuplicateKeyError(CodecError):
    def __init__(self, key: str, *, pos: int | None = None, line: int | None = None):
        self.key = key
        self.pos = pos
        self.line = line
        super().__init__(f"duplicate key {key!r}")


class LengthMismatchError(CodecError):
    def __init__(self, declared: int, actual: int, *, line: int | None = None):
        self.declared = declared
        self.actual = actual
        self.line = line
        super().__init__(f"declared length {declared} but found {actual} elements")


class ArityMismatchError(CodecError):
    def __init__(self, expected: int, actual: int, *, row: int | None = None, class_name: str | None = None):
        self.expected = expected
        self.actual = actual
        self.row = row
        self.class_name = class_name
        if class_name is not None:
            what = f"instance of class {class_name}"
        elif row is not None:
            what = f"table row {row}"
        else:
            what = "row"
        super().__init__(f"{what} has {actual} fields, expected {expected}")


class IndentError(CodecError):
    def __init__(self, message: str, *, line: int | None = None):
        self.line = line
        super().__init__(f"{message}{_where(line)}")


class UnknownClassError(CodecError):
    def __init__(self, name: str, *, pos: int | None = None):
        self.name = name
        self.pos = pos
        super().__init__(f"reference to undeclared class {name}")


class DuplicateClassError(CodecError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"class {name} declared twice")


class _FileDecodeError(CodecError):
    """A file that does not decode: where (its path, and the line when one failed), then the codec's error."""

    def __init__(self, where: str, error: CodecError):
        super().__init__(f"{where}: {type(error).__name__}: {error}")
