"""The one table of formats: every fact the rest of the program keeps about one.

Adding a format is adding an entry to ``REGISTRY``; the CLI choices, the
prompt notes, the measure table, the round-trip check and the replay loop
all read it. Codec functions are looked up on the entry's module at each
call, never held in the table, so a function swapped on its module (a
test's monkeypatch, a tracer's timing wrapper) is the one that runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import ModuleType

from . import json_codec, toon_codec, tron_codec
from .values import Value

__all__ = ["Format", "REGISTRY", "FORMATS", "BASELINE", "MODES", "lookup", "encode_doc", "decode_doc", "encode_batch", "decode_batch"]


@dataclass(frozen=True)
class Format:
    """A format's codec module (``encode_<name>``, ``decode_<name>``) and its traits."""

    name: str
    codec: ModuleType
    note: str  # how the format reads, for the system prompt
    wraps_root: bool = False  # a non-object root is encoded under a synthetic key
    keeps_indent: bool = False  # leading whitespace is significant, so never strip() a document
    batched: bool = False  # the codec also has encode_<name>_batch and decode_<name>_batch

    def __post_init__(self) -> None:
        # the codec's attribute names, fixed here so that no call builds a string
        set_ = object.__setattr__
        set_(self, "encoder", f"encode_{self.name}")
        set_(self, "decoder", f"decode_{self.name}")
        set_(self, "batch_encoder", f"{self.encoder}_batch")
        set_(self, "batch_decoder", f"{self.decoder}_batch")


REGISTRY = {
    f.name: f
    for f in (
        Format(
            "json",
            json_codec,
            'JSON: objects are {"key":value,...}, arrays are [v1,v2,...], strings are double-quoted.',
        ),
        Format(
            "toon",
            toon_codec,
            "TOON: one field per line as `key: value`; nested objects indent two spaces under "
            "`key:`; scalar arrays inline as `key[N]: v1,v2,...`; arrays of same-shape objects "
            "as `key[N]{f1,f2}:` with one comma-separated row per line; other arrays as "
            "`key[N]:` with `- ` items.",
            wraps_root=True,
            keeps_indent=True,
        ),
        Format(
            "tron",
            tron_codec,
            "TRON: optional `class X: f1,f2` lines declare repeated object shapes, then a blank "
            "line, then a JSON-like body where classed objects appear positionally as X(v1,v2).",
            batched=True,
        ),
    )
}

FORMATS = tuple(REGISTRY)

# the format every delta is measured against, and the default wherever one is needed
BASELINE = "json"

# the replay modes: schemas and results go in the target format, and in "full" the calls do too
MODES = ("input_only", "full")


def lookup(fmt: str) -> Format:
    try:
        return REGISTRY[fmt]
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}") from None


def encode_doc(v: Value, fmt: str) -> str:
    f = lookup(fmt)
    return getattr(f.codec, f.encoder)(v)


def decode_doc(text: str, fmt: str, *, unwrap: bool = False) -> Value:
    """Decode one document; ``unwrap`` undoes the synthetic root of a ``wraps_root`` format."""
    f = lookup(fmt)
    decode = getattr(f.codec, f.decoder)
    return decode(text, unwrap=unwrap) if f.wraps_root else decode(text)


def encode_batch(values: list[Value], fmt: str) -> str:
    """Encode documents as one batch, in a format whose entry is ``batched``."""
    f = lookup(fmt)
    return getattr(f.codec, f.batch_encoder)(values)


def decode_batch(text: str, fmt: str) -> list[Value]:
    f = lookup(fmt)
    return getattr(f.codec, f.batch_decoder)(text)
