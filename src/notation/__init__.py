"""Lossless JSON/TOON/TRON codecs over one document model, a pluggable
token meter, and a deterministic scripted tool-calling replay harness.

``import notation`` loads the document model and the three codecs. The
token meters (``tokens``), the format table (``formats``) and the replay
harness (``agent``) load on first use of the module or of a name it
re-exports, so the codec API and the ``measure``, ``convert`` and
``roundtrip`` commands never pay for the replay harness.
"""

from importlib import import_module as _import_module

from . import errors
from .values import (
    Array,
    Bool,
    GenProfile,
    Null,
    Number,
    Object,
    Text,
    Value,
    from_python,
    generate,
)
from .json_codec import decode_json, encode_json
from .toon_codec import classify_array, decode_toon, encode_toon
from .tron_codec import (
    decode_tron,
    decode_tron_batch,
    encode_tron,
    encode_tron_batch,
    encode_tron_corpus,
    extract_classes,
)

__version__ = "0.1.0"

# submodules loaded on first use, and the names re-exported from each
_LAZY = {
    "formats": (),
    "tokens": (
        "BpeTokenizer",
        "ByteCountTokenizer",
        "TokenBreakdown",
        "Tokenizer",
        "WordRegexTokenizer",
        "decompose",
        "delta_vs_baseline",
        "make_tokenizer",
    ),
    "agent": (
        "Envelope",
        "Final",
        "LoopConfig",
        "ParseFailure",
        "ScriptTurn",
        "Span",
        "Step",
        "TableExecutor",
        "ToolSchema",
        "TrajectoryRecord",
        "run_trajectory",
    ),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted(
    {name for name in globals() if not name.startswith("_")}
    | _LAZY.keys()
    | _OWNER.keys()
)


def __getattr__(name: str):
    # import_module, not ``from . import``: that form asks this hook for the
    # submodule again and recurses
    if name in _LAZY:
        return _import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_OWNER[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | __all__)
