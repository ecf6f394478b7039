"""Lossless JSON/TOON/TRON codecs over one document model, a pluggable
token meter, and a deterministic scripted tool-calling replay harness."""

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
    signature,
    to_python,
)
from .json_codec import JsonStyle, decode_json, encode_json
from .toon_codec import classify_array, decode_toon, encode_toon
from .tron_codec import (
    ClassDef,
    ClassTable,
    decode_tron,
    decode_tron_batch,
    encode_tron,
    encode_tron_batch,
    extract_classes,
)
from .tokens import (
    BpeTokenizer,
    ByteCountTokenizer,
    DeltaReport,
    TokenBreakdown,
    Tokenizer,
    WordRegexTokenizer,
    decompose,
    delta_vs_baseline,
    make_tokenizer,
)
from .agent import (
    Envelope,
    Final,
    LoopConfig,
    ParseFailure,
    ScriptedAgent,
    ScriptTurn,
    Span,
    Step,
    TableExecutor,
    ToolSchema,
    TrajectoryRecord,
    build_system_prompt,
    parse_envelope,
    run_trajectory,
)

__version__ = "0.1.0"
