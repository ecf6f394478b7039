"""Scripted tool-calling loop with format substitution at three points.

The loop swaps the serialization of (1) the tool-schema block in the
system prompt, (2) the agent's emitted call documents, and (3) the tool
results appended as observations. The agent itself replays a scripted
list of envelope intents, so runs are deterministic and the only live
machinery is serialization, strict parsing, and failure handling: a turn
that fails to parse costs an extra iteration (the cascade), which the
trajectory record tracks span-by-span for the token meter.
"""

from __future__ import annotations

import random
from pathlib import Path

from ._memo import Memo
from ._record import record
from .errors import CodecError, _FileDecodeError
from .formats import BASELINE, FORMATS, MODES, REGISTRY, decode_doc, encode_batch, encode_doc, lookup
from .json_codec import decode_json, encode_json
from .values import Array, Bool, Object, Text, Value

# The replay loop builds Span and TurnRecord, made on every turn, with tuple.__new__,
# as the decoders build nodes: a namedtuple's own __new__ costs about twice as much.
# The parse path runs once per distinct emission, so it uses the constructors, which
# run ParseFailure's stage check. A record that gains a check in __new__ must go back
# to being built by its constructor.
_new = tuple.__new__

__all__ = [
    "ToolSchema",
    "Step",
    "Final",
    "Envelope",
    "LoopConfig",
    "ParseFailure",
    "AbortedTrajectoryError",
    "ScriptExhaustedError",
    "Span",
    "TurnRecord",
    "TrajectoryRecord",
    "ScriptTurn",
    "without_corruption",
    "TableExecutor",
    "MUTATOR_KINDS",
    "corrupt_text",
    "parse_envelope_outcome",
    "build_system_prompt_spans",
    "run_trajectory",
    "run_with_reference",
    "load_catalog",
    "load_executor",
    "load_trace",
]

THINK_OPEN = "<think>"
THINK_CLOSE = "</think>"
FENCE = "```"

STEP_KEYS = frozenset(("thought", "action", "arguments"))
FINAL_KEYS = frozenset(("final_answer",))


class ToolSchema(record("ToolSchema", "name", "description", "parameters")):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ToolSchema:
        self = super().__new__(cls, *args, **kwargs)
        if not self.name:
            raise ValueError("tool name must be non-empty")
        return self

    def to_value(self) -> Object:
        return Object(
            (
                ("name", Text(self.name)),
                ("description", Text(self.description)),
                ("parameters", self.parameters),
            )
        )

    @classmethod
    def from_value(cls, v: Value) -> "ToolSchema":
        if not isinstance(v, Object):
            raise ValueError("tool schema must be an object")
        name = v.get("name")
        desc = v.get("description")
        params = v.get("parameters")
        if not isinstance(name, Text) or not isinstance(desc, Text) or not isinstance(params, Object):
            raise ValueError("tool schema needs name, description and parameters")
        return cls(name.value, desc.value, params)


class Step(record("Step", "thought", "action", "arguments")):
    __slots__ = ()


class Final(record("Final", "answer")):
    __slots__ = ()


Envelope = Step | Final


class LoopConfig(
    record("LoopConfig", format=BASELINE, mode="input_only", max_iterations=20, failure_rate=0.0, seed=0)
):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> LoopConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        # a bool is an int to isinstance, but not a setting any numeric field takes
        if not isinstance(self.max_iterations, int) or isinstance(self.max_iterations, bool):
            raise TypeError(f"max_iterations must be an int, not {type(self.max_iterations).__name__}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not isinstance(self.failure_rate, (int, float)) or isinstance(self.failure_rate, bool):
            raise TypeError(f"failure_rate must be an int or float, not {type(self.failure_rate).__name__}")
        if not (0.0 <= self.failure_rate <= 1.0):
            raise ValueError("failure_rate must be in [0, 1]")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise TypeError(f"seed must be an int, not {type(self.seed).__name__}")
        return self

    @property
    def output_format(self) -> str:
        return self.format if self.mode == "full" else BASELINE


class ParseFailure(record("ParseFailure", "stage", "detail")):
    """A turn that could not become an Envelope; ``stage`` says which gate failed."""

    __slots__ = ()
    STAGES = ("think", "fence", "decode", "shape")

    def __new__(cls, *args, **kwargs) -> ParseFailure:
        self = super().__new__(cls, *args, **kwargs)
        if self.stage not in cls.STAGES:
            raise ValueError(f"unknown parse stage {self.stage!r}; expected one of {', '.join(cls.STAGES)}")
        return self


class AbortedTrajectoryError(Exception):
    """Executor had no entry for a call; a broken fixture, not a measurement."""

    def __init__(self, tool: str, args_text: str):
        self.tool = tool
        self.args_text = args_text
        super().__init__(f"no executor entry for tool {tool!r} with args {args_text}")


class ScriptExhaustedError(Exception):
    pass


# ---------------------------------------------------------------------------
# Envelope parsing (think-strip, fence-extract, strict decode, shape).


def _value_to_envelope(v: Value) -> Envelope | ParseFailure:
    if not isinstance(v, Object):
        return ParseFailure("shape", "document root must be an object")
    key_set = frozenset(v.keys)
    if key_set == STEP_KEYS:
        thought = v.get("thought")
        action = v.get("action")
        if not isinstance(thought, Text) or not isinstance(action, Text):
            return ParseFailure("shape", "thought and action must be text")
        return Step(thought.value, action.value, v.get("arguments"))
    if key_set == FINAL_KEYS:
        answer = v.get("final_answer")
        if not isinstance(answer, Text):
            return ParseFailure("shape", "final_answer must be text")
        return Final(answer.value)
    return ParseFailure("shape", f"unexpected key set {sorted(key_set)}")


class ParseOutcome(record("ParseOutcome", "envelope", "failure", "document")):
    __slots__ = ()


def parse_envelope_outcome(raw: str, expected_format: str) -> ParseOutcome:
    """Strip a think block, extract a fence, strictly decode, check the envelope's shape.

    An outcome is a pure function of the two strings, so each distinct pair is parsed once
    per memo lifetime (see ``_parse_memo``) and a repeat gets back the same outcome."""
    key = f"{expected_format}\n{raw}"
    outcome = _parse_memo.get(key)
    if outcome is None:
        outcome = _parse_envelope(raw, expected_format)
        # an unknown format can still end at think or fence; such an outcome is not kept
        if expected_format in REGISTRY:
            _parse_memo.keep(key, outcome)
    return outcome


def _parse_envelope(raw: str, expected_format: str) -> ParseOutcome:
    text = raw
    lstripped = text.lstrip()
    if lstripped.startswith(THINK_OPEN):
        close = lstripped.find(THINK_CLOSE)
        if close < 0:
            return ParseOutcome(None, ParseFailure("think", "unterminated think block"), "")
        text = lstripped[close + len(THINK_CLOSE) :]
    open_idx = text.find(FENCE)
    if open_idx >= 0:
        line_end = text.find("\n", open_idx)
        if line_end < 0:
            return ParseOutcome(None, ParseFailure("fence", "no content after opening fence"), "")
        close_idx = text.find(FENCE, line_end + 1)
        if close_idx < 0:
            return ParseOutcome(None, ParseFailure("fence", "unterminated fence"), "")
        text = text[line_end + 1 : close_idx]
        if text.endswith("\n"):
            text = text[:-1]
    document = text if lookup(expected_format).keeps_indent else text.strip()
    try:
        value = decode_doc(document, expected_format)
    except CodecError as e:
        return ParseOutcome(None, ParseFailure("decode", str(e)), document)
    envelope = _value_to_envelope(value)
    if type(envelope) is ParseFailure:
        return ParseOutcome(None, envelope, document)
    return ParseOutcome(envelope, None, document)


# ---------------------------------------------------------------------------
# Failure injection.

MUTATOR_KINDS = ("truncate_line", "swap_delimiter", "rename_action")


def corrupt_text(text: str, kind: str) -> str:
    """Deterministic single-point corruptions mirroring real emission faults."""
    if kind == "truncate_line":
        cut = text.rfind("\n")
        return text[:cut] if cut > 0 else text[: max(1, len(text) - 6)]
    if kind == "swap_delimiter":
        for ch, repl in ((":", ";"), (",", ";"), ("{", "(")):
            if ch in text:
                return text.replace(ch, repl, 1)
        return text + ")"
    if kind == "rename_action":
        return text.replace("action", "tool", 1)
    raise ValueError(f"unknown mutator {kind!r}")


# ---------------------------------------------------------------------------
# Trajectory records.


class Span(record("Span", "text", "origin", "direction", "turn")):
    """``origin`` is schema, call, result or other; ``direction`` is prompt or completion."""

    __slots__ = ()


class TurnRecord(record("TurnRecord", "raw_text", "outcome", "error")):
    """``outcome`` is "step", "final" or a ParseFailure stage, and ``error`` that failure's detail or None."""

    __slots__ = ()


class TrajectoryRecord(record("TrajectoryRecord", "format", "mode", "turns", "spans", "status", "final_answer")):
    """One run, built when it ends: ``turns`` and ``spans`` are lists, ``status``
    is "final" or "iteration_cap", and ``final_answer`` is None unless final."""

    __slots__ = ()

    @property
    def iterations(self) -> int:
        return len(self.turns)

    @property
    def cascade_count(self) -> int:
        """Parse-failed turns that forced a retry turn after them."""
        return sum(
            1
            for i, t in enumerate(self.turns)
            if t.outcome not in ("step", "final") and i < len(self.turns) - 1
        )


# ---------------------------------------------------------------------------
# Script, executor, prompt.


class ScriptTurn(record("ScriptTurn", "intent", corrupt=None, think=None, fenced=False)):
    """An envelope-shaped ``intent``; the mutator kind ``corrupt`` is applied to
    its first emission, ``think`` is emitted as a leading think block, and
    ``fenced`` wraps the document in a code fence. A script is a tuple of
    these, replayed in order; a turn is re-emitted until it parses."""

    __slots__ = ()


def without_corruption(script: tuple[ScriptTurn, ...]) -> tuple[ScriptTurn, ...]:
    """Same script with every corruption mark removed (for reference runs); clean turns are reused."""
    return tuple(t if t.corrupt is None else t._replace(corrupt=None) for t in script)


class TableExecutor:
    """Mock tool runtime: exact (tool name, argument value) -> result lookups.

    Two values are equal exactly when their minimal JSON texts are, so this matches the same calls as
    minimal-JSON text keys would; only a miss encodes the arguments, for its message."""

    def __init__(self, table: dict[tuple[str, Value], Value]):
        self.table = dict(table)

    def lookup(self, tool: str, args: Value) -> Value:
        try:
            return self.table[(tool, args)]
        except KeyError:
            raise AbortedTrajectoryError(tool, encode_json(args)) from None


_STEP_TEMPLATE = Object(
    (
        ("thought", Text("I need the forecast before answering.")),
        ("action", Text("tool_name")),
        ("arguments", Object((("city", Text("Boulder")),))),
    )
)

_FINAL_TEMPLATE = Object((("final_answer", Text("The forecast is sunny.")),))


# A sweep renders the same fixture values over and over: one catalog, and a
# few dozen intents and tool results, each in a few formats. So the loop
# renders each once per format and keeps the text. The memos are keyed by
# the identity of the values, since a tuple does not cache its hash and
# hashing a tool-result tree on every turn would walk all of it. Each entry
# holds the objects it is keyed by, so their ids cannot be reused while it
# lives; an equal but distinct value is rendered again. A full memo starts
# over, so the sizes bound what a long-lived process holds. An id cannot be
# read back into its value, so the memos read with get and fill with keep.
# The loop also emits the same texts over and over: a target run and its
# clean reference emit the same calls, and so do the cells of a sweep. A parse
# outcome is a pure function of the text and the format, so the parse memo is
# keyed by their contents. Each distinct emission is strictly parsed once per
# memo lifetime, and its failure is still counted on every turn it occurs.
# (ids of the catalog's schemas, format, output format) -> (catalog, spans)
_prompt_memo = Memo(None, 16)
# (id of the value, format) -> (value, text)
_doc_memo = Memo(None, 1024)
# "format\nemission" -> ParseOutcome; a longer key is parsed on each use
_parse_memo = Memo(None, 1024, 4096)


def build_system_prompt_spans(catalog: list[ToolSchema], cfg: LoopConfig) -> list[Span]:
    """System prompt as origin-tagged spans; concatenation is the prompt text."""
    if not catalog:
        raise ValueError("catalog must be non-empty")
    catalog = tuple(catalog)
    key = (tuple(map(id, catalog)), cfg.format, cfg.output_format)
    hit = _prompt_memo.get(key)
    if hit is not None:
        return list(hit[1])
    spans = _prompt_spans(catalog, cfg.format, cfg.output_format)
    _prompt_memo.keep(key, (catalog, spans))
    return list(spans)


def _prompt_spans(catalog: tuple[ToolSchema, ...], fmt: str, out_fmt: str) -> tuple[Span, ...]:
    intro = [
        "You are a tool-calling agent. Solve the task with the tools below.",
        f"Tool schemas and results use {fmt.upper()}. {REGISTRY[fmt].note}",
    ]
    if out_fmt != fmt:
        intro.append(f"Your responses must use {out_fmt.upper()}. {REGISTRY[out_fmt].note}")
    intro.append("\nTools:\n")
    spans = [Span("\n".join(intro) + "\n", "other", "prompt", 0)]
    if REGISTRY[fmt].batched:
        batch = encode_batch([s.to_value() for s in catalog], fmt)
        spans.append(Span(batch, "schema", "prompt", 0))
    else:
        for i, schema in enumerate(catalog):
            if i:
                spans.append(Span("\n\n", "other", "prompt", 0))
            spans.append(Span(encode_doc(schema.to_value(), fmt), "schema", "prompt", 0))
    tail = (
        f"\n\nRespond each turn with exactly one stand-alone {out_fmt.upper()} document and "
        "nothing else. To call a tool:\n\n"
        f"{encode_doc(_STEP_TEMPLATE, out_fmt)}\n\n"
        "To finish:\n\n"
        f"{encode_doc(_FINAL_TEMPLATE, out_fmt)}\n"
    )
    spans.append(Span(tail, "other", "prompt", 0))
    return tuple(spans)


def _render_doc(v: Value, fmt: str) -> str:
    hit = _doc_memo.get((id(v), fmt))
    if hit is not None:
        return hit[1]
    text = encode_doc(v, fmt)
    _doc_memo.keep((id(v), fmt), (v, text))
    return text


def _error_observation(stage: str, out_fmt: str) -> str:
    return (
        f"Your last response could not be processed (failed at: {stage}). Reply with one "
        f"{out_fmt.upper()} document whose keys are thought, action, arguments — or "
        "final_answer to finish."
    )


def _render_emission(turn: ScriptTurn, out_fmt: str) -> str:
    doc = _render_doc(turn.intent, out_fmt)
    if turn.fenced:
        doc = f"{FENCE}{out_fmt}\n{doc}\n{FENCE}"
    if turn.think is not None:
        doc = f"{THINK_OPEN}{turn.think}{THINK_CLOSE}\n{doc}"
    return doc


def _completion_spans(raw: str, envelope: Envelope | None, doc: str, turn: int) -> list[Span]:
    """Split a raw emission into chrome and the call document ``doc`` of a parsed ``envelope``."""
    if type(envelope) is not Step:
        return [_new(Span, (raw, "other", "completion", turn))]
    # doc is in raw: parse_envelope_outcome only slices raw or an equal text it parsed
    # before, and no empty text decodes to a Step
    i = raw.find(doc)
    spans = []
    if i:
        spans.append(_new(Span, (raw[:i], "other", "completion", turn)))
    spans.append(_new(Span, (doc, "call", "completion", turn)))
    if raw[i + len(doc) :]:
        spans.append(_new(Span, (raw[i + len(doc) :], "other", "completion", turn)))
    return spans


def run_trajectory(
    task: str,
    script: tuple[ScriptTurn, ...],
    executor: TableExecutor,
    catalog: list[ToolSchema],
    cfg: LoopConfig,
) -> TrajectoryRecord:
    """Drive the loop to a final answer, the iteration cap, or an abort."""
    spans = build_system_prompt_spans(catalog, cfg)
    spans.append(_new(Span, (f"\nTask: {task}\n", "other", "prompt", 0)))
    turns: list[TurnRecord] = []
    status, answer = "iteration_cap", None
    tool_names = {s.name for s in catalog}
    out_fmt = cfg.output_format
    failure_rate = cfg.failure_rate
    # a run at rate 0 never draws, so it makes no generator
    rng = random.Random(cfg.seed) if failure_rate > 0 else None
    idx = 0
    attempts = 0  # emissions of the current script position
    for iteration in range(1, cfg.max_iterations + 1):
        if idx >= len(script):
            raise ScriptExhaustedError(f"script has only {len(script)} turns")
        script_turn = script[idx]
        raw = _render_emission(script_turn, out_fmt)
        if script_turn.corrupt is not None and attempts == 0:
            raw = corrupt_text(raw, script_turn.corrupt)
        elif failure_rate > 0 and rng.random() < failure_rate:
            raw = corrupt_text(raw, rng.choice(MUTATOR_KINDS))
        attempts += 1
        envelope, failure, document = parse_envelope_outcome(raw, out_fmt)
        spans.extend(_completion_spans(raw, envelope, document, iteration))
        if failure is not None:
            kind, error = failure.stage, failure.detail
        else:
            kind, error = "final" if isinstance(envelope, Final) else "step", None
        turns.append(_new(TurnRecord, (raw, kind, error)))
        if failure is not None:
            obs = _error_observation(kind, out_fmt)
            spans.append(_new(Span, (f"\n{obs}\n", "other", "prompt", iteration)))
            continue
        if isinstance(envelope, Final):
            status, answer = "final", envelope.answer
            break
        assert isinstance(envelope, Step)
        if envelope.action not in tool_names:
            raise AbortedTrajectoryError(envelope.action, "<not in catalog>")
        result = executor.lookup(envelope.action, envelope.arguments)
        result_doc = _render_doc(result, cfg.format)
        spans.append(_new(Span, ("\n", "other", "prompt", iteration)))
        spans.append(_new(Span, (result_doc, "result", "prompt", iteration)))
        spans.append(_new(Span, ("\n", "other", "prompt", iteration)))
        idx += 1
        attempts = 0
    return TrajectoryRecord(cfg.format, cfg.mode, turns, spans, status, answer)


def run_with_reference(
    task: str, script: tuple[ScriptTurn, ...], executor: TableExecutor, catalog: list[ToolSchema], cfg: LoopConfig
) -> tuple[TrajectoryRecord, TrajectoryRecord]:
    """The run under ``cfg``, then its reference: the clean baseline, which every comparison is made against.

    The reference replays the script without its corruption marks, in the baseline format at failure rate 0,
    with ``cfg``'s mode, iteration cap and seed: parse failures model format-unfamiliarity, which the baseline
    by definition does not have."""
    target = run_trajectory(task, script, executor, catalog, cfg)
    clean = cfg._replace(format=BASELINE, failure_rate=0.0)
    return target, run_trajectory(task, without_corruption(script), executor, catalog, clean)


# ---------------------------------------------------------------------------
# Fixture loading.


def _decode_fixture(text: str, where: str) -> Value:
    """decode_json(text), a failure named by ``where``: the fixture's path, and for a trace its line."""
    try:
        return decode_json(text)
    except CodecError as e:
        raise _FileDecodeError(where, e) from e


def _load_array(path: str | Path, what: str) -> tuple[Value, ...]:
    """The items of a fixture file that holds one JSON array."""
    doc = _decode_fixture(Path(path).read_text(encoding="utf-8"), str(path))
    if not isinstance(doc, Array):
        raise ValueError(f"{what} fixture must be a JSON array")
    return doc.items


def load_catalog(path: str | Path) -> list[ToolSchema]:
    """Catalog fixture: a JSON array of {name, description, parameters}."""
    catalog: list[ToolSchema] = []
    first: dict[str, int] = {}
    for n, item in enumerate(_load_array(path, "catalog"), start=1):
        try:
            schema = ToolSchema.from_value(item)
        except ValueError as e:
            raise ValueError(f"catalog entry {n}: {e}") from None
        if first.setdefault(schema.name, n) != n:
            raise ValueError(f"catalog entry {n}: tool {schema.name!r} repeats entry {first[schema.name]}")
        catalog.append(schema)
    return catalog


def load_executor(path: str | Path) -> TableExecutor:
    """Executor fixture: a JSON array of {tool, args, result} entries."""
    table: dict[tuple[str, Value], Value] = {}
    for n, item in enumerate(_load_array(path, "executor"), start=1):
        if not isinstance(item, Object):
            raise ValueError(f"executor entry {n} must be an object")
        tool = item.get("tool")
        args = item.get("args")
        result = item.get("result")
        if not isinstance(tool, Text) or args is None or result is None:
            raise ValueError(f"executor entry {n} needs tool, args and result")
        # an exact repeat is harmless; a second result for one call would replace the first
        if table.setdefault((tool.value, args), result) != result:
            raise ValueError(
                f"executor entry {n}: tool {tool.value!r} with args {encode_json(args)} has a different result"
                " than an earlier entry"
            )
    return TableExecutor(table)


# the optional fields of a trace line: name, node type, JSON type
_TRACE_MARKS = (("corrupt", Text, "string"), ("think", Text, "string"), ("fenced", Bool, "boolean"))


def load_trace(path: str | Path) -> tuple[ScriptTurn, ...]:
    """Trace fixture: JSON lines of {turn, role, text, corrupt?, think?, fenced?}.

    `text` holds the envelope intent as a JSON document; replay re-renders
    it in whatever output format the run uses.
    """
    turns: list[ScriptTurn] = []
    # JSON lines end at "\n" only: text may hold U+2028 and other characters
    # that str.splitlines() would also break at
    for lineno, line in enumerate(Path(path).read_bytes().decode("utf-8").split("\n"), start=1):
        line = line.removesuffix("\r")
        if not line.strip():
            continue
        where = f"{path}: trace line {lineno}"
        rec = _decode_fixture(line, where)
        if not isinstance(rec, Object):
            raise ValueError(f"trace line {lineno} must be an object")
        role = rec.get("role")
        text = rec.get("text")
        if not isinstance(role, Text) or role.value != "agent":
            raise ValueError(f"trace line {lineno}: only agent turns are replayable")
        if not isinstance(text, Text):
            raise ValueError(f"trace line {lineno}: text field required")
        intent = _decode_fixture(text.value, where)
        if not isinstance(intent, Object):
            raise ValueError(f"trace line {lineno}: intent must be an object document")
        # no rendering of such a turn could parse, in any format: the run would only measure its iteration cap
        if FENCE in encode_json(intent):
            raise ValueError(f"trace line {lineno}: intent holds {FENCE!r}, which opens a code fence")
        marks = {}
        for name, node, kind in _TRACE_MARKS:
            mark = rec.get(name)
            if mark is not None:
                if not isinstance(mark, node):
                    raise ValueError(f"trace line {lineno}: {name} must be a JSON {kind}")
                marks[name] = mark.value
        if "corrupt" in marks and marks["corrupt"] not in MUTATOR_KINDS:
            raise ValueError(f"trace line {lineno}: unknown mutator {marks['corrupt']!r}")
        if THINK_CLOSE in marks.get("think", ""):
            raise ValueError(f"trace line {lineno}: think holds {THINK_CLOSE!r}, which ends the think block early")
        turns.append(ScriptTurn(intent, **marks))
    if not turns:
        raise ValueError("trace fixture has no agent turns")
    return tuple(turns)
