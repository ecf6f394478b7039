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
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from .errors import CodecError
from .formats import BASELINE, FORMATS, MODES, REGISTRY, decode_doc, encode_batch, encode_doc, lookup
from .json_codec import decode_json, encode_json
from .values import Array, Object, Text, Value

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
    "ScriptedAgent",
    "without_corruption",
    "TableExecutor",
    "MUTATOR_KINDS",
    "corrupt_text",
    "parse_envelope_outcome",
    "build_system_prompt_spans",
    "run_trajectory",
    "load_catalog",
    "load_executor",
    "load_trace",
]

THINK_OPEN = "<think>"
THINK_CLOSE = "</think>"
FENCE = "```"

STEP_KEYS = frozenset(("thought", "action", "arguments"))
FINAL_KEYS = frozenset(("final_answer",))


@dataclass(frozen=True)
class ToolSchema:
    name: str
    description: str
    parameters: Object
    # the prompt memo hashes the whole catalog on every run; hashing the
    # parameters tree each time would walk every node of it
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tool name must be non-empty")
        object.__setattr__(self, "_hash", hash((self.name, self.description, self.parameters)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # a node's hash differs from one process to the next, so a copy or an
        # unpickled schema computes its own
        return type(self), (self.name, self.description, self.parameters)

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


@dataclass(frozen=True)
class Step:
    thought: str
    action: str
    arguments: Value


@dataclass(frozen=True)
class Final:
    answer: str


Envelope = Step | Final


@dataclass(frozen=True)
class LoopConfig:
    format: str = BASELINE
    mode: str = "input_only"
    max_iterations: int = 20
    failure_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (0.0 <= self.failure_rate <= 1.0):
            raise ValueError("failure_rate must be in [0, 1]")

    @property
    def output_format(self) -> str:
        return self.format if self.mode == "full" else BASELINE


class ParseFailure(Exception):
    """A turn that could not become an Envelope; stage says which gate failed."""

    STAGES = ("think", "fence", "decode", "shape")

    def __init__(self, stage: str, detail: str):
        assert stage in self.STAGES
        self.stage = stage
        self.detail = detail
        super().__init__(f"{stage}: {detail}")


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


def _value_to_envelope(v: Value) -> Envelope:
    if not isinstance(v, Object):
        raise ParseFailure("shape", "document root must be an object")
    keys = frozenset(v.keys)
    if keys == STEP_KEYS:
        thought = v.get("thought")
        action = v.get("action")
        if not isinstance(thought, Text) or not isinstance(action, Text):
            raise ParseFailure("shape", "thought and action must be text")
        return Step(thought.value, action.value, v.get("arguments"))
    if keys == FINAL_KEYS:
        answer = v.get("final_answer")
        if not isinstance(answer, Text):
            raise ParseFailure("shape", "final_answer must be text")
        return Final(answer.value)
    raise ParseFailure("shape", f"unexpected key set {sorted(keys)}")


@dataclass
class ParseOutcome:
    envelope: Envelope | None
    failure: ParseFailure | None
    think_stripped: bool
    fence_extracted: bool
    document: str

    @property
    def ok(self) -> bool:
        return self.envelope is not None


def parse_envelope_outcome(raw: str, expected_format: str) -> ParseOutcome:
    think_stripped = False
    fence_extracted = False
    text = raw
    lstripped = text.lstrip()
    if lstripped.startswith(THINK_OPEN):
        close = lstripped.find(THINK_CLOSE)
        if close < 0:
            return ParseOutcome(None, ParseFailure("think", "unterminated think block"), True, False, "")
        text = lstripped[close + len(THINK_CLOSE) :]
        think_stripped = True
    if FENCE in text:
        fence_extracted = True
        open_idx = text.find(FENCE)
        line_end = text.find("\n", open_idx)
        if line_end < 0:
            return ParseOutcome(None, ParseFailure("fence", "no content after opening fence"), think_stripped, True, "")
        close_idx = text.find(FENCE, line_end + 1)
        if close_idx < 0:
            return ParseOutcome(None, ParseFailure("fence", "unterminated fence"), think_stripped, True, "")
        text = text[line_end + 1 : close_idx]
        if text.endswith("\n"):
            text = text[:-1]
    document = text if lookup(expected_format).keeps_indent else text.strip()
    try:
        value = decode_doc(document, expected_format)
    except CodecError as e:
        return ParseOutcome(None, ParseFailure("decode", str(e)), think_stripped, fence_extracted, document)
    try:
        envelope = _value_to_envelope(value)
    except ParseFailure as e:
        return ParseOutcome(None, e, think_stripped, fence_extracted, document)
    return ParseOutcome(envelope, None, think_stripped, fence_extracted, document)


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


@dataclass(frozen=True)
class Span:
    text: str
    origin: str  # schema | call | result | other
    direction: str  # prompt | completion
    turn: int


@dataclass
class TurnRecord:
    index: int
    raw_text: str
    think_stripped: bool
    fence_extracted: bool
    outcome: str  # "step" | "final" | a ParseFailure stage
    error: str | None = None


@dataclass
class TrajectoryRecord:
    format: str
    mode: str
    task: str
    turns: list[TurnRecord] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)
    status: str = "iteration_cap"  # "final" | "iteration_cap"
    final_answer: str | None = None

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


@dataclass(frozen=True)
class ScriptTurn:
    intent: Object  # envelope-shaped document
    corrupt: str | None = None  # mutator kind applied to the first emission
    think: str | None = None  # emitted as a leading think block
    fenced: bool = False  # wrap the document in a code fence


class ScriptedAgent:
    """Replays envelope intents; a turn is re-emitted until it parses."""

    def __init__(self, turns: list[ScriptTurn]):
        self.turns = list(turns)

    def intent(self, index: int) -> ScriptTurn:
        if index >= len(self.turns):
            raise ScriptExhaustedError(f"script has only {len(self.turns)} turns")
        return self.turns[index]

    def __len__(self) -> int:
        return len(self.turns)


def without_corruption(agent: ScriptedAgent) -> ScriptedAgent:
    """Same script with every corruption mark removed (for reference runs)."""
    return ScriptedAgent(
        [ScriptTurn(t.intent, None, t.think, t.fenced) for t in agent.turns]
    )


class TableExecutor:
    """Mock tool runtime: exact (tool, canonical JSON args) -> result lookups."""

    def __init__(self, table: dict[tuple[str, str], Value]):
        self.table = dict(table)

    def lookup(self, tool: str, args_text: str) -> Value:
        try:
            return self.table[(tool, args_text)]
        except KeyError:
            raise AbortedTrajectoryError(tool, args_text) from None


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
# renders each once per format and keeps the text, in memos whose sizes
# bound what a long-lived process holds. Nodes are immutable tuples whose
# == and hash are exact about type, so a value is a sound key. Parsing is
# never memoized: its failures are what the loop counts.
_PROMPT_MEMO_SIZE = 16
_DOC_MEMO_SIZE = 1024


def build_system_prompt_spans(catalog: list[ToolSchema], cfg: LoopConfig) -> list[Span]:
    """System prompt as origin-tagged spans; concatenation is the prompt text."""
    if not catalog:
        raise ValueError("catalog must be non-empty")
    return list(_prompt_spans(tuple(catalog), cfg.format, cfg.output_format))


@lru_cache(maxsize=_PROMPT_MEMO_SIZE)
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


@lru_cache(maxsize=_DOC_MEMO_SIZE)
def _render_doc(v: Value, fmt: str) -> str:
    return encode_doc(v, fmt)


def _error_observation(stage: str, out_fmt: str) -> str:
    return (
        f"Your last response could not be processed (failed at: {stage}). Reply with one "
        f"{out_fmt.upper()} document whose keys are thought, action, arguments — or "
        "final_answer to finish."
    )


def _render_emission(turn: ScriptTurn, out_fmt: str) -> str:
    doc = _render_doc(turn.intent, out_fmt)
    parts = []
    if turn.think is not None:
        parts.append(f"{THINK_OPEN}{turn.think}{THINK_CLOSE}\n")
    if turn.fenced:
        parts.append(f"{FENCE}{out_fmt}\n{doc}\n{FENCE}")
    else:
        parts.append(doc)
    return "".join(parts)


def _completion_spans(raw: str, outcome: ParseOutcome, turn: int) -> list[Span]:
    """Split a raw emission into chrome and the call document."""
    if not outcome.ok or not isinstance(outcome.envelope, Step):
        return [Span(raw, "other", "completion", turn)]
    doc = outcome.document
    i = raw.find(doc) if doc else -1
    if i < 0:
        return [Span(raw, "other", "completion", turn)]
    spans = []
    if raw[:i]:
        spans.append(Span(raw[:i], "other", "completion", turn))
    spans.append(Span(doc, "call", "completion", turn))
    if raw[i + len(doc) :]:
        spans.append(Span(raw[i + len(doc) :], "other", "completion", turn))
    return spans


def run_trajectory(
    task: str,
    agent: ScriptedAgent,
    executor: TableExecutor,
    catalog: list[ToolSchema],
    cfg: LoopConfig,
) -> TrajectoryRecord:
    """Drive the loop to a final answer, the iteration cap, or an abort."""
    record = TrajectoryRecord(format=cfg.format, mode=cfg.mode, task=task)
    record.spans.extend(build_system_prompt_spans(catalog, cfg))
    record.spans.append(Span(f"\nTask: {task}\n", "other", "prompt", 0))
    tool_names = {s.name for s in catalog}
    out_fmt = cfg.output_format
    rng = random.Random(cfg.seed)
    idx = 0
    attempts = 0  # emissions of the current script position
    for iteration in range(1, cfg.max_iterations + 1):
        script_turn = agent.intent(idx)
        raw = _render_emission(script_turn, out_fmt)
        if script_turn.corrupt is not None and attempts == 0:
            raw = corrupt_text(raw, script_turn.corrupt)
        elif cfg.failure_rate > 0 and rng.random() < cfg.failure_rate:
            raw = corrupt_text(raw, rng.choice(MUTATOR_KINDS))
        attempts += 1
        outcome = parse_envelope_outcome(raw, out_fmt)
        record.spans.extend(_completion_spans(raw, outcome, iteration))
        if outcome.failure is not None:
            record.turns.append(
                TurnRecord(
                    iteration,
                    raw,
                    outcome.think_stripped,
                    outcome.fence_extracted,
                    outcome.failure.stage,
                    outcome.failure.detail,
                )
            )
            obs = _error_observation(outcome.failure.stage, out_fmt)
            record.spans.append(Span(f"\n{obs}\n", "other", "prompt", iteration))
            continue
        envelope = outcome.envelope
        if isinstance(envelope, Final):
            record.turns.append(
                TurnRecord(iteration, raw, outcome.think_stripped, outcome.fence_extracted, "final")
            )
            record.status = "final"
            record.final_answer = envelope.answer
            break
        assert isinstance(envelope, Step)
        record.turns.append(
            TurnRecord(iteration, raw, outcome.think_stripped, outcome.fence_extracted, "step")
        )
        if envelope.action not in tool_names:
            raise AbortedTrajectoryError(envelope.action, "<not in catalog>")
        args_text = encode_json(envelope.arguments)
        result = executor.lookup(envelope.action, args_text)
        result_doc = _render_doc(result, cfg.format)
        record.spans.append(Span("\n", "other", "prompt", iteration))
        record.spans.append(Span(result_doc, "result", "prompt", iteration))
        record.spans.append(Span("\n", "other", "prompt", iteration))
        idx += 1
        attempts = 0
    return record


# ---------------------------------------------------------------------------
# Fixture loading.


def load_catalog(path: str | Path) -> list[ToolSchema]:
    """Catalog fixture: a JSON array of {name, description, parameters}."""
    doc = decode_json(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, Array):
        raise ValueError("catalog fixture must be a JSON array")
    return [ToolSchema.from_value(item) for item in doc.items]


def load_executor(path: str | Path) -> TableExecutor:
    """Executor fixture: a JSON array of {tool, args, result} entries."""
    doc = decode_json(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, Array):
        raise ValueError("executor fixture must be a JSON array")
    table: dict[tuple[str, str], Value] = {}
    for item in doc.items:
        if not isinstance(item, Object):
            raise ValueError("executor entry must be an object")
        tool = item.get("tool")
        args = item.get("args")
        result = item.get("result")
        if not isinstance(tool, Text) or args is None or result is None:
            raise ValueError("executor entry needs tool, args and result")
        table[(tool.value, encode_json(args))] = result
    return TableExecutor(table)


def load_trace(path: str | Path) -> ScriptedAgent:
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
        rec = decode_json(line)
        if not isinstance(rec, Object):
            raise ValueError(f"trace line {lineno} must be an object")
        role = rec.get("role")
        text = rec.get("text")
        if not isinstance(role, Text) or role.value != "agent":
            raise ValueError(f"trace line {lineno}: only agent turns are replayable")
        if not isinstance(text, Text):
            raise ValueError(f"trace line {lineno}: text field required")
        intent = decode_json(text.value)
        if not isinstance(intent, Object):
            raise ValueError(f"trace line {lineno}: intent must be an object document")
        corrupt = rec.get("corrupt")
        think = rec.get("think")
        fenced = rec.get("fenced")
        kind = corrupt.value if isinstance(corrupt, Text) else None
        if kind is not None and kind not in MUTATOR_KINDS:
            raise ValueError(f"trace line {lineno}: unknown mutator {kind!r}")
        turns.append(
            ScriptTurn(
                intent=intent,
                corrupt=kind,
                think=think.value if isinstance(think, Text) else None,
                fenced=bool(getattr(fenced, "value", False)),
            )
        )
    if not turns:
        raise ValueError("trace fixture has no agent turns")
    return ScriptedAgent(turns)
