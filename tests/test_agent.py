import copy
import json
import pickle
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from notation import agent as agent_mod
from notation.agent import (
    AbortedTrajectoryError,
    Final,
    LoopConfig,
    ParseFailure,
    ScriptExhaustedError,
    ScriptTurn,
    Span,
    Step,
    TableExecutor,
    ToolSchema,
    build_system_prompt_spans,
    corrupt_text,
    load_catalog,
    load_executor,
    load_trace,
    parse_envelope_outcome,
    run_trajectory,
    run_with_reference,
    without_corruption,
)
from notation import cli, tron_codec
from notation.formats import FORMATS, MODES, REGISTRY, decode_batch, decode_doc, encode_doc
from notation.json_codec import decode_json, encode_json
from notation.tron_codec import decode_tron_batch
from notation.values import (
    DEFAULT_PROFILE,
    DELIMITER_PROFILE,
    NULL,
    TABULAR_PROFILE,
    Array,
    Bool,
    Null,
    Number,
    Object,
    Text,
    from_python,
    generate,
)

from conftest import FIXTURES, check_record, final_intent, make_catalog, simple_run_pieces, step_intent


def sample_step_doc(fmt: str) -> str:
    return encode_doc(step_intent("search", {"query": "cats"}, thought="look"), fmt)


def envelope_of(raw: str, fmt: str):
    outcome = parse_envelope_outcome(raw, fmt)
    assert outcome.failure is None, outcome.failure
    return outcome.envelope


def failed_stage(raw: str, fmt: str) -> str:
    outcome = parse_envelope_outcome(raw, fmt)
    assert isinstance(outcome.failure, ParseFailure) and outcome.envelope is None
    return outcome.failure.stage


def prompt_text(catalog, cfg) -> str:
    return "".join(s.text for s in build_system_prompt_spans(catalog, cfg))


# ---------------------------------------------------------------------------
# parse_envelope_outcome


def test_parse_step_and_final():
    step = envelope_of('{"thought":"t","action":"f","arguments":{}}', "json")
    assert step == Step("t", "f", Object(()))
    final = envelope_of('{"final_answer":"done"}', "json")
    assert final == Final("done")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("wrapper", ["clean", "think", "fence", "both"])
def test_preprocessing_grid(fmt, wrapper):
    doc = sample_step_doc(fmt)
    raw = {
        "clean": doc,
        "think": f"<think>let me see</think>{doc}",
        "fence": f"```{fmt}\n{doc}\n```",
        "both": f"<think>let me see</think>\n```{fmt}\n{doc}\n```",
    }[wrapper]
    expected = envelope_of(doc, fmt)
    outcome = parse_envelope_outcome(raw, fmt)
    assert outcome.failure is None
    assert outcome.envelope == expected
    # the think block and the fence are stripped from the document that was decoded
    assert outcome.document == doc


def test_think_stage_failure():
    assert failed_stage("<think>never closed {}", "json") == "think"


def test_fence_stage_failure():
    assert failed_stage('```json\n{"final_answer":"x"}', "json") == "fence"
    failure = parse_envelope_outcome("```json", "json").failure
    assert (failure.stage, failure.detail) == ("fence", "no content after opening fence")


def test_decode_stage_failure():
    assert failed_stage('{"thought":"t","action":}', "json") == "decode"


def shape_detail(doc, fmt: str) -> str:
    outcome = parse_envelope_outcome(encode_doc(from_python(doc), fmt), fmt)
    assert outcome.envelope is None and outcome.failure.stage == "shape"
    return outcome.failure.detail


def test_shape_stage_failure():
    for fmt in FORMATS:
        assert shape_detail({"thought": "t", "tool": "f"}, fmt) == "unexpected key set ['thought', 'tool']"
        assert shape_detail({}, fmt) == "unexpected key set []"
        assert shape_detail({"final_answer": "a", "thought": "t"}, fmt) == "unexpected key set ['final_answer', 'thought']"
        # a TOON document is always an object: encoding wraps any other root in one "value" key
        root = "unexpected key set ['value']" if fmt == "toon" else "document root must be an object"
        assert shape_detail([1, 2], fmt) == root
        assert shape_detail("x", fmt) == root


def test_shape_requires_text_fields():
    step = "thought and action must be text"
    for fmt in FORMATS:
        for bad in (1, True, None, [1], {"a": "b"}):
            assert shape_detail({"thought": bad, "action": "f", "arguments": {}}, fmt) == step
            assert shape_detail({"thought": "t", "action": bad, "arguments": {}}, fmt) == step
            assert shape_detail({"final_answer": bad}, fmt) == "final_answer must be text"


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "arg, node", [({"a": 1}, Object), ("s", Text), (1.5, Number), (False, Bool), (None, Null)]
)
def test_step_arguments_come_back_boxed(fmt, arg, node):
    doc = {"action": "f", "arguments": arg, "thought": "t"}
    step = envelope_of(encode_doc(from_python(doc), fmt), fmt)
    assert type(step.arguments) is node
    assert step == Step("t", "f", from_python(arg))


def test_parse_failure_refuses_an_unknown_stage():
    with pytest.raises(ValueError, match="unknown parse stage 'bogus'"):
        ParseFailure("bogus", "x")
    with pytest.raises(ValueError, match="unknown parse stage 'bogus'"):
        ParseFailure("shape", "x")._replace(stage="bogus")
    assert ParseFailure("shape", "x").stage == "shape"


def test_non_object_root_is_shape_failure():
    assert failed_stage("[1,2]", "json") == "shape"


# ---------------------------------------------------------------------------
# mutators


@pytest.mark.parametrize("fmt", FORMATS)
def test_mutator_designated_stages(fmt):
    """truncate/swap break decoding; the key rename breaks the shape gate.

    The arguments end in a length-marked table so that dropping the last
    line violates a verified count in every format.
    """
    args = {"rows": [{"a": 1, "b": 2}, {"a": 3, "b": 4}]}
    doc = encode_doc(step_intent("search", args, thought="look"), fmt)
    for kind, stage in (
        ("truncate_line", "decode"),
        ("swap_delimiter", "decode"),
        ("rename_action", "shape"),
    ):
        mutated = corrupt_text(doc, kind)
        assert mutated != doc
        outcome = parse_envelope_outcome(mutated, fmt)
        assert outcome.failure is not None
        assert outcome.failure.stage == stage, (fmt, kind, mutated)


def test_swap_delimiter_is_size_neutral():
    for fmt in FORMATS:
        doc = sample_step_doc(fmt)
        assert len(corrupt_text(doc, "swap_delimiter")) == len(doc)


def test_swap_delimiter_appends_a_paren_to_text_without_a_delimiter():
    assert corrupt_text("true", "swap_delimiter") == "true)"


def test_unknown_mutator_rejected():
    with pytest.raises(ValueError):
        corrupt_text("x", "explode")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"format": "yaml"}, "unknown format 'yaml'"),
        ({"failure_rate": 1.5}, "failure_rate must be in [0, 1]"),
        ({"max_iterations": 2.5}, "max_iterations must be an int, not float"),
        ({"max_iterations": True}, "max_iterations must be an int, not bool"),
        ({"max_iterations": "3"}, "max_iterations must be an int, not str"),
        ({"failure_rate": "0.5"}, "failure_rate must be an int or float, not str"),
        ({"failure_rate": False}, "failure_rate must be an int or float, not bool"),
        ({"failure_rate": None}, "failure_rate must be an int or float, not NoneType"),
        ({"seed": None}, "seed must be an int, not NoneType"),
        ({"seed": "x"}, "seed must be an int, not str"),
        ({"seed": 1.5}, "seed must be an int, not float"),
        ({"seed": True}, "seed must be an int, not bool"),
    ],
)
def test_loop_config_refuses_a_bad_setting(kwargs, message):
    # a wrongly typed setting is a TypeError whose message names the type given; a bad value is a ValueError
    with pytest.raises(TypeError if ", not " in message else ValueError) as e:
        LoopConfig(**kwargs)
    assert str(e.value) == message


# ---------------------------------------------------------------------------
# system prompt


def test_prompt_schema_block_decodes_back():
    catalog = make_catalog(1)
    cfg = LoopConfig(format="json", mode="input_only")
    spans = build_system_prompt_spans(catalog, cfg)
    schema_spans = [s for s in spans if s.origin == "schema"]
    assert len(schema_spans) == 1
    decoded = ToolSchema.from_value(decode_doc(schema_spans[0].text, "json"))
    assert decoded == catalog[0]


@pytest.mark.parametrize("fmt", FORMATS)
def test_prompt_schema_spans_per_format(fmt):
    """One batch span where the format has a batch codec, else one span per schema."""
    catalog = make_catalog(3)
    spans = [s for s in build_system_prompt_spans(catalog, LoopConfig(format=fmt)) if s.origin == "schema"]
    if REGISTRY[fmt].batched:
        (span,) = spans
        roots = decode_batch(span.text, fmt)
    else:
        roots = [decode_doc(span.text, fmt, unwrap=False) for span in spans]
    assert [ToolSchema.from_value(r) for r in roots] == catalog


def test_tron_batching_single_class_table():
    catalog = make_catalog(5)
    cfg = LoopConfig(format="tron")
    spans = [s for s in build_system_prompt_spans(catalog, cfg) if s.origin == "schema"]
    assert len(spans) == 1
    block = spans[0].text
    class_lines = [l for l in block.split("\n") if l.startswith("class ")]
    assert class_lines  # shared shapes were extracted once
    roots = decode_tron_batch(block)
    assert [ToolSchema.from_value(r) for r in roots] == catalog


def test_templates_are_stand_alone_documents():
    """Response templates decode as whole documents; no labeled-field wrapping."""
    for fmt in FORMATS:
        for mode in ("input_only", "full"):
            cfg = LoopConfig(format=fmt, mode=mode)
            prompt = prompt_text(make_catalog(1), cfg)
            assert "Action Input" not in prompt
            out_fmt = cfg.output_format
            step_doc = encode_doc(
                step_intent("tool_name", {"city": "Boulder"}, thought="I need the forecast before answering."),
                out_fmt,
            )
            assert step_doc in prompt
            assert isinstance(envelope_of(step_doc, out_fmt), Step)


def test_empty_catalog_rejected():
    with pytest.raises(ValueError):
        build_system_prompt_spans([], LoopConfig())


# ---------------------------------------------------------------------------
# run_trajectory


def test_one_turn_final():
    catalog, executor, _ = simple_run_pieces()
    script = (ScriptTurn(final_intent("hi")),)
    record = run_trajectory("t", script, executor, catalog, LoopConfig())
    assert record.status == "final"
    assert record.final_answer == "hi"
    assert record.iterations == 1
    assert record.cascade_count == 0


def test_corrupted_turn_adds_one_iteration():
    catalog, executor, script = simple_run_pieces()
    clean = run_trajectory("t", script, executor, catalog, LoopConfig(format="toon", mode="full"))
    marked = (ScriptTurn(script[0].intent, corrupt="swap_delimiter"), script[1])
    failed = run_trajectory("t", marked, executor, catalog, LoopConfig(format="toon", mode="full"))
    assert failed.iterations == clean.iterations + 1
    assert failed.cascade_count == 1
    assert failed.status == "final"
    assert failed.turns[0].outcome == "decode"
    assert failed.turns[1].outcome == "step"


def test_reference_strips_corruption():
    catalog, executor, script = simple_run_pieces()
    marked = (ScriptTurn(script[0].intent, corrupt="swap_delimiter"), script[1])
    reference = without_corruption(marked)
    record = run_trajectory("t", reference, executor, catalog, LoopConfig())
    assert record.cascade_count == 0


def test_reference_reuses_each_clean_turn(fixtures_dir):
    script = load_trace(fixtures_dir / "replay" / "trace_weather.jsonl")
    marked = script + (ScriptTurn(final_intent(), corrupt="truncate_line", think="hm"),)
    reference = without_corruption(marked)
    assert type(reference) is tuple and len(reference) == len(marked)
    for turn, ref in zip(marked, reference):
        if turn.corrupt is None:
            assert ref is turn
        else:
            assert ref == turn._replace(corrupt=None)


def test_run_with_reference_is_the_clean_baseline_run():
    catalog, executor, script = simple_run_pieces()
    marked = (ScriptTurn(script[0].intent, corrupt="swap_delimiter"), script[1])
    cfg = LoopConfig(format="toon", mode="full", max_iterations=12, failure_rate=0.5, seed=5)
    target, reference = run_with_reference("t", marked, executor, catalog, cfg)
    assert target == run_trajectory("t", marked, executor, catalog, cfg)
    assert target.cascade_count > 0
    clean_cfg = LoopConfig(format="json", mode=cfg.mode, max_iterations=cfg.max_iterations, seed=cfg.seed)
    assert reference == run_trajectory("t", without_corruption(marked), executor, catalog, clean_cfg)
    assert reference.cascade_count == 0
    assert (reference.format, reference.mode, reference.status) == ("json", "full", "final")


def test_executor_receives_the_parsed_args():
    seen = {}

    class SpyExecutor(TableExecutor):
        def lookup(self, tool, args):
            seen["args"] = args
            return super().lookup(tool, args)

    catalog, executor, script = simple_run_pieces()
    spy = SpyExecutor(executor.table)
    for fmt in FORMATS:
        record = run_trajectory("t", script, spy, catalog, LoopConfig(format=fmt, mode="full"))
        assert record.status == "final"
        assert seen["args"] == script[0].intent.get("arguments")


def test_emitted_calls_match_mode():
    catalog, executor, script = simple_run_pieces()
    for fmt in ("toon", "tron"):
        for mode, expected_fmt in (("input_only", "json"), ("full", fmt)):
            record = run_trajectory("t", script, executor, catalog, LoopConfig(format=fmt, mode=mode))
            call_spans = [s for s in record.spans if s.origin == "call"]
            assert call_spans
            for span in call_spans:
                assert isinstance(envelope_of(span.text, expected_fmt), Step)


def test_result_spans_use_input_format():
    catalog, executor, script = simple_run_pieces()
    record = run_trajectory("t", script, executor, catalog, LoopConfig(format="toon", mode="input_only"))
    result_spans = [s for s in record.spans if s.origin == "result"]
    assert len(result_spans) == 1
    decoded = decode_doc(result_spans[0].text, "toon")
    assert decoded == executor.table[("tool0", from_python({"arg0": "hikes", "limit": 3}))]


def test_format_independent_iterations_without_failures():
    catalog, executor, script = simple_run_pieces()
    counts = set()
    for fmt in FORMATS:
        for mode in ("input_only", "full"):
            record = run_trajectory("t", script, executor, catalog, LoopConfig(format=fmt, mode=mode))
            counts.add((record.iterations, record.cascade_count))
    assert counts == {(2, 0)}


def test_iteration_cap():
    catalog, executor, _ = simple_run_pieces()
    bad = from_python({"thought": "t", "tool": "x"})  # shape failure forever
    script = (ScriptTurn(bad),)
    record = run_trajectory("t", script, executor, catalog, LoopConfig(max_iterations=4))
    assert record.status == "iteration_cap"
    assert record.iterations == 4
    # the last failed turn had no retry after it
    assert record.cascade_count == 3


def test_unknown_tool_aborts():
    catalog, executor, _ = simple_run_pieces()
    script = (ScriptTurn(step_intent("nope", {})),)
    with pytest.raises(AbortedTrajectoryError):
        run_trajectory("t", script, executor, catalog, LoopConfig())


# a miss names the call's arguments in minimal JSON: escapes, number literals and key order as parsed
MISSED_ARGS = {"arg0": 'ö "q"\n', "limit": Number("1.50"), "more": [True, None, {"b": Number("-0")}]}
MISSED_ARGS_TEXT = '{"arg0":"ö \\"q\\"\\n","limit":1.50,"more":[true,null,{"b":-0}]}'


@pytest.fixture()
def encode_json_calls(monkeypatch):
    """The values ``agent.encode_json`` is called with, which still encodes them."""
    calls = []
    encode = agent_mod.encode_json
    monkeypatch.setattr(agent_mod, "encode_json", lambda v, *rest: calls.append(v) or encode(v, *rest))
    return calls


def test_executor_miss_aborts(encode_json_calls):
    catalog, executor, _ = simple_run_pieces()
    script = (ScriptTurn(step_intent("tool0", MISSED_ARGS)),)
    for fmt in FORMATS:
        encode_json_calls.clear()
        with pytest.raises(AbortedTrajectoryError) as e:
            run_trajectory("t", script, executor, catalog, LoopConfig(format=fmt, mode="full"))
        assert str(e.value) == f"no executor entry for tool 'tool0' with args {MISSED_ARGS_TEXT}", fmt
        assert e.value.args_text == MISSED_ARGS_TEXT, fmt
        # the one encode is the message's
        assert encode_json_calls == [from_python(MISSED_ARGS)], fmt


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("mode", ("input_only", "full"))
def test_a_call_that_hits_encodes_nothing(fixtures_dir, fmt, mode, encode_json_calls):
    replay = fixtures_dir / "replay"
    script = load_trace(replay / "trace_weather.jsonl")
    executor = load_executor(replay / "executor_weather.json")
    catalog = load_catalog(replay / "catalog_weather.json")
    for rate in (0.0, 0.3):
        for seed in (0, 1, 2):
            encode_json_calls.clear()
            cfg = LoopConfig(format=fmt, mode=mode, failure_rate=rate, seed=seed)
            try:
                run_trajectory("t", script, executor, catalog, cfg)
            except AbortedTrajectoryError as e:
                # a corrupted call that still parses misses the executor and encodes its arguments once
                assert [encode_json(v) for v in encode_json_calls] == [e.args_text], (rate, seed)
            else:
                assert encode_json_calls == [], (rate, seed)


# The executor keys calls by argument value. That matches the same calls as keys of minimal JSON text
# only if two values are equal exactly when their minimal JSON is, and equal values hash equal. Small
# pools of look-alike leaves and keys make equal and near-equal pairs common; generated documents are
# compared with each other and with their own copy read back from JSON.
LOOKALIKES = st.sampled_from(
    [NULL, Bool(True), Bool(False), Number("1"), Number("1.0"), Number("0"), Number("-0")]
    + [Text(s) for s in ("1", "true", "null", "")]
)
ARGUMENTS = st.recursive(
    LOOKALIKES,
    lambda children: st.lists(children, max_size=3).map(Array)
    | st.lists(st.tuples(st.sampled_from("ab"), children), max_size=2, unique_by=lambda kv: kv[0]).map(Object),
    max_leaves=6,
)
PROFILES = st.sampled_from([DEFAULT_PROFILE, DELIMITER_PROFILE, TABULAR_PROFILE])
DOCUMENTS = ARGUMENTS | st.builds(generate, st.integers(min_value=0, max_value=2**32 - 1), PROFILES)


@settings(max_examples=300, deadline=None)
@given(DOCUMENTS, DOCUMENTS)
@example(from_python(1), from_python(1.0))
@example(from_python(1), from_python("1"))
@example(from_python(1.0), from_python("1"))
@example(from_python(True), from_python("true"))
@example(from_python(None), from_python("null"))
@example(Number("-0"), Number("0"))
@example(from_python({"a": 1, "b": 2}), from_python({"b": 2, "a": 1}))
@example(from_python({"q": [1, {"a": "1", "b": [True]}]}), from_python({"q": [1.0, {"a": "1", "b": [True]}]}))
@example(from_python({"q": [1, {"a": "1", "b": [True]}]}), from_python({"q": [1, {"a": "1", "b": [True]}]}))
def test_argument_values_are_equal_exactly_when_their_minimal_json_is(a, b):
    for x, y in ((a, b), (a, decode_json(encode_json(a)))):
        assert (x == y) == (encode_json(x) == encode_json(y))
        if x == y:
            assert hash(x) == hash(y)


def test_script_exhaustion_raises():
    catalog, executor, script = simple_run_pieces()
    with pytest.raises(ScriptExhaustedError, match="^script has only 1 turns$"):
        run_trajectory("t", script[:1], executor, catalog, LoopConfig())
    with pytest.raises(ScriptExhaustedError, match="^script has only 0 turns$"):
        run_trajectory("t", (), executor, catalog, LoopConfig())


def test_failure_rate_one_runs_to_cap_deterministically():
    catalog, executor, script = simple_run_pieces()
    cfg = LoopConfig(failure_rate=1.0, seed=7, max_iterations=5)
    a = run_trajectory("t", script, executor, catalog, cfg)
    b = run_trajectory("t", script, executor, catalog, cfg)
    assert a.status == b.status == "iteration_cap"
    assert [t.outcome for t in a.turns] == [t.outcome for t in b.turns]
    assert [t.raw_text for t in a.turns] == [t.raw_text for t in b.turns]


def test_think_and_fence_recorded_in_turns():
    catalog, executor, _ = simple_run_pieces()
    script = (
        ScriptTurn(step_intent("tool0", {"arg0": "hikes", "limit": 3}), think="mull it over"),
        ScriptTurn(final_intent(), fenced=True),
    )
    record = run_trajectory("t", script, executor, catalog, LoopConfig())
    step, final = record.turns
    assert step.raw_text.startswith("<think>mull it over</think>\n") and "```" not in step.raw_text
    assert final.raw_text == '```json\n{"final_answer":"done"}\n```'
    assert (step.outcome, final.outcome) == ("step", "final")
    assert record.status == "final"


def test_spans_concatenate_to_conversation():
    catalog, executor, script = simple_run_pieces()
    record = run_trajectory("t", script, executor, catalog, LoopConfig())
    assert all(s.origin in ("schema", "call", "result", "other") for s in record.spans)
    assert all(s.direction in ("prompt", "completion") for s in record.spans)
    raws = "".join(t.raw_text for t in record.turns)
    completions = "".join(s.text for s in record.spans if s.direction == "completion")
    assert completions == raws


# ---------------------------------------------------------------------------
# the render memo: each fixture value is rendered once per format


def clear_memo():
    agent_mod._prompt_memo.clear()
    agent_mod._doc_memo.clear()
    agent_mod._parse_memo.clear()


def outcome_of(*args):
    try:
        return run_trajectory(*args)
    except AbortedTrajectoryError as e:
        return type(e), str(e)


def weather_pieces(fixtures_dir):
    replay = fixtures_dir / "replay"
    script = load_trace(replay / "trace_weather.jsonl")
    executor = load_executor(replay / "executor_weather.json")
    catalog = load_catalog(replay / "catalog_weather.json")
    return script, executor, catalog


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("mode", ("input_only", "full"))
def test_memo_leaves_weather_runs_unchanged(fixtures_dir, fmt, mode):
    weather, executor, catalog = weather_pieces(fixtures_dir)
    # the weather script has no fenced turn, so a fenced copy of it meets fence failures too
    fenced = tuple(t._replace(fenced=True) for t in weather)
    stages = set()
    for script in (weather, fenced):
        for rate in (0.0, 0.1, 0.3):
            for seed in range(4):
                cfg = LoopConfig(format=fmt, mode=mode, failure_rate=rate, seed=seed)
                outcome_of("t", script, executor, catalog, cfg)
                warm = outcome_of("t", script, executor, catalog, cfg)
                clear_memo()
                cold = outcome_of("t", script, executor, catalog, cfg)
                assert type(warm) is type(cold), (rate, seed)
                if type(cold) is tuple:  # an abort: its class and message
                    assert warm == cold, (rate, seed)
                    continue
                assert len(warm.turns) == len(cold.turns), (rate, seed)
                for n, (w, c) in enumerate(zip(warm.turns, cold.turns), start=1):
                    assert (w.outcome, w.error) == (c.outcome, c.error), (rate, seed, n)
                    assert w == c, (rate, seed, n)
                assert warm.spans == cold.spans, (rate, seed)
                assert warm == cold, (rate, seed)
                stages.update(t.outcome for t in cold.turns)
    # warm and cold runs were compared on turns failing at each stage but think
    assert stages == {"step", "final", "fence", "decode", "shape"}, stages


@pytest.mark.parametrize(
    "raw, stage",
    [
        ("<think>never closed {}", "think"),
        ('```json\n{"final_answer":"x"}', "fence"),
        ('{"thought":"t","action":}', "decode"),
        ('{"thought":"t","tool":"f"}', "shape"),
    ],
)
def test_kept_failure_is_a_plain_record(raw, stage):
    clear_memo()
    outcome = parse_envelope_outcome(raw, "json")
    assert type(outcome.failure) is ParseFailure and not isinstance(outcome.failure, BaseException)
    assert outcome.failure == (stage, outcome.failure.detail)
    assert agent_mod._parse_memo[f"json\n{raw}"] is outcome
    # a repeat gets back the same outcome, and with it the same failure
    assert parse_envelope_outcome(raw, "json") is outcome


def test_unknown_format_raises_and_keeps_nothing():
    clear_memo()
    with pytest.raises(ValueError, match="unknown format 'yaml'"):
        parse_envelope_outcome('{"final_answer":"x"}', "yaml")
    # an emission that fails before the format is read is not kept either
    assert parse_envelope_outcome("<think>x", "yaml").failure.stage == "think"
    assert len(agent_mod._parse_memo) == 0


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_wrapper_over_the_public_parse_sees_every_emission(monkeypatch, fixtures_dir, fmt):
    # perfbench's tracer times and counts parses by wrapping agent.parse_envelope_outcome
    script, executor, catalog = weather_pieces(fixtures_dir)
    cfgs = [LoopConfig(format=fmt, mode=mode, failure_rate=0.3, seed=seed) for mode in MODES for seed in (0, 1, 2)]
    parse, inner = agent_mod.parse_envelope_outcome, agent_mod._parse_envelope
    parsed = []
    monkeypatch.setattr(agent_mod, "_parse_envelope", lambda *args: parsed.append(args) or inner(*args))

    def wrapped_runs():
        runs = []
        for cfg in cfgs:
            seen = []

            def counted(raw, expected_format):
                outcome = parse(raw, expected_format)
                seen.append((raw, outcome.failure and outcome.failure.stage))
                return outcome

            with monkeypatch.context() as m:
                m.setattr(agent_mod, "parse_envelope_outcome", counted)
                record = outcome_of("t", script, executor, catalog, cfg)
            if type(record) is not tuple:  # one call per emission, with that turn's failure stage
                assert seen == [(t.raw_text, t.error and t.outcome) for t in record.turns], cfg
            runs.append(seen)
        return runs

    clear_memo()
    cold = wrapped_runs()
    assert len(parsed) == len(agent_mod._parse_memo) < sum(map(len, cold))
    parsed.clear()
    assert wrapped_runs() == cold
    assert parsed == []  # the warm runs parsed nothing again


def test_warm_run_renders_nothing(monkeypatch):
    catalog, executor, script = simple_run_pieces()
    cfg = LoopConfig(format="toon", mode="full")
    first = run_trajectory("t", script, executor, catalog, cfg)
    calls = []
    monkeypatch.setattr(agent_mod, "encode_doc", lambda v, fmt: calls.append(fmt))
    monkeypatch.setattr(tron_codec, "encode_tron_batch", lambda vs: calls.append("batch"))
    assert run_trajectory("t", script, executor, catalog, cfg) == first
    assert calls == []


def test_results_differing_in_node_type_render_differently():
    catalog = make_catalog(1)
    results = (Number("1"), Text("1"))
    executor = TableExecutor({("tool0", from_python({"arg0": "x", "limit": v})): v for v in results})
    for fmt in FORMATS:
        seen = []
        for v in results:
            step = step_intent("tool0", {"arg0": "x", "limit": v})
            script = (ScriptTurn(step), ScriptTurn(final_intent()))
            record = run_trajectory("t", script, executor, catalog, LoopConfig(format=fmt, mode="full"))
            (span,) = [s for s in record.spans if s.origin == "result"]
            assert decode_doc(span.text, fmt, unwrap=True) == v
            seen.append(span.text)
        assert seen[0] != seen[1], fmt


def test_mutating_returned_spans_leaves_next_prompt():
    catalog, executor, script = simple_run_pieces()
    cfg = LoopConfig(format="tron")
    expected = list(build_system_prompt_spans(catalog, cfg))
    spans = build_system_prompt_spans(catalog, cfg)
    spans[0] = spans[0]._replace(text="changed")
    del spans[1:]
    assert build_system_prompt_spans(catalog, cfg) == expected
    run_trajectory("t", script, executor, catalog, cfg).spans.clear()
    again = run_trajectory("t", script, executor, catalog, cfg)
    assert again.spans[: len(expected)] == expected


def test_equal_schemas_hash_equal_and_a_second_run_hits_the_prompt_memo(monkeypatch):
    a, b = make_catalog(3), make_catalog(3)
    assert a == b and all(x is not y for x, y in zip(a, b))
    assert [hash(x) for x in a] == [hash(x) for x in b]
    assert hash(a[0]._replace()) == hash(a[0])
    assert hash(a[0]) == hash((a[0].name, a[0].description, a[0].parameters))
    catalog, executor, script = simple_run_pieces()
    clear_memo()
    builds = []
    build = agent_mod._prompt_spans
    monkeypatch.setattr(agent_mod, "_prompt_spans", lambda *args: builds.append(args) or build(*args))
    first = run_trajectory("t", script, executor, catalog, LoopConfig())
    assert run_trajectory("t", script, executor, catalog, LoopConfig()) == first
    assert len(builds) == 1 and len(agent_mod._prompt_memo) == 1
    # an equal but distinct catalog is a new entry, with the same prompt
    copied = [s._replace() for s in catalog]
    assert build_system_prompt_spans(copied, LoopConfig()) == build_system_prompt_spans(catalog, LoopConfig())
    assert len(builds) == 2 and len(agent_mod._prompt_memo) == 2


def test_fresh_values_render_as_encode_doc():
    # CPython hands a freed object's id to the next object at once, so a memo
    # that did not hold its values would answer for a dead one here
    clear_memo()
    for i in range(300):
        v = from_python({"id": i, "rows": [{"n": i, "s": "x" * (i % 7)}]})
        for fmt in FORMATS:
            assert agent_mod._render_doc(v, fmt) == encode_doc(v, fmt), (i, fmt)


def test_memos_hold_no_more_than_their_bounds():
    clear_memo()
    catalog = make_catalog(2)
    for i in range(3 * agent_mod._doc_memo.size):
        agent_mod._render_doc(from_python({"i": i}), FORMATS[i % len(FORMATS)])
        assert len(agent_mod._doc_memo) <= agent_mod._doc_memo.size
    for i in range(3 * agent_mod._prompt_memo.size):
        schemas = [s._replace(description=f"d{i}") for s in catalog]
        spans = build_system_prompt_spans(schemas, LoopConfig(format=FORMATS[i % len(FORMATS)]))
        assert spans == list(agent_mod._prompt_spans(tuple(schemas), FORMATS[i % len(FORMATS)], "json"))
        assert len(agent_mod._prompt_memo) <= agent_mod._prompt_memo.size
    clear_memo()


def test_agent_record_contract():
    (schema,) = make_catalog(1)
    check_record(lambda: make_catalog(1)[0], schema._replace(name="other"), "name")
    check_record(lambda: LoopConfig(format="toon"), LoopConfig(), "format")
    check_record(lambda: Span("x", "call", "completion", 1), Span("x", "call", "completion", 2), "turn")
    check_record(lambda: ScriptTurn(final_intent(), think="hm"), ScriptTurn(final_intent()), "think")
    check_record(lambda: ParseFailure("shape", "x"), ParseFailure("decode", "x"), "stage")
    assert repr(LoopConfig()) == (
        "LoopConfig(format='json', mode='input_only', max_iterations=20, failure_rate=0.0, seed=0)"
    )


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LoopConfig(mode="sideways"), "unknown mode"),
        (lambda: LoopConfig._make(["json", "sideways", 20, 0.0, 0]), "unknown mode"),
        (lambda: LoopConfig()._replace(mode="sideways"), "unknown mode"),
        (lambda: LoopConfig(max_iterations=0), "max_iterations must be >= 1"),
        (lambda: LoopConfig._make(["json", "full", 0, 0.0, 0]), "max_iterations must be >= 1"),
        (lambda: LoopConfig()._replace(max_iterations=0), "max_iterations must be >= 1"),
        (lambda: ToolSchema("", "d", Object(())), "tool name must be non-empty"),
        (lambda: ToolSchema._make(["", "d", Object(())]), "tool name must be non-empty"),
        (lambda: make_catalog(1)[0]._replace(name=""), "tool name must be non-empty"),
    ],
    ids=[f"{what}-{path}" for what in ("mode", "max_iterations", "name") for path in ("new", "make", "replace")],
)
def test_record_checks_run_on_every_build_path(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_copied_schema_is_rebuilt_through_the_constructor():
    (schema,) = make_catalog(1)
    for other in (copy.copy(schema), copy.deepcopy(schema), pickle.loads(pickle.dumps(schema))):
        assert other == schema and hash(other) == hash(schema)
    assert b"_hash" not in pickle.dumps(schema)


@pytest.mark.parametrize("fmt", FORMATS)
def test_edited_description_yields_new_prompt(fmt):
    catalog = make_catalog(3)
    cfg = LoopConfig(format=fmt)
    before = prompt_text(catalog, cfg)
    edited = list(catalog)
    edited[1] = catalog[1]._replace(description="Edited description.")
    after = prompt_text(edited, cfg)
    assert "Edited description." in after and "Edited description." not in before
    assert prompt_text(catalog, cfg) == before
    clear_memo()
    assert prompt_text(edited, cfg) == after


# ---------------------------------------------------------------------------
# fixture loaders


def test_fixture_loaders(tmp_path):
    catalog_file = tmp_path / "catalog.json"
    catalog_file.write_text(
        json.dumps(
            [
                {
                    "name": "probe",
                    "description": "poke a thing",
                    "parameters": {"kind": "object"},
                }
            ]
        )
    )
    executor_file = tmp_path / "executor.json"
    executor_file.write_text(
        json.dumps([{"tool": "probe", "args": {"x": 1}, "result": {"ok": True}}])
    )
    trace_file = tmp_path / "trace.jsonl"
    trace_file.write_text(
        "\n".join(
            [
                json.dumps(
                    {
                        "turn": 0,
                        "role": "agent",
                        "text": json.dumps(
                            {"thought": "go", "action": "probe", "arguments": {"x": 1}}
                        ),
                        "corrupt": "swap_delimiter",
                        "think": "hm",
                    }
                ),
                json.dumps(
                    {"turn": 1, "role": "agent", "text": json.dumps({"final_answer": "ok"}), "fenced": True}
                ),
            ]
        )
    )
    catalog = load_catalog(catalog_file)
    executor = load_executor(executor_file)
    script = load_trace(trace_file)
    assert [s.name for s in catalog] == ["probe"]
    assert type(script) is tuple
    assert script[0].corrupt == "swap_delimiter"
    assert script[0].think == "hm"
    assert script[1].fenced
    record = run_trajectory("t", script, executor, catalog, LoopConfig())
    assert record.status == "final"
    assert record.cascade_count == 1


def test_loaders_refuse_a_repeated_call_or_tool(tmp_path):
    replay = FIXTURES / "replay"
    executor = json.loads((replay / "executor_weather.json").read_text(encoding="utf-8"))
    catalog = json.loads((replay / "catalog_weather.json").read_text(encoding="utf-8"))
    fixture = tmp_path / "fixture.json"
    # an exact repeat of an entry is the same table
    fixture.write_text(json.dumps(executor + [executor[0]]))
    assert load_executor(fixture).table == load_executor(replay / "executor_weather.json").table
    fixture.write_text(json.dumps(executor + [{**executor[0], "result": [1]}]))
    message = 'executor entry 3: tool \'forecast\' with args {"city":"Boulder","hours":3} has a different result'
    with pytest.raises(ValueError, match=re.escape(message)):
        load_executor(fixture)
    for repeat in (catalog[1], {**catalog[1], "description": "Again."}):
        fixture.write_text(json.dumps(catalog + [repeat]))
        with pytest.raises(ValueError, match="^catalog entry 3: tool 'air_quality' repeats entry 2$"):
            load_catalog(fixture)


def test_trace_lines_end_at_newline_only(tmp_path):
    # str.splitlines() breaks at all four; json.dumps writes the first three raw
    odd = "a\u2028b\u2029c\x85d\x0ce"
    intents = [
        {"thought": odd, "action": "probe", "arguments": {"x": odd}},
        {"final_answer": odd},
    ]
    lines = [
        json.dumps({"turn": i, "role": "agent", "text": json.dumps(intent, ensure_ascii=False)}, ensure_ascii=False)
        for i, intent in enumerate(intents)
    ]
    assert "\u2028" in lines[0] and "\x85" in lines[1]
    trace_file = tmp_path / "trace.jsonl"
    for ending in ("\n", "\r\n"):
        trace_file.write_bytes((ending.join(lines) + ending).encode("utf-8"))
        script = load_trace(trace_file)
        assert [turn.intent for turn in script] == [from_python(intent) for intent in intents]


def test_trace_loader_rejects_bad_records(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"turn": 0, "role": "user", "text": "{}"}))
    with pytest.raises(ValueError):
        load_trace(bad)
    bad.write_text(json.dumps({"turn": 0, "role": "agent", "text": "[1]"}))
    with pytest.raises(ValueError):
        load_trace(bad)
    bad.write_text(
        json.dumps({"turn": 0, "role": "agent", "text": "{}", "corrupt": "explode"})
    )
    with pytest.raises(ValueError):
        load_trace(bad)


@pytest.mark.parametrize(
    "field, value",
    [("fenced", "false"), ("fenced", 1), ("fenced", None), ("corrupt", 1), ("corrupt", None), ("think", ["hm"])],
)
def test_trace_loader_rejects_mistyped_marks(tmp_path, capsys, field, value):
    final = json.dumps({"turn": 0, "role": "agent", "text": json.dumps({"final_answer": "ok"})})
    trace = tmp_path / "trace.jsonl"
    trace.write_text(final + "\n" + json.dumps({"turn": 1, "role": "agent", "text": "{}", field: value}) + "\n")
    with pytest.raises(ValueError, match=f"trace line 2: {field} must be a JSON"):
        load_trace(trace)
    replay = ["replay", "--trace", str(trace), "--catalog", str(FIXTURES / "replay" / "catalog_weather.json")]
    assert cli.main(replay + ["--executor", str(FIXTURES / "replay" / "executor_weather.json")]) == 2
    assert f"trace line 2: {field} must be a JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, message",
    [
        (
            {"text": json.dumps({"final_answer": "ok"}), "think": "done</think>really"},
            "trace line 2: think holds '</think>', which ends the think block early",
        ),
        (
            {"text": json.dumps({"final_answer": "see ```x```"})},
            "trace line 2: intent holds '```', which opens a code fence",
        ),
        # the intent's minimal JSON is what a run renders from, so an escaped backtick counts too
        (
            {"text": '{"final_answer": "\\u0060``"}', "fenced": True},
            "trace line 2: intent holds '```', which opens a code fence",
        ),
    ],
    ids=["think", "intent", "escaped-intent"],
)
def test_trace_loader_refuses_a_turn_that_can_never_parse(tmp_path, capsys, line, message):
    step = json.dumps({"thought": "go", "action": "forecast", "arguments": {"city": "Boulder", "hours": 3}})
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps({"turn": 0, "role": "agent", "text": step}) + "\n" + json.dumps({"role": "agent", **line}))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_trace(trace)
    replay = ["replay", "--trace", str(trace), "--catalog", str(FIXTURES / "replay" / "catalog_weather.json")]
    assert cli.main(replay + ["--executor", str(FIXTURES / "replay" / "executor_weather.json")]) == 2
    assert capsys.readouterr().err == f"error: ValueError: {message}\n"
    # two backticks, or a think block that does not close early, still load
    trace.write_text(json.dumps({"role": "agent", "text": json.dumps({"final_answer": "``"}), "think": "<think>"}))
    assert load_trace(trace) == (ScriptTurn(from_python({"final_answer": "``"}), think="<think>"),)
