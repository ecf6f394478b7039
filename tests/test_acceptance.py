"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <id>: PASS/FAIL` line (visible with -s
or in captured output) and enforces its runtime budget.
"""

import time
from contextlib import contextmanager

from notation.agent import (
    LoopConfig,
    ScriptTurn,
    TableExecutor,
    ToolSchema,
    build_system_prompt_spans,
    corrupt_text,
    parse_envelope_outcome,
    run_trajectory,
    without_corruption,
)
from notation.agent import _error_observation  # acceptance oracle rebuilds observations
from notation.formats import FORMATS, encode_doc
from notation.json_codec import decode_json, encode_json
from notation.tokens import ByteCountTokenizer, decompose, delta_vs_baseline
from notation.toon_codec import decode_toon, encode_toon
from notation.tron_codec import decode_tron, encode_tron, encode_tron_batch
from notation.values import (
    DEFAULT_PROFILE,
    DELIMITER_PROFILE,
    TABULAR_PROFILE,
    Object,
    from_python,
    generate,
)

from conftest import FIXTURES, final_intent, make_catalog, sample_document, step_intent, tron_classing_singletons

BYTES = ByteCountTokenizer()


@contextmanager
def criterion(ident: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {ident}: FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, f"{ident} took {elapsed:.1f}s, budget {budget_seconds}s"
    print(f"ACCEPTANCE {ident}: PASS ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------


def test_criterion_1_golden_fidelity():
    with criterion("1 golden-fidelity", 1.0):
        sample = sample_document()

        toon_golden = (FIXTURES / "figure3.toon").read_text()
        assert encode_toon(sample) + "\n" == toon_golden  # byte-exact
        assert decode_toon(toon_golden) == sample

        tron_raw = (FIXTURES / "figure3.tron").read_text()
        head, _, body = tron_raw.partition("\n\n")
        tron_joined = head + "\n\n" + body.replace("\n", "")  # display wrap removed
        assert encode_tron(sample) == tron_joined
        assert decode_tron(tron_joined) == sample

        json_golden = (FIXTURES / "figure3.json").read_text()
        assert encode_json(sample) + "\n" == json_golden
        assert decode_json(json_golden) == sample


def test_criterion_2_round_trip_10000():
    profiles = (DEFAULT_PROFILE, DELIMITER_PROFILE, TABULAR_PROFILE)
    with criterion("2 round-trip-10000", 120.0):
        failures = 0
        for seed in range(10_000):
            v = generate(seed, profiles[seed % 3])
            wrapped = not isinstance(v, Object)
            if not (
                decode_json(encode_json(v)) == v
                and decode_toon(encode_toon(v), unwrap=wrapped) == v
                and decode_tron(encode_tron(v)) == v
            ):
                failures += 1
        assert failures == 0


def test_criterion_3_tron_batching_condition():
    with criterion("3 tron-batching", 1.0):
        catalog = [s.to_value() for s in make_catalog(5)]
        batched = len(encode_tron_batch(catalog).encode())
        individual = sum(len(encode_tron(v).encode()) for v in catalog)
        json_bytes = sum(len(encode_json(v).encode()) for v in catalog)
        assert batched < individual  # strict
        assert batched < json_bytes  # strict


def singleton_schema(i: int):
    """Every object here has a globally unique signature and <= 5 fields."""
    return from_python(
        {
            f"name_{i}": f"tool{i}",
            f"summary_{i}": "does one small thing",
            f"input_{i}": {
                f"kind_{i}": "object",
                f"field_{i}": {f"type_{i}": "string", f"doc_{i}": "the only argument"},
            },
        }
    )


def test_criterion_4_backfire_regime():
    with criterion("4 backfire-regime", 1.0):
        for i in range(8):
            v = singleton_schema(i)
            json_bytes = len(encode_json(v).encode())
            forced = len(tron_classing_singletons(v).encode())
            assert forced >= json_bytes  # header costs more than it deduplicates
            default = encode_tron(v)
            assert "class " not in default  # no classes: every shape here is met once
            assert len(default.encode()) == json_bytes  # |TRON - JSON| == 0


def test_criterion_5_tabular_compression():
    with criterion("5 tabular-compression", 30.0):
        wins = 0
        for seed in range(1_000):
            v = generate(seed, TABULAR_PROFILE)
            assert len(v) >= 3 and len(v.items[0]) >= 2
            if len(encode_toon(v).encode()) < len(encode_json(v).encode()):
                wins += 1
        assert wins == 1_000  # 100% of cases


# ---------------------------------------------------------------------------
# Criterion 6: cascade arithmetic.


def build_cascade_pieces(num_steps: int, corrupt_positions: set[int], pad: str):
    """Catalog, executor and script for a lookup loop with chunky results.

    Thought padding on corrupted turns dials the extra-iteration payload
    without touching per-turn savings (the pad rides in both formats).
    """
    params = from_python(
        {"type": "object", "properties": {"key": {"type": "string", "description": "record key"}}}
    )
    catalog = [ToolSchema("lookup", "Fetch a record batch by key.", params)]
    table = {}
    script = []
    results = []
    for i in range(num_steps):
        args = {"key": f"k{i}"}
        result = from_python(
            {
                "records": [
                    {"id": n, "label": f"item{n}", "score": n * 3, "state": "ready"}
                    for n in range(10)
                ]
            }
        )
        results.append(result)
        table[("lookup", from_python(args))] = result
        thought = f"look up k{i}"
        if i in corrupt_positions:
            thought += " " + pad if pad else ""
        script.append(
            ScriptTurn(
                step_intent("lookup", args, thought=thought),
                corrupt="swap_delimiter" if i in corrupt_positions else None,
            )
        )
    script.append(ScriptTurn(final_intent("all records fetched")))
    return catalog, TableExecutor(table), tuple(script), results


def hand_computed_totals(catalog, script, results, cfg: LoopConfig, task: str):
    """Trajectory byte totals composed from codec calls alone (no loop).

    clean_total covers the failure-free trajectory; extra_payloads holds
    the per-corrupted-turn cost: the corrupt emission plus the error
    observation span.
    """
    out_fmt = cfg.output_format
    total = sum(len(s.text.encode()) for s in build_system_prompt_spans(catalog, cfg))
    total += len(f"\nTask: {task}\n".encode())
    extra_payloads = []
    step_idx = 0
    for turn in script:
        doc = encode_doc(turn.intent, out_fmt)
        total += len(doc.encode())
        if turn.intent.get("final_answer") is not None:
            continue
        result_doc = encode_doc(results[step_idx], cfg.format)
        total += 1 + len(result_doc.encode()) + 1  # newline spans around the result
        if turn.corrupt is not None:
            corrupted = corrupt_text(doc, turn.corrupt)
            obs = f"\n{_error_observation('decode', out_fmt)}\n"
            extra_payloads.append(len(corrupted.encode()) + len(obs.encode()))
        step_idx += 1
    return total, extra_payloads


def run_cascade_fixture(num_steps, corrupt_positions, pad):
    catalog, executor, script, results = build_cascade_pieces(num_steps, corrupt_positions, pad)
    toon_cfg = LoopConfig(format="toon", mode="full")
    json_cfg = LoopConfig(format="json", mode="full")
    task = "fetch every record"

    toon_clean_hand, extras = hand_computed_totals(catalog, script, results, toon_cfg, task)
    json_hand, _ = hand_computed_totals(catalog, without_corruption(script), results, json_cfg, task)

    toon_breakdown = decompose(run_trajectory(task, script, executor, catalog, toon_cfg), BYTES)
    json_breakdown = decompose(
        run_trajectory(task, without_corruption(script), executor, catalog, json_cfg), BYTES
    )

    # T*s stays in integers: s is the per-turn saving amortized over the
    # T clean turns, so T*s is exactly the clean-run byte difference
    clean_savings = json_hand - toon_clean_hand
    hand_delta = sum(extras) - clean_savings  # E*p - T*s
    return {
        "measured_delta": toon_breakdown.total - json_breakdown.total,
        "hand_delta": hand_delta,
        "measured_toon": toon_breakdown.total,
        "hand_toon": toon_clean_hand + sum(extras),
        "measured_json": json_breakdown.total,
        "hand_json": json_hand,
        "clean_savings": clean_savings,
        "extras": extras,
        "component_deltas": delta_vs_baseline(toon_breakdown, json_breakdown),
    }


def test_criterion_6_cascade_arithmetic():
    with criterion("6 cascade-arithmetic", 5.0):
        steps = 4

        # construction validity: clean-run savings must be positive
        probe = run_cascade_fixture(steps, set(), "")
        assert probe["clean_savings"] > 0

        # E=1 zero-crossing: pad the one corrupted turn so E*p == T*s exactly
        base = run_cascade_fixture(steps, {0}, "")
        deficit = probe["clean_savings"] - base["extras"][0]
        assert deficit > 0, "fixture must leave room to pad up to the crossing"
        # the pad joins the thought after a space, so one byte is the separator
        zero_pad = "x" * (deficit - 1)

        fixtures = {
            "negative": run_cascade_fixture(steps, set(), ""),
            "zero": run_cascade_fixture(steps, {0}, zero_pad),
            "positive": run_cascade_fixture(steps, {0, 1}, zero_pad + "x" * 400),
        }

        def sign(x):
            return (x > 0) - (x < 0)

        expected_signs = {"negative": -1, "zero": 0, "positive": 1}
        for name, fx in fixtures.items():
            assert abs(fx["measured_toon"] - fx["hand_toon"]) <= 1, (name, fx)
            assert abs(fx["measured_json"] - fx["hand_json"]) <= 1, (name, fx)
            assert abs(fx["measured_delta"] - fx["hand_delta"]) <= 1, (name, fx)
            assert sign(fx["measured_delta"]) == expected_signs[name], (name, fx)
            assert sign(fx["measured_delta"]) == sign(fx["hand_delta"]), (name, fx)
        # the flip happens while per-call savings stay negative
        positive = fixtures["positive"]
        assert positive["component_deltas"]["call_tokens"] < 0
        assert positive["component_deltas"]["total"] > 0


def test_criterion_7_decomposition_integrity(capsys):
    with criterion("7 decomposition-integrity", 5.0):
        catalog, executor, script, _ = build_cascade_pieces(3, {1}, "why did that fail")
        for fmt in FORMATS:
            for mode in ("input_only", "full"):
                record = run_trajectory(
                    "t", script, executor, catalog, LoopConfig(format=fmt, mode=mode)
                )
                breakdown = decompose(record, BYTES)
                components = (
                    breakdown.schema_tokens + breakdown.call_tokens + breakdown.result_tokens
                )
                assert components <= breakdown.total
                assert breakdown.total == breakdown.prompt_tokens + breakdown.completion_tokens
                self_delta = delta_vs_baseline(breakdown, breakdown)
                assert all(v == 0.0 for v in self_delta.values())

        # both aggregation modes are emitted and labeled by the CLI
        from notation.cli import main

        code = main(
            [
                "replay",
                "--trace",
                str(FIXTURES / "replay" / "trace_weather.jsonl"),
                "--catalog",
                str(FIXTURES / "replay" / "catalog_weather.json"),
                "--executor",
                str(FIXTURES / "replay" / "executor_weather.json"),
                "--format",
                "toon",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "mean-of-percentages" in out
        assert "absolute-sum" in out


def test_criterion_8_envelope_preprocessing():
    with criterion("8 envelope-preprocessing", 1.0):
        args = {"rows": [{"a": 1, "b": 2}, {"a": 3, "b": 4}]}
        passes = 0
        for fmt in FORMATS:
            doc = encode_doc(step_intent("search", args, thought="look"), fmt)
            expected = parse_envelope_outcome(doc, fmt).envelope
            assert expected is not None
            wrappers = {
                "clean": doc,
                "think": f"<think>let me see</think>{doc}",
                "fence": f"```{fmt}\n{doc}\n```",
                "both": f"<think>let me see</think>\n```{fmt}\n{doc}\n```",
            }
            for raw in wrappers.values():
                assert parse_envelope_outcome(raw, fmt).envelope == expected
                passes += 1
            for kind, stage in (
                ("truncate_line", "decode"),
                ("swap_delimiter", "decode"),
                ("rename_action", "shape"),
            ):
                outcome = parse_envelope_outcome(corrupt_text(doc, kind), fmt)
                assert outcome.failure is not None
                assert outcome.failure.stage == stage
        assert passes == 12  # the full wrapper grid
