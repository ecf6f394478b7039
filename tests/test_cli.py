import gc
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import notation
from notation import cli, tokens, tron_codec
from notation.cli import main
from notation.errors import ParseError
from notation.formats import FORMATS, decode_doc, encode_doc
from notation.json_codec import encode_json
from notation.tokens import decompose
from notation.tron_codec import decode_tron_batch
from notation.values import from_python

from conftest import FIXTURES, REPO_ROOT

REPLAY_ARGS = [
    "replay",
    "--trace",
    str(FIXTURES / "replay" / "trace_weather.jsonl"),
    "--catalog",
    str(FIXTURES / "replay" / "catalog_weather.json"),
    "--executor",
    str(FIXTURES / "replay" / "executor_weather.json"),
]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# convert


def test_convert_golden_json_to_toon(capsys):
    code, out, _ = run_cli(
        ["convert", str(FIXTURES / "figure3.json"), "--from", "json", "--to", "toon"], capsys
    )
    assert code == 0
    assert out == (FIXTURES / "figure3.toon").read_text()


def test_convert_json_minimal_idempotent(tmp_path, capsys):
    first = tmp_path / "first.json"
    code, out, _ = run_cli(
        ["convert", str(FIXTURES / "figure3.json"), "--to", "json", "--out", str(first)], capsys
    )
    assert code == 0
    code, out, _ = run_cli(["convert", str(first), "--to", "json"], capsys)
    assert code == 0
    assert out == first.read_text()


def test_convert_composition_tron_round_trip(tmp_path, capsys):
    tron_file = tmp_path / "doc.tron"
    code, _, _ = run_cli(
        ["convert", str(FIXTURES / "figure3.json"), "--to", "tron", "--out", str(tron_file)],
        capsys,
    )
    assert code == 0
    code, out, _ = run_cli(["convert", str(tron_file), "--from", "tron", "--to", "json"], capsys)
    assert code == 0
    assert out.rstrip("\n") == (FIXTURES / "figure3.json").read_text().rstrip("\n")


def stdin_bytes(data: bytes):
    """A text stdin over raw bytes, as the interpreter gives one."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def test_convert_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", stdin_bytes(b'{"a":1}'))
    code, out, _ = run_cli(["convert", "-", "--to", "toon"], capsys)
    assert code == 0
    assert out == "a: 1\n"


def test_convert_wrap_note_and_unwrap(tmp_path, capsys):
    src = tmp_path / "arr.json"
    src.write_text("[1,2,3]")
    toon_file = tmp_path / "arr.toon"
    code, _, err = run_cli(["convert", str(src), "--to", "toon", "--out", str(toon_file)], capsys)
    assert code == 0
    assert "wrapped" in err
    code, out, _ = run_cli(
        ["convert", str(toon_file), "--from", "toon", "--to", "json", "--unwrap"], capsys
    )
    assert code == 0
    assert out.rstrip("\n") == "[1,2,3]"


def test_convert_decode_failure_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # the unpaired surrogate used to decode and then crash the TOON output
    for text in ('{"a":', '{"a":"\\ud800"}'):
        bad.write_text(text)
        code, _, err = run_cli(["convert", str(bad), "--to", "toon"], capsys)
        assert code == 2
        assert "ParseError" in err


def test_convert_huge_length_marker_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.toon"
    bad.write_text("a[" + "9" * 5000 + "]: 1\n")
    code, _, err = run_cli(["convert", str(bad), "--from", "toon", "--to", "json"], capsys)
    assert code == 2
    assert "ParseError" in err


def weather_fixture_with(name: str, repeat) -> bytes:
    """A weather fixture with ``repeat(first entry)`` appended, as file bytes."""
    entries = json.loads((FIXTURES / "replay" / name).read_text(encoding="utf-8"))
    return json.dumps(entries + [repeat(entries[0])]).encode()


# argv of a replay that reads one fixture, the trace, catalog or executor, from {tmp}/in
TRACE_IN = ["replay", "--trace", "{tmp}/in"] + REPLAY_ARGS[3:]
CATALOG_IN = REPLAY_ARGS[:4] + ["{tmp}/in"] + REPLAY_ARGS[5:]
EXECUTOR_IN = REPLAY_ARGS[:6] + ["{tmp}/in"]


def fixture_error(message):
    return f"error: ValueError: {message}\n"


# one input per failure class; {tmp} is the test's directory, where
# "in" holds the file bytes and "dir" is a directory. A sixth field, when
# present, is text stderr must hold
EXIT_TABLE = [
    ("toon bare CR, path", ["convert", "{tmp}/in", "--from", "toon"], b"a: 1\rb: 2", None, 2),
    ("toon bare CR, stdin", ["convert", "-", "--from", "toon"], None, b"a: 1\rb: 2", 2),
    ("json CRLF", ["convert", "{tmp}/in", "--to", "toon"], b'{\r\n "a": 1,\r\n "b": [2]\r\n}\r\n', None, 0),
    ("toon CRLF", ["convert", "{tmp}/in", "--from", "toon"], b"a: 1\r\n\r\nb:\r\n  c: x\r\n", None, 0),
    ("tron CRLF", ["convert", "{tmp}/in", "--from", "tron"], b"class A: x,y\r\n\r\n[A(1,2),A(3,4)]\r\n", None, 0),
    ("tron CRLF, stdin", ["convert", "-", "--from", "tron"], None, b"class A: x\r\n\r\n[A(1),A(2)]", 0),
    ("json syntax", ["convert", "{tmp}/in"], b'{"a":', None, 2),
    ("not UTF-8, path", ["convert", "{tmp}/in"], b'{"a":"\xff"}', None, 2),
    ("not UTF-8, stdin", ["convert", "-"], None, b'"\xc3"', 2),
    ("not UTF-8, measure", ["measure", "{tmp}/dir"], b'{"a":"\xff"}', None, 2),
    ("missing path", ["convert", "{tmp}/nope.json"], None, None, 3),
    ("directory as input", ["convert", "{tmp}/dir"], None, None, 3),
    ("unknown flag", ["convert", "{tmp}/in", "--no-such-flag"], b"{}", None, 64),
    ("bad flag value", ["convert", "{tmp}/in", "--json-indent", "0"], b"{}", None, 64),
    ("bad flag choice", ["convert", "{tmp}/in", "--to", "yaml"], b"{}", None, 64),
    ("json indent, toon output", ["convert", "{tmp}/in", "--to", "toon", "--json-indent", "2"], b"{}", None, 64),
    ("unwrap, json input", ["convert", "{tmp}/in", "--unwrap"], b"[1]", None, 64),
    ("vocab, bytes tokenizer", ["measure", "{tmp}/dir", "--vocab", str(FIXTURES / "bpe")], None, None, 64),
    ("vocab, replay words tokenizer", REPLAY_ARGS + ["--tokenizer", "words", "--vocab", str(FIXTURES / "bpe")], None, None, 64),
    ("out-of-range failure rate", REPLAY_ARGS + ["--failure-rate", "2"], None, None, 64),
    ("zero max iterations", REPLAY_ARGS + ["--max-iterations", "0"], None, None, 64),
    ("replay fixture through a file", ["replay", "--trace", "{tmp}/in/x.jsonl"] + REPLAY_ARGS[3:], b"{}", None, 2),
    (
        "executor entry with a second result",
        REPLAY_ARGS[:6] + ["{tmp}/in"],
        weather_fixture_with("executor_weather.json", lambda e: {**e, "result": {"city": "Nowhere"}}),
        None,
        2,
    ),
    (
        "catalog tool named twice",
        REPLAY_ARGS[:4] + ["{tmp}/in"] + REPLAY_ARGS[5:],
        weather_fixture_with("catalog_weather.json", lambda e: {**e, "description": "Again."}),
        None,
        2,
    ),
    (
        "catalog tool repeated exactly",
        REPLAY_ARGS[:4] + ["{tmp}/in"] + REPLAY_ARGS[5:],
        weather_fixture_with("catalog_weather.json", lambda e: e),
        None,
        2,
    ),
    ("catalog not an array", CATALOG_IN, b"{}", None, 2, fixture_error("catalog fixture must be a JSON array")),
    (
        "catalog entry not an object",
        CATALOG_IN,
        b"[1]",
        None,
        2,
        fixture_error("catalog entry 1: tool schema must be an object"),
    ),
    (
        "catalog entry without parameters",
        CATALOG_IN,
        b'[{"name":"forecast","description":"Hourly weather forecast for a city."}]',
        None,
        2,
        fixture_error("catalog entry 1: tool schema needs name, description and parameters"),
    ),
    (
        "second catalog entry without parameters",
        CATALOG_IN,
        b'[{"name":"a","description":"d","parameters":{}},{"name":"b","description":"d"}]',
        None,
        2,
        fixture_error("catalog entry 2: tool schema needs name, description and parameters"),
    ),
    (
        "catalog that does not decode",
        CATALOG_IN,
        b'[{"name":',
        None,
        2,
        "error: {tmp}/in: ParseError: unexpected end of input at position 9\n",
    ),
    ("executor entry not an object", EXECUTOR_IN, b"[1]", None, 2, fixture_error("executor entry 1 must be an object")),
    (
        "executor entry without result",
        EXECUTOR_IN,
        b'[{"tool":"forecast","args":{"city":"Boulder","hours":3}}]',
        None,
        2,
        fixture_error("executor entry 1 needs tool, args and result"),
    ),
    ("trace line not an object", TRACE_IN, b"[1]", None, 2, fixture_error("trace line 1 must be an object")),
    ("trace line without text", TRACE_IN, b'{"role":"agent"}', None, 2, fixture_error("trace line 1: text field required")),
    (
        "trace line that does not decode",
        TRACE_IN,
        b'{"role":"agent","text":"{}"}\n{"role":"agent",\n',
        None,
        2,
        "error: {tmp}/in: trace line 2: ParseError: unexpected end of input at position 16\n",
    ),
    (
        "trace text that does not decode",
        TRACE_IN,
        b'{"role":"agent","text":"{}"}\n{"role":"agent","text":"{\\"final_answer\\": }"}\n',
        None,
        2,
        "error: {tmp}/in: trace line 2: ParseError: unexpected character '}' at position 17\n",
    ),
    ("trace of blank lines", TRACE_IN, b"\n  \n\t\n", None, 2, fixture_error("trace fixture has no agent turns")),
    ("convert out is a directory", ["convert", "{tmp}/in", "--out", "{tmp}/dir"], b"{}", None, 3, "error: cannot write output"),
    ("measure out is a directory", ["measure", "{tmp}/dir", "--out", "{tmp}/dir"], b"{}", None, 3, "error: cannot write report"),
    (
        "measure a regular file",
        ["measure", "{tmp}/in"],
        b"{}",
        None,
        2,
        "error: NotADirectoryError: {tmp}/in is not a directory\n",
    ),
    ("replay out is a directory", REPLAY_ARGS + ["--out", "{tmp}/dir"], None, None, 3, "error: cannot write report"),
]


def run_exit_case(tmp_path, monkeypatch, capsys, argv, data=None, stdin=None):
    """Exit code, stdout and stderr of one EXIT_TABLE case, its files made in tmp_path."""
    (tmp_path / "dir").mkdir(exist_ok=True)
    if data is not None:
        (tmp_path / "in").write_bytes(data)
        (tmp_path / "dir" / "in.json").write_bytes(data)
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", stdin_bytes(stdin))
    try:
        code = main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    except SystemExit as e:  # argparse usage errors and help
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, data, stdin, expected, message",
    [(*case[1:5], case[5] if len(case) > 5 else "error") for case in EXIT_TABLE],
    ids=[case[0] for case in EXIT_TABLE],
)
def test_exit_code_table(tmp_path, monkeypatch, capsys, argv, data, stdin, expected, message):
    code, _, err = run_exit_case(tmp_path, monkeypatch, capsys, argv, data, stdin)
    assert code == expected, err
    assert "Traceback" not in err
    if expected:
        assert message.replace("{tmp}", str(tmp_path)) in err


# (id, argv, data, stdin): every help, every EXIT_TABLE case, and usage
# errors around the command name
PARSER_CASES = (
    [("help", ["--help"], None, None)]
    + [(f"{name} help", [name, "--help"], None, None) for name in cli.COMMANDS]
    + [case[:4] for case in EXIT_TABLE]
    + [
        ("no arguments", [], None, None),
        ("unknown command", ["nope"], None, None),
        ("measure, no corpus", ["measure"], None, None),
        ("unknown flag before the command", ["--bogus", "measure", "x"], None, None),
        ("unknown tokenizer", ["measure", "x", "--tokenizer", "nope"], None, None),
        ("unknown trailing flag", ["measure", "{tmp}/dir", "--bogus"], b"{}", None),
        ("extra positional", ["measure", "{tmp}/dir", "y"], b"{}", None),
        ("double dash", ["measure", "--tokenizer", "words", "--", "{tmp}/dir"], b"{}", None),
        ("flag after a double dash", ["measure", "--", "{tmp}/dir", "--tokenizer"], b"{}", None),
        ("abbreviated flag", ["measure", "{tmp}/dir", "--tok", "words"], b"{}", None),
        ("help after a positional", ["measure", "{tmp}/dir", "-h"], None, None),
        ("repeated flag", ["measure", "{tmp}/dir", "--tokenizer", "bpe", "--tokenizer", "words"], b"{}", None),
    ]
)


@pytest.mark.parametrize(
    "argv, data, stdin",
    [case[1:] for case in PARSER_CASES],
    ids=[case[0] for case in PARSER_CASES],
)
def test_parser_for_argv_acts_as_the_full_parser(tmp_path, monkeypatch, capsys, argv, data, stdin):
    """main prints and exits as it would with every command's parser reading argv."""
    routed = run_exit_case(tmp_path, monkeypatch, capsys, argv, data, stdin)
    monkeypatch.setattr(cli, "_parse_args", lambda argv: cli.build_parser().parse_args(argv))
    assert run_exit_case(tmp_path, monkeypatch, capsys, argv, data, stdin) == routed


def count_parsers(monkeypatch, capsys, argv) -> int:
    """How many ``_Parser`` objects ``main(argv)`` builds, sub-parsers included."""
    built = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counted)
    try:
        main(argv)
    except SystemExit:  # help and usage errors
        pass
    capsys.readouterr()
    return len(built)


@pytest.mark.parametrize(
    "argv",
    [[name, "--help"] for name in cli.COMMANDS] + [["roundtrip", "--count", "1"]],
    ids=[f"{name} help" for name in cli.COMMANDS] + ["roundtrip"],
)
def test_a_command_first_argv_builds_one_parser(monkeypatch, capsys, argv):
    assert count_parsers(monkeypatch, capsys, argv) == 1


@pytest.mark.parametrize(
    "argv",
    [[], ["--help"], ["nope"], ["--bogus", "roundtrip"]],
    ids=["no arguments", "help", "unknown command", "flag before the command"],
)
def test_an_argv_without_a_command_first_builds_the_full_parser(monkeypatch, capsys, argv):
    # the top-level parser and one sub-parser per command
    assert count_parsers(monkeypatch, capsys, argv) == 1 + len(cli.COMMANDS)


def test_an_argv_the_command_leaves_unread_goes_to_the_full_parser(monkeypatch, capsys):
    # the command's own parser, then the full one, which reports the unread "--bogus"
    assert count_parsers(monkeypatch, capsys, ["roundtrip", "--bogus"]) == 1 + 1 + len(cli.COMMANDS)


def test_convert_missing_file_exit_3(tmp_path, capsys):
    code, _, _ = run_cli(["convert", str(tmp_path / "nope.json"), "--to", "toon"], capsys)
    assert code == 3


def test_usage_error_exit_64(capsys):
    with pytest.raises(SystemExit) as e:
        main(["convert", "x", "--from", "yaml"])
    assert e.value.code == 64
    capsys.readouterr()


def test_env_var_sets_format(monkeypatch, capsys):
    monkeypatch.setenv("NOTATION_FORMAT", "toon")
    code, out, _ = run_cli(["convert", str(FIXTURES / "figure3.json")], capsys)
    assert code == 0
    assert out == (FIXTURES / "figure3.toon").read_text()
    # explicit flag wins over the environment
    code, out, _ = run_cli(["convert", str(FIXTURES / "figure3.json"), "--to", "json"], capsys)
    assert code == 0
    assert out.rstrip("\n") == (FIXTURES / "figure3.json").read_text().rstrip("\n")


@pytest.mark.parametrize(
    "env, argv, flag",
    [
        ("toon", ["--json-indent", "2"], "--json-indent"),
        ("tron", ["--to", "toon", "--json-indent", "2"], "--json-indent"),
        (None, ["--from", "tron", "--unwrap"], "--unwrap"),
    ],
)
def test_convert_refuses_a_flag_that_cannot_apply(monkeypatch, capsys, env, argv, flag):
    if env is None:
        monkeypatch.delenv("NOTATION_FORMAT", raising=False)
    else:
        monkeypatch.setenv("NOTATION_FORMAT", env)
    code, out, err = run_cli(["convert", str(FIXTURES / "figure3.json")] + argv, capsys)
    assert code == 64
    assert out == ""
    assert err.startswith(f"error: {flag} applies only to ")


def test_env_var_invalid_rejected(monkeypatch, capsys):
    monkeypatch.setenv("NOTATION_FORMAT", "yaml")
    with pytest.raises(SystemExit) as e:
        main(["convert", str(FIXTURES / "figure3.json")])
    assert e.value.code == 64
    capsys.readouterr()


# ---------------------------------------------------------------------------
# measure


def make_corpus(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    docs = {
        "tables.json": {
            "rows": [{"id": i, "name": f"row{i}", "size": i * 10} for i in range(6)]
        },
        "nested.json": {"a": {"b": {"c": [1, 2, 3], "d": "text"}}},
        "repeated.json": {
            "first": {"x": 1, "y": 2},
            "second": {"x": 3, "y": 4},
            "third": {"x": 5, "y": 6},
        },
    }
    for name, doc in docs.items():
        (corpus / name).write_text(json.dumps(doc))
    return corpus


def test_measure_report_matches_table(tmp_path, capsys):
    corpus = make_corpus(tmp_path)
    report_file = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["measure", str(corpus), "--batch", "--out", str(report_file)], capsys
    )
    assert code == 0
    report = json.loads(report_file.read_text())
    assert [r["path"].split("/")[-1] for r in report["files"]] == [
        "nested.json",
        "repeated.json",
        "tables.json",
    ]
    # rendered table carries the same numbers as the machine report
    for row in report["files"]:
        for key in FORMATS:
            assert str(row[key]) in out
        delta = row["toon_delta_pct"]
        assert (f"{delta:+.1f}" if delta is not None else "n/a") in out
    assert "mean-of-percentages" in out
    assert "absolute-sum" in out
    agg = report["aggregates"]
    assert set(agg) == {"mean_of_percentages", "absolute_sum", "absolute_sum_batched"}
    sums = {fmt: sum(r[fmt] for r in report["files"]) for fmt in FORMATS}
    assert agg["absolute_sum"]["json"] == sums["json"]
    assert agg["absolute_sum"]["toon"] == sums["toon"]


def test_measure_batch_golden(tmp_path, monkeypatch, capsys):
    """The whole measure --batch table and --out report, byte for byte."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("figure3.json", "replay/catalog_weather.json", "replay/executor_weather.json"):
        shutil.copy(FIXTURES / name, corpus)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["measure", "corpus", "--batch", "--out", "report.json"], capsys)
    assert code == 0
    assert out == (FIXTURES / "measure_golden.txt").read_text(encoding="utf-8")
    report = (tmp_path / "report.json").read_text(encoding="utf-8")
    assert report == (FIXTURES / "measure_golden.json").read_text(encoding="utf-8")


def test_measure_batch_golden_bpe(tmp_path, monkeypatch, capsys):
    """The same corpus counted with the fixture BPE vocabulary, byte for byte."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("figure3.json", "replay/catalog_weather.json", "replay/executor_weather.json"):
        shutil.copy(FIXTURES / name, corpus)
    monkeypatch.chdir(tmp_path)
    argv = ["measure", "corpus", "--batch", "--tokenizer", "bpe", "--vocab", str(FIXTURES / "bpe")]
    code, out, _ = run_cli(argv + ["--out", "report.json"], capsys)
    assert code == 0
    assert out == (FIXTURES / "measure_golden_bpe.txt").read_text(encoding="utf-8")
    report = (tmp_path / "report.json").read_text(encoding="utf-8")
    assert report == (FIXTURES / "measure_golden_bpe.json").read_text(encoding="utf-8")


def test_measure_batch_golden_words(tmp_path, monkeypatch, capsys):
    """Accented, CJK and emoji text and TOON's quoting cases, counted in words, byte for byte."""
    monkeypatch.chdir(REPO_ROOT)
    report_file = tmp_path / "report.json"
    argv = ["measure", "fixtures/measure_mixed", "--batch", "--tokenizer", "words", "--out", str(report_file)]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == (FIXTURES / "measure_golden_words.txt").read_text(encoding="utf-8")
    assert report_file.read_text(encoding="utf-8") == (FIXTURES / "measure_golden_words.json").read_text(encoding="utf-8")


def count_containers(obj) -> int:
    """The objects and arrays in a value json.loads gave, the root included."""
    if isinstance(obj, dict):
        return 1 + sum(map(count_containers, obj.values()))
    if isinstance(obj, list):
        return 1 + sum(map(count_containers, obj))
    return 0


@pytest.mark.parametrize("batch", [True, False], ids=["batch", "per-file"])
def test_measure_walks_each_container_once_and_renders_a_batch_only_when_asked(tmp_path, monkeypatch, capsys, batch):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("figure3.json", "replay/catalog_weather.json", "replay/executor_weather.json"):
        shutil.copy(FIXTURES / name, corpus)
    (corpus / "rows.json").write_text('[{"a":1},{"a":2},[]]', encoding="utf-8")
    (corpus / "scalar.json").write_text('"x"', encoding="utf-8")
    containers = sum(count_containers(json.loads(p.read_text(encoding="utf-8"))) for p in corpus.iterdir())
    calls = dict.fromkeys(("_count_shapes", "_render"), 0)
    for name in calls:
        real = getattr(tron_codec, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(tron_codec, name, counted)
    assert main(["measure", str(corpus)] + ["--batch"] * batch) == 0
    capsys.readouterr()
    # one census walk per file serves its own class table and the batch's
    assert calls == {"_count_shapes": containers, "_render": 5 + batch}


# what a report may hold: names and labels with C0 controls, DEL, U+2028 and
# non-BMP characters, counts past 2**63, finite deltas, None and booleans
REPORT_TEXT = st.text(
    alphabet=st.characters(codec="utf-8") | st.sampled_from(list('\x00\x1f\x7f\x85\u2028\u2029"\\é😀')), max_size=8
)
REPORT_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.sampled_from([2**63, 2**64 + 1, -(2**63) - 1, -0.0, 1e100, 5e-324])
    | st.floats(allow_nan=False, allow_infinity=False)
    | REPORT_TEXT
)
REPORT_DATA = st.recursive(
    REPORT_LEAVES,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(REPORT_TEXT, children, max_size=4),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(REPORT_TEXT, REPORT_DATA, max_size=5))
@example({})
@example({"files": [], "aggregates": {"mean_of_percentages": {}, "absolute_sum": {"json": 0, "delta": None}}})
@example({"n": [2**63, -0.0, 1e100, 5e-324, True, None], "s\u2028": ["\x00\x7f😀", [[]], {}]})
def test_out_report_writer_gives_the_document_model_bytes(report):
    """--out's stdlib writer gives the bytes of the document model's pretty JSON, kept here as the reference."""
    reference = encode_json(from_python(report), 2)
    assert json.dumps(report, indent=2, ensure_ascii=False, allow_nan=False) == reference


def test_measure_tabular_corpus_toon_negative(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "sample.json").write_text((FIXTURES / "figure3.json").read_text())
    report_file = tmp_path / "report.json"
    code, _, _ = run_cli(["measure", str(corpus), "--out", str(report_file)], capsys)
    assert code == 0
    report = json.loads(report_file.read_text())
    assert report["files"][0]["toon_delta_pct"] < 0


def test_measure_backfire_corpus_tron_never_negative(tmp_path, capsys):
    """Unique small schemas: nothing to deduplicate, TRON per-file delta 0."""
    corpus = tmp_path / "singleton"
    corpus.mkdir()
    for i in range(4):
        doc = {
            f"name_{i}": f"tool{i}",
            f"input_{i}": {f"kind_{i}": "object", f"field_{i}": {f"type_{i}": "string"}},
        }
        (corpus / f"s{i}.json").write_text(json.dumps(doc))
    report_file = tmp_path / "report.json"
    code, _, _ = run_cli(["measure", str(corpus), "--out", str(report_file)], capsys)
    assert code == 0
    report = json.loads(report_file.read_text())
    assert all(row["tron_delta_pct"] == 0.0 for row in report["files"])


def test_measure_batched_tron_negative_on_shared_shapes(tmp_path, capsys):
    """Signatures repeated across files: the batched class table pays off."""
    corpus = tmp_path / "shared"
    corpus.mkdir()
    for i in range(6):
        doc = {
            "name": f"tool{i}",
            "description": f"utility {i}",
            "parameters": {
                "type": "object",
                "properties": {"query": {"type": "string", "description": "input"}},
            },
        }
        (corpus / f"s{i}.json").write_text(json.dumps(doc))
    report_file = tmp_path / "report.json"
    code, _, _ = run_cli(["measure", str(corpus), "--batch", "--out", str(report_file)], capsys)
    assert code == 0
    report = json.loads(report_file.read_text())
    assert report["aggregates"]["absolute_sum_batched"]["tron_delta_pct"] < 0


def test_measure_fail_closed_on_bad_file(tmp_path, capsys):
    corpus = make_corpus(tmp_path)
    bad = {
        b"{nope": "ParseError: expected string key at position 1",
        b'{"a":"\xff"}': "ParseError: input is not valid UTF-8 at position 6",
    }
    for data, error in bad.items():
        (corpus / "broken.json").write_bytes(data)
        code, out, err = run_cli(["measure", str(corpus)], capsys)
        assert code == 2
        assert out == ""
        # one line that names the file, with the library's error after it
        assert err == f"error: {corpus / 'broken.json'}: {error}\n"


def test_measure_refuses_a_file_name_that_is_not_utf8(tmp_path, capsys):
    corpus = make_corpus(tmp_path)
    try:
        Path(os.fsdecode(os.fsencode(corpus) + b"/\xff.json")).write_text("{}")
    except (OSError, UnicodeError):
        pytest.skip("the filesystem refuses a file name that is not UTF-8")
    if not any("\udcff" in p.name for p in corpus.iterdir()):
        pytest.skip("the filesystem changed the file name")
    report_file = tmp_path / "report.json"
    code, out, err = run_cli(["measure", str(corpus), "--out", str(report_file)], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert ascii(str(corpus / "\udcff.json")) in err
    assert not report_file.exists()


def test_measure_unreadable_corpus_entry_exit_3(tmp_path, capsys):
    corpus = make_corpus(tmp_path)
    (corpus / "x.json").mkdir()
    code, out, err = run_cli(["measure", str(corpus)], capsys)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert str(corpus / "x.json") in err


def test_measure_empty_dir_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, _ = run_cli(["measure", str(empty)], capsys)
    assert code == 2


def test_measure_words_tokenizer(tmp_path, capsys):
    corpus = make_corpus(tmp_path)
    report_file = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["measure", str(corpus), "--tokenizer", "words", "--out", str(report_file)], capsys
    )
    assert code == 0
    report = json.loads(report_file.read_text())
    assert report["tokenizer"] == "words"
    assert all(row["json"] > 0 for row in report["files"])


def test_measure_bpe_tokenizer(tmp_path, capsys):
    corpus = make_corpus(tmp_path)
    vocab_dir = tmp_path / "bpe"
    vocab_dir.mkdir()
    (vocab_dir / "vocab.json").write_text(json.dumps({"a": 0, "b": 1, "ab": 2}))
    (vocab_dir / "merges.txt").write_text("a b\n")
    code, out, _ = run_cli(
        ["measure", str(corpus), "--tokenizer", "bpe", "--vocab", str(vocab_dir)], capsys
    )
    assert code == 0
    assert "aggregate" in out
    # a broken vocabulary is a decode failure
    (vocab_dir / "vocab.json").write_text("not json")
    code, _, _ = run_cli(
        ["measure", str(corpus), "--tokenizer", "bpe", "--vocab", str(vocab_dir)], capsys
    )
    assert code == 2


def test_measure_vocab_directory_with_a_comma(tmp_path, capsys):
    vocab_dir = tmp_path / "run,1" / "bpe"
    shutil.copytree(FIXTURES / "bpe", vocab_dir)
    argv = ["measure", str(FIXTURES / "replay"), "--tokenizer", "bpe", "--vocab"]
    code, expected, _ = run_cli(argv + [str(FIXTURES / "bpe")], capsys)
    assert code == 0
    # an existing directory is read as one, comma or not
    assert run_cli(argv + [str(vocab_dir)], capsys) == (0, expected, "")
    # any other value is VOCAB,MERGES, split at the first comma
    pair = f"{FIXTURES / 'bpe' / 'vocab.json'},{FIXTURES / 'bpe' / 'merges.txt'}"
    assert run_cli(argv + [pair], capsys) == (0, expected, "")
    code, _, err = run_cli(argv + [str(tmp_path / "run,1" / "missing")], capsys)
    assert code == 2
    assert "cannot read vocabulary file" in err


@pytest.mark.parametrize(
    "name, text",
    [
        ("vocab.json", b'{"a": 0, "\xff": 1}'),
        ("merges.txt", b"a \xff\n"),
        ("vocab.json", b"[" * 200000),
    ],
    ids=["vocab not UTF-8", "merges not UTF-8", "vocab nested too deeply"],
)
def test_measure_unreadable_vocab_exit_2(tmp_path, capsys, name, text):
    vocab_dir = tmp_path / "bpe"
    shutil.copytree(FIXTURES / "bpe", vocab_dir)
    (vocab_dir / name).write_bytes(text)
    argv = ["measure", str(FIXTURES / "replay"), "--tokenizer", "bpe", "--vocab", str(vocab_dir)]
    code, _, err = run_cli(argv, capsys)
    assert code == 2, err
    assert "Traceback" not in err
    assert str(vocab_dir / name) in err


def test_measure_deterministic(tmp_path, capsys):
    corpus = make_corpus(tmp_path)
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(["measure", str(corpus)], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# replay


def test_replay_clean_run(tmp_path, capsys):
    report_file = tmp_path / "replay.json"
    code, out, _ = run_cli(
        REPLAY_ARGS + ["--format", "toon", "--mode", "full", "--out", str(report_file)], capsys
    )
    assert code == 0
    report = json.loads(report_file.read_text())
    assert report["run"]["cascade_count"] == 0
    assert report["reference"]["format"] == "json"
    assert report["run"]["iterations"] == report["reference"]["iterations"]
    assert "mean-of-percentages" in out
    assert "absolute-sum" in out
    for comp, value in report["deltas"].items():
        assert (f"{value:+.1f}" if value is not None else "n/a") in out


def test_replay_matches_the_golden(tmp_path, capsys):
    """The weather fixtures in every format and mode, at failure rates 0 and 0.3
    and seeds 0 and 1: exit code, stdout, stderr and the --out report."""
    golden = json.loads((FIXTURES / "replay_golden.json").read_text(encoding="utf-8"))
    assert [run["flags"] for run in golden] == [
        f"--format {fmt} --mode {mode} --failure-rate {rate} --seed {seed}"
        for fmt in FORMATS
        for mode in ("input_only", "full")
        for rate in ("0", "0.3")
        for seed in (0, 1)
    ]
    for run in golden:
        out = tmp_path / "replay.json"
        out.unlink(missing_ok=True)
        code, stdout, stderr = run_cli(REPLAY_ARGS + run["flags"].split() + ["--out", str(out)], capsys)
        report = out.read_text(encoding="utf-8") if out.exists() else None
        assert (code, stdout, stderr, report) == (run["exit"], run["stdout"], run["stderr"], run["report"]), run["flags"]


def test_replay_json_vs_json_all_zero(capsys):
    code, out, _ = run_cli(REPLAY_ARGS + ["--format", "json"], capsys)
    assert code == 0
    assert "+0.0" in out


# executor entries that differ only in a number's literal, a value's type, key order, or that take a scalar
LOOKALIKE_CALLS = [{"a": 1}, {"a": 1.0}, {"a": "1"}, {"a": 1, "b": 2}, {"b": 2, "a": 1}, "x"]


def test_replay_hits_each_lookalike_call_s_own_entry(tmp_path, capsys):
    from notation.agent import LoopConfig, load_catalog, load_executor, load_trace, run_trajectory

    # a power of ten per pad, so the results' byte count tells any other multiset of entries apart
    results = [{"entry": n, "pad": "r" * 10**n} for n in range(len(LOOKALIKE_CALLS))]
    intents = [{"thought": "go", "action": "probe", "arguments": a} for a in LOOKALIKE_CALLS] + [{"final_answer": "ok"}]
    trace, catalog, executor = (tmp_path / name for name in ("trace.jsonl", "catalog.json", "executor.json"))
    trace.write_text("".join(json.dumps({"turn": 0, "role": "agent", "text": json.dumps(x)}) + "\n" for x in intents))
    catalog.write_text(json.dumps([{"name": "probe", "description": "Probe.", "parameters": {"type": "object"}}]))
    entries = [{"tool": "probe", "args": a, "result": r} for a, r in zip(LOOKALIKE_CALLS, results)]
    executor.write_text(json.dumps(entries))
    pieces = (load_trace(trace), load_executor(executor), load_catalog(catalog))
    expected = [notation.from_python(r) for r in results]
    for fmt in FORMATS:
        out = tmp_path / f"{fmt}.json"
        argv = ["replay", "--trace", str(trace), "--catalog", str(catalog), "--executor", str(executor)]
        code, _, err = run_cli(argv + ["--format", fmt, "--out", str(out)], capsys)
        assert (code, err) == (0, ""), fmt
        result_bytes = json.loads(out.read_text())["run"]["breakdown"]["result_tokens"]
        assert result_bytes == sum(len(encode_doc(r, fmt).encode()) for r in expected), fmt
        record = run_trajectory("t", *pieces, LoopConfig(format=fmt))
        assert [decode_doc(s.text, fmt) for s in record.spans if s.origin == "result"] == expected, fmt


def test_replay_corrupt_mark_reports_cascade(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    step = {"thought": "go", "action": "forecast", "arguments": {"city": "Boulder", "hours": 3}}
    trace.write_text(
        "\n".join(
            [
                json.dumps(
                    {"turn": 0, "role": "agent", "text": json.dumps(step), "corrupt": "swap_delimiter"}
                ),
                json.dumps({"turn": 1, "role": "agent", "text": json.dumps({"final_answer": "ok"})}),
            ]
        )
    )
    report_file = tmp_path / "replay.json"
    args = list(REPLAY_ARGS)
    args[2] = str(trace)
    code, _, _ = run_cli(
        args + ["--format", "toon", "--mode", "full", "--out", str(report_file)], capsys
    )
    assert code == 0
    report = json.loads(report_file.read_text())
    assert report["run"]["cascade_count"] == 1
    assert report["reference"]["cascade_count"] == 0
    assert report["run"]["iterations"] == report["reference"]["iterations"] + 1


def test_replay_tokenizes_each_run_once(monkeypatch, capsys):
    runs = []

    def counting_decompose(record, tokenizer):
        runs.append(record.format)
        return decompose(record, tokenizer)

    # cli imports the token meters when replay runs, so it finds the patched one
    monkeypatch.setattr(tokens, "decompose", counting_decompose)
    code, _, _ = run_cli(REPLAY_ARGS + ["--format", "toon"], capsys)
    assert code == 0
    assert runs == ["toon", "json"]


def test_tokenizer_choices_are_the_meters():
    assert cli.TOKENIZER_NAMES == tuple(tokens.TOKENIZERS)


def test_replay_missing_fixture_exit_2(tmp_path, capsys):
    args = list(REPLAY_ARGS)
    args[2] = str(tmp_path / "missing.jsonl")
    code, _, _ = run_cli(args, capsys)
    assert code == 2


def test_replay_bad_fixture_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json}")
    args = list(REPLAY_ARGS)
    args[2] = str(bad)
    code, _, _ = run_cli(args, capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# The measure report builder runs with the cyclic collector paused
# (``values._collector_paused``): no collection starts while a report is
# built, and every exit leaves ``gc.isenabled()`` as it found it.


@pytest.fixture
def eager_collector():
    """A young generation that fills after 10 allocations; the collector's settings restored after."""
    was_enabled = gc.isenabled()
    threshold = gc.get_threshold()
    gc.set_threshold(10)
    yield
    gc.set_threshold(*threshold)
    (gc.enable if was_enabled else gc.disable)()


def make_large_corpus(tmp_path):
    """Eight files: tables of 20 to 90 rows, each with a nested object per row."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for n in range(8):
        rows = [
            {"id": i, "name": f"row {i}", "tags": ["a", i, None], "at": {"x": i, "y": -i}}
            for i in range(20 + 10 * n)
        ]
        (corpus / f"doc{n}.json").write_text(json.dumps({"rows": rows, "n": n}))
    return corpus


def collections_while_building(argv, capsys) -> tuple[int, list[int]]:
    """``main(argv)``'s exit code, and the generation of each collection that starts inside the report builder."""
    inside = []

    def count(phase, info):
        frame = sys._getframe(1)
        while phase == "start" and frame is not None:
            if frame.f_code.co_filename == cli.__file__ and frame.f_code.co_name == "_measure_report":
                inside.append(info["generation"])
                return
            frame = frame.f_back

    gc.collect()
    gc.callbacks.append(count)
    try:
        code, _, _ = run_cli(argv, capsys)
    finally:
        gc.callbacks.remove(count)
    return code, inside


def test_no_collection_starts_while_a_report_is_built(tmp_path, capsys, eager_collector):
    gc.enable()
    argv = ["measure", str(make_large_corpus(tmp_path)), "--batch", "--tokenizer", "words"]
    assert collections_while_building(argv, capsys) == (0, [])
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_report_exits_leave_the_collector_as_they_found_it(tmp_path, capsys, eager_collector, enabled):
    corpus = make_large_corpus(tmp_path)
    bad = tmp_path / "bad"
    shutil.copytree(corpus, bad)
    (bad / "doc3.json").write_bytes(b'{"a":"\xff"}')
    cases = [
        (["measure", str(corpus), "--batch", "--tokenizer", "words"], 0),
        (["measure", str(bad), "--batch", "--tokenizer", "words"], 2),
        # a directory for --out: the report is built, then cannot be written
        (["measure", str(corpus), "--tokenizer", "words", "--out", str(tmp_path)], 3),
    ]
    (gc.enable if enabled else gc.disable)()
    for argv, expected in cases:
        code, _, _ = run_cli(argv, capsys)
        assert code == expected, argv
        assert gc.isenabled() is enabled, argv


# ---------------------------------------------------------------------------
# roundtrip


def test_roundtrip_pass(capsys):
    code, out, _ = run_cli(["roundtrip", "--count", "200", "--profile", "mixed"], capsys)
    assert code == 0
    assert "all passed" in out


def test_roundtrip_delimiter_profile_single(capsys):
    code, out, _ = run_cli(
        ["roundtrip", "--count", "1", "--seed", "7", "--profile", "delimiters"], capsys
    )
    assert code == 0


def test_roundtrip_checks_the_tron_batch_codec(monkeypatch, capsys):
    seen = []

    def lossy_batch_decode(text):
        roots = decode_tron_batch(text)
        seen.append(len(roots))
        return roots[:-1] if len(seen) == 2 else roots

    monkeypatch.setattr(tron_codec, "decode_tron_batch", lossy_batch_decode)
    code, out, _ = run_cli(["roundtrip", "--count", "20"], capsys)
    assert code == 1
    assert "FAIL seeds=8..15: tron-batch" in out
    assert seen == [8, 8]

    def rejecting_batch_decode(text):
        raise ParseError("batch has no document bodies")

    monkeypatch.setattr(tron_codec, "decode_tron_batch", rejecting_batch_decode)
    code, out, _ = run_cli(["roundtrip", "--count", "3", "--seed", "5"], capsys)
    assert code == 1
    assert "FAIL seeds=5..7: tron-batch: batch has no document bodies" in out


def test_roundtrip_batches_the_last_values_too(monkeypatch, capsys):
    sizes = []

    def counting_batch_decode(text):
        roots = decode_tron_batch(text)
        sizes.append(len(roots))
        return roots

    monkeypatch.setattr(tron_codec, "decode_tron_batch", counting_batch_decode)
    code, out, _ = run_cli(["roundtrip", "--count", "19"], capsys)
    assert code == 0
    assert out == "roundtrip: 19 values x 3 codecs: all passed\n"
    assert sizes == [8, 8, 3]



# run under ``python -O`` with decode_tron replaced by one that answers null
BROKEN_TRON_UNDER_O = """
import sys
from notation import tron_codec
from notation.cli import main
from notation.values import NULL

print("optimize", sys.flags.optimize)
tron_codec.decode_tron = lambda text: NULL
sys.exit(main(["roundtrip", "--count", "5"]))
"""


def test_roundtrip_fails_under_python_O():
    src = str(Path(notation.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_TRON_UNDER_O], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "optimize 1"
    assert lines[1] == "FAIL seed=0: tron"


def test_roundtrip_count_zero_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["roundtrip", "--count", "0"])
    assert e.value.code == 64
    assert "--count: must be >= 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# a reader that has gone


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["convert", str(FIXTURES / "figure3.json"), "--json-indent", "2"],
        ["measure", str(FIXTURES / "replay"), "--tokenizer", "words"],
        REPLAY_ARGS,
        ["roundtrip", "--count", "5"],
        ["--help"],
    ],
    ids=["convert", "measure", "replay", "roundtrip", "help"],
)
def test_closed_stdout_is_an_io_error(argv, unbuffered):
    src = str(Path(notation.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        # the console script's own call
        code = f"import sys; from notation.cli import main; sys.exit(main({argv!r}))"
        done = subprocess.run(
            [sys.executable, "-c", code], stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60
        )
    finally:
        os.close(write_end)
    assert done.returncode == 3, done.stderr
    # one line: no traceback, and no "Exception ignored" from the exit flush
    assert done.stderr.startswith("error: cannot write output: ")
    assert done.stderr.count("\n") == 1, done.stderr
