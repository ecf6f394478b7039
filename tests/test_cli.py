import io
import json

import pytest

from notation.cli import main

from conftest import FIXTURES

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


# one input per failure class; {tmp} is the test's directory, where
# "in" holds the file bytes and "dir" is a directory
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
    ("out-of-range failure rate", REPLAY_ARGS + ["--failure-rate", "2"], None, None, 2),
]


@pytest.mark.parametrize(
    "argv, data, stdin, expected",
    [case[1:] for case in EXIT_TABLE],
    ids=[case[0] for case in EXIT_TABLE],
)
def test_exit_code_table(tmp_path, monkeypatch, capsys, argv, data, stdin, expected):
    (tmp_path / "dir").mkdir()
    if data is not None:
        (tmp_path / "in").write_bytes(data)
        (tmp_path / "dir" / "in.json").write_bytes(data)
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", stdin_bytes(stdin))
    try:
        code = main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    except SystemExit as e:  # argparse usage errors
        code = e.code
    err = capsys.readouterr().err
    assert code == expected, err
    assert "Traceback" not in err
    if expected:
        assert "error" in err


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
        for key in ("json", "toon", "tron"):
            assert str(row[key]) in out
        delta = row["toon_delta_pct"]
        assert (f"{delta:+.1f}" if delta is not None else "n/a") in out
    assert "mean-of-percentages" in out
    assert "absolute-sum" in out
    agg = report["aggregates"]
    assert set(agg) == {"mean_of_percentages", "absolute_sum", "absolute_sum_batched"}
    sums = {fmt: sum(r[fmt] for r in report["files"]) for fmt in ("json", "toon", "tron")}
    assert agg["absolute_sum"]["json"] == sums["json"]
    assert agg["absolute_sum"]["toon"] == sums["toon"]


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
    (corpus / "broken.json").write_text("{nope")
    code, out, err = run_cli(["measure", str(corpus)], capsys)
    assert code == 2
    assert out == ""


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


def test_replay_json_vs_json_all_zero(capsys):
    code, out, _ = run_cli(REPLAY_ARGS + ["--format", "json"], capsys)
    assert code == 0
    assert "+0.0" in out


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


def test_roundtrip_count_zero_usage_error(capsys):
    code, _, err = run_cli(["roundtrip", "--count", "0"], capsys)
    assert code == 64
