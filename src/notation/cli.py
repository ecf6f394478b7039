"""Command-line entry point: convert, measure, replay, roundtrip.

Exit codes are a contract: 0 success, 1 property violation (roundtrip),
2 decode/fixture failure, 3 I/O failure, 64 usage error. The format for
replay/convert targets can also come from the NOTATION_FORMAT environment
variable; explicit flags win.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .agent import (
    AbortedTrajectoryError,
    LoopConfig,
    ScriptExhaustedError,
    load_catalog,
    load_executor,
    load_trace,
    run_trajectory,
    without_corruption,
)
from .errors import CodecError, ParseError
from .formats import FORMATS, decode_doc, encode_doc, wraps_root
from .json_codec import JsonStyle, decode_json, encode_json
from .tokens import (
    COMPONENTS,
    Tokenizer,
    VocabLoadError,
    decompose,
    delta_vs_baseline,
    make_tokenizer,
    mean_pct,
    pct_delta,
)
from .toon_codec import decode_toon, encode_toon
from .tron_codec import encode_tron, encode_tron_batch
from .values import from_python

__all__ = ["main"]

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_DECODE = 2
EXIT_IO = 3
EXIT_USAGE = 64

ENV_FORMAT = "NOTATION_FORMAT"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit 2; 2 means decode here
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _env_format() -> str | None:
    fmt = os.environ.get(ENV_FORMAT)
    if fmt is not None and fmt not in FORMATS:
        print(f"error: {ENV_FORMAT} must be one of {', '.join(FORMATS)}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return fmt


def _resolve_format(flag_value: str | None, default: str = "json") -> str:
    if flag_value is not None:
        return flag_value
    return _env_format() or default


def _tokenizer_from_args(args) -> Tokenizer:
    vocab = merges = None
    if args.vocab:
        if "," in args.vocab:
            vocab, merges = args.vocab.split(",", 1)
        else:
            vocab = str(Path(args.vocab) / "vocab.json")
            merges = str(Path(args.vocab) / "merges.txt")
    return make_tokenizer(args.tokenizer, vocab, merges)


def _read_input(path: str) -> str:
    """A file's text, or stdin's for "-", decoded as UTF-8 with CRLF made LF.

    Nothing else is translated, so a bare CR reaches the decoder and the CLI
    accepts exactly what the library accepts. Bytes that are not UTF-8 are a
    ``ParseError``.
    """
    data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError("input is not valid UTF-8", pos=e.start) from None
    return text.replace("\r\n", "\n")


def _positive_int(arg: str) -> int:
    n = int(arg)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return n


def _write_report(path: str, report: dict) -> None:
    text = encode_json(from_python(report), JsonStyle(indent=2))
    Path(path).write_text(text + "\n", encoding="utf-8")


def _fmt_delta(v) -> str:
    return "n/a" if v is None else f"{v:+.1f}"


# ---------------------------------------------------------------------------
# convert


def cmd_convert(args) -> int:
    src_fmt = args.src_format
    dst_fmt = _resolve_format(args.dst_format, default="json")
    try:
        value = decode_doc(_read_input(args.input), src_fmt, unwrap=args.unwrap)
    except OSError as e:
        print(f"error: cannot read input: {e}", file=sys.stderr)
        return EXIT_IO
    except CodecError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_DECODE
    if dst_fmt == "json":
        out = encode_json(value, JsonStyle(indent=args.json_indent))
    else:
        out = encode_doc(value, dst_fmt)
        if wraps_root(value, dst_fmt):
            print("note: non-object root wrapped under synthetic 'value' key", file=sys.stderr)
    try:
        if args.out:
            Path(args.out).write_text(out + "\n", encoding="utf-8")
        else:
            print(out)
    except OSError as e:
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


# ---------------------------------------------------------------------------
# measure


def _measure_corpus(corpus_dir: str, tokenizer: Tokenizer, batch: bool) -> dict:
    paths = sorted(Path(corpus_dir).glob("*.json"))
    if not paths:
        raise FileNotFoundError(f"no .json files in {corpus_dir}")
    files = []
    roots = []
    sums = {"json": 0, "toon": 0, "tron": 0}
    for path in paths:
        value = decode_json(_read_input(str(path)))
        roots.append(value)
        counts = {
            "json": tokenizer.count(encode_json(value)),
            "toon": tokenizer.count(encode_toon(value)),
            "tron": tokenizer.count(encode_tron(value)),
        }
        for k, v in counts.items():
            sums[k] += v
        row = {"path": str(path), **counts}
        for fmt in ("toon", "tron"):
            row[f"{fmt}_delta_pct"] = pct_delta(counts[fmt], counts["json"])
        files.append(row)
    mean_of_pct = {fmt: mean_pct([row[f"{fmt}_delta_pct"] for row in files]) for fmt in ("toon", "tron")}
    absolute = {**sums}
    for fmt in ("toon", "tron"):
        absolute[f"{fmt}_delta_pct"] = pct_delta(sums[fmt], sums["json"])
    aggregates = {"mean_of_percentages": mean_of_pct, "absolute_sum": absolute}
    if batch:
        batched = tokenizer.count(encode_tron_batch(roots))
        aggregates["absolute_sum_batched"] = {
            "tron": batched,
            "tron_delta_pct": pct_delta(batched, sums["json"]),
        }
    return {"tokenizer": tokenizer.name, "files": files, "aggregates": aggregates}


def _render_measure(report: dict) -> str:
    width = max([len("file")] + [len(r["path"]) for r in report["files"]])
    lines = [
        f"{'file':<{width}}  {'json':>8} {'toon':>8} {'dTOON%':>8} {'tron':>8} {'dTRON%':>8}"
    ]
    for r in report["files"]:
        lines.append(
            f"{r['path']:<{width}}  {r['json']:>8} {r['toon']:>8} {_fmt_delta(r['toon_delta_pct']):>8}"
            f" {r['tron']:>8} {_fmt_delta(r['tron_delta_pct']):>8}"
        )
    agg = report["aggregates"]
    mop = agg["mean_of_percentages"]
    lines.append("")
    lines.append(
        f"{'aggregate mean-of-percentages':<{width}}  {'':>8} {'':>8} {_fmt_delta(mop['toon']):>8}"
        f" {'':>8} {_fmt_delta(mop['tron']):>8}"
    )
    a = agg["absolute_sum"]
    lines.append(
        f"{'aggregate absolute-sum':<{width}}  {a['json']:>8} {a['toon']:>8} {_fmt_delta(a['toon_delta_pct']):>8}"
        f" {a['tron']:>8} {_fmt_delta(a['tron_delta_pct']):>8}"
    )
    if "absolute_sum_batched" in agg:
        b = agg["absolute_sum_batched"]
        lines.append(
            f"{'aggregate absolute-sum, tron batched':<{width}}  {'':>8} {'':>8} {'':>8}"
            f" {b['tron']:>8} {_fmt_delta(b['tron_delta_pct']):>8}"
        )
    return "\n".join(lines)


def cmd_measure(args) -> int:
    try:
        tokenizer = _tokenizer_from_args(args)
    except VocabLoadError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DECODE
    try:
        report = _measure_corpus(args.corpus_dir, tokenizer, args.batch)
    except (CodecError, FileNotFoundError, NotADirectoryError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_DECODE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    print(_render_measure(report))
    if args.out:
        try:
            _write_report(args.out, report)
        except OSError as e:
            print(f"error: cannot write report: {e}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK


# ---------------------------------------------------------------------------
# replay


def _summarize_run(record, tokenizer: Tokenizer) -> dict:
    breakdown = decompose(record, tokenizer)
    return {
        "format": record.format,
        "mode": record.mode,
        "iterations": record.iterations,
        "cascade_count": record.cascade_count,
        "status": record.status,
        "breakdown": breakdown.as_dict(),
    }


def _replay_report(args, tokenizer: Tokenizer) -> dict:
    agent = load_trace(args.trace)
    catalog = load_catalog(args.catalog)
    executor = load_executor(args.executor)
    fmt = _resolve_format(args.format)
    target_cfg = LoopConfig(
        format=fmt,
        mode=args.mode,
        max_iterations=args.max_iterations,
        failure_rate=args.failure_rate,
        seed=args.seed,
    )
    # the reference run is the clean JSON baseline: parse failures model
    # format-unfamiliarity, which the baseline by definition does not have
    ref_cfg = LoopConfig(format="json", mode=args.mode, max_iterations=args.max_iterations, seed=args.seed)
    target = run_trajectory(args.task, agent, executor, catalog, target_cfg)
    reference = run_trajectory(args.task, without_corruption(agent), executor, catalog, ref_cfg)
    t_break = decompose(target, tokenizer)
    r_break = decompose(reference, tokenizer)
    deltas = delta_vs_baseline(t_break, r_break)
    aggregates = {
        "mean_of_percentages": mean_pct([deltas.deltas[c] for c in COMPONENTS if c != "total"]),
        "absolute_sum": deltas.deltas["total"],
    }
    return {
        "tokenizer": tokenizer.name,
        "run": _summarize_run(target, tokenizer),
        "reference": _summarize_run(reference, tokenizer),
        "deltas": deltas.deltas,
        "aggregates": aggregates,
    }


def _render_replay(report: dict) -> str:
    run = report["run"]
    ref = report["reference"]
    lines = [
        f"run:       format={run['format']} mode={run['mode']} iterations={run['iterations']}"
        f" cascade={run['cascade_count']} status={run['status']}",
        f"reference: format={ref['format']} mode={ref['mode']} iterations={ref['iterations']}"
        f" cascade={ref['cascade_count']} status={ref['status']}",
        "",
        f"{'component':<20} {ref['format']:>10} {run['format']:>10} {'delta%':>8}",
    ]
    for comp in COMPONENTS:
        lines.append(
            f"{comp:<20} {ref['breakdown'][comp]:>10} {run['breakdown'][comp]:>10}"
            f" {_fmt_delta(report['deltas'][comp]):>8}"
        )
    agg = report["aggregates"]
    lines.append("")
    lines.append(f"aggregate delta (mean-of-percentages): {_fmt_delta(agg['mean_of_percentages'])}%")
    lines.append(f"aggregate delta (absolute-sum):        {_fmt_delta(agg['absolute_sum'])}%")
    return "\n".join(lines)


def cmd_replay(args) -> int:
    try:
        tokenizer = _tokenizer_from_args(args)
    except VocabLoadError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DECODE
    try:
        report = _replay_report(args, tokenizer)
    except (CodecError, ValueError, AbortedTrajectoryError, ScriptExhaustedError, FileNotFoundError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_DECODE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    print(_render_replay(report))
    if args.out:
        try:
            _write_report(args.out, report)
        except OSError as e:
            print(f"error: cannot write report: {e}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK


# ---------------------------------------------------------------------------
# roundtrip


def cmd_roundtrip(args) -> int:
    from .values import (
        DEFAULT_PROFILE,
        DELIMITER_PROFILE,
        TABULAR_PROFILE,
        Object,
        generate,
    )
    from .tron_codec import decode_tron

    if args.count < 1:
        print("error: --count must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    profiles = {
        "default": [DEFAULT_PROFILE],
        "delimiters": [DELIMITER_PROFILE],
        "tabular": [TABULAR_PROFILE],
        "mixed": [DEFAULT_PROFILE, DELIMITER_PROFILE, TABULAR_PROFILE],
    }[args.profile]
    for i in range(args.count):
        seed = args.seed + i
        value = generate(seed, profiles[i % len(profiles)])
        try:
            assert decode_json(encode_json(value)) == value, "json"
            wrapped = not isinstance(value, Object)
            assert decode_toon(encode_toon(value), unwrap=wrapped) == value, "toon"
            assert decode_tron(encode_tron(value)) == value, "tron"
        except (AssertionError, CodecError) as e:
            print(f"FAIL seed={seed}: {e}")
            print(f"value: {encode_json(value)}")
            return EXIT_PROPERTY
    print(f"roundtrip: {args.count} values x 3 codecs: all passed")
    return EXIT_OK


# ---------------------------------------------------------------------------


MODES_CHOICES = ("input_only", "full")


def _add_tokenizer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tokenizer", choices=("bytes", "words", "bpe"), default="bytes")
    p.add_argument("--vocab", help="BPE source: a directory with vocab.json and merges.txt, or 'VOCAB,MERGES'")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="notation", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="re-encode a document between formats")
    p.add_argument("input", help="input file, or - for stdin")
    p.add_argument("--from", dest="src_format", choices=FORMATS, default="json")
    p.add_argument("--to", dest="dst_format", choices=FORMATS, default=None)
    p.add_argument("--json-indent", type=_positive_int, default=None, help="pretty-print JSON output")
    p.add_argument("--unwrap", action="store_true", help="unwrap a synthetic 'value' root on decode")
    p.add_argument("--out", help="write output to a file instead of stdout")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("measure", help="byte/token deltas for a corpus of JSON files")
    p.add_argument("corpus_dir")
    p.add_argument("--batch", action="store_true", help="also measure TRON batched over the whole corpus")
    p.add_argument("--out", help="write the machine-readable report here")
    _add_tokenizer_flags(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("replay", help="replay a scripted trajectory vs the JSON reference")
    p.add_argument("--trace", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--executor", required=True)
    p.add_argument("--format", choices=FORMATS, default=None)
    p.add_argument("--mode", choices=MODES_CHOICES, default="full")
    p.add_argument("--task", default="replay")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--failure-rate", type=float, default=0.0)
    p.add_argument("--max-iterations", type=int, default=20)
    p.add_argument("--out", help="write the machine-readable report here")
    _add_tokenizer_flags(p)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("roundtrip", help="generate documents and check all codecs round-trip")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--profile", choices=("default", "delimiters", "tabular", "mixed"), default="mixed")
    p.set_defaults(func=cmd_roundtrip)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
