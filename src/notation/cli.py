"""Command-line entry point: convert, measure, replay, roundtrip.

Exit codes are a contract: 0 success, 1 property violation (roundtrip),
2 decode/fixture failure, 3 I/O failure, 64 usage error. The format for
replay/convert targets can also come from the NOTATION_FORMAT environment
variable; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import CodecError, ParseError, _FileDecodeError
from .formats import BASELINE, FORMATS, MODES, REGISTRY, decode_batch, decode_doc, encode_batch, encode_corpus, encode_doc
from .json_codec import decode_json, encode_json
from .toon_codec import WRAP_KEY
from .values import DEFAULT_PROFILE, DELIMITER_PROFILE, TABULAR_PROFILE, Object, _collector_paused, generate

__all__ = ["main"]

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_DECODE = 2
EXIT_IO = 3
EXIT_USAGE = 64

ENV_FORMAT = "NOTATION_FORMAT"

# the --tokenizer choices: the keys of tokens.TOKENIZERS, which only measure and replay load
TOKENIZER_NAMES = ("bytes", "words", "bpe")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit 2; 2 means decode here
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)

    def _print_message(self, message, file=None):  # argparse drops a failed write; main reports it
        if message:
            (file or sys.stderr).write(message)


def _resolve_format(flag_value: str | None) -> str:
    """The flag's format, else the environment's, else the baseline."""
    fmt = flag_value or os.environ.get(ENV_FORMAT, BASELINE)
    if fmt not in FORMATS:
        print(f"error: {ENV_FORMAT} must be one of {', '.join(FORMATS)}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return fmt


def _read_input(path: str) -> str:
    """A file's text, or stdin's for "-", decoded as UTF-8 with CRLF made LF.

    Nothing else is translated, so a bare CR reaches the decoder and the CLI
    accepts exactly what the library accepts. Bytes that are not UTF-8 are a
    ``ParseError``.
    """
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as f:
            data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError("input is not valid UTF-8", pos=e.start) from None
    return text.replace("\r\n", "\n")


def _write_text(path: str, text: str) -> None:
    """Write ``text`` and a final newline to ``path`` as UTF-8: the --out files."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")


def _positive_int(arg: str) -> int:
    n = int(arg)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return n


def _rate(arg: str) -> float:
    x = float(arg)
    if not 0.0 <= x <= 1.0:
        raise argparse.ArgumentTypeError("must be in [0, 1]")
    return x


def _fmt_delta(v) -> str:
    return "n/a" if v is None else f"{v:+.1f}"


# ---------------------------------------------------------------------------
# convert


def cmd_convert(args) -> int:
    src_fmt = args.src_format
    dst_fmt = _resolve_format(args.dst_format)
    if args.json_indent is not None and dst_fmt != BASELINE:
        print(f"error: --json-indent applies only to {BASELINE} output", file=sys.stderr)
        return EXIT_USAGE
    if args.unwrap and not REGISTRY[src_fmt].wraps_root:
        wrapping = ", ".join(f for f in FORMATS if REGISTRY[f].wraps_root)
        print(f"error: --unwrap applies only to {wrapping} input", file=sys.stderr)
        return EXIT_USAGE
    try:
        value = decode_doc(_read_input(args.input), src_fmt, unwrap=args.unwrap)
    except OSError as e:
        print(f"error: cannot read input: {e}", file=sys.stderr)
        return EXIT_IO
    except CodecError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_DECODE
    if dst_fmt == BASELINE:
        out = encode_json(value, args.json_indent)
    else:
        out = encode_doc(value, dst_fmt)
    if REGISTRY[dst_fmt].wraps_root and not isinstance(value, Object):
        print(f"note: non-object root wrapped under synthetic {WRAP_KEY!r} key", file=sys.stderr)
    if not args.out:
        print(out)  # main reports a closed stdout
        return EXIT_OK
    try:
        _write_text(args.out, out)
    except OSError as e:
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


# ---------------------------------------------------------------------------
# measure


# the report key of each format's delta against the baseline
DELTA_KEYS = {fmt: f"{fmt}_delta_pct" for fmt in FORMATS if fmt != BASELINE}


# the report is built with the collector paused: its trees hold no cycle
# and die when the builder returns (see values._collector_paused)
@_collector_paused
def _measure_report(args, tokenizer) -> dict:
    from .tokens import mean_pct, pct_delta

    def deltas(counts: dict) -> dict:
        return {key: pct_delta(counts[fmt], counts[BASELINE]) for fmt, key in DELTA_KEYS.items()}

    paths = sorted(Path(args.corpus_dir).glob("*.json"))
    if not paths:
        if os.path.exists(args.corpus_dir) and not os.path.isdir(args.corpus_dir):
            raise NotADirectoryError(f"{args.corpus_dir} is not a directory")
        raise FileNotFoundError(f"no .json files in {args.corpus_dir}")
    for path in paths:
        # the table and the report name each file, and both are UTF-8
        try:
            str(path).encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError(f"file name is not UTF-8: {ascii(str(path))}") from None
    values = []
    for path in paths:
        try:
            values.append(decode_json(_read_input(str(path))))
        except CodecError as e:
            raise _FileDecodeError(str(path), e) from e
    # each format's per-file texts, and its batch text when it has one and --batch asks
    encoded = {fmt: encode_corpus(values, fmt, args.batch) for fmt in FORMATS}
    files = []
    sums = dict.fromkeys(FORMATS, 0)
    for i, path in enumerate(paths):
        counts = {fmt: tokenizer.count(texts[i]) for fmt, (texts, _) in encoded.items()}
        for k, v in counts.items():
            sums[k] += v
        files.append({"path": str(path), **counts, **deltas(counts)})
    mean_of_pct = {fmt: mean_pct([row[key] for row in files]) for fmt, key in DELTA_KEYS.items()}
    aggregates = {"mean_of_percentages": mean_of_pct, "absolute_sum": {**sums, **deltas(sums)}}
    if args.batch:
        batched = aggregates["absolute_sum_batched"] = {}
        for fmt, (_, text) in encoded.items():
            if text is not None:
                batched[fmt] = n = tokenizer.count(text)
                batched[DELTA_KEYS[fmt]] = pct_delta(n, sums[BASELINE])
    return {"tokenizer": tokenizer.name, "files": files, "aggregates": aggregates}


def _measure_line(label: str, row: dict, width: int) -> str:
    """One table line: each format's count and then its delta, blank where row has none."""
    cells = []
    for fmt in FORMATS:
        cells.append(row.get(fmt, ""))
        if fmt in DELTA_KEYS:
            cells.append(_fmt_delta(row[DELTA_KEYS[fmt]]) if DELTA_KEYS[fmt] in row else "")
    return f"{label:<{width}}  " + " ".join(f"{c:>8}" for c in cells)


def _render_measure(report: dict) -> str:
    width = max([len("file")] + [len(r["path"]) for r in report["files"]])
    header = []
    for fmt in FORMATS:
        header += [fmt, f"d{fmt.upper()}%"] if fmt in DELTA_KEYS else [fmt]
    lines = [f"{'file':<{width}}  " + " ".join(f"{c:>8}" for c in header)]
    lines += [_measure_line(r["path"], r, width) for r in report["files"]]
    agg = report["aggregates"]
    mop = {DELTA_KEYS[fmt]: d for fmt, d in agg["mean_of_percentages"].items()}
    lines.append("")
    lines.append(_measure_line("aggregate mean-of-percentages", mop, width))
    lines.append(_measure_line("aggregate absolute-sum", agg["absolute_sum"], width))
    batched = agg.get("absolute_sum_batched", {})
    for fmt in FORMATS:
        if fmt in batched:
            row = {k: batched[k] for k in (fmt, DELTA_KEYS[fmt])}
            lines.append(_measure_line(f"aggregate absolute-sum, {fmt} batched", row, width))
    return "\n".join(lines)


def _run_report(args, build, render, decode_errors: tuple) -> int:
    """Load the tokenizer, build the report, print it, write --out: measure and replay."""
    if args.vocab is not None and args.tokenizer != "bpe":
        print("error: --vocab applies only to --tokenizer bpe", file=sys.stderr)
        return EXIT_USAGE
    # the token meters load here only, so convert and roundtrip start without them
    from .tokens import VocabLoadError, make_tokenizer

    vocab = merges = None
    if args.vocab:
        # an existing directory wins, so its path may hold a comma
        if "," in args.vocab and not Path(args.vocab).is_dir():
            vocab, merges = args.vocab.split(",", 1)
        else:
            vocab = str(Path(args.vocab) / "vocab.json")
            merges = str(Path(args.vocab) / "merges.txt")
    try:
        tokenizer = make_tokenizer(args.tokenizer, vocab, merges)
    except VocabLoadError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DECODE
    try:
        report = build(args, tokenizer)
    except _FileDecodeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DECODE
    except decode_errors as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_DECODE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    print(render(report))
    if args.out:
        text = json.dumps(report, indent=2, ensure_ascii=False, allow_nan=False)
        try:
            _write_text(args.out, text)
        except OSError as e:
            print(f"error: cannot write report: {e}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK


def cmd_measure(args) -> int:
    return _run_report(args, _measure_report, _render_measure, (CodecError, FileNotFoundError, NotADirectoryError))


# ---------------------------------------------------------------------------
# replay


def _summarize_run(record, breakdown) -> dict:
    return {
        "format": record.format,
        "mode": record.mode,
        "iterations": record.iterations,
        "cascade_count": record.cascade_count,
        "status": record.status,
        "breakdown": breakdown.as_dict(),
    }


def _replay_report(args, tokenizer) -> dict:
    """The run under the flags against its reference run (``agent.run_with_reference``), counted by ``tokenizer``."""
    from .agent import LoopConfig, load_catalog, load_executor, load_trace, run_with_reference
    from .tokens import decompose, delta_vs_baseline, mean_pct

    script = load_trace(args.trace)
    catalog = load_catalog(args.catalog)
    executor = load_executor(args.executor)
    cfg = LoopConfig(
        format=_resolve_format(args.format),
        mode=args.mode,
        max_iterations=args.max_iterations,
        failure_rate=args.failure_rate,
        seed=args.seed,
    )
    target, reference = run_with_reference(args.task, script, executor, catalog, cfg)
    t_break = decompose(target, tokenizer)
    r_break = decompose(reference, tokenizer)
    deltas = delta_vs_baseline(t_break, r_break)
    aggregates = {
        "mean_of_percentages": mean_pct([d for c, d in deltas.items() if c != "total"]),
        "absolute_sum": deltas["total"],
    }
    return {
        "tokenizer": tokenizer.name,
        "run": _summarize_run(target, t_break),
        "reference": _summarize_run(reference, r_break),
        "deltas": deltas,
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
    for comp in report["deltas"]:
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
    # the replay harness loads here only, so the other commands start without it
    from .agent import AbortedTrajectoryError, ScriptExhaustedError

    errors = (
        CodecError,
        ValueError,
        AbortedTrajectoryError,
        ScriptExhaustedError,
        FileNotFoundError,
        NotADirectoryError,
    )
    return _run_report(args, _replay_report, _render_replay, errors)


# ---------------------------------------------------------------------------
# roundtrip


# generated values per round trip through a batch codec
ROUNDTRIP_BATCH = 8

ROUNDTRIP_PROFILES = {
    "default": [DEFAULT_PROFILE],
    "delimiters": [DELIMITER_PROFILE],
    "tabular": [TABULAR_PROFILE],
    "mixed": [DEFAULT_PROFILE, DELIMITER_PROFILE, TABULAR_PROFILE],
}


def _batch_failure(roots: list) -> str | None:
    """Which batch codec does not bring ``roots`` back, or None when all do."""
    for fmt in FORMATS:
        if REGISTRY[fmt].batched:
            try:
                if decode_batch(encode_batch(roots, fmt), fmt) != roots:
                    return f"{fmt}-batch"
            except CodecError as e:
                return f"{fmt}-batch: {e}"
    return None


def _roundtrip_failure(value) -> str | None:
    """Which codec does not bring ``value`` back, or None when all do.

    Explicit comparisons, not ``assert``: ``python -O`` would strip those
    and report a broken codec as passing.
    """
    unwrap = not isinstance(value, Object)
    for fmt in FORMATS:
        try:
            if decode_doc(encode_doc(value, fmt), fmt, unwrap=unwrap) != value:
                return fmt
        except CodecError as e:
            return f"{fmt}: {e}"
    return None


def cmd_roundtrip(args) -> int:
    profiles = ROUNDTRIP_PROFILES[args.profile]
    batch: list = []
    for i in range(args.count):
        seed = args.seed + i
        value = generate(seed, profiles[i % len(profiles)])
        failure = _roundtrip_failure(value)
        if failure is not None:
            print(f"FAIL seed={seed}: {failure}")
            print(f"value: {encode_json(value)}")
            return EXIT_PROPERTY
        batch.append(value)
        if len(batch) == ROUNDTRIP_BATCH or i == args.count - 1:
            failure = _batch_failure(batch)
            if failure is not None:
                print(f"FAIL seeds={seed + 1 - len(batch)}..{seed}: {failure}")
                return EXIT_PROPERTY
            batch = []
    print(f"roundtrip: {args.count} values x {len(FORMATS)} codecs: all passed")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _add_tokenizer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tokenizer", choices=TOKENIZER_NAMES, default="bytes")
    p.add_argument(
        "--vocab",
        help="BPE source: a directory with vocab.json and merges.txt, else 'VOCAB,MERGES' split at the first comma",
    )


def _convert_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="input file, or - for stdin")
    p.add_argument("--from", dest="src_format", choices=FORMATS, default=BASELINE)
    p.add_argument("--to", dest="dst_format", choices=FORMATS, default=None)
    p.add_argument("--json-indent", type=_positive_int, default=None, help="pretty-print JSON output")
    p.add_argument("--unwrap", action="store_true", help=f"unwrap a synthetic {WRAP_KEY!r} root on decode")
    p.add_argument("--out", help="write output to a file instead of stdout")
    p.set_defaults(func=cmd_convert)


def _measure_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("corpus_dir")
    p.add_argument("--batch", action="store_true", help="also measure TRON batched over the whole corpus")
    p.add_argument("--out", help="write the machine-readable report here")
    _add_tokenizer_flags(p)
    p.set_defaults(func=cmd_measure)


def _replay_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--executor", required=True)
    p.add_argument("--format", choices=FORMATS, default=None)
    p.add_argument("--mode", choices=MODES, default="full")
    p.add_argument("--task", default="replay")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--failure-rate", type=_rate, default=0.0)
    p.add_argument("--max-iterations", type=_positive_int, default=20)
    p.add_argument("--out", help="write the machine-readable report here")
    _add_tokenizer_flags(p)
    p.set_defaults(func=cmd_replay)


def _roundtrip_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_positive_int, default=1000)
    p.add_argument("--profile", choices=ROUNDTRIP_PROFILES, default="mixed")
    p.set_defaults(func=cmd_roundtrip)


# each command: its help line and what adds its flags
COMMANDS = {
    "convert": ("re-encode a document between formats", _convert_flags),
    "measure": ("byte/token deltas for a corpus of JSON files", _measure_flags),
    "replay": ("replay a scripted trajectory vs the JSON reference", _replay_flags),
    "roundtrip": ("generate documents and check all codecs round-trip, TRON batches too", _roundtrip_flags),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command: the one that reports help and usage errors at the top level."""
    parser = _Parser(prog="notation", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_flags) in COMMANDS.items():
        add_flags(sub.add_parser(name, help=help_line))
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, built cheaply when ``argv[0]`` names a command.

    The command's own parser then reads the rest: ``add_parser`` gives a
    sub-parser this prog, so its help and usage errors print as the full
    parser's would. An argv it leaves partly unread, or one that names no
    command first, goes to the full parser, which reports it.
    """
    if argv and argv[0] in COMMANDS:
        parser = _Parser(prog=f"notation {argv[0]}")
        COMMANDS[argv[0]][1](parser)
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = _parse_args(sys.argv[1:] if argv is None else argv)
            return args.func(args)
        finally:
            sys.stdout.flush()
    except BrokenPipeError as e:
        # the reader has gone: say so once, and let the exit flush write to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
