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

from .errors import CodecError, ParseError
from .formats import BASELINE, FORMATS, MODES, REGISTRY, decode_batch, decode_doc, encode_batch, encode_doc
from .json_codec import JsonStyle, decode_json, encode_json
from .tokens import (
    COMPONENTS,
    TOKENIZERS,
    Tokenizer,
    VocabLoadError,
    decompose,
    delta_vs_baseline,
    make_tokenizer,
    mean_pct,
    pct_delta,
)
from .values import DEFAULT_PROFILE, DELIMITER_PROFILE, TABULAR_PROFILE, Object, from_python, generate

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


def _resolve_format(flag_value: str | None) -> str:
    if flag_value is not None:
        return flag_value
    return _env_format() or BASELINE


def _tokenizer_from_args(args) -> Tokenizer:
    vocab = merges = None
    if args.vocab:
        # an existing directory wins, so its path may hold a comma
        if "," in args.vocab and not Path(args.vocab).is_dir():
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


def _rate(arg: str) -> float:
    x = float(arg)
    if not 0.0 <= x <= 1.0:
        raise argparse.ArgumentTypeError("must be in [0, 1]")
    return x


def _write_report(path: str, report: dict) -> None:
    text = encode_json(from_python(report), JsonStyle(indent=2))
    Path(path).write_text(text + "\n", encoding="utf-8")


def _fmt_delta(v) -> str:
    return "n/a" if v is None else f"{v:+.1f}"


# ---------------------------------------------------------------------------
# convert


def cmd_convert(args) -> int:
    src_fmt = args.src_format
    dst_fmt = _resolve_format(args.dst_format)
    try:
        value = decode_doc(_read_input(args.input), src_fmt, unwrap=args.unwrap)
    except OSError as e:
        print(f"error: cannot read input: {e}", file=sys.stderr)
        return EXIT_IO
    except CodecError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_DECODE
    if dst_fmt == BASELINE:
        out = encode_json(value, JsonStyle(indent=args.json_indent))
    else:
        out = encode_doc(value, dst_fmt)
    if REGISTRY[dst_fmt].wraps_root and not isinstance(value, Object):
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


# the report key of each format's delta against the baseline
DELTA_KEYS = {fmt: f"{fmt}_delta_pct" for fmt in FORMATS if fmt != BASELINE}


def _deltas(counts: dict) -> dict:
    return {key: pct_delta(counts[fmt], counts[BASELINE]) for fmt, key in DELTA_KEYS.items()}


def _measure_report(args, tokenizer: Tokenizer) -> dict:
    paths = sorted(Path(args.corpus_dir).glob("*.json"))
    if not paths:
        raise FileNotFoundError(f"no .json files in {args.corpus_dir}")
    files = []
    roots = []
    sums = dict.fromkeys(FORMATS, 0)
    for path in paths:
        value = decode_json(_read_input(str(path)))
        roots.append(value)
        counts = {fmt: tokenizer.count(encode_doc(value, fmt)) for fmt in FORMATS}
        for k, v in counts.items():
            sums[k] += v
        files.append({"path": str(path), **counts, **_deltas(counts)})
    mean_of_pct = {fmt: mean_pct([row[key] for row in files]) for fmt, key in DELTA_KEYS.items()}
    aggregates = {"mean_of_percentages": mean_of_pct, "absolute_sum": {**sums, **_deltas(sums)}}
    if args.batch:
        batched = aggregates["absolute_sum_batched"] = {}
        for fmt in FORMATS:
            if REGISTRY[fmt].batched:
                batched[fmt] = n = tokenizer.count(encode_batch(roots, fmt))
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
    try:
        tokenizer = _tokenizer_from_args(args)
    except VocabLoadError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DECODE
    try:
        report = build(args, tokenizer)
    except decode_errors as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_DECODE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    print(render(report))
    if args.out:
        try:
            _write_report(args.out, report)
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


def _replay_report(args, tokenizer: Tokenizer) -> dict:
    from .agent import LoopConfig, load_catalog, load_executor, load_trace, run_trajectory, without_corruption

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
    # the reference run is the clean baseline: parse failures model
    # format-unfamiliarity, which the baseline by definition does not have
    ref_cfg = LoopConfig(format=BASELINE, mode=args.mode, max_iterations=args.max_iterations, seed=args.seed)
    target = run_trajectory(args.task, agent, executor, catalog, target_cfg)
    reference = run_trajectory(args.task, without_corruption(agent), executor, catalog, ref_cfg)
    t_break = decompose(target, tokenizer)
    r_break = decompose(reference, tokenizer)
    deltas = delta_vs_baseline(t_break, r_break)
    aggregates = {
        "mean_of_percentages": mean_pct([deltas[c] for c in COMPONENTS if c != "total"]),
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
    p.add_argument("--tokenizer", choices=TOKENIZERS, default="bytes")
    p.add_argument(
        "--vocab",
        help="BPE source: a directory with vocab.json and merges.txt, else 'VOCAB,MERGES' split at the first comma",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="notation", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="re-encode a document between formats")
    p.add_argument("input", help="input file, or - for stdin")
    p.add_argument("--from", dest="src_format", choices=FORMATS, default=BASELINE)
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
    p.add_argument("--mode", choices=MODES, default="full")
    p.add_argument("--task", default="replay")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--failure-rate", type=_rate, default=0.0)
    p.add_argument("--max-iterations", type=_positive_int, default=20)
    p.add_argument("--out", help="write the machine-readable report here")
    _add_tokenizer_flags(p)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("roundtrip", help="generate documents and check all codecs round-trip, TRON batches too")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_positive_int, default=1000)
    p.add_argument("--profile", choices=ROUNDTRIP_PROFILES, default="mixed")
    p.set_defaults(func=cmd_roundtrip)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
