#!/usr/bin/env python3
"""Differential check of the three codecs: this tree against another one.

    python scripts/diff_codecs.py --against REV_OR_DIR [--cases N] [--seed S]

REV_OR_DIR is a directory that holds ``notation/`` (a ``src/`` copy) or a
checkout that holds ``src/notation/``; anything else is taken as a git
revision of this repository, and its ``src/`` is exported with ``git
archive``. Each side runs in its own interpreter with its own ``src/``
first on ``PYTHONPATH``, and both read the same seeded stream of cases:

* generated documents, written as JSON in several styles, decoded, then
  encoded as JSON (minimal and pretty), TOON, TRON, the TRON batch and the
  TRON batch of the documents twice over (so every shape in it repeats),
  and each encoding decoded back;
* those encodings mutated (truncated, a UTF-8 byte flipped, a delimiter
  spliced in or written over one character; for JSON also a JSON token
  inserted, deleted or written over) and decoded;
* token soups for each format, and nesting around the cap.

The cases and their pools live here, not in ``notation``, so a change to
the program cannot change what it is checked on. Every decode is compared
by its value (through ``.pairs``, ``.items`` and the literals) or by its
error (class, message, ``pos`` and ``line``), and every encoding byte for
byte. Prints one summary line; on a difference, also the first three cases
that differ, with input and both outcomes, and exits 1. Exits 2 when a side
cannot be set up or its worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# differing cases printed in full, input and both outcomes
SHOW = 3

# ---------------------------------------------------------------------------
# Pools.


class Num(str):
    """A JSON number literal, written verbatim."""


class Members(list):
    """An object's (key, value) pairs in order; a key may repeat."""


WORDS = ("alpha", "bravo", "delta", "echo", "lima", "oscar", "amber", "cobalt", "ember", "fjord", "kelp")
KEYS = ("id", "name", "price", "qty", "active", "city", "status", "ts", "note", "code", "tags", "meta")
# strings and keys that touch the structural characters of the three grammars
ODD_STRINGS = (
    "a,b", "x: y", 'say "hi"', "f(1)", "(paren)", "line\nbreak", "cr\rret", "tab\tstop", "back\\slash",
    "07", "007 agent", "3.14", "-5", "1e3", "true", "null", "false", "[0]", "{brace}", "}close", "]close",
    "- dash", "-", "trailing ", " leading", "comma,", ":colon", "A(1)", "B(", "class A: x", "café ✓", "",
    " ", "#hash", "C:\\path", "emoji 🚀", "\u2028sep", "del\x7f", "ctl\x01\x1f", "\\u0041", "NaN",
    "Infinity", "/slash", "日本語",
)
ODD_KEYS = (
    "with space", "a,b", "x: y", "07", "value", "class", "a[0]", "{k}", "}k", "]k", "dash-", 'quo"te',
    "new\nline", " pad ", "k=v", "A(x)", "ümlaut", "tab\tkey", "1e3", "true", "null", "", "-v",
    "--dry-run", "- item", "#", "back\\slash",
)
NUMBERS = ("0", "-0", "1", "-1", "42", "007", "0.0", "1.50", "-2.5e3", "1E+2", "2e-7", "1e400", "12345678901234567890")

# mutators of the TOON and TRON strictness fuzz
DELIMITERS = list(',:"\\\n\r\t -[]{}()#') + ["  ", "- ", "[2]", "[0]:", "{a,b}:", "A(", "class A: a", '""', "null"]
JSON_TOKENS = list('{}[]:,"\\ \t\n\r-+.eE0123456789abcfuxAZ') + [
    "true", "false", "null", "NaN", "Infinity", '"k"', '"k":', "\\u00e9", "\\ud83d\\ude00", "\\ud800",
    "\\udc00", "\\u", "\\u0", "_", "\x01", "é", "\ufeff", ',"k":1',
]
SOUP_FRAMES = ("{}", '"{}"', "[{}]", '{{"k":{}}}')
TRON_HEADERS = ("", "class A: a\nclass B: a,b\n\n", "class A: a\nclass AB: k\nclass C: c,d\n\n")
TRON_TOKENS = [*"{}[](),:\" \t\n-.0123456789eEAZ", "A(", "B(", "C(", "AB(", "NaN", "Infinity", "-Infinity"] + [
    "true", "null", '"k"', '"k":', '"A(1)"', '")"', '"x', '\\"', "\\\\", "\\ud83d\\ude00", "\\ud800", "\x00",
    "],", ")]", "é", ',"k":1',
]
TRON_FRAMES = ("{}", "A({})", "[{}]", "B(1,{})", '{{"k":A({})}}', '"{}"')
TOON_TOKENS = list(',:"\\\n\r\t -[]{}#') + [
    "  ", "\n  ", "\n    ", "- ", "k", "k:", "k: ", "key", "[0]", "[1]", "[2]", "[2]:", "{a,b}", "{a,b}:",
    "a,b", "1", "-1", "1.5", "true", "null", '"x"', '""', "\\n", "é", "value", "\nk: 1",
]
TOON_FRAMES = ("{}", "k: {}", "k:\n  {}", "k[2]: {}", "k[2]{{a,b}}:\n  {}", "k[2]:\n  - {}")
NESTINGS = (("[", "]", "1"), ("[", "]", "[]"), ('{"k":', "}", "1"), ('{"k":', "}", "{}"), ("A(", ")", "1"))

# ---------------------------------------------------------------------------
# Cases: (name, input) decode checks and encode checks on what decoded.


def dumps(v, indent: int | None, spaced: bool, ascii_only: bool, depth: int = 0) -> str:
    """JSON text with ``Num`` literals kept as written."""
    if v is None or v is True or v is False:
        return json.dumps(v)
    if isinstance(v, Num):
        return str(v)
    if isinstance(v, str):
        return json.dumps(v, ensure_ascii=ascii_only)
    if not isinstance(v, Members):
        parts = [dumps(x, indent, spaced, ascii_only, depth + 1) for x in v]
        open_, close = "[", "]"
    else:
        colon = ": " if spaced or indent is not None else ":"
        parts = [
            json.dumps(k, ensure_ascii=ascii_only) + colon + dumps(x, indent, spaced, ascii_only, depth + 1)
            for k, x in v
        ]
        open_, close = "{", "}"
    if not parts:
        return open_ + close
    if indent is None:
        return open_ + (", " if spaced else ",").join(parts) + close
    pad = "\n" + " " * (indent * (depth + 1))
    return open_ + pad + ("," + pad).join(parts) + "\n" + " " * (indent * depth) + close


def gen_scalar(rng: random.Random, odd: bool):
    r = rng.random()
    if r < 0.35:
        return rng.choice(ODD_STRINGS) if odd and rng.random() < 0.6 else " ".join(rng.sample(WORDS, rng.randint(1, 3)))
    if r < 0.65:
        return Num(rng.choice(NUMBERS) if rng.random() < 0.5 else f"{rng.randint(-999, 99999)}")
    if r < 0.8:
        return rng.random() < 0.5
    return None if r < 0.9 else ""


def gen_key(rng: random.Random, odd: bool) -> str:
    return rng.choice(ODD_KEYS) if odd and rng.random() < 0.4 else rng.choice(KEYS)


def gen_value(rng: random.Random, shapes: list[tuple[str, ...]], odd: bool, depth: int):
    r = rng.random() if depth < 4 else 1.0
    if r < 0.2:
        return gen_object(rng, shapes, odd, depth)
    if r < 0.3:
        return gen_table(rng, shapes, odd, depth)
    if r < 0.4:
        return [gen_value(rng, shapes, odd, depth + 1) for _ in range(rng.randint(0, 4))]
    return gen_scalar(rng, odd)


def gen_object(rng: random.Random, shapes: list[tuple[str, ...]], odd: bool, depth: int) -> Members:
    if rng.random() < 0.5:
        keys = list(rng.choice(shapes))
    else:
        keys = list(dict.fromkeys(gen_key(rng, odd) for _ in range(rng.randint(0, 5))))
    if keys and rng.random() < 0.03:
        keys.insert(rng.randrange(len(keys) + 1), rng.choice(keys))
    return Members((k, gen_value(rng, shapes, odd, depth + 1)) for k in keys)


def gen_table(rng: random.Random, shapes: list[tuple[str, ...]], odd: bool, depth: int) -> list:
    """Rows of one shape, scalar cells; now and then a row that breaks the table."""
    keys = rng.choice(shapes)
    rows = [Members((k, gen_scalar(rng, odd)) for k in keys) for _ in range(rng.randint(0, 6))]
    if rows and rng.random() < 0.2:
        rows[rng.randrange(len(rows))] = gen_object(rng, shapes, odd, depth + 1)
    return rows


def gen_root(rng: random.Random, shapes: list[tuple[str, ...]], odd: bool):
    r = rng.random()
    if r < 0.8:
        keys = dict.fromkeys(gen_key(rng, odd) for _ in range(rng.randint(1, 5)))
        return Members((k, gen_value(rng, shapes, odd, 1)) for k in keys)
    if r < 0.9:
        return gen_table(rng, shapes, odd, 0)
    return gen_value(rng, shapes, odd, 0)


def write_json(rng: random.Random, doc) -> str:
    indent = rng.choice((None, None, None, 1, 2, 4))
    text = dumps(doc, indent, rng.random() < 0.3, rng.random() < 0.2)
    return rng.choice(("", " ", "\n")) + text + rng.choice(("", "\n", " \t"))


def mutate(rng: random.Random, text: str) -> tuple[str, str]:
    """One mutation of the strictness fuzz, and what it was."""
    op = rng.choice(("truncate", "flip", "splice", "replace"))
    where = rng.random()
    if op == "flip":  # one UTF-8 byte; bytes that are not UTF-8 become lone surrogates
        data = bytearray(text.encode("utf-8", "surrogateescape"))
        bit = 1 << rng.randrange(8)
        if not data:
            return chr(bit), "flip"
        data[min(int(where * len(data)), len(data) - 1)] ^= bit
        return data.decode("utf-8", "surrogateescape"), f"flip {bit}"
    i = min(int(where * len(text)), len(text))
    if op == "truncate":
        return text[:i], f"truncate {i}"
    token = rng.choice(DELIMITERS)
    if op == "splice":
        return text[:i] + token + text[i:], f"splice {i} {token!r}"
    return text[:i] + token + text[i + 1 :], f"replace {i} {token!r}"


def mutate_json(rng: random.Random, text: str) -> tuple[str, str]:
    """One JSON-token insert, delete or overwrite."""
    op = rng.choice(("insert", "delete", "replace"))
    i = min(int(rng.random() * len(text)), len(text))
    token = rng.choice(JSON_TOKENS)
    if op == "insert":
        return text[:i] + token + text[i:], f"insert {i} {token!r}"
    if op == "delete":
        return text[:i] + text[i + 1 :], f"delete {i}"
    return text[:i] + token + text[i + 1 :], f"replace {i} {token!r}"


def soup(rng: random.Random, tokens, frames, size: int) -> str:
    return rng.choice(frames).format("".join(rng.choice(tokens) for _ in range(rng.randint(0, size))))


# ---------------------------------------------------------------------------
# The worker: runs the cases against the notation on its PYTHONPATH.


def dump(v):
    """A value as tagged JSON data, read through the public fields."""
    t = type(v).__name__
    if t == "Object":
        return ["o", [[k, dump(x)] for k, x in v.pairs]]
    if t == "Array":
        return ["a", [dump(x) for x in v.items]]
    if t == "Text":
        return ["s", v.value]
    if t == "Number":
        return ["n", v.literal]
    if t == "Bool":
        return ["b", v.value]
    if t == "Null":
        return ["z"]
    if isinstance(v, list):
        return ["list", [dump(x) for x in v]]
    return ["?", repr(v)]


class Worker:
    """Runs the checks of one case; each is (name, kind, input, outcome)."""

    def __init__(self) -> None:
        from notation import errors, json_codec, toon_codec, tron_codec

        self.CodecError = errors.CodecError
        self.json, self.toon, self.tron = json_codec, toon_codec, tron_codec
        self.checks: list[tuple[str, str, str, object]] = []

    def run(self, name: str, fn, *args):
        """Record fn(*args): a value, a text or an error; return the result, or None on an error."""
        shown = repr(args[0])
        try:
            out = fn(*args)
        except self.CodecError as e:
            outcome = [type(e).__name__, str(e), getattr(e, "pos", None), getattr(e, "line", None)]
            self.checks.append((name, "error", shown, outcome))
            return None
        except Exception as e:  # a decoder hole: compared like any outcome
            self.checks.append((name, "crash", shown, [type(e).__name__, str(e)]))
            return None
        self.checks.append((name, "text", shown, out) if isinstance(out, str) else (name, "value", shown, dump(out)))
        return out

    def case(self, seed: int, index: int) -> list:
        self.checks = []
        rng = random.Random(f"{seed}:{index}")
        r = rng.random()
        if r < 0.55:
            self.documents(rng)
        elif r < 0.7:
            text = soup(rng, JSON_TOKENS, SOUP_FRAMES, 30)
            self.run("decode_json(json soup)", self.json.decode_json, text)
            self.run("decode_tron(json soup)", self.tron.decode_tron, text)
        elif r < 0.83:
            text = rng.choice(TRON_HEADERS) + soup(rng, TRON_TOKENS, TRON_FRAMES, 30)
            self.run("decode_tron(tron soup)", self.tron.decode_tron, text)
            self.run("decode_tron_batch(tron soup)", self.tron.decode_tron_batch, text)
        elif r < 0.96:
            text = soup(rng, TOON_TOKENS, TOON_FRAMES, 20)
            self.run("decode_toon(toon soup)", self.toon.decode_toon, text)
            self.run("decode_toon(toon soup, unwrap)", lambda t: self.toon.decode_toon(t, unwrap=True), text)
        else:
            self.nesting(rng)
        return self.checks

    def documents(self, rng: random.Random) -> None:
        odd = rng.random() < 0.5
        shapes = [tuple(dict.fromkeys(gen_key(rng, odd) for _ in range(rng.randint(1, 4)))) for _ in range(2)]
        docs = [gen_root(rng, shapes, odd) for _ in range(rng.randint(1, 3))]
        roots = [self.run("decode_json(generated)", self.json.decode_json, write_json(rng, doc)) for doc in docs]
        if any(v is None for v in roots):
            return
        v = roots[0]
        json_codec, toon_codec, tron_codec = self.json, self.toon, self.tron
        indent = rng.randint(1, 4)
        encodings = [
            ("json", json_codec.decode_json, self.run("encode_json", json_codec.encode_json, v)),
            ("json pretty", json_codec.decode_json, self.run("encode_json(indent)", json_codec.encode_json, v, indent)),
            ("toon", toon_codec.decode_toon, self.run("encode_toon", toon_codec.encode_toon, v)),
            ("tron", tron_codec.decode_tron, self.run("encode_tron", tron_codec.encode_tron, v)),
            (
                "tron batch",
                tron_codec.decode_tron_batch,
                self.run("encode_tron_batch", tron_codec.encode_tron_batch, roots),
            ),
            (
                "tron batch doubled",
                tron_codec.decode_tron_batch,
                self.run("encode_tron_batch(doubled)", tron_codec.encode_tron_batch, roots + roots),
            ),
        ]
        for fmt, decode, text in encodings:
            if text is not None:
                self.run(f"decode({fmt})", decode, text)
        for fmt, decode, text in rng.sample(encodings, 2):
            how = []
            for _ in range(rng.randint(1, 4)):
                if text is not None:
                    text, what = mutate_json(rng, text) if fmt == "json" and rng.random() < 0.5 else mutate(rng, text)
                    how.append(what)
            if text is not None:
                self.run(f"decode({fmt} mutated: {'; '.join(how)})", decode, text)

    def nesting(self, rng: random.Random) -> None:
        opener, closer, leaf = rng.choice(NESTINGS)
        depth = rng.randint(116, 124)
        text = opener * (depth - 1) + leaf + closer * (depth - 1)
        if opener != "A(":
            self.run(f"decode_json(nesting {depth})", self.json.decode_json, text)
        self.run(f"decode_tron(nesting {depth})", self.tron.decode_tron, "class A: k\n\n" + text)
        lines = ["  " * i + f"k{i}:" for i in range(depth - 1)] + ["  " * (depth - 1) + f"k{depth - 1}: 1"]
        self.run(f"decode_toon(nesting {depth})", self.toon.decode_toon, "\n".join(lines))


def digest(outcome) -> str:
    return hashlib.blake2b(json.dumps(outcome).encode(), digest_size=8).hexdigest()


def work(args) -> int:
    import notation

    src = Path(args.src).resolve()
    if src not in Path(notation.__file__).resolve().parents:
        sys.exit(f"worker imported notation from {notation.__file__}, not from {src}")
    worker = Worker()
    out = sys.stdout
    for index in range(args.start, args.start + args.cases):
        checks = worker.case(args.seed, index)
        if args.detail:
            out.write(json.dumps(checks) + "\n")
        else:
            out.write(json.dumps([[name, kind, digest(outcome)] for name, kind, _, outcome in checks]) + "\n")
    return 0


# ---------------------------------------------------------------------------
# The comparison: two workers, one per side, read in step.


def fail(message: str):
    print(f"diff_codecs: {message}", file=sys.stderr)
    raise SystemExit(2)


def resolve_side(spec: str, tmp: Path) -> tuple[Path, str]:
    """The src directory named by a directory or a git revision, and a label for it."""
    path = Path(spec)
    if (path / "notation").is_dir():
        return path.resolve(), str(path)
    if (path / "src" / "notation").is_dir():
        return (path / "src").resolve(), str(path)
    rev = subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", "--short", "--verify", spec + "^{commit}"], capture_output=True, text=True
    )
    if rev.returncode != 0:
        fail(f"{spec!r} is neither a source directory nor a revision")
    archive = tmp / "src.tar"
    with archive.open("wb") as f:
        subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", spec, "src"], stdout=f, check=True)
    with tarfile.open(archive) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(tmp / "other", filter="data")
        else:
            tar.extractall(tmp / "other")
    return tmp / "other" / "src", rev.stdout.strip()


def spawn(src: Path, args, start: int, cases: int, detail: bool, stderr) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, __file__, "--worker", "--src", str(src), "--seed", str(args.seed)]
    cmd += ["--start", str(start), "--cases", str(cases)] + (["--detail"] if detail else [])
    return subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=stderr, text=True)


def detail(src: Path, args, index: int) -> dict:
    proc = spawn(src, args, index, 1, True, subprocess.PIPE)
    out, err = proc.communicate()
    if proc.returncode != 0:
        fail(f"the worker failed on case {index}:\n{err}")
    return {name: (kind, text, outcome) for name, kind, text, outcome in json.loads(out)}


def clip(x, n: int = 300) -> str:
    s = x if isinstance(x, str) else json.dumps(x, ensure_ascii=False)
    return s if len(s) <= n else s[:n] + f"... ({len(s)} chars)"


def drive(args) -> int:
    sys.stdout.reconfigure(errors="backslashreplace")
    with tempfile.TemporaryDirectory(prefix="diff_codecs-") as tmp_name:
        tmp = Path(tmp_name)
        this = (REPO / "src").resolve()
        other, label = resolve_side(args.against, tmp)
        with (tmp / "this.err").open("w+") as this_log, (tmp / "other.err").open("w+") as other_log:
            procs = [spawn(src, args, 0, args.cases, False, log) for src, log in ((this, this_log), (other, other_log))]
            counts: dict[str, int] = {}
            diffs: dict[str, int] = {}
            differing: list[tuple[int, list[str]]] = []
            for index in range(args.cases):
                lines = [proc.stdout.readline() for proc in procs]
                if not all(lines):
                    break
                mine, theirs = ({name: (kind, d) for name, kind, d in json.loads(line)} for line in lines)
                for kind, _ in mine.values():
                    counts[kind] = counts.get(kind, 0) + 1
                names = [name for name in dict.fromkeys([*mine, *theirs]) if mine.get(name) != theirs.get(name)]
                for name in names:
                    kind = (mine.get(name) or theirs[name])[0]
                    diffs[kind] = diffs.get(kind, 0) + 1
                if names:
                    differing.append((index, names))
            for proc, log, side in zip(procs, (this_log, other_log), ("this tree", label)):
                proc.stdout.read()
                if proc.wait() != 0:
                    log.seek(0)
                    fail(f"the worker for {side} failed:\n{log.read()}")
        for index, names in differing[:SHOW]:
            sides = [detail(this, args, index), detail(other, args, index)]
            print(f"case {index} (seed {args.seed}):")
            for name in names:
                (_, text, got), (_, _, expected) = (side.get(name, ("missing", "", None)) for side in sides)
                print(f"  {name}\n    input:     {clip(text)}")
                print(f"    this tree: {clip(got)}\n    {label}: {clip(expected)}")
        total = sum(diffs.values())
        kinds = ", ".join(f"{counts.get(k, 0)} {k}" for k in ("value", "error", "text", "crash"))
        by_kind = ", ".join(f"{diffs.get(k, 0)} {k}" for k in ("value", "error", "text", "crash"))
        print(
            f"diff_codecs: {args.cases} cases (seed {args.seed}), {sum(counts.values())} checks ({kinds}); "
            f"{total} differences ({by_kind}) in {len(differing)} cases, this tree against {label}"
        )
        return 1 if total else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", help="git revision, src directory or checkout to compare with")
    parser.add_argument("--cases", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--src", help=argparse.SUPPRESS)
    parser.add_argument("--start", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--detail", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return work(args)
    if not args.against:
        parser.error("--against is required")
    return drive(args)


if __name__ == "__main__":
    sys.exit(main())
