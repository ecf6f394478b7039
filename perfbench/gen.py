#!/usr/bin/env python3
"""Seeded input generator for the perfbench workloads.

    python3 perfbench/gen.py --workload measure-words --seed 7 --out DIR [--smoke]

Imports nothing from ``notation``: the word, key and string pools live
here, so a change to the program's own generator or demo corpora cannot
quietly change a workload. Sizes are stratified over a fixed grid and the
shape families, regimes and flag-bearing inputs come in fixed
proportions; the seed picks the content and the order. That keeps the
amount of work in one pass over a pool nearly the same for every seed.

Layout written under DIR:

    measure-words, measure-bpe  corpora/cNN/fNN.json, bpe/ (bpe only)
    codec-roundtrip             groups/gNN/dNN.json
    replay-sweep                trace.jsonl, catalog.json, executor.json
    every workload              manifest.json (pool layout and properties)
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("measure-words", "measure-bpe", "codec-roundtrip", "replay-sweep")


class Num(str):
    """A JSON number literal, written verbatim (so `7.50` stays `7.50`)."""


def dumps(v, indent: int | None = None, _depth: int = 0) -> str:
    """JSON text with `Num` literals kept exactly; dict order is key order."""
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, Num):
        return str(v)
    if isinstance(v, str):
        return json.dumps(v, ensure_ascii=False)
    if isinstance(v, (list, dict)):
        if not v:
            return "[]" if isinstance(v, list) else "{}"
        if isinstance(v, list):
            parts = [dumps(x, indent, _depth + 1) for x in v]
            open_, close = "[", "]"
        else:
            parts = [f"{json.dumps(k, ensure_ascii=False)}: {dumps(x, indent, _depth + 1)}" for k, x in v.items()]
            open_, close = "{", "}"
        if indent is None:
            return open_ + ", ".join(parts) + close
        pad = "\n" + " " * (indent * (_depth + 1))
        return open_ + pad + ("," + pad).join(parts) + "\n" + " " * (indent * _depth) + close
    raise TypeError(f"cannot write {type(v).__name__}")


def size_of(v, indent: int | None = None, depth: int = 0) -> int:
    """Bytes v takes when written with `indent` at nesting depth `depth`."""
    return len(dumps(v, indent, depth).encode("utf-8"))


# ---------------------------------------------------------------------------
# Pools. Benchmark-owned on purpose; see the module docstring.

NOUNS = (
    "order", "invoice", "sensor", "route", "ticket", "account", "shipment", "device",
    "station", "report", "session", "payment", "review", "asset", "segment", "flight",
    "vendor", "region", "metric", "channel", "release", "bucket", "cluster", "policy",
)
ADJS = ("primary", "stale", "pending", "remote", "hourly", "manual", "shared", "legacy", "urgent", "quiet")
CITIES = ("Boulder", "Lisbon", "Osaka", "Nairobi", "Quito", "Tromsø", "Zürich", "Hanoi", "Perth", "Recife")
WORDS = (
    "alpha", "bravo", "delta", "echo", "lima", "oscar", "sierra", "tango", "amber", "cobalt",
    "ember", "fjord", "garnet", "harbor", "indigo", "juniper", "kelp", "lumen", "meadow", "nimbus",
)
STATUS = ("ok", "queued", "running", "failed", "done", "paused")

# Column name -> cell kind, for the tabular family.
COLUMNS = (
    ("id", "int"), ("name", "phrase"), ("price", "decimal"), ("qty", "int"), ("active", "bool"),
    ("city", "city"), ("status", "status"), ("ts", "time"), ("ratio", "exp"), ("score", "decimal"),
    ("owner", "word"), ("note", "phrase_or_null"), ("code", "code"), ("delta", "signed"),
)

# Strings and keys that stress every structural character of the three grammars.
DELIM_STRINGS = (
    "a,b", "x: y", 'say "hi"', "f(1)", "(paren)", "line\nbreak", "cr\rret", "tab\tstop",
    "back\\slash", "07", "007 agent", "3.14", "-5", "1e3", "true", "null", "[0]", "{brace}",
    "}close", "]close", "- dash", "trailing ", " leading", "comma,", ":colon", "A(1)",
    "class A: x", "café ✓", "", " ", "semi;colon", "pipe|bar", "#hash", "a=b&c=d",
    "C:\\path\\file", "<tag>", "'single'", "emoji 🚀", "mixed, \"all\": {of} [them]",
)
DELIM_KEYS = (
    "with space", "a,b", "x: y", "07", "value", "class", "a[0]", "{k}", "}k", "]k",
    "dash-", 'quo"te', "new\nline", " pad ", "key.path", "k=v", "semi;k", "A(x)", "ümlaut",
    "tab\tkey", "1e3", "true", "null",
)
# CLI-flag keys. TOON emits a key with a leading '-' bare, and the decoder
# then reads the line as a list item; see `flag_options`.
FLAG_KEYS = ("--dry-run", "--output-dir", "-v", "--max-retries", "--region", "-f", "--no-cache", "--since")


def columns(start: int, width: int) -> tuple:
    """`width` consecutive entries of COLUMNS from `start`, wrapping around.

    Table shapes come from position, not from the seed, so every seed
    spends its bytes on the same mix of numbers, words and phrases.
    """
    return tuple(COLUMNS[(start + k) % len(COLUMNS)] for k in range(width))


def phrase(rng: random.Random, lo: int = 2, hi: int = 5) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(lo, hi)))


def cell(rng: random.Random, kind: str):
    if kind == "int":
        return Num(str(rng.randint(0, 99999)))
    if kind == "decimal":
        return Num(f"{rng.randint(0, 999)}.{rng.randint(0, 99):02d}")
    if kind == "signed":
        return Num(str(rng.randint(-500, 500)))
    if kind == "exp":
        return Num(f"{rng.randint(1, 9)}.{rng.randint(0, 9)}e-{rng.randint(1, 6)}")
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "city":
        return rng.choice(CITIES)
    if kind == "status":
        return rng.choice(STATUS)
    if kind == "time":
        return f"2026-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}T{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}:00Z"
    if kind == "word":
        return rng.choice(WORDS)
    if kind == "code":
        return f"{rng.choice(WORDS)[:3].upper()}-{rng.randint(100, 999)}"
    if kind == "phrase_or_null":
        return None if rng.random() < 0.3 else phrase(rng)
    return phrase(rng)


class Shapes:
    """Key tag and table shapes for one file."""

    def __init__(self, tag: str, tables: list[tuple]):
        self.tag = tag
        self.tables = tables

    def key(self, k: str) -> str:
        return k + self.tag


SHARED_TABLES = [columns(5 * k, 3 + k) for k in range(3)]


def file_shapes(rng: random.Random, shared: bool, index: int) -> Shapes:
    """Shared shapes repeat across the files of a corpus, so TRON batching
    can share one class table. Otherwise every key carries a per-file tag,
    so no shape is shared between files: the singleton regime, where a batch
    header buys nothing."""
    if shared:
        return Shapes("", SHARED_TABLES)
    return Shapes(f"_{index}{rng.choice('pqrstuvwxyz')}", [columns(5 * k + index, 3 + k) for k in range(3)])


def grow(target: int, start, add, indent: int | None = None) -> object:
    """Call add(doc) until doc's JSON size reaches target bytes."""
    doc = start
    size = size_of(doc, indent)
    while size < target:
        size += add(doc)
    return doc


def tabular_doc(rng: random.Random, target: int, shapes: Shapes, variant: int):
    """Arrays of same-shape scalar records (TOON tables, TRON classes).

    Every fourth one (by `variant`) is a bare array root.
    """
    as_array = variant % 4 == 3

    def table(n_rows: int):
        cols = rng.choice(shapes.tables)
        return [{shapes.key(c): cell(rng, kind) for c, kind in cols} for _ in range(n_rows)]

    if as_array:
        rows: list = []
        cols = rng.choice(shapes.tables)

        def add_row(doc):
            row = {shapes.key(c): cell(rng, kind) for c, kind in cols}
            doc.append(row)
            return size_of(row) + 2

        return grow(target, rows, add_row)

    doc = {shapes.key("source"): f"{rng.choice(NOUNS)}-export", shapes.key("version"): Num(str(rng.randint(1, 9)))}

    def add_table(d):
        name = f"{rng.choice(NOUNS)}s{len(d)}"
        t = table(rng.randint(5, 40))
        d[name] = t
        return size_of(t) + len(name) + 6

    return grow(target, doc, add_table)


NESTED_INDENT = 2


def nested_doc(rng: random.Random, target: int, shapes: Shapes, variant: int):
    """Deep JSON-Schema-like trees and config trees (by `variant`), written indented.

    Each top-level entry is built from a budget of about 24 nodes, so the
    last one added overshoots the target size by little.
    """
    k = shapes.key
    ind = NESTED_INDENT
    budget = [0]

    def spend() -> bool:
        budget[0] -= 1
        return budget[0] > 0

    if variant % 2 == 0:
        def prop(depth: int):
            if depth >= 8 or not spend() or (depth >= 2 and rng.random() < 0.3):
                leaf = {k("type"): rng.choice(("string", "integer", "boolean", "number")), k("description"): phrase(rng, 3, 8)}
                if rng.random() < 0.3:
                    leaf[k("enum")] = [rng.choice(WORDS) for _ in range(rng.randint(2, 5))]
                return leaf
            if rng.random() < 0.2:
                return {k("type"): "array", k("description"): phrase(rng), k("items"): prop(depth + 1)}
            children = {f"{rng.choice(NOUNS)}_{i}": prop(depth + 1) for i in range(rng.randint(1, 2))}
            return {k("type"): "object", k("description"): phrase(rng), k("properties"): children}

        doc = {"$schema": "https://json-schema.org/draft/2020-12/schema", "title": f"{rng.choice(NOUNS)} payload", "properties": {}}

        def add_prop(d):
            budget[0] = 24
            name = f"{rng.choice(ADJS)}_{rng.choice(NOUNS)}_{len(d['properties'])}"
            p = prop(0)
            d["properties"][name] = p
            return size_of(p, ind, 2) + len(name) + 6 + 2 * ind

        return grow(target, doc, add_prop, ind)

    def section(depth: int):
        out = {}
        for i in range(rng.randint(2, 4)):
            name = f"{rng.choice(NOUNS)}{i}"
            roll = rng.random()
            if depth < 8 and roll < 0.4 and spend():
                out[name] = section(depth + 1)
            elif roll < 0.55:
                out[name] = [cell(rng, rng.choice(("word", "int", "city"))) for _ in range(rng.randint(0, 6))]
            else:
                out[name] = cell(rng, rng.choice(("int", "bool", "decimal", "phrase", "time", "code")))
        return out

    doc = {k("service"): f"{rng.choice(NOUNS)}-svc", k("env"): rng.choice(("prod", "staging", "dev"))}

    def add_section(d):
        budget[0] = 24
        name = f"{rng.choice(ADJS)}_{len(d)}"
        s = section(0)
        d[name] = s
        return size_of(s, ind, 1) + len(name) + 6 + ind

    return grow(target, doc, add_section, ind)


def flag_options(rng: random.Random) -> dict:
    """A CLI options object whose keys are command-line flags."""
    keys = rng.sample(FLAG_KEYS, rng.randint(2, 4))
    return {f: cell(rng, rng.choice(("bool", "word", "int"))) for f in keys}


def delimiter_doc(rng: random.Random, target: int, shapes: Shapes, flags: bool):
    """Keys and strings full of commas, colons, quotes, brackets and escapes."""

    def dkey():
        return shapes.key(rng.choice(DELIM_KEYS))

    def dval():
        roll = rng.random()
        if roll < 0.7:
            return rng.choice(DELIM_STRINGS)
        if roll < 0.85:
            return [rng.choice(DELIM_STRINGS) for _ in range(rng.randint(1, 5))]
        return cell(rng, rng.choice(("int", "decimal", "exp", "bool")))

    def record():
        out = {}
        for _ in range(rng.randint(2, 6)):
            out.setdefault(dkey(), dval())
        return out

    doc = {"kind": "delimiters"}
    if flags:
        doc["options"] = flag_options(rng)
    cols = tuple(shapes.key(c) for c in rng.sample(DELIM_KEYS, 3))

    def add(d):
        name = f"{rng.choice(NOUNS)}{len(d)}"
        roll = rng.random()
        if roll < 0.3:
            part = [{c: rng.choice(DELIM_STRINGS[:28]) or "x" for c in cols} for _ in range(rng.randint(2, 8))]
        elif roll < 0.6:
            part = {shapes.key(rng.choice(DELIM_KEYS)) + str(i): record() for i in range(rng.randint(1, 4))}
        else:
            part = record()
        d[name] = part
        return size_of(part) + len(name) + 6

    return grow(target, doc, add)


FAMILIES = ("tabular", "nested", "delimiter")


def family_doc(rng, family: str, target: int, shapes: Shapes, flags: bool, variant: int):
    if family == "tabular":
        return tabular_doc(rng, target, shapes, variant)
    if family == "nested":
        return nested_doc(rng, target, shapes, variant)
    return delimiter_doc(rng, target, shapes, flags)


def strata(rng: random.Random, n: int, lo: float, hi: float) -> list[int]:
    """n ascending sizes on a log grid between lo and hi bytes, lightly jittered."""
    return [int(lo * (hi / lo) ** ((i + 0.5 + rng.uniform(-0.02, 0.02)) / n)) for i in range(n)]


def spread(n: int, lo: int, hi: int) -> list[int]:
    """n whole numbers spread evenly over [lo, hi]."""
    if n == 1:
        return [(lo + hi) // 2]
    return [round(lo + (hi - lo) * i / (n - 1)) for i in range(n)]


def pool_plan(rng: random.Random, n: int, lo: int, hi: int) -> list[dict]:
    """File count, shape regime and flag for each pool item, fixed by rank, then shuffled.

    Counts spread evenly over [lo, hi]; ranks alternate shared and
    singleton shapes; a quarter of the items (at least one) carry one
    flag-bearing input, at ranks 1, 6, 9, 14, ... (singleton and shared in
    turn). So which sizes and regimes fail is the same for every seed,
    and only content and order change.
    """
    flagged = {4 * j + 1 + j % 2 for j in range(max(1, n // 4))}
    plan = [{"rank": r, "count": c, "shared": r % 2 == 0, "flagged": r in flagged} for r, c in enumerate(spread(n, lo, hi))]
    rng.shuffle(plan)
    return plan


def write_doc(path: Path, doc, indent: int | None) -> int:
    text = dumps(doc, indent) + "\n"
    path.write_text(text, encoding="utf-8")
    return len(text.encode("utf-8"))


def family_files(rng, out: Path, names: list[str], sizes: list[int], item: dict) -> list[dict]:
    """Write one corpus or group of family documents; returns file records.

    Families take turns along the size grid, starting at the item's rank,
    so across a pool every family gets every size.
    """
    families = [FAMILIES[(i + item["rank"]) % 3] for i in range(len(sizes))]
    flag_at = families.index("delimiter") if item["flagged"] else -1
    files = []
    for i, (name, target) in enumerate(zip(names, sizes)):
        shapes = file_shapes(rng, item["shared"], i)
        variant = families[:i].count(families[i]) + item["rank"]
        doc = family_doc(rng, families[i], target, shapes, i == flag_at, variant)
        indent = NESTED_INDENT if families[i] == "nested" else None
        nbytes = write_doc(out / name, doc, indent)
        files.append({"file": name, "family": families[i], "bytes": nbytes, "flags": i == flag_at})
    return files


# ---------------------------------------------------------------------------
# Workload pools.


def gen_measure_words(rng, out: Path, smoke: bool) -> dict:
    lo, hi = (1024, 4096) if smoke else (1024, 32768)
    corpora = []
    for c, item in enumerate(pool_plan(rng, 2 if smoke else 16, 8, 16)):
        d = out / "corpora" / f"c{c:02d}"
        d.mkdir(parents=True)
        sizes = strata(rng, item["count"], lo, hi)
        names = [f"f{i:02d}.json" for i in range(item["count"])]
        files = family_files(rng, d, names, sizes, item)
        corpora.append({"dir": f"corpora/c{c:02d}", "shared": item["shared"], "flagged": item["flagged"], "files": files})
    return {"corpora": corpora}


def tool_schema(rng, i: int, target: int, flags: bool) -> dict:
    name = f"{rng.choice(('get', 'list', 'update', 'search', 'run'))}_{rng.choice(NOUNS)}_{i}"
    doc = {"name": name, "description": phrase(rng, 6, 14), "parameters": {"type": "object", "properties": {}, "required": []}}
    props = doc["parameters"]["properties"]
    if flags:
        for f in rng.sample(FLAG_KEYS, 3):
            props[f] = {"type": "boolean", "description": phrase(rng, 3, 6)}

    def add(d):
        pname = f"{rng.choice(ADJS)}_{rng.choice(NOUNS)}_{len(props)}"
        p = {"type": rng.choice(("string", "integer", "boolean")), "description": phrase(rng, 4, 10)}
        if rng.random() < 0.3:
            p["enum"] = [rng.choice(WORDS) for _ in range(rng.randint(2, 4))]
        props[pname] = p
        if rng.random() < 0.4:
            d["parameters"]["required"].append(pname)
        return size_of(p) + len(pname) + 8

    return grow(target, doc, add)


def tool_result(rng, i: int, target: int) -> dict:
    cols = columns(3 * i, 3 + i % 3)
    doc = {"status": "ok", "tool_call_id": f"call_{rng.randint(10**6, 10**7)}", "results": []}

    def add(d):
        row = {c: cell(rng, kind) for c, kind in cols}
        d["results"].append(row)
        return size_of(row) + 2

    return grow(target, doc, add)


def gen_measure_bpe(rng, out: Path, smoke: bool) -> dict:
    """Corpora of one ~3.5 KB tool result plus 3-7 payloads of 0.25-0.5 KB.

    The seed's BPE time grows with the square of a text's length, so an
    op's time is mostly its largest file. One large file per corpus keeps
    ops short enough for a dozen samples a run and alike across corpora of
    4 to 8 files, so medians do not jump between pool items.
    """
    lo, hi, big = (256, 512, 768) if smoke else (256, 512, 3584)
    corpora = []
    for c, item in enumerate(pool_plan(rng, 2 if smoke else 4, 4, 8)):
        d = out / "corpora" / f"c{c:02d}"
        d.mkdir(parents=True)
        n_files = item["count"]
        sizes = strata(rng, n_files - 1, lo, hi) + [int(big * rng.uniform(0.98, 1.02))]
        files = []
        # small schemas and results take turns along the size grid
        schema_at = {i for i in range(n_files - 1) if (i + item["rank"]) % 2 == 0}
        flag_at = min(schema_at) if item["flagged"] else -1
        for i, target in enumerate(sizes):
            name = f"f{i:02d}.json"
            if i in schema_at:
                doc, kind = tool_schema(rng, i, target, i == flag_at), "tool_schema"
            else:
                doc, kind = tool_result(rng, i, target), "tool_result"
            files.append({"file": name, "family": kind, "bytes": write_doc(d / name, doc, None), "flags": i == flag_at})
        corpora.append({"dir": f"corpora/c{c:02d}", "flagged": item["flagged"], "files": files})
    shutil.copytree(HERE / "data" / "bpe", out / "bpe")
    return {"corpora": corpora, "vocab": "bpe"}


def gen_codec_roundtrip(rng, out: Path, smoke: bool) -> dict:
    lo, hi = (2048, 8192) if smoke else (2048, 65536)
    groups = []
    for g, item in enumerate(pool_plan(rng, 2 if smoke else 8, 8, 8)):
        d = out / "groups" / f"g{g:02d}"
        d.mkdir(parents=True)
        sizes = strata(rng, item["count"], lo, hi)
        names = [f"d{i:02d}.json" for i in range(item["count"])]
        files = family_files(rng, d, names, sizes, item)
        groups.append({"dir": f"groups/g{g:02d}", "shared": item["shared"], "flagged": item["flagged"], "files": files})
    return {"groups": groups}


# Replay: one scripted task over a catalog of tools.

PARAM_SHAPES = (
    lambda rng: {"type": "string", "description": phrase(rng, 4, 4)},
    lambda rng: {"type": "integer", "description": phrase(rng, 4, 4), "minimum": Num("0")},
    lambda rng: {"type": "string", "description": phrase(rng, 4, 4), "enum": rng.sample(WORDS, 3)},
)

# Script positions (0-based steps) and the emission faults applied there.
# The unfenced truncate_line at step 8 drops the last argument line; in
# TOON full mode the rest still parses, so the call has a missing argument
# and the executor aborts the trajectory.
SCRIPT_FAULTS = {2: "swap_delimiter", 4: "rename_action", 6: "truncate_line", 8: "truncate_line", 10: "swap_delimiter"}
FENCED_STEPS = {1, 4, 6, 9}
THINK_STEPS = {0, 3, 6, 7, 10}


def gen_replay(rng, out: Path, smoke: bool) -> dict:
    """Catalog, executor and trace; sizes and shapes cycle by position, so
    every seed replays the same amount of text and only the words differ."""
    n_tools = 9 if smoke else 24
    n_steps = 10 if smoke else 12
    catalog = []
    for i in range(n_tools):
        n_params = 2 + i % 3
        props = {}
        for j in range(n_params):
            props[f"{rng.choice(NOUNS)}_{j}"] = PARAM_SHAPES[(i + j) % 3](rng)
        catalog.append(
            {
                "name": f"{rng.choice(('fetch', 'list', 'count', 'lookup'))}_{rng.choice(NOUNS)}_{i}",
                "description": phrase(rng, 8, 8),
                "parameters": {"type": "object", "properties": props, "required": list(props)[:1]},
            }
        )
    executor = []
    trace = []
    row_counts = spread(n_steps, 5, 50)
    rng.shuffle(row_counts)
    for step in range(n_steps):
        tool = catalog[3 * rng.randrange(n_tools // 3) + step % 3]  # 2 + step % 3 arguments
        args = {}
        for pname, spec in tool["parameters"]["properties"].items():
            if spec["type"] == "integer":
                args[pname] = Num(str(rng.randint(1, 500)))
            elif "enum" in spec:
                args[pname] = rng.choice(spec["enum"])
            else:
                args[pname] = f"{rng.choice(CITIES)} {rng.choice(NOUNS)}"
        cols = columns(3 * step, 3 + step % 3)
        rows = [{c: cell(rng, kind) for c, kind in cols} for _ in range(row_counts[step])]
        executor.append({"tool": tool["name"], "args": args, "result": {"status": "ok", "count": Num(str(len(rows))), "rows": rows}})
        intent = {"thought": f"Step {step}: {phrase(rng, 7, 7)}.", "action": tool["name"], "arguments": args}
        rec = {"turn": Num(str(step)), "role": "agent", "text": dumps(intent)}
        if step in SCRIPT_FAULTS:
            rec["corrupt"] = SCRIPT_FAULTS[step]
        if step in THINK_STEPS:
            rec["think"] = phrase(rng, 14, 14)
        if step in FENCED_STEPS:
            rec["fenced"] = True
        trace.append(rec)
    answer = f"Done: {phrase(rng, 9, 9)}."
    trace.append({"turn": Num(str(n_steps)), "role": "agent", "text": dumps({"final_answer": answer})})
    (out / "catalog.json").write_text(dumps(catalog, 2) + "\n", encoding="utf-8")
    (out / "executor.json").write_text(dumps(executor, 2) + "\n", encoding="utf-8")
    (out / "trace.jsonl").write_text("".join(dumps(r) + "\n" for r in trace), encoding="utf-8")
    loop_seeds = [rng.randrange(1 << 30) for _ in range(2 if smoke else 16)]
    cells = [
        {"format": fmt, "mode": mode, "failure_rate": rate, "seed": s}
        for s in loop_seeds
        for fmt in ("json", "toon", "tron")
        for mode in ("input_only", "full")
        for rate in (0.0, 0.1)
    ]
    return {"cells": cells, "answer": answer, "steps": n_steps + 1, "max_iterations": 60}


GENERATORS = {
    "measure-words": gen_measure_words,
    "measure-bpe": gen_measure_bpe,
    "codec-roundtrip": gen_codec_roundtrip,
    "replay-sweep": gen_replay,
}


def generate(workload: str, seed: int, out: Path, smoke: bool = False) -> dict:
    out.mkdir(parents=True, exist_ok=False)
    rng = random.Random(f"perfbench:{workload}:{seed}")
    manifest = {"workload": workload, "seed": seed, "smoke": smoke, **GENERATORS[workload](rng, out, smoke)}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return manifest


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--smoke", action="store_true", help="tiny pools, for the self-tests")
    args = p.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out), args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
