"""The four workloads: what one op runs, and how its output is checked.

Each workload has a pool of items (corpora, document groups or replay grid
cells). ``run(item)`` is the timed op and calls the program only through
its public entry points; ``check(item, out)`` runs after the clock stops and
returns ``(failure, nbytes)``: ``failure`` is None when every output agrees
with its reference, else a short reason, and ``nbytes`` is the op's input
size for MB/s. An op that raises, exits non-zero or disagrees with a
reference is a failed op.
"""

from __future__ import annotations

import importlib
import json
import os
from pathlib import Path

import refs
from notation import agent as agent_mod
from notation import json_codec, tokens, toon_codec, tron_codec, values

# The seed's known defects stay in the inputs and count as failed ops:
# CLI-flag keys such as "--dry-run" encode to TOON that does not decode
# (quarter of the codec and measure pools), and an unfenced truncate_line
# in TOON full mode drops an argument and aborts the replay.


def eq(a, b) -> bool:
    """The program's own `==` on documents, as `notation roundtrip` uses it."""
    return a == b


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


class Measure:
    """`notation measure <corpus> --tokenizer <kind>`: one op per corpus."""

    def __init__(self, inputs: Path, manifest: dict, work: Path, kind: str):
        self.cli = importlib.import_module("notation.cli")
        self.kind = kind
        self.batch = kind == "words"
        self.report = work / "report.json"
        self.items = manifest["corpora"]
        self.vocab = inputs / manifest["vocab"] if kind == "bpe" else None
        oracle = refs.BpeOracle(self.vocab) if kind == "bpe" else None
        self.expected: list[dict | str | None] = []
        for c, corpus in enumerate(self.items):
            corpus["index"] = c
            corpus["path"] = str(inputs / corpus["dir"])
            corpus["bytes"] = sum(f["bytes"] for f in corpus["files"])
            if kind == "words":
                count = refs.count_words
            elif c < 2:
                count = oracle.count  # the fixed oracle sample: the first two corpora
            else:
                count = None
            self.expected.append(self._expect(corpus, count))

    def _expect(self, corpus: dict, count) -> dict | str | None:
        """Per-file counts from verified encodings, or the reason there are none.

        None means the counts are not known up front (BPE outside the oracle
        sample); the first report then fixes them for later ops.
        """
        texts = [_read(Path(corpus["path"]) / f["file"]) for f in corpus["files"]]
        canon = [refs.canonical(t) for t in texts]
        docs = []
        encodings = []
        for name, text, c in zip((f["file"] for f in corpus["files"]), texts, canon):
            try:
                v = json_codec.decode_json(text)
                if refs.dump_value(v) != c:
                    return f"{name}: JSON decode disagrees with stdlib json"
                toon = toon_codec.encode_toon(v)
                wrapped = not isinstance(v, values.Object)
                if refs.dump_value(toon_codec.decode_toon(toon, unwrap=wrapped)) != c:
                    return f"{name}: TOON encoding does not decode back"
                tron = tron_codec.encode_tron(v)
                if refs.dump_value(tron_codec.decode_tron(tron)) != c:
                    return f"{name}: TRON encoding does not decode back"
            except Exception as e:  # a codec failure on our input is a program defect: record it
                return f"{name}: {type(e).__name__}: {e}"
            docs.append(v)
            encodings.append((name, c, toon, tron))
        batch = None
        if self.batch:
            try:
                text = tron_codec.encode_tron_batch(docs)
                back = tron_codec.decode_tron_batch(text)
            except Exception as e:
                return f"TRON batch: {type(e).__name__}: {e}"
            if [refs.dump_value(v) for v in back] != canon:
                return "TRON batch does not decode back"
            batch = count(text)
        if count is None:
            return None
        rows = {name: (count(c), count(toon), count(tron)) for name, c, toon, tron in encodings}
        return {"rows": rows, "batch": batch}

    def run(self, corpus: dict):
        argv = ["measure", corpus["path"], "--tokenizer", self.kind, "--out", str(self.report)]
        if self.batch:
            argv.append("--batch")
        if self.vocab is not None:
            argv += ["--vocab", str(self.vocab)]
        return self.cli.main(argv)

    def check(self, corpus: dict, code) -> tuple[str | None, int]:
        nbytes = corpus["bytes"]
        if code != 0:
            return f"exit {code}", nbytes
        report = json.loads(_read(self.report))
        os.unlink(self.report)
        rows = {Path(r["path"]).name: (r["json"], r["toon"], r["tron"]) for r in report["files"]}
        batch = report["aggregates"].get("absolute_sum_batched", {}).get("tron")
        i = corpus["index"]
        expected = self.expected[i]
        if isinstance(expected, str):
            return expected, nbytes
        if expected is None:
            self.expected[i] = expected = {"rows": rows, "batch": batch}
        if rows != expected["rows"]:
            return "token counts disagree with the reference", nbytes
        if batch != expected["batch"]:
            return "batched TRON count disagrees with the reference", nbytes
        return None, nbytes


class CodecRoundtrip:
    """A group of documents through JSON, TOON, TRON and the TRON batch."""

    def __init__(self, inputs: Path, manifest: dict, texts: dict[str, list[str]]):
        self.items = manifest["groups"]
        for group in self.items:
            group["texts"] = texts[group["dir"]]
            group["canon"] = [refs.canonical(t) for t in group["texts"]]
            group["bytes"] = sum(refs.utf8_len(t) for t in group["texts"])

    def run(self, group: dict):
        docs = []
        outs = []
        same = True
        for text in group["texts"]:
            v = json_codec.decode_json(text)
            vj = json_codec.decode_json(json_codec.encode_json(v))
            wrapped = not isinstance(v, values.Object)
            vt = toon_codec.decode_toon(toon_codec.encode_toon(v), unwrap=wrapped)
            vr = tron_codec.decode_tron(tron_codec.encode_tron(v))
            same = eq(vj, v) and eq(vt, v) and eq(vr, v) and same
            docs.append(v)
            outs.append((v, vj, vt, vr))
        vb = tron_codec.decode_tron_batch(tron_codec.encode_tron_batch(docs))
        same = eq(vb, docs) and same
        return outs, vb, same

    def check(self, group: dict, out) -> tuple[str | None, int]:
        outs, vb, same = out
        nbytes = group["bytes"]
        if not same:
            return "a round trip is not == to its input", nbytes
        for name, decoded, c in zip(group["files"], outs, group["canon"]):
            for label, v in zip(("json", "json->json", "toon", "tron"), decoded):
                if refs.dump_value(v) != c:
                    return f"{name['file']}: {label} disagrees with stdlib json", nbytes
        if [refs.dump_value(v) for v in vb] != group["canon"]:
            return "TRON batch disagrees with stdlib json", nbytes
        return None, nbytes


class ReplaySweep:
    """One grid cell: target trajectory, clean JSON reference, both decomposed."""

    TASK = "replay"

    def __init__(self, manifest: dict, state: dict):
        self.items = manifest["cells"]
        self.answer = manifest["answer"]
        self.steps = manifest["steps"]
        self.max_iterations = manifest["max_iterations"]
        self.agent = state["agent"]
        self.catalog = state["catalog"]
        self.executor = state["executor"]
        self.tokenizer = state["tokenizer"]

    def run(self, cell: dict):
        cfg = agent_mod.LoopConfig(
            format=cell["format"],
            mode=cell["mode"],
            max_iterations=self.max_iterations,
            failure_rate=cell["failure_rate"],
            seed=cell["seed"],
        )
        ref_cfg = agent_mod.LoopConfig(format="json", mode=cell["mode"], max_iterations=self.max_iterations, seed=cell["seed"])
        target = agent_mod.run_trajectory(self.TASK, self.agent, self.executor, self.catalog, cfg)
        clean = agent_mod.without_corruption(self.agent)
        reference = agent_mod.run_trajectory(self.TASK, clean, self.executor, self.catalog, ref_cfg)
        return target, reference, tokens.decompose(target, self.tokenizer), tokens.decompose(reference, self.tokenizer)

    @staticmethod
    def _sums_agree(record, breakdown) -> tuple[bool, int]:
        """Whether per-span UTF-8 byte sums equal the decompose totals; and the bytes."""
        by_origin = {"schema": 0, "call": 0, "result": 0, "other": 0}
        by_dir = {"prompt": 0, "completion": 0}
        for span in record.spans:
            n = refs.utf8_len(span.text)
            by_origin[span.origin] += n
            by_dir[span.direction] += n
        agree = (
            by_origin["schema"] == breakdown.schema_tokens
            and by_origin["call"] == breakdown.call_tokens
            and by_origin["result"] == breakdown.result_tokens
            and by_dir["prompt"] == breakdown.prompt_tokens
            and by_dir["completion"] == breakdown.completion_tokens
            and sum(by_dir.values()) == breakdown.total
        )
        return agree, sum(by_dir.values())

    def check(self, cell: dict, out) -> tuple[str | None, int]:
        target, reference, t_break, r_break = out
        t_ok, t_bytes = self._sums_agree(target, t_break)
        r_ok, r_bytes = self._sums_agree(reference, r_break)
        nbytes = t_bytes + r_bytes
        if not (t_ok and r_ok):
            return "span byte sums disagree with decompose totals", nbytes
        if reference.status != "final" or reference.final_answer != self.answer:
            return "reference run did not return the scripted answer", nbytes
        if reference.cascade_count != 0 or reference.iterations != self.steps:
            return "reference run is not clean", nbytes
        if target.status != "final":
            return f"target run ended with status {target.status}", nbytes
        if target.final_answer != self.answer:
            return "target run returned a different answer", nbytes
        return None, nbytes


def make(workload: str, inputs: Path, work: Path, state: dict):
    manifest = json.loads(_read(inputs / "manifest.json"))
    if workload == "measure-words":
        return Measure(inputs, manifest, work, "words")
    if workload == "measure-bpe":
        return Measure(inputs, manifest, work, "bpe")
    if workload == "codec-roundtrip":
        return CodecRoundtrip(inputs, manifest, state["texts"])
    return ReplaySweep(manifest, state)
