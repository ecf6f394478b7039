#!/usr/bin/env python3
"""Sweep injected parse failures and print where per-call savings flip.

For each format and failure count E, replays the same scripted lookup
loop and reports the total byte delta vs the clean JSON reference. The
crossing point is where E extra reasoning turns outweigh the savings
accumulated over the clean turns.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from notation.agent import (
    LoopConfig,
    ScriptTurn,
    TableExecutor,
    ToolSchema,
    run_with_reference,
)
from notation.formats import BASELINE, FORMATS
from notation.tokens import ByteCountTokenizer, decompose
from notation.values import from_python

STEPS = 6
RETRY_THOUGHT_PAD = "x" * 600  # stands in for a chain-of-thought on corrupted turns


def build_pieces(corrupt_count: int):
    params = from_python(
        {"type": "object", "properties": {"key": {"type": "string", "description": "record key"}}}
    )
    catalog = [ToolSchema("lookup", "Fetch a record batch by key.", params)]
    table = {}
    script = []
    for i in range(STEPS):
        args = from_python({"key": f"k{i}"})
        table[("lookup", args)] = from_python(
            {
                "records": [
                    {"id": n, "label": f"item{n}", "score": n * 3, "state": "ready"}
                    for n in range(10)
                ]
            }
        )
        corrupted = i < corrupt_count
        thought = f"look up k{i}" + (" " + RETRY_THOUGHT_PAD if corrupted else "")
        script.append(
            ScriptTurn(
                from_python({"thought": thought, "action": "lookup", "arguments": {"key": f"k{i}"}}),
                corrupt="swap_delimiter" if corrupted else None,
            )
        )
    script.append(ScriptTurn(from_python({"final_answer": "all records fetched"})))
    return catalog, TableExecutor(table), tuple(script)


def main() -> int:
    tok = ByteCountTokenizer()
    print(f"{'format':<8} {'E':>3} {'iters':>6} {'cascade':>8} {'total':>8} {'vs ' + BASELINE:>9}")
    for fmt in (f for f in FORMATS if f != BASELINE):
        for extra in range(0, 4):
            catalog, executor, script = build_pieces(extra)
            cfg = LoopConfig(format=fmt, mode="full")
            target, reference = run_with_reference("fetch", script, executor, catalog, cfg)
            t = decompose(target, tok).total
            r = decompose(reference, tok).total
            print(
                f"{fmt:<8} {extra:>3} {target.iterations:>6} {target.cascade_count:>8}"
                f" {t:>8} {t - r:>+9}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
