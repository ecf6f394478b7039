#!/usr/bin/env python3
"""Count the cyclic collector's work inside a perfbench workload's ops.

    python scripts/gc_census.py --workload codec-roundtrip --seed 7 --passes 5 [--src DIR]

Generates the workload's pool from the seed with perfbench's own generator,
loads it as perfbench's worker does, and runs its ops the way perfbench's
untraced loop does: the first item once as a warm-up, then whole passes,
each op's output check right after it. A ``gc.callbacks`` hook counts only
the collections that start while an op runs: per pass, collections of each
generation, their thread time in milliseconds and the objects they
collected, next to the ops' own thread time. Output checks, generation and
set-up are not counted; an op that raises or fails its check is counted
and reported as failed, as perfbench counts it.

``--src`` imports ``notation`` from DIR (a ``src/`` directory), so two
revisions can be compared on the same benchmark code; by default it is this
checkout's ``src/``. Nothing under ``perfbench/`` is written. The last line
of standard output is one JSON object with the per-pass means and every
pass; the lines before it are a table.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PERFBENCH = REPO / "perfbench"
WORKLOADS = ("measure-words", "measure-bpe", "codec-roundtrip", "replay-sweep")
FIELDS = ("gen0", "gen1", "gen2", "gc_ms", "collected", "op_ms")


class Census:
    """A ``gc.callbacks`` hook that counts collections while ``inside`` is set."""

    def __init__(self):
        self.inside = False
        self.started: float | None = None
        self.reset()

    def reset(self) -> None:
        self.counts = {"gen0": 0, "gen1": 0, "gen2": 0, "gc_ms": 0.0, "collected": 0}

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.started = time.thread_time() if self.inside else None
        elif self.started is not None:
            self.counts["gc_ms"] += (time.thread_time() - self.started) * 1e3
            self.counts[f"gen{info['generation']}"] += 1
            self.counts["collected"] += info["collected"]
            self.started = None


def run_pass(wl, items: list, census: Census) -> tuple[dict, list[str]]:
    """Run and check ``items`` in order; the census of their ops, and their failures."""
    census.reset()
    op_s = 0.0
    failures = []
    for item in items:
        c0 = time.thread_time()
        census.inside = True
        try:
            out = wl.run(item)
        except (Exception, SystemExit) as e:
            out, failure = None, f"{type(e).__name__}: {e}"
        else:
            failure = None
        finally:
            census.inside = False
        op_s += time.thread_time() - c0
        if failure is None:
            failure, _ = wl.check(item, out)
        if failure is not None:
            failures.append(failure)
    return {**census.counts, "op_ms": op_s * 1e3}, failures


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--passes", type=int, default=5)
    p.add_argument("--src", type=Path, default=REPO / "src", help="directory that holds notation/")
    args = p.parse_args(argv)
    if args.passes < 1:
        p.error("--passes must be at least 1")
    if not (args.src / "notation" / "__init__.py").is_file():
        p.error(f"no notation package under {args.src}")
    sys.path[:0] = [str(args.src), str(PERFBENCH)]
    import gen
    import worker
    import workloads

    with tempfile.TemporaryDirectory(prefix="gc_census-") as tmp:
        inputs = Path(tmp) / "inputs"
        gen.generate(args.workload, args.seed, inputs)
        wl = workloads.make(args.workload, inputs, Path(tmp), worker.setup(args.workload, str(inputs)))
        census = Census()
        runs = []
        failures = []
        # the measure workloads' CLI prints its table; perfbench's worker discards it too
        with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
            run_pass(wl, wl.items[:1], census)  # the warm-up op perfbench's loop runs first
            gc.callbacks.append(census)
            try:
                for _ in range(args.passes):
                    counts, failed = run_pass(wl, wl.items, census)
                    runs.append(counts)
                    failures += failed
            finally:
                gc.callbacks.remove(census)

    mean = {k: statistics.fmean(r[k] for r in runs) for k in FIELDS}
    print(f"gc_census: {args.workload} seed {args.seed}, {len(wl.items)} ops a pass, {args.passes} passes")
    print("pass " + " ".join(f"{k:>10}" for k in FIELDS))
    for i, r in enumerate(runs, 1):
        print(f"{i:>4} " + " ".join(f"{r[k]:>10.1f}" if k.endswith("_ms") else f"{r[k]:>10}" for k in FIELDS))
    print("mean " + " ".join(f"{mean[k]:>10.1f}" for k in FIELDS))
    if failures:
        print(f"{len(failures)} ops failed; first: {failures[0]}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "pool": len(wl.items), "failed": len(failures),
                      "per_pass": mean, "passes": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
