#!/usr/bin/env python3
"""notation benchmark: seeded inputs, four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload measure-words --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5     # one row per workload

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``. Per workload: a separate process generates the inputs
from the seed; fresh interpreters time the program's set-up (``setup_s``,
median of several); one more interpreter runs the closed loop and checks
every op against independent references. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("measure-words", "measure-bpe", "codec-roundtrip", "replay-sweep")
SETUP_SAMPLES = 5
DEADLINE_S = 170  # every run must end within 180 s

END_TO_END = {
    "ops_s": "ops/s",
    "mb_s": "MB/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def _child(argv: list[str], deadline: float) -> None:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=remaining
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"timed out: {' '.join(argv[:3])}") from e
    if proc.returncode != 0:
        tail = proc.stderr.decode("utf-8", "replace")[-2000:]
        raise BenchError(f"{' '.join(argv[:3])} exited {proc.returncode}:\n{tail}")


def _worker(workload: str, inputs: Path, work: Path, mode: str, deadline: float, extra: list[str]) -> dict:
    result = work / f"{mode}.json"
    argv = [
        str(HERE / "worker.py"), "--workload", workload, "--inputs", str(inputs), "--work", str(work),
        "--result", str(result), "--mode", mode, *extra,
    ]
    _child(argv, deadline)
    data = json.loads(result.read_text(encoding="utf-8"))
    result.unlink()
    return data


def run_workload(workload: str, seed: int, seconds: float, traced: bool, smoke: bool, deadline: float) -> dict:
    if not (ROOT / "src" / "notation" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'notation'} is missing")
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = work / "inputs"
    try:
        gen = [str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed), "--out", str(inputs)]
        _child(gen + (["--smoke"] if smoke else []), deadline)
        # one unmeasured start first, so byte-code caches exist for every sample
        _worker(workload, inputs, work, "setup", deadline, [])
        setups = [_worker(workload, inputs, work, "setup", deadline, []) for _ in range(2 if smoke else SETUP_SAMPLES)]
        extra = ["--seconds", str(seconds), "--trace", "1" if traced else "0"]
        if traced:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            extra += ["--spans", str(out_dir / f"spans-{workload}.jsonl")]
        data = _worker(workload, inputs, work, "run", deadline, extra)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(data)
    data["setup_samples"] = len(setups)
    data["metrics"]["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    data["raw"]["setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
    data["metrics"]["peak_rss_mb"] = data["peak_rss_mb"]
    return data


def _fmt(v: float) -> str:
    return f"{v:.4g}" if abs(v) < 1e4 else f"{v:.0f}"


def print_rows(rows: list[tuple[str, dict]]) -> None:
    names = list(END_TO_END)
    head = ["workload", *[f"{n} ({END_TO_END[n]})" for n in names], "failed_share", "samples"]
    print("  ".join(head))
    for workload, d in rows:
        m = d["metrics"]
        cells = [workload, *[_fmt(m[n]) for n in names]]
        cells.append(_fmt(d["failed"] / d["attempted"]))
        cells.append(f"ok={d['samples']} tail=p{d['tail_pct']:.1f} setup={d['setup_samples']}")
        print("  ".join(cells))
    print("uncorrected for machine speed (see probe.py):")
    for workload, d in rows:
        print(f"  {workload}: " + "  ".join(f"{k}={_fmt(v)}" for k, v in d["raw"].items()))
    for workload, d in rows:
        for reason, n in sorted(d["failures"].items()):
            print(f"  {workload}: {n} failed op(s): {reason}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    p.add_argument("--smoke", action="store_true", help="tiny pools, for the self-tests")
    args = p.parse_args(argv)
    # on SIGTERM unwind normally, so the running child is killed and the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = time.monotonic()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    traced = args.trace == "1"
    rows = []
    try:
        for w in workloads:
            deadline = start + DEADLINE_S if args.workload != "all" else time.monotonic() + DEADLINE_S
            rows.append((w, run_workload(w, args.seed, args.seconds, traced, args.smoke, deadline)))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    problems = [f"{w}: {p}" for w, d in rows for p in d["problems"]]
    for line in problems:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    if traced:
        for w, d in rows:
            print(f"# {w}: traced run, {d['passes']} traced passes over a pool of {d['pool']}")
            for name, (value, unit) in d["layers"].items():
                print(f"{w}  {name:32} {_fmt(value):>12} {unit}")
            if d["missing_targets"]:
                print(f"# {w}: not found in the program, so not traced: {', '.join(d['missing_targets'])}")
    else:
        print_rows(rows)
    if args.workload == "all":
        return 1 if problems else 0
    _, d = rows[0]
    if traced:
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in d["layers"].items()}
    else:
        metrics = {k: {"value": d["metrics"][k], "unit": unit} for k, unit in END_TO_END.items()}
    print(json.dumps({"correct": not problems, "attempted": d["attempted"], "failed": d["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
