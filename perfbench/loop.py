"""The closed-loop run of one workload, untraced or traced.

Ops run back to back on one thread, in whole passes over the workload's
pool, until at least ``seconds`` of speed-corrected wall time have gone by.
An op's time is the CPU time of the thread that runs it, so time the host
gives to other processes is not counted, scaled to a reference machine
speed (probe.py). Its output check runs after the clock stops. End-to-end
metrics come only from untraced passes. With tracing on, untraced and traced passes
alternate, so ``trace.overhead_share`` compares the same ops.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from pathlib import Path

import probe
import tracing
import workloads


class Outcomes:
    """Per-op latencies, failures and byte counts."""

    def __init__(self):
        self.raw: list[float] = []
        self.latencies: list[float] = []
        self.ok_latencies: list[float] = []
        self.ok_raw: list[float] = []
        self.ok_bytes = 0
        self.failures: dict[str, int] = {}
        self.first: dict[int, str] = {}
        self.problems: list[str] = []

    def add(self, index: int, wall: float, cpu: float, speed: float, failure: str | None, nbytes: int) -> None:
        """Record one op: its wall and thread CPU seconds, run at `speed` (see probe.py)."""
        self.raw.append(wall)
        self.latencies.append(cpu * speed)
        if failure is None:
            self.ok_raw.append(wall)
            self.ok_latencies.append(cpu * speed)
            self.ok_bytes += nbytes
        else:
            self.failures[failure] = self.failures.get(failure, 0) + 1
        # the same input must give the same outcome on every pass
        verdict = failure or "ok"
        seen = self.first.setdefault(index, verdict)
        if seen != verdict and len(self.problems) < 5:
            self.problems.append(f"pool item {index}: {seen!r} then {verdict!r}")


def _one_op(wl, item):
    try:
        return wl.run(item), None
    except (Exception, SystemExit) as e:
        return None, e


def _judge(wl, item, out, err) -> tuple[str | None, int]:
    if err is not None:
        return f"{type(err).__name__}: {err}"[:200], 0
    return wl.check(item, out)


def _speed(before: float, after: float) -> float:
    return 2 * probe.PROBE_REF_S / (before + after)


def untraced_pass(wl, outcomes: Outcomes) -> tuple[float, float]:
    """One pass over the pool; returns its corrected op time and corrected wall time."""
    total = 0.0
    speeds = []
    start = time.perf_counter()
    for i, item in enumerate(wl.items):
        before = probe.probe()
        t0, c0 = time.perf_counter(), time.thread_time()
        out, err = _one_op(wl, item)
        t1, c1 = time.perf_counter(), time.thread_time()
        speed = _speed(before, probe.probe())
        failure, nbytes = _judge(wl, item, out, err)
        outcomes.add(i, t1 - t0, c1 - c0, speed, failure, nbytes)
        total += (c1 - c0) * speed
        speeds.append(speed)
    return total, (time.perf_counter() - start) * statistics.fmean(speeds)


def traced_pass(wl, tracer: tracing.Tracer, outcomes: Outcomes, op_base: int) -> float:
    """One traced pass; returns its corrected op time."""
    total = 0.0
    tracer.install()
    try:
        p = tracer.begin("bench.pass")
        for i, item in enumerate(wl.items):
            tracer.op = op_base + i
            b = tracer.begin("bench.probe")
            before = probe.probe()
            tracer.end(b)
            o = tracer.begin("bench.op")
            c0 = time.thread_time()
            out, err = _one_op(wl, item)
            cpu = time.thread_time() - c0
            tracer.end(o)
            c = tracer.begin("bench.check")
            speed = _speed(before, probe.probe())
            failure, nbytes = _judge(wl, item, out, err)
            tracer.end(c)
            outcomes.add(i, tracer.spans[o][2] - tracer.spans[o][1], cpu, speed, failure, nbytes)
            total += cpu * speed
        tracer.op = -1
        tracer.end(p)
    finally:
        tracer.uninstall()
    if tracer.stack:
        raise RuntimeError(f"{len(tracer.stack)} spans left open after a pass")
    return total


def _tail(xs: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and which one."""
    xs = sorted(xs)
    n = len(xs)
    if n > 10:
        return xs[n - 11], 100.0 * (n - 10) / n
    return (xs[-1] if xs else 0.0), 100.0


def end_to_end(outcomes: Outcomes) -> dict:
    busy = sum(outcomes.latencies)
    ok = outcomes.ok_latencies
    n = len(ok)
    attempted = len(outcomes.latencies)
    tail, tail_pct = _tail(ok)
    return {
        "attempted": attempted,
        "failed": attempted - n,
        "metrics": {
            "ops_s": n / busy if busy else 0.0,
            "mb_s": outcomes.ok_bytes / busy / 1e6 if busy else 0.0,
            "op_p50_ms": statistics.median(ok) * 1e3 if ok else 0.0,
            "op_tail_ms": tail * 1e3,
            "ok_share": n / attempted if attempted else 0.0,
        },
        "raw": {
            "ops_s": n / sum(outcomes.raw) if outcomes.raw else 0.0,
            "op_p50_ms": statistics.median(outcomes.ok_raw) * 1e3 if outcomes.ok_raw else 0.0,
        },
        "samples": n,
        "tail_pct": tail_pct,
        "failures": outcomes.failures,
    }


def _stdlib_ratio(pairs: list[tuple[str, float]]) -> float:
    """decode_json time over json.loads time on the same texts (best of three)."""
    if not pairs:
        return 0.0
    texts = [t for t, _ in pairs]
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for t in texts:
            json.loads(t)
        best = min(best, time.perf_counter() - t0)
    return sum(d for _, d in pairs) / best if best > 0 else 0.0


def traced_run(wl, outcomes: Outcomes, seconds: float, spans_out: str | None) -> tuple[int, list[str], dict]:
    """Alternate untraced and traced passes; returns passes, problems, per-layer metrics."""
    tracer = tracing.Tracer()
    tracer.add_program_targets()
    tracer.add_target(workloads, "eq", "values", "eq")
    traced_outcomes = Outcomes()
    untraced_time = traced_time = elapsed = 0.0
    first = (0, 0)
    counts: dict[str, int] = {}
    json_pairs: list = []
    passes = 0
    while passes == 0 or elapsed < seconds:
        op_time, wall = untraced_pass(wl, outcomes)
        untraced_time += op_time
        elapsed += 2 * wall
        lo = len(tracer.spans)
        if passes == 0:
            tracer.json_texts = json_pairs
        traced_time += traced_pass(wl, tracer, traced_outcomes, passes * len(wl.items))
        if passes == 0:
            first = (lo, len(tracer.spans))
            counts = dict(tracer.counts)
            tracer.json_texts = None
        passes += 1
    problems = [f"traced: {p}" for p in traced_outcomes.problems]
    if traced_outcomes.first != outcomes.first:
        problems.append("tracing changed the outcome of an op")
    bad = tracing.check_nesting(tracer.spans)
    if bad:
        problems.append(bad)
    # layer self times plus the benchmark's own time must add up to the traced wall time
    total_self = sum(tracing.self_times(tracer.spans))
    wall = sum(s[2] - s[1] for s in tracer.spans if s[0] == "bench.pass")
    if abs(total_self - wall) > 1e-6 * len(tracer.spans):
        problems.append(f"self times add up to {total_self:.6f} s, traced wall is {wall:.6f} s")
    metrics = tracing.layer_metrics(
        tracer.spans, first, counts, passes, _stdlib_ratio(json_pairs), traced_time / untraced_time - 1.0
    )
    if spans_out:
        write_spans(tracer.spans, spans_out)
    layers = {k: [v, unit] for k, (v, unit) in metrics.items()}
    return passes, problems, {"layers": layers, "missing_targets": tracer.missing}


def run(
    workload: str, inputs: str, work: str, state: dict, seconds: float, traced: bool, spans_out: str | None = None
) -> dict:
    wl = workloads.make(workload, Path(inputs), Path(work), state)
    # warm-up: the first item once, untimed, so lazy set-up is done
    _judge(wl, wl.items[0], *_one_op(wl, wl.items[0]))
    outcomes = Outcomes()
    result: dict = {"pool": len(wl.items)}
    if traced:
        passes, problems, layers = traced_run(wl, outcomes, seconds, spans_out)
        result.update(layers)
    else:
        # Whole passes until `seconds` of speed-corrected wall time have gone
        # by, so the number of passes, and with it the sample count, is steady.
        passes, problems, elapsed = 0, [], 0.0
        while passes == 0 or elapsed < seconds:
            elapsed += untraced_pass(wl, outcomes)[1]
            passes += 1
    result.update(end_to_end(outcomes))
    result["passes"] = passes
    result["problems"] = problems + outcomes.problems
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def write_spans(spans: list[list], path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for i, (name, start, end, parent, op, nbytes) in enumerate(spans):
            f.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op, "bytes": nbytes}) + "\n")
