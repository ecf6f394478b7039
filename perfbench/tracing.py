"""Span tracing for the traced run, done from outside the program.

The tracer swaps the program's public layer-boundary functions for timing
wrappers in every ``notation`` module namespace that holds them (``cli``
imports ``decode_json`` by name, so ``notation.cli.decode_json`` is wrapped
as well as ``notation.json_codec.decode_json``) and restores them after.
Only document-level entry points are wrapped; per-scalar helpers such as
``encode_string`` would cost more to time than they take.

A span is ``[name, start, end, parent, op, nbytes]``. A call made while a
span of the same name is innermost (``from_python`` recursing) is not a
new span. Bookkeeping after a call (byte sizes, counts) is recorded as a
``bench.book`` span, so it is the benchmark's time, not the layer's.
"""

from __future__ import annotations

import statistics
import sys
import time

TARGETS = {
    "cli": ("main",),
    "agent": ("run_trajectory", "without_corruption", "build_system_prompt_spans", "parse_envelope_outcome"),
    "formats": ("encode_doc", "decode_doc"),
    "json_codec": ("encode_json", "decode_json"),
    "toon_codec": ("encode_toon", "decode_toon"),
    "tron_codec": ("encode_tron", "decode_tron", "encode_tron_batch", "decode_tron_batch", "extract_classes"),
    "tokens": ("decompose", "make_tokenizer"),
    "values": ("from_python",),
}
TOKENIZERS = {"ByteCountTokenizer": "bytes", "WordRegexTokenizer": "words", "BpeTokenizer": "bpe"}
LAYERS = tuple(TARGETS)

# nbytes of a span: the input text for decoders and counters, the output
# text for encoders.
_IN_BYTES = {"decode_json", "decode_toon", "decode_tron", "decode_tron_batch"}
_OUT_BYTES = {"encode_json", "encode_toon", "encode_tron", "encode_tron_batch"}

# tokens.bpe_size_ratio compares per-byte BPE time on these input sizes.
BPE_SMALL = (250, 500)
BPE_LARGE = (2000, 4000)


def _is_codec_error(exc: BaseException) -> bool:
    return any(c.__name__ == "CodecError" for c in type(exc).__mro__)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, int] = {}
        self.json_texts: list | None = None  # (text, seconds) of decode_json calls, when collecting
        self._wrappers: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- bench spans ----------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op, 0])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span nesting broken: closed {idx}, innermost was {popped}")

    def bump(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrapping -------------------------------------------------------------

    def _book(self, func: str, layer: str, rec: list, args, kwargs, result, exc) -> None:
        if exc is not None:
            if _is_codec_error(exc):
                self.bump(f"{layer}.errors")
            if type(exc).__name__ == "AbortedTrajectoryError":
                self.bump("agent.aborts")
            return
        if func in _IN_BYTES:
            text = args[0] if args else kwargs["text"]
            rec[5] = len(text.encode("utf-8"))
            if func == "decode_json" and self.json_texts is not None:
                self.json_texts.append((text, rec[2] - rec[1]))
        elif func in _OUT_BYTES:
            rec[5] = len(result.encode("utf-8"))
        elif func == "count":
            rec[5] = len(args[1].encode("utf-8"))
            self.bump(f"tokens.count.{TOKENIZERS[type(args[0]).__name__]}", result)
        elif func == "extract_classes":
            self.bump("tron_codec.classes", len(result))
        elif func == "parse_envelope_outcome":
            self.bump("agent.parses")
            if result.failure is not None:
                self.bump(f"agent.fail.{result.failure.stage}")
        elif func == "run_trajectory":
            self.bump("agent.turns", result.iterations)
            self.bump("agent.cascades", result.cascade_count)

    def wrap(self, layer: str, func: str, fn, label: str | None = None):
        name = f"{layer}.{label or func}"
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            spans = tracer.spans
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, 0]
            spans.append(rec)
            stack.append(idx)
            result = exc = None
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                exc = e
            rec[2] = t1 = time.perf_counter()
            stack.pop()
            tracer._book(func, layer, rec, args, kwargs, result, exc)
            spans.append(["bench.book", t1, time.perf_counter(), rec[3], tracer.op, 0])
            if exc is not None:
                raise exc
            return result

        traced.__wrapped__ = fn
        return traced

    def add_target(self, owner, attr: str, layer: str, func: str, label: str | None = None) -> None:
        fn = getattr(owner, attr)
        self._wrappers[id(fn)] = self.wrap(layer, func, fn, label)
        self._patches.append((owner, attr, fn))

    def add_program_targets(self) -> None:
        for layer, funcs in TARGETS.items():
            mod = sys.modules.get(f"notation.{layer}")
            if mod is None:  # a layer the workload never imports
                continue
            for func in funcs:
                if not callable(getattr(mod, func, None)):
                    self.missing.append(f"notation.{layer}.{func}")
                    continue
                self.add_target(mod, func, layer, func)
        tokens = sys.modules["notation.tokens"]
        for cls_name in TOKENIZERS:
            cls = getattr(tokens, cls_name, None)
            if cls is None or "count" not in vars(cls):
                self.missing.append(f"notation.tokens.{cls_name}.count")
                continue
            self.add_target(cls, "count", "tokens", "count", f"{cls_name}.count")

    def install(self) -> None:
        """Patch every notation namespace that holds a target, plus the targets' own owners."""
        owners = [mod for name, mod in sorted(sys.modules.items()) if name == "notation" or name.startswith("notation.")]
        self._installed = []
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if id(value) in self._wrappers:
                    setattr(owner, attr, self._wrappers[id(value)])
                    self._installed.append((owner, attr, value))
        for owner, attr, fn in self._patches:
            if getattr(owner, attr) is fn:
                setattr(owner, attr, self._wrappers[id(fn)])
                self._installed.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed = []


# ---------------------------------------------------------------------------
# Per-layer metrics from the recorded spans.


def self_times(spans: list[list]) -> list[float]:
    """Duration minus the time covered by direct children, per span."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def check_nesting(spans: list[list], tol: float = 1e-9) -> str | None:
    """None when every span lies inside its parent; else a description."""
    for i, s in enumerate(spans):
        if s[2] < s[1]:
            return f"span {i} ({s[0]}) ends before it starts"
        p = s[3]
        if p >= 0 and (s[1] < spans[p][1] - tol or s[2] > spans[p][2] + tol):
            return f"span {i} ({s[0]}) escapes its parent {p} ({spans[p][0]})"
    return None


def _rate(nbytes: float, seconds: float, scale: float) -> float:
    return nbytes / seconds / scale if seconds > 0 else 0.0


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def layer_metrics(
    spans: list[list],
    first: tuple[int, int],
    counts: dict[str, int],
    n_passes: int,
    stdlib_ratio: float,
    overhead_share: float,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit).

    Counts (calls, bytes, tokens, classes, turns, failures) are those of the
    first traced pass over the pool, so they repeat exactly for a seed.
    Times are summed over all traced passes and divided by their number.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)
    lo, hi = first

    def dur(i: int) -> float:
        return spans[i][2] - spans[i][1]

    def total(name: str) -> tuple[float, float]:
        idx = by_name.get(name, ())
        return sum(spans[i][5] for i in idx), sum(dur(i) for i in idx)

    def first_sum(name: str) -> int:
        return sum(spans[i][5] for i in by_name.get(name, ()) if lo <= i < hi)

    def mb_s(name: str) -> float:
        return _rate(*total(name), 1e6)

    out: dict[str, tuple[float, str]] = {}
    per_pass = max(n_passes, 1)
    for layer in LAYERS:
        prefix = layer + "."
        calls = sum(1 for i in range(lo, hi) if spans[i][0].startswith(prefix))
        self_s = sum(t for s, t in zip(spans, selfs) if s[0].startswith(prefix))
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_s"] = (self_s / per_pass, "s")

    def med(name: str, scale: float) -> float:
        return _median([dur(i) * scale for i in by_name.get(name, ())])

    parses = counts.get("agent.parses", 0)
    fails = sum(counts.get(f"agent.fail.{st}", 0) for st in ("think", "fence", "decode", "shape"))
    out["agent.trajectory_ms"] = (med("agent.run_trajectory", 1e3), "ms")
    out["agent.prompt_build_us"] = (med("agent.build_system_prompt_spans", 1e6), "us")
    out["agent.parse_us"] = (med("agent.parse_envelope_outcome", 1e6), "us")
    out["agent.parse_fail_share"] = (fails / parses if parses else 0.0, "ratio")
    for st in ("think", "fence", "decode", "shape"):
        out[f"agent.fail.{st}"] = (counts.get(f"agent.fail.{st}", 0), "count")
    for key in ("turns", "cascades", "aborts"):
        out[f"agent.{key}"] = (counts.get(f"agent.{key}", 0), "count")

    out["json_codec.decode_mb_s"] = (mb_s("json_codec.decode_json"), "MB/s")
    out["json_codec.encode_mb_s"] = (mb_s("json_codec.encode_json"), "MB/s")
    out["json_codec.decode_vs_stdlib"] = (stdlib_ratio, "ratio")
    out["json_codec.in_bytes"] = (first_sum("json_codec.decode_json"), "B")
    out["json_codec.out_bytes"] = (first_sum("json_codec.encode_json"), "B")
    out["json_codec.errors"] = (counts.get("json_codec.errors", 0), "count")

    out["toon_codec.encode_mb_s"] = (mb_s("toon_codec.encode_toon"), "MB/s")
    out["toon_codec.decode_mb_s"] = (mb_s("toon_codec.decode_toon"), "MB/s")
    out["toon_codec.in_bytes"] = (first_sum("toon_codec.decode_toon"), "B")
    out["toon_codec.out_bytes"] = (first_sum("toon_codec.encode_toon"), "B")
    out["toon_codec.errors"] = (counts.get("toon_codec.errors", 0), "count")

    out["tron_codec.encode_mb_s"] = (mb_s("tron_codec.encode_tron"), "MB/s")
    out["tron_codec.decode_mb_s"] = (mb_s("tron_codec.decode_tron"), "MB/s")
    out["tron_codec.batch_encode_mb_s"] = (mb_s("tron_codec.encode_tron_batch"), "MB/s")
    out["tron_codec.batch_decode_mb_s"] = (mb_s("tron_codec.decode_tron_batch"), "MB/s")
    out["tron_codec.in_bytes"] = (first_sum("tron_codec.decode_tron") + first_sum("tron_codec.decode_tron_batch"), "B")
    out["tron_codec.out_bytes"] = (first_sum("tron_codec.encode_tron"), "B")
    out["tron_codec.batch_out_bytes"] = (first_sum("tron_codec.encode_tron_batch"), "B")
    out["tron_codec.classes"] = (counts.get("tron_codec.classes", 0), "count")
    out["tron_codec.errors"] = (counts.get("tron_codec.errors", 0), "count")

    out["tokens.bytes_mb_s"] = (mb_s("tokens.ByteCountTokenizer.count"), "MB/s")
    out["tokens.words_mb_s"] = (mb_s("tokens.WordRegexTokenizer.count"), "MB/s")
    out["tokens.bpe_kb_s"] = (_rate(*total("tokens.BpeTokenizer.count"), 1e3), "kB/s")
    per_byte = {}
    for label, (a, b) in (("small", BPE_SMALL), ("large", BPE_LARGE)):
        idx = [i for i in by_name.get("tokens.BpeTokenizer.count", ()) if a <= spans[i][5] <= b]
        nbytes = sum(spans[i][5] for i in idx)
        per_byte[label] = sum(dur(i) for i in idx) / nbytes if nbytes else 0.0
    ratio = per_byte["large"] / per_byte["small"] if per_byte["small"] else 0.0
    out["tokens.bpe_size_ratio"] = (ratio, "ratio")
    out["tokens.decompose_us"] = (med("tokens.decompose", 1e6), "us")
    for kind in TOKENIZERS.values():
        out[f"tokens.count.{kind}"] = (counts.get(f"tokens.count.{kind}", 0), "count")

    eq = sum(selfs[i] for i in by_name.get("values.eq", ()))
    fp = sum(selfs[i] for i in by_name.get("values.from_python", ()))
    out["values.eq_s"] = (eq / per_pass, "s")
    out["values.from_python_s"] = (fp / per_pass, "s")

    bench = sum(t for s, t in zip(spans, selfs) if s[0].startswith("bench."))
    wall = sum(dur(i) for i in by_name.get("bench.pass", ()))
    out["trace.overhead_share"] = (overhead_share, "ratio")
    out["trace.bench_share"] = (bench / wall if wall > 0 else 0.0, "ratio")
    return out
