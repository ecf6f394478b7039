"""Token counting and the schema/call/result consumption breakdown.

Counting is pluggable: a dependency-free byte counter (the default for
all relative-delta work), a word/symbol regex counter, and a BPE counter
that loads any vocab.json + merges.txt pair in the common plain-text
interchange layout. BPE counting takes O(n log n) in the UTF-8 length and
gives the same counts as greedy lowest-rank merging (lowest rank first,
leftmost first on ties), with no pre-tokenization. Per-span counts are
summed, never recomputed over concatenations, so component sums stay
exactly additive.
"""

from __future__ import annotations

import heapq
import json
import re
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "VocabLoadError",
    "UntaggedSpanError",
    "Tokenizer",
    "ByteCountTokenizer",
    "WordRegexTokenizer",
    "BpeTokenizer",
    "make_tokenizer",
    "TokenBreakdown",
    "DeltaReport",
    "decompose",
    "delta_vs_baseline",
    "round_pct",
    "pct_delta",
    "mean_pct",
    "SPAN_ORIGINS",
]

SPAN_ORIGINS = ("schema", "call", "result", "other")


class VocabLoadError(ValueError):
    pass


class UntaggedSpanError(ValueError):
    pass


class Tokenizer:
    name = "abstract"

    def count(self, text: str) -> int:
        raise NotImplementedError


class ByteCountTokenizer(Tokenizer):
    name = "bytes"

    def count(self, text: str) -> int:
        return len(text.encode("utf-8"))


_WORD_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


class WordRegexTokenizer(Tokenizer):
    """Maximal word-character runs plus one token per non-space symbol."""

    name = "words"

    def count(self, text: str) -> int:
        return len(_WORD_RE.findall(text))


def _bytes_to_unicode() -> dict[int, str]:
    """Standard reversible byte -> printable-codepoint map used by text BPE files."""
    bs = list(range(ord("!"), ord("~") + 1)) + list(range(0xA1, 0xAD)) + list(range(0xAE, 0x100))
    cs = bs[:]
    n = 0
    for b in range(256):
        if b not in bs:
            bs.append(b)
            cs.append(256 + n)
            n += 1
    return dict(zip(bs, map(chr, cs)))


_BYTE_MAP = _bytes_to_unicode()


class BpeTokenizer(Tokenizer):
    """Greedy lowest-rank pair merging over byte-mapped symbols."""

    name = "bpe"

    def __init__(self, vocab: dict[str, int], merges: list[tuple[str, str]]):
        self.vocab = vocab
        self.ranks = {pair: i for i, pair in enumerate(merges)}

    @classmethod
    def from_files(cls, vocab_path: str | Path, merges_path: str | Path) -> "BpeTokenizer":
        try:
            raw = Path(vocab_path).read_text(encoding="utf-8")
        except OSError as e:
            raise VocabLoadError(f"cannot read vocabulary file: {e}") from e
        try:
            vocab = json.loads(raw)
        except json.JSONDecodeError as e:
            raise VocabLoadError(f"vocabulary file is not valid JSON: {e}") from e
        if not isinstance(vocab, dict) or not all(
            isinstance(k, str) and isinstance(v, int) for k, v in vocab.items()
        ):
            raise VocabLoadError("vocabulary must map token strings to integer ids")
        try:
            merge_text = Path(merges_path).read_text(encoding="utf-8")
        except OSError as e:
            raise VocabLoadError(f"cannot read merges file: {e}") from e
        merges: list[tuple[str, str]] = []
        for lineno, line in enumerate(merge_text.splitlines(), start=1):
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split(" ")
            if len(parts) != 2 or not all(parts):
                raise VocabLoadError(f"malformed merge on line {lineno}: {line!r}")
            merges.append((parts[0], parts[1]))
        return cls(vocab, merges)

    def _merge(self, symbols: list[str]) -> list[str]:
        """Apply merges lowest rank first, leftmost first on equal ranks.

        Works in place: each position links to its live neighbours, and a
        heap holds a (rank, position) entry per ranked adjacent pair. A merge
        leaves entries behind whose pair is gone; since each rank names one
        pair, re-reading the rank at pop time finds them and skips them.
        """
        ranks = self.ranks
        n = len(symbols)
        nxt = list(range(1, n + 1))
        prv = list(range(-1, n - 1))
        heap = [
            (r, i)
            for i, pair in enumerate(zip(symbols, symbols[1:]))
            if (r := ranks.get(pair)) is not None
        ]
        heapq.heapify(heap)
        while heap:
            rank, i = heapq.heappop(heap)
            j = nxt[i]
            # a merged-away symbol is None, so its stale entries never match
            if j == n or ranks.get((symbols[i], symbols[j])) != rank:
                continue
            merged = symbols[i] + symbols[j]
            symbols[i] = merged
            symbols[j] = None
            k = nxt[j]
            nxt[i] = k
            if k < n:
                prv[k] = i
                r = ranks.get((merged, symbols[k]))
                if r is not None:
                    heapq.heappush(heap, (r, i))
            p = prv[i]
            if p >= 0:
                r = ranks.get((symbols[p], merged))
                if r is not None:
                    heapq.heappush(heap, (r, p))
        return [s for s in symbols if s is not None]

    def count(self, text: str) -> int:
        if not text:
            return 0
        symbols = [_BYTE_MAP[b] for b in text.encode("utf-8")]
        total = 0
        for sym in self._merge(symbols):
            # merged symbols outside the vocabulary fall back to byte tokens
            total += 1 if sym in self.vocab or len(sym) == 1 else len(sym)
        return total


def make_tokenizer(kind: str, vocab_path=None, merges_path=None) -> Tokenizer:
    if kind == "bytes":
        return ByteCountTokenizer()
    if kind == "words":
        return WordRegexTokenizer()
    if kind == "bpe":
        if vocab_path is None or merges_path is None:
            raise VocabLoadError("bpe tokenizer needs vocabulary and merges files")
        return BpeTokenizer.from_files(vocab_path, merges_path)
    raise ValueError(f"unknown tokenizer kind: {kind!r}")


def round_pct(v: float) -> float:
    """One decimal place, half away from zero."""
    sign = -1.0 if v < 0 else 1.0
    return sign * (int(abs(v) * 10 + 0.5) / 10)


def pct_delta(x: float, base: float) -> float | None:
    """Signed percent change of x against base, rounded; None when base is 0."""
    return None if base == 0 else round_pct((x - base) / base * 100.0)


def mean_pct(deltas: list[float | None]) -> float | None:
    """Rounded mean of the deltas that are not None; None when there are none."""
    known = [d for d in deltas if d is not None]
    return round_pct(sum(known) / len(known)) if known else None


@dataclass(frozen=True)
class TokenBreakdown:
    schema_tokens: int
    call_tokens: int
    result_tokens: int
    prompt_tokens: int
    completion_tokens: int

    @property
    def total(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    def as_dict(self) -> dict[str, int]:
        return {
            "schema_tokens": self.schema_tokens,
            "call_tokens": self.call_tokens,
            "result_tokens": self.result_tokens,
            "prompt_tokens": self.prompt_tokens,
            "completion_tokens": self.completion_tokens,
            "total": self.total,
        }


COMPONENTS = ("schema_tokens", "call_tokens", "result_tokens", "prompt_tokens", "completion_tokens", "total")


@dataclass(frozen=True)
class DeltaReport:
    """Signed percentage change per component vs a named baseline; None = n/a."""

    baseline: str
    deltas: dict[str, float | None]

    def as_dict(self) -> dict:
        return {"baseline": self.baseline, "deltas": dict(self.deltas)}


def decompose(trajectory, tokenizer: Tokenizer) -> TokenBreakdown:
    """Sum tagged span counts out of a trajectory record.

    Every span must carry an origin in SPAN_ORIGINS and a prompt or
    completion direction; anything else is a broken record, not data.
    """
    sums = {origin: 0 for origin in SPAN_ORIGINS}
    prompt = 0
    completion = 0
    spans = getattr(trajectory, "spans", trajectory)
    for span in spans:
        if span.origin not in SPAN_ORIGINS:
            raise UntaggedSpanError(f"span has unknown origin {span.origin!r}")
        if span.direction not in ("prompt", "completion"):
            raise UntaggedSpanError(f"span has unknown direction {span.direction!r}")
        n = tokenizer.count(span.text)
        sums[span.origin] += n
        if span.direction == "prompt":
            prompt += n
        else:
            completion += n
    return TokenBreakdown(
        schema_tokens=sums["schema"],
        call_tokens=sums["call"],
        result_tokens=sums["result"],
        prompt_tokens=prompt,
        completion_tokens=completion,
    )


def delta_vs_baseline(x: TokenBreakdown, base: TokenBreakdown, baseline_name: str = "json") -> DeltaReport:
    xd = x.as_dict()
    bd = base.as_dict()
    return DeltaReport(baseline=baseline_name, deltas={c: pct_delta(xd[c], bd[c]) for c in COMPONENTS})
