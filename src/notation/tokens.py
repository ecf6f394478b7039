"""Token counting and the schema/call/result consumption breakdown.

Counting is pluggable: a dependency-free byte counter (the default for
all relative-delta work), a word/symbol counter, and a BPE counter that
loads any vocab.json + merges.txt pair in the common plain-text
interchange layout. The word counter gives the number of word-character
runs plus non-space symbols without building a string per token, from
two byte tables: deleting the symbol bytes counts the symbols by the
length they remove, and a table that maps each word byte to ``w`` and
every other byte to a space leaves one ``b" w"`` (or a leading ``w``)
per word run for ``bytes.count``; runs of non-ASCII text are first
replaced by ASCII stand-ins of the same count, each run's stand-in
worked out once and kept in a bounded memo. BPE counting gives the same
counts as greedy lowest-rank merging over the whole UTF-8 span (lowest
rank first, leftmost first on ties). It splits the span into chunks at
the byte boundaries no merge can cross, which the merge table alone
determines. Each chunk's count is kept in a bounded memo, and the chunks
of a span that the memo lacks share heap runs of about 512 bytes each. A
vocabulary that joins every byte pair leaves each span one chunk, so the
count stays O(n log n) in the UTF-8 length.
Per-span counts are summed, never recomputed over concatenations, so
component sums stay exactly additive.
"""

from __future__ import annotations

import heapq
import json
import re
from itertools import compress, repeat
from operator import is_
from pathlib import Path

from ._memo import Memo
from ._record import record

__all__ = [
    "VocabLoadError",
    "UntaggedSpanError",
    "Tokenizer",
    "ByteCountTokenizer",
    "WordRegexTokenizer",
    "BpeTokenizer",
    "TOKENIZERS",
    "make_tokenizer",
    "TokenBreakdown",
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
        # an ASCII character is one byte
        return len(text) if text.isascii() else len(text.encode("utf-8"))


_WORD_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)
_is_word = re.compile(r"\w").fullmatch
_is_space = re.compile(r"\s").fullmatch


def _char_class(ch: str) -> str:
    """The class of ch under _WORD_RE, as an ASCII character of that class.

    "w" for a word character, " " for a space, "!" for a one-token symbol.
    """
    return "w" if _is_word(ch) else " " if _is_space(ch) else "!"


# the ASCII symbol bytes: deleting them from a text removes one byte per symbol
_SYMBOLS = bytes(b for b in range(128) if _char_class(chr(b)) == "!")
# byte -> "w" for an ASCII word byte, " " for any other; count() only translates ASCII
_WORD_TABLE = bytes(ord("w") if _char_class(chr(b)) == "w" else ord(" ") for b in range(128)).ljust(256)

# splits text around its runs, each a non-ASCII character and what follows
# it up to the next ASCII word character or ASCII control that is not a
# space; the runs land at the odd indexes
_split_runs = re.compile(r"([^\x00-\x7f][^\x00-\x08\x0e-\x1b0-9A-Za-z\x7f]*)").split


def _ascii_standin(run: str) -> str:
    """ASCII text with the run's token count and its first and last class."""
    if len(run) == 1:
        return _char_class(run)
    n = _WORD_RE.subn("", run)[1]  # the token count, without a list of tokens
    first, last = _char_class(run[0]), _char_class(run[-1])
    if n == 1 and first == last == "w":
        return "w"
    return first + " " + "!" * (n - (first != " ") - (last != " ")) + " " + last


# the ASCII stand-in of each non-ASCII run met; a run longer than 64
# characters gets its stand-in on each use and is never kept
_standins = Memo(_ascii_standin, 4096, 64)


class WordRegexTokenizer(Tokenizer):
    """Maximal word-character runs plus one token per non-space symbol.

    The count equals ``len(_WORD_RE.findall(text))``: symbols, plus word
    characters that follow a space, a symbol or the start of the text.
    """

    name = "words"

    def count(self, text: str) -> int:
        if not text.isascii():
            parts = _split_runs(text)
            # a memo hit costs no Python call
            parts[1::2] = map(_standins.__getitem__, parts[1::2])
            text = "".join(parts)
        b = text.encode("ascii")
        # a word run starts at a word byte after a space, a symbol or nothing
        w = b.translate(_WORD_TABLE)
        return len(b) - len(b.translate(None, _SYMBOLS)) + w.count(b" w") + w.startswith(b"w")


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


# the byte each byte-mapped symbol character stands for
_BYTE_OF = {ch: b for b, ch in _BYTE_MAP.items()}
_MAPPED = frozenset(_BYTE_OF)

# Swaps byte 00 with C0 and bytes D8-DF with F8-FF. UTF-8 never holds C0
# or F8-FF, so the pair code of two bytes of a text (swapped left byte << 8
# | right byte) is never below 0x100, where a regex class has special
# characters, and never in the UTF-16 surrogates D800-DFFF: each pair
# decodes to one code unit.
_SWAP = bytes.maketrans(
    b"\x00\xc0" + bytes(range(0xD8, 0xE0)) + bytes(range(0xF8, 0x100)),
    b"\xc0\x00" + bytes(range(0xF8, 0x100)) + bytes(range(0xD8, 0xE0)),
)
# symbol character -> high byte of its pair code, for the bytes UTF-8 holds
_HIGH = {ch: _SWAP[b] << 8 for ch, b in _BYTE_OF.items() if b != 0xC0 and b < 0xF8}


def _merge(ranks: dict[tuple[str, str], int], symbols: list[str]) -> list[str]:
    """Apply merges lowest rank first, leftmost first on equal ranks.

    Works in place: each position links to its live neighbours, and a
    heap holds a (rank, position) entry per ranked adjacent pair. A merge
    leaves entries behind whose pair is gone; since each rank names one
    pair, re-reading the rank at pop time finds them and skips them.
    """
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


def _joinable_runs(ranks: dict[tuple[str, str], int]):
    """``findall`` for runs of joinable pair codes, from the merge table.

    A merge (L, R) joins across the byte pair (a, b) only when L ends in
    a and R starts with b. A merge naming a character outside the byte
    map never applies, and a left byte UTF-8 never holds never occurs,
    so neither adds a pair.
    """
    codes = dict.fromkeys(
        chr(_HIGH[left[-1]] | _BYTE_OF[right[0]])
        for left, right in ranks
        if left[-1:] in _HIGH and right and _MAPPED.issuperset(left + right)
    )
    # "(?!)" matches nowhere: with no joinable pair every chunk is one byte
    return re.compile(f"[{''.join(codes)}]+" if codes else "(?!)").findall


# ends each chunk of a combined heap run: no ranked pair names it
_SEP = object()
# Pair codes past which a heap run takes no more chunks. A run holds a
# few list slots and a heap entry per byte, and a deeper heap costs more
# per merge, so a bound keeps both small on a large text; the fresh
# chunks of one count of a document of a few KB still share one run.
_HEAP_RUN = 1 << 9


class BpeTokenizer(Tokenizer):
    """Greedy lowest-rank pair merging over byte-mapped symbols.

    The count is split into chunks at byte boundaries no merge can cross.
    A merge (L, R) can only join across the boundary between bytes a and b
    when L ends in a and R starts with b; the merge table gives the set of
    such joinable pairs. At a boundary whose pair is not in the set, no
    symbol ever spans the boundary, and no ranked pair straddles it. So
    the lowest-rank, leftmost pair of the whole span is always the
    lowest-rank, leftmost pair of one chunk, and each chunk goes through
    exactly the merges it would go through alone. The vocabulary fallback
    is per symbol, so it holds per chunk too. Hence the span's count is
    its UTF-8 length plus count(chunk) - len(chunk) summed over its
    chunks of two or more bytes.

    Each adjacent byte pair of a span becomes one UTF-16 code unit, and
    one character class of the joinable pair codes finds every chunk as a
    run of them. A count whose chunks are all in the memo (at most 4096
    chunks, keyed by their pair codes) is one pass over it. The chunks it
    lacks share heap runs of at most about ``_HEAP_RUN`` pair codes each,
    a separator after each chunk. No ranked pair names the separator, so
    it is a boundary like the ones above, and each chunk again goes
    through exactly the merges it would go through alone. A vocabulary
    that joins every byte pair leaves each span one chunk, whose heap run
    is O(n log n) in its length.
    """

    name = "bpe"

    def __init__(self, vocab: dict[str, int], merges: list[tuple[str, str]]):
        self.vocab = vocab
        self.ranks = {pair: i for i, pair in enumerate(merges)}
        self._runs = _joinable_runs(self.ranks)
        self._chunks = Memo(None, 4096)

    @classmethod
    def from_files(cls, vocab_path: str | Path, merges_path: str | Path) -> "BpeTokenizer":
        try:
            vocab = json.loads(_read_vocab_file(vocab_path, "vocabulary"))
        except (json.JSONDecodeError, RecursionError) as e:
            # RecursionError: nesting deeper than the stdlib decoder reads
            raise VocabLoadError(f"vocabulary file {vocab_path} is not valid JSON: {e}") from e
        # JSON object keys are always str; an id's type must be int itself, since a
        # JSON true or false is a bool, which isinstance counts as an int
        if not isinstance(vocab, dict) or not {int}.issuperset(map(type, vocab.values())):
            raise VocabLoadError("vocabulary must map token strings to integer ids")
        merge_text = _read_vocab_file(merges_path, "merges")
        merges: list[tuple[str, str]] = []
        for lineno, line in enumerate(merge_text.splitlines(), start=1):
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split(" ")
            if len(parts) != 2 or not all(parts):
                raise VocabLoadError(f"malformed merge on line {lineno}: {line!r}")
            merges.append((parts[0], parts[1]))
        return cls(vocab, merges)

    def count(self, text: str) -> int:
        utf8 = text.encode("utf-8")
        n = len(utf8)
        if n < 2:
            return n
        pairs = bytearray(2 * n - 2)
        pairs[1::2] = utf8[:-1].translate(_SWAP)
        pairs[::2] = utf8[1:]
        runs = self._runs(pairs.decode("utf-16-le"))
        memo = self._chunks
        # None for a chunk the memo lacks; read before the memo is filled, since a fill may start it over
        deltas = list(map(memo.get, runs))
        if None not in deltas:
            return n + sum(deltas)
        fresh = self._deltas(set(compress(runs, map(is_, deltas, repeat(None)))))
        for run, delta in fresh.items():
            memo.keep(run, delta)
        # a fresh chunk's delta, else the one read from the memo
        return n + sum(map(fresh.get, runs, deltas))

    def _deltas(self, runs) -> dict[str, int]:
        """count(chunk) - len(chunk) for each chunk, keyed by its pair codes ``runs``.

        The chunks go to one heap run until they hold ``_HEAP_RUN`` pair
        codes, then to the next.
        """
        deltas = {}
        batch = []
        size = 0
        for run in runs:
            batch.append(run)
            size += len(run)
            if size >= _HEAP_RUN:
                deltas.update(zip(batch, self._merged_deltas(batch)))
                batch = []
                size = 0
        deltas.update(zip(batch, self._merged_deltas(batch)))
        return deltas

    def _merged_deltas(self, runs: list[str]):
        """Each chunk's count(chunk) - len(chunk), in order, from one heap run.

        The chunks are spelled into one symbol list, a separator after each.
        """
        codes = "".join(runs).encode("utf-16-le")
        # a chunk's symbols: its first pair's left byte, then each pair's right byte
        rights = list(map(_BYTE_MAP.__getitem__, codes[::2]))
        symbols = []
        i = 0
        for run in runs:
            j = i + len(run)
            symbols.append(_BYTE_MAP[_SWAP[codes[2 * i + 1]]])
            symbols += rights[i:j]
            symbols.append(_SEP)
            i = j
        # a merged symbol in the vocabulary is one token for its len(sym)
        # bytes; one outside it falls back to byte tokens and changes nothing
        vocab = self.vocab
        delta = 0
        for sym in _merge(self.ranks, symbols):
            if sym is _SEP:
                yield delta
                delta = 0
            elif sym in vocab:
                delta += 1 - len(sym)


def _read_vocab_file(path: str | Path, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise VocabLoadError(f"cannot read {what} file: {e}") from e
    except UnicodeDecodeError as e:
        raise VocabLoadError(f"{what} file {path} is not UTF-8: {e}") from e


TOKENIZERS = {cls.name: cls for cls in (ByteCountTokenizer, WordRegexTokenizer, BpeTokenizer)}


def make_tokenizer(kind: str, vocab_path=None, merges_path=None) -> Tokenizer:
    if kind not in TOKENIZERS:
        raise ValueError(f"unknown tokenizer kind: {kind!r}")
    if kind != BpeTokenizer.name:
        return TOKENIZERS[kind]()
    if vocab_path is None or merges_path is None:
        raise VocabLoadError("bpe tokenizer needs vocabulary and merges files")
    return BpeTokenizer.from_files(vocab_path, merges_path)


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


class TokenBreakdown(
    record("TokenBreakdown", "schema_tokens", "call_tokens", "result_tokens", "prompt_tokens", "completion_tokens")
):
    """Token counts (ints) by span origin and by direction; ``total`` is prompt plus completion."""

    __slots__ = ()

    @property
    def total(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    def as_dict(self) -> dict[str, int]:
        d = self._asdict()
        d["total"] = self.total
        return d


COMPONENTS = (*TokenBreakdown._fields, "total")


def decompose(trajectory, tokenizer: Tokenizer) -> TokenBreakdown:
    """Sum tagged span counts out of a trajectory record.

    Every span must carry an origin in SPAN_ORIGINS and a prompt or
    completion direction; anything else is a broken record, not data.
    """
    sums = {origin: 0 for origin in SPAN_ORIGINS}
    prompt = 0
    completion = 0
    count = tokenizer.count
    for span in trajectory.spans:
        origin = span.origin
        # a tuple test, so an unhashable origin is refused here too
        if origin not in SPAN_ORIGINS:
            raise UntaggedSpanError(f"span has unknown origin {origin!r}")
        direction = span.direction
        if direction == "prompt":
            n = count(span.text)
            prompt += n
        elif direction == "completion":
            n = count(span.text)
            completion += n
        else:
            raise UntaggedSpanError(f"span has unknown direction {direction!r}")
        sums[origin] += n
    return TokenBreakdown(
        schema_tokens=sums["schema"],
        call_tokens=sums["call"],
        result_tokens=sums["result"],
        prompt_tokens=prompt,
        completion_tokens=completion,
    )


def delta_vs_baseline(x: TokenBreakdown, base: TokenBreakdown) -> dict[str, float | None]:
    """Signed percent change of each component of x against base; None = n/a."""
    xd = x.as_dict()
    bd = base.as_dict()
    return {c: pct_delta(xd[c], bd[c]) for c in COMPONENTS}
