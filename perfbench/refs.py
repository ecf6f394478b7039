"""Independent references for the output checks.

Nothing here imports ``notation``. JSON values come from the stdlib parser
with number literals and key order kept, and are compared as canonical
minimal JSON text: two documents are equal exactly when their canonical
texts are. Program values are serialized by a walker of our own, so the
program's encoder is never its own reference.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring
from pathlib import Path


class _Lit(str):
    """A number literal exactly as written in the source text."""


class _Pairs(list):
    """An object as its ordered (key, value) pairs."""


def _reject(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def _dump(v) -> str:
    if isinstance(v, _Pairs):
        return "{" + ",".join(encode_basestring(k) + ":" + _dump(x) for k, x in v) + "}"
    if isinstance(v, list):
        return "[" + ",".join(_dump(x) for x in v) + "]"
    if isinstance(v, _Lit):
        return str(v)
    if isinstance(v, str):
        return encode_basestring(v)
    if v is None:
        return "null"
    return "true" if v else "false"


def canonical(text: str) -> str:
    """Canonical minimal JSON of a JSON text, parsed by the stdlib."""
    tree = json.loads(
        text, parse_int=_Lit, parse_float=_Lit, parse_constant=_reject, object_pairs_hook=_Pairs
    )
    return _dump(tree)


def _dump_object(v) -> str:
    return "{" + ",".join(encode_basestring(k) + ":" + dump_value(x) for k, x in v.pairs) + "}"


def _dump_array(v) -> str:
    return "[" + ",".join(dump_value(x) for x in v.items) + "]"


_DUMPERS = {
    "Object": _dump_object,
    "Array": _dump_array,
    "Number": lambda v: v.literal,
    "Text": lambda v: encode_basestring(v.value),
    "Bool": lambda v: "true" if v.value else "false",
    "Null": lambda v: "null",
}


def dump_value(v) -> str:
    """Canonical minimal JSON of a program document value (by its public fields)."""
    return _DUMPERS[type(v).__name__](v)


def utf8_len(text: str) -> int:
    return len(text.encode("utf-8"))


_WORD_RE = re.compile(r"\w+|[^\w\s]")


def count_words(text: str) -> int:
    """Word-runs-plus-symbols count: maximal \\w runs, one token per other non-space char."""
    return len(_WORD_RE.findall(text))


# ---------------------------------------------------------------------------
# BPE oracle: the seed's greedy lowest-rank merge loop, kept here unchanged
# so a faster tokenizer in the program is checked against the original.


def _bytes_to_unicode() -> dict[int, str]:
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


class BpeOracle:
    def __init__(self, vocab_dir: Path):
        self.vocab = json.loads((vocab_dir / "vocab.json").read_text(encoding="utf-8"))
        merges = []
        for line in (vocab_dir / "merges.txt").read_text(encoding="utf-8").splitlines():
            if line.strip() and not line.startswith("#"):
                a, b = line.split(" ")
                merges.append((a, b))
        self.ranks = {pair: i for i, pair in enumerate(merges)}

    def _merge(self, symbols: list[str]) -> list[str]:
        while len(symbols) > 1:
            best_rank = None
            best_i = -1
            for i in range(len(symbols) - 1):
                rank = self.ranks.get((symbols[i], symbols[i + 1]))
                if rank is not None and (best_rank is None or rank < best_rank):
                    best_rank = rank
                    best_i = i
            if best_rank is None:
                return symbols
            symbols = symbols[:best_i] + [symbols[best_i] + symbols[best_i + 1]] + symbols[best_i + 2 :]
        return symbols

    def count(self, text: str) -> int:
        if not text:
            return 0
        total = 0
        for sym in self._merge([_BYTE_MAP[b] for b in text.encode("utf-8")]):
            total += 1 if sym in self.vocab or len(sym) == 1 else len(sym)
        return total
