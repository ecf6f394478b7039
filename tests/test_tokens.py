import contextlib
import json
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from notation.agent import LoopConfig, run_trajectory
from notation import tokens
from notation.tokens import (
    BpeTokenizer,
    ByteCountTokenizer,
    TokenBreakdown,
    UntaggedSpanError,
    VocabLoadError,
    WordRegexTokenizer,
    _BYTE_MAP,
    decompose,
    delta_vs_baseline,
    make_tokenizer,
    mean_pct,
    pct_delta,
    round_pct,
)
from notation.agent import Span, TrajectoryRecord

from conftest import FIXTURES, check_record, simple_run_pieces


def test_empty_counts_zero():
    for tok in (ByteCountTokenizer(), WordRegexTokenizer()):
        assert tok.count("") == 0


@given(st.text(st.characters(exclude_categories=("Cs",))))
@example("")
@example("abc")
@example("café")
@example("✓")
@example("漢字")
@example("🙂 ok")
def test_byte_count_is_utf8_length(t):
    assert ByteCountTokenizer().count(t) == len(t.encode("utf-8"))


def test_word_regex_counting():
    tok = WordRegexTokenizer()
    assert tok.count("hello world") == 2
    assert tok.count('{"a":1}') == 7  # { " a " : 1 } each symbol separate, spaces free
    assert tok.count("a,b,c") == 5


def reference_word_count(text: str) -> int:
    """The original counter: build every token, then count them."""
    return len(re.findall(r"\w+|[^\w\s]", text))


# ASCII and Unicode spaces, controls that are and are not spaces, digits and
# marks that are word characters, multi-byte letters and lone surrogates
WORD_TEXT = st.text(
    st.one_of(
        st.sampled_from("ab_9 ,:\"{}[]-."),
        st.characters(max_codepoint=0x7F),
        st.sampled_from("\x00\x08\t\n\x0b\x0c\r\x0e\x1b\x1c\x1d\x1e\x1f\x7f\x85\xa0\u2028\u2029\u3000"),
        st.sampled_from("\xb2\u0660\u0301\xe9\u4e2d\u6587\u3002\U0001f600\ud800\udc00\udfff"),
        st.characters(min_codepoint=0x80),
    ),
    max_size=60,
)


@contextlib.contextmanager
def tiny_standin_memo():
    """The stand-in memo bounded to two runs of at most three characters."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tokens._standins, "size", 2)
        patch.setattr(tokens._standins, "max_len", 3)
        tokens._standins.clear()
        yield


@settings(max_examples=500, deadline=None)
@given(WORD_TEXT)
@example("")
@example("\u00e9")
@example("a\u00e9 \u00e9!")
@example("\u4e2d\u6587, \u6d4b\u8bd5 ")
@example(" \u3000x\u0301\ud800")
def test_word_count_matches_reference(text):
    expected = reference_word_count(text)
    assert WordRegexTokenizer().count(text) == expected
    with tiny_standin_memo():
        assert WordRegexTokenizer().count(text) == expected
        assert len(tokens._standins) <= 2


def test_standin_memo_bounds(monkeypatch):
    monkeypatch.setattr(tokens._standins, "size", 4)
    monkeypatch.setattr(tokens._standins, "max_len", 5)
    tokens._standins.clear()
    tok = WordRegexTokenizer()
    runs = ["\u00e9", "\u00fc", "\u4e2d\u6587", "\u00e9, ", "\u3000", "\U0001f680 ", "\u00e9" * 5, "\u00e9" * 6, "\u6d4b " * 4]
    for i, run in enumerate(runs * 3):
        text = f"a{run}b {run}{i}"
        assert tok.count(text) == reference_word_count(text)
        assert len(tokens._standins) <= 4
        assert all(len(r) <= 5 for r in tokens._standins)
    # a run over the length bound gets its stand-in and is not kept
    assert "\u00e9" * 6 not in tokens._standins
    assert tok.count("\u00e9" * 6) == 1
    assert "\u00e9" * 6 not in tokens._standins


def test_word_count_matches_reference_on_every_code_point():
    tok = WordRegexTokenizer()
    every = [chr(cp) for cp in range(0x110000)]
    # one long run, then each character alone between word characters
    for sep in ("", "a"):
        text = sep.join(every)
        assert tok.count(text) == reference_word_count(text), repr(sep)


def test_word_count_matches_reference_on_fixtures():
    tok = WordRegexTokenizer()
    paths = sorted(p for p in FIXTURES.rglob("*") if p.is_file())
    assert paths
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert tok.count(text) == reference_word_count(text), path


def test_word_tables_agree_with_the_regex_on_every_ascii_byte():
    for b in range(128):
        # _WORD_RE finds no token in a doubled space, one in a doubled word character, two in a doubled symbol
        n = len(tokens._WORD_RE.findall(chr(b) * 2))
        assert (b in tokens._SYMBOLS) == (n == 2), b
        assert tokens._WORD_TABLE[b] == (ord("w") if n == 1 else ord(" ")), b


def test_byte_count_monotone_under_append():
    tok = ByteCountTokenizer()
    base = "some span"
    for extra in ("", "x", " more text", "é"):
        assert tok.count(base + extra) >= tok.count(base)


def test_golden_toon_fixture_cheaper_than_json():
    tok = ByteCountTokenizer()
    toon = (FIXTURES / "figure3.toon").read_text()
    minimal_json = (FIXTURES / "figure3.json").read_text()
    assert tok.count(toon) < tok.count(minimal_json)


def write_bpe_files(tmp_path, vocab: dict, merges: list[str]):
    vocab_path = tmp_path / "vocab.json"
    merges_path = tmp_path / "merges.txt"
    vocab_path.write_text(json.dumps(vocab))
    merges_path.write_text("\n".join(merges) + "\n")
    return vocab_path, merges_path


def test_bpe_merges_pairs(tmp_path):
    vocab = {"a": 0, "b": 1, "c": 2, "ab": 3, "abc": 4}
    vocab_path, merges_path = write_bpe_files(tmp_path, vocab, ["#version: test", "a b", "ab c"])
    tok = BpeTokenizer.from_files(vocab_path, merges_path)
    assert tok.count("abc") == 1
    assert tok.count("ab") == 1
    assert tok.count("ba") == 2
    assert tok.count("abcabc") == 2
    assert tok.count("") == 0


def test_bpe_unknown_bytes_fall_back(tmp_path):
    vocab = {"a": 0, "b": 1, "ab": 2}
    vocab_path, merges_path = write_bpe_files(tmp_path, vocab, ["a b"])
    tok = BpeTokenizer.from_files(vocab_path, merges_path)
    # 'xyz' has no merges; every byte stands alone
    assert tok.count("xyz") == 3
    # multibyte char splits into its bytes
    assert tok.count("é") == 2


def test_bpe_merge_rank_order(tmp_path):
    # "bc" merges first (lower rank) even though "ab" appears earlier in text
    vocab = {"a": 0, "b": 1, "c": 2, "bc": 3, "ab": 4}
    vocab_path, merges_path = write_bpe_files(tmp_path, vocab, ["b c", "a b"])
    tok = BpeTokenizer.from_files(vocab_path, merges_path)
    assert tok.count("abc") == 2  # a + bc


def test_bpe_equal_ranks_merge_leftmost(tmp_path):
    vocab = {"a": 0, "b": 1, "aa": 2, "aab": 3}
    vocab_path, merges_path = write_bpe_files(tmp_path, vocab, ["a a", "aa b"])
    tok = BpeTokenizer.from_files(vocab_path, merges_path)
    assert tok.count("aaab") == 3  # aa + a + b; merging the right "a a" first would give a + aab


def reference_bpe_count(tok: BpeTokenizer, text: str) -> int:
    return reference_bpe_byte_count(tok, text.encode("utf-8"))


def reference_bpe_byte_count(tok: BpeTokenizer, data: bytes) -> int:
    """The original quadratic loop: rescan for the lowest rank, merge its first occurrence."""
    symbols = [_BYTE_MAP[b] for b in data]
    while len(symbols) > 1:
        best_rank = None
        best_i = -1
        for i in range(len(symbols) - 1):
            rank = tok.ranks.get((symbols[i], symbols[i + 1]))
            if rank is not None and (best_rank is None or rank < best_rank):
                best_rank = rank
                best_i = i
        if best_rank is None:
            break
        symbols = symbols[:best_i] + [symbols[best_i] + symbols[best_i + 1]] + symbols[best_i + 2 :]
    return sum(1 if sym in tok.vocab or len(sym) == 1 else len(sym) for sym in symbols)


# Overlapping and chained merges, a duplicated line (the later rank wins),
# and merged symbols left out of the vocabulary so the byte fallback counts.
ADVERSARIAL_MERGES = [
    ("a", "a"),
    ("b", "c"),
    ("aa", "aa"),
    ("a", "aa"),
    ("aa", "a"),
    ("aa", "b"),
    ("a", "b"),
    ("a", "a"),
    ("bc", "a"),
    ("aaaa", "a"),
    ('"', ":"),
    (",", _BYTE_MAP[ord(" ")]),
]
ADVERSARIAL_VOCAB = {s: i for i, s in enumerate(["a", "b", "c", "aa", "bc", "aaaa", "aab", '":'])}
BPE_TOKENIZERS = {
    "fixture": BpeTokenizer.from_files(FIXTURES / "bpe" / "vocab.json", FIXTURES / "bpe" / "merges.txt"),
    "adversarial": BpeTokenizer(ADVERSARIAL_VOCAB, ADVERSARIAL_MERGES),
}

BPE_CHARS = st.one_of(
    st.sampled_from("aaaabc"),
    st.sampled_from('{}[]":,'),
    st.sampled_from(" \t\n\r"),
    st.characters(max_codepoint=0x7F),
    st.characters(min_codepoint=0x80, exclude_categories=("Cs",)),
)
BPE_TEXT = st.text(BPE_CHARS, max_size=300)


@pytest.mark.parametrize("name", sorted(BPE_TOKENIZERS))
@settings(max_examples=300, deadline=None)
@given(BPE_TEXT)
@example("aaab")
@example("aaaaaaaaa")
@example('{"a": "bca", "aa": [1, 2]}')
def test_bpe_count_matches_reference(name, text):
    tok = BPE_TOKENIZERS[name]
    assert tok.count(text) == reference_bpe_count(tok, text)


# the reference is quadratic, so a longer file is compared window by window
REFERENCE_WINDOW = 2048


def windows(text: str) -> list[str]:
    """Consecutive slices of at most REFERENCE_WINDOW characters that make up text."""
    parts = [text[i : i + REFERENCE_WINDOW] for i in range(0, len(text), REFERENCE_WINDOW)] or [text]
    assert "".join(parts) == text
    return parts


@pytest.mark.parametrize("name", sorted(BPE_TOKENIZERS))
def test_bpe_count_matches_reference_on_fixtures(name):
    tok = BPE_TOKENIZERS[name]
    paths = sorted(p for p in FIXTURES.rglob("*") if p.is_file())
    assert paths
    for path in paths:
        for window in windows(path.read_text(encoding="utf-8")):
            assert tok.count(window) == reference_bpe_count(tok, window), path


def byte_symbols(data: bytes) -> str:
    """The byte-mapped symbol spelling of data."""
    return "".join(_BYTE_MAP[b] for b in data)


def shuffled(merges: list, seed: int) -> list:
    """The merges in a fixed shuffled order, so ranks do not follow the list above."""
    merges = list(merges)
    random.Random(seed).shuffle(merges)
    return merges


# Every pair of these joins, and chained merges join the joined symbols
# across punctuation and whitespace, so a chunk boundary is rare.
_DENSE = [byte_symbols(bytes([b])) for b in b'abc{}[]":, \t\n\r']
DENSE_MERGES = shuffled(
    [(x, y) for x in _DENSE for y in _DENSE]
    + [(byte_symbols(x), byte_symbols(y)) for x, y in [
        (b'"', b": "), (b'",', b' "'), (b"\n ", b"  "), (b"  ", b"  "), (b'{"', b'a"'),
        (b"aa", b'":'), (b'a"', b": "), (b'": ', b"["), (b"],", b"\n"), (b"bc", b"a,"),
    ]],
    seed=1,
)
# Merges whose right side starts with a UTF-8 continuation byte, within
# and across characters: é is C3 A9, 中 is E4 B8 AD, ب is D8 A8 (a lead
# byte the pair codes swap), 😀 is F0 9F 98 80; NUL is the other
# swapped byte.
CONTINUATION_MERGES = [
    (byte_symbols(x), byte_symbols(y))
    for x, y in [
        (b"\xc3", b"\xa9"), (b"\xc3\xa9", b"a"), (b"a", b"\xc3\xa9"), (b"\xa9", b"\xc3"),
        (b"\xe4", b"\xb8"), (b"\xe4\xb8", b"\xad"), (b"\xb8", b"\xad"), (b"\xad", b"\xe4"),
        (b"\xd8", b"\xa8"), (b"\xa8", b"\xd8"), (b"\xd8\xa8", b"\xd8\xa8"),
        (b"\xf0", b"\x9f"), (b"\x9f", b"\x98"), (b"\xf0\x9f", b"\x98\x80"), (b"\x98", b"\x80"),
        (b"\x00", b"a"), (b"a", b"\x00"), (b"\x00", b"\x00"), (b"a", b"a"),
    ]
]
# every byte pair joins, so a span of two or more bytes is one chunk
ALL_PAIRS_MERGES = shuffled([(_BYTE_MAP[a], _BYTE_MAP[b]) for a in range(256) for b in range(256)], seed=2)
# Merges naming a character outside the byte map (or an empty symbol)
# can never apply. Read from their end characters alone, "x\u20acx y" and
# "q z\u20acz" would join the pairs x y and q z.
FOREIGN_MERGES = [("x\u20acx", "y"), ("q", "z\u20acz"), ("q", "\u20acz"), ("\u20ac", "a"), ("", "b"), ("a", "b")]


def every_other_symbol(merges: list) -> dict:
    """A vocabulary holding every other merged symbol, so some fall back to bytes."""
    return {a + b: i for i, (a, b) in enumerate(merges[::2])}


CHUNK_TOKENIZERS = {
    name: BpeTokenizer(every_other_symbol(merges), merges)
    for name, merges in [
        ("dense", DENSE_MERGES),
        ("continuation", CONTINUATION_MERGES),
        ("all_pairs", ALL_PAIRS_MERGES),
        ("foreign", FOREIGN_MERGES),
    ]
}


@pytest.mark.parametrize("name", sorted(CHUNK_TOKENIZERS))
@settings(max_examples=300, deadline=None)
@given(BPE_TEXT)
@example('{"a": "bca", "aa": [1, 2],\n  "c": {"b": "\t"}}\r\n')
@example("aéaé\u00e9a \u4e2d\u4e2d \u0628\u0628\u0628 \U0001f600\U0001f600")
@example("a\x00a\x00\x00\u0628a\u00e9")
@example("xyqzab\u20ac")
def test_bpe_chunked_count_matches_reference(name, text):
    tok = CHUNK_TOKENIZERS[name]
    assert tok.count(text) == reference_bpe_count(tok, text)


def chunk_bytes(run: str) -> bytes:
    """The bytes of the chunk whose pair codes are run: each is its swapped left byte << 8 | its right byte."""
    return bytes([tokens._SWAP[ord(run[0]) >> 8]] + [ord(code) & 0xFF for code in run])


def assert_chunks_count_as_alone(tok: BpeTokenizer):
    """Each chunk in the memo holds the delta the reference gives for that chunk alone."""
    for run, delta in tok._chunks.items():
        data = chunk_bytes(run)
        assert delta == reference_bpe_byte_count(tok, data) - len(data), data


ALL_BPE_TOKENIZERS = {**BPE_TOKENIZERS, **CHUNK_TOKENIZERS}


@pytest.mark.parametrize("name", sorted(ALL_BPE_TOKENIZERS))
@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(BPE_CHARS, max_size=60), min_size=2, max_size=6))
def test_bpe_one_count_merges_each_chunk_as_alone(name, texts):
    """A batch of texts in one count: one heap run over every fresh chunk."""
    tok = ALL_BPE_TOKENIZERS[name]
    tok._chunks.clear()
    tok.count("".join(texts))
    assert_chunks_count_as_alone(tok)


def test_bpe_shared_heap_runs_each_chunk_in_rank_order():
    # merging "a b" makes "ab a", which ranks lower, so it goes next
    tok = BpeTokenizer({"aba": 0}, [("ab", "a"), ("a", "b")])
    # abab is aba + b, ababab is aba + b + ab (two fallback bytes): not ab + ab (+ ab)
    assert tok.count("abab") == reference_bpe_count(tok, "abab") == 2
    tok._chunks.clear()
    assert tok.count("abab ababab") == reference_bpe_count(tok, "abab ababab") == 2 + 1 + 4
    assert sorted(map(chunk_bytes, tok._chunks)) == [b"abab", b"ababab"]
    assert_chunks_count_as_alone(tok)


def test_bpe_fresh_chunks_merge_in_bounded_heap_runs(monkeypatch):
    """Fresh chunks past one heap run's size go on in another; each still counts as alone."""
    monkeypatch.setattr(tokens, "_HEAP_RUN", 16)
    sizes = []
    merge = tokens._merge

    def counted(ranks, symbols):
        # each chunk is spelled as its pair codes, one more byte and a separator
        sizes.append(len(symbols) - 2 * symbols.count(tokens._SEP))
        return merge(ranks, symbols)

    monkeypatch.setattr(tokens, "_merge", counted)
    tok = make_tokenizer("bpe", FIXTURES / "bpe" / "vocab.json", FIXTURES / "bpe" / "merges.txt")
    text = (FIXTURES / "figure3.json").read_text(encoding="utf-8")[:600]
    assert tok.count(text) == reference_bpe_count(tok, text)
    assert len(sizes) > 2
    # a run stops taking chunks once they hold 16 pair codes
    assert max(sizes) <= 15 + max(map(len, tok._chunks))
    assert_chunks_count_as_alone(tok)


def test_bpe_all_pairs_span_is_one_chunk():
    merges = ALL_PAIRS_MERGES
    tok = BpeTokenizer(every_other_symbol(merges), merges)
    text = 'a, "\u00e9\u4e2d": [\x00]\n'
    assert tok.count(text) == reference_bpe_count(tok, text)
    assert [len(run) + 1 for run in tok._chunks] == [len(text.encode("utf-8"))]


def test_bpe_foreign_merge_adds_no_joinable_pair():
    tok = BpeTokenizer({"ab": 0}, FOREIGN_MERGES)
    assert tok.count("xyqzab") == reference_bpe_count(tok, "xyqzab") == 5
    # only "ab" is a chunk: "xy" and "qz" never meet the heap
    assert len(tok._chunks) == 1
    tok._chunks.clear()
    assert tok.count("xy qz xyqz") == 10
    assert not tok._chunks


def test_bpe_memo_is_per_tokenizer():
    paths = (FIXTURES / "bpe" / "vocab.json", FIXTURES / "bpe" / "merges.txt")
    first, second = make_tokenizer("bpe", *paths), make_tokenizer("bpe", *paths)
    assert first._chunks is not second._chunks
    first.count('{"name": "forecast", "args": {"city": "Boulder"}}')
    assert first._chunks
    assert not second._chunks


def test_bpe_memo_bound(monkeypatch):
    paths = (FIXTURES / "bpe" / "vocab.json", FIXTURES / "bpe" / "merges.txt")
    texts = [p.read_text(encoding="utf-8") for p in sorted(FIXTURES.rglob("*")) if p.is_file()]
    unbounded = make_tokenizer("bpe", *paths)
    expected = [unbounded.count(text) for text in texts]
    bound = 8
    assert len(unbounded._chunks) > 4 * bound  # the bounded memo must start over
    tok = make_tokenizer("bpe", *paths)
    monkeypatch.setattr(tok._chunks, "size", bound)
    for text, n in zip(texts, expected):
        assert tok.count(text) == n
        assert len(tok._chunks) <= bound
        for window in windows(text):
            assert tok.count(window) == reference_bpe_count(tok, window)
            assert len(tok._chunks) <= bound


def test_make_tokenizer_refuses_an_unknown_kind():
    with pytest.raises(ValueError) as e:
        make_tokenizer("nope")
    assert str(e.value) == "unknown tokenizer kind: 'nope'"


def test_bpe_load_errors(tmp_path):
    with pytest.raises(VocabLoadError):
        BpeTokenizer.from_files(tmp_path / "missing.json", tmp_path / "missing.txt")
    bad_vocab = tmp_path / "bad.json"
    bad_vocab.write_text("not json")
    merges = tmp_path / "merges.txt"
    merges.write_text("a b\n")
    with pytest.raises(VocabLoadError):
        BpeTokenizer.from_files(bad_vocab, merges)
    ok_vocab = tmp_path / "ok.json"
    ok_vocab.write_text(json.dumps({"a": 0}))
    bad_merges = tmp_path / "bad_merges.txt"
    bad_merges.write_text("a b c\n")
    with pytest.raises(VocabLoadError):
        BpeTokenizer.from_files(ok_vocab, bad_merges)
    with pytest.raises(VocabLoadError):
        make_tokenizer("bpe", None, None)


# JSON booleans are not ids, though Python counts bool as int
@pytest.mark.parametrize("bad_id", [True, 1.0, None, "1", [1], {"a": 1}], ids=repr)
def test_bpe_vocab_ids_must_be_ints(tmp_path, bad_id):
    vocab_path, merges_path = write_bpe_files(tmp_path, {"a": 0, "b": bad_id, "ab": 2}, ["a b"])
    with pytest.raises(VocabLoadError) as e:
        BpeTokenizer.from_files(vocab_path, merges_path)
    assert str(e.value) == "vocabulary must map token strings to integer ids"


def test_bpe_deterministic(tmp_path):
    vocab = {"a": 0, "b": 1, "ab": 2}
    vocab_path, merges_path = write_bpe_files(tmp_path, vocab, ["a b"])
    t1 = BpeTokenizer.from_files(vocab_path, merges_path)
    t2 = BpeTokenizer.from_files(vocab_path, merges_path)
    text = "ababab" * 10
    assert t1.count(text) == t2.count(text)


def test_round_pct_half_away_from_zero():
    assert round_pct(1.25) == 1.3
    assert round_pct(-1.25) == -1.3
    assert round_pct(1.24) == 1.2
    assert round_pct(0.0) == 0.0


def spans_only(spans):
    """A record with no turns that holds ``spans``, as ``decompose`` reads one."""
    return TrajectoryRecord("json", "input_only", [], spans, "final", None)


def test_decompose_empty_trajectory():
    bd = decompose(spans_only([]), ByteCountTokenizer())
    assert bd == TokenBreakdown(0, 0, 0, 0, 0)
    assert bd.total == 0


def test_decompose_rejects_untagged_spans():
    good = Span("y", "other", "prompt", 0)
    for origin, direction, message in [
        ("mystery", "prompt", "span has unknown origin 'mystery'"),
        (["schema"], "prompt", "span has unknown origin ['schema']"),
        (None, "completion", "span has unknown origin None"),
        ("schema", "sideways", "span has unknown direction 'sideways'"),
        ("call", ["prompt"], "span has unknown direction ['prompt']"),
        # the origin is checked first
        ("mystery", "sideways", "span has unknown origin 'mystery'"),
    ]:
        with pytest.raises(UntaggedSpanError, match=f"^{re.escape(message)}$"):
            decompose(spans_only([good, Span("x", origin, direction, 0), good]), ByteCountTokenizer())


def test_decompose_single_turn_components():
    catalog, executor, script = simple_run_pieces()
    record = run_trajectory("find", script, executor, catalog, LoopConfig(format="json"))
    bd = decompose(record, ByteCountTokenizer())
    assert bd.schema_tokens > 0
    assert bd.call_tokens > 0
    assert bd.result_tokens > 0
    assert bd.schema_tokens + bd.call_tokens + bd.result_tokens <= bd.total
    assert bd.total == bd.prompt_tokens + bd.completion_tokens


def test_schema_tokens_shrink_on_tabular_catalog():
    """A catalog whose parameter blocks are table-shaped compresses in TOON."""
    from notation.agent import ScriptTurn, TableExecutor, ToolSchema
    from notation.values import from_python
    from conftest import final_intent

    params = from_python(
        {
            "kind": "object",
            "fields": [
                {"name": "query", "type": "string", "doc": "search terms"},
                {"name": "limit", "type": "integer", "doc": "max results"},
                {"name": "strict", "type": "boolean", "doc": "exact match"},
            ],
        }
    )
    catalog = [ToolSchema("search", "Find documents.", params)]
    script = (ScriptTurn(final_intent()),)
    executor = TableExecutor({})
    tok = ByteCountTokenizer()
    runs = {}
    for fmt in ("json", "toon"):
        record = run_trajectory("t", script, executor, catalog, LoopConfig(format=fmt))
        runs[fmt] = decompose(record, tok)
    assert runs["toon"].schema_tokens < runs["json"].schema_tokens


def test_delta_vs_self_is_zero():
    catalog, executor, script = simple_run_pieces()
    record = run_trajectory("find", script, executor, catalog, LoopConfig(format="json"))
    bd = decompose(record, ByteCountTokenizer())
    deltas = delta_vs_baseline(bd, bd)
    assert all(v == 0.0 for v in deltas.values())


def test_delta_arithmetic():
    base = TokenBreakdown(10, 10, 10, 70, 30)
    x = TokenBreakdown(5, 10, 10, 50, 23)
    deltas = delta_vs_baseline(x, base)
    assert deltas["schema_tokens"] == -50.0
    assert deltas["total"] == -27.0  # 100 -> 73


def test_breakdown_record_contract():
    bd = TokenBreakdown(1, 2, 3, 40, 5)
    assert repr(bd) == (
        "TokenBreakdown(schema_tokens=1, call_tokens=2, result_tokens=3, prompt_tokens=40, completion_tokens=5)"
    )
    check_record(lambda: TokenBreakdown(1, 2, 3, 40, 5), TokenBreakdown(1, 2, 3, 40, 6), "completion_tokens")
    assert bd.total == 45
    assert bd.as_dict() == {
        "schema_tokens": 1,
        "call_tokens": 2,
        "result_tokens": 3,
        "prompt_tokens": 40,
        "completion_tokens": 5,
        "total": 45,
    }
    assert list(bd.as_dict()) == list(tokens.COMPONENTS)
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'completion_tokens'"):
        TokenBreakdown(1, 2, 3, 4)


def test_delta_zero_baseline_is_na():
    base = TokenBreakdown(0, 10, 10, 50, 30)
    x = TokenBreakdown(5, 10, 10, 50, 30)
    deltas = delta_vs_baseline(x, base)
    assert deltas["schema_tokens"] is None
    assert deltas["total"] == 0.0


def test_pct_delta_and_mean_pct():
    assert pct_delta(5, 0) is None
    assert pct_delta(0, 0) is None
    assert pct_delta(0, 4) == -100.0
    assert pct_delta(73, 100) == -27.0
    assert pct_delta(1, 3) == -66.7  # rounded half away from zero
    assert mean_pct([None, None]) is None
    assert mean_pct([]) is None
    assert mean_pct([10.0, None, -4.5]) == 2.8


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=200))
def test_tokenizers_deterministic(text):
    for tok in (ByteCountTokenizer(), WordRegexTokenizer()):
        assert tok.count(text) == tok.count(text)
        assert tok.count(text) >= 0
