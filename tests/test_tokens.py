import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from notation.agent import LoopConfig, run_trajectory
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
from notation.agent import Span

from conftest import FIXTURES, simple_run_pieces


def test_empty_counts_zero():
    for tok in (ByteCountTokenizer(), WordRegexTokenizer()):
        assert tok.count("") == 0


def test_byte_count_is_utf8_length():
    tok = ByteCountTokenizer()
    assert tok.count("abc") == 3
    assert tok.count("café") == 5
    assert tok.count("✓") == 3


def test_word_regex_counting():
    tok = WordRegexTokenizer()
    assert tok.count("hello world") == 2
    assert tok.count('{"a":1}') == 7  # { " a " : 1 } each symbol separate, spaces free
    assert tok.count("a,b,c") == 5


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
    """The original quadratic loop: rescan for the lowest rank, merge its first occurrence."""
    symbols = [_BYTE_MAP[b] for b in text.encode("utf-8")]
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

BPE_TEXT = st.text(
    st.one_of(
        st.sampled_from("aaaabc"),
        st.sampled_from('{}[]":,'),
        st.sampled_from(" \t\n\r"),
        st.characters(max_codepoint=0x7F),
        st.characters(min_codepoint=0x80, exclude_categories=("Cs",)),
    ),
    max_size=300,
)


@pytest.mark.parametrize("name", sorted(BPE_TOKENIZERS))
@settings(max_examples=300, deadline=None)
@given(BPE_TEXT)
@example("aaab")
@example("aaaaaaaaa")
@example('{"a": "bca", "aa": [1, 2]}')
def test_bpe_count_matches_reference(name, text):
    tok = BPE_TOKENIZERS[name]
    assert tok.count(text) == reference_bpe_count(tok, text)


@pytest.mark.parametrize("name", sorted(BPE_TOKENIZERS))
def test_bpe_count_matches_reference_on_fixtures(name):
    tok = BPE_TOKENIZERS[name]
    paths = sorted(p for p in FIXTURES.rglob("*") if p.is_file())
    assert paths
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert tok.count(text) == reference_bpe_count(tok, text), path


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


def test_decompose_empty_trajectory():
    bd = decompose([], ByteCountTokenizer())
    assert bd == TokenBreakdown(0, 0, 0, 0, 0)
    assert bd.total == 0


def test_decompose_rejects_untagged_spans():
    with pytest.raises(UntaggedSpanError):
        decompose([Span("x", "mystery", "prompt", 0)], ByteCountTokenizer())
    with pytest.raises(UntaggedSpanError):
        decompose([Span("x", "schema", "sideways", 0)], ByteCountTokenizer())


def test_decompose_single_turn_components():
    catalog, executor, agent = simple_run_pieces()
    record = run_trajectory("find", agent, executor, catalog, LoopConfig(format="json"))
    bd = decompose(record, ByteCountTokenizer())
    assert bd.schema_tokens > 0
    assert bd.call_tokens > 0
    assert bd.result_tokens > 0
    assert bd.schema_tokens + bd.call_tokens + bd.result_tokens <= bd.total
    assert bd.total == bd.prompt_tokens + bd.completion_tokens


def test_schema_tokens_shrink_on_tabular_catalog():
    """A catalog whose parameter blocks are table-shaped compresses in TOON."""
    from notation.agent import ScriptedAgent, ScriptTurn, TableExecutor, ToolSchema
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
    agent = ScriptedAgent([ScriptTurn(final_intent())])
    executor = TableExecutor({})
    tok = ByteCountTokenizer()
    runs = {}
    for fmt in ("json", "toon"):
        record = run_trajectory("t", agent, executor, catalog, LoopConfig(format=fmt))
        runs[fmt] = decompose(record, tok)
    assert runs["toon"].schema_tokens < runs["json"].schema_tokens


def test_delta_vs_self_is_zero():
    catalog, executor, agent = simple_run_pieces()
    record = run_trajectory("find", agent, executor, catalog, LoopConfig(format="json"))
    bd = decompose(record, ByteCountTokenizer())
    report = delta_vs_baseline(bd, bd)
    assert all(v == 0.0 for v in report.deltas.values())


def test_delta_arithmetic():
    base = TokenBreakdown(10, 10, 10, 70, 30)
    x = TokenBreakdown(5, 10, 10, 50, 23)
    report = delta_vs_baseline(x, base)
    assert report.deltas["schema_tokens"] == -50.0
    assert report.deltas["total"] == -27.0  # 100 -> 73


def test_delta_zero_baseline_is_na():
    base = TokenBreakdown(0, 10, 10, 50, 30)
    x = TokenBreakdown(5, 10, 10, 50, 30)
    report = delta_vs_baseline(x, base)
    assert report.deltas["schema_tokens"] is None
    assert report.deltas["total"] == 0.0


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
