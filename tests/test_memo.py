"""Every bounded memo in the package, under tiny bounds: same outputs, bounds kept."""

import pytest

from notation import agent as agent_mod
from notation import tokens, toon_codec
from notation._memo import Memo
from notation.agent import MUTATOR_KINDS, LoopConfig, build_system_prompt_spans, corrupt_text, parse_envelope_outcome
from notation.formats import FORMATS, encode_doc
from notation.tokens import WordRegexTokenizer, make_tokenizer
from notation.toon_codec import encode_toon
from notation.values import DEFAULT_PROFILE, DELIMITER_PROFILE, TABULAR_PROFILE, from_python, generate

from conftest import FIXTURES, make_catalog
from test_encoders import reference_toon
from test_tokens import reference_bpe_count, reference_word_count, windows


BPE = make_tokenizer("bpe", FIXTURES / "bpe" / "vocab.json", FIXTURES / "bpe" / "merges.txt")
PROMPT_SPANS = agent_mod._prompt_spans
PARSE = agent_mod._parse_envelope


def toon_steps():
    for seed in range(40):
        for profile in (DEFAULT_PROFILE, DELIMITER_PROFILE, TABULAR_PROFILE):
            v = generate(seed, profile)
            yield encode_toon(v), reference_toon(v)


def word_steps():
    tok = WordRegexTokenizer()
    runs = ["\u00e9", "\u00fc", "\u4e2d\u6587", "\u00e9, ", "\u3000", "\U0001f680 ", "\u00e9" * 5, "\u6d4b " * 4]
    texts = [p.read_text(encoding="utf-8") for p in sorted((FIXTURES / "measure_mixed").iterdir())]
    texts += [f"a{run}b {run}{i}" for i, run in enumerate(runs * 3)]
    for text in texts:
        yield tok.count(text), reference_word_count(text)


def bpe_steps():
    for path in sorted((FIXTURES / "replay").iterdir()) + sorted((FIXTURES / "measure_mixed").iterdir()):
        for window in windows(path.read_text(encoding="utf-8")):
            yield BPE.count(window), reference_bpe_count(BPE, window)


def doc_steps():
    values = [from_python({"id": i, "rows": [{"n": i, "s": "x" * (i % 7)}]}) for i in range(12)]
    for i in range(90):
        v, fmt = values[i * 7 % len(values)], FORMATS[i % len(FORMATS)]
        yield agent_mod._render_doc(v, fmt), encode_doc(v, fmt)


def prompt_steps():
    base = make_catalog(2)
    catalogs = [[s._replace(description=f"d{i}") for s in base] for i in range(5)]
    for i in range(40):
        catalog, cfg = catalogs[i * 3 % len(catalogs)], LoopConfig(format=FORMATS[i % len(FORMATS)])
        expected = list(PROMPT_SPANS(tuple(catalog), cfg.format, cfg.output_format))
        yield build_system_prompt_spans(catalog, cfg), expected


def parse_view(outcome):
    failure = outcome.failure and (outcome.failure.stage, outcome.failure.detail)
    return outcome.envelope, failure, outcome.document


def parse_steps():
    intents = [
        from_python({"final_answer": "ok"}),
        from_python({"thought": "t", "action": "a", "arguments": {}}),
        from_python({"thought": "t" * 40, "action": "a", "arguments": {"n": 1}}),
        from_python({"action": "a"}),
    ]
    emissions = []
    for fmt in FORMATS:
        for v in intents:
            doc = encode_doc(v, fmt)
            emissions += [(doc, fmt), (f"```{fmt}\n{doc}\n```", fmt), (f"<think>hm</think>{doc}", fmt), ("<think>" + doc, fmt)]
            emissions += [(corrupt_text(doc, kind), fmt) for kind in MUTATOR_KINDS]
            emissions.append((doc, FORMATS[FORMATS.index(fmt) - 1]))
    # keys both over and under the tiny bound, each met several times
    assert {len(f"{fmt}\n{raw}") > 40 for raw, fmt in emissions} == {True, False}
    for i in range(4 * len(emissions)):
        raw, fmt = emissions[i // 2 * 7 % len(emissions)]  # each twice in a row
        yield parse_view(parse_envelope_outcome(raw, fmt)), parse_view(PARSE(raw, fmt))


# Each way to see a miss calls on_miss(key) where the memoized work runs.
def count_fn(monkeypatch, memo, on_miss):
    fn = memo.fn

    def counted(key):
        on_miss(key)
        return fn(key)

    monkeypatch.setattr(memo, "fn", counted)


def count_chunk_merges(monkeypatch, memo, on_miss):
    deltas = BPE._deltas

    def counted(runs):
        for run in runs:
            on_miss(run)
        return deltas(runs)

    monkeypatch.setattr(BPE, "_deltas", counted)


def count_doc_renders(monkeypatch, memo, on_miss):
    def counted(v, fmt):
        on_miss((id(v), fmt))
        return encode_doc(v, fmt)

    monkeypatch.setattr(agent_mod, "encode_doc", counted)


def count_prompt_builds(monkeypatch, memo, on_miss):
    def counted(catalog, fmt, out_fmt):
        on_miss((tuple(map(id, catalog)), fmt, out_fmt))
        return PROMPT_SPANS(catalog, fmt, out_fmt)

    monkeypatch.setattr(agent_mod, "_prompt_spans", counted)


def count_parses(monkeypatch, memo, on_miss):
    def counted(raw, fmt):
        on_miss(f"{fmt}\n{raw}")
        return PARSE(raw, fmt)

    monkeypatch.setattr(agent_mod, "_parse_envelope", counted)


# name: (the memo, tiny size, tiny max_len, how to see a miss, (output, reference) pairs)
MEMOS = {
    "toon scalar": (lambda: toon_codec._scalar_text, 8, 6, count_fn, toon_steps),
    "toon key": (lambda: toon_codec._key_text, 8, 6, count_fn, toon_steps),
    "word standin": (lambda: tokens._standins, 2, 3, count_fn, word_steps),
    "bpe chunk": (lambda: BPE._chunks, 8, None, count_chunk_merges, bpe_steps),
    "agent doc": (lambda: agent_mod._doc_memo, 4, None, count_doc_renders, doc_steps),
    "agent prompt": (lambda: agent_mod._prompt_memo, 2, None, count_prompt_builds, prompt_steps),
    "agent parse": (lambda: agent_mod._parse_memo, 4, 40, count_parses, parse_steps),
}


@pytest.mark.parametrize("name", MEMOS)
def test_memo_under_tiny_bounds(monkeypatch, name):
    get_memo, size, max_len, count_misses, steps = MEMOS[name]
    memo = get_memo()
    assert type(memo) is Memo
    monkeypatch.setattr(memo, "size", size)
    monkeypatch.setattr(memo, "max_len", max_len)
    since_clear = set()  # the keys kept since the memo last started over
    clears = misses = 0

    def clear(self):
        nonlocal clears
        if self is memo:
            since_clear.clear()
            clears += 1
        dict.clear(self)

    def on_miss(key):
        nonlocal misses
        misses += 1
        if max_len is None or len(key) <= max_len:
            assert key not in since_clear, key  # the work runs once per key between clears
            since_clear.add(key)

    monkeypatch.setattr(Memo, "clear", clear)
    count_misses(monkeypatch, memo, on_miss)
    memo.clear()
    clears = 0
    for got, expected in steps():
        assert got == expected
        assert len(memo) <= size
        assert max_len is None or all(len(key) <= max_len for key in memo)
    # the tiny bound was reached, so the memo started over at least once
    assert clears > 0 and misses > size
    memo.clear()
