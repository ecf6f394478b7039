"""The format table's contract: every codec call goes through the codec module.

The table holds each format's module, not its functions, so a function
swapped on the module (here a counting wrapper; in the benchmark's traced
run a timing wrapper) sees every call the program makes.
"""

import shutil
from collections import Counter

import pytest

from notation import agent as agent_mod
from notation import json_codec, toon_codec, tron_codec
from notation.agent import LoopConfig, build_system_prompt_spans
from notation.cli import main
from notation.formats import REGISTRY, Format, encode_batch, encode_corpus, encode_doc, lookup

from conftest import FIXTURES, check_record, make_catalog, sample_document


def count_calls(monkeypatch, module, name: str, counts: Counter) -> None:
    real = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_functions_swapped_on_codec_modules_see_every_call(tmp_path, monkeypatch, capsys):
    counts = Counter()
    count_calls(monkeypatch, toon_codec, "encode_toon", counts)
    count_calls(monkeypatch, tron_codec, "encode_tron_batch", counts)
    count_calls(monkeypatch, tron_codec, "encode_tron_corpus", counts)
    doc = sample_document()

    encode_doc(doc, "toon")
    encode_batch([doc, doc], "tron")
    assert counts == {"encode_toon": 1, "encode_tron_batch": 1}

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("figure3.json", "replay/catalog_weather.json", "replay/executor_weather.json"):
        shutil.copy(FIXTURES / name, corpus)
    # measure makes each file's TRON text and the batch's in one encode_tron_corpus call
    assert main(["measure", str(corpus), "--batch"]) == 0
    assert counts == {"encode_toon": 1 + 3, "encode_tron_batch": 1, "encode_tron_corpus": 1}

    assert main(["roundtrip", "--count", "10"]) == 0
    assert counts == {"encode_toon": 4 + 10, "encode_tron_batch": 1 + 2, "encode_tron_corpus": 1}

    agent_mod._prompt_memo.clear()
    catalog = make_catalog(3)
    build_system_prompt_spans(catalog, LoopConfig(format="tron"))
    build_system_prompt_spans(catalog, LoopConfig(format="toon", mode="full"))
    # a TOON prompt encodes each schema and the two response templates
    assert counts == {"encode_toon": 14 + 3 + 2, "encode_tron_batch": 3 + 1, "encode_tron_corpus": 1}
    capsys.readouterr()


def test_format_record_contract():
    # the codec functions are named after the entry, and a batched entry has the batch pair too
    for entry in REGISTRY.values():
        names = [f"{op}_{entry.name}" for op in ("encode", "decode")]
        if entry.batched:
            names += [f"{name}_batch" for name in names] + [f"encode_{entry.name}_corpus"]
        for name in names:
            assert callable(getattr(entry.codec, name)), name
    f = REGISTRY["tron"]
    assert repr(f) == f"Format(name='tron', codec={tron_codec!r}, note={f.note!r}, wraps_root=False, keeps_indent=False, batched=True)"

    def make():
        return Format("toon", toon_codec, "note", wraps_root=True)

    check_record(make, Format("toon", toon_codec, "note"), "wraps_root", picklable=False)
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'note'"):
        Format("json", json_codec)


def test_corpus_texts_are_the_document_and_batch_texts():
    values = [sample_document(), sample_document()]
    for fmt, entry in REGISTRY.items():
        docs = [encode_doc(v, fmt) for v in values]
        assert encode_corpus(values, fmt, False) == (docs, None)
        assert encode_corpus(values, fmt, True) == (docs, encode_batch(values, fmt) if entry.batched else None)


def test_lookup_refuses_an_unknown_format():
    with pytest.raises(ValueError) as e:
        lookup("yaml")
    assert str(e.value) == "unknown format 'yaml'"
