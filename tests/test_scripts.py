"""The scripts under scripts/ run end to end, each in its own interpreter."""

import json
import shutil
import subprocess
import sys

import pytest

from notation.tokens import BpeTokenizer

from conftest import FIXTURES, REPO_ROOT

SCRIPTS = REPO_ROOT / "scripts"


def run_script(name, *args, cwd):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_build_demo_corpus(tmp_path):
    done = run_script("build_demo_corpus.py", tmp_path / "demo", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    for corpus in ("shared", "singleton"):
        assert len(list((tmp_path / "demo" / corpus).glob("*.json"))) == 8
        assert (tmp_path / "demo" / f"{corpus}_report.json").is_file()


def test_train_bpe_output_loads(tmp_path):
    done = run_script("train_bpe.py", FIXTURES, tmp_path / "bpe", 20, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    tok = BpeTokenizer.from_files(tmp_path / "bpe" / "vocab.json", tmp_path / "bpe" / "merges.txt")
    assert len(tok.ranks) == 20
    text = (FIXTURES / "figure3.json").read_text(encoding="utf-8")
    assert 0 < tok.count(text) < len(text.encode("utf-8"))


def test_cascade_sweep(tmp_path):
    done = run_script("cascade_sweep.py", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    rows = done.stdout.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["toon"] * 4 + ["tron"] * 4
    assert done.stdout == (FIXTURES / "cascade_sweep_golden.txt").read_text(encoding="utf-8")


def test_gc_census(tmp_path):
    done = run_script("gc_census.py", "--workload", "codec-roundtrip", "--seed", 7, "--passes", 2, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "gc_census: codec-roundtrip seed 7, 8 ops a pass, 2 passes"
    assert lines[1].split() == ["pass", "gen0", "gen1", "gen2", "gc_ms", "collected", "op_ms"]
    assert [line.split()[0] for line in lines[2:5]] == ["1", "2", "mean"]
    result = json.loads(lines[-1])
    assert (result["pool"], result["failed"]) == (8, 0)
    assert len(result["passes"]) == 2
    # a round trip's trees hold no cycle, so the collector finds nothing in them
    assert all(p["collected"] == 0 and p["op_ms"] > 0 for p in result["passes"])
    done = run_script("gc_census.py", "--workload", "codec-roundtrip", "--seed", 7, "--src", tmp_path, cwd=tmp_path)
    assert done.returncode == 2
    assert "no notation package under" in done.stderr


def copy_src(tmp_path):
    dest = tmp_path / "other" / "src"
    shutil.copytree(REPO_ROOT / "src", dest, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dest


def test_diff_codecs_finds_no_difference_in_a_copy(tmp_path):
    other = copy_src(tmp_path)
    done = run_script("diff_codecs.py", "--against", other.parent, "--cases", 400, cwd=tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    summary = done.stdout.splitlines()[-1]
    assert summary.startswith("diff_codecs: 400 cases (seed 0)")
    assert " 0 differences " in summary
    done = run_script("diff_codecs.py", "--against", "no-such-revision", "--cases", 1, cwd=tmp_path)
    assert done.returncode == 2
    assert "neither a source directory nor a revision" in done.stderr


# (module, text planted over, planted text, what the report must name)
PLANTS = [
    ("json_codec.py", '"expected string key"', '"expected a key"', ["expected a key at position"]),
    # a key that starts with '-' written bare reads back as a list item
    ("toon_codec.py", r"(?![\s-])", r"(?!\s)", ["  encode_toon\n", "  decode(toon)\n"]),
]


@pytest.mark.parametrize("module,old,new,named", PLANTS, ids=["error message", "toon quoting"])
def test_diff_codecs_names_a_planted_change(tmp_path, module, old, new, named):
    other = copy_src(tmp_path)
    path = other / "notation" / module
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1
    path.write_text(text.replace(old, new), encoding="utf-8")
    done = run_script("diff_codecs.py", "--against", other, "--cases", 400, cwd=tmp_path)
    assert done.returncode == 1, done.stdout + done.stderr
    assert " 0 differences " not in done.stdout.splitlines()[-1]
    for name in named:
        assert name in done.stdout
