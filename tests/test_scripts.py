"""The scripts under scripts/ run end to end, each in its own interpreter."""

import subprocess
import sys

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
