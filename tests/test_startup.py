"""Start-up contract: what ``import notation`` and each command load, and the package API.

Each load check runs in a fresh interpreter, since this process has
imported everything already.
"""

import json
import os
import subprocess
import sys

import pytest

import notation

from conftest import FIXTURES, REPO_ROOT

# every name ``from notation import *`` bound when the package loaded all its modules eagerly
EXPORTS = {
    "values": ["Array", "Bool", "GenProfile", "Null", "Number", "Object", "Text", "Value", "from_python", "generate"],
    "json_codec": ["JsonStyle", "decode_json", "encode_json"],
    "toon_codec": ["classify_array", "decode_toon", "encode_toon"],
    "tron_codec": [
        "ClassDef",
        "ClassTable",
        "decode_tron",
        "decode_tron_batch",
        "encode_tron",
        "encode_tron_batch",
        "extract_classes",
    ],
    "tokens": [
        "BpeTokenizer",
        "ByteCountTokenizer",
        "TokenBreakdown",
        "Tokenizer",
        "WordRegexTokenizer",
        "decompose",
        "delta_vs_baseline",
        "make_tokenizer",
    ],
    "agent": [
        "Envelope",
        "Final",
        "LoopConfig",
        "ParseFailure",
        "ScriptTurn",
        "ScriptedAgent",
        "Span",
        "Step",
        "TableExecutor",
        "ToolSchema",
        "TrajectoryRecord",
        "run_trajectory",
    ],
}
SUBMODULES = ["agent", "errors", "formats", "json_codec", "tokens", "toon_codec", "tron_codec", "values"]
ALL_NAMES = sorted(SUBMODULES + [name for names in EXPORTS.values() for name in names])

REPLAY = [
    "replay",
    "--trace",
    str(FIXTURES / "replay" / "trace_weather.jsonl"),
    "--catalog",
    str(FIXTURES / "replay" / "catalog_weather.json"),
    "--executor",
    str(FIXTURES / "replay" / "executor_weather.json"),
]


def fresh(code: str):
    """Run ``code`` in a new interpreter on ``src/``; the JSON it prints last, decoded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.startswith('notation'))))"


def test_import_notation_loads_only_the_model_and_codecs():
    loaded = fresh("import notation; " + LOADED)
    assert "notation.agent" not in loaded
    assert "notation.tokens" not in loaded
    assert {"notation.values", "notation.json_codec", "notation.toon_codec", "notation.tron_codec"} <= set(loaded)


@pytest.mark.parametrize(
    "call",
    [
        "pass",
        "cli.main(['measure', 'fixtures/replay', '--tokenizer', 'words'])",
        "cli.main(['convert', 'fixtures/figure3.json', '--to', 'toon'])",
        "cli.main(['roundtrip', '--count', '20'])",
    ],
    ids=["import", "measure", "convert", "roundtrip"],
)
def test_cli_commands_do_not_load_the_replay_harness(call):
    loaded = fresh(f"from notation import cli; {call}; " + LOADED)
    assert "notation.cli" in loaded
    assert "notation.agent" not in loaded


def test_replay_loads_the_harness_and_succeeds():
    loaded = fresh(f"from notation import cli; assert cli.main({REPLAY!r}) == 0; " + LOADED)
    assert "notation.agent" in loaded


def test_every_export_is_its_submodules_object():
    same = fresh(
        "import importlib, json, notation; "
        f"exports = {EXPORTS!r}; "
        "print(json.dumps({name: getattr(notation, name) is getattr(importlib.import_module('notation.' + mod), name)"
        " for mod, names in exports.items() for name in names}))"
    )
    assert same == dict.fromkeys(same, True)
    assert sorted(same) == sorted(n for names in EXPORTS.values() for n in names)
    for mod in SUBMODULES:
        assert getattr(notation, mod) is sys.modules[f"notation.{mod}"]


def test_star_import_binds_every_export():
    bound = fresh("import json; from notation import *; print(json.dumps(sorted(n for n in dir() if n[0] != '_')))")
    assert set(ALL_NAMES) <= set(bound)
    assert set(ALL_NAMES) <= set(notation.__all__)
    assert set(ALL_NAMES) <= set(dir(notation))


def test_unknown_attribute_names_itself():
    with pytest.raises(AttributeError, match="no_such_name"):
        notation.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from notation import no_such_name  # noqa: F401
