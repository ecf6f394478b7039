"""Shared fixtures: golden file paths, the sample document, replay pieces."""

from __future__ import annotations

import copy
import pickle
from pathlib import Path

import pytest

from notation import tron_codec
from notation.agent import ScriptTurn, TableExecutor, ToolSchema
from notation.values import from_python

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def sample_document():
    """The hikes sample document used by the golden encodings."""
    return from_python(
        {
            "context": {
                "task": "Our favorite hikes",
                "location": "Boulder",
                "season": "spring_2025",
            },
            "friends": ["ana", "luis", "sam"],
            "hikes": [
                {"id": 1, "name": "Blue Lake Trail", "distanceKm": 7.5},
                {"id": 2, "name": "Ridge Overlook", "distanceKm": 9.2},
                {"id": 3, "name": "Wildflower Loop", "distanceKm": 5.1},
            ],
        }
    )


def tron_classing_singletons(v) -> str:
    """v in TRON with every classable shape classed, a shape met once too: the backfire regime's text."""
    index: dict = {}
    for sig in tron_codec._census([v]):
        if tron_codec._classable(sig):
            index[sig] = tron_codec._class_name_for(len(index))
    return tron_codec._render(index, [v])


def check_record(make, other, field: str, *, picklable: bool = True) -> None:
    """The value-record contract, for a record that ``make()`` builds afresh.

    Two builds are equal and hash alike, ``other`` (a record with a
    different ``field``) is not equal, assigning an attribute raises
    ``AttributeError``, and ``copy`` gives back an equal record, as do
    ``deepcopy`` and ``pickle`` when the record holds no module.
    """
    a, b = make(), make()
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert a != other
    for name in (field, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(other, field))
    assert a == b
    assert copy.copy(a) == a
    if picklable:
        assert copy.deepcopy(a) == a
        assert pickle.loads(pickle.dumps(a)) == a


@pytest.fixture()
def sample_value():
    return sample_document()


def make_catalog(n: int = 1) -> list[ToolSchema]:
    """n structurally similar tool schemas (shared parameter shapes)."""
    out = []
    for i in range(n):
        params = from_python(
            {
                "type": "object",
                "properties": {
                    f"arg{i}": {"type": "string", "description": f"primary input {i}"},
                    "limit": {"type": "integer", "description": "max results"},
                },
            }
        )
        out.append(ToolSchema(f"tool{i}", f"Utility number {i} in the demo catalog.", params))
    return out


def step_intent(action: str, args: dict, thought: str = "use a tool"):
    return from_python({"thought": thought, "action": action, "arguments": args})


def final_intent(answer: str = "done"):
    return from_python({"final_answer": answer})


def simple_run_pieces():
    """One-step-one-final script with a matching catalog and executor."""
    catalog = make_catalog(1)
    args = {"arg0": "hikes", "limit": 3}
    result = from_python({"rows": [{"id": 1, "name": "a"}, {"id": 2, "name": "b"}]})
    executor = TableExecutor({("tool0", from_python(args)): result})
    script = (ScriptTurn(step_intent("tool0", args)), ScriptTurn(final_intent("two rows")))
    return catalog, executor, script
