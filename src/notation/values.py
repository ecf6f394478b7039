"""Format-neutral document tree shared by every codec.

A document is an immutable tree of Null / Bool / Number / Text / Array /
Object nodes. Numbers keep their exact decimal literal so "7.5" and "7"
survive any encode/decode chain byte-for-byte. Objects preserve key
insertion order and forbid duplicate keys.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

__all__ = [
    "Value",
    "Null",
    "Bool",
    "Number",
    "Text",
    "Array",
    "Object",
    "NULL",
    "StructSignature",
    "signature",
    "is_scalar",
    "from_python",
    "to_python",
    "GenProfile",
    "DEFAULT_PROFILE",
    "DELIMITER_PROFILE",
    "TABULAR_PROFILE",
    "generate",
]

# Decimal literal grammar: sign, digits, optional fraction, optional exponent.
NUMBER_LITERAL_RE = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?\Z")


class Value:
    """Base class for document tree nodes."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Null(Value):
    def __repr__(self) -> str:
        return "Null()"


NULL = Null()


@dataclass(frozen=True, slots=True)
class Bool(Value):
    value: bool


@dataclass(frozen=True, slots=True)
class Number(Value):
    """A number stored as its exact decimal literal, never a binary float."""

    literal: str

    def __post_init__(self) -> None:
        if not NUMBER_LITERAL_RE.match(self.literal):
            raise ValueError(f"invalid number literal: {self.literal!r}")

    @property
    def is_integer(self) -> bool:
        return "." not in self.literal and "e" not in self.literal and "E" not in self.literal


@dataclass(frozen=True, slots=True)
class Text(Value):
    value: str


@dataclass(frozen=True, slots=True)
class Array(Value):
    items: tuple[Value, ...]

    def __init__(self, items=()):
        object.__setattr__(self, "items", tuple(items))

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True, slots=True)
class Object(Value):
    """Ordered key/value pairs; duplicate keys are rejected at construction."""

    pairs: tuple[tuple[str, Value], ...]

    def __init__(self, pairs=()):
        if isinstance(pairs, dict):
            pairs = pairs.items()
        pairs = tuple((k, v) for k, v in pairs)
        seen = set()
        for k, _ in pairs:
            if k in seen:
                raise ValueError(f"duplicate object key: {k!r}")
            seen.add(k)
        object.__setattr__(self, "pairs", pairs)

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple([k for k, _ in self.pairs])

    def get(self, key: str) -> Value | None:
        for k, v in self.pairs:
            if k == key:
                return v
        return None

    def __len__(self) -> int:
        return len(self.pairs)


StructSignature = tuple[str, ...]


def signature(v: Value) -> StructSignature | None:
    """Ordered key sequence of an object; None for anything else."""
    if isinstance(v, Object):
        return v.keys
    return None


def is_scalar(v: Value) -> bool:
    return isinstance(v, (Null, Bool, Number, Text))


def _trusted(cls, field):
    """A ``Number``, ``Array`` or ``Object`` holding ``field`` as given, unchecked.

    For decoders only, which have already made the constructor's checks: a
    number literal matches the grammar, object keys are distinct, and items
    or pairs come as a tuple.
    """
    node = object.__new__(cls)
    object.__setattr__(node, cls.__slots__[0], field)
    return node


def from_python(obj) -> Value:
    """Build a Value from plain Python data (dict/list/str/int/float/bool/None)."""
    if obj is None:
        return NULL
    if isinstance(obj, Value):
        return obj
    if isinstance(obj, bool):
        return Bool(obj)
    if isinstance(obj, int):
        return Number(str(obj))
    if isinstance(obj, float):
        literal = repr(obj)
        if literal in ("inf", "-inf", "nan"):
            raise ValueError(f"non-finite float not representable: {obj!r}")
        return Number(literal)
    if isinstance(obj, str):
        return Text(obj)
    if isinstance(obj, dict):
        return Object((str(k), from_python(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return Array(from_python(x) for x in obj)
    raise TypeError(f"cannot convert {type(obj).__name__} to Value")


def to_python(v: Value):
    """Collapse a Value to plain Python data; numbers become int or float."""
    if isinstance(v, Null):
        return None
    if isinstance(v, Bool):
        return v.value
    if isinstance(v, Number):
        return int(v.literal) if v.is_integer else float(v.literal)
    if isinstance(v, Text):
        return v.value
    if isinstance(v, Array):
        return [to_python(x) for x in v.items]
    if isinstance(v, Object):
        return {k: to_python(x) for k, x in v.pairs}
    raise TypeError(f"not a Value: {v!r}")


# ---------------------------------------------------------------------------
# Deterministic corpus generator for property tests.

# Strings that stress every structural character of the three grammars.
DELIMITER_STRINGS = (
    "",
    " ",
    "plain",
    "two words",
    "a,b",
    "x: y",
    'say "hi"',
    "f(1)",
    "(parens)",
    "line\nbreak",
    "cr\rhere",
    "tab\there",
    "back\\slash",
    "07",
    "007 agent",
    "3.14",
    "-5",
    "1e3",
    "true",
    "false",
    "null",
    "[0]",
    "{brace}",
    "}close",
    "]close",
    "- dash",
    "trailing ",
    " leading",
    "comma,",
    ":colon",
    "A(1)",
    "class A: x",
    "café ✓",
)

DELIMITER_KEYS = (
    "plain",
    "with space",
    "a,b",
    "x: y",
    "07",
    "",
    "value",
    "class",
    "a[0]",
    "{k}",
    "}k",
    "]k",
    "dash-",
    'quo"te',
    "new\nline",
    " pad ",
    "-x",
    "--dry-run",
)

SAFE_WORDS = ("id", "name", "size", "alpha", "beta", "gamma", "delta", "note", "kind", "flag")

SHORT_CELLS = ("a", "bb", "ccc", "x1", "y2", "ok", "no", "up", "down", "7a")


@dataclass(frozen=True)
class GenProfile:
    """Bounds and string pools for the deterministic generator."""

    max_depth: int = 4
    max_array_len: int = 8
    max_object_keys: int = 5
    max_key_len: int = 12
    string_pool: tuple[str, ...] = DELIMITER_STRINGS
    key_pool: tuple[str, ...] = SAFE_WORDS
    tabular: bool = False
    min_rows: int = 3
    max_rows: int = 8
    min_cols: int = 2
    max_cols: int = 5
    cell_pool: tuple[str, ...] = SHORT_CELLS

    def __post_init__(self) -> None:
        if not (0 <= self.max_depth <= 8):
            raise ValueError("max_depth must be in [0, 8]")
        if not (0 <= self.max_array_len <= 64):
            raise ValueError("max_array_len must be in [0, 64]")
        if not (1 <= self.max_key_len <= 16):
            raise ValueError("max_key_len must be in [1, 16]")
        if self.tabular and self.min_rows < 1:
            raise ValueError("tabular profiles need at least one row")


DEFAULT_PROFILE = GenProfile(key_pool=SAFE_WORDS)
DELIMITER_PROFILE = GenProfile(key_pool=DELIMITER_KEYS)
TABULAR_PROFILE = GenProfile(tabular=True)


def _gen_word(rng: random.Random, max_len: int) -> str:
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(1, max_len)))


def _gen_string(rng: random.Random, profile: GenProfile) -> str:
    if profile.string_pool and rng.random() < 0.5:
        return rng.choice(profile.string_pool)
    return _gen_word(rng, 8)


def _gen_key(rng: random.Random, profile: GenProfile, used: set[str]) -> str:
    for _ in range(32):
        if profile.key_pool and rng.random() < 0.4:
            key = rng.choice(profile.key_pool)
        else:
            key = _gen_word(rng, profile.max_key_len)
        if key not in used:
            return key
    # pool exhausted; fall back to a counted key
    n = 0
    while f"k{n}" in used:
        n += 1
    return f"k{n}"


def _gen_scalar(rng: random.Random, profile: GenProfile) -> Value:
    roll = rng.random()
    if roll < 0.1:
        return NULL
    if roll < 0.2:
        return Bool(rng.random() < 0.5)
    if roll < 0.4:
        return Number(str(rng.randint(-1000, 1000)))
    if roll < 0.55:
        whole = rng.randint(-99, 99)
        frac = rng.randint(0, 999)
        return Number(f"{whole}.{frac:03d}" if rng.random() < 0.7 else f"{whole}e{rng.randint(-3, 3)}")
    return Text(_gen_string(rng, profile))


def _gen_object(rng: random.Random, profile: GenProfile, depth: int) -> Object:
    used: set[str] = set()
    pairs = []
    for _ in range(rng.randint(0, profile.max_object_keys)):
        key = _gen_key(rng, profile, used)
        used.add(key)
        pairs.append((key, _gen_node(rng, profile, depth + 1)))
    return Object(pairs)


def _gen_table(rng: random.Random, profile: GenProfile) -> Array:
    cols = rng.randint(profile.min_cols, profile.max_cols)
    rows = rng.randint(profile.min_rows, profile.max_rows)
    keys: list[str] = []
    used: set[str] = set()
    for _ in range(cols):
        key = _gen_key(rng, profile, used)
        used.add(key)
        keys.append(key)
    out = []
    for _ in range(rows):
        cells = []
        for key in keys:
            if rng.random() < 0.5:
                cells.append((key, Number(str(rng.randint(0, 99)))))
            else:
                cells.append((key, Text(rng.choice(profile.cell_pool))))
        out.append(Object(cells))
    return Array(out)


def _gen_array(rng: random.Random, profile: GenProfile, depth: int) -> Array:
    n = rng.randint(0, profile.max_array_len)
    kind = rng.random()
    if kind < 0.4:
        return Array(_gen_scalar(rng, profile) for _ in range(n))
    if kind < 0.7 and depth < profile.max_depth:
        # uniform object rows exercise the tabular path
        sub = GenProfile(
            max_depth=profile.max_depth,
            max_key_len=profile.max_key_len,
            string_pool=profile.string_pool,
            key_pool=profile.key_pool,
            tabular=True,
            min_rows=max(1, min(n, 2)),
            max_rows=max(2, n),
            cell_pool=profile.cell_pool,
        )
        return _gen_table(rng, sub)
    return Array(_gen_node(rng, profile, depth + 1) for _ in range(n))


def _gen_node(rng: random.Random, profile: GenProfile, depth: int) -> Value:
    if depth >= profile.max_depth:
        return _gen_scalar(rng, profile)
    roll = rng.random()
    if roll < 0.4:
        return _gen_scalar(rng, profile)
    if roll < 0.7:
        return _gen_array(rng, profile, depth)
    return _gen_object(rng, profile, depth)


def generate(seed: int, profile: GenProfile = DEFAULT_PROFILE) -> Value:
    """Deterministic document for a (seed, profile) pair."""
    rng = random.Random(seed)
    if profile.tabular:
        return _gen_table(rng, profile)
    if profile.max_depth == 0:
        return _gen_scalar(rng, profile)
    return _gen_node(rng, profile, 0)
