"""Format-neutral document tree shared by every codec.

A document is an immutable tree of Null / Bool / Number / Text / Array /
Object values. Numbers keep their exact decimal literal so "7.5" and "7"
survive any encode/decode chain byte-for-byte. Objects preserve key
insertion order and forbid duplicate keys.

Number, Array and Object are nodes: tuples that start with their own class
as a tag. A Number is ``(Number, literal)`` and an Array ``(Array, items)``.
An Object is ``(Object, keys, values)``: the tuple of its key strings, which
is its shape (``StructSignature``), and the tuple of its children in the
same order. Objects decoded from one TOON table or as instances of one TRON
class share one key tuple.

Inside a container, the plain leaves are stored as themselves: a string as
its ``str``, a boolean as ``True`` or ``False`` and a null as ``None``. Most
of a decoded document is such leaves, and the cyclic collector untracks a
tuple that holds only them, as it does a key tuple. No raw number is ever
stored, so tuple ``==`` and ``hash`` stay exact about type (``"1"`` is not
``(Number, "1")``, and ``True`` is no Number) and run in C. The tag's hash is
its identity, so a node's hash differs from one process to the next; nothing
may order output by it.

Text, Bool and Null are the public, boxed view of those leaves, laid out
like a Number: ``(Text, str)``, ``(Bool, bool)``, ``(Null, None)``. The
decoders, ``from_python`` and ``generate`` return a scalar root boxed;
``Array.items``, ``Object.pairs`` and ``Object.get`` box each leaf they
return; the public constructors check their fields and unbox what they are
given, so a tree built by hand and a decoded one are equal. Decoders, which
have already made those checks, build nodes directly with
``tuple.__new__(cls, (cls, field))`` or ``tuple.__new__(Object, (Object,
keys, values))``, and the hot walkers read ``v[1]`` and ``v[2]`` instead of
the accessors.
"""

from __future__ import annotations

import functools
import gc
import random
import re
from operator import itemgetter

from ._record import record

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
    "from_python",
    "GenProfile",
    "DEFAULT_PROFILE",
    "DELIMITER_PROFILE",
    "TABULAR_PROFILE",
    "generate",
]

# Decimal literal grammar: sign, digits, optional fraction, optional exponent.
NUMBER_LITERAL_RE = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?\Z")

_field = itemgetter(1)
_new = tuple.__new__


class Value(tuple):
    """Base class for document tree nodes: a tuple whose first item is the node's class."""

    __slots__ = ()

    def __getnewargs__(self):
        # copy and pickle rebuild a node through its public constructor
        return (self[1],)


class Null(Value):
    __slots__ = ()

    def __new__(cls) -> Null:
        return _new(cls, (cls, None))

    def __getnewargs__(self):
        return ()

    def __repr__(self) -> str:
        return "Null()"


NULL = Null()


class Bool(Value):
    __slots__ = ()

    value = property(_field)

    def __new__(cls, value: bool) -> Bool:
        if type(value) is not bool:
            raise TypeError(f"Bool value must be a bool, not {type(value).__name__}")
        return _new(cls, (cls, value))

    def __repr__(self) -> str:
        return f"Bool(value={self[1]!r})"


_TRUE = Bool(True)
_FALSE = Bool(False)


class Number(Value):
    """A number stored as its exact decimal literal, never a binary float."""

    __slots__ = ()

    literal = property(_field)

    def __new__(cls, literal: str) -> Number:
        if not isinstance(literal, str):
            raise TypeError(f"Number literal must be a str, not {type(literal).__name__}")
        if not NUMBER_LITERAL_RE.match(literal):
            raise ValueError(f"invalid number literal: {literal!r}")
        return _new(cls, (cls, literal))

    def __repr__(self) -> str:
        return f"Number(literal={self[1]!r})"


class Text(Value):
    __slots__ = ()

    value = property(_field)

    def __new__(cls, value: str) -> Text:
        if not isinstance(value, str):
            raise TypeError(f"Text value must be a str, not {type(value).__name__}")
        # a str subclass is stored as a plain str, which is what the walkers dispatch on
        return _new(cls, (cls, str.__str__(value)))

    def __repr__(self) -> str:
        return f"Text(value={self[1]!r})"


def _box(x) -> Value:
    """The public value of a stored child: a plain leaf boxed, a node as it is."""
    t = type(x)
    if t is str:
        return _new(Text, (Text, x))
    if x is None:
        return NULL
    if x is True:
        return _TRUE
    if x is False:
        return _FALSE
    return x


def _unbox(v, field: str):
    """The stored form of the Value ``v``: a Text, Bool or Null unboxed, a node as it is.

    Anything that is not a Value is a TypeError that names ``field``.
    """
    t = type(v)
    if t is Number or t is Array or t is Object:
        return v
    if t is Text or t is Bool or t is Null:
        return v[1]
    raise TypeError(f"{field} must be a Value, not {t.__name__}")


def _object_value(v):
    return _unbox(v, "Object value")


def _object(pairs, child) -> Object:
    """The Object of ``pairs``, each value stored as ``child`` returns it.

    A key that is not a ``str`` is a TypeError, a repeated one a ValueError.
    """
    members = {}
    for k, v in pairs:
        if not isinstance(k, str):
            raise TypeError(f"Object key must be a str, not {type(k).__name__}")
        if k in members:
            raise ValueError(f"duplicate object key: {k!r}")
        members[k] = child(v)
    return _new(Object, (Object, tuple(members), tuple(members.values())))


class Array(Value):
    __slots__ = ()

    def __new__(cls, items=()) -> Array:
        return _new(cls, (cls, tuple([_unbox(x, "Array item") for x in items])))

    @property
    def items(self) -> tuple[Value, ...]:
        return tuple(map(_box, self[1]))

    def __getnewargs__(self):
        return (self.items,)

    def __len__(self) -> int:
        return len(self[1])

    def __repr__(self) -> str:
        return f"Array(items={self.items!r})"


class Object(Value):
    """Ordered key/value pairs; duplicate keys are rejected at construction.

    Stored as ``(Object, keys, values)``; ``keys`` is the stored key tuple
    and ``pairs`` is built from the two on each read.
    """

    __slots__ = ()

    keys = property(_field)

    def __new__(cls, pairs=()) -> Object:
        if isinstance(pairs, dict):
            pairs = pairs.items()
        return _object(pairs, _object_value)

    @property
    def pairs(self) -> tuple[tuple[str, Value], ...]:
        return tuple(zip(self[1], map(_box, self[2])))

    def get(self, key: str) -> Value | None:
        """The value at ``key`` (``NULL`` for a null), or None when there is no such key."""
        try:
            i = self[1].index(key)
        except ValueError:
            return None
        return _box(self[2][i])

    def __getnewargs__(self):
        return (self.pairs,)

    def __len__(self) -> int:
        return len(self[1])

    def __repr__(self) -> str:
        return f"Object(pairs={self.pairs!r})"


StructSignature = tuple[str, ...]


def _collector_paused(fn):
    """``fn`` run with the cyclic garbage collector paused.

    All nine codec entry points, the four decoders and the five encoders
    (``encode_tron_corpus`` among them), run under it. A decoder builds
    thousands of containers per document, and every container node is a tuple the collector tracks and never
    untracks (it holds its class), so its young collections would scan each
    new tree again and again. A node tree holds no reference cycle (a node
    refers only to its class, to plain leaves and to nodes built before
    it), so those scans can never find garbage. An encoder makes no cycle
    either: it walks an existing tree and builds lists of ``str``. Pausing
    it too removes collections rather than moving them: the young
    collection a decode holds back no longer starts inside the encoder that
    follows, and the older generations fill later than a round trip's trees
    live. Inside the ops of a pass over perfbench's seed-7
    ``codec-roundtrip`` pool (``scripts/gc_census.py``, mean of 5 passes),
    generation 0/1/2 collections fell from 90/8.2/1 with only the decoders
    paused to 4.2/0.4/0, and their thread time from 78-89 ms to 32-39 ms;
    they collected nothing either way.

    ``cli._measure_report``, which builds a ``measure`` report, runs under
    it too. Every tree the report decodes or encodes holds no cycle and is
    freed by reference counting by the time the builder returns, so a
    young collection inside the builder could only scan live trees that
    are about to die. Paused, none starts there, and the one the
    builder's allocations hold back runs after it returns, when those
    trees are gone: over a pass of perfbench's seed-7 ``measure-words``
    pool, ops and output checks together, collections fell from 44.6 to
    1.7 and their thread time from 12–14 ms to under 0.5 ms. The pause is
    process-wide: cycles made by other threads wait until the call
    returns.

    When the collector is already off, ``fn`` runs as it is: the wrapper
    never turns on a collector its caller turned off, and a nested call
    leaves turning it back on to the outermost one.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def _plain(obj):
    """The stored form of plain Python data; see ``from_python``."""
    if obj is None or obj is True or obj is False:
        return obj
    if isinstance(obj, str):
        return str.__str__(obj)
    if isinstance(obj, Value):
        return _unbox(obj, "value")
    # a subclass's own __str__/__repr__ is not its number: read the base type's, as json.dumps does
    if isinstance(obj, int):
        return Number(int.__repr__(obj))
    if isinstance(obj, float):
        literal = float.__repr__(obj)
        if literal in ("inf", "-inf", "nan"):
            raise ValueError(f"non-finite float not representable: {obj!r}")
        return Number(literal)
    if isinstance(obj, dict):
        return _object(((_key(k), v) for k, v in obj.items()), _plain)
    if isinstance(obj, (list, tuple)):
        return _new(Array, (Array, tuple([_plain(x) for x in obj])))
    raise TypeError(f"cannot convert {type(obj).__name__} to Value")


def _key(k) -> str:
    """The dict key ``k`` spelled as ``json.dumps`` spells it."""
    if isinstance(k, str):
        return str.__str__(k)
    if k is None or k is True or k is False:
        return "null" if k is None else "true" if k else "false"
    if isinstance(k, (int, float)):
        return _plain(k)[1]  # a non-finite float is a ValueError
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def from_python(obj) -> Value:
    """Build a Value from plain Python data (dict/list/str/int/float/bool/None); keys are spelled as by ``json.dumps``."""
    return _box(_plain(obj))


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


MAX_DEPTH = 4
MAX_ARRAY_LEN = 8
MAX_OBJECT_KEYS = 5
MAX_KEY_LEN = 12

# the bounds are constants; a profile picks the key pool and whether the root is a table
GenProfile = record("GenProfile", key_pool=SAFE_WORDS, tabular=False)

DEFAULT_PROFILE = GenProfile()
DELIMITER_PROFILE = GenProfile(key_pool=DELIMITER_KEYS)
TABULAR_PROFILE = GenProfile(tabular=True)


def _gen_word(rng: random.Random, max_len: int) -> str:
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(1, max_len)))


def _gen_string(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return rng.choice(DELIMITER_STRINGS)
    return _gen_word(rng, 8)


def _gen_key(rng: random.Random, key_pool: tuple[str, ...], used: set[str] | dict[str, object]) -> str:
    for _ in range(32):
        if key_pool and rng.random() < 0.4:
            key = rng.choice(key_pool)
        else:
            key = _gen_word(rng, MAX_KEY_LEN)
        if key not in used:
            return key
    # pool exhausted; fall back to a counted key
    n = 0
    while f"k{n}" in used:
        n += 1
    return f"k{n}"


# The generator builds the stored form, plain leaves included; generate boxes
# a scalar root.


def _gen_scalar(rng: random.Random):
    roll = rng.random()
    if roll < 0.1:
        return None
    if roll < 0.2:
        return rng.random() < 0.5
    if roll < 0.4:
        return Number(str(rng.randint(-1000, 1000)))
    if roll < 0.55:
        whole = rng.randint(-99, 99)
        frac = rng.randint(0, 999)
        return Number(f"{whole}.{frac:03d}" if rng.random() < 0.7 else f"{whole}e{rng.randint(-3, 3)}")
    return _gen_string(rng)


def _gen_object(rng: random.Random, key_pool: tuple[str, ...], depth: int) -> Object:
    members = {}
    for _ in range(rng.randint(0, MAX_OBJECT_KEYS)):
        key = _gen_key(rng, key_pool, members)
        members[key] = _gen_node(rng, key_pool, depth + 1)
    return _new(Object, (Object, tuple(members), tuple(members.values())))


def _gen_table(rng: random.Random, key_pool: tuple[str, ...], min_rows: int, max_rows: int) -> Array:
    cols = rng.randint(2, 5)
    rows = rng.randint(min_rows, max_rows)
    keys: list[str] = []
    used: set[str] = set()
    for _ in range(cols):
        key = _gen_key(rng, key_pool, used)
        used.add(key)
        keys.append(key)
    keys = tuple(keys)
    out = []
    for _ in range(rows):
        cells = []
        for _key in keys:
            if rng.random() < 0.5:
                cells.append(Number(str(rng.randint(0, 99))))
            else:
                cells.append(rng.choice(SHORT_CELLS))
        out.append(_new(Object, (Object, keys, tuple(cells))))
    return _new(Array, (Array, tuple(out)))


def _gen_array(rng: random.Random, key_pool: tuple[str, ...], depth: int) -> Array:
    n = rng.randint(0, MAX_ARRAY_LEN)
    kind = rng.random()
    if kind < 0.4:
        return _new(Array, (Array, tuple([_gen_scalar(rng) for _ in range(n)])))
    if kind < 0.7 and depth < MAX_DEPTH:
        # uniform object rows exercise the tabular path
        return _gen_table(rng, key_pool, max(1, min(n, 2)), max(2, n))
    return _new(Array, (Array, tuple([_gen_node(rng, key_pool, depth + 1) for _ in range(n)])))


def _gen_node(rng: random.Random, key_pool: tuple[str, ...], depth: int) -> Value:
    if depth >= MAX_DEPTH:
        return _gen_scalar(rng)
    roll = rng.random()
    if roll < 0.4:
        return _gen_scalar(rng)
    if roll < 0.7:
        return _gen_array(rng, key_pool, depth)
    return _gen_object(rng, key_pool, depth)


def generate(seed: int, profile: GenProfile = DEFAULT_PROFILE) -> Value:
    """Deterministic document for a (seed, profile) pair."""
    rng = random.Random(seed)
    if profile.tabular:
        return _gen_table(rng, profile.key_pool, 3, 8)
    return _box(_gen_node(rng, profile.key_pool, 0))
