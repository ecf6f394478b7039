"""A bounded memo: a dict that fills itself on a miss and starts over when full."""

from __future__ import annotations


class Memo(dict):
    """``memo[key]`` is ``fn(key)``, worked out once per key.

    A hit is a plain dict lookup, also through ``map(memo.__getitem__, ...)``.
    A miss applies ``fn`` and keeps the result through ``keep``. The memo
    holds at most ``size`` entries, each keyed by a key of at most ``max_len``
    items (``None``: any length); a full memo is cleared and starts over.
    A memo whose keys ``fn`` cannot read back reads with ``get`` and fills
    with ``keep``.
    """

    __slots__ = ("fn", "size", "max_len")

    def __init__(self, fn, size: int, max_len: int | None = None):
        self.fn = fn
        self.size = size
        self.max_len = max_len

    def __missing__(self, key):
        value = self.fn(key)
        self.keep(key, value)
        return value

    def keep(self, key, value) -> None:
        if self.max_len is None or len(key) <= self.max_len:
            if len(self) >= self.size:
                self.clear()
            self[key] = value
