"""Immutable value records on ``collections.namedtuple``.

A record is a tuple of its fields: ``==`` and ``hash`` go by value and
its repr is ``Name(field=value, ...)``. A subclass sets ``__slots__ = ()``,
so that assigning an attribute raises ``AttributeError``, and checks its
fields in ``__new__``. Every way of building one runs that check: calling
the class, ``_make`` and ``_replace`` (which call the class here), and
``copy`` and unpickling (which pass the fields back through ``__new__``).
``namedtuple`` is used because ``collections`` is loaded with ``re``
already, while the standard library's record decorator brings in
``inspect`` and its imports, which no command needs.

A record that keeps values computed in ``__new__`` leaves out
``__slots__``, fills its instance dict through ``self.__dict__``, and
mixes in ``Sealed``.
"""

from __future__ import annotations

from collections import namedtuple


def record(typename: str, *fields: str, **defaults) -> type:
    """A namedtuple base with ``fields`` and then ``defaults`` (name=default, in order)."""
    base = namedtuple(typename, fields + tuple(defaults), defaults=tuple(defaults.values()))
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class Sealed:
    """Mixin for a record with an instance dict: no attribute can be set or deleted."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
