"""Immutable value records on ``collections.namedtuple``.

A record is a tuple of its fields: ``==`` and ``hash`` go by value and
its repr is ``Name(field=value, ...)``. A subclass sets ``__slots__ = ()``,
so that assigning an attribute raises ``AttributeError``, and checks its
fields in ``__new__``. Every way of building one runs that check: calling
the class, ``_make`` and ``_replace`` (which call the class here), and
``copy`` and unpickling (which pass the fields back through ``__new__``). ``namedtuple`` is used
rather than ``dataclasses`` because ``collections`` is loaded with ``re``
already, while ``dataclasses`` brings in ``inspect`` and its imports.
"""

from __future__ import annotations

from collections import namedtuple


def record(typename: str, *fields: str, **defaults) -> type:
    """A namedtuple base with ``fields`` and then ``defaults`` (name=default, in order)."""
    base = namedtuple(typename, fields + tuple(defaults), defaults=tuple(defaults.values()))
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base
