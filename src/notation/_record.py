"""Immutable value records on ``collections.namedtuple``.

A record is a tuple of its fields: ``==`` and ``hash`` go by value and
its repr is ``Name(field=value, ...)``. Every record is ``__slots__ = ()``
(the namedtuple base is, and a subclass says so again), so that assigning
an attribute raises ``AttributeError``. A subclass that checks its fields
does so in ``__new__``, and every way of building one runs that check: calling
the class, ``_make`` and ``_replace`` (which call the class here), and
``copy`` and unpickling (which pass the fields back through ``__new__``).
``namedtuple`` is used because ``collections`` is loaded with ``re``
already, while the standard library's record decorator brings in
``inspect`` and its imports, which no command needs.
"""

from __future__ import annotations

import sys
from collections import namedtuple


def record(typename: str, *fields: str, **defaults) -> type:
    """A namedtuple base with ``fields`` and then ``defaults`` (name=default, in order)."""
    # named for the caller's module, as namedtuple itself does, so that pickle finds a record used as it is
    module = sys._getframe(1).f_globals["__name__"]
    base = namedtuple(typename, fields + tuple(defaults), defaults=tuple(defaults.values()), module=module)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base

