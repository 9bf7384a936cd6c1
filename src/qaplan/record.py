"""Checked records and checked values: the input rules the models share.

A record with checks is one `typing.NamedTuple` class, decorated with
`checked`, whose body holds its fields, docstring, properties and
`_check`. A record is a tuple: it equals, and hashes like, a plain tuple
of the same values. `check_non_negative` is the one rule, for every
model module, that a column of values holds no negative one.
"""

from functools import wraps
from typing import Sequence


def checked(cls):
    """Runs the record's `_check`, which raises `ValueError` for values it
    refuses, on every path that builds one: the constructor, `_make`, and
    what builds through them (`_replace`, copying and unpickling).

    `typing.NamedTuple` forbids `__new__` and `_make` in a class body, so
    the named tuple's own are wrapped here, after the class is made. Each
    wrapper keeps `__wrapped__`: `inspect.signature` shows the fields."""

    def through_check(build):
        @wraps(build)
        def checked_build(cls, *args, **kwargs):
            record = build(cls, *args, **kwargs)
            record._check()
            return record
        return checked_build

    cls.__new__ = staticmethod(through_check(cls.__new__))
    cls._make = classmethod(through_check(cls._make.__func__))
    return cls


def check_non_negative(values: Sequence[float], name: str) -> None:
    """Refuse the first negative of `values`, naming it `name`. nan is not
    negative: it passes, as it passes `value < 0`."""
    # `min` is below 0 or nan wherever a value is negative: it can miss one
    # only after a leading nan, which it returns.
    if values and not min(values) >= 0:
        negative = [value for value in values if value < 0]
        if negative:
            raise ValueError(f"{name} must be non-negative, got {negative[0]}")
