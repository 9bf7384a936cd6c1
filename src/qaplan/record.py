"""Checked records: named tuples that refuse invalid values.

A record with checks is one `typing.NamedTuple` class, decorated with
`checked`, whose body holds its fields, docstring, properties and
`_check`. A record is a tuple: it equals, and hashes like, a plain tuple
of the same values.
"""

from functools import wraps


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
