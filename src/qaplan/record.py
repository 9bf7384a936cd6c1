"""Checked records: named tuples that refuse invalid values.

A record with checks is a `typing.NamedTuple` of its fields and a
subclass, ahead of which `Checked` sits, that holds its docstring,
properties and `_check`. A record is a tuple: it equals, and hashes
like, a plain tuple of the same values.
"""


class Checked:
    """Runs the record's `_check`, which raises `ValueError` for values it
    refuses, on every path that builds one: the constructor, `_make`, and
    `_replace`, which builds through `_make`."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        new = cls.__new__  # the named tuple's, which takes the fields

        def __new__(cls, *args, **kwargs):
            record = new(cls, *args, **kwargs)
            record._check()
            return record

        __new__.__wrapped__ = new  # `inspect.signature` shows the fields
        cls.__new__ = staticmethod(__new__)

    @classmethod
    def _make(cls, iterable):
        record = super()._make(iterable)
        record._check()
        return record
