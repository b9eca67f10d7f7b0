"""Record, the frozen base of the library's value types.

It stands in for frozen dataclasses, whose import (inspect, ast, dis) and
per-class exec cost more than a single query.  A subclass lists its fields
in __slots__ and sets them in its __init__ through setfield.  A record is
equal only to a record of its own class with equal fields, hashes as its
fields and prints as Name(field=value, ...); a field cannot be assigned
or deleted (AttributeError).
"""

from operator import attrgetter

setfield = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        # the field values: a tuple, or the one value of a one-field record
        cls._values = staticmethod(attrgetter(*cls.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __setstate__(self, state):
        # copy and pickle restore the (None, {field: value}) state of slots
        for name, value in state[1].items():
            setfield(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
