"""Frozen records: what versal's result types used from ``dataclasses``.

``import dataclasses`` brings in ``inspect`` and with it ``ast``, ``dis`` and
``tokenize``, and each decorated class compiles its methods when its module
is imported; together most of ``import versal``'s own time.  A record
class names its fields in order in ``__match_args__`` (as a dataclass
would, so ``match`` works the same) and sets them in its own ``__init__``
with ``object.__setattr__``.
"""

from operator import attrgetter


class Record:
    """Immutable record, equal only to itself.

    Assigning or deleting any attribute raises ``AttributeError``.  The repr
    lists the fields as ``Name(field=value, ...)``.
    """

    __match_args__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({', '.join(fields)})"


class ValueRecord(Record):
    """Immutable record compared and hashed by the tuple of its fields."""

    def __init_subclass__(cls, **kwargs):
        # one attrgetter per class reads the fields in C; a getter of one
        # name returns the bare value, so that case is wrapped in a tuple
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__match_args__)
        if len(cls.__match_args__) == 1:
            cls._values = staticmethod(lambda record: (get(record),))
        else:
            cls._values = get

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))
