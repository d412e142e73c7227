"""Value classes: the equality, hash, repr and immutability a frozen
dataclass would generate, written once.

The standard-library class generator, with ``inspect`` and ``ast`` that it
imports and the code it compiles for each class, took a fifth of a cold
``import mriordan``, and every CLI call is a cold import.  A record lists
its fields, in order, in ``_fields`` and sets them in its own
``__init__``.  Records of the same class are equal when their fields are,
and the repr is ``Name(field=value, ...)``.  A ``Record`` is mutable and
unhashable.  A ``Frozen`` record hashes its fields and refuses assignment
and deletion with an ``AttributeError``; its ``__init__`` sets each field
with ``_set``, and copies and pickles are rebuilt through ``__init__``.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__, not by assignment
        return type(self), self._values()
