"""Value records: equality, hash and repr by the fields a class names."""

from operator import attrgetter


class Value:
    """Base of the immutable records.  A subclass names its fields in its class
    statement, as in ``class Arrow(Value, fields=("label", "source", "target"))``,
    and assigns them in its own ``__init__``.  Instances equal only instances
    of the same class, compare and hash by those fields, and are immutable by
    convention: nothing assigns a field after ``__init__``."""

    def __init_subclass__(cls, fields: tuple):
        cls._fields, cls._key = fields, attrgetter(*fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"
