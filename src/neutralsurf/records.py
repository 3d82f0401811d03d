"""Bases of the package's record types: ``__slots__`` classes whose constructors copy ``_fields``.

A record lists its fields once, in ``_fields``, with the defaults of the
trailing ones in ``_defaults``.  Record builds the constructor of every
subclass that sets ``_fields`` and writes no ``__init__`` of its own: it
takes the fields in order and stores each in the slot of the same name,
from one ``exec`` per class, as ``dataclasses`` does.  A record whose
constructor does more than copy writes its own.

Building a constructor costs 30-90 us a class (3 to 15 fields; timeit,
2 CPUs, Python 3.11.7), against 0.5-1 ms to define a frozen data class.
``import neutralsurf`` builds 10 of them (expr and jets load on first
use).  Over 25 interleaved fresh interpreters after numpy, that import
went 2.64 -> 3.51 ms in the median against hand-written constructors
with cached bytecode (2.83 -> 3.74 ms in a second run), about 90 us a
class.  With no bytecode the shorter source to compile about offsets the
builds: 21.9 -> 21.6 ms (34.6 -> 35.5 ms on a busier host), with
overlapping quartiles.

Records are not frozen, but no code assigns a field after construction,
except the derived fields that a record forms at its own nodes on the
first read: a ``FrameData``'s normal pair and jets' minors, and a
``CurvatureReport``'s canonical frame (with its shape operators), ellipse
and sign of KD.  The rows a record's ``_take`` gives carry what is
already formed.
"""

from __future__ import annotations

# the order of a jet's value and partials: Jet2's slots and the first axis
# of a jet table, which the catalog's evaluators write without the jet algebra
FIELDS = ("val", "d_s", "d_t", "d_ss", "d_st", "d_tt")


class Record:
    """A field-by-field repr over ``_fields``, the constructor's parameters in order."""

    __slots__ = ()
    _fields: tuple = ()
    # field name -> default, for trailing fields of _fields
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" in vars(cls) and "__init__" not in vars(cls):
            cls.__init__ = _copying_init(cls)

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def _take(self, nodes):
        """The record at nodes, an index or index array into every field's
        leading node axis; for a record whose constructor takes _fields in order."""
        return type(self)(*[getattr(self, f)[nodes] for f in self._fields])


def _copying_init(cls: type):
    """An __init__ for cls that takes its _fields in order and stores each in its slot."""
    fields = cls._fields
    body = "".join(f"\n    self.{f} = {f}" for f in fields)
    namespace: dict = {}
    exec(f"def __init__(self, {', '.join(fields)}):{body}", {}, namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(cls._defaults[f] for f in fields[len(fields) - len(cls._defaults):])
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


class ValueRecord(Record):
    """A record that compares and hashes by the fields named in ``_compared``."""

    __slots__ = ()
    _compared: tuple = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._compared)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())
