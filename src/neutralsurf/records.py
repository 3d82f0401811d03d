"""Bases of the package's record types: ``__slots__`` classes with a hand-written ``__init__``.

A frozen data class costs about 1 ms to define, paid by every import of
the package; a ``__slots__`` class costs microseconds.  Records are not
frozen, but no code assigns a field after construction, except the
derived fields that a record forms at its own nodes on the first read:
a ``FrameData``'s normal pair and jets' minors, and a
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

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"


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
