"""Bases of the package's record types: ``__slots__`` classes with a hand-written ``__init__``.

A frozen dataclass costs about 1 ms to define, paid by every import of the
package; a ``__slots__`` class costs microseconds.  Records are not frozen,
but no code assigns a field after construction, except the lazy ones: the
normal pair that a ``FrameData`` completes on first read, the ellipse and
the sign of KD that a ``CurvatureReport`` forms on first read, and the
table, minors and taken components that a ``JetPoint`` forms on first use.
"""

from __future__ import annotations


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
