"""Ambient 4-dimensional neutral space forms and their flat embeddings.

The three kinds are the flat neutral 4-space (signature (2,2), curvature 0),
the pseudo-sphere of curvature c > 0 sitting in a flat 5-space of signature
(2,3), and the pseudo-hyperbolic space of curvature c < 0 sitting in a flat
5-space of signature (3,2).  Non-flat kinds carry the membership constraint
<x,x> = 1/c on position vectors.
"""

from __future__ import annotations

import math

from .errors import InputMismatchError
from .pseudo_linalg import Signature
from .records import ValueRecord

FLAT = "flat"
PSEUDO_SPHERE = "pseudo_sphere"
PSEUDO_HYPERBOLIC = "pseudo_hyperbolic"


class AmbientSpace(ValueRecord):
    __slots__ = _fields = _compared = ("kind", "signature", "curvature")

    def __init__(self, kind: str, signature: Signature, curvature: float):
        sig = (signature.negative_count, signature.total_dim)
        if kind == FLAT:
            ok = sig == (2, 4) and curvature == 0.0
        elif kind == PSEUDO_SPHERE:
            ok = sig == (2, 5) and curvature > 0.0
        elif kind == PSEUDO_HYPERBOLIC:
            ok = sig == (3, 5) and curvature < 0.0
        else:
            raise InputMismatchError(f"unknown ambient kind {kind!r}")
        if not ok:
            raise InputMismatchError(
                f"invalid ambient: kind={kind}, signature={signature}, c={curvature}"
            )
        self.kind = kind
        self.signature = signature
        self.curvature = curvature

    @staticmethod
    def flat() -> "AmbientSpace":
        return AmbientSpace(FLAT, Signature(2, 4), 0.0)

    @staticmethod
    def pseudo_sphere(c: float) -> "AmbientSpace":
        return AmbientSpace(PSEUDO_SPHERE, Signature(2, 5), float(c))

    @staticmethod
    def pseudo_hyperbolic(c: float) -> "AmbientSpace":
        return AmbientSpace(PSEUDO_HYPERBOLIC, Signature(3, 5), float(c))

    @property
    def embedding_dim(self) -> int:
        return self.signature.total_dim

    @property
    def is_flat(self) -> bool:
        return self.kind == FLAT

    @property
    def membership_target(self) -> float:
        """Required <x,x> for position vectors (non-flat kinds only)."""
        if self.is_flat:
            raise InputMismatchError("flat ambient has no membership constraint")
        return 1.0 / self.curvature

    def describe(self) -> str:
        neg = self.signature.negative_count
        pos = self.signature.total_dim - neg
        if self.is_flat:
            return f"flat neutral 4-space E({neg},{pos})"
        label = "pseudo-sphere" if self.kind == PSEUDO_SPHERE else "pseudo-hyperbolic space"
        return (
            f"{label} of curvature {self.curvature:g} in flat ({neg},{pos}) 5-space"
        )


class DomainRect(ValueRecord):
    """Closed parameter rectangle [s0,s1] x [t0,t1]."""

    __slots__ = _fields = _compared = ("s0", "s1", "t0", "t1")

    def __init__(self, s0: float, s1: float, t0: float, t1: float):
        # a side that overflows (-1e308:1e308) makes the grid's nodes nan
        if not all(map(math.isfinite, (s0, s1, t0, t1, s1 - s0, t1 - t0))):
            raise InputMismatchError(f"domain bounds and sides must be finite, got [{s0},{s1}]x[{t0},{t1}]")
        if not (s0 < s1 and t0 < t1):
            raise InputMismatchError(f"empty domain [{s0},{s1}]x[{t0},{t1}]")
        self.s0 = s0
        self.s1 = s1
        self.t0 = t0
        self.t1 = t1

    def grid(self, nx: int, ny: int):
        """Uniform (nx, ny) node coordinates, s-major order."""
        import numpy as np

        return np.linspace(self.s0, self.s1, nx), np.linspace(self.t0, self.t1, ny)

    def as_tuple(self):
        return (self.s0, self.s1, self.t0, self.t1)
