"""Linear algebra over real vector spaces with a diagonal indefinite inner product.

A signature (t, m-t) puts the t negative axes first: coordinate i carries
weight -1 for i < t and +1 otherwise.  Vectors are classified by the sign
of their self-inner-product: space-like (> 0), time-like (< 0), light-like
(= 0 but nonzero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, InputMismatchError

# A remainder r with |<r,r>| below this fraction of its Euclidean norm^2 is
# treated as light-like (degenerate) rather than as roundoff.
LIGHTLIKE_RTOL = 1e-10

# A remainder whose Euclidean norm^2 falls below this is "in the span":
# the candidate vector carries no new direction.
SPAN_RTOL = 1e-12

SPACE_LIKE = "space-like"
TIME_LIKE = "time-like"
LIGHT_LIKE = "light-like"


@dataclass(frozen=True)
class Signature:
    """Diagonal metric signature: ``negative_count`` axes of weight -1 first."""

    negative_count: int
    total_dim: int

    def __post_init__(self):
        if self.total_dim < 2:
            raise InputMismatchError(f"total_dim must be >= 2, got {self.total_dim}")
        if not 0 <= self.negative_count <= self.total_dim:
            raise InputMismatchError(
                f"negative_count {self.negative_count} outside [0, {self.total_dim}]"
            )

    @property
    def weights(self) -> np.ndarray:
        w = np.ones(self.total_dim)
        w[: self.negative_count] = -1.0
        return w

    def __str__(self):
        return f"({self.negative_count},{self.total_dim - self.negative_count})"


@dataclass(frozen=True)
class PVector:
    """Vector in a space with a diagonal indefinite inner product."""

    coords: np.ndarray
    signature: Signature

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        object.__setattr__(self, "coords", c)
        if c.shape != (self.signature.total_dim,):
            raise InputMismatchError(
                f"coords shape {c.shape} does not match signature dim "
                f"{self.signature.total_dim}"
            )

    def __add__(self, other: "PVector") -> "PVector":
        _check_same_signature(self, other)
        return PVector(self.coords + other.coords, self.signature)

    def __sub__(self, other: "PVector") -> "PVector":
        _check_same_signature(self, other)
        return PVector(self.coords - other.coords, self.signature)

    def __mul__(self, scalar: float) -> "PVector":
        return PVector(self.coords * float(scalar), self.signature)

    __rmul__ = __mul__

    def __neg__(self) -> "PVector":
        return PVector(-self.coords, self.signature)

    def inner(self, other: "PVector") -> float:
        return inner(self, other)

    def self_inner(self) -> float:
        return inner(self, self)

    def euclid_norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def causal_character(self) -> str:
        q = self.self_inner()
        scale = float(np.dot(self.coords, self.coords))
        if scale == 0.0:
            raise InputMismatchError("zero vector has no causal character")
        if abs(q) < LIGHTLIKE_RTOL * scale:
            return LIGHT_LIKE
        return SPACE_LIKE if q > 0 else TIME_LIKE


def _check_same_signature(u: PVector, v: PVector) -> None:
    if u.signature != v.signature:
        raise InputMismatchError(
            f"signature mismatch: {u.signature} vs {v.signature}"
        )


def inner(u: PVector, v: PVector) -> float:
    """Indefinite inner product sum_i w_i u_i v_i with w_i = +-1 per the signature."""
    _check_same_signature(u, v)
    w = u.signature.weights
    return float(np.dot(w * u.coords, v.coords))


def orthonormalize(vectors: list[PVector], required_characters: list[str]) -> list[PVector]:
    """Gram-Schmidt under the indefinite metric, in the given order.

    Each output vector is normalized to self-inner-product +1 (space-like)
    or -1 (time-like) and must match its requested character.  No pivoting:
    processing order is the input order, so frames built from smoothly
    varying inputs vary smoothly.

    Raises DegeneracyError if a remainder is light-like (the configuration
    is degenerate) or has the wrong causal character.
    """
    if len(vectors) != len(required_characters):
        raise InputMismatchError("one required character per input vector")
    out: list[PVector] = []
    for v, want in zip(vectors, required_characters):
        if want not in (SPACE_LIKE, TIME_LIKE):
            raise InputMismatchError(f"unsupported character {want!r}")
        r = v
        for u in out:
            r = r - (inner(r, u) / inner(u, u)) * u
        q = r.self_inner()
        scale = float(np.dot(r.coords, r.coords))
        if scale == 0.0 or abs(q) < LIGHTLIKE_RTOL * scale:
            raise DegeneracyError(
                "light-like Gram-Schmidt remainder: input is degenerate "
                "(not linearly independent, or the plane metric is singular)"
            )
        got = SPACE_LIKE if q > 0 else TIME_LIKE
        if got != want:
            raise DegeneracyError(
                f"remainder is {got}, required {want}"
            )
        out.append(r * (1.0 / math.sqrt(abs(q))))
    return out


@dataclass(frozen=True)
class Sym2:
    """Symmetric 2x2 matrix in an orthonormal tangent frame."""

    a11: float
    a12: float
    a22: float

    @property
    def trace(self) -> float:
        return self.a11 + self.a22

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a12

    def as_array(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a12, self.a22]])

    @staticmethod
    def from_array(m: np.ndarray) -> "Sym2":
        return Sym2(float(m[0, 0]), 0.5 * float(m[0, 1] + m[1, 0]), float(m[1, 1]))


def rotation2(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotate_sym2(m: Sym2, theta: float) -> Sym2:
    """Express m in the frame rotated by theta: R(theta)^T m R(theta)."""
    r = rotation2(theta)
    return Sym2.from_array(r.T @ m.as_array() @ r)


def eigen_sym2(m: Sym2) -> tuple[tuple[float, float], float]:
    """Eigenvalues (descending) and the frame rotation angle that diagonalizes m.

    Rotating the frame by the returned theta in [0, pi) turns m into
    diag(lam1, lam2) with lam1 >= lam2; a repeated eigenvalue returns
    theta = 0.
    """
    mean = 0.5 * (m.a11 + m.a22)
    half_diff = 0.5 * (m.a11 - m.a22)
    radius = math.hypot(half_diff, m.a12)
    if radius == 0.0:
        return (mean, mean), 0.0
    theta = 0.5 * math.atan2(2.0 * m.a12, m.a11 - m.a22)
    theta = theta % math.pi
    if theta >= math.pi:  # (-tiny) % pi can round up to pi exactly
        theta = 0.0
    return (mean + radius, mean - radius), theta
