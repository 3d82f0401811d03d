"""Linear algebra over real vector spaces with a diagonal indefinite inner product.

A signature (t, m-t) puts the t negative axes first: coordinate i carries
weight -1 for i < t and +1 otherwise.  Vectors are classified by the sign
of their self-inner-product: space-like (> 0), time-like (< 0), light-like
(= 0 but nonzero).
"""

from __future__ import annotations

import numpy as np

from .errors import DegeneracyError, InputMismatchError
from .records import Record, ValueRecord

# A remainder r with |<r,r>| below this fraction of its Euclidean norm^2 is
# treated as light-like (degenerate) rather than as roundoff.
LIGHTLIKE_RTOL = 1e-10

# A remainder whose Euclidean norm^2 falls below this is "in the span":
# the candidate vector carries no new direction.
SPAN_RTOL = 1e-12

SPACE_LIKE = "space-like"
TIME_LIKE = "time-like"


class Signature(ValueRecord):
    """Diagonal metric signature: ``negative_count`` axes of weight -1 first.

    weights holds the read-only diagonal of the metric, and ones a
    read-only vector of ones: a sum over the coordinates is one matvec
    against it, which numpy runs several times faster than a reduction
    along a 4- or 5-long last axis.
    """

    __slots__ = ("negative_count", "total_dim", "weights", "ones")
    _fields = _compared = ("negative_count", "total_dim")

    def __init__(self, negative_count: int, total_dim: int):
        if total_dim < 2:
            raise InputMismatchError(f"total_dim must be >= 2, got {total_dim}")
        if not 0 <= negative_count <= total_dim:
            raise InputMismatchError(
                f"negative_count {negative_count} outside [0, {total_dim}]"
            )
        self.negative_count = negative_count
        self.total_dim = total_dim
        self.ones = np.ones(total_dim)
        self.ones.flags.writeable = False
        w = np.ones(total_dim)
        w[:negative_count] = -1.0
        w.flags.writeable = False
        self.weights = w

    def __str__(self):
        return f"({self.negative_count},{self.total_dim - self.negative_count})"


class PVector:
    """Vector in a space with a diagonal indefinite inner product.

    coords has shape (..., dim): one vector, or one per node of a batch.
    Indexing selects nodes.  Operations return new vectors.
    """

    __slots__ = ("coords", "signature")

    # numpy operands defer to the reflected vector operators
    __array_ufunc__ = None

    def __init__(self, coords, signature: Signature):
        self.coords = coords
        self.signature = signature
        self.__post_init__()

    def __post_init__(self):
        c = self.coords
        if not (type(c) is np.ndarray and c.dtype == np.float64):
            c = self.coords = np.asarray(c, dtype=float)
        if c.shape[-1:] != (self.signature.total_dim,):
            raise InputMismatchError(
                f"coords shape {c.shape} does not match signature dim "
                f"{self.signature.total_dim}"
            )

    def __repr__(self):
        return f"PVector(coords={self.coords!r}, signature={self.signature!r})"

    def __getitem__(self, nodes) -> "PVector":
        return PVector(self.coords[nodes], self.signature)

    def __add__(self, other: "PVector") -> "PVector":
        _check_same_signature(self, other)
        return PVector(self.coords + other.coords, self.signature)

    def __sub__(self, other: "PVector") -> "PVector":
        _check_same_signature(self, other)
        return PVector(self.coords - other.coords, self.signature)

    def __mul__(self, scalar) -> "PVector":
        """Scale by a float, or node by node by an array over the batch."""
        if isinstance(scalar, float):  # also np.float64, as inner gives for one vector
            return PVector(self.coords * scalar, self.signature)
        return PVector(self.coords * np.asarray(scalar, dtype=float)[..., None], self.signature)

    __rmul__ = __mul__

    def __neg__(self) -> "PVector":
        return PVector(-self.coords, self.signature)

    def inner(self, other: "PVector"):
        return inner(self, other)

    def euclid_norm(self):
        return np.sqrt((self.coords * self.coords) @ self.signature.ones)


def _check_same_signature(u: PVector, v: PVector) -> None:
    if u.signature is not v.signature and u.signature != v.signature:
        raise InputMismatchError(
            f"signature mismatch: {u.signature} vs {v.signature}"
        )


def inner(u: PVector, v: PVector):
    """Indefinite inner product sum_i w_i u_i v_i with w_i = +-1 per the signature.

    A float for single vectors, an array over the nodes of a batch.
    """
    _check_same_signature(u, v)
    return (u.coords * v.coords) @ u.signature.weights


def orthonormalize(vectors: list[PVector], required_characters: list[str]) -> list[PVector]:
    """Gram-Schmidt under the indefinite metric, in the given order.

    Each output vector is normalized to self-inner-product +1 (space-like)
    or -1 (time-like) and must match its requested character.  No pivoting:
    processing order is the input order, so frames built from smoothly
    varying inputs vary smoothly.  Batches are processed node by node in
    the same order, with one array operation per step.  The steps work on
    the coordinate arrays and the metric weights; PVectors are built only
    for the result.

    Raises DegeneracyError if a remainder is light-like (the configuration
    is degenerate) or has the wrong causal character at any node; its
    ``nodes`` attribute flags the nodes of the first failing vector.
    """
    if len(vectors) != len(required_characters):
        raise InputMismatchError("one required character per input vector")
    out: list[np.ndarray] = []
    for v, want in zip(vectors, required_characters):
        if want not in (SPACE_LIKE, TIME_LIKE):
            raise InputMismatchError(f"unsupported character {want!r}")
        _check_same_signature(vectors[0], v)
        w = v.signature.weights
        r = project_off(v.coords, out, w)
        rr = r * r
        q = rr @ w
        scale = rr @ v.signature.ones
        light = (scale == 0.0) | (np.abs(q) < LIGHTLIKE_RTOL * scale)
        if light.any():
            raise _failed_at(
                light,
                "light-like Gram-Schmidt remainder: input is degenerate "
                "(not linearly independent, or the plane metric is singular)",
            )
        wrong = (q > 0) != (want == SPACE_LIKE)
        if wrong.any():
            got = TIME_LIKE if want == SPACE_LIKE else SPACE_LIKE
            raise _failed_at(wrong, f"remainder is {got}, required {want}")
        out.append(r * (1.0 / np.sqrt(np.abs(q)))[..., None])
    return [PVector(r, v.signature) for r, v in zip(out, vectors)]


def project_off(v: np.ndarray, frame: list[np.ndarray], w: np.ndarray) -> np.ndarray:
    """Coordinate arrays v with the orthogonal rows of frame projected off,
    one row at a time, under the weights w."""
    for u in frame:
        v = v - ((v * u) @ w / ((u * u) @ w))[..., None] * u
    return v


def _failed_at(nodes, message: str) -> DegeneracyError:
    exc = DegeneracyError(message)
    exc.nodes = nodes
    return exc


class Sym2(Record):
    """Symmetric 2x2 matrix in an orthonormal tangent frame (entries per node)."""

    __slots__ = _fields = ("a11", "a12", "a22")

    @property
    def trace(self):
        return self.a11 + self.a22

    @property
    def det(self):
        return self.a11 * self.a22 - self.a12 * self.a12


def rotate_sym2(m: Sym2, theta) -> Sym2:
    """Express m in the frame rotated by theta: R(theta)^T m R(theta)."""
    c2, s2 = np.cos(2.0 * theta), np.sin(2.0 * theta)
    mean = 0.5 * (m.a11 + m.a22)
    half_diff = 0.5 * (m.a11 - m.a22)
    swing = half_diff * c2 + m.a12 * s2
    return Sym2(mean + swing, m.a12 * c2 - half_diff * s2, mean - swing)


def eigen_sym2(m: Sym2) -> tuple[tuple, float | np.ndarray]:
    """Eigenvalues (descending) and the frame rotation angle that diagonalizes m.

    Rotating the frame by the returned theta in [0, pi) turns m into
    diag(lam1, lam2) with lam1 >= lam2; a repeated eigenvalue returns
    theta = 0.
    """
    mean = 0.5 * (m.a11 + m.a22)
    half_diff = 0.5 * (m.a11 - m.a22)
    radius = np.hypot(half_diff, m.a12)
    theta = (0.5 * np.arctan2(2.0 * m.a12, m.a11 - m.a22)) % np.pi
    # (-tiny) % pi can round up to pi exactly
    theta = np.where((radius == 0.0) | (theta >= np.pi), 0.0, theta)[()]
    return (mean + radius, mean - radius), theta
