"""Forward-mode second-order automatic differentiation on a 2-parameter domain.

A Jet2 carries a value together with its first and second partials with
respect to the domain parameters (s, t); a single d_st slot makes the mixed
partials symmetric.  Arithmetic propagates the exact Leibniz/chain rules
through second order; higher derivatives come from finite differences.
The ring rules are stated once, on tuples of the six fields: _add, _sub,
_mul and product.  Jet2's +, - and * run them, and so does holomorphic_graph.

The fields are floats at one node or arrays over a batch of nodes
(vector-mode forward differentiation): every rule is elementwise, and
the domain guards raise on the first offending node in C order.

A field that is the Python float 0.0 is a structural zero, and 1.0 a
structural one; the seeds and constants hold them.  The rules skip a term
with a structural-zero factor and drop a structural-one factor, so a rule
costs its nonzero terms (Griewank and Walther, Evaluating Derivatives,
2nd ed., ch. 7).  The other terms keep their order, and x + 0.0 and
x * 1.0 are x and x * 0.0 a zero for finite x: the values are the full
rules' bit for bit, except that an exact zero may differ in sign.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularityError, first_flagged
from .records import FIELDS

_LIFTABLE = (int, float, np.number, np.ndarray)


def _value(v):
    """A float at one node, a float array over a batch."""
    return v.astype(float, copy=False) if isinstance(v, np.ndarray) and v.ndim else float(v)


# np.float64 subclasses float, so the structural tests compare the type
def _add(x, y):
    """x + y, skipping a structural-zero term."""
    if type(x) is float and x == 0.0:
        return y
    if type(y) is float and y == 0.0:
        return x
    return x + y


def _sub(x, y):
    """x - y as _add(x, -y) gives it: a structural-zero x gives -y, else a
    structural-zero y gives x.  x - y is x + (-y) in IEEE 754 arithmetic."""
    if type(x) is float and x == 0.0:
        return -y
    if type(y) is float and y == 0.0:
        return x
    return x - y


def _mul(x, y):
    """x * y; a structural zero if a factor is one, and a structural-one factor drops."""
    if type(x) is float:
        if x == 0.0:
            return 0.0
        if x == 1.0:
            return y
    if type(y) is float:
        if y == 0.0:
            return 0.0
        if y == 1.0:
            return x
    return x * y


class Jet2:
    """Value and first and second partials in (s, t), at a node or per node.

    Operations return new jets; no method changes one in place.
    """

    __slots__ = FIELDS

    def __init__(self, val, d_s=0.0, d_t=0.0, d_ss=0.0, d_st=0.0, d_tt=0.0):
        self.val = val
        self.d_s = d_s
        self.d_t = d_t
        self.d_ss = d_ss
        self.d_st = d_st
        self.d_tt = d_tt

    def __repr__(self):
        return "Jet2(" + ", ".join(f"{f}={getattr(self, f)!r}" for f in FIELDS) + ")"

    @property
    def fields(self) -> tuple:
        """The six fields in FIELDS order."""
        return self.val, self.d_s, self.d_t, self.d_ss, self.d_st, self.d_tt

    # numpy operands defer to the reflected jet operators
    __array_ufunc__ = None

    # -- seeds ---------------------------------------------------------

    @staticmethod
    def constant(v) -> "Jet2":
        return Jet2(_value(v))

    @staticmethod
    def var_s(v) -> "Jet2":
        return Jet2(_value(v), d_s=1.0)

    @staticmethod
    def var_t(v) -> "Jet2":
        return Jet2(_value(v), d_t=1.0)

    # -- ring operations ------------------------------------------------
    # _add, _sub and product on the fields; an operand that is neither a jet,
    # a number nor an array gives NotImplemented, so Python raises TypeError

    def __add__(self, other):
        if (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return Jet2(*map(_add, self.fields, other.fields))

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.val, -self.d_s, -self.d_t, -self.d_ss, -self.d_st, -self.d_tt)

    def __sub__(self, other):
        # a number or array is negated and then added: lifted, its structural-zero
        # partials would give _sub(0.0, 0.0), a -0.0
        if not isinstance(other, Jet2):
            return self + (-other)
        return Jet2(*map(_sub, self.fields, other.fields))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return Jet2(*product(self.fields, other.fields))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return self * _reciprocal(other)

    def __rtruediv__(self, other):
        return _reciprocal(self) * other

    def __pow__(self, exponent):
        if _coerce(exponent) is NotImplemented:
            return NotImplemented
        return jpow(self, exponent)


def product(a: tuple, b: tuple) -> tuple:
    """The fields of the product of the jets whose fields are a and b: the
    Leibniz rule through second order, with the structural rules above."""
    a0, a_s, a_t, a_ss, a_st, a_tt = a
    b0, b_s, b_t, b_ss, b_st, b_tt = b
    return (
        _mul(a0, b0),
        _add(_mul(a_s, b0), _mul(a0, b_s)),
        _add(_mul(a_t, b0), _mul(a0, b_t)),
        _add(_add(_mul(a_ss, b0), _mul(_mul(2.0, a_s), b_s)), _mul(a0, b_ss)),
        _add(_add(_add(_mul(a_st, b0), _mul(a_s, b_t)), _mul(a_t, b_s)), _mul(a0, b_st)),
        _add(_add(_mul(a_tt, b0), _mul(_mul(2.0, a_t), b_t)), _mul(a0, b_tt)),
    )


def pack(components, shape: tuple) -> np.ndarray:
    """The (6, *shape, ncomp) table of jets given by their fields, one
    sequence of six per coordinate, each field broadcast to shape."""
    table = np.empty((len(FIELDS),) + shape + (len(components),))
    for i, fields in enumerate(components):
        for j, f in enumerate(fields):
            table[j, ..., i] = f
    return table


def _coerce(x) -> Jet2:
    """x as a jet; numbers and arrays lift to constants, anything else is NotImplemented."""
    if isinstance(x, Jet2):
        return x
    if isinstance(x, _LIFTABLE):
        return Jet2.constant(x)
    return NotImplemented


def _chain(a: Jet2, f0, f1, f2) -> Jet2:
    """Second-order chain rule through f given f(a), f'(a), f''(a)."""
    return Jet2(
        f0,
        _mul(f1, a.d_s),
        _mul(f1, a.d_t),
        _add(_mul(_mul(f2, a.d_s), a.d_s), _mul(f1, a.d_ss)),
        _add(_mul(_mul(f2, a.d_s), a.d_t), _mul(f1, a.d_st)),
        _add(_mul(_mul(f2, a.d_t), a.d_t), _mul(f1, a.d_tt)),
    )


def _reciprocal(a: Jet2) -> Jet2:
    if np.any(a.val == 0.0):
        raise SingularityError("division by a jet with zero value")
    inv = 1.0 / a.val
    return _chain(a, inv, -inv * inv, 2.0 * inv * inv * inv)


def jexp(a: Jet2) -> Jet2:
    e = np.exp(a.val)
    return _chain(a, e, e, e)


def jsinh(a: Jet2) -> Jet2:
    sh, ch = np.sinh(a.val), np.cosh(a.val)
    return _chain(a, sh, ch, sh)


def jcosh(a: Jet2) -> Jet2:
    sh, ch = np.sinh(a.val), np.cosh(a.val)
    return _chain(a, ch, sh, ch)


def jsin(a: Jet2) -> Jet2:
    return _chain(a, np.sin(a.val), np.cos(a.val), -np.sin(a.val))


def jcos(a: Jet2) -> Jet2:
    return _chain(a, np.cos(a.val), -np.sin(a.val), -np.cos(a.val))


def jtan(a: Jet2) -> Jet2:
    if np.any(np.abs(np.cos(a.val)) < 1e-300):
        raise SingularityError("tan evaluated at a pole")
    t = np.tan(a.val)
    sec2 = 1.0 + t * t
    return _chain(a, t, sec2, 2.0 * t * sec2)


def jlog(a: Jet2) -> Jet2:
    bad = a.val <= 0.0
    if np.any(bad):
        raise SingularityError(f"log of non-positive value {first_flagged(bad, a.val)[0]}")
    inv = 1.0 / a.val
    return _chain(a, np.log(a.val), inv, -inv * inv)


def jsqrt(a: Jet2) -> Jet2:
    bad = a.val <= 0.0
    if np.any(bad):
        raise SingularityError(f"sqrt of non-positive value {first_flagged(bad, a.val)[0]}")
    r = np.sqrt(a.val)
    return _chain(a, r, 0.5 / r, -0.25 / (r * a.val))


def jpow(a: Jet2, exponent) -> Jet2:
    """a**exponent.

    Integer exponents are unrolled by repeated multiplication so they stay
    exact (and permit non-positive bases); anything else requires a
    positive base and goes through the power rule.
    """
    if isinstance(exponent, Jet2):
        if any(np.any(getattr(exponent, f)) for f in FIELDS[1:]):
            # general a^b = exp(b log a)
            return jexp(exponent * jlog(a))
        exponent = exponent.val
    if np.ndim(exponent) and np.all(exponent == np.ravel(exponent)[0]):
        exponent = np.ravel(exponent)[0]  # a constant exponent over a batch
    if np.ndim(exponent) == 0 and float(exponent).is_integer():
        exponent = int(exponent)
    if isinstance(exponent, int):
        if exponent == 0:
            return Jet2.constant(1.0)
        if exponent < 0:
            return _reciprocal(jpow(a, -exponent))
        acc = a
        for _ in range(exponent - 1):
            acc = acc * a
        return acc
    p = _value(exponent)
    bad = a.val <= 0.0
    if np.any(bad):
        raise SingularityError(
            f"non-integer power {p} requires a positive base, got {first_flagged(bad, a.val)[0]}"
        )
    f0 = a.val ** p
    return _chain(a, f0, p * f0 / a.val, p * (p - 1.0) * f0 / (a.val * a.val))


FUNCTIONS = {
    "exp": jexp,
    "sinh": jsinh,
    "cosh": jcosh,
    "sin": jsin,
    "cos": jcos,
    "tan": jtan,
    "log": jlog,
    "sqrt": jsqrt,
    # pow is binary and handled separately by callers
}


def seed(s, t) -> tuple[Jet2, Jet2]:
    """Jets of the coordinate functions at the node (s, t) or a batch of nodes."""
    return Jet2.var_s(s), Jet2.var_t(t)

