"""Forward-mode second-order automatic differentiation on a 2-parameter domain.

A Jet2 carries a value together with its first and second partials with
respect to the domain parameters (s, t).  Mixed-partial symmetry is
structural: there is a single d_st slot.  Arithmetic propagates the
exact Leibniz/chain rules through second order, which is all the
pointwise curvature pipeline needs; higher derivatives are obtained
elsewhere by finite differences of pointwise fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SingularityError

_NUMERIC = (int, float)


@dataclass(frozen=True)
class Jet2:
    val: float
    d_s: float = 0.0
    d_t: float = 0.0
    d_ss: float = 0.0
    d_st: float = 0.0
    d_tt: float = 0.0

    # -- seeds ---------------------------------------------------------

    @staticmethod
    def constant(v: float) -> "Jet2":
        return Jet2(float(v))

    @staticmethod
    def var_s(v: float) -> "Jet2":
        return Jet2(float(v), d_s=1.0)

    @staticmethod
    def var_t(v: float) -> "Jet2":
        return Jet2(float(v), d_t=1.0)

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return Jet2(
            self.val + other.val,
            self.d_s + other.d_s,
            self.d_t + other.d_t,
            self.d_ss + other.d_ss,
            self.d_st + other.d_st,
            self.d_tt + other.d_tt,
        )

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.val, -self.d_s, -self.d_t, -self.d_ss, -self.d_st, -self.d_tt)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        a, b = self, _coerce(other)
        return Jet2(
            a.val * b.val,
            a.d_s * b.val + a.val * b.d_s,
            a.d_t * b.val + a.val * b.d_t,
            a.d_ss * b.val + 2.0 * a.d_s * b.d_s + a.val * b.d_ss,
            a.d_st * b.val + a.d_s * b.d_t + a.d_t * b.d_s + a.val * b.d_st,
            a.d_tt * b.val + 2.0 * a.d_t * b.d_t + a.val * b.d_tt,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * _reciprocal(_coerce(other))

    def __rtruediv__(self, other):
        return _coerce(other) * _reciprocal(self)

    def __pow__(self, exponent):
        return jpow(self, exponent)


def _coerce(x) -> Jet2:
    if isinstance(x, Jet2):
        return x
    if isinstance(x, _NUMERIC):
        return Jet2.constant(x)
    return NotImplemented


def _chain(a: Jet2, f0: float, f1: float, f2: float) -> Jet2:
    """Second-order chain rule through f given f(a), f'(a), f''(a)."""
    return Jet2(
        f0,
        f1 * a.d_s,
        f1 * a.d_t,
        f2 * a.d_s * a.d_s + f1 * a.d_ss,
        f2 * a.d_s * a.d_t + f1 * a.d_st,
        f2 * a.d_t * a.d_t + f1 * a.d_tt,
    )


def _reciprocal(a: Jet2) -> Jet2:
    if a.val == 0.0:
        raise SingularityError("division by a jet with zero value")
    inv = 1.0 / a.val
    return _chain(a, inv, -inv * inv, 2.0 * inv * inv * inv)


def jexp(a: Jet2) -> Jet2:
    e = math.exp(a.val)
    return _chain(a, e, e, e)


def jsinh(a: Jet2) -> Jet2:
    return _chain(a, math.sinh(a.val), math.cosh(a.val), math.sinh(a.val))


def jcosh(a: Jet2) -> Jet2:
    return _chain(a, math.cosh(a.val), math.sinh(a.val), math.cosh(a.val))


def jsin(a: Jet2) -> Jet2:
    return _chain(a, math.sin(a.val), math.cos(a.val), -math.sin(a.val))


def jcos(a: Jet2) -> Jet2:
    return _chain(a, math.cos(a.val), -math.sin(a.val), -math.cos(a.val))


def jtan(a: Jet2) -> Jet2:
    c = math.cos(a.val)
    if abs(c) < 1e-300:
        raise SingularityError("tan evaluated at a pole")
    t = math.tan(a.val)
    sec2 = 1.0 + t * t
    return _chain(a, t, sec2, 2.0 * t * sec2)


def jlog(a: Jet2) -> Jet2:
    if a.val <= 0.0:
        raise SingularityError(f"log of non-positive value {a.val}")
    inv = 1.0 / a.val
    return _chain(a, math.log(a.val), inv, -inv * inv)


def jsqrt(a: Jet2) -> Jet2:
    if a.val <= 0.0:
        raise SingularityError(f"sqrt of non-positive value {a.val}")
    r = math.sqrt(a.val)
    return _chain(a, r, 0.5 / r, -0.25 / (r * a.val))


def jpow(a: Jet2, exponent) -> Jet2:
    """a**exponent.

    Integer exponents are unrolled by repeated multiplication so they stay
    exact (and permit non-positive bases); anything else requires a
    positive base and goes through the power rule.
    """
    if isinstance(exponent, Jet2):
        if exponent.d_s or exponent.d_t or exponent.d_ss or exponent.d_st or exponent.d_tt:
            # general a^b = exp(b log a)
            return jexp(exponent * jlog(a))
        exponent = exponent.val
    if isinstance(exponent, float) and exponent.is_integer():
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
    p = float(exponent)
    if a.val <= 0.0:
        raise SingularityError(
            f"non-integer power {p} requires a positive base, got {a.val}"
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


def seed(s: float, t: float) -> tuple[Jet2, Jet2]:
    """Jets of the coordinate functions at the point (s, t)."""
    return Jet2.var_s(s), Jet2.var_t(t)

