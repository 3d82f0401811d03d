"""Exception types shared across the package."""

import numpy as np


class NeutralSurfError(Exception):
    """Base class for all package errors."""


class InputMismatchError(NeutralSurfError):
    """Operands disagree in dimension, signature, or ambient space."""


class DegeneracyError(NeutralSurfError):
    """A light-like direction or degenerate metric was encountered.

    Raised when a Gram-Schmidt remainder is light-like, when a surface
    fails to be space-like at a point, or when a finite-difference
    stencil cannot keep a single smooth frame branch.
    """


class SingularityError(NeutralSurfError):
    """Jet arithmetic hit a pole or a function-domain violation."""


class ExprSyntaxError(NeutralSurfError):
    """Surface definition text could not be parsed.

    Carries the 1-based line and column of the offending token and
    formats as ``line:col: message``.
    """

    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        self.message = message
        super().__init__(f"{line}:{col}: {message}")


class FieldDomainError(NeutralSurfError):
    """A grid quantity left the domain of the requested function.

    Names the offending node and its value (e.g. log of a non-positive
    curvature shift).
    """


class PreconditionError(NeutralSurfError):
    """An identity check was asked for on data that violates its hypotheses."""


def first_flagged(flags, *values) -> tuple:
    """The values at the first node, in C order, where flags holds.

    Each value is broadcast to the shape of flags (0-d at a single node)
    and read at that node as a Python scalar, so messages read the same
    for a point and for a batch.
    """
    flags = np.asarray(flags)
    k = int(np.argmax(flags))
    return tuple(np.broadcast_to(v, flags.shape).flat[k].item() for v in values)
