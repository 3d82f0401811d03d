"""Parser and evaluator for plain-text surface definition files.

File format (statements separated by newlines or ';'):

    ambient E(2,2)            -- flat neutral 4-space, or S(2,3; c) / H(3,2; c)
    domain -1:1, -1:1         -- optional, defaults to [-1,1]^2
    x1 = sinh(2*s/sqrt(3))    -- one component per ambient coordinate, in order
    ...

Expression grammar: variables s and t, constants pi and e, decimal literals
with optional exponent, functions exp sinh cosh sin cos tan log sqrt and the
binary pow(a,b).  Precedence: ^ over unary - over * / over + -, all binary
operators left-associative.  No implicit multiplication.  Errors are
reported as ``line:col: message``.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Callable

from .ambient import AmbientSpace, DomainRect
from .errors import ExprSyntaxError, InputMismatchError, SingularityError
from .jets import FUNCTIONS, Jet2, jpow
from .records import Record, ValueRecord

_BIN_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_PREC = 30

_CONSTANTS = {"pi": math.pi, "e": math.e}
_FUNCTION_ARITY = {name: 1 for name in FUNCTIONS} | {"pow": 2}

DEFAULT_VARIABLES = ("s", "t")


# -- AST ---------------------------------------------------------------
# Nodes compare and hash by their content; line and col (the source
# position, for error messages) take no part, and default to 0.
_UNPLACED = {"line": 0, "col": 0}


class Num(ValueRecord):
    __slots__ = _fields = ("value", "line", "col")
    _compared = ("value",)
    _defaults = _UNPLACED


class Var(ValueRecord):
    __slots__ = _fields = ("name", "line", "col")
    _compared = ("name",)
    _defaults = _UNPLACED


class Neg(ValueRecord):
    __slots__ = _fields = ("operand", "line", "col")
    _compared = ("operand",)
    _defaults = _UNPLACED


class BinOp(ValueRecord):
    __slots__ = _fields = ("op", "left", "right", "line", "col")
    _compared = ("op", "left", "right")
    _defaults = _UNPLACED


class Call(ValueRecord):
    __slots__ = _fields = ("fn", "args", "line", "col")
    _compared = ("fn", "args")
    _defaults = _UNPLACED


Expr = Num | Var | Neg | BinOp | Call


class SurfaceDefinition(Record):
    __slots__ = _fields = ("name", "ambient", "components", "domain")


# -- tokenizer ---------------------------------------------------------


class _Token(Record):
    """A token: kind is NUMBER, IDENT, OP or END, and value a NUMBER's value."""

    __slots__ = _fields = ("kind", "text", "line", "col", "value")
    _defaults = {"value": 0.0}


_NUMBER_RE = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[a-z][a-z0-9_]*")
_OPS = set("+-*/^(),")


def _tokenize(text: str, line: int, col0: int) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        col = col0 + i
        if ch in _OPS:
            tokens.append(_Token("OP", ch, line, col))
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(_Token("NUMBER", m.group(0), line, col, value=float(m.group(0))))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(_Token("IDENT", m.group(0), line, col))
            i = m.end()
            continue
        raise ExprSyntaxError(line, col, f"unexpected character {ch!r}")
    tokens.append(_Token("END", "", line, col0 + n))
    return tokens


# -- Pratt parser ------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token], variables: tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        t = self.cur
        self.pos += 1
        return t

    def error(self, message: str, token: _Token | None = None):
        t = token or self.cur
        raise ExprSyntaxError(t.line, t.col, message)

    def parse(self) -> Expr:
        node = self.parse_expr(0)
        if self.cur.kind != "END":
            self.error(f"unexpected token {self.cur.text!r}")
        return node

    def parse_expr(self, min_prec: int) -> Expr:
        left = self.parse_atom()
        while (
            self.cur.kind == "OP"
            and self.cur.text in _BIN_PREC
            and _BIN_PREC[self.cur.text] >= min_prec
        ):
            op = self.advance()
            right = self.parse_expr(_BIN_PREC[op.text] + 1)
            left = BinOp(op.text, left, right, line=op.line, col=op.col)
        return left

    def parse_atom(self) -> Expr:
        t = self.cur
        if t.kind == "NUMBER":
            self.advance()
            return Num(t.value, line=t.line, col=t.col)
        if t.kind == "IDENT":
            self.advance()
            if self.cur.kind == "OP" and self.cur.text == "(":
                return self.parse_call(t)
            if t.text in self.variables:
                return Var(t.text, line=t.line, col=t.col)
            if t.text in _CONSTANTS:
                return Num(_CONSTANTS[t.text], line=t.line, col=t.col)
            self.error(f"unknown identifier {t.text!r}", t)
        if t.kind == "OP" and t.text == "-":
            self.advance()
            operand = self.parse_expr(_UNARY_PREC)
            return Neg(operand, line=t.line, col=t.col)
        if t.kind == "OP" and t.text == "(":
            self.advance()
            node = self.parse_expr(0)
            if not (self.cur.kind == "OP" and self.cur.text == ")"):
                self.error("expected ')'")
            self.advance()
            return node
        if t.kind == "END":
            self.error("unexpected end of expression", t)
        self.error(f"expected operand, found {t.text!r}", t)

    def parse_call(self, name: _Token) -> Expr:
        if name.text not in _FUNCTION_ARITY:
            self.error(f"unknown function {name.text!r}", name)
        self.advance()  # '('
        args = [self.parse_expr(0)]
        while self.cur.kind == "OP" and self.cur.text == ",":
            self.advance()
            args.append(self.parse_expr(0))
        if not (self.cur.kind == "OP" and self.cur.text == ")"):
            self.error("expected ')' or ',' in argument list")
        self.advance()
        arity = _FUNCTION_ARITY[name.text]
        if len(args) != arity:
            self.error(
                f"{name.text} takes {arity} argument{'s' if arity > 1 else ''}, "
                f"got {len(args)}",
                name,
            )
        return Call(name.text, tuple(args), line=name.line, col=name.col)


def parse_expression(
    text: str,
    variables: tuple[str, ...] = DEFAULT_VARIABLES,
    line: int = 1,
    col0: int = 1,
) -> Expr:
    """Parse a single expression; positions are offset by (line, col0)."""
    return _Parser(_tokenize(text, line, col0), tuple(variables)).parse()


# -- evaluation --------------------------------------------------------

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_UNROLLED_POWERS = 64  # the largest constant integer exponent compiled to products
MAX_POLY_DEGREE = 1000  # the highest degree a power of a polynomial may reach (eval_numeric)


def compile_jets(asts) -> Callable[[Jet2, Jet2], tuple]:
    """One straight-line jet program of s and t that returns a jet per tree.

    A node is keyed by its operation and its children's slots, so a shared
    subtree runs once.  A subtree without s or t folds at compile time
    through the same jet operations, as do the reciprocal of a constant
    divisor (a / c runs as a * (1.0 / c), which is how a jet divides) and
    jpow's products for a constant integer exponent.  Jet singularities,
    at compile or at run time, carry the location of their node.
    """
    values = [None, None]  # a slot's value if known at compile time; s and t are not
    code = []  # (slot, operation, argument slots, location) of what runs
    slots = {}

    def emit(fn, args, node, key=None) -> int:
        key = key or (fn, *args)
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = len(values)
            where = f"{node.line}:{node.col}"
            if all(values[k] is not None for k in args):
                values.append(_located(fn, [values[k] for k in args], where))
            else:
                values.append(None)
                code.append((slot, fn, args, where))
        return slot

    def constant(value: float, node) -> int:
        key = (value, math.copysign(1.0, value))
        return slots.get(key) or emit(lambda: Jet2.constant(value), (), node, key)

    def power(a: int, b: int, node) -> int:
        e = values[b]
        if e is None or not float(e.val).is_integer() or abs(e.val) > _UNROLLED_POWERS:
            return emit(jpow, (a, b), node)
        n, p = int(e.val), a
        for _ in range(abs(n) - 1):
            p = emit(operator.mul, (p, a), node)
        if n > 0:
            return p
        return constant(1.0, node) if n == 0 else emit(operator.truediv, (constant(1.0, node), p), node)

    def visit(node) -> int:
        if isinstance(node, BinOp):
            a, b = visit(node.left), visit(node.right)
            if node.op == "^":
                return power(a, b, node)
            if node.op == "/" and values[b] is not None:
                b = emit(operator.truediv, (constant(1.0, node), b), node)
                return emit(operator.mul, (a, b), node)
            return emit(_BINARY[node.op], (a, b), node)
        if isinstance(node, Var):
            return ("s", "t").index(node.name)
        if isinstance(node, Num):
            return constant(float(node.value), node)
        if isinstance(node, Call):
            args = tuple(map(visit, node.args))
            return power(*args, node) if node.fn == "pow" else emit(FUNCTIONS[node.fn], args, node)
        if isinstance(node, Neg):
            return emit(operator.neg, (visit(node.operand),), node)
        raise TypeError(f"not an expression node: {node!r}")

    outputs = [visit(ast) for ast in asts]

    def run(s: Jet2, t: Jet2) -> tuple:
        regs = values.copy()
        regs[0], regs[1] = s, t
        for slot, fn, args, where in code:
            regs[slot] = _located(fn, [regs[k] for k in args], where)
        return tuple(regs[k] for k in outputs)

    return run


def _located(fn, args, where: str):
    try:
        return fn(*args)
    except SingularityError as exc:
        raise SingularityError(f"{where}: {exc}") from exc


def eval_on_jets(ast: Expr, s: Jet2, t: Jet2) -> Jet2:
    """The tree on jet-valued s, t (floats, or arrays over a batch), compiled for one call."""
    return compile_jets((ast,))(s, t)[0]


def eval_numeric(node: Expr, env: dict):
    """Evaluate over plain numeric operands (float, complex, polynomials).

    Only arithmetic is supported; the denominator of '/' must be a nonzero
    plain number and an exponent an integer, non-negative on a polynomial,
    so non-scalar operand types (e.g. polynomial objects) stay closed under
    the operations.  A polynomial's power is its repeated product, up to
    degree MAX_POLY_DEGREE.  An operation outside these rules, or a power
    out of float range, raises ExprSyntaxError at its operator.
    """
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -eval_numeric(node.operand, env)
    if isinstance(node, BinOp):
        a = eval_numeric(node.left, env)
        b = eval_numeric(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if not isinstance(b, (int, float, complex)):
                raise ExprSyntaxError(node.line, node.col, "the denominator must be a plain number here")
            if b == 0:
                raise ExprSyntaxError(node.line, node.col, "division by zero")
            return a / b
        if not isinstance(b, (int, float)) or not float(b).is_integer():
            raise ExprSyntaxError(node.line, node.col, "exponent must be an integer here")
        n = int(b)
        if isinstance(a, (int, float, complex)):
            try:
                return a ** n
            except (ZeroDivisionError, OverflowError):
                # 0 to a negative power, a power out of float range
                raise ExprSyntaxError(node.line, node.col, "power out of range here") from None
        if n < 0:
            raise ExprSyntaxError(node.line, node.col, "exponent must not be negative here")
        # a polynomial: a ** 0 or a ** 1, then one product per further factor,
        # as numpy's ** forms it below its cap of 100 (maxpower); the bound
        # holds both the degree and the count of products
        if max(a.degree(), 1) * n > MAX_POLY_DEGREE:
            raise ExprSyntaxError(node.line, node.col, "power out of range here")
        power = a ** min(n, 1)
        for _ in range(n - 1):
            power = power * a
        return power
    raise ExprSyntaxError(node.line, node.col, "function calls are not allowed here")


# -- surface files -----------------------------------------------------

_AMBIENT_RE = re.compile(
    r"ambient\s+([ESH])\s*\(\s*(\d+)\s*,\s*(\d+)\s*(?:;\s*([^)]+?)\s*)?\)\s*$"
)
_DOMAIN_RE = re.compile(
    r"domain\s+([^:,]+):([^,]+),([^:]+):(.+)$"
)
_COMPONENT_RE = re.compile(r"(x(\d+))\s*=\s*(.*)$")
_FLOAT_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _statements(text: str):
    """Yield (line, col, stripped_statement).

    A ';' separates statements like a newline does, except inside
    parentheses (the ambient header uses one before its curvature).
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        pieces = []
        depth = 0
        start = 0
        for k, ch in enumerate(raw):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth = max(0, depth - 1)
            elif ch == ";" and depth == 0:
                pieces.append((start, raw[start:k]))
                start = k + 1
        pieces.append((start, raw[start:]))
        for offset, piece in pieces:
            stripped = piece.strip()
            if stripped:
                col = offset + piece.index(stripped[0]) + 1
                yield lineno, col, stripped


def _parse_float(text: str, line: int, col: int) -> float:
    if not _FLOAT_RE.match(text.strip()):
        raise ExprSyntaxError(line, col, f"expected a number, found {text.strip()!r}")
    return float(text)


def _parse_ambient(stmt: str, line: int, col: int) -> AmbientSpace:
    m = _AMBIENT_RE.match(stmt)
    if not m:
        raise ExprSyntaxError(
            line, col, "malformed ambient line; expected E(t,p), S(t,p; c) or H(t,p; c)"
        )
    letter, neg, pos, c_text = m.group(1), int(m.group(2)), int(m.group(3)), m.group(4)
    try:
        if letter == "E":
            if c_text is not None:
                raise ExprSyntaxError(line, col, "flat ambient E(t,p) takes no curvature")
            if (neg, pos) != (2, 2):
                raise ExprSyntaxError(line, col, "only the neutral 4-space E(2,2) is supported")
            return AmbientSpace.flat()
        if c_text is None:
            raise ExprSyntaxError(line, col, f"{letter}(t,p; c) requires a curvature")
        c = _parse_float(c_text, line, col)
        if letter == "S":
            if (neg, pos) != (2, 3) or c <= 0:
                raise ExprSyntaxError(
                    line, col, "pseudo-sphere must be S(2,3; c) with c > 0"
                )
            return AmbientSpace.pseudo_sphere(c)
        if (neg, pos) != (3, 2) or c >= 0:
            raise ExprSyntaxError(
                line, col, "pseudo-hyperbolic space must be H(3,2; c) with c < 0"
            )
        return AmbientSpace.pseudo_hyperbolic(c)
    except ExprSyntaxError:
        raise
    except Exception as exc:
        raise ExprSyntaxError(line, col, str(exc)) from exc


def _parse_domain(stmt: str, line: int, col: int) -> DomainRect:
    m = _DOMAIN_RE.match(stmt)
    if not m:
        raise ExprSyntaxError(line, col, "malformed domain line; expected s0:s1, t0:t1")
    vals = [_parse_float(g, line, col) for g in m.groups()]
    try:
        return DomainRect(*vals)
    except InputMismatchError as exc:
        raise ExprSyntaxError(line, col, str(exc)) from exc


def parse_surface(text: str, name: str = "user_surface") -> SurfaceDefinition:
    """Parse a full surface definition file.

    Unparseable input raises ExprSyntaxError without producing a partial
    definition.
    """
    ambient: AmbientSpace | None = None
    domain: DomainRect | None = None
    components: list[Expr] = []
    for line, col, stmt in _statements(text):
        if stmt.startswith("ambient"):
            if ambient is not None:
                raise ExprSyntaxError(line, col, "duplicate ambient line")
            if components or domain is not None:
                raise ExprSyntaxError(line, col, "ambient must be the first statement")
            ambient = _parse_ambient(stmt, line, col)
            continue
        if ambient is None:
            raise ExprSyntaxError(line, col, "file must start with an ambient line")
        if stmt.startswith("domain"):
            if domain is not None:
                raise ExprSyntaxError(line, col, "duplicate domain line")
            if components:
                raise ExprSyntaxError(line, col, "domain must precede component lines")
            domain = _parse_domain(stmt, line, col)
            continue
        m = _COMPONENT_RE.match(stmt)
        if not m:
            raise ExprSyntaxError(line, col, f"expected 'xK = expression', found {stmt!r}")
        index = int(m.group(2))
        if index != len(components) + 1:
            raise ExprSyntaxError(
                line, col, f"components must appear in order; expected x{len(components) + 1}"
            )
        expr_text = m.group(3)
        expr_col = col + m.start(3)
        components.append(parse_expression(expr_text, line=line, col0=expr_col))
    if ambient is None:
        raise ExprSyntaxError(1, 1, "file must declare an ambient space")
    if len(components) != ambient.embedding_dim:
        raise ExprSyntaxError(
            1,
            1,
            f"component count {len(components)} does not match ambient dimension "
            f"{ambient.embedding_dim}",
        )
    if domain is None:
        domain = DomainRect(-1.0, 1.0, -1.0, 1.0)
    return SurfaceDefinition(name, ambient, tuple(components), domain)
