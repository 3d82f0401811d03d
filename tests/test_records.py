"""The record types: constructors, repr, value equality and validation messages."""

import ast
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

from neutralsurf.ambient import AmbientSpace, DomainRect
from neutralsurf.catalog import CatalogEntry, Immersion, JetPoint, MetricCoeffs
from neutralsurf.curvature import (
    CanonicalFrame,
    ConnectionSample,
    CurvatureReport,
    EllipseInfo,
    FrameData,
    SecondFF,
)
from neutralsurf.errors import InputMismatchError
from neutralsurf.expr import (
    BinOp,
    Call,
    Neg,
    Num,
    SurfaceDefinition,
    Var,
    _Token,
    parse_expression,
)
from neutralsurf.fields import GridField, LaplacianReport, SurfaceSample
from neutralsurf.pseudo_linalg import Signature, Sym2
from neutralsurf.records import Record

REQUIRED = inspect.Parameter.empty

# class -> its constructor parameters in order, with their defaults
CONSTRUCTORS = {
    Signature: [("negative_count", REQUIRED), ("total_dim", REQUIRED)],
    Sym2: [("a11", REQUIRED), ("a12", REQUIRED), ("a22", REQUIRED)],
    AmbientSpace: [("kind", REQUIRED), ("signature", REQUIRED), ("curvature", REQUIRED)],
    DomainRect: [(name, REQUIRED) for name in ("s0", "s1", "t0", "t1")],
    JetPoint: [("ambient", REQUIRED), ("table", REQUIRED)],
    MetricCoeffs: [("E", REQUIRED), ("F", REQUIRED), ("G", REQUIRED)],
    # params and expected default to a new empty dict per instance
    Immersion: [("name", REQUIRED), ("ambient", REQUIRED), ("evaluator", REQUIRED),
                ("domain", REQUIRED), ("params", None), ("expected", None)],
    CatalogEntry: [(name, REQUIRED) for name in ("name", "builder", "param_schema", "note")],
    Num: [("value", REQUIRED), ("line", 0), ("col", 0)],
    Var: [("name", REQUIRED), ("line", 0), ("col", 0)],
    Neg: [("operand", REQUIRED), ("line", 0), ("col", 0)],
    BinOp: [("op", REQUIRED), ("left", REQUIRED), ("right", REQUIRED), ("line", 0), ("col", 0)],
    Call: [("fn", REQUIRED), ("args", REQUIRED), ("line", 0), ("col", 0)],
    SurfaceDefinition: [(name, REQUIRED) for name in ("name", "ambient", "components", "domain")],
    _Token: [("kind", REQUIRED), ("text", REQUIRED), ("line", REQUIRED), ("col", REQUIRED),
             ("value", 0.0)],
    SecondFF: [("h11", REQUIRED), ("h12", REQUIRED), ("h22", REQUIRED)],
    FrameData: [(name, REQUIRED) for name in ("e1", "e2", "metric", "jets", "gram_schmidt")]
    + [("normals", None)],
    CanonicalFrame: [(name, REQUIRED) for name in
                     ("alpha", "gamma", "delta", "mu", "theta", "rho", "residual")]
    + [("flip", False)],
    EllipseInfo: [(name, REQUIRED) for name in ("a", "b", "center", "is_circle", "is_point")],
    ConnectionSample: [(name, REQUIRED) for name in ("w12_e1", "w12_e2", "w34_e1", "w34_e2")],
    CurvatureReport: [(name, REQUIRED) for name in ("A3", "A4", "H", "H2", "K", "KD", "defect")]
    + [(name, None) for name in ("canonical", "ellipse", "frames", "h")],
    GridField: [(name, REQUIRED) for name in ("domain", "nx", "ny", "values", "E", "F", "G")]
    + [("quantity", "value")],
    SurfaceSample: [(name, REQUIRED) for name in (
        "imm", "domain", "nx", "ny", "K", "KD", "H2", "defect", "E", "F", "G",
        "H_norm", "h_max", "ellipse_circle", "ellipse_point",
    )],
    LaplacianReport: [(name, REQUIRED) for name in
                      ("quantity", "domain", "nx", "ny", "margin", "laplacian")]
    + [("lhs", None), ("rhs", None), ("residual", None), ("threshold", 1e-3)],
}


@pytest.mark.parametrize("cls", CONSTRUCTORS, ids=lambda cls: cls.__name__)
def test_constructor_parameters_and_repr_fields(cls):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == CONSTRUCTORS[cls]
    assert cls._fields == tuple(name for name, _ in CONSTRUCTORS[cls])
    # every class up to object declares __slots__, so instances carry no __dict__
    assert all("__slots__" in vars(k) for k in cls.__mro__[:-1])


# the constructors that do more than copy their parameters into slots
KEPT = (Signature, AmbientSpace, DomainRect, Immersion, FrameData, CurvatureReport, GridField)
SRC = Path(__file__).resolve().parent.parent / "src" / "neutralsurf"


class _Local(Record):
    __slots__ = _fields = ("a", "b", "c")
    _defaults = {"b": 1, "c": None}


def test_generated_constructor_takes_fields_and_defaults():
    params = inspect.signature(_Local).parameters.values()
    assert [(p.name, p.default) for p in params] == [("a", REQUIRED), ("b", 1), ("c", None)]
    assert repr(_Local(0)) == "_Local(a=0, b=1, c=None)"
    assert repr(_Local("x", c=2.5)) == "_Local(a='x', b=1, c=2.5)"
    assert _Local.__init__.__qualname__ == "_Local.__init__"
    assert _Local.__init__.__module__ == __name__


@pytest.mark.parametrize("cls", CONSTRUCTORS, ids=lambda cls: cls.__name__)
def test_missing_argument_names_the_constructor(cls):
    with pytest.raises(TypeError, match=rf"^{cls.__qualname__}\.__init__\(\) missing "):
        cls()


def test_kept_constructors_are_the_classes_own():
    own = {cls for cls in CONSTRUCTORS if cls.__init__.__code__.co_filename == inspect.getsourcefile(cls)}
    assert own == set(KEPT)


def copy_only_inits(src: Path) -> list[str]:
    """The Record subclasses in src/*.py whose __init__ only copies its
    parameters into the slots of the same names."""
    classes = [node for path in sorted(src.glob("*.py")) for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.ClassDef)]
    records, size = {"Record"}, 0
    while len(records) != size:
        size = len(records)
        records |= {c.name for c in classes if any(ast.unparse(b) in records for b in c.bases)}
    found = []
    for c in classes:
        inits = [fn for fn in c.body if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"]
        if c.name in records and inits:
            args = inits[0].args
            copies = {f"self.{a.arg} = {a.arg}" for a in [*args.posonlyargs, *args.args, *args.kwonlyargs][1:]}
            body = inits[0].body[1:] if ast.get_docstring(inits[0]) else inits[0].body
            if all(ast.unparse(st) in copies for st in body):
                found.append(c.name)
    return found


def test_no_record_writes_a_copy_only_constructor():
    # such a constructor restates _fields: leave __init__ out and let Record build it
    assert copy_only_inits(SRC) == []


def test_copy_only_scan_finds_a_copying_record_subclass(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Base(Record):\n    pass\n"
        "class Plain:\n    def __init__(self, a):\n        self.a = a\n"
        "class Checks(Record):\n    def __init__(self, a):\n        if a < 0:\n            raise ValueError\n"
        "        self.a = a\n"
    )
    (tmp_path / "b.py").write_text(
        'class Copies(Base):\n    def __init__(self, a, *, b=0):\n        """Doc."""\n'
        "        self.a = a\n        self.b = b\n"
    )
    assert copy_only_inits(tmp_path) == ["Copies"]


def test_repr_lists_fields_in_order():
    assert repr(Sym2(1.0, -2.0, 0.5)) == "Sym2(a11=1.0, a12=-2.0, a22=0.5)"
    assert repr(Signature(2, 4)) == "Signature(negative_count=2, total_dim=4)"
    assert repr(Num(2.0, line=3, col=7)) == "Num(value=2.0, line=3, col=7)"


def test_immersion_defaults_are_fresh_dicts():
    a = Immersion("a", AmbientSpace.flat(), None, DomainRect(0, 1, 0, 1))
    b = Immersion("b", AmbientSpace.flat(), None, DomainRect(0, 1, 0, 1))
    assert a.params == {} and a.expected == {}
    assert a.params is not b.params and a.expected is not b.expected


class TestValueEquality:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: Signature(2, 4),
            lambda: AmbientSpace.pseudo_hyperbolic(-1.0),
            lambda: AmbientSpace.flat(),
            lambda: DomainRect(-1.0, 1.0, -0.5, 0.5),
            lambda: ConnectionSample(0.25, -1.5, 0.0, 3.0),
        ],
        ids=["signature", "hyperbolic", "flat", "domain", "connection"],
    )
    def test_equal_by_value_and_hash(self, make):
        a, b = make(), make()
        assert a is not b
        assert a == b and not (a != b)
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_different_values_differ(self):
        assert Signature(2, 4) != Signature(3, 5)
        assert AmbientSpace.pseudo_hyperbolic(-1.0) != AmbientSpace.pseudo_hyperbolic(-0.5)
        assert AmbientSpace.pseudo_sphere(1.0) != AmbientSpace.pseudo_hyperbolic(-1.0)
        assert DomainRect(0, 1, 0, 1) != DomainRect(0, 1, 0, 2)
        assert ConnectionSample(0.0, 1.0, 2.0, 3.0) != ConnectionSample(0.0, 1.0, 2.0, -3.0)
        # no equality across types, even with equal fields
        assert Num(1.0) != Var(1.0)
        assert Signature(2, 4) != (2, 4)

    def test_ast_equality_ignores_position(self):
        assert Num(2.0, line=1, col=5) == Num(2.0, line=4, col=9)
        assert hash(Num(2.0, line=1, col=5)) == hash(Num(2.0))
        a = parse_expression("sinh(2*s) - pow(t, 3)")
        b = parse_expression("   sinh(2*s) -   pow(t,3)", line=7, col0=12)
        assert (a.line, a.col) != (b.line, b.col)
        assert a == b and hash(a) == hash(b)
        assert a != parse_expression("sinh(2*s) - pow(t, 2)")
        assert Neg(Var("s", 1, 1)) == Neg(Var("s"))
        assert BinOp("+", Num(1.0), Var("t")) != BinOp("-", Num(1.0), Var("t"))
        assert Call("exp", (Var("s"),)) != Call("sinh", (Var("s"),))


class TestValidationMessages:
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Signature(0, 1), "total_dim must be >= 2, got 1"),
            (lambda: Signature(5, 4), "negative_count 5 outside [0, 4]"),
            (lambda: AmbientSpace("flat", Signature(2, 5), 0.0),
             "invalid ambient: kind=flat, signature=(2,3), c=0.0"),
            (lambda: AmbientSpace("pseudo_sphere", Signature(2, 5), -1.0),
             "invalid ambient: kind=pseudo_sphere, signature=(2,3), c=-1.0"),
            (lambda: AmbientSpace("round", Signature(2, 4), 0.0), "unknown ambient kind 'round'"),
            (lambda: AmbientSpace.pseudo_hyperbolic(-math.inf),
             "invalid ambient: kind=pseudo_hyperbolic, signature=(3,2), c=-inf"),
            (lambda: AmbientSpace.pseudo_sphere(math.inf),
             "invalid ambient: kind=pseudo_sphere, signature=(2,3), c=inf"),
            (lambda: DomainRect(1.0, 0.0, 0.0, 1.0), "empty domain [1.0,0.0]x[0.0,1.0]"),
            (lambda: DomainRect(0, 1, 2, 2), "empty domain [0,1]x[2,2]"),
            (lambda: DomainRect(float("-inf"), 1.0, -1.0, 1.0),
             "domain bounds and sides must be finite, got [-inf,1.0]x[-1.0,1.0]"),
            (lambda: DomainRect(0.0, 1.0, -1e308, 1e308),
             "domain bounds and sides must be finite, got [0.0,1.0]x[-1e+308,1e+308]"),
            (lambda: GridField(DomainRect(0, 1, 0, 1), 3, 3, np.zeros((3, 3)), np.zeros((3, 2)),
                               np.zeros((3, 3)), np.zeros((3, 3))),
             "E has shape (3, 2), expected (3, 3)"),
        ],
    )
    def test_exact_text(self, make, message):
        with pytest.raises(InputMismatchError) as err:
            make()
        assert str(err.value) == message
