import math
import operator
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neutralsurf import jets
from neutralsurf.catalog import catalog_get, from_definition
from neutralsurf.curvature import _FD_STEP, _nested_stencil
from neutralsurf.errors import SingularityError
from neutralsurf.expr import eval_on_jets, parse_expression, parse_surface
from neutralsurf.jets import (
    FUNCTIONS,
    Jet2,
    jcosh,
    jexp,
    jlog,
    jpow,
    jsinh,
    jsqrt,
    jtan,
    seed,
)
import oracles
from oracles import bits, catalog_reference, finite_difference_jet, sample_points

FIELDS = ("val", "d_s", "d_t", "d_ss", "d_st", "d_tt")


def assert_jets_close(a: Jet2, b: Jet2, tol: float):
    for name in FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert abs(x - y) <= tol * max(1.0, abs(x), abs(y)), (name, x, y)


class TestArithmetic:
    def test_product_rule(self):
        s, t = seed(2.0, 3.0)
        p = s * t
        assert (p.val, p.d_s, p.d_t, p.d_ss, p.d_st, p.d_tt) == (6, 3, 2, 0, 1, 0)

    def test_self_division_is_one(self):
        s, _ = seed(1.7, 0.0)
        a = s * s + 3.0
        q = a / a
        assert_jets_close(q, Jet2.constant(1.0), 1e-15)

    def test_polynomial_against_finite_differences(self):
        def f(s, t):
            return s * s * t

        fd = finite_difference_jet(f, 1.0, 2.0, h=1e-4)
        s, t = seed(1.0, 2.0)
        assert_jets_close(s * s * t, fd, 1e-6)

    def test_division_by_zero_raises(self):
        s, t = seed(0.0, 1.0)
        with pytest.raises(SingularityError):
            t / s

    @pytest.mark.parametrize(
        "op", [operator.add, operator.sub, operator.mul, operator.truediv, operator.pow]
    )
    def test_foreign_operand_raises_type_error(self, op):
        with pytest.raises(TypeError):
            op(Jet2(1.0), "a")
        with pytest.raises(TypeError):
            op("a", Jet2(1.0))


def field_bits(x) -> tuple:
    """A jet field's type and bits: a float stays a structural constant only as a float."""
    return type(x), bits(x)


# jet fields: structural 0.0, -0.0 and 1.0 floats, other floats, 0-d values
# (numpy scalars and 0-d arrays), and arrays holding zeros of both signs
SUB_FIELDS = [
    0.0, -0.0, 1.0, -1.0, 0.375,
    np.float64(0.0), np.float64(-0.0), np.float64(1.0), np.array(-0.0), np.array(2.5),
    np.array([0.0, -0.0, 1.0, -3.25]), np.array([-0.0, 0.0, -1.0, 0.0]),
]
# what a jet is subtracted from or subtracts: numbers, ints among them, and arrays
SUB_OPERANDS = SUB_FIELDS + [0, 1, -2, np.array([0, 1, -1, 2])]


class TestSubtraction:
    """A jet difference is one rule per field; its fields keep the types and
    bits of the sum with the negated operand."""

    @staticmethod
    def jet(x, y):
        # x in the value and second partials, y in the first partials
        return Jet2(x, y, y, x, y, x)

    @pytest.mark.parametrize("x", range(len(SUB_FIELDS)))
    def test_jet_minus_jet_is_the_sum_with_the_negated_jet(self, x):
        for y in SUB_FIELDS:
            for z in SUB_FIELDS:
                a, b = self.jet(SUB_FIELDS[x], y), self.jet(z, SUB_FIELDS[x])
                for got, want in ((a - b, a + (-b)), (b - a, b + (-a)), (a - a, a + (-a))):
                    assert [field_bits(getattr(got, f)) for f in FIELDS] == [
                        field_bits(getattr(want, f)) for f in FIELDS
                    ], (x, y, z)

    @pytest.mark.parametrize("c", range(len(SUB_OPERANDS)))
    def test_a_number_or_array_and_a_jet(self, c):
        c = SUB_OPERANDS[c]
        for x in SUB_FIELDS:
            for y in SUB_FIELDS:
                a = self.jet(x, y)
                for got, want in ((c - a, (-a) + c), (a - c, a + (-c))):
                    assert [field_bits(getattr(got, f)) for f in FIELDS] == [
                        field_bits(getattr(want, f)) for f in FIELDS
                    ], (c, x, y)

    def test_sinh_and_cosh_evaluate_each_function_once(self, monkeypatch):
        calls = []
        for name in ("sinh", "cosh"):
            monkeypatch.setattr(np, name, lambda v, f=getattr(np, name), n=name: calls.append(n) or f(v))
        a = Jet2.var_s(np.array([0.25, -0.5]))
        for fn in (jsinh, jcosh):
            calls.clear()
            fn(a)
            assert sorted(calls) == ["cosh", "sinh"]


class TestFunctions:
    def test_exp_of_zero_seed(self):
        e = jexp(Jet2.var_s(0.0))
        assert (e.val, e.d_s, e.d_ss) == (1.0, 1.0, 1.0)

    def test_sinh_at_zero(self):
        sh = jsinh(Jet2.var_s(0.0))
        assert (sh.val, sh.d_s, sh.d_ss) == (0.0, 1.0, 0.0)

    def test_exponential_growth_term(self):
        r3 = math.sqrt(3.0)

        def f(s, t):
            return math.exp(2 * s / r3)

        fd = finite_difference_jet(f, 0.5, 0.0, h=1e-4)
        s, _ = seed(0.5, 0.0)
        assert_jets_close(jexp((2.0 / r3) * s), fd, 1e-6)

    def test_log_sqrt_tan_domains(self):
        s, _ = seed(-1.0, 0.0)
        with pytest.raises(SingularityError):
            jlog(s)
        with pytest.raises(SingularityError):
            jsqrt(s)
        near_pole, _ = seed(math.pi / 2, 0.0)
        assert abs(jtan(near_pole).val) > 1e10

    def test_integer_power_unrolled_exactly(self):
        s, _ = seed(1.3, 0.0)
        assert_jets_close(jpow(s, 3), s * s * s, 0.0)
        assert_jets_close(jpow(s, -2), 1.0 / (s * s), 1e-15)
        # integer powers accept negative bases
        m, _ = seed(-1.5, 0.0)
        assert jpow(m, 2).val == pytest.approx(2.25)

    def test_fractional_power(self):
        def f(s, t):
            return s ** 2.5

        fd = finite_difference_jet(f, 1.7, 0.0, h=1e-4)
        s, _ = seed(1.7, 0.0)
        assert_jets_close(jpow(s, 2.5), fd, 1e-6)
        neg, _ = seed(-1.0, 0.0)
        with pytest.raises(SingularityError):
            jpow(neg, 2.5)

    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    def test_every_function_matches_finite_differences(self, name):
        jet_fn = FUNCTIONS[name]
        scalar = {
            "exp": math.exp, "sinh": math.sinh, "cosh": math.cosh,
            "sin": math.sin, "cos": math.cos, "tan": math.tan,
            "log": math.log, "sqrt": math.sqrt,
        }[name]

        def f(s, t):
            return scalar(0.4 * s + 0.3 * t * t + 0.9)

        fd = finite_difference_jet(f, 0.35, -0.2, h=1e-4)
        s, t = seed(0.35, -0.2)
        assert_jets_close(jet_fn(0.4 * s + 0.3 * t * t + 0.9), fd, 1e-5)


class TestScalarProduct:
    """Jet2 * x lifts x to its constant jet and runs the jet product rule:
    the constant's zero partials are structural and their terms skipped."""

    SCALARS = [3, -2, 0.375, -1.25, np.float64(-0.7), np.float64(2.5)]
    # one node and a batch of four; every field of the jet is nonzero
    NODES = [(0.35, -0.2), (np.array([0.35, -0.4, 0.1, 0.8]), np.array([-0.2, 0.3, 0.9, -0.6]))]

    @staticmethod
    def generic(s, t) -> list[Jet2]:
        """A polynomial jet (Python float fields at a node) and an exp jet (numpy floats)."""
        js, jt = seed(s, t)
        poly = js * js * jt + js * jt * jt + js + jt
        return [poly, jexp(0.4 * js * jt + 0.3 * js * js - 0.2 * jt * jt + 0.9 * js - 0.5 * jt)]

    @pytest.mark.parametrize("x", SCALARS, ids=repr)
    @pytest.mark.parametrize("node", range(len(NODES)), ids=["node", "batch"])
    def test_equals_product_with_constant(self, x, node):
        for a in self.generic(*self.NODES[node]):
            scaled = [getattr(a, name) * float(x) for name in FIELDS]
            for got in (a * x, x * a, a * Jet2.constant(x)):
                for name, want in zip(FIELDS, scaled):
                    assert bits(getattr(got, name)) == bits(want), (x, name)
                    assert type(getattr(got, name)) is type(want), (x, name)

    def test_a_float_product_that_underflows(self):
        # the constant jet's structural zero partials turn a float -0.0 partial
        # into 0.0; the value keeps its sign
        a = Jet2(1e-200, -1e-200, 1e-200, -1e-200, 2.5, 1.0)
        for x in (1e-200, -1e-200, np.float64(-1e-200)):
            want = a * Jet2.constant(x)
            assert math.copysign(1.0, want.val) == (-1.0 if x < 0 else 1.0)
            for got in (a * x, x * a):
                assert [field_bits(getattr(got, f)) for f in FIELDS] == [
                    field_bits(getattr(want, f)) for f in FIELDS
                ], x

    @pytest.mark.parametrize("x", SCALARS, ids=repr)
    def test_zero_partials_equal_up_to_their_sign(self, x):
        # the seeds' zero and one partials are structural: the product skips
        # them whether x is lifted or not, so a zero partial stays a scalar
        # 0.0 and keeps its sign, and the scalar and lifted products agree
        # in bits and in type, not only up to the sign of a zero
        s, t = seed(np.array([-0.5, 0.0, 0.5]), np.array([0.25, -0.75, 0.0]))
        for a in (s, t, s * t):
            lifted = a * Jet2.constant(x)
            for got in (a * x, x * a):
                for name in FIELDS:
                    assert bits(getattr(got, name)) == bits(getattr(lifted, name)), (x, name)
                    assert type(getattr(got, name)) is type(getattr(lifted, name)), (x, name)
            zeros = [name for name in FIELDS if not np.any(getattr(a, name))]
            assert all(type(getattr(lifted, name)) is float for name in zeros), x


class TestStructuralFields:
    """Fields that are the Python floats 0.0 and 1.0 are structural: the
    rules skip the terms they zero and drop the factors they make one.
    For finite fields that leaves every value the full rules give, which
    is what the same jets with every field an array give."""

    SHAPE = (3,)
    _number = st.one_of(
        st.integers(-16, 16).map(lambda k: k / 8.0),
        st.floats(-2.0, 2.0).filter(lambda x: abs(x) > 0.1),
    )
    _field = st.one_of(
        st.just(0.0), st.just(1.0), st.lists(_number, min_size=3, max_size=3).map(np.array)
    )
    jets = st.builds(Jet2, _field, _field, _field, _field, _field, _field)

    @classmethod
    def lifted(cls, a: Jet2) -> Jet2:
        return Jet2(*(np.full(cls.SHAPE, getattr(a, f), dtype=float) for f in FIELDS))

    @classmethod
    def assert_same_values(cls, op, *jets):
        try:
            got = op(*jets)
        except SingularityError as exc:
            with pytest.raises(SingularityError, match=f"^{re.escape(str(exc))}$"):
                op(*map(cls.lifted, jets))
            return
        want = op(*map(cls.lifted, jets))
        for name in FIELDS:
            # a jet power of 0 is the constant 1 at any shape
            field, full = (np.broadcast_to(getattr(j, name), cls.SHAPE) for j in (got, want))
            assert np.array_equal(field, full), (name, field, full)

    @given(jets, jets, st.sampled_from([operator.add, operator.sub, operator.mul, operator.truediv]))
    @settings(max_examples=150, deadline=None)
    def test_ring_operations(self, a, b, op):
        self.assert_same_values(op, a, b)

    @given(jets, st.integers(-3, 4))
    @settings(max_examples=60, deadline=None)
    def test_integer_powers(self, a, n):
        self.assert_same_values(lambda x: jpow(x, n), a)

    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    @given(a=jets)
    @settings(max_examples=40, deadline=None)
    def test_functions(self, name, a):
        self.assert_same_values(FUNCTIONS[name], a)


class TestArrayJets:
    """A batch of nodes gives what each node gives on its own."""

    S = np.linspace(-0.5, 0.5, 7)
    T = np.linspace(0.4, -0.3, 7)

    @pytest.mark.parametrize(
        "text",
        [f"{name}(0.4*s + 0.3*t*t + 0.9)" for name in sorted(FUNCTIONS)] + ["pow(s + 1, t)"],
    )
    def test_batch_matches_pointwise(self, text):
        ast = parse_expression(text)
        batch = eval_on_jets(ast, *seed(self.S, self.T))
        for k, (s, t) in enumerate(zip(self.S, self.T)):
            point = eval_on_jets(ast, *seed(s, t))
            for name in FIELDS:
                got = np.broadcast_to(getattr(batch, name), self.S.shape)[k]
                assert got == getattr(point, name), (text, name, k)

    def test_log_domain_error_names_first_node_and_expression(self):
        ast = parse_expression("s + log(s)")
        s = np.array([0.5, -0.2, 0.3, -1.0])
        with pytest.raises(SingularityError, match=r"^1:5: log of non-positive value -0\.2$"):
            eval_on_jets(ast, *seed(s, np.zeros(4)))


CATALOG_SPECS = [
    ("phi_h42", {}),
    ("flat_L", {}),
    ("totally_geodesic_h42", {}),
    ("holomorphic_graph", {"f": "z^2/2"}),
    ("umbilical_flat", {}),
    ("random_polynomial", {"seed": 3}),
]


@pytest.mark.parametrize("name,params", CATALOG_SPECS)
def test_catalog_jets_match_finite_differences(name, params):
    """First and second partials of every built-in agree with a 9-point
    central-difference oracle at 100 random domain points."""
    imm = catalog_get(name, params)
    rng = np.random.default_rng(7)
    h = 1e-4
    dim = imm.ambient.embedding_dim
    for s, t in sample_points(imm.domain, rng, 100):
        stencil = {
            (ds, dt): imm.evaluate(s + ds * h, t + dt * h)
            for ds in (-1, 0, 1)
            for dt in (-1, 0, 1)
        }
        jp = stencil[(0, 0)]
        for k in range(dim):
            def val(ds, dt):
                return stencil[(ds, dt)].components[k].val

            jet = jp.components[k]
            fd = Jet2(
                val=val(0, 0),
                d_s=(val(1, 0) - val(-1, 0)) / (2 * h),
                d_t=(val(0, 1) - val(0, -1)) / (2 * h),
                d_ss=(val(1, 0) - 2 * val(0, 0) + val(-1, 0)) / (h * h),
                d_st=(val(1, 1) - val(1, -1) - val(-1, 1) + val(-1, -1)) / (4 * h * h),
                d_tt=(val(0, 1) - 2 * val(0, 0) + val(0, -1)) / (h * h),
            )
            assert_jets_close(jet, fd, 1e-5)


def dense_seed(s, t) -> tuple[Jet2, Jet2]:
    """The coordinate jets with every partial an array over the nodes."""
    ones, zeros = np.ones(np.shape(s)), np.zeros(np.shape(s))
    return (
        Jet2(np.asarray(s, float), ones, zeros, zeros, zeros, zeros),
        Jet2(np.asarray(t, float), zeros, ones, zeros, zeros, zeros),
    )


SURFACE_FILE = Path(__file__).resolve().parent.parent / "bench" / "data" / "phi_h42.txt"


@pytest.mark.parametrize("name,params", CATALOG_SPECS + [("definition_file", {})])
def test_catalog_tables_equal_dense_seed_tables(monkeypatch, name, params):
    """Every surface's JetPoint table at a node, a nested stencil and a 33x33
    grid holds the values of an evaluation whose seeds have array partials:
    the compiled file's with its own jets, a catalog surface's with its Jet2
    reference (oracles.catalog_reference)."""
    if name == "definition_file":
        imm = dense = from_definition(parse_surface(SURFACE_FILE.read_text()))
        seeds = jets
    else:
        imm, dense, seeds = catalog_get(name, params), catalog_reference(name, params), oracles
    ss, ts = imm.domain.grid(33, 33)
    node = (float(ss[11]), float(ts[20]))
    batches = [node, _nested_stencil(node, _FD_STEP), np.meshgrid(ss, ts, indexing="ij")]
    structural = [imm.evaluate(*p).table for p in batches]
    # the dense evaluation must reach the patched seeds, or it repeats the first
    calls = []
    monkeypatch.setattr(seeds, "seed", lambda s, t: calls.append(np.shape(s)) or dense_seed(s, t))
    for p, table in zip(batches, structural):
        assert np.array_equal(table, dense.evaluate(*p).table), np.shape(p[0])
    assert len(calls) == len(batches)
