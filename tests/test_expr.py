import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neutralsurf.catalog import catalog_get, from_definition
from neutralsurf.curvature import build_frames
from neutralsurf.errors import DegeneracyError, ExprSyntaxError, SingularityError
from neutralsurf.expr import (
    BinOp,
    Call,
    Neg,
    Num,
    Var,
    compile_jets,
    eval_on_jets,
    parse_expression,
    parse_surface,
)
from neutralsurf.jets import FUNCTIONS, jexp, seed
from oracles import bits, definition_to_text, eval_tree, expr_to_text, sample_points

PHI_FILE = """\
ambient H(3,2; -1)
domain -1:1, -1:1
x1 = sinh(2*s/sqrt(3)) - t^2/3 - (7/8 + t^4/18)*exp(2*s/sqrt(3))
x2 = t + (t^3/3 - t/4)*exp(2*s/sqrt(3))
x3 = 1/2 + t^2/2*exp(2*s/sqrt(3))
x4 = t + (t^3/3 + t/4)*exp(2*s/sqrt(3))
x5 = sinh(2*s/sqrt(3)) - t^2/3 - (1/8 + t^4/18)*exp(2*s/sqrt(3))
"""

JET_FIELDS = ("val", "d_s", "d_t", "d_ss", "d_st", "d_tt")

SURFACE_FILE = Path(__file__).resolve().parent.parent / "bench" / "data" / "phi_h42.txt"


class TestParseSurface:
    def test_degenerate_plane_parses_then_fails_frames(self):
        defn = parse_surface("ambient E(2,2); x1 = s; x2 = t; x3 = s; x4 = t")
        assert len(defn.components) == 4
        imm = from_definition(defn)
        with pytest.raises(DegeneracyError):
            build_frames(imm, (0.1, 0.2))

    def test_phi_transcription_matches_builtin(self):
        defn = parse_surface(PHI_FILE, name="phi_from_file")
        user = from_definition(defn)
        builtin = catalog_get("phi_h42")
        rng = np.random.default_rng(21)
        for s, t in sample_points(builtin.domain, rng, 50):
            a = user.evaluate(s, t)
            b = builtin.evaluate(s, t)
            for ca, cb in zip(a.components, b.components):
                for name in JET_FIELDS:
                    x, y = getattr(ca, name), getattr(cb, name)
                    assert abs(x - y) <= 1e-12 * max(1.0, abs(x), abs(y))

    def test_dangling_operator(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_surface("ambient E(2,2); x1 = s +; x2 = t; x3 = s; x4 = t")
        assert err.value.line == 1
        assert "end of expression" in str(err.value)

    def test_component_count_mismatch(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_surface("ambient E(2,2)\nx1 = s\nx2 = t")
        assert "component count" in str(err.value)

    def test_components_out_of_order(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_surface("ambient E(2,2)\nx1 = s\nx3 = t")
        assert "expected x2" in str(err.value)

    def test_unknown_identifier_located(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_surface("ambient E(2,2)\nx1 = q\nx2 = t\nx3 = s\nx4 = t")
        assert err.value.line == 2
        assert "unknown identifier 'q'" in str(err.value)

    def test_unknown_function(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("foo(s)")

    def test_ambient_forms(self):
        amb = parse_surface("ambient S(2,3; 1)\nx1=s;x2=t;x3=s;x4=t;x5=s").ambient
        assert amb.kind == "pseudo_sphere" and amb.curvature == 1.0
        amb = parse_surface("ambient H(3,2; -0.5)\nx1=s;x2=t;x3=s;x4=t;x5=s").ambient
        assert amb.kind == "pseudo_hyperbolic" and amb.curvature == -0.5
        with pytest.raises(ExprSyntaxError):
            parse_surface("ambient S(3,2; 1)\nx1=s;x2=t;x3=s;x4=t;x5=s")
        with pytest.raises(ExprSyntaxError):
            parse_surface("ambient E(2,2; 1)\nx1=s;x2=t;x3=s;x4=t")
        with pytest.raises(ExprSyntaxError):
            parse_surface("ambient H(3,2; 1)\nx1=s;x2=t;x3=s;x4=t;x5=s")

    @pytest.mark.parametrize(
        "head, message",
        [
            ("H(3,2; -1e400)", "1:1: invalid ambient: kind=pseudo_hyperbolic, signature=(3,2), c=-inf"),
            ("S(2,3; 1e400)", "1:1: invalid ambient: kind=pseudo_sphere, signature=(2,3), c=inf"),
        ],
    )
    def test_a_curvature_that_overflows_is_a_syntax_error(self, head, message):
        # not a surface with K = -inf, whose defect is nan
        with pytest.raises(ExprSyntaxError) as err:
            parse_surface(f"ambient {head}\nx1=s;x2=t;x3=s;x4=t;x5=s")
        assert str(err.value) == message

    def test_domain_line(self):
        defn = parse_surface("ambient E(2,2)\ndomain 0:2, -3:-1\nx1=s;x2=t;x3=s;x4=t")
        assert defn.domain.as_tuple() == (0.0, 2.0, -3.0, -1.0)
        with pytest.raises(ExprSyntaxError) as err:
            parse_surface("ambient E(2,2)\ndomain 2:0, -3:-1\nx1=s;x2=t;x3=s;x4=t")
        assert str(err.value) == "2:1: empty domain [2.0,0.0]x[-3.0,-1.0]"
        # a side that overflows, as DomainRect rejects it, with its line:col
        with pytest.raises(ExprSyntaxError) as err:
            parse_surface("ambient E(2,2)\ndomain -1e308:1e308, -1:1\nx1=s;x2=t;x3=s;x4=t")
        assert str(err.value) == "2:1: domain bounds and sides must be finite, got [-1e+308,1e+308]x[-1.0,1.0]"

    def test_duplicate_headers_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_surface("ambient E(2,2)\nambient E(2,2)\nx1=s;x2=t;x3=s;x4=t")
        with pytest.raises(ExprSyntaxError):
            parse_surface(
                "ambient E(2,2)\ndomain 0:1,0:1\ndomain 0:1,0:1\nx1=s;x2=t;x3=s;x4=t"
            )

    def test_missing_ambient_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_surface("x1 = s")

    def test_no_implicit_multiplication(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("2s")


class TestEvalOnJets:
    def test_literal(self):
        jet = eval_on_jets(parse_expression("3"), *seed(0.4, -0.2))
        assert (jet.val, jet.d_s, jet.d_t) == (3.0, 0.0, 0.0)

    def test_sinh_chain(self):
        jet = eval_on_jets(parse_expression("sinh(2*s/sqrt(3))"), *seed(0.0, 0.0))
        assert jet.val == 0.0
        assert jet.d_s == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-15)

    def test_catalog_round_trip_flat_l(self):
        text = (
            "ambient H(3,2; -1)\n"
            "x1 = cosh(s)/sqrt(2)\n"
            "x2 = cosh(t)/sqrt(2)\n"
            "x3 = 0\n"
            "x4 = sinh(s)/sqrt(2)\n"
            "x5 = sinh(t)/sqrt(2)\n"
        )
        user = from_definition(parse_surface(text))
        builtin = catalog_get("flat_L")
        rng = np.random.default_rng(3)
        for s, t in sample_points(builtin.domain, rng, 25):
            a, b = user.evaluate(s, t), builtin.evaluate(s, t)
            for ca, cb in zip(a.components, b.components):
                for name in JET_FIELDS:
                    x, y = getattr(ca, name), getattr(cb, name)
                    assert abs(x - y) <= 1e-12 * max(1.0, abs(x), abs(y))

    def test_singularity_carries_location(self):
        ast = parse_expression("1/(s - s)")
        with pytest.raises(SingularityError) as err:
            eval_on_jets(ast, *seed(1.0, 1.0))
        assert str(err.value).startswith("1:2:")

    def test_simplified_forms_agree(self):
        pairs = [
            ("s*s*t", "s^2*t"),
            ("(s+t)*(s+t)", "s^2 + 2*s*t + t^2"),
            ("exp(s)*exp(t)", "exp(s+t)"),
        ]
        rng = np.random.default_rng(5)
        for raw, simplified in pairs:
            a_ast, b_ast = parse_expression(raw), parse_expression(simplified)
            for _ in range(20):
                s, t = rng.uniform(-1.5, 1.5, size=2)
                a = eval_on_jets(a_ast, *seed(s, t))
                b = eval_on_jets(b_ast, *seed(s, t))
                for name in JET_FIELDS:
                    x, y = getattr(a, name), getattr(b, name)
                    assert abs(x - y) <= 1e-12 * max(1.0, abs(x), abs(y))


class TestPrecedence:
    def evaluate(self, text, s=2.0, t=3.0):
        return eval_on_jets(parse_expression(text), *seed(s, t)).val

    def test_vectors(self):
        assert self.evaluate("2^3^2") == 64.0  # left-associative power
        assert self.evaluate("-s^2") == -4.0  # power binds over unary minus
        assert self.evaluate("2-3-4") == -5.0
        assert self.evaluate("6/3/2") == 1.0
        assert self.evaluate("2+3*4") == 14.0
        assert self.evaluate("2*3+4") == 10.0
        assert self.evaluate("-s*t") == -6.0
        assert self.evaluate("s^-2") == 0.25
        assert self.evaluate("pow(s, 3)") == 8.0
        assert self.evaluate("pi", 0, 0) == math.pi

    def test_structures(self):
        ast = parse_expression("-s*t")
        assert isinstance(ast, BinOp) and ast.op == "*"
        assert isinstance(ast.left, Neg)
        ast = parse_expression("-s^2")
        assert isinstance(ast, Neg)
        assert isinstance(ast.operand, BinOp) and ast.operand.op == "^"
        ast = parse_expression("2^3^2")
        assert isinstance(ast.left, BinOp) and ast.left.op == "^"


_ast_leaf = st.one_of(
    st.builds(Num, st.floats(min_value=0, max_value=1e6, allow_nan=False)),
    st.builds(Var, st.sampled_from(["s", "t"])),
)
_ast = st.recursive(
    _ast_leaf,
    lambda children: st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), children, children),
        st.builds(
            Call,
            st.sampled_from(["exp", "sinh", "cosh", "sin", "cos", "sqrt", "log"]),
            st.tuples(children),
        ),
        st.builds(Call, st.just("pow"), st.tuples(children, children)),
    ),
    max_leaves=25,
)


class TestRoundTrip:
    @given(_ast)
    @settings(max_examples=300, deadline=None)
    def test_print_parse_stability(self, ast):
        text = expr_to_text(ast)
        reparsed = parse_expression(text)
        assert reparsed == ast
        assert parse_expression(expr_to_text(reparsed)) == reparsed

    def test_definition_round_trip(self):
        defn = parse_surface(PHI_FILE, name="round")
        text = definition_to_text(defn)
        again = parse_surface(text, name="round")
        assert again.components == defn.components
        assert again.ambient == defn.ambient
        assert again.domain == defn.domain


# every expression this file evaluates, the flat_L file's and the
# definition files' components
EXPRESSIONS = [
    "3", "sinh(2*s/sqrt(3))", "1/(s - s)", "s*s*t", "s^2*t", "(s+t)*(s+t)",
    "s^2 + 2*s*t + t^2", "exp(s)*exp(t)", "exp(s+t)", "2^3^2", "-s^2", "2-3-4",
    "6/3/2", "2+3*4", "2*3+4", "-s*t", "s^-2", "pow(s, 3)", "pi", "s", "t", "0",
    "cosh(s)/sqrt(2)", "cosh(t)/sqrt(2)", "sinh(s)/sqrt(2)", "sinh(t)/sqrt(2)",
]
# a node, a 1-D batch and a 2-D batch, some with s <= 0 for the errors
NODES = [
    (0.7, -0.3),
    (np.linspace(-0.6, 0.9, 7), np.linspace(0.4, -0.8, 7)),
    tuple(np.meshgrid(np.linspace(0.2, 1.4, 3), np.linspace(-0.5, 0.5, 4), indexing="ij")),
]


# trees with small numbers and exponents: a constant exponent unrolls into
# products, a variable one is exp(b log a)
_small = st.builds(Num, st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]))
_jet_tree = st.recursive(
    st.one_of(_small, st.builds(Var, st.sampled_from(["s", "t"]))),
    lambda children: st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/"]), children, children),
        st.builds(
            BinOp,
            st.just("^"),
            children,
            st.one_of(_small, st.builds(Var, st.sampled_from(["s", "t"])), st.just(Neg(Num(2.0)))),
        ),
        st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), st.tuples(children)),
    ),
    max_leaves=12,
)


def jet_outcome(evaluate):
    """The bits of every field of each jet, or the singularity message."""
    try:
        jets = evaluate()
    except SingularityError as exc:
        return str(exc)
    return [[bits(getattr(j, f)) for f in JET_FIELDS] for j in jets]


class TestCompiledProgram:
    """compile_jets shares subtrees and folds constants, and its jets are the
    tree-walker's (oracles.eval_tree) bit for bit."""

    @staticmethod
    def assert_equals_oracle(asts, node):
        js, jt = seed(*node)
        want = jet_outcome(lambda: [eval_tree(a, {"s": js, "t": jt}) for a in asts])
        assert jet_outcome(lambda: compile_jets(asts)(js, jt)) == want
        if len(asts) == 1:
            assert jet_outcome(lambda: [eval_on_jets(asts[0], js, jt)]) == want

    @pytest.mark.parametrize("node", range(len(NODES)), ids=["node", "1-D", "2-D"])
    @pytest.mark.parametrize("text", EXPRESSIONS)
    def test_expression_equals_oracle(self, text, node):
        self.assert_equals_oracle((parse_expression(text),), NODES[node])

    @pytest.mark.parametrize("node", range(len(NODES)), ids=["node", "1-D", "2-D"])
    @pytest.mark.parametrize("text", [PHI_FILE, SURFACE_FILE.read_text()], ids=["PHI_FILE", "phi_h42.txt"])
    def test_definition_file_equals_oracle(self, text, node):
        self.assert_equals_oracle(parse_surface(text).components, NODES[node])

    @given(_jet_tree, st.sampled_from(range(len(NODES))))
    @settings(max_examples=150, deadline=None)
    def test_random_tree_equals_oracle(self, ast, node):
        js, jt = seed(*NODES[node])
        with np.errstate(all="ignore"):
            want = jet_outcome(lambda: [eval_tree(ast, {"s": js, "t": jt})])
            got = jet_outcome(lambda: compile_jets((ast,))(js, jt))
        # a constant subtree raises when it compiles, which can come
        # before a singularity the tree-walker meets first
        if isinstance(want, str):
            assert isinstance(got, str)
        else:
            assert got == want

    def test_shared_exp_runs_once(self, monkeypatch):
        # exp(2*s/sqrt(3)) occurs five times in the file
        calls = []

        def counted(a):
            calls.append(a)
            return jexp(a)

        monkeypatch.setitem(FUNCTIONS, "exp", counted)
        imm = from_definition(parse_surface(SURFACE_FILE.read_text()))
        for node in NODES:
            calls.clear()
            imm.evaluate(*node)
            assert len(calls) == 1

    def test_integer_powers_share_their_products(self):
        # t^2, t^3 and t^4 unroll to the three products t*t, t^2*t, t^3*t
        program = compile_jets([parse_expression(x) for x in ("t^2", "t^3", "t^4", "pow(t, 3)")])
        t2, t3, t4, p3 = program(*seed(0.5, 1.5))
        assert p3 is t3
        assert (t2.val, t3.val, t4.val) == (2.25, 3.375, 5.0625)

    @pytest.mark.parametrize(
        "component,message",
        [
            ("s + 1/(2-2)", "^4:11: division by a jet with zero value$"),
            ("s + log(0-1)", "^4:10: log of non-positive value -1.0$"),
            ("s^(1-1) + t/(1-1)", "^4:17: division by a jet with zero value$"),
        ],
    )
    def test_constant_singularity_raises_at_compile_time_with_location(self, component, message):
        text = f"ambient E(2,2)\nx1 = s\nx2 = t\nx3 = {component}\nx4 = t\n"
        defn = parse_surface(text)
        with pytest.raises(SingularityError, match=message):
            from_definition(defn)
