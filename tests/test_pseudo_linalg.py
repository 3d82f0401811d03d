import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neutralsurf.errors import DegeneracyError, InputMismatchError
from neutralsurf.pseudo_linalg import (
    SPACE_LIKE,
    TIME_LIKE,
    PVector,
    Signature,
    Sym2,
    eigen_sym2,
    inner,
    orthonormalize,
    rotate_sym2,
)
from oracles import LIGHT_LIKE, bits, causal_character

SIG32 = Signature(3, 2 + 3)
SIG22 = Signature(2, 4)


def vec(sig, *coords):
    return PVector(np.array(coords, dtype=float), sig)


def basis(sig, i):
    return PVector(np.eye(sig.total_dim)[i], sig)


class TestInner:
    def test_first_basis_vector_weight(self):
        u = basis(SIG32, 0)
        assert inner(u, u) == -1.0

    def test_hyperbolic_position_vector(self):
        # position of the catalog hyperbolic-plane immersion at the origin
        x = vec(SIG32, -7 / 8, 0.0, 1 / 2, 0.0, -1 / 8)
        assert inner(x, x) == pytest.approx(-1.0, abs=1e-15)

    def test_light_like_cancellation(self):
        u = vec(SIG22, 1.0, 0.0, 1.0, 0.0)
        assert inner(u, u) == 0.0
        assert causal_character(u) == LIGHT_LIKE

    def test_signature_mismatch_rejected(self):
        with pytest.raises(InputMismatchError):
            inner(basis(SIG22, 0), basis(SIG32, 0))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputMismatchError):
            PVector(np.zeros(3), SIG22)


class TestPVectorCoords:
    """Construction keeps float64 arrays and converts anything else."""

    @pytest.mark.parametrize(
        "coords", [np.zeros((2, 3)), np.zeros((2, 5)), [1, 2, 3], np.zeros(0)],
        ids=["2x3", "2x5", "int-list-3", "empty"],
    )
    def test_wrong_trailing_dimension_raises(self, coords):
        with pytest.raises(InputMismatchError, match="does not match signature dim 4"):
            PVector(coords, SIG22)

    @pytest.mark.parametrize(
        "coords",
        [[1, -2, 3, 4], (1, -2, 3, 4), np.array([1, -2, 3, 4]),
         np.array([1.0, -2.0, 3.0, 4.0], dtype=np.float32)],
        ids=["int-list", "int-tuple", "int-array", "float32"],
    )
    def test_other_input_becomes_float64(self, coords):
        v = PVector(coords, SIG22)
        assert type(v.coords) is np.ndarray and v.coords.dtype == np.float64
        assert v.coords.tolist() == [1.0, -2.0, 3.0, 4.0]
        assert inner(v, v) == -1.0 - 4.0 + 9.0 + 16.0

    def test_float64_batch_is_kept_as_given(self):
        coords = np.arange(8.0).reshape(2, 4)
        assert PVector(coords, SIG22).coords is coords


class TestPVectorScale:
    """A float scales the coordinates directly, bit for bit as the broadcast product."""

    COORDS = [0.1, -2.5e-7, -0.0, 3.0e5]

    @pytest.mark.parametrize(
        "scalar",
        [0.37, -1.0 / 3.0, -0.0, np.float64(-2.2e-9), np.float64(7.5),
         inner(vec(SIG22, 0.3, -1.1, 0.7, 2.9), vec(SIG22, -0.2, 0.4, 1.3, 0.6)),
         np.asarray(1.7), 2],
        ids=["float", "third", "minus-zero", "np-tiny", "np-float64", "inner", "0-d-array", "int"],
    )
    @pytest.mark.parametrize("shape", [(4,), (1, 4)], ids=["vector", "batch-of-1"])
    def test_matches_broadcast_product(self, scalar, shape):
        v = PVector(np.reshape(self.COORDS, shape), SIG22)
        want = bits(v.coords * np.asarray(scalar, dtype=float)[..., None])
        assert bits((v * scalar).coords) == want
        assert bits((scalar * v).coords) == want


coords5 = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=5, max_size=5
)


class TestEuclidNorm:
    @pytest.mark.parametrize("sig", [SIG22, SIG32], ids=["dim4", "dim5"])
    @pytest.mark.parametrize("shape", [(), (7,), (3, 1206)])
    def test_within_two_ulp_of_a_last_axis_reduction(self, sig, shape):
        # the norm sums the squares by one matvec against ones, in another
        # order than np.linalg.norm's reduction: a few ulp apart at most
        coords = np.random.default_rng(3).normal(size=shape + (sig.total_dim,))
        got, want = PVector(coords, sig).euclid_norm(), np.linalg.norm(coords, axis=-1)
        assert np.shape(got) == shape
        assert np.all(np.abs(got - want) <= 2 * np.spacing(want))


class TestInnerProperties:
    @given(coords5, coords5)
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, a, b):
        u, v = vec(SIG32, *a), vec(SIG32, *b)
        assert inner(u, v) == pytest.approx(inner(v, u), abs=1e-9)

    @given(coords5, coords5, coords5, st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=200, deadline=None)
    def test_bilinearity(self, a, b, c, lam, mu):
        u, v, w = vec(SIG32, *a), vec(SIG32, *b), vec(SIG32, *c)
        lhs = inner(lam * u + mu * v, w)
        rhs = lam * inner(u, w) + mu * inner(v, w)
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-9 * scale

    @given(coords5, st.floats(min_value=0.01, max_value=100))
    @settings(max_examples=200, deadline=None)
    def test_causal_character_scale_invariant(self, a, lam):
        u = vec(SIG32, *a)
        if np.allclose(a, 0):
            return
        for scaled in (lam * u, -lam * u):
            assert causal_character(scaled) == causal_character(u)


class TestOrthonormalize:
    def test_already_orthonormal_time_like_pair(self):
        e0, e1 = basis(SIG22, 0), basis(SIG22, 1)
        out = orthonormalize([e0, e1], [TIME_LIKE, TIME_LIKE])
        assert np.allclose(out[0].coords, e0.coords)
        assert np.allclose(out[1].coords, e1.coords)

    def test_classical_gram_schmidt(self):
        v1 = vec(SIG22, 0, 0, 1, 0)
        v2 = vec(SIG22, 0, 0, 1, 1)
        out = orthonormalize([v1, v2], [SPACE_LIKE, SPACE_LIKE])
        assert np.allclose(out[0].coords, [0, 0, 1, 0])
        assert np.allclose(out[1].coords, [0, 0, 0, 1])

    def test_hyperbolic_immersion_tangents(self):
        # partials of the explicit hyperbolic-plane immersion at the origin,
        # via an independent finite-difference oracle on the raw formulas
        r3 = math.sqrt(3.0)

        def chart(s, t):
            e = math.exp(2 * s / r3)
            sh = math.sinh(2 * s / r3)
            return np.array(
                [
                    sh - t * t / 3 - (7 / 8 + t ** 4 / 18) * e,
                    t + (t ** 3 / 3 - t / 4) * e,
                    0.5 + t * t / 2 * e,
                    t + (t ** 3 / 3 + t / 4) * e,
                    sh - t * t / 3 - (1 / 8 + t ** 4 / 18) * e,
                ]
            )

        h = 1e-6
        vs = vec(SIG32, *((chart(h, 0) - chart(-h, 0)) / (2 * h)))
        vt = vec(SIG32, *((chart(0, h) - chart(0, -h)) / (2 * h)))
        out = orthonormalize([vs, vt], [SPACE_LIKE, SPACE_LIKE])
        assert inner(out[0], out[0]) == pytest.approx(1.0, abs=1e-9)
        assert inner(out[1], out[1]) == pytest.approx(1.0, abs=1e-9)
        assert inner(out[0], out[1]) == pytest.approx(0.0, abs=1e-9)

    def test_light_like_remainder_rejected(self):
        u = vec(SIG22, 1, 0, 1, 0)  # light-like
        with pytest.raises(DegeneracyError):
            orthonormalize([u], [SPACE_LIKE])

    def test_wrong_character_rejected(self):
        with pytest.raises(DegeneracyError):
            orthonormalize([basis(SIG22, 0)], [SPACE_LIKE])

    def test_randomized_output_orthonormality(self):
        rng = np.random.default_rng(11)
        sig = SIG22
        done = 0
        while done < 50:
            mat = rng.normal(size=(4, 4))
            chars = [TIME_LIKE, TIME_LIKE, SPACE_LIKE, SPACE_LIKE]
            vectors = [
                vec(sig, *(mat[i] + (2.0 if i < 2 else 0.0) * np.eye(4)[i]))
                for i in range(4)
            ]
            try:
                out = orthonormalize(vectors, chars)
            except DegeneracyError:
                continue
            done += 1
            signs = [-1.0, -1.0, 1.0, 1.0]
            for i, u in enumerate(out):
                for j, v in enumerate(out):
                    want = signs[i] if i == j else 0.0
                    assert abs(inner(u, v) - want) <= 1e-12 * max(
                        1.0, u.euclid_norm() * v.euclid_norm()
                    )


class TestEigenSym2:
    def test_diagonal(self):
        (l1, l2), theta = eigen_sym2(Sym2(2.0, 0.0, 1.0))
        assert (l1, l2) == (2.0, 1.0)
        assert theta == 0.0

    def test_offdiagonal(self):
        (l1, l2), theta = eigen_sym2(Sym2(0.0, 1.0, 0.0))
        assert (l1, l2) == pytest.approx((1.0, -1.0))
        assert theta == pytest.approx(math.pi / 4)

    def test_repeated_eigenvalue(self):
        (l1, l2), theta = eigen_sym2(Sym2(3.0, 0.0, 3.0))
        assert l1 == l2 == 3.0
        assert theta == 0.0

    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=300, deadline=None)
    def test_reconstruction_and_invariants(self, a11, a12, a22):
        m = Sym2(a11, a12, a22)
        (l1, l2), theta = eigen_sym2(m)
        assert l1 >= l2
        assert 0.0 <= theta < math.pi
        diag = rotate_sym2(m, theta)
        scale = max(1.0, abs(l1), abs(l2))
        assert abs(diag.a11 - l1) <= 1e-12 * scale
        assert abs(diag.a22 - l2) <= 1e-12 * scale
        assert abs(diag.a12) <= 1e-12 * scale
        assert abs(l1 + l2 - m.trace) <= 1e-12 * scale
        assert abs(l1 * l2 - m.det) <= 1e-12 * scale * scale
