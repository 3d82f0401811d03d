"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with -s to see them).

Criterion 2 carries one mathematically unattainable clause: the flat
product surface has K = KD = H2 = 0 in the ambient of curvature -1, so its
inequality gap is identically 1, never <= 1e-8.  That clause is kept as a
strict expected failure rather than weakened.
"""

import math
import time

import numpy as np
import pytest

from neutralsurf.catalog import catalog_get, from_definition
from neutralsurf.curvature import (
    build_frames,
    canonical_equality_frame,
    codazzi_residual,
    point_report,
    second_fundamental_form,
    shape_operators,
    structure_equation_check,
)
from neutralsurf.errors import ExprSyntaxError, PreconditionError
from neutralsurf.expr import parse_expression, parse_surface
from neutralsurf.fields import (
    sample_surface,
    verify_identity,
)
from neutralsurf.pseudo_linalg import Sym2
from oracles import (
    as_array,
    convergence_ratios,
    ellipse_sweep,
    expr_to_text,
    rotate_pair,
    sample_points,
    wintgen_defect_formula,
)

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


def report(number, detail):
    print(f"ACCEPTANCE {number}: PASS - {detail}")


def test_criterion_01_phi_verification():
    start = time.perf_counter()
    phi = catalog_get("phi_h42")
    sample = sample_surface(phi, (33, 33))
    ss, ts = phi.domain.grid(33, 33)
    membership = 0.0
    metric_err = 0.0
    for s in ss:
        for t in ts:
            jp = phi.evaluate(s, t)
            x = jp.position()
            membership = max(membership, abs(x.inner(x) + 1.0))
            vs, vt = jp.velocity_s(), jp.velocity_t()
            metric_err = max(
                metric_err,
                abs(vs.inner(vs) - 1.0),
                abs(vs.inner(vt)),
                abs(vt.inner(vt) - math.exp(2.0 * s / math.sqrt(3.0))),
            )
    elapsed = time.perf_counter() - start
    h_norm = float(np.max(sample.H_norm))
    k_err = float(np.max(np.abs(sample.K + 1.0 / 3.0)))
    kd_err = float(np.max(np.abs(sample.KD + 2.0 / 3.0)))
    max_defect = float(np.max(np.abs(sample.defect)))
    assert membership <= 1e-10
    assert metric_err <= 1e-10
    assert h_norm <= 1e-6
    assert k_err <= 1e-8
    assert kd_err <= 1e-8
    assert max_defect <= 1e-8
    assert elapsed < 5.0
    report(
        1,
        f"membership {membership:.2e}, metric {metric_err:.2e}, |H| {h_norm:.2e}, "
        f"K err {k_err:.2e}, KD err {kd_err:.2e}, defect {max_defect:.2e}, "
        f"runtime {elapsed:.2f}s",
    )


def test_criterion_02_flat_l_verification():
    fl = catalog_get("flat_L")
    sample = sample_surface(fl, (33, 33))
    ss, ts = fl.domain.grid(9, 9)
    pts = [(float(s), float(t)) for s in ss for t in ts]
    from neutralsurf.catalog import check_membership

    membership = check_membership(fl, pts)
    k_max = float(np.max(np.abs(sample.K)))
    kd_max = float(np.max(np.abs(sample.KD)))
    assert membership <= 1e-10
    assert k_max <= 1e-8
    assert kd_max <= 1e-8
    assert sample.minimal
    report(
        2,
        f"membership {membership:.2e}, |K| {k_max:.2e}, |KD| {kd_max:.2e}, minimal; "
        f"defect clause tracked separately (gap is exactly 1)",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "flat product surface: K + KD = 0 sits strictly above H2 + c = -1, so "
        "the defect equals 1 identically and can never be <= 1e-8"
    ),
)
def test_criterion_02_flat_l_defect_clause():
    fl = catalog_get("flat_L")
    sample = sample_surface(fl, (9, 9))
    max_defect = float(np.max(sample.defect))
    print(
        f"ACCEPTANCE 2 (defect clause): FAIL - flat_L defect is {max_defect:.6f} "
        f"everywhere (strict inequality surface); clause unattainable"
    )
    assert max_defect <= 1e-8


def test_criterion_03_totally_geodesic():
    geo = catalog_get("totally_geodesic_h42")
    sample = sample_surface(geo, (17, 17))
    h_max = float(np.max(sample.h_max))
    k_err = float(np.max(np.abs(sample.K + 1.0)))
    kd_max = float(np.max(np.abs(sample.KD)))
    assert h_max <= 1e-9
    assert k_err <= 1e-8
    assert kd_max <= 1e-8
    report(3, f"max |h| {h_max:.2e}, K err {k_err:.2e}, |KD| {kd_max:.2e}")


def test_criterion_04_holomorphic_family():
    jmat = np.array([[0.0, -1.0], [1.0, 0.0]])
    worst = {"H2": 0.0, "K+KD": 0.0, "K-2ab": 0.0, "A4-JA3": 0.0}
    for f in ("z^2/2", "z^3/3", "2*z + z^2/4"):
        imm = catalog_get("holomorphic_graph", {"f": f})
        ss, ts = imm.domain.grid(7, 7)
        for s in ss:
            for t in ts:
                p = (float(s), float(t))
                fr = build_frames(imm, p)
                h = second_fundamental_form(imm, p, fr)
                a3, a4 = shape_operators(h, fr)
                rep = point_report(imm, p)
                worst["H2"] = max(worst["H2"], abs(rep.H2))
                worst["K+KD"] = max(worst["K+KD"], abs(rep.K + rep.KD))
                two_ab = 2.0 * (a3.a11 ** 2 + a3.a12 ** 2)
                worst["K-2ab"] = max(worst["K-2ab"], abs(rep.K - two_ab))
                worst["A4-JA3"] = max(
                    worst["A4-JA3"],
                    float(np.max(np.abs(as_array(a4) - jmat @ as_array(a3)))),
                )
    assert worst["H2"] <= 1e-10
    assert worst["K+KD"] <= 1e-8
    assert worst["K-2ab"] <= 1e-8
    assert worst["A4-JA3"] <= 1e-8
    report(
        4,
        f"max |H2| {worst['H2']:.2e}, |K+KD| {worst['K+KD']:.2e}, "
        f"|K-2(a^2+b^2)| {worst['K-2ab']:.2e}, |A4-J.A3| {worst['A4-JA3']:.2e}",
    )


def test_criterion_05_inequality_property_suite():
    strict = 0
    global_min = math.inf
    for seed in range(50):
        imm = catalog_get("random_polynomial", {"seed": seed})
        ss, ts = imm.domain.grid(5, 5)
        defects = [
            point_report(imm, (float(s), float(t))).defect
            for s in ss
            for t in ts
        ]
        seed_min = min(defects)
        global_min = min(global_min, seed_min)
        assert seed_min >= -1e-8
        if seed_min > 1e-4:
            strict += 1
    assert strict >= 45
    report(
        5,
        f"50 seeds x 25 points: min defect {global_min:.3e} >= -1e-8; "
        f"{strict}/50 seeds strictly positive (min > 1e-4)",
    )


def test_criterion_06_canonical_round_trip():
    rng = np.random.default_rng(77)
    worst_residual = 0.0
    worst_repro = 0.0
    for _ in range(500):
        gamma, mu = rng.uniform(-1.5, 1.5, size=2)
        theta, rho = rng.uniform(0.0, 2.0 * math.pi, size=2)
        a3 = Sym2(2.0 * gamma + mu, 0.0, mu)
        a4 = Sym2(0.0, gamma, 0.0)
        r3, r4 = rotate_pair(a3, a4, theta, rho)
        can = canonical_equality_frame(r3, r4)
        worst_residual = max(worst_residual, can.residual)
        k0, kd0, h20, _ = wintgen_defect_formula(2.0 * gamma + mu, gamma, 0.0, mu, 0.0)
        k1, kd1, h21, _ = wintgen_defect_formula(
            can.alpha, can.gamma, can.delta, can.mu, 0.0
        )
        worst_repro = max(
            worst_repro, abs(k1 - k0), abs(kd1 - kd0), abs(h21 - h20)
        )
    assert worst_residual <= 1e-8
    assert worst_repro <= 1e-8
    worst_identity = 0.0
    for _ in range(1000):
        alpha, gamma, delta, mu, c = rng.uniform(-2, 2, size=5)
        k, kd, h2, defect = wintgen_defect_formula(alpha, gamma, delta, mu, c)
        lhs = k + kd - h2 - c
        worst_identity = max(
            worst_identity, abs(lhs - defect) / max(1.0, abs(lhs), abs(defect))
        )
    assert worst_identity <= 1e-12
    report(
        6,
        f"500 recoveries: residual {worst_residual:.2e}, invariant reproduction "
        f"{worst_repro:.2e}; 1000-tuple identity {worst_identity:.2e}",
    )


def test_criterion_07_structure_equations():
    floor = 1e-10
    details = []
    for name, p in (("phi_h42", (0.3, -0.4)), ("flat_L", (0.2, -0.5))):
        imm = catalog_get(name)
        rep = point_report(imm, p)
        errs = []
        for step in (2e-3, 1e-3, 5e-4):
            kw, kdw = structure_equation_check(imm, p, step=step)
            errs.append((abs(kw - rep.K), abs(kdw - rep.KD)))
        assert errs[1][0] <= 1e-3 and errs[1][1] <= 1e-3
        for idx in (0, 1):
            for coarse, fine in zip(errs, errs[1:]):
                if coarse[idx] < floor and fine[idx] < floor:
                    continue  # exact zeros: roundoff-dominated, ratio vacuous
                ratio = coarse[idx] / max(fine[idx], 1e-300)
                assert 3.2 <= ratio <= 4.8, (name, idx, ratio)
        details.append(f"{name}: err(1e-3) K {errs[1][0]:.1e} KD {errs[1][1]:.1e}")
    report(7, "; ".join(details))


def test_criterion_08_codazzi(scale_h12):
    specs = [
        ("phi_h42", {}),
        ("flat_L", {}),
        ("totally_geodesic_h42", {}),
        ("holomorphic_graph", {"f": "z^2/2"}),
        ("umbilical_flat", {}),
        ("random_polynomial", {"seed": 0}),
    ]
    worst = 0.0
    for name, params in specs:
        imm = catalog_get(name, params)
        d = imm.domain
        pts = [
            (0.5 * (d.s0 + d.s1), 0.5 * (d.t0 + d.t1)),
            (0.75 * d.s0 + 0.25 * d.s1, 0.25 * d.t0 + 0.75 * d.t1),
        ]
        for p in pts:
            residual = codazzi_residual(imm, p, step=1e-3)
            assert residual <= 1e-4, (name, p, residual)
            worst = max(worst, residual)
    phi = catalog_get("phi_h42")
    scale_h12(1.1)
    injected = codazzi_residual(phi, (0.3, -0.4), step=1e-3)
    assert injected > 1e-2
    report(8, f"max residual {worst:.2e} across catalog; fault-injected {injected:.2e}")


def test_criterion_09_laplacian_identities():
    phi = catalog_get("phi_h42")
    rep_phi = verify_identity(phi, "eq5_11", grid=(65, 65))
    lhs_max = float(np.max(np.abs(rep_phi.lhs)))
    rhs_max = float(np.max(np.abs(rep_phi.rhs)))
    assert lhs_max <= 1e-3
    assert rhs_max <= 1e-3

    hol = catalog_get("holomorphic_graph", {"f": "z^2/2"})
    rep_hol = verify_identity(hol, "eq6_6", grid=(65, 65))
    assert rep_hol.relative_residual <= 5e-3
    sample = sample_surface(hol, (65, 65))
    six_k = 6.0 * sample.K[2:-2, 2:-2]
    reduction = float(np.max(np.abs(rep_hol.lhs - six_k)) / np.max(np.abs(six_k)))
    assert reduction <= 5e-3

    ratios = convergence_ratios(hol, "eq6_6", grids=(17, 33, 65))
    for r in ratios:
        assert 3.2 <= r <= 4.8

    # restated non-reproducible classifications: no catalog witness exists for
    # the spherical identity, and flat equality surfaces have non-constant K
    for name, params in [("phi_h42", {}), ("holomorphic_graph", {"f": "z^2/2"})]:
        with pytest.raises(PreconditionError):
            verify_identity(catalog_get(name, params), "eq7_7", grid=(9, 9))
    report(
        9,
        f"hyperbolic identity: both sides <= {max(lhs_max, rhs_max):.2e}; flat "
        f"identity relative residual {rep_hol.relative_residual:.2e}; refinement "
        f"ratios {[f'{r:.2f}' for r in ratios]}",
    )


def test_criterion_10_ellipse_of_curvature():
    specs = [
        ("phi_h42", {}),
        ("flat_L", {}),
        ("totally_geodesic_h42", {}),
        ("holomorphic_graph", {"f": "z^2/2"}),
        ("holomorphic_graph", {"f": "z^3/3"}),
        ("holomorphic_graph", {"f": "2*z + z^2/4"}),
        ("umbilical_flat", {}),
        ("random_polynomial", {"seed": 0}),
        ("random_polynomial", {"seed": 7}),
    ]
    equality_nodes = 0
    for name, params in specs:
        imm = catalog_get(name, params)
        sample = sample_surface(imm, (17, 17))
        eq_mask = sample.defect <= 1e-8
        equality_nodes += int(np.count_nonzero(eq_mask))
        ok = sample.ellipse_circle | sample.ellipse_point
        assert bool(np.all(ok[eq_mask])), name

    sweep_err = 0.0
    for name, params in specs:
        imm = catalog_get(name, params)
        d = imm.domain
        for frac in (0.3, 0.7):
            p = (d.s0 + frac * (d.s1 - d.s0), d.t0 + (1 - frac) * (d.t1 - d.t0))
            fr = build_frames(imm, p)
            h = second_fundamental_form(imm, p, fr)
            rep = point_report(imm, p)
            mx, mn = ellipse_sweep(h, rep.H)
            sweep_err = max(sweep_err, abs(rep.ellipse.a - mx), abs(rep.ellipse.b - mn))
    assert sweep_err <= 1e-6
    report(
        10,
        f"{equality_nodes} equality nodes all circle/point; sweep vs closed form "
        f"{sweep_err:.2e}",
    )


def test_criterion_11_parser():
    user = from_definition(parse_surface(PHI_FILE, name="phi_file"))
    builtin = catalog_get("phi_h42")
    rng = np.random.default_rng(23)
    worst = 0.0
    for s, t in sample_points(builtin.domain, rng, 50):
        a = user.evaluate(s, t)
        b = builtin.evaluate(s, t)
        for ca, cb in zip(a.components, b.components):
            for fieldname in JET_FIELDS:
                x, y = getattr(ca, fieldname), getattr(cb, fieldname)
                worst = max(worst, abs(x - y) / max(1.0, abs(x), abs(y)))
    assert worst <= 1e-12

    with pytest.raises(ExprSyntaxError) as err:
        parse_surface("ambient E(2,2)\nx1 = s +\nx2 = t\nx3 = s\nx4 = t")
    assert err.value.line == 2 and err.value.col >= 6

    for text in ("s*s*t", "sinh(2*s/sqrt(3))", "-(s+t)^2/4", "pow(s, 2) - t^-1"):
        ast = parse_expression(text)
        assert parse_expression(expr_to_text(ast)) == ast
    report(
        11,
        f"file transcription matches built-in to {worst:.2e}; errors located; "
        f"print/parse stable",
    )
