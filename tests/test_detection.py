"""The detection matrix: faults that `verify` at 9x9 must flag with exit 1.

A jet fault scales one field of one coordinate of every table that
Immersion.evaluate returns by (1 + eps): each field of each coordinate
that is not zero at every node of the surface's 9x9 grid, for eps in
1e-1, 1e-3 and 1e-5.  An engine fault scales h12 by 1.1 (the scale_h12
fixture).  A cell that verify misses is a strict xfail, listed in MISSED
and FLAT: no check compares the jets with the positions they claim to
differentiate, so a fault that leaves the checked equations consistent
passes.  A cell in NOT_SPACELIKE bends the surface out of the space-like
cone on the grid: verify refuses it as a degenerate input (exit 3).  The
surfaces lie in E(2,2), in H(3,2; -1) and in the unit pseudo-sphere S(2,3; 1).
"""

import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

from neutralsurf.catalog import Immersion, JetPoint, catalog_get, from_definition
from neutralsurf.cli import main
from neutralsurf.expr import parse_surface
from neutralsurf.records import FIELDS

SURFACE_FILE = Path(__file__).resolve().parent.parent / "bench" / "data" / "phi_h42.txt"
# a surface in the unit pseudo-sphere S(2,3; 1) with KD between 0.12 and 0.36
SPHERE_FILE = Path(__file__).resolve().parent / "data" / "curved_sphere.txt"

# surface -> (verify's surface arguments, the immersion they build)
SURFACES = {
    "random_polynomial seed 0": (
        ["random_polynomial", "--seed", "0"],
        lambda: catalog_get("random_polynomial", {"seed": 0}),
    ),
    "random_polynomial seed 7": (
        ["random_polynomial", "--seed", "7"],
        lambda: catalog_get("random_polynomial", {"seed": 7}),
    ),
    "holomorphic_graph f=z^3": (
        ["holomorphic_graph", "--param", "f=z^3"],
        lambda: catalog_get("holomorphic_graph", {"f": "z^3"}),
    ),
    "phi_h42.txt": (
        ["--file", str(SURFACE_FILE)],
        lambda: from_definition(parse_surface(SURFACE_FILE.read_text(), name=SURFACE_FILE.stem)),
    ),
    "curved_sphere.txt": (
        ["--file", str(SPHERE_FILE)],
        lambda: from_definition(parse_surface(SPHERE_FILE.read_text(), name=SPHERE_FILE.stem)),
    ),
}
EPS = (1e-1, 1e-3, 1e-5)
GRID = "9x9"

# The cells verify misses: (surface, eps) -> the scaled fields, as "field
# coordinate".  On the flat ambient no check reads the positions, so a
# scaled value field passes on every surface in FLAT.
FLAT = ("random_polynomial seed 0", "random_polynomial seed 7", "holomorphic_graph f=z^3")
MISSED = {
    ("random_polynomial seed 0", 1e-1): "d_s x3, d_t x4",
    ("random_polynomial seed 0", 1e-3): "d_s x1, d_s x2, d_s x3, d_t x1, d_t x2, d_t x4, "
    "d_ss x1, d_ss x2, d_st x2, d_tt x2",
    ("random_polynomial seed 0", 1e-5): "d_s x1, d_s x2, d_s x3, d_t x1, d_t x2, d_t x4, "
    "d_ss x1, d_ss x2, d_st x1, d_st x2, d_tt x1, d_tt x2",
    ("random_polynomial seed 7", 1e-1): "d_s x3, d_t x4",
    ("random_polynomial seed 7", 1e-3): "d_s x1, d_s x2, d_s x3, d_t x1, d_t x2, d_t x4, d_ss x2",
    ("random_polynomial seed 7", 1e-5): "d_s x1, d_s x2, d_s x3, d_t x1, d_t x2, d_t x4, "
    "d_ss x1, d_ss x2, d_st x1, d_st x2, d_tt x1, d_tt x2",
    ("curved_sphere.txt", 1e-3): "d_t x5, d_st x5, d_tt x5",
    ("curved_sphere.txt", 1e-5): "d_s x1, d_s x2, d_s x3, d_s x4, d_s x5, "
    "d_t x1, d_t x2, d_t x3, d_t x4, d_t x5, d_ss x2, d_ss x3, d_ss x4, d_ss x5, "
    "d_st x1, d_st x3, d_st x4, d_st x5, d_tt x3, d_tt x4, d_tt x5",
}
NOT_SPACELIKE = {("phi_h42.txt", "val", 3, 1e-1), ("phi_h42.txt", "d_t", 1, 1e-1)}


def missed(surface: str, field: str, coord: int, eps: float) -> bool:
    if field == "val" and surface in FLAT:
        return True
    return f"{field} x{coord + 1}" in MISSED.get((surface, eps), "").split(", ")


def nonzero_fields(imm: Immersion) -> list[tuple[str, int]]:
    """(field, coordinate) of every field not zero at every node of the 9x9 grid."""
    ss, ts = imm.domain.grid(9, 9)
    table = imm.evaluate(*np.meshgrid(ss, ts, indexing="ij")).table
    return [(f, i) for k, f in enumerate(FIELDS) for i in range(table.shape[-1]) if np.any(table[k, ..., i])]


def jet_cells() -> list:
    cells = []
    for surface, (_, build) in SURFACES.items():
        for field, coord in nonzero_fields(build()):
            for eps in EPS:
                cell = (surface, field, coord, eps)
                marks = [pytest.mark.xfail(strict=True, reason="verify misses it")] if missed(*cell) else []
                cells.append(pytest.param(*cell, marks=marks, id=f"{surface}-{field}-x{coord + 1}-{eps:g}"))
    return cells


def verify_exit(surface: str) -> int:
    argv = ["verify", *SURFACES[surface][0], "--grid", GRID]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("surface,field,coord,eps", jet_cells())
def test_a_scaled_jet_field_fails_verify(monkeypatch, surface, field, coord, eps):
    original = Immersion.evaluate
    k = FIELDS.index(field)

    def faulty(self, s, t) -> JetPoint:
        jp = original(self, s, t)
        table = jp.table.copy()
        table[k, ..., coord] *= 1.0 + eps
        table.flags.writeable = False
        return JetPoint(jp.ambient, table)

    monkeypatch.setattr(Immersion, "evaluate", faulty)
    assert verify_exit(surface) == (3 if (surface, field, coord, eps) in NOT_SPACELIKE else 1)


@pytest.mark.parametrize("surface", SURFACES)
def test_a_scaled_h12_fails_verify(scale_h12, surface):
    scale_h12(1.1)
    assert verify_exit(surface) == 1


@pytest.mark.parametrize("surface", SURFACES)
def test_each_surface_passes_without_a_fault(surface):
    assert verify_exit(surface) == 0
