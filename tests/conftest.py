import numpy as np
import pytest

from neutralsurf import curvature
from oracles import with_normals


@pytest.fixture
def scale_h12(monkeypatch):
    """Fault injection: scale the h12 field the curvature module computes.

    Returns a function of the factor; the corruption lasts for the test.
    """

    def scale(factor: float) -> None:
        original = curvature.second_fundamental_form

        def corrupted(imm, p, frames):
            h = original(imm, p, frames)
            return curvature.SecondFF(h.h11, factor * h.h12, h.h22)

        monkeypatch.setattr(curvature, "second_fundamental_form", corrupted)

    return scale


@pytest.fixture
def switch_branch(monkeypatch):
    """Fault injection: frames the curvature module builds record the other
    scan branch at nodes within 3 steps of a target point, on its +s side.

    Returns a function of the target (s, t) and the step; the fault lasts
    for the test.
    """

    def switch(target: tuple, step: float) -> None:
        original = curvature.build_frames

        def switched(imm, p):
            fr = original(imm, p)
            s, t = p
            near = (np.abs(s - target[0]) < 3 * step) & (np.abs(t - target[1]) < 3 * step)
            swap = near & (s > target[0] + 0.5 * step)
            return with_normals(fr, scan=np.where(swap[..., None], fr.scan[..., ::-1], fr.scan))

        monkeypatch.setattr(curvature, "build_frames", switched)

    return switch
