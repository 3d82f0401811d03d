import pytest

from neutralsurf import curvature


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
