"""Numerical verification of the extrinsic geometry of space-like surfaces
in 4-dimensional neutral pseudo-Riemannian space forms."""

from .ambient import AmbientSpace, DomainRect
from .catalog import (
    Immersion,
    JetPoint,
    catalog_entries,
    catalog_get,
    catalog_names,
    check_membership,
    from_definition,
)
from .curvature import (
    CanonicalFrame,
    ConnectionSample,
    CurvatureReport,
    EllipseInfo,
    FrameData,
    SecondFF,
    build_frames,
    canonical_equality_frame,
    codazzi_residual,
    connection_forms,
    ellipse_of_curvature,
    invariants,
    point_report,
    second_fundamental_form,
    shape_operators,
    structure_equation_check,
)
from .errors import (
    DegeneracyError,
    ExprSyntaxError,
    FieldDomainError,
    InputMismatchError,
    NeutralSurfError,
    PreconditionError,
    SingularityError,
)
from .fields import (
    GridField,
    LaplacianReport,
    SurfaceSample,
    grid_to_csv,
    grid_to_json,
    harmonicity_verdict,
    intrinsic_laplacian,
    sample_field,
    sample_surface,
    verify_identity,
)
from .pseudo_linalg import PVector, Signature, Sym2, eigen_sym2, inner, orthonormalize

__version__ = "0.1.0"

# the definition-file language and the jet algebra load on first use
_LAZY = {
    "Jet2": "jets",
    "SurfaceDefinition": "expr",
    "eval_on_jets": "expr",
    "parse_expression": "expr",
    "parse_surface": "expr",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
