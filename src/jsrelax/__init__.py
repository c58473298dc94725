"""Joint spectral radius of planar matrix families via norm relaxation.

Builds a piecewise-linear approximation of a Barabanov norm while bracketing
the joint spectral radius from both sides at every iteration, with
brute-force product enumeration available as an independent cross-check.
"""

from .matrices import (
    Matrix,
    MatrixSet,
    UnsupportedDimensionError,
    is_irreducible,
    spectral_radius,
)
from .norms import (
    AngularNorm,
    euclidean,
    evaluate,
    max_image,
    normalize,
)
from .oracle import (
    DEFAULT_PRODUCT_CAP,
    EnumerationBudgetError,
    ProductBounds,
    depth_sweep,
    product_bounds,
    trace_estimate,
)
from .relax import (
    ALGORITHM_LR,
    ALGORITHM_MR,
    STATUS_CONVERGED,
    STATUS_DEGENERATE,
    STATUS_MAX_ITERS,
    STATUS_REJECTED,
    IterationRecord,
    RelaxConfig,
    RelaxResult,
    gamma_mr,
    iterate,
    run,
)
from .io import (
    ProblemFile,
    ProblemFormatError,
    TraceFormatError,
    parse_problem,
    read_norm,
    read_trace,
    write_norm,
    write_trace,
)
from .svgplot import render_unit_sphere, unit_sphere_points

__version__ = "0.1.0"

__all__ = [
    "Matrix",
    "MatrixSet",
    "UnsupportedDimensionError",
    "is_irreducible",
    "spectral_radius",
    "AngularNorm",
    "euclidean",
    "evaluate",
    "max_image",
    "normalize",
    "DEFAULT_PRODUCT_CAP",
    "EnumerationBudgetError",
    "ProductBounds",
    "depth_sweep",
    "product_bounds",
    "trace_estimate",
    "ALGORITHM_LR",
    "ALGORITHM_MR",
    "STATUS_CONVERGED",
    "STATUS_DEGENERATE",
    "STATUS_MAX_ITERS",
    "STATUS_REJECTED",
    "IterationRecord",
    "RelaxConfig",
    "RelaxResult",
    "gamma_mr",
    "iterate",
    "run",
    "ProblemFile",
    "ProblemFormatError",
    "TraceFormatError",
    "parse_problem",
    "read_norm",
    "read_trace",
    "write_norm",
    "write_trace",
    "render_unit_sphere",
    "unit_sphere_points",
    "__version__",
]
