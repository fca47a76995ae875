"""Monte Carlo heat-semigroup engine on model Riemannian manifolds.

The package simulates Brownian motion on exactly-known model spaces
(euclidean, flat torus, sphere, hyperboloid), evolves the damped parallel
transport and the curvature-driven second-order transport along each path,
and uses them in probabilistic representation formulas for P_t f, its
gradient and its Hessian.  A verification harness evaluates the package's
quantitative kernel and semigroup inequalities numerically and fits the
smallest admissible constants.
"""

__version__ = "0.1.0"

from .geometry import (
    CurvaturePackage,
    Euclidean,
    Hyperbolic,
    ManifoldModel,
    OrthonormalFrame,
    Point,
    ScalarField,
    Sphere,
    TangentVector,
    Torus,
    commutation_residual,
    curvature_package,
    distance_volume,
    geodesic_step,
    make_manifold,
)
from .oracle import KernelEval, QuadratureGrid, heat_kernel, lp_norm, quadrature_grid
from .semigroup import (
    HessianEstimatorConfig,
    McEstimate,
    estimate_grad,
    estimate_green_hess,
    estimate_hess,
    estimate_pt,
)
from .verify import (
    BoundCheckConfig,
    BoundReport,
    KatoResult,
    check_gaffney,
    check_kernel_bounds,
    check_semigroup_bounds,
    check_weighted_l2,
    cz_scan,
    kato_functional,
)

__all__ = [
    "__version__",
    "CurvaturePackage", "Euclidean", "Hyperbolic", "ManifoldModel",
    "OrthonormalFrame", "Point", "ScalarField", "Sphere", "TangentVector",
    "Torus", "commutation_residual", "curvature_package", "distance_volume",
    "geodesic_step", "make_manifold",
    "KernelEval", "QuadratureGrid", "heat_kernel", "lp_norm", "quadrature_grid",
    "HessianEstimatorConfig", "McEstimate", "estimate_grad",
    "estimate_green_hess", "estimate_hess", "estimate_pt",
    "BoundCheckConfig", "BoundReport", "KatoResult", "check_gaffney",
    "check_kernel_bounds", "check_semigroup_bounds", "check_weighted_l2",
    "cz_scan", "kato_functional",
]
