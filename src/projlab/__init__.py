"""projlab: numerical laboratory for sphere cross-sections, their distorted
tangent-plane projections, fractal test sets, and the associated cones."""

from .manifold import (  # noqa: F401
    CapChart,
    ChartConstants,
    ChartDomainError,
    DegenerateJacobianError,
    DualChart,
    ManifoldChart,
    NonConvexityError,
    PerturbedCapChart,
)

__version__ = "0.1.0"
