"""Pythagorean-hodograph curves over algebraic-hyperbolic spaces.

A geometry kernel for Bezier-like curves in the exponential-polynomial
spaces of orders m=1 and m=2: numerically robust basis evaluation across
the whole shape-parameter range, PH curve construction from quaternion
preimages with closed-form speed and arc length, C1 Hermite
interpolation, several point-evaluation algorithms, and a benchmark
harness for their stability and speed.
"""

from .basis import (
    BasisConstantsM1,
    BasisConstantsM2,
    EvalMode,
    constants,
    corner_weights,
    curve_basis,
    hodograph_basis,
    preimage_basis,
    taylor_curve_basis,
)
from .bench import BreakpointResult, RhoConfig, TimingRow, find_omega_bar, rho, time_methods
from .curve import (
    ArcLengthCoefficients,
    CurveBatch,
    EphCurve,
    Preimage,
    SpeedCoefficients,
    arc_length,
    arc_length_coeffs,
    curve_from_preimage,
    derivative,
    eval_direct,
    hodograph,
    is_regular,
    parametric_speed,
    parametric_speed_coeffs,
)
from .errors import (
    DegenerateDirectionError,
    DomainError,
    EphCurveError,
    OverflowHazardError,
    SingularControlBlockError,
    ZeroVectorError,
)
from .evaluators import (
    DynamicEvalReport,
    EvalMethod,
    dynamic_eval_m1,
    eval_decasteljau,
    eval_new,
    eval_wozny_chudy,
    evaluate,
)
from .hermite import (
    AngleChoice,
    HermiteProblem,
    HermiteSolution,
    PlanarSolutionTag,
    reproduce_hyperbolic,
    solve_planar,
    solve_spatial,
)
from .quat import Quaternion, Vector3, sandwich_i, solve_sandwich, sym_sandwich_i

__version__ = "0.1.0"
