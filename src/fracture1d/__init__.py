"""One-dimensional brittle fracture via the inverse-deformation picture.

Sharp-interface crack energetics with the closed-form crack-count law,
regularized two-well functionals minimized on a grid, and a harness
that checks the convergence of one toward the other.
"""

from .material import (
    DirectDensityView,
    MaterialModel,
    NonConvergence,
    builtin_lj,
    c_wstar,
    check_growth,
    polynomial_model,
)
from .regularized import (
    CellField,
    DiscreteField,
    SolveResult,
    SolveSettings,
    eval_E_eps,
    eval_V_eps,
    grad_E_eps,
    grad_V_eps,
    minimize,
    mollify_sharp_candidate,
    project_H,
    project_h,
)
from .sharp import (
    BudgetExceeded,
    DomainError,
    PiecewiseConstantField,
    PiecewiseLinearField,
    SharpMinimizer,
    brute_force_segments,
    build_sharp_minimizer,
    crack_count,
    eval_I,
    eval_V,
    reconstruct_deformation,
    segment_h1,
    segment_h2,
    v_n,
)
from .harness import ScanReport, SweepReport, crack_scan, gamma_sweep_I, gamma_sweep_V

__version__ = "0.1.0"
