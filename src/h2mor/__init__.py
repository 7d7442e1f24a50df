"""H2-optimal model order reduction of sparse descriptor systems.

Implements rational Krylov tangential interpolation, the IRKA fixed-point
iteration, and the confined variant (CIRKA) that optimizes over an updated
mid-sized surrogate, with interpolation/optimality verification and
instrumented factorization accounting.
"""

from .cirka import (
    CirkaOptions,
    CirkaResult,
    ModelFunction,
    cirka,
    estimate_error,
    init_model_function,
    update_model_function,
    verify_h2_optimality,
    verify_realization_equivalence,
)
from .interpolation import (
    InterpolationBlock,
    InterpolationData,
    hermite_reduce,
    primitive_basis,
    sylvester_residual,
    verify_tangential_interpolation,
)
from .irka import (
    IrkaOptions,
    IrkaResult,
    initial_data_from_spectrum,
    irka,
    shift_convergence,
    update_interpolation_data,
)
from .linalg import (
    CostCounters,
    ModalSolver,
    ShiftedSolver,
    generalized_eig,
    orthonormalize_real,
    solve_generalized_lyapunov,
    stable_part,
)
from .metrics import (
    CostReport,
    bode_samples,
    h2_error,
    h2_norm,
    h2_norm_quadrature,
    linf_output_bound,
)
from .model import (
    DENSE_THRESHOLD,
    PoleResidueForm,
    StateSpaceModel,
    eval_transfer,
    eval_transfer_derivative,
    make_model,
    pole_residue,
    project,
)

__version__ = "0.1.0"

__all__ = [
    "CirkaOptions", "CirkaResult", "ModelFunction", "cirka", "estimate_error",
    "init_model_function", "update_model_function", "verify_h2_optimality",
    "verify_realization_equivalence",
    "InterpolationBlock", "InterpolationData", "hermite_reduce",
    "primitive_basis", "sylvester_residual", "verify_tangential_interpolation",
    "IrkaOptions", "IrkaResult", "initial_data_from_spectrum", "irka",
    "shift_convergence", "update_interpolation_data",
    "CostCounters", "ModalSolver", "ShiftedSolver", "generalized_eig", "orthonormalize_real",
    "solve_generalized_lyapunov", "stable_part",
    "CostReport", "bode_samples", "h2_error", "h2_norm", "h2_norm_quadrature",
    "linf_output_bound",
    "DENSE_THRESHOLD", "PoleResidueForm", "StateSpaceModel", "eval_transfer",
    "eval_transfer_derivative", "make_model", "pole_residue", "project",
    "__version__",
]
