"""Numerical verification of multivariate trace inequalities.

The package implements the chain

    Tr exp(sum_k log A_k)  <=  averaged complex-power product trace
                            =  entangled tensor / log-derivative form

for small positive definite matrices, together with every identity
used along the way: the hyperbolic weight and its scalar average, the
derivative of the matrix logarithm along three independent routes, the
conjugated-power average, entangled pairing expectations, slot
permutations with interleaved identity padding, commutator chains, and
penalized trace limits.
"""
__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DimensionCap,
    DimensionMismatch,
    ImaginaryResidue,
    InvalidRange,
    NonFinite,
    NonPositiveEigenvalue,
    NotHermitian,
    StepTooLarge,
    TraceIneqError,
    UnknownCheck,
)
from .linalg import (
    PosDefMatrix,
    as_posdef,
    draw_posdef,
    hermitian_fn,
    hermitize,
    kron_all,
    logarithmic_ratio,
    random_commuting_family,
    real_trace,
)
from .report import TrialReport, identity_report, inequality_report
from .quadrature import (
    QuadratureRule,
    beta_density,
    beta_normalization_gap,
    half_line_rule,
    real_line_rule,
    scalar_identity_check,
    scalar_log_kernel,
    scalar_power_average,
)
from .combinatorics import (
    MAX_N,
    ShapeParams,
    doubling_permutation,
    shape_params,
    slot_sources,
    thue_morse,
)
from .entangle import (
    DIM_CAP,
    FactorLayout,
    MidSlot,
    build_layout,
    omega_vector,
    pairing_check,
    projector,
)
from .frechet import (
    conjugated_power_average,
    log_derivative_closed,
    log_derivative_finite_difference,
    log_derivative_quadrature,
    power_average_identity_check,
)
from .inequalities import (
    check_equivalence,
    check_golden_thompson,
    check_jensen_trace,
    check_key_identity,
    check_lieb_equivalence,
    check_lieb_three,
    check_power_integral,
    check_scaled_exponential,
    check_tensor_resolvent,
    chain_product_trace,
    lhs_exp_sum_log,
    rhs_golden_thompson,
    rhs_lieb_three,
    rhs_power_integral,
    rhs_tensor_resolvent,
    scaled_exponential_lhs,
    tensor_operands,
    tensor_pair_trace,
)
from .limits import (
    check_commutator_chain,
    check_derivative_form,
    check_penalized_trace_limit,
    commutator_chain,
    derivative_form_value,
    penalized_trace_gaps,
)
from .campaign import (
    CHECKS,
    CampaignConfig,
    CampaignSummary,
    CheckSpec,
    load_config_file,
    run_campaign,
    write_reports,
)

import types as _types

# every public name imported above, but not the submodules themselves
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _types.ModuleType))
