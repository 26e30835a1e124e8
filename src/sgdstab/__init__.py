"""Exact mean-square stability analysis of SGD linearized around a minimum.

The package computes, for a minimum described by per-sample Hessians and
gradients: the first-moment stability threshold, the exact mean-square
threshold 2 / lambda_max(pinv(C) D), easy-to-evaluate necessary bounds,
the asymptotic covariance of the iterates, exact moment recursions, and
Monte-Carlo counterparts that validate all of the closed forms.
"""

from .instances import (
    Hyperparams,
    InstanceFormatError,
    MinimumClass,
    ProblemInstance,
    classify,
    gen_interpolating,
    gen_regular,
    load_instance,
    make_instance,
    mixing_weight,
    save_instance,
)
from .kron_certify import CertifyReport, KronFamily, brute_force_transition, certify, mixture_transition, second_moment_transition
from .linalg import (
    ConvergenceError,
    EigDecomp,
    kron,
    kron_sum,
    null_projectors,
    pinv_psd,
    sym_eig,
    unvec,
    vec,
)
from .moments import (
    ExactStepper,
    MomentState,
    asymptotic_quantities,
    covariance_limit,
    cross_term,
    iterate_moments,
    null_walk_second_moment,
    point_state,
)
from .montecarlo import (
    EmpiricalMoments,
    SimConfig,
    classify_unstable,
    empirical_threshold,
    simulate_mixture,
    simulate_sgd,
)
from .stability import (
    SpectralReport,
    StabilityVerdict,
    curvature_operators,
    generalized_sharpness,
    mean_threshold,
    necessary_bound_eigvec,
    necessary_bound_trace,
    rank_one_bound,
    sharpness,
    stability_verdict,
    variance_threshold,
)

__version__ = "0.1.0"
