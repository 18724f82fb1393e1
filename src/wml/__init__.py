"""Weak-moment feature maps and transversality diagnostics.

A kernel window turns any distribution in the catalog, with or without
a density, into a vector of finite weak moments; the geometry of that
feature map (rank, metric tensor, transversality to degeneracy strata)
is what this package computes and verifies.
"""

from .experiments import (
    EmptyGrid,
    ExperimentResult,
    UnknownExperiment,
    list_experiments,
    run_experiment,
    sweep_kernel,
)
from .features import (
    FeatureMapSpec,
    FeatureVector,
    MomentEstimate,
    WeakCumulants,
    feature_map,
    influence_bound,
    influence_value,
    moments_to_cumulants,
    weak_char_fn,
    weak_cumulants,
    weak_moment,
)
from .geometry import (
    CollisionCandidate,
    DimensionMismatch,
    JacobianReport,
    MetricTensor,
    RankReport,
    StepUnderflow,
    StratumSpec,
    ThresholdReport,
    TransversalityReport,
    codimension_thresholds,
    injectivity_probe,
    jacobian,
    metric_tensor,
    numerical_rank,
    transversality_check,
)
from .models import (
    Cauchy,
    Gaussian,
    KernelSpec,
    LogNormal,
    ModelFamily,
    NoDensity,
    OutOfSupport,
    StieltjesLogNormal,
    SymmetricStable,
    Undefined,
    Unsupported,
    canonical_family,
    cauchy_family,
    char_fn,
    classical_fisher_info,
    classical_moment,
    density,
    gaussian_family,
    kernel_eval,
    lognormal_family,
    scale_center_kernel_family,
    scale_kernel_family,
    stable_family,
    stieltjes_family,
    support,
)
from .quad import (
    IntegralResult,
    NonConvergence,
    NonFiniteEvaluation,
    QuadratureError,
    integrate_half_line,
    integrate_real_line,
)

__version__ = "0.1.0"
