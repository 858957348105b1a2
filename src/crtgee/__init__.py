"""GEE analysis of two-arm cluster randomized trials with binary outcomes.

Marginal models with an exchangeable working correlation, five small-sample
corrections to the robust sandwich variance (KC, MD, FG, MBN, and the KC/MD
average), t-based Wald inference, a calibrated correlated-binary data
generator, and a deterministic Monte Carlo harness.
"""

from .data import Cluster, ClusterSums, TrialDataset
from .datagen import (
    FixedSize,
    GammaSize,
    Scenario,
    gamma_cluster_sizes,
    generate_block,
    generate_clusters,
    generate_pieces,
    generate_trial,
    qaqish_coeff,
    substream,
    trial_arms,
)
from .errors import (
    CorrectionSingularityError,
    CrtGeeError,
    DataError,
    DegenerateVarianceError,
    DomainError,
    GeneratorInvalidError,
    NonConvergenceError,
    SingularityError,
    UnsupportedDesignError,
    UsageError,
)
from .families import Family, Link, ModelSpec, parse_family, parse_link
from .gee import (
    FitBlock,
    GeeFit,
    fit_block,
    fit_gee,
)
from .inference import (
    EffectMeasure,
    InferenceResult,
    default_measure,
    wald_inference,
    wald_reject,
)
from .sandwich import (
    ALL_KINDS,
    DEFAULT_FG_BOUND,
    MULTIPLICATIVE_KINDS,
    EstimatorKind,
    VarianceEstimate,
    compute_estimates,
    estimate_block,
)
from .simulate import (
    ALL_MODELS,
    ALPHA_LEVEL,
    TYPE1_BAND,
    EstimatorSummary,
    FactorialGrid,
    ModelBlock,
    ScenarioResult,
    aggregate,
    result_lines,
    run_block,
    run_grid,
    run_scenario,
)
from .tdist import betainc, student_t_quantile, student_t_sf, student_t_two_sided_p

__version__ = "0.1.0"

__all__ = [
    "ALL_KINDS",
    "ALL_MODELS",
    "ALPHA_LEVEL",
    "DEFAULT_FG_BOUND",
    "TYPE1_BAND",
    "Cluster",
    "ClusterSums",
    "CorrectionSingularityError",
    "CrtGeeError",
    "DataError",
    "DegenerateVarianceError",
    "DomainError",
    "EffectMeasure",
    "EstimatorKind",
    "EstimatorSummary",
    "ModelBlock",
    "FactorialGrid",
    "FitBlock",
    "Family",
    "FixedSize",
    "GammaSize",
    "GeeFit",
    "GeneratorInvalidError",
    "InferenceResult",
    "Link",
    "ModelSpec",
    "NonConvergenceError",
    "Scenario",
    "ScenarioResult",
    "SingularityError",
    "TrialDataset",
    "UnsupportedDesignError",
    "UsageError",
    "VarianceEstimate",
    "aggregate",
    "betainc",
    "compute_estimates",
    "default_measure",
    "estimate_block",
    "fit_gee",
    "fit_block",
    "gamma_cluster_sizes",
    "generate_block",
    "generate_clusters",
    "generate_pieces",
    "generate_trial",
    "MULTIPLICATIVE_KINDS",
    "parse_family",
    "parse_link",
    "qaqish_coeff",
    "result_lines",
    "run_block",
    "run_grid",
    "run_scenario",
    "student_t_quantile",
    "student_t_sf",
    "student_t_two_sided_p",
    "substream",
    "trial_arms",
    "wald_inference",
    "wald_reject",
]
