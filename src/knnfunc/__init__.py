"""k-NN plug-in estimation of nonlinear density functionals.

Split the sample into reference and evaluation parts, estimate the density
at the evaluation points from the references by k-NN, optionally
boundary-corrected, and average a function of the density: Shannon and Renyi
entropy, mutual information, intrinsic dimension, and factor-graph
cross-entropy tests, with bias-correction factors, MSE-optimal tuning, and
CLT confidence intervals.
"""

from .boundary import BoundaryConfig, BoundaryLabels, detect_boundary, q_threshold
from .data import (
    AnalyticDensity,
    Dataset,
    SampleSplit,
    beta_uniform_mixture_density,
    load_csv,
    sample_beta_uniform_mixture,
    sample_block_beta_mixture,
    sample_projected_manifold,
    split,
    true_functional,
    uniform_density,
)
from .density import corrected_density, knn_density
from .dimension import DimensionEstimate, anomaly_scan, estimate_dimension, log_length
from .functionals import (
    EstimateReport,
    Functional,
    bpi_estimate,
    bpi_estimate_bc,
    mutual_information,
    renyi_entropy,
    renyi_functional,
    shannon_functional,
)
from .inference import (
    TrialSpec,
    TrialResults,
    confidence_interval,
    monte_carlo,
    normality_diagnostics,
    rate_fit,
)
from .knn import (
    NeighborIndex,
    NeighborResult,
    build_index,
    count_reverse_neighbors,
    knn_query,
    knn_radii,
    unit_ball_volume,
)
from .structure import Factorization, ModelComparison, compare_models
from .tuning import (
    TheoryConstants,
    constants_oracle,
    optimal_k,
    predict_bias_variance,
    rate_matched_k,
)

__version__ = "0.1.0"
