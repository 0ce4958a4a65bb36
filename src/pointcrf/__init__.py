"""CRF message-passing layers, exact energy oracles, and diffusion baselines
for point-cloud graphs."""

from .cloud import (
    CloudParseError,
    NeighborGraph,
    PointCloud,
    SampleIndex,
    dilated_knn_graph,
    farthest_point_sample,
    knn_graph,
    knn_interpolate,
    radius_graph,
    read_cloud,
    write_cloud,
)
from .transform import Activation, AffineLayer, PointwiseTransform
from .energy import (
    CompatibilityMatrix,
    QuadraticEnergyModel,
    SolveError,
    dirichlet_energy,
    evaluate_energy,
    solve_exact,
)
from .crf_continuous import (
    ContinuousCrfState,
    CrfConfig,
    CrfGradients,
    SimilarityField,
    UnsupportedScheduleError,
    balance_similarity,
    coordinate_descent_step,
    crf_convolve,
    crf_gradients,
    crf_step,
    decode_level,
    mean_field_covariance,
    mean_field_mean_step,
    pairwise_similarity,
    run_crf,
    similarity_energy_model,
)
from .crf_discrete import (
    KernelMixture,
    LabelCompatibility,
    LabelField,
    discrete_crf_infer,
    discrete_crf_step,
    kernel_weights,
    read_probabilities,
    write_probabilities,
)
from .diffusion import (
    ComparisonRow,
    DiffusionComparison,
    compare_crf_vs_diffusion,
    diffusion_step,
    multichannel_dirichlet,
)

__version__ = "0.1.0"
