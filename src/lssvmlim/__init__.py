"""Exact LS-SVM classifiers with large-dimensional performance prediction.

Train least-squares SVMs in closed form, predict their decision-score
distribution and error rates on two-class Gaussian mixtures from class
statistics alone, and verify the predictions by Monte Carlo on synthetic
mixtures and image data.
"""

from .errors import (
    BadMagic,
    ClassMissing,
    CountMismatch,
    DegenerateStats,
    DimensionMismatch,
    EigFailure,
    LssvmError,
    OneClassOnly,
    SingularSystem,
    TruncatedFile,
)
from .experiments import (
    ExperimentConfig,
    SweepResult,
    at_threshold,
    empirical_error,
    empirical_error_pool,
    resolve_threshold,
    run_convergence,
    run_histogram,
    run_sweep,
)
from .kernels import (
    GaussianKernel,
    PolynomialKernel,
    TaylorKernel,
    gram_matrix,
    kernel_from_spec,
    kernel_vector,
)
from .lssvm import TrainedModel, classify, normalize_labels, train
from .mixture import (
    LatentDataset,
    MixtureModel,
    ToeplitzCov,
    mix64,
    model_from_spec,
    sample,
)
from .mnist import (
    ImageDataset,
    add_white_noise,
    apply_scaling,
    class_stats,
    discrepancy_stats,
    load_idx,
    write_idx,
)
from .theory import (
    TheoryStats,
    error_rates,
    estimate_tau,
    gaussian_stats,
    informative_term,
    noise_term,
    optimal_threshold,
    q_function,
    random_equivalent,
)

__version__ = "0.1.0"
