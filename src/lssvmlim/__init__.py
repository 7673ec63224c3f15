"""Exact LS-SVM classifiers with large-dimensional performance prediction.

Train least-squares SVMs in closed form, predict their decision-score
distribution and error rates on two-class Gaussian mixtures from class
statistics alone, and verify the predictions by Monte Carlo on synthetic
mixtures and image data.
"""

from .errors import DataError, NumericalFailure
from .experiments import (
    ExperimentConfig,
    SweepResult,
    at_threshold,
    class_split,
    empirical_error,
    resolve_threshold,
    run_convergence,
    run_histogram,
    run_sweep,
)
from .kernels import (
    GaussianKernel,
    Gram,
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
    MixtureStats,
    ToeplitzCov,
    mix64,
    mixture_stats,
    model_from_spec,
    sample,
)
from .mnist import (
    add_white_noise,
    class_stats,
    discrepancy_by_scaling,
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
