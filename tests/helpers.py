"""Shared builders for the synthetic mixture families used across tests."""

import numpy as np

from lssvmlim.kernels import GaussianKernel, TaylorKernel
from lssvmlim.mixture import MixtureModel, ToeplitzCov


def identity(p):
    """Identity covariance in its structured form: no eigendecomposition."""
    return ToeplitzCov(0.0, 1.0, p)


def spiked_means(p, value):
    """mu1 spikes coordinate 1, mu2 coordinate 2 (1-based), same magnitude."""
    mu1 = np.zeros(p)
    mu2 = np.zeros(p)
    mu1[0] = value
    mu2[1] = value
    return mu1, mu2


def skew_model(p, c1=0.25, spike=3.0, boost=5.0):
    """Unbalanced classes, strong spike, boosted-trace Toeplitz covariance."""
    mu1, mu2 = spiked_means(p, spike)
    cov2 = ToeplitzCov(0.4, 1.0 + boost / np.sqrt(p), p)
    return MixtureModel(p, mu1, mu2, identity(p), cov2, c1=c1)


def balanced_model(p, spike=2.0, boost=4.0):
    """Balanced classes, moderate spike, boosted-trace Toeplitz covariance."""
    mu1, mu2 = spiked_means(p, spike)
    cov2 = ToeplitzCov(0.4, 1.0 + boost / np.sqrt(p), p)
    return MixtureModel(p, mu1, mu2, identity(p), cov2, c1=0.5)


def shape_only_model(p):
    """Equal means and traces; classes differ only in covariance shape."""
    zeros = np.zeros(p)
    return MixtureModel(p, zeros, zeros, identity(p), ToeplitzCov(0.4, 1.0, p), c1=0.5)


def shape_kernel(model, fprime, fsecond=2.0, f0=4.0):
    """Local quadratic anchored at the model's distance concentration point."""
    return TaylorKernel(anchor=model.stats.tau, f0=f0, f1=fprime, f2=fsecond)


RBF_UNIT = GaussianKernel(1.0)
