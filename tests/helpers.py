"""Shared builders for the synthetic mixture families and the malformed
IDX files used across tests."""

import gzip
import struct

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


def _images_header(count, rows, cols):
    return struct.pack(">IIII", 0x00000803, count, rows, cols)


_GZIPPED = gzip.compress(_images_header(4, 2, 2) + bytes(range(16)), mtime=0)

# the bytes of malformed IDX image files
MALFORMED_IDX = {
    "zero-pixels": _images_header(4, 0, 28),
    "huge-header": _images_header(2**32 - 1, 2**32 - 1, 2**32 - 1),
    "overstated-size": _images_header(4, 65535, 65535) + bytes(64),
    "truncated-gzip": _GZIPPED[:-12],  # cut inside the compressed data
    "corrupt-gzip": _GZIPPED[:12] + bytes([_GZIPPED[12] ^ 0xFF]) + _GZIPPED[13:],
}


def malformed_idx_pair(tmp_path, case):
    """Paths of the image file ``MALFORMED_IDX[case]`` and of a valid label
    file of four images, digits 8, 8, 9 and 9."""
    ip, lp = tmp_path / "imgs.idx", tmp_path / "labs.idx"
    ip.write_bytes(MALFORMED_IDX[case])
    lp.write_bytes(struct.pack(">II", 0x00000801, 4) + bytes([8, 8, 9, 9]))
    return ip, lp
