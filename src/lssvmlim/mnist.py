"""IDX image-file ingestion, empirical two-class moments, and white-noise
injection.

The IDX byte format (big-endian):

    images: int32 magic 0x00000803, int32 count, int32 rows, int32 cols,
            then count*rows*cols unsigned bytes, row-major per image
    labels: int32 magic 0x00000801, int32 count, then count unsigned bytes

Gzip-compressed files are accepted transparently.  Pixels are mapped to
[0, 1] by division by 255; the applied preprocessing is tracked in the
dataset's scaling record.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass

import numpy as np

from .errors import BadMagic, ClassMissing, CountMismatch, TruncatedFile
from .mixture import MixtureModel

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


@dataclass(frozen=True, eq=False)
class ImageDataset:
    """Vectorized images (columns of ``images``, shape p x N) with integer
    labels and a record of the preprocessing applied so far."""

    images: np.ndarray
    labels: np.ndarray
    scaling: str = "unit_interval"

    @property
    def p(self):
        return self.images.shape[0]

    @property
    def count(self):
        return self.images.shape[1]


def _open_maybe_gzip(path):
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(fh, size, path):
    buf = fh.read(size)
    if len(buf) != size:
        raise TruncatedFile(f"{path}: expected {size} more bytes, got {len(buf)}")
    return buf


def load_idx(images_path, labels_path) -> ImageDataset:
    """Parse an IDX image/label file pair into a [0, 1]-scaled dataset."""
    with _open_maybe_gzip(images_path) as fh:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, images_path))
        if magic != IMAGES_MAGIC:
            raise BadMagic(f"{images_path}: magic 0x{magic:08x}, expected 0x{IMAGES_MAGIC:08x}")
        raw = _read_exact(fh, count * rows * cols, images_path)
    with _open_maybe_gzip(labels_path) as fh:
        magic, label_count = struct.unpack(">II", _read_exact(fh, 8, labels_path))
        if magic != LABELS_MAGIC:
            raise BadMagic(f"{labels_path}: magic 0x{magic:08x}, expected 0x{LABELS_MAGIC:08x}")
        label_raw = _read_exact(fh, label_count, labels_path)
    if label_count != count:
        raise CountMismatch(f"{count} images but {label_count} labels")
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    images = pixels.T.astype(np.float64) / 255.0
    labels = np.frombuffer(label_raw, dtype=np.uint8).astype(np.int64)
    return ImageDataset(images=images, labels=labels, scaling="unit_interval")


def write_idx(pixels: np.ndarray, labels: np.ndarray, images_path, labels_path) -> None:
    """Write raw uint8 images (p x N columns, p = rows*cols with square
    images assumed) and labels as an IDX pair; inverse of :func:`load_idx`
    at the byte level."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    p, count = pixels.shape
    side = int(round(np.sqrt(p)))
    if side * side != p:
        raise ValueError(f"cannot infer square image size from p={p}")
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IMAGES_MAGIC, count, side, side))
        fh.write(pixels.T.tobytes(order="C"))
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", LABELS_MAGIC, count))
        fh.write(labels.tobytes())


def class_stats(data: ImageDataset, digit_a: int, digit_b: int) -> MixtureModel:
    """Empirical two-class mixture (sample means, sample covariances with
    denominator N-1, proportions from class counts) usable by the asymptotic
    predictors; class 1 is ``digit_a``."""
    mask_a = data.labels == digit_a
    mask_b = data.labels == digit_b
    na, nb = int(mask_a.sum()), int(mask_b.sum())
    if na == 0:
        raise ClassMissing(f"no samples labeled {digit_a}")
    if nb == 0:
        raise ClassMissing(f"no samples labeled {digit_b}")
    if na < 2 or nb < 2:
        raise ValueError("need at least two samples per class for a covariance")
    xa = data.images[:, mask_a]
    xb = data.images[:, mask_b]
    mu_a, mu_b = xa.mean(axis=1), xb.mean(axis=1)
    cov_a = np.cov(xa, ddof=1)
    cov_b = np.cov(xb, ddof=1)
    # enforce exact symmetry against accumulation order effects
    cov_a = 0.5 * (cov_a + cov_a.T)
    cov_b = 0.5 * (cov_b + cov_b.T)
    return MixtureModel(data.p, mu_a, mu_b, cov_a, cov_b, c1=na / (na + nb))


def discrepancy_stats(model: MixtureModel):
    """The three separation summaries

        ||mu2 - mu1||^2,  (tr(C2 - C1))^2 / p,  tr((C2 - C1)^2) / p.
    """
    p = model.p
    return (
        model.mean_gap_sq,
        model.trace_gap**2 / p,
        model.sq_trace_gap / p,
    )


def add_white_noise(data: ImageDataset, snr_db, seed) -> ImageDataset:
    """Add i.i.d. zero-mean Gaussian pixel noise at the given SNR.

    Signal power is the dataset-wide mean squared pixel value, and the noise
    variance is ``P_signal / 10**(snr_db / 10)``; ``snr_db=None`` (or +inf)
    returns the dataset unchanged.
    """
    if snr_db is None or snr_db == np.inf:
        return data
    power = float(np.mean(data.images**2))
    noise_var = power / 10.0 ** (snr_db / 10.0)
    rng = np.random.default_rng(seed)
    noisy = data.images + np.sqrt(noise_var) * rng.standard_normal(data.images.shape)
    return ImageDataset(
        images=noisy,
        labels=data.labels,
        scaling=f"{data.scaling}+awgn({snr_db:g}dB)",
    )


# Candidate pixel scalings for matching externally reported moment tables
# whose preprocessing convention is unknown.
def apply_scaling(data: ImageDataset, name: str) -> ImageDataset:
    """Rescale pixels: ``unit`` (identity), ``raw`` (x255), ``mean`` (divide
    by the dataset-wide mean pixel), ``rms`` (divide by the root mean squared
    pixel)."""
    if name == "unit":
        return data
    if name == "raw":
        factor = 255.0
    elif name == "mean":
        factor = 1.0 / float(np.mean(data.images))
    elif name == "rms":
        factor = 1.0 / float(np.sqrt(np.mean(data.images**2)))
    else:
        raise ValueError(f"unknown scaling: {name!r}")
    return ImageDataset(
        images=data.images * factor,
        labels=data.labels,
        scaling=f"{data.scaling}*{name}",
    )


CANDIDATE_SCALINGS = ("unit", "raw", "mean", "rms")
