"""IDX image-file ingestion, empirical two-class moments, their discrepancy
summaries under candidate pixel scalings, and white-noise injection.

The IDX byte format (big-endian):

    images: int32 magic 0x00000803, int32 count, int32 rows, int32 cols,
            then count*rows*cols unsigned bytes, row-major per image
    labels: int32 magic 0x00000801, int32 count, then count unsigned bytes

Gzip-compressed files are accepted transparently.  Pixels are mapped to
[0, 1] by division by 255.
"""

from __future__ import annotations

import gzip
import struct
import zlib

import numpy as np

from .errors import DataError
from .mixture import MixtureStats, mixture_stats

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801
_CHUNK = 1 << 24  # bytes per read


def _open_maybe_gzip(path):
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(fh, size, path):
    """The next ``size`` bytes of ``fh``, read a chunk at a time, so that a
    header asking for more than the file holds allocates only what it holds;
    a short file or a truncated or corrupt gzip stream is a ``DataError``."""
    buf = bytearray()
    try:
        while len(buf) < size and (chunk := fh.read(min(size - len(buf), _CHUNK))):
            buf += chunk
    except (EOFError, zlib.error) as exc:
        raise DataError(f"{path}: {exc}") from exc
    if len(buf) != size:
        raise DataError(f"{path}: expected {size} more bytes, got {len(buf)}")
    return buf


def load_idx(images_path, labels_path, digit_a, digit_b):
    """The labeled pool ``(X, y)`` of two digits in an IDX image/label file
    pair: ``X`` holds the [0, 1]-scaled pixels of the two digits' images only
    (p x N columns, in file order), and ``y`` is -1 for ``digit_a`` (class 1)
    and +1 for ``digit_b``.  No other digit's image is converted."""
    if digit_a == digit_b:
        raise ValueError(f"the two digits must differ, got {digit_a} twice")
    with _open_maybe_gzip(images_path) as fh:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, images_path))
        if magic != IMAGES_MAGIC:
            raise DataError(f"{images_path}: magic 0x{magic:08x}, expected 0x{IMAGES_MAGIC:08x}")
        if count * rows * cols == 0:
            raise DataError(f"{images_path}: {count} images of {rows} x {cols} pixels hold no pixels")
        raw = _read_exact(fh, count * rows * cols, images_path)
    with _open_maybe_gzip(labels_path) as fh:
        magic, label_count = struct.unpack(">II", _read_exact(fh, 8, labels_path))
        if magic != LABELS_MAGIC:
            raise DataError(f"{labels_path}: magic 0x{magic:08x}, expected 0x{LABELS_MAGIC:08x}")
        label_raw = _read_exact(fh, label_count, labels_path)
    if label_count != count:
        raise DataError(f"{count} images but {label_count} labels")
    labels = np.frombuffer(label_raw, dtype=np.uint8).astype(np.int64)
    for digit in (digit_a, digit_b):
        if not np.any(labels == digit):
            raise DataError(f"no samples labeled {digit}")
    keep = np.flatnonzero((labels == digit_a) | (labels == digit_b))
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)[keep]
    return pixels.T / 255.0, np.where(labels[keep] == digit_a, -1.0, 1.0)


def write_idx(pixels: np.ndarray, labels: np.ndarray, images_path, labels_path) -> None:
    """Write raw uint8 images (p x N columns, p = rows*cols with square
    images assumed) and labels as the IDX pair :func:`load_idx` reads; a
    test helper, the source of synthetic digit files."""
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


def class_stats(X, y) -> MixtureStats:
    """Statistics of the empirical two-class mixture of the labeled pool
    ``(X, y)`` (sample means, sample covariances with denominator N-1,
    proportions from class counts) for the asymptotic predictors; class 1 is
    labeled -1.  A sample covariance is positive semidefinite by
    construction, so none is checked or decomposed."""
    mask_a = y < 0
    na = int(mask_a.sum())
    nb = mask_a.size - na
    if na < 2 or nb < 2:
        raise ValueError("need at least two samples per class for a covariance")
    # one class's columns at a time: each copy is freed when _moments returns
    (mu_a, cov_a), (mu_b, cov_b) = (_moments(X[:, m]) for m in (mask_a, ~mask_a))
    return mixture_stats(mu_a, mu_b, cov_a, cov_b, na / (na + nb))


def _moments(x):
    """Mean and covariance (denominator N-1) of the columns of ``x``, centred
    in place: the product ``np.cov`` forms, without its two copies of ``x``."""
    mu = x.mean(axis=1)
    x -= mu[:, None]
    cov = x @ x.T * (1.0 / (x.shape[1] - 1))
    return mu, 0.5 * (cov + cov.T)  # exactly symmetric against accumulation order


def discrepancy_stats(stats: MixtureStats):
    """The three separation summaries

        ||mu2 - mu1||^2,  (tr(C2 - C1))^2 / p,  tr((C2 - C1)^2) / p.
    """
    p = stats.p
    return (
        stats.mean_gap_sq,
        stats.trace_gap**2 / p,
        stats.sq_trace_gap / p,
    )


def _mean_square(images):
    """Mean squared pixel; ``np.vdot`` and ``images**2`` would copy the matrix."""
    flat = images.ravel(order="K")
    return float(flat @ flat) / flat.size


def discrepancy_by_scaling(X, stats: MixtureStats):
    """``discrepancy_stats`` of ``stats = class_stats(X, y)`` as it reads
    with every pixel multiplied by f, for each candidate scaling: ``unit``
    (f = 1), ``raw`` (255), ``mean`` (1 / the mean pixel of ``X``) and
    ``rms`` (1 / the root mean squared pixel), for matching moment tables of
    unknown preprocessing.  Scaling by f scales the triple by (f^2, f^4, f^4).
    """
    factors = {"unit": 1.0, "raw": 255.0, "mean": 1.0 / float(np.mean(X)),
               "rms": 1.0 / np.sqrt(_mean_square(X))}
    mean_gap, trace_gap, sq_trace_gap = discrepancy_stats(stats)
    return {name: (f**2 * mean_gap, f**4 * trace_gap, f**4 * sq_trace_gap)
            for name, f in factors.items()}


def add_white_noise(X, snr_db, seed):
    """``X`` plus i.i.d. zero-mean Gaussian pixel noise at the given SNR.

    Signal power is the mean squared pixel value of ``X``, and the noise
    variance is ``P_signal * 10**(-snr_db / 10)``; ``snr_db = +inf`` returns
    ``X`` itself, and a huge finite SNR adds zero noise.
    An SNR whose noise variance is not finite (NaN, -inf, a huge negative
    value) raises ``ValueError``.
    """
    if snr_db == np.inf:
        return X
    try:
        noise_var = _mean_square(X) * 10.0 ** (-float(snr_db) / 10.0)
    except OverflowError:  # a Python float's ** does not return inf
        noise_var = np.inf
    if not np.isfinite(noise_var):
        raise ValueError(f"snr_db = {snr_db} gives a noise variance that is not finite")
    noisy = np.random.default_rng(seed).standard_normal(X.shape)
    noisy *= np.sqrt(noise_var)
    noisy += X
    return noisy
