"""Exact LS-SVM training and decision evaluation.

Training solves the regularized kernel system

    S alpha = y - b 1,   b = (1' S^{-1} y) / (1' S^{-1} 1),
    S = K + (n / gamma) I,

from a single factorization with two right-hand sides.  ``S`` is symmetric
but not guaranteed positive definite (locally specified kernels may produce
indefinite Gram matrices), so Cholesky is tried first, then a partially
pivoted LU if Cholesky fails or a pivot collapses, then a rank-revealing
column-pivoted QR if an LU pivot collapses too.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, OneClassOnly, SingularSystem
from .kernels import KernelProfile, gram_matrix, kernel_from_spec, kernel_to_spec, kernel_vector

_PIVOT_RTOL = 1e-12


def _shifted(S, K, shift):
    """Write ``K + shift I`` into ``S`` and return it."""
    np.copyto(S, K)
    S.flat[:: len(S) + 1] += shift
    return S


def _factor(K, shift):
    """Factor ``S = K + shift I`` once and return ``solve(B)`` for ``S X = B``.

    ``S`` lives in one C-ordered buffer and is factored in place through
    its Fortran-ordered transpose, so LAPACK makes no copy; a failed attempt
    rebuilds ``S`` from ``K`` in the same buffer.  A factorization is kept
    only if its pivots stay above ``_PIVOT_RTOL * ||S||_inf``.
    """
    S = _shifted(np.empty_like(K, order="C"), K, shift)
    floor = _PIVOT_RTOL * scipy.linalg.lapack.dlange("1", S.T)  # ||S||_inf
    try:
        c, lower = scipy.linalg.cho_factor(S.T, overwrite_a=True, check_finite=False)
        if np.diagonal(c).min() ** 2 >= floor:
            return lambda B: scipy.linalg.cho_solve((c, lower), B, check_finite=False)
    except np.linalg.LinAlgError:  # not positive definite
        pass
    lu, piv = scipy.linalg.lu_factor(
        _shifted(S, K, shift).T, overwrite_a=True, check_finite=False
    )
    if np.abs(np.diagonal(lu)).min() >= floor:
        # lu factors S.T, so solve with the transpose of the factorization
        return lambda B: scipy.linalg.lu_solve((lu, piv), B, trans=1, check_finite=False)
    # Partial pivoting failed; retry with column-pivoted QR before giving up.
    q, r, perm = scipy.linalg.qr(
        _shifted(S, K, shift), pivoting=True, mode="economic", check_finite=False
    )
    if not np.abs(np.diagonal(r)).min() >= floor:  # also when S holds a NaN
        raise SingularSystem(
            f"regularized kernel system is numerically singular (n={len(S)})"
        )

    def solve(B):
        out = np.empty_like(B)
        out[perm] = scipy.linalg.solve_triangular(r, q.T @ B)
        return out

    return solve


def train(gram: np.ndarray, labels: np.ndarray, gamma: float):
    """Solve for the dual coefficients and bias.

    Parameters
    ----------
    gram : (n, n) symmetric kernel matrix; left unchanged.
    labels : n-vector with both classes present (+-1 or normalized values).
    gamma : positive regularization factor.

    Returns
    -------
    (alpha, bias) satisfying ``S alpha = y - bias`` and ``1' alpha = 0`` up to
    solver tolerance.
    """
    K = np.asarray(gram, dtype=float)
    y = np.asarray(labels, dtype=float)
    n = K.shape[0]
    if K.shape != (n, n):
        raise DimensionMismatch(f"gram matrix must be square, got {K.shape}")
    if y.shape != (n,):
        raise DimensionMismatch(f"labels must have length {n}, got {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("training labels must be finite")
    if np.unique(y).size < 2:
        raise OneClassOnly("training labels contain a single class")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")

    shift = n / gamma
    solve = _factor(K, shift)
    sol = solve(np.column_stack([y, np.ones(n)]))
    sy, s1 = sol[:, 0], sol[:, 1]
    bias = sy.sum() / s1.sum()
    alpha = sy - bias * s1

    # Residual guard: one iterative-refinement pass, reusing the
    # factorization, before declaring it unusable.  Written as "not <=" so
    # that a NaN residual fails it too.
    target = y - bias
    resid = K @ alpha + shift * alpha - target
    tol = 1e-8 * (np.linalg.norm(y) + abs(bias) * np.sqrt(n))
    if not np.linalg.norm(resid) <= tol:
        alpha = alpha - solve(resid[:, None])[:, 0]
        resid = K @ alpha + shift * alpha - target
        if not np.linalg.norm(resid) <= tol:
            raise SingularSystem(
                f"training residual {np.linalg.norm(resid):.3e} exceeds {tol:.3e}"
            )
    return alpha, float(bias)


def normalize_labels(labels: np.ndarray) -> np.ndarray:
    """Map +-1 labels to the zero-sum targets ``-n/n1`` (class 1) and
    ``n/n2`` (class 2), computed from the integer class counts."""
    y = np.asarray(labels)
    n1 = int(np.count_nonzero(y < 0))
    n2 = int(np.count_nonzero(y > 0))
    if n1 == 0 or n2 == 0:
        raise OneClassOnly("both classes are required to normalize labels")
    n = n1 + n2
    out = np.where(y < 0, -n / n1, n / n2)
    return out.astype(float)


def classify(score, threshold):
    """Class 1 if ``score < threshold`` else class 2 (ties go to class 2)."""
    score = np.asarray(score)
    out = np.where(score < threshold, 1, 2)
    return int(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """Immutable trained classifier; safe to share across threads."""

    X: np.ndarray               # p x n training data
    profile: KernelProfile
    gamma: float
    alpha: np.ndarray
    bias: float
    label_convention: str       # "standard" (+-1) or "fisher" (-n/n1, n/n2)

    @classmethod
    def fit(cls, X, labels, gamma, profile, convention="standard"):
        """Train on the columns of ``X`` with +-1 ``labels``."""
        if convention not in ("standard", "fisher"):
            raise ValueError(f"unknown label convention: {convention!r}")
        y = np.asarray(labels, dtype=float)
        if convention == "fisher":
            y = normalize_labels(y)
        K = gram_matrix(X, profile)
        alpha, bias = train(K, y, gamma)
        return cls(
            X=np.asarray(X, dtype=float),
            profile=profile,
            gamma=float(gamma),
            alpha=alpha,
            bias=bias,
            label_convention=convention,
        )

    @property
    def p(self):
        return self.X.shape[0]

    @property
    def n(self):
        return self.X.shape[1]

    def decide(self, x) -> float:
        """Decision score ``alpha' k(x) + bias`` for a single point."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.p,):
            raise DimensionMismatch(f"expected a vector of length {self.p}, got {x.shape}")
        return float(self.alpha @ kernel_vector(self.X, x, self.profile) + self.bias)

    def decide_many(self, points) -> np.ndarray:
        """Decision scores for the columns of a ``p x m`` matrix."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] != self.p:
            raise DimensionMismatch(f"expected a {self.p} x m matrix, got {pts.shape}")
        return self.alpha @ kernel_vector(self.X, pts, self.profile) + self.bias


def save_model(model: TrainedModel, path, data_path=None) -> None:
    """Serialize to a flat JSON object.

    Training data is embedded as base64 column-major float64 by default, or
    written to ``data_path`` as raw column-major float64 bytes when given.
    ``alpha`` and ``bias`` are stored as decimal floats, which round-trip
    bit-exactly.
    """
    raw = np.asfortranarray(model.X).tobytes(order="F")
    if data_path is None:
        training = {"encoding": "base64_f64_colmajor", "data": base64.b64encode(raw).decode()}
    else:
        Path(data_path).write_bytes(raw)
        training = {"encoding": "raw_f64_colmajor", "path": str(data_path)}
    obj = {
        "p": model.p,
        "n": model.n,
        "gamma": model.gamma,
        "label_convention": model.label_convention,
        "kernel": kernel_to_spec(model.profile),
        "alpha": model.alpha.tolist(),
        "bias": model.bias,
        "training_data": training,
    }
    Path(path).write_text(json.dumps(obj))


def load_model(path) -> TrainedModel:
    """Inverse of :func:`save_model`."""
    obj = json.loads(Path(path).read_text())
    p, n = int(obj["p"]), int(obj["n"])
    training = obj["training_data"]
    if training["encoding"] == "base64_f64_colmajor":
        raw = base64.b64decode(training["data"])
    elif training["encoding"] == "raw_f64_colmajor":
        raw = Path(training["path"]).read_bytes()
    else:
        raise ValueError(f"unknown training data encoding: {training['encoding']!r}")
    X = np.frombuffer(raw, dtype=np.float64).reshape((p, n), order="F")
    return TrainedModel(
        X=X,
        profile=kernel_from_spec(obj["kernel"]),
        gamma=float(obj["gamma"]),
        alpha=np.asarray(obj["alpha"], dtype=float),
        bias=float(obj["bias"]),
        label_convention=obj["label_convention"],
    )
