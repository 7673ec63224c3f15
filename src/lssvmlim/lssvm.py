"""Exact LS-SVM training and decision evaluation.

Training solves the regularized kernel system

    S alpha + b 1 = y,   1' alpha = 0,   S = K + (n / gamma) I,

as one projected solve, ``P S P alpha = P y`` for alpha orthogonal to 1
with ``P = I - 11'/n``, then ``b = mean(y - S alpha)``.  In the regime the
package studies, ``K`` is a rank-few part plus a bulk with O(1)
eigenvalues, and the shift n/gamma is O(n), so the spectrum of ``S`` sits
in two tight clusters (``P`` also removes its outlier near ``n f(tau)``)
and its condition number stays O(1) as n grows.  Conjugate gradients
therefore converge in a handful of products with ``K`` and are tried
first.  When they do not converge, or a step's curvature is not safely
positive, ``S`` is decomposed once instead, as ``V diag(lam) V'`` by
NumPy's ``eigh``, which solves for y and 1 and gives the paper's
``b = (1' S^{-1} y) / (1' S^{-1} 1)``.  ``S`` is symmetric but not
guaranteed positive definite (locally specified kernels may produce
indefinite Gram matrices), and ``eigh`` takes either kind.  It is several
times the cost of an LU, a cost paid only where conjugate gradients give up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalFailure
from .kernels import Gram, KernelProfile, gram_matrix, kernel_vector

_PIVOT_RTOL = 1e-12
_CG_RTOL = 1e-14  # relative residual at which a conjugate-gradient solve stops
_CG_MAXIT = 16  # products with K before conjugate gradients give up


def _cg(K, shift, b):
    """Solve ``P (K + shift I) x = P b``, ``P = I - 11'/n``, for ``x``
    orthogonal to 1 by conjugate gradients, or return None.

    Each step makes one product with ``K`` and removes its mean, and the
    solve stops once its recursive residual is within ``_CG_RTOL`` of
    ``P b``.  The result is None when it has not stopped after ``_CG_MAXIT``
    steps, or when a step's curvature p'Sp / p'p is not above
    ``_PIVOT_RTOL`` times the largest seen, the floor the fallback's
    eigenvalues use; a curvature that is not positive never passes.  ``K``
    is only read, and only through ``K @``.
    """
    x = np.zeros_like(b)
    r = b - b.mean()
    p = r.copy()
    rr = r @ r
    stop = (_CG_RTOL**2) * rr
    top = 0.0
    for _ in range(_CG_MAXIT):
        if rr <= stop:  # a NaN residual never stops
            return x
        q = K @ p + shift * p
        q -= q.mean()
        pq = p @ q
        curv = pq / (p @ p)
        top = max(top, curv)
        if not curv > _PIVOT_RTOL * top:  # also a NaN, 0 or negative curvature
            return None
        step = rr / pq
        x += step * p
        r -= step * q
        r_r = r @ r
        p = r + (r_r / rr) * p
        rr = r_r
    return x if rr <= stop else None


def _factor(K, shift):
    """Decompose ``S = K + shift I`` once and return ``solve(b)`` for ``S x = b``.

    ``S = V diag(lam) V'`` by ``np.linalg.eigh``, kept only if every
    ``|lam|`` is at least ``_PIVOT_RTOL * ||S||_inf``.  The norm is taken
    over all of ``S``: ``eigh`` reads one triangle, and a NaN in the other
    must fail the test too.  ``S`` starts as a dense copy of ``K``, which may
    be a :class:`~lssvmlim.kernels.Gram` or a square array.  It costs several
    times an LU, and runs only where conjugate gradients give up.
    """
    S = np.array(K, dtype=float)
    S.flat[:: len(S) + 1] += shift
    try:
        lam, V = np.linalg.eigh(S)
        kept = np.abs(lam).min() >= _PIVOT_RTOL * np.linalg.norm(S, np.inf)  # False on a NaN
    except np.linalg.LinAlgError:  # eigh did not converge
        kept = False
    if not kept:
        raise NumericalFailure(f"regularized kernel system is numerically singular (n={len(S)})")
    return lambda b: V @ ((V.T @ b) / lam)


def train(gram: Gram | np.ndarray, labels: np.ndarray, gamma: float):
    """Solve for the dual coefficients and bias.

    One projected solve for y; the bias is ``mean(y - S alpha)``, from the
    residual guard's product.  The paper's ``b`` serves the factored path.

    Parameters
    ----------
    gram : (n, n) symmetric kernel matrix, a :class:`~lssvmlim.kernels.Gram`
        or a dense square array; left unchanged.  It is read through
        ``gram @`` only, unless the system has to be decomposed.
    labels : n-vector with both classes present (+-1 or normalized values).
    gamma : positive regularization factor.

    Returns
    -------
    (alpha, bias) satisfying ``S alpha = y - bias`` and ``1' alpha = 0`` up to
    solver tolerance.
    """
    K = gram if isinstance(gram, Gram) else np.asarray(gram, dtype=float)
    y = np.asarray(labels, dtype=float)
    n = K.shape[0]
    if K.shape != (n, n):
        raise DataError(f"gram matrix must be square, got {K.shape}")
    if y.shape != (n,):
        raise DataError(f"labels must have length {n}, got {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("training labels must be finite")
    if np.unique(y).size < 2:
        raise DataError("training labels contain a single class")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")

    shift = n / gamma
    solve = None  # S is factored only when conjugate gradients give up
    alpha = _cg(K, shift, y)
    if alpha is None:
        solve = _factor(K, shift)
        sy, s1 = solve(y), solve(np.ones(n))
        bias = sy.sum() / s1.sum()
        alpha = sy - bias * s1
    s_alpha = K @ alpha + shift * alpha
    if solve is None:
        bias = np.mean(y - s_alpha)

    # Residual guard: one iterative-refinement pass with the factorization
    # (made now if conjugate gradients solved) before declaring the
    # solution unusable.  Written as "not <=" so that a NaN residual fails
    # it too.
    target = y - bias
    resid = s_alpha - target
    tol = 1e-8 * (np.linalg.norm(y) + abs(bias) * np.sqrt(n))
    if not np.linalg.norm(resid) <= tol:
        if solve is None:
            solve = _factor(K, shift)
        alpha = alpha - solve(resid)
        resid = K @ alpha + shift * alpha - target
        if not np.linalg.norm(resid) <= tol:
            raise NumericalFailure(
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
        raise DataError("both classes are required to normalize labels")
    n = n1 + n2
    out = np.where(y < 0, -n / n1, n / n2)
    return out.astype(float)


def classify(scores, threshold) -> np.ndarray:
    """Class 1 where ``scores < threshold``, else class 2 (ties go to class
    2), as an array of the shape of ``scores``."""
    return np.where(np.asarray(scores) < threshold, 1, 2)


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """Immutable trained classifier; safe to share across threads."""

    X: np.ndarray               # p x n training data
    profile: KernelProfile
    alpha: np.ndarray
    bias: float

    @classmethod
    def fit(cls, X, labels, gamma, profile, convention="standard"):
        """Train on the columns of ``X`` with +-1 ``labels``, as targets
        under ``convention``: "standard" (+-1) or "fisher" (-n/n1, n/n2)."""
        if convention not in ("standard", "fisher"):
            raise ValueError(f"unknown label convention: {convention!r}")
        y = np.asarray(labels, dtype=float)
        if convention == "fisher":
            y = normalize_labels(y)
        K = gram_matrix(X, profile)
        alpha, bias = train(K, y, gamma)
        return cls(X=np.asarray(X, dtype=float), profile=profile, alpha=alpha, bias=bias)

    @property
    def p(self):
        return self.X.shape[0]

    def decide(self, x) -> float:
        """Decision score ``alpha' k(x) + bias`` of one point, as :meth:`decide_many` scores it."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.p,):
            raise DataError(f"expected a vector of length {self.p}, got {x.shape}")
        return float(self.decide_many(x[:, None])[0])

    def decide_many(self, points) -> np.ndarray:
        """Decision scores for the columns of a ``p x m`` matrix."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] != self.p:
            raise DataError(f"expected a {self.p} x m matrix, got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("the points to score must be finite")
        return self.alpha @ kernel_vector(self.X, pts, self.profile) + self.bias

