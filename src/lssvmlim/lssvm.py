"""Exact LS-SVM training and decision evaluation.

Training solves the regularized kernel system

    S alpha = y - b 1,   b = (1' S^{-1} y) / (1' S^{-1} 1),
    S = K + (n / gamma) I,

for two right-hand sides at once.  In the regime the package studies, ``K``
is a rank-few part plus a bulk with O(1) eigenvalues, and the shift n/gamma
is O(n), so the spectrum of ``S`` sits in two tight clusters and its
condition number stays O(1) as n grows.  Conjugate gradients therefore
converge in a handful of products with ``K`` and are tried first.  When
they do not converge, or a step's curvature is not safely positive, ``S``
is decomposed instead, as ``V diag(lam) V'`` by NumPy's ``eigh``.  ``S`` is
symmetric but not guaranteed positive definite (locally specified kernels
may produce indefinite Gram matrices), and ``eigh`` takes either kind.  It
is several times the cost of an LU (about 1.6 s at n = 2048), a cost paid
only where conjugate gradients give up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, OneClassOnly, SingularSystem
from .kernels import KernelProfile, gram_matrix, kernel_vector

_PIVOT_RTOL = 1e-12
_CG_RTOL = 1e-14  # relative residual at which a conjugate-gradient column stops
_CG_MAXIT = 16  # products with K before conjugate gradients give up


def _cg(K, shift, B):
    """Solve ``(K + shift I) X = B`` by conjugate gradients, or return None.

    The columns of ``B`` advance in lockstep, one product with ``K`` per
    step, and a column stops once its recursive residual is within
    ``_CG_RTOL`` of its right-hand side.  The result is None when a column
    has not stopped after ``_CG_MAXIT`` steps, or when a step's curvature
    p'Sp / p'p is not above ``_PIVOT_RTOL`` times the largest seen, the
    floor the fallback's eigenvalues use; a curvature that is not positive
    never passes.  ``K`` is only read.
    """
    X = np.zeros_like(B)
    R = B.copy()
    P = B.copy()
    rr = np.einsum("ij,ij->j", R, R)
    stop = (_CG_RTOL**2) * rr
    top = 0.0
    for _ in range(_CG_MAXIT):
        live = np.flatnonzero(~(rr <= stop))  # a NaN residual stays live
        if not live.size:
            return X
        # A stopped column is left out: its next direction would be 0.
        p = P[:, live]
        q = K @ p + shift * p
        pq = np.einsum("ij,ij->j", p, q)
        curv = pq / np.einsum("ij,ij->j", p, p)
        top = max(top, curv.max())
        if not (curv > _PIVOT_RTOL * top).all():  # also a NaN, 0 or negative curvature
            return None
        step = rr[live] / pq
        X[:, live] += step * p
        r = R[:, live] - step * q
        r_r = np.einsum("ij,ij->j", r, r)
        R[:, live] = r
        P[:, live] = r + (r_r / rr[live]) * p
        rr[live] = r_r
    return X if (rr <= stop).all() else None


def _factor(K, shift):
    """Decompose ``S = K + shift I`` once and return ``solve(B)`` for ``S X = B``.

    ``S = V diag(lam) V'`` by ``np.linalg.eigh``, kept only if every
    ``|lam|`` is at least ``_PIVOT_RTOL * ||S||_inf``.  The norm is taken
    over all of ``S``: ``eigh`` reads one triangle, and a NaN in the other
    must fail the test too.  On a shared 2-core machine it took 1.6 s at
    n = 2048 and 0.24 s at n = 1024, against 0.23 s and 0.05 s for an LU.
    """
    S = K.copy()
    S.flat[:: len(S) + 1] += shift
    try:
        lam, V = np.linalg.eigh(S)
        kept = np.abs(lam).min() >= _PIVOT_RTOL * np.linalg.norm(S, np.inf)  # False on a NaN
    except np.linalg.LinAlgError:  # eigh did not converge
        kept = False
    if not kept:
        raise SingularSystem(
            f"regularized kernel system is numerically singular (n={len(S)})"
        )
    return lambda B: V @ ((V.T @ B) / lam[:, None])


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
    B = np.column_stack([y, np.ones(n)])
    solve = None  # S is factored only when conjugate gradients give up
    sol = _cg(K, shift, B)
    if sol is None:
        solve = _factor(K, shift)
        sol = solve(B)
    sy, s1 = sol[:, 0], sol[:, 1]
    bias = sy.sum() / s1.sum()
    alpha = sy - bias * s1

    # Residual guard: one iterative-refinement pass with the factorization
    # (made now if conjugate gradients solved) before declaring the
    # solution unusable.  Written as "not <=" so that a NaN residual fails
    # it too.
    target = y - bias
    resid = K @ alpha + shift * alpha - target
    tol = 1e-8 * (np.linalg.norm(y) + abs(bias) * np.sqrt(n))
    if not np.linalg.norm(resid) <= tol:
        if solve is None:
            solve = _factor(K, shift)
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
        """Decision score ``alpha' k(x) + bias`` of one point, as :meth:`decide_many` scores it."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.p,):
            raise DimensionMismatch(f"expected a vector of length {self.p}, got {x.shape}")
        return float(self.decide_many(x[:, None])[0])

    def decide_many(self, points) -> np.ndarray:
        """Decision scores for the columns of a ``p x m`` matrix."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] != self.p:
            raise DimensionMismatch(f"expected a {self.p} x m matrix, got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("the points to score must be finite")
        return self.alpha @ kernel_vector(self.X, pts, self.profile) + self.bias

