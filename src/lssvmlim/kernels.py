"""Translation-invariant kernel profiles and Gram computations.

All kernels here are functions of the normalized squared distance
``u = ||x - y||^2 / p`` (``p`` the ambient dimension), so a profile is a
scalar function ``f`` on the nonnegative reals together with its first two
derivatives.  The polynomial profile is a polynomial *in the squared
distance*, not the usual inner-product polynomial kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

_ROWS = 512  # rows of X' X per product when filling its upper triangle
_TILE = 64  # rows and columns per block when mirroring that triangle


class _Profile:
    """``value`` works on a copy; ``_apply`` overwrites a float array."""

    def value(self, u):
        return self._apply(np.array(u, dtype=float))[()]


@dataclass(frozen=True)
class GaussianKernel(_Profile):
    """Radial basis profile ``f(u) = exp(-u / (2 sigma2))``."""

    sigma2: float

    def __post_init__(self):
        if not 0 < self.sigma2 < np.inf:
            raise ValueError(f"sigma2 must be finite and positive, got {self.sigma2}")

    def _apply(self, u):
        u /= -2.0 * self.sigma2
        return np.exp(u, out=u)

    def derivatives(self, u):
        f = float(np.exp(-float(u) / (2.0 * self.sigma2)))
        return f, -f / (2.0 * self.sigma2), f / (4.0 * self.sigma2**2)


@dataclass(frozen=True)
class PolynomialKernel(_Profile):
    """Polynomial profile ``f(u) = sum_i coeffs[i] * u**i`` of the squared
    distance, low order first."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("polynomial kernel needs at least one coefficient")
        if not np.isfinite(coeffs).all():
            raise ValueError(f"polynomial coefficients must be finite, got {coeffs}")
        object.__setattr__(self, "coeffs", coeffs)

    def _apply(self, u):
        out = np.zeros_like(u)
        for c in reversed(self.coeffs):
            out *= u
            out += c
        return out

    def derivatives(self, u):
        u = float(u)
        f = fp = fpp = 0.0
        for c in reversed(self.coeffs):
            fpp = fpp * u + 2.0 * fp
            fp = fp * u + f
            f = f * u + c
        return f, fp, fpp


@dataclass(frozen=True)
class TaylorKernel(_Profile):
    """Locally specified profile: the exact quadratic

        ``f(u) = f0 + f1 (u - anchor) + f2 (u - anchor)^2 / 2``

    realizing a kernel of which only the value and first two derivatives at
    ``anchor`` are prescribed.  It may take negative values away from the
    anchor; that is accepted (the Gram matrix need not be PSD) because the
    evaluated arguments concentrate near the anchor in the intended regime.
    """

    anchor: float
    f0: float
    f1: float
    f2: float

    def __post_init__(self):
        given = (self.anchor, self.f0, self.f1, self.f2)
        if not np.isfinite(given).all():
            raise ValueError(f"local kernel anchor and coefficients must be finite, got {given}")

    def _apply(self, u):
        u -= self.anchor
        sq = (0.5 * self.f2) * u * u
        u *= self.f1
        u += self.f0
        u += sq
        return u

    def derivatives(self, u):
        d = float(u) - self.anchor
        return (
            self.f0 + self.f1 * d + 0.5 * self.f2 * d * d,
            self.f1 + self.f2 * d,
            self.f2,
        )


KernelProfile = Union[GaussianKernel, PolynomialKernel, TaylorKernel]


def _gram(X):
    """``X.T @ X`` for a 2-D ``X``, exactly symmetric.

    NumPy's own ``X.T @ X`` is a symmetric rank-k update whose triangle it
    mirrors one column at a time, which about doubles its time at the sizes
    the package trains on.  Here general products fill the upper triangle
    ``_ROWS`` rows at a time, and it is mirrored tile by tile.  Up to
    ``_ROWS`` columns the result is NumPy's product itself; past that, the
    two agree bit for bit where the BLAS kernel's tiles fall alike, which
    includes every ``n`` that is a multiple of ``_TILE``, and elsewhere may
    differ in the last bits.  An ``X`` that is not one contiguous buffer is
    first copied into C order.
    """
    X = X if X.flags.forc else np.ascontiguousarray(X)
    n = X.shape[1]
    G = np.empty((n, n))
    for i in range(0, n, _ROWS):
        np.matmul(X[:, i : i + _ROWS].T, X[:, i:], out=G[i : i + _ROWS, i:])
    # Block by block: a column-at-a-time copy misses the cache on every write.
    for i in range(0, n, _TILE):
        for j in range(0, i, _TILE):
            G[i : i + _TILE, j : j + _TILE] = G[j : j + _TILE, i : i + _TILE].T
        for r in range(i + 1, min(i + _TILE, n)):
            G[r, i:r] = G[i:r, r]
    return G


def pairwise_sq_dists(X: np.ndarray, Q: np.ndarray | None = None) -> np.ndarray:
    """Squared distances between the columns of ``X`` and those of ``Q``
    (default ``X``) by the inner-product expansion, clamped at zero.

    Without ``Q`` the result is exactly symmetric with an exactly zero
    diagonal: :func:`_gram` fills one triangle of ``X.T @ X`` and mirrors
    it."""
    X = np.asarray(X, dtype=float)
    G = _gram(X) if Q is None else X.T @ Q
    a = np.diagonal(G).copy() if Q is None else np.einsum("ij,ij->j", X, X)
    D = np.add.outer(a, a if Q is None else np.einsum("ij,ij->j", Q, Q))
    G *= -2.0
    D += G
    np.maximum(D, 0.0, out=D)
    if Q is None:
        np.fill_diagonal(D, 0.0)
    return D


def _kernel(X, Q, profile):
    """``f(D / p)`` evaluated in the buffer of ``D = pairwise_sq_dists(X, Q)``."""
    D = pairwise_sq_dists(X, Q)
    D /= np.shape(X)[0]
    return profile._apply(D)


def gram_matrix(data: np.ndarray, profile: KernelProfile) -> np.ndarray:
    """Kernel matrix ``K[i, j] = f(||x_i - x_j||^2 / p)`` over the columns
    ``x_i`` of ``data`` (shape ``p x n``).

    ``K`` is symmetric by construction with diagonal exactly ``f(0)``.
    """
    return _kernel(data, None, profile)


def kernel_vector(data: np.ndarray, x: np.ndarray, profile: KernelProfile) -> np.ndarray:
    """Kernel evaluations ``f(||x - x_j||^2 / p)`` against the columns of
    ``data``.

    ``x`` may be a single ``p``-vector (returns an ``n``-vector) or a
    ``p x m`` matrix of query points (returns ``n x m``).
    """
    q = np.asarray(x, dtype=float)
    out = _kernel(data, q.reshape(q.shape[0], -1), profile)
    return out[:, 0] if q.ndim == 1 else out


def kernel_from_spec(spec: dict) -> KernelProfile:
    """Build a profile from its config-file form.

    Grammar::

        {"kind": "gaussian",   "sigma2": 1.0}
        {"kind": "polynomial", "coeffs": [a0, a1, ...]}
        {"kind": "local",      "tau": 2.0, "f": 4.0, "fp": 0.0, "fpp": 2.0}
    """
    kind = spec.get("kind")
    if kind == "gaussian":
        return GaussianKernel(float(spec["sigma2"]))
    if kind == "polynomial":
        return PolynomialKernel(tuple(spec["coeffs"]))
    if kind == "local":
        return TaylorKernel(
            float(spec["tau"]), float(spec["f"]), float(spec["fp"]), float(spec["fpp"])
        )
    raise ValueError(f"unknown kernel kind: {kind!r}")

