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

_ROWS = 512  # rows of the Gram's upper triangle built per block row
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
        try:
            f = float(np.exp(-float(u) / (2.0 * self.sigma2)))
            return f, -f / (2.0 * self.sigma2), f / (4.0 * self.sigma2**2)
        except ArithmeticError as exc:  # sigma2**2 overflows or underflows to 0
            raise ValueError(f"sigma2 = {self.sigma2} gives non-finite derivatives") from exc


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
        x = u.copy()  # Horner overwrites u while it still needs the argument
        u.fill(0.0)
        for c in reversed(self.coeffs):
            u *= x
            u += c
        return u

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


def gram_matrix(data: np.ndarray, profile: KernelProfile) -> np.ndarray:
    """Kernel matrix ``K[i, j] = f(||x_i - x_j||^2 / p)`` over the columns
    ``x_i`` of ``data`` (shape ``p x n``).

    ``K`` is exactly symmetric with diagonal exactly ``f(0)``.  Each ``_ROWS``
    rows of its upper triangle are built in ``K``'s own buffer: a general
    product of ``X' X`` (NumPy's ``X.T @ X`` mirrors its triangle one column
    at a time, about doubling its cost), the distances ``(a_i + a_j) - 2 G_ij``
    with ``a`` the product's diagonal, clamped at zero, then ``f`` of their
    ratio to ``p``.  The triangle is then mirrored, so the build holds ``K``
    and about one block row.  A non-contiguous ``X`` is copied first.
    """
    X = np.asarray(data, dtype=float)
    X = X if X.flags.forc else np.ascontiguousarray(X)
    p, n = X.shape
    K = np.empty((n, n))
    a = np.empty(n)
    # Last block row first: each needs the norms a[j] of every later column.
    for i in reversed(range(0, n, _ROWS)):
        B = K[i : i + _ROWS, i:]
        np.matmul(X[:, i : i + _ROWS].T, X[:, i:], out=B)
        a[i : i + len(B)] = np.diagonal(B)
        B *= -2.0
        B += np.add.outer(a[i : i + len(B)], a[i:])
        np.maximum(B, 0.0, out=B)
        np.fill_diagonal(B, 0.0)  # already 0 unless a norm overflowed
        B /= p
        profile._apply(B)
    # Block by block: a column-at-a-time copy misses the cache on every write.
    for i in range(0, n, _TILE):
        for j in range(0, i, _TILE):
            K[i : i + _TILE, j : j + _TILE] = K[j : j + _TILE, i : i + _TILE].T
        for r in range(i + 1, min(i + _TILE, n)):
            K[r, i:r] = K[i:r, r]
    return K


def kernel_vector(data: np.ndarray, x: np.ndarray, profile: KernelProfile) -> np.ndarray:
    """Kernel evaluations ``f(||x - x_j||^2 / p)`` against the columns of
    ``data``.

    ``x`` may be a single ``p``-vector (returns an ``n``-vector) or a
    ``p x m`` matrix of query points (returns ``n x m``).  The distances
    expand as in :func:`gram_matrix`, ``(a_i + b_j) - 2 x_i' q_j``, clamped at zero.
    """
    X = np.asarray(data, dtype=float)
    q = np.asarray(x, dtype=float)
    Q = q.reshape(q.shape[0], -1)
    D = X.T @ Q
    D *= -2.0
    D += np.add.outer(np.einsum("ij,ij->j", X, X), np.einsum("ij,ij->j", Q, Q))
    np.maximum(D, 0.0, out=D)
    D /= X.shape[0]
    out = profile._apply(D)
    return out[:, 0] if q.ndim == 1 else out


def kernel_from_spec(spec: dict) -> KernelProfile:
    """Build a profile from its config-file form.

    Grammar::

        {"kind": "gaussian",   "sigma2": 1.0}
        {"kind": "polynomial", "coeffs": [a0, a1, ...]}
        {"kind": "local",      "tau": 2.0, "f": 4.0, "fp": 0.0, "fpp": 2.0}
    """
    kind = spec.get("kind")
    try:
        if kind == "gaussian":
            return GaussianKernel(float(spec["sigma2"]))
        if kind == "polynomial":
            return PolynomialKernel(tuple(spec["coeffs"]))
        if kind == "local":
            return TaylorKernel(*(float(spec[key]) for key in ("tau", "f", "fp", "fpp")))
    except TypeError as exc:  # e.g. a null, or coefficients that are not a list
        raise ValueError(f"kernel value of the wrong type: {exc}") from exc
    raise ValueError(f"unknown kernel kind: {kind!r}")

