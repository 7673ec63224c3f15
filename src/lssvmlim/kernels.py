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


class _Profile:
    """``value`` works on a copy; ``_apply`` overwrites a float array."""

    def value(self, u):
        return self._apply(np.array(u, dtype=float))[()]


@dataclass(frozen=True)
class GaussianKernel(_Profile):
    """Radial basis profile ``f(u) = exp(-u / (2 sigma2))``."""

    sigma2: float

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")

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


def pairwise_sq_dists(X: np.ndarray, Q: np.ndarray | None = None) -> np.ndarray:
    """Squared distances between the columns of ``X`` and those of ``Q``
    (default ``X``) by the inner-product expansion, clamped at zero.

    Without ``Q`` the result is exactly symmetric with an exactly zero
    diagonal: NumPy evaluates ``X.T @ X`` on one buffer as a symmetric
    rank-k update, which fills one triangle and mirrors it."""
    X = np.asarray(X, dtype=float)
    if Q is None and not X.flags.forc:
        X = X.copy()  # one contiguous buffer, so that X.T @ X is a syrk
    G = X.T @ (X if Q is None else Q)
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


def kernel_to_spec(profile: KernelProfile) -> dict:
    """Inverse of :func:`kernel_from_spec`."""
    if isinstance(profile, GaussianKernel):
        return {"kind": "gaussian", "sigma2": profile.sigma2}
    if isinstance(profile, PolynomialKernel):
        return {"kind": "polynomial", "coeffs": list(profile.coeffs)}
    if isinstance(profile, TaylorKernel):
        return {
            "kind": "local",
            "tau": profile.anchor,
            "f": profile.f0,
            "fp": profile.f1,
            "fpp": profile.f2,
        }
    raise TypeError(f"not a kernel profile: {profile!r}")
