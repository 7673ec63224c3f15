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

from .mixture import real

_ROWS = 512  # rows of the Gram's upper triangle per block row
_TILE = 64  # most rows per kernel-value tile, and rows and columns per mirrored block
_TILE_ENTRIES = 1 << 16  # most entries per kernel-value tile: 512 KiB, so a tile, its
# norm sums and a profile's temporary fit together in a 2 MiB L2


def _tile_rows(width):
    """Rows per kernel-value tile for rows ``width`` entries wide."""
    return max(1, min(_TILE, _TILE_ENTRIES // max(width, 1)))


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


def _to_kernel(G, a, b, p, profile):
    """Turn ``G`` in place from products ``x_i' y_j`` into ``f(d_ij / p)``,
    ``d_ij = (a_i + b_j) - 2 G_ij`` clamped at zero, a tile of whole rows at
    a time so that each tile is still in cache for the profile.  ``a`` and
    ``b`` are the squared norms of the ``x_i`` and ``y_j``; their sums go
    into one tile-sized scratch.

    A tile is :func:`_tile_rows` rows: at most 64, and at most 64K entries,
    so 16 rows at width 4096.  Each entry goes through the same operations
    whatever the tile, so the height moves no value.  Taller tiles spill a
    2 MiB L2 between the passes, and each entry then costs more."""
    h = _tile_rows(len(b))
    sums = np.empty((min(h, len(G)), len(b)))
    for r in range(0, len(G), h):
        T = G[r : r + h]
        S = sums[: len(T)]
        np.add.outer(a[r : r + h], b, out=S)
        T *= -2.0
        T += S
        np.maximum(T, 0.0, out=T)
        T /= p
        profile._apply(T)
    return G


def _mirror(S):
    """Copy the upper triangle of the square ``S`` onto its lower one, block
    by block: a column-at-a-time copy misses the cache on every write."""
    for i in range(0, len(S), _TILE):
        for j in range(0, i, _TILE):
            S[i : i + _TILE, j : j + _TILE] = S[j : j + _TILE, i : i + _TILE].T
        for r in range(i + 1, min(i + _TILE, len(S))):
            S[r, i:r] = S[i:r, r]


@dataclass(frozen=True, eq=False)
class Gram:
    """A symmetric kernel matrix ``K`` held as its upper block rows.

    ``rows[k]`` is ``K[i:i + _ROWS, i:]`` with ``i = k * _ROWS``: its leading
    square is exactly symmetric, and the rectangle to its right stands for
    itself and, transposed, for the block column below the square.  That is
    about n^2 / 2 doubles instead of n^2.  ``G @ p`` multiplies a vector,
    reading each block row once, and ``np.asarray(G)`` gives the dense,
    exactly symmetric ``K``.  Two matrix-vector products over each whole
    block row beat 512-column chunks that serve both ``C @ p`` and
    ``C' @ p``: a general product with one column runs well below memory
    speed.
    """

    rows: tuple

    @property
    def shape(self):
        n = sum(map(len, self.rows))
        return n, n

    def __matmul__(self, p):
        """``K @ p`` for a vector ``p``: two matrix-vector products per
        block row B over the whole row, ``B @ p[i:]`` for the rows of the
        block row and ``p[i:i + r] @ B[:, r:]`` for the block column below
        its square.  With one block row this is ``K @ p`` bit for bit."""
        p = np.asarray(p, dtype=float)
        if p.ndim != 1:
            raise ValueError(f"a Gram multiplies vectors, got shape {p.shape}")
        out = np.zeros(len(p))
        for i, B in zip(range(0, len(p), _ROWS), self.rows):
            r = len(B)
            out[i : i + r] += B @ p[i:]
            out[i + r :] += p[i : i + r] @ B[:, r:]
        return out

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a Gram holds no dense matrix to share")
        K = np.empty(self.shape)
        for i, B in zip(range(0, len(K), _ROWS), self.rows):
            r = len(B)
            K[i : i + r, i:] = B
            K[i + r :, i : i + r] = B[:, r:].T
        return K if dtype is None else K.astype(dtype, copy=False)


def gram_matrix(data: np.ndarray, profile: KernelProfile) -> Gram:
    """Kernel matrix ``K[i, j] = f(||x_i - x_j||^2 / p)`` over the columns
    ``x_i`` of ``data`` (shape ``p x n``), as a :class:`Gram`.

    ``K`` is exactly symmetric with diagonal exactly ``f(0)``.  Each
    ``_ROWS``-row block row of its upper triangle is one general product of
    ``X' X`` (NumPy's ``X.T @ X`` mirrors its triangle one column at a time,
    about doubling its cost), turned in place into kernel values by
    :func:`_to_kernel` with ``a`` the product's diagonal; its square's
    diagonal is then set to ``f(0)`` and the square mirrored.  The build
    holds the block rows, about n^2 / 2 + 256 n doubles, and one tile of
    norm sums, at most 64K doubles.  A non-contiguous ``X`` is copied first.
    """
    X = np.asarray(data, dtype=float)
    X = X if X.flags.forc else np.ascontiguousarray(X)
    p, n = X.shape
    f0 = profile.value(0.0)
    a = np.empty(n)
    rows = []
    # Last block row first: each needs the norms a[j] of every later column.
    for i in reversed(range(0, n, _ROWS)):
        B = X[:, i : i + _ROWS].T @ X[:, i:]
        r = len(B)
        a[i : i + r] = np.diagonal(B)
        _to_kernel(B, a[i : i + r], a[i:], p, profile)
        np.fill_diagonal(B, f0)  # also where an overflowed norm left inf - inf
        _mirror(B[:, :r])
        rows.append(B)
    return Gram(tuple(reversed(rows)))


def kernel_vector(data: np.ndarray, queries: np.ndarray, profile: KernelProfile) -> np.ndarray:
    """Kernel evaluations ``K[j, k] = f(||x_j - q_k||^2 / p)`` between the
    columns ``x_j`` of ``data`` (``p x n``) and the columns ``q_k`` of the
    ``p x m`` matrix ``queries``, as an ``n x m`` array.  The product
    ``X' Q`` is turned into kernel values by :func:`_to_kernel`, as the
    block rows of :func:`gram_matrix` are.
    """
    X = np.asarray(data, dtype=float)
    Q = np.asarray(queries, dtype=float)
    a, b = np.einsum("ij,ij->j", X, X), np.einsum("ij,ij->j", Q, Q)
    return _to_kernel(X.T @ Q, a, b, X.shape[0], profile)


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
            return GaussianKernel(real(spec["sigma2"], "kernel.sigma2"))
        if kind == "polynomial":
            return PolynomialKernel(tuple(real(c, "kernel.coeffs") for c in spec["coeffs"]))
        if kind == "local":
            return TaylorKernel(*(real(spec[k], f"kernel.{k}") for k in ("tau", "f", "fp", "fpp")))
    except KeyError as exc:
        raise ValueError(f"missing key kernel.{exc.args[0]}") from None
    except TypeError as exc:  # e.g. a null, or coefficients that are not a list
        raise ValueError(f"kernel value of the wrong type: {exc}") from exc
    raise ValueError(f"unknown kernel kind: {kind!r}")

