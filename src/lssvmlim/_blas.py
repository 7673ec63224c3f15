"""Dense products through SciPy's BLAS.

NumPy and SciPy each load their own OpenBLAS, each with its own pool of
threads.  SciPy's factors the regularized kernel system
(:mod:`lssvmlim.lssvm`), so the Monte Carlo path makes its products there
too and a trial drives one pool: with two, one pool's idle threads keep
spinning while the other's work, and on a machine with few cores each slows
the other.

Each function makes the BLAS call that NumPy's ``@`` makes for the product
its docstring names: the same routine on the same memory, with the same
operand order and transpositions.  Its result has NumPy's bits wherever the
two libraries split the call among their threads alike, which includes
every call run on one thread.  On several threads the two builds split some
mid-sized products differently, and there the last bits differ, as NumPy's
own do with its thread count.

SciPy's wrappers copy an operand that is not one contiguous block, and some
OpenBLAS kernels branch on the leading dimension or the stride, so such an
operand is left to ``@``; so are a dot product, an outer product and an
empty product, for which NumPy calls no matrix routine.  Operands are
float64 arrays of one or two dimensions.  SciPy is imported inside the
functions, so importing this module loads none of it.
"""

from __future__ import annotations

import numpy as np

_TILE = 64  # rows and columns per block when mirroring a triangle


def _in_place(a):
    """``(f, t)``: the Fortran-ordered matrix BLAS reads where NumPy reads
    the 2-D ``a`` row-major, with ``op_t(f) = a.T`` (``t = 1`` transposes);
    ``None`` when ``a`` is not one contiguous block."""
    if a.flags.c_contiguous:
        return a.T, 0
    if a.flags.f_contiguous:
        return a, 1
    return None


def matmul(a, b):
    """``a @ b``: a ``dgemm`` for a matrix times a matrix and a ``dgemv``
    for a matrix times a vector, either way round, as in NumPy's matmul.

    For ``X.T @ X`` use :func:`gram`: NumPy takes a symmetric rank-k update
    there."""
    from scipy.linalg import blas  # imported here, so `import lssvmlim` loads no SciPy

    m = 1 if a.ndim == 1 else a.shape[0]
    k = a.shape[-1]
    n = 1 if b.ndim == 1 else b.shape[1]
    if 0 in (m, k, n) or k == 1 or m == n == 1:
        return a @ b
    if m == 1 or n == 1:
        if m == 1:  # x @ b = b' x
            x, view = (a if a.ndim == 1 else a[0]), _in_place(b)
        else:
            x, view = (b if b.ndim == 1 else b[:, 0]), _in_place(a)
        if view is None or not x.flags.c_contiguous:
            return a @ b
        f, t = view
        y = blas.dgemv(1.0, f, x, trans=t if m == 1 else 1 - t)
        return y.reshape(a.shape[:-1] + b.shape[1:])
    va, vb = _in_place(a), _in_place(b)
    if va is None or vb is None:
        return a @ b
    # NumPy computes the row-major C = a b as the column-major C' = b' a'.
    (fa, ta), (fb, tb) = va, vb
    return blas.dgemm(1.0, fb, fa, trans_a=tb, trans_b=ta).T


def gram(X):
    """``X.T @ X`` for a 2-D ``X``, as NumPy computes it on one contiguous
    buffer: a ``dsyrk`` fills one triangle, and the other is mirrored from
    it, so the result is exactly symmetric.  Any other ``X`` is first copied
    into C order."""
    from scipy.linalg import blas

    X = X if X.flags.forc else np.ascontiguousarray(X)
    if X.shape[1] == 1 or X.size == 0:
        return X.T @ X  # a dot product, or no product at all
    f, t = _in_place(X)
    G = blas.dsyrk(1.0, f, trans=t, lower=1).T  # the upper triangle of X' X
    n = len(G)
    # Block by block: a column-at-a-time copy misses the cache on every write.
    for i in range(0, n, _TILE):
        for j in range(0, i, _TILE):
            G[i : i + _TILE, j : j + _TILE] = G[j : j + _TILE, i : i + _TILE].T
        for r in range(i + 1, min(i + _TILE, n)):
            G[r, i:r] = G[i:r, r]
    return G
