"""The dense products of ``lssvmlim._blas`` against NumPy's ``@``.

The bit-identity tests of sampling and of the Gram rest on these: every
``_blas`` function must make the BLAS call NumPy makes, so its result has
NumPy's bits.  The in-process properties draw shapes of at most 40 rows and
columns, which both OpenBLAS builds run on one thread.  Above the threading
threshold each build splits a product among its threads in its own way, and
some sizes then differ in the last bits, as NumPy's own ``@`` does with its
thread count; ``test_large_products_match_numpy_on_one_thread`` pins the
dispatch at such sizes with one thread per library.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import lssvmlim
from lssvmlim._blas import gram, matmul
from lssvmlim.mixture import ToeplitzCov, _toeplitz_root

LAYOUTS = ("C", "F", "transposed", "strided", "padded", "read-only", "toeplitz-root")
dims = st.one_of(st.just(1), st.integers(1, 40))


def matrix(rng, shape, layout):
    """A ``shape`` float64 matrix laid out in memory as ``layout`` says."""
    r, c = shape
    if layout == "C":
        return rng.standard_normal((r, c))
    if layout == "F":
        return np.asfortranarray(rng.standard_normal((r, c)))
    if layout == "transposed":
        return rng.standard_normal((c, r)).T
    if layout == "strided":
        return rng.standard_normal((2 * r, 3 * c))[::2, ::3]
    if layout == "padded":  # rows of a wider matrix: BLAS-addressable, not contiguous
        return rng.standard_normal((r, c + 3))[:, :c]
    if layout == "read-only":
        a = rng.standard_normal((r, c))
        a.flags.writeable = False
        return a
    return _toeplitz_root(ToeplitzCov(0.4, 1.5, r))  # square: the sampler's cached root


def vector(rng, k, layout):
    base = rng.standard_normal(3 * k)
    return {"contiguous": base[:k], "strided": base[::3], "reversed": base[:k][::-1]}[layout]


def same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["matrix @ matrix", "matrix @ vector", "vector @ matrix"]),
    dims, dims, dims,
    st.sampled_from(LAYOUTS), st.sampled_from(LAYOUTS),
    st.sampled_from(["contiguous", "strided", "reversed"]),
    st.integers(0, 2**32 - 1),
)
def test_matmul_has_the_bits_of_numpy(kind, m, k, n, layout_a, layout_b, layout_x, seed):
    rng = np.random.default_rng(seed)
    if layout_a == "toeplitz-root":
        k = m
    if layout_b == "toeplitz-root":
        n = k
    a = matrix(rng, (m, k), layout_a)
    b = matrix(rng, (k, n), layout_b)
    if kind == "matrix @ vector":
        b = vector(rng, k, layout_x)
    elif kind == "vector @ matrix":
        a = vector(rng, k, layout_x)
    assert same_bits(matmul(a, b), a @ b)


@settings(max_examples=200, deadline=None)
@given(dims, dims, st.sampled_from(LAYOUTS[:-1]), st.integers(0, 2**32 - 1))
def test_gram_has_the_bits_of_numpy_on_one_buffer(p, n, layout, seed):
    X = matrix(np.random.default_rng(seed), (p, n), layout)
    before = X.copy()
    Y = X if X.flags.forc else np.ascontiguousarray(X)
    G = gram(X)
    assert same_bits(G, Y.T @ Y)
    assert np.array_equal(G, G.T)
    assert np.array_equal(X, before)


CHILD = r"""
import numpy as np
from lssvmlim._blas import gram, matmul

rng = np.random.default_rng(7)
bad = []
# odd sizes, which two threads split differently in the two builds, and the
# benchmark's sampling and Gram shapes
for m, k, n in [(150, 150, 150), (300, 40, 300), (64, 1024, 100), (1024, 1024, 128)]:
    for a in (rng.standard_normal((m, k)), np.asfortranarray(rng.standard_normal((m, k)))):
        b = rng.standard_normal((k, n))
        for x, y in ((a, b), (a, b[:, 0].copy()), (a[0].copy(), b)):
            if matmul(x, y).tobytes() != (x @ y).tobytes():
                bad.append(("matmul", x.shape, y.shape))
        if gram(a).tobytes() != (a.T @ a).tobytes():
            bad.append(("gram", a.shape))
print(bad)
"""


def test_large_products_match_numpy_on_one_thread():
    src = str(Path(lssvmlim.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.strip() == "[]"
