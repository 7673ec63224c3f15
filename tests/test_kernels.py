import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lssvmlim import kernels
from lssvmlim.kernels import (
    _ROWS,
    _TILE,
    _TILE_ENTRIES,
    GaussianKernel,
    PolynomialKernel,
    TaylorKernel,
    gram_matrix,
    kernel_from_spec,
    kernel_vector,
)
from lssvmlim.lssvm import TrainedModel

# Profiles chosen so the second-difference check below is not swamped by
# cancellation noise, which scales like eps * |f| / (h^2 |f''|): each profile
# keeps that ratio O(1) over the probed interval.
FD_PROFILES = [
    GaussianKernel(sigma2=0.5),
    TaylorKernel(anchor=2.75, f0=0.05, f1=-0.02, f2=0.5),
    PolynomialKernel(coeffs=(0.01, 0.002, 0.0, 0.0, 0.05)),
]


def test_gaussian_at_zero():
    assert GaussianKernel(1.0).value(0.0) == 1.0


def test_gaussian_closed_form():
    assert GaussianKernel(1.0).value(2.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_gaussian_requires_positive_width():
    with pytest.raises(ValueError):
        GaussianKernel(0.0)


def test_taylor_value_at_anchor_is_exact():
    k = TaylorKernel(anchor=2.0, f0=4.0, f1=0.0, f2=2.0)
    assert k.value(2.0) == 4.0


def test_gaussian_derivatives():
    f, fp, fpp = GaussianKernel(1.0).derivatives(2.0)
    e = math.exp(-1.0)
    assert f == pytest.approx(e, rel=1e-15)
    assert fp == pytest.approx(-e / 2, rel=1e-15)
    assert fpp == pytest.approx(e / 4, rel=1e-15)


def test_taylor_derivatives_are_the_given_numbers():
    assert TaylorKernel(2.0, 4.0, -1.0, 2.0).derivatives(2.0) == (4.0, -1.0, 2.0)


def test_polynomial_derivatives():
    # 1 + 2u + 3u^2 at u=1: f=6, f'=2+6u=8, f''=6
    assert PolynomialKernel((1.0, 2.0, 3.0)).derivatives(1.0) == (6.0, 8.0, 6.0)


def test_taylor_second_derivative_constant_everywhere():
    k = TaylorKernel(anchor=1.0, f0=0.3, f1=-0.7, f2=1.9)
    for u in (0.0, 0.5, 1.0, 3.0, 10.0):
        assert k.derivatives(u)[2] == 1.9


@pytest.mark.parametrize("profile", FD_PROFILES, ids=lambda k: type(k).__name__)
@pytest.mark.parametrize("tau", [0.5, 1.0, 2.0, 5.0])
def test_derivatives_match_central_differences(profile, tau):
    h = 1e-5
    up, u0, um = (
        float(profile.value(tau + h)),
        float(profile.value(tau)),
        float(profile.value(tau - h)),
    )
    f, fp, fpp = profile.derivatives(tau)
    assert f == pytest.approx(u0, rel=1e-12)
    assert fp == pytest.approx((up - um) / (2 * h), rel=1e-5)
    assert fpp == pytest.approx((up - 2 * u0 + um) / h**2, rel=1e-5)


def test_gram_diagonal_is_f_zero():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3, 6))
    for profile in FD_PROFILES:
        K = gram_matrix(X, profile)
        f0 = float(profile.value(0.0))
        assert np.all(np.diag(K) == f0)


def test_gram_two_points():
    X = np.array([[0.0, 2.0], [0.0, 0.0]])
    K = np.asarray(gram_matrix(X, GaussianKernel(1.0)))
    # ||x1 - x2||^2 / p = 4 / 2 = 2
    assert K[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_gram_matches_entrywise_double_loop():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((4, 5))
    profile = GaussianKernel(0.8)
    K = np.asarray(gram_matrix(X, profile))
    p = X.shape[0]
    for i in range(5):
        for j in range(5):
            u = np.sum((X[:, i] - X[:, j]) ** 2) / p
            assert K[i, j] == pytest.approx(float(profile.value(u)), abs=1e-12)


def test_gram_exactly_symmetric():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((16, 40)) * 3.0
    for profile in FD_PROFILES:
        K = np.asarray(gram_matrix(X, profile))
        assert np.array_equal(K, K.T)


def _reference_value(profile, u):
    # the profile formulas as written before evaluation moved in place
    if isinstance(profile, GaussianKernel):
        return np.exp(u / (-2.0 * profile.sigma2))
    if isinstance(profile, PolynomialKernel):
        out = np.zeros_like(u)
        for c in reversed(profile.coeffs):
            out = out * u + c
        return out
    d = u - profile.anchor
    return profile.f0 + profile.f1 * d + 0.5 * profile.f2 * d * d


def _sq_norms(X):
    return np.einsum("ij,ij->j", X, X)


@pytest.mark.parametrize("profile", FD_PROFILES, ids=lambda k: type(k).__name__)
@pytest.mark.parametrize("n", [9, 300])  # 300 crosses NumPy's temporary-elision size
def test_gram_and_kernel_vector_bit_identical_to_reference_expansion(profile, n):
    rng = np.random.default_rng(23)
    p = 40
    X = rng.standard_normal((p, n))
    g = X.T @ X
    d = np.einsum("ii->i", g).copy()
    D = d[:, None] + d[None, :] - 2.0 * g
    D = 0.5 * (D + D.T)
    np.maximum(D, 0.0, out=D)
    np.fill_diagonal(D, 0.0)
    assert np.array_equal(gram_matrix(X, profile), _reference_value(profile, D / p))

    Q = rng.standard_normal((p, 7))
    for q, queries in ((Q, Q), (Q[:, 2], Q[:, 2][:, None])):
        U = _sq_norms(X)[:, None] + _sq_norms(queries)[None, :] - 2.0 * (X.T @ queries)
        np.maximum(U, 0.0, out=U)
        expected = _reference_value(profile, U / p)
        assert np.array_equal(kernel_vector(X, q, profile), expected[:, 0] if q.ndim == 1 else expected)


@pytest.mark.parametrize("layout", ["C", "F", "strided", "column_slice"])
def test_gram_exactly_symmetric_for_any_memory_layout(layout):
    # symmetry rests on gram_matrix mirroring one triangle of X.T @ X; NumPy's own
    # product of a strided view is a general one, asymmetric in the last bits
    rng = np.random.default_rng(29)
    big = rng.standard_normal((80, 600))
    X = {
        "C": np.ascontiguousarray(big[:40, :300]),
        "F": np.asfortranarray(big[:40, :300]),
        "strided": big[::2, ::2],
        "column_slice": big[:40, :300],
    }[layout]
    for profile in FD_PROFILES:
        K = np.asarray(gram_matrix(X, profile))
        assert np.array_equal(K, K.T)
        assert np.all(np.diag(K) == profile.value(0.0))


# column counts on both sides of the block-row, product-chunk and tile edges
_GRAM_COLUMNS = st.one_of(
    st.sampled_from([1, 2, _TILE - 1, _TILE, _TILE + 1, _ROWS - 1, _ROWS, _ROWS + 1,
                     _ROWS + _TILE, 2 * _ROWS + 3]),
    st.integers(1, 3 * _ROWS),
)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 24), _GRAM_COLUMNS, st.sampled_from(["C", "F", "strided"]),
       st.sampled_from(FD_PROFILES), st.integers(0, 2**32 - 1))
def test_gram_is_exactly_symmetric_with_f_zero_diagonal(p, n, layout, profile, seed):
    base = np.random.default_rng(seed).standard_normal((2 * p, 3 * n))
    X = {"C": np.ascontiguousarray(base[:p, :n]), "F": np.asfortranarray(base[:p, :n]),
         "strided": base[::2, ::3]}[layout]
    before = X.copy()
    K = np.asarray(gram_matrix(X, profile))
    assert np.array_equal(K, K.T)
    assert np.all(np.diag(K) == profile.value(0.0))
    assert np.array_equal(X, before)


def test_gram_agrees_with_direct_distances_across_block_rows():
    # several block rows, each using the norms of the later ones
    rng = np.random.default_rng(31)
    p, n = 8, 2 * _ROWS + 3
    X = rng.standard_normal((p, n))
    K = gram_matrix(X, PolynomialKernel((0.0, 1.0)))  # f(u) = u
    direct = np.stack([np.sum((X - X[:, [j]]) ** 2, axis=0) for j in range(n)]) / p
    np.testing.assert_allclose(K, direct, rtol=0, atol=1e-12)


@pytest.mark.parametrize("profile", FD_PROFILES, ids=lambda k: type(k).__name__)
def test_gram_holds_about_one_matrix_at_a_time(profile):
    # the packed block rows and one scratch: a second n x n distance buffer would read 2.0
    n = 2048
    X = np.random.default_rng(37).standard_normal((64, n))
    tracemalloc.start()
    try:
        gram_matrix(X, profile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 8 * n * n


@pytest.mark.parametrize("profile", FD_PROFILES, ids=lambda k: type(k).__name__)
def test_fit_holds_well_under_one_dense_gram(profile):
    # the packed block rows are about n^2 / 2 + 256 n doubles: a dense K alone reads 1.0
    n = 2048
    rng = np.random.default_rng(43)
    X = rng.standard_normal((64, n))
    labels = rng.permutation(np.where(np.arange(n) < n // 2, -1.0, 1.0))
    tracemalloc.start()
    try:
        TrainedModel.fit(X, labels, 1.0, profile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.8 * 8 * n * n


@settings(max_examples=60, deadline=None)
@given(_GRAM_COLUMNS, st.sampled_from(FD_PROFILES), st.integers(0, 2**32 - 1))
def test_gram_product_matches_the_dense_product(n, profile, seed):
    rng = np.random.default_rng(seed)
    G = gram_matrix(rng.standard_normal((6, n)), profile)
    p = rng.standard_normal(n)
    K = np.asarray(G)
    got = G @ p
    assert got.shape == p.shape
    if n <= _ROWS:  # one block row: the one product K @ p
        assert np.array_equal(got, K @ p)
    bound = n * np.finfo(float).eps * (np.abs(K) @ np.abs(p))
    assert np.all(np.abs(got - K @ p) <= bound)


@pytest.mark.parametrize("n", [37, _ROWS, _ROWS + 1, 2 * _ROWS + 37, 3 * _ROWS + 5])
def test_gram_multiplies_vectors_only(n):
    # one to four block rows; at one, the block row is K and its product K @ p
    rng = np.random.default_rng(n)
    G = gram_matrix(rng.standard_normal((6, n)), GaussianKernel(0.5))
    K = np.asarray(G)
    p = rng.standard_normal(n)
    got = G @ p
    if n <= _ROWS:
        assert np.array_equal(got, K @ p)
    assert np.all(np.abs(got - K @ p) <= n * np.finfo(float).eps * (np.abs(K) @ np.abs(p)))
    for P in (np.ones((n, 2)), p[:, None]):
        with pytest.raises(ValueError, match=rf"a Gram multiplies vectors, got shape \({n}, "):
            G @ P


def test_tile_rows_follow_the_row_width():
    assert [kernels._tile_rows(w) for w in (1, 512, 1024, 1025, 2048, 4096, 8192)] == [
        _TILE, _TILE, _TILE, 63, 32, 16, 8]
    assert kernels._tile_rows(_TILE_ENTRIES + 1) == 1


@pytest.mark.parametrize("profile", FD_PROFILES, ids=lambda k: type(k).__name__)
def test_kernel_values_do_not_depend_on_the_tile_height(profile, monkeypatch):
    # block rows 1061, 549 and 37 wide, and query blocks 1500 and 300 wide: on
    # both sides of the 1024 width at which the entry budget starts to cut tiles
    rng = np.random.default_rng(59)
    p = 12
    X = rng.standard_normal((p, 2 * _ROWS + 37))
    queries = [rng.standard_normal((p, m)) for m in (1500, 300)]
    want = [np.asarray(gram_matrix(X, profile))]
    want += [kernel_vector(X, Q, profile) for Q in queries]
    for rows in (1, 5, 16, _TILE, 3 * _TILE):
        monkeypatch.setattr(kernels, "_tile_rows", lambda width, rows=rows: rows)
        got = [np.asarray(gram_matrix(X, profile))]
        got += [kernel_vector(X, Q, profile) for Q in queries]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("profile", FD_PROFILES, ids=lambda k: type(k).__name__)
def test_apply_overwrites_its_argument(profile):
    u = np.linspace(0.0, 6.0, 301)
    want = _reference_value(profile, u.copy())
    assert profile._apply(u) is u
    assert np.array_equal(u, want)


def test_gram_duplicate_columns_hit_f_zero():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, 4))
    X[:, 2] = X[:, 0]
    K = np.asarray(gram_matrix(X, GaussianKernel(2.0)))
    assert K[0, 2] == K[2, 0] == float(GaussianKernel(2.0).value(0.0))


def test_gram_clamps_and_zeroes_diagonal():
    identity = PolynomialKernel((0.0, 1.0))  # f(u) = u: K is the distances over p
    assert np.all(np.asarray(gram_matrix(np.ones((3, 4)), identity)) == 0.0)
    # near-duplicate columns: the expansion rounds some distances below zero
    rng = np.random.default_rng(41)
    X = 1e3 + 1e-9 * rng.standard_normal((5, 40))
    a = np.einsum("ij,ij->j", X, X)
    assert (np.add.outer(a, a) - 2.0 * (X.T @ X)).min() < 0.0
    K = np.asarray(gram_matrix(X, identity))
    assert K.min() >= 0.0 and np.all(np.diag(K) == 0.0)
    # a squared norm that overflows leaves inf - inf on the diagonal unless zeroed
    with np.errstate(over="ignore", invalid="ignore"):
        K = np.asarray(gram_matrix(np.array([[1e200, 1.0]]), identity))
    assert np.all(np.diag(K) == 0.0)


def test_kernel_vector_at_training_point():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((5, 7))
    profile = GaussianKernel(1.0)
    v = kernel_vector(X, X[:, 3], profile)
    assert v[3] == float(profile.value(0.0))


def test_kernel_vector_two_point_hand_value():
    X = np.array([[0.0, 2.0], [0.0, 0.0]])
    v = kernel_vector(X, np.array([0.0, 0.0]), GaussianKernel(1.0))
    assert v == pytest.approx([1.0, math.exp(-1.0)], rel=1e-15)


def test_kernel_vector_equals_gram_column():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((4, 9))
    profile = TaylorKernel(1.5, 2.0, -0.5, 0.7)
    K = np.asarray(gram_matrix(X, profile))
    for j in (0, 4, 8):
        np.testing.assert_allclose(kernel_vector(X, X[:, j], profile), K[:, j], atol=1e-12)


def test_kernel_vector_batch_matches_single():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((4, 6))
    Q = rng.standard_normal((4, 3))
    profile = GaussianKernel(0.7)
    batch = kernel_vector(X, Q, profile)
    for j in range(3):
        np.testing.assert_allclose(batch[:, j], kernel_vector(X, Q[:, j], profile), atol=1e-12)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        kernel_from_spec({"kind": "sigmoid"})
