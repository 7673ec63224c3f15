import math

import numpy as np
import pytest

from lssvmlim.kernels import (
    GaussianKernel,
    PolynomialKernel,
    TaylorKernel,
    gram_matrix,
    kernel_from_spec,
    kernel_to_spec,
    kernel_vector,
    pairwise_sq_dists,
)

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
    K = gram_matrix(X, GaussianKernel(1.0))
    # ||x1 - x2||^2 / p = 4 / 2 = 2
    assert K[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_gram_matches_entrywise_double_loop():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((4, 5))
    profile = GaussianKernel(0.8)
    K = gram_matrix(X, profile)
    p = X.shape[0]
    for i in range(5):
        for j in range(5):
            u = np.sum((X[:, i] - X[:, j]) ** 2) / p
            assert K[i, j] == pytest.approx(float(profile.value(u)), abs=1e-12)


def test_gram_exactly_symmetric():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((16, 40)) * 3.0
    for profile in FD_PROFILES:
        K = gram_matrix(X, profile)
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
    # symmetry rests on X.T @ X being one symmetric rank-k update; a strided
    # view used to reach a general product, asymmetric in the last bits
    rng = np.random.default_rng(29)
    big = rng.standard_normal((80, 600))
    X = {
        "C": np.ascontiguousarray(big[:40, :300]),
        "F": np.asfortranarray(big[:40, :300]),
        "strided": big[::2, ::2],
        "column_slice": big[:40, :300],
    }[layout]
    for profile in FD_PROFILES:
        K = gram_matrix(X, profile)
        assert np.array_equal(K, K.T)
        assert np.all(np.diag(K) == profile.value(0.0))


def test_gram_duplicate_columns_hit_f_zero():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, 4))
    X[:, 2] = X[:, 0]
    K = gram_matrix(X, GaussianKernel(2.0))
    assert K[0, 2] == K[2, 0] == float(GaussianKernel(2.0).value(0.0))


def test_pairwise_sq_dists_clamps_and_zeroes_diagonal():
    X = np.ones((3, 4))
    D = pairwise_sq_dists(X)
    assert np.all(D == 0.0)


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
    K = gram_matrix(X, profile)
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


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "gaussian", "sigma2": 1.5},
        {"kind": "polynomial", "coeffs": [1.0, -0.5, 0.25]},
        {"kind": "local", "tau": 2.0, "f": 4.0, "fp": 0.0, "fpp": 2.0},
    ],
)
def test_spec_round_trip(spec):
    profile = kernel_from_spec(spec)
    again = kernel_from_spec(kernel_to_spec(profile))
    assert again == profile


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        kernel_from_spec({"kind": "sigmoid"})
