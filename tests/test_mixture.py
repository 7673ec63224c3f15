import numpy as np
import pytest

from lssvmlim.mixture import (
    MixtureModel,
    growth_diagnostics,
    mix64,
    model_from_spec,
    sample,
    toeplitz_cov,
)


def fig_like_model(p, spike=3.0, scale_boost=5.0, c1=0.25):
    """Spiked means, identity vs boosted-Toeplitz covariances."""
    mu1 = np.zeros(p)
    mu2 = np.zeros(p)
    mu1[0] = spike
    mu2[1] = spike
    cov2 = toeplitz_cov(0.4, 1.0 + scale_boost / np.sqrt(p), p)
    return MixtureModel(p, mu1, mu2, np.eye(p), cov2, c1=c1)


def test_toeplitz_identity():
    np.testing.assert_array_equal(toeplitz_cov(0.0, 1.0, 4), np.eye(4))


def test_toeplitz_small_case():
    expected = np.array([[1.0, 0.4, 0.16], [0.4, 1.0, 0.4], [0.16, 0.4, 1.0]])
    np.testing.assert_allclose(toeplitz_cov(0.4, 1.0, 3), expected, atol=1e-15)


def test_toeplitz_trace_is_p_times_scale():
    p = 512
    scale = 1 + 4 / np.sqrt(p)
    assert np.trace(toeplitz_cov(0.4, scale, p)) == pytest.approx(p * scale, rel=1e-12)


def test_proportions_sum_exactly():
    m = MixtureModel(2, np.zeros(2), np.zeros(2), np.eye(2), np.eye(2), c1=1 / 3)
    assert m.c1 + m.c2 == 1.0


def test_asymmetric_covariance_rejected():
    C = np.eye(3)
    C[0, 1] = 0.5
    with pytest.raises(ValueError):
        MixtureModel(3, np.zeros(3), np.zeros(3), C, np.eye(3), c1=0.5)


def test_indefinite_covariance_rejected():
    C = np.diag([1.0, -0.5, 1.0])
    with pytest.raises(ValueError):
        MixtureModel(3, np.zeros(3), np.zeros(3), C, np.eye(3), c1=0.5)


def test_tau_identity_covariances():
    m = MixtureModel(16, np.zeros(16), np.zeros(16), np.eye(16), np.eye(16), c1=0.5)
    assert m.tau == pytest.approx(2.0, rel=1e-14)


def test_tau_equal_trace_covariances():
    p = 64
    m = MixtureModel(
        p, np.zeros(p), np.zeros(p), np.eye(p), toeplitz_cov(0.4, 1.0, p), c1=0.5
    )
    assert m.tau == pytest.approx(2.0, rel=1e-14)


def test_tau_boosted_covariance():
    p = 512
    scale = 1 + 4 / np.sqrt(p)
    m = MixtureModel(
        p, np.zeros(p), np.zeros(p), np.eye(p), toeplitz_cov(0.4, scale, p), c1=0.5
    )
    # 2 * (1/2 + (1/2) * scale) = 2 + 4 / sqrt(512)
    assert m.tau == pytest.approx(2.1767766952966369, rel=1e-12)


def test_sample_layout_and_reconstruction():
    m = fig_like_model(32)
    ds = sample(m, 5, 11, seed=123)
    assert ds.n1 == 5 and ds.n2 == 11
    assert np.all(ds.labels[:5] == -1) and np.all(ds.labels[5:] == 1)
    # X = class mean + sqrt(p) * omega holds bit-exactly as constructed
    means = np.where((ds.labels < 0)[None, :], m.mu1[:, None], m.mu2[:, None])
    np.testing.assert_array_equal(ds.X, means + np.sqrt(m.p) * ds.omega)


def test_sample_zero_covariance_is_point_mass():
    p = 8
    m = MixtureModel(p, np.arange(p) * 1.0, np.ones(p), np.zeros((p, p)), np.zeros((p, p)), c1=0.5)
    ds = sample(m, 3, 3, seed=0)
    np.testing.assert_array_equal(ds.X[:, :3], np.tile(np.arange(p) * 1.0, (3, 1)).T)
    np.testing.assert_array_equal(ds.X[:, 3:], np.ones((p, 3)))


def test_sample_determinism():
    m = fig_like_model(24)
    a = sample(m, 4, 6, seed=999)
    b = sample(m, 4, 6, seed=999)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.omega, b.omega)
    assert np.array_equal(a.psi, b.psi)
    c = sample(m, 4, 6, seed=1000)
    assert not np.array_equal(a.X, c.X)


def test_latent_norms_concentrate():
    p = 512
    m = MixtureModel(p, np.zeros(p), np.zeros(p), np.eye(p), np.eye(p), c1=0.5)
    ds = sample(m, 2000, 1, seed=7)
    norms = np.einsum("ij,ij->j", ds.omega[:, :2000], ds.omega[:, :2000])
    # E ||w||^2 = tr(C)/p = 1 with O(1/sqrt(n1)) fluctuation of the mean
    assert abs(norms.mean() - 1.0) < 5 / np.sqrt(2000)


def test_psi_centering():
    m = fig_like_model(64)
    ds = sample(m, 400, 600, seed=11)
    assert abs(ds.psi[:400].mean()) < 0.05
    assert abs(ds.psi[400:].mean()) < 0.05


def test_sampling_covariance_close_in_spectral_norm():
    p = 32
    m = MixtureModel(p, np.zeros(p), np.zeros(p), np.eye(p), np.eye(p), c1=0.5)
    ds = sample(m, 5000, 1, seed=21)
    W = np.sqrt(p) * ds.omega[:, :5000]
    emp = W @ W.T / 5000
    assert np.linalg.norm(emp - np.eye(p), 2) < 0.15


def test_distance_concentration():
    # max_{i != j} | ||x_i - x_j||^2 / p - tau | is O(1)-bounded: below 1 for
    # most seeds and never far above it at this size (the sub-1 event has
    # measured probability ~0.92 at p=512, not the asymptotic ~1)
    p = 512
    m = fig_like_model(p)
    tau = m.tau
    maxima = []
    for seed in range(50):
        ds = sample(m, 64, 192, seed=seed)
        sq = np.einsum("ij,ij->j", ds.X, ds.X)
        D = (sq[:, None] + sq[None, :] - 2 * ds.X.T @ ds.X) / p
        np.fill_diagonal(D, tau)
        maxima.append(np.max(np.abs(D - tau)))
    maxima = np.asarray(maxima)
    assert np.count_nonzero(maxima < 1.0) >= 40
    assert maxima.max() < 1.5


def test_permuted_view():
    m = fig_like_model(16)
    ds = sample(m, 3, 5, seed=3)
    perm = np.random.default_rng(0).permutation(8)
    shuffled = ds.permuted(perm)
    assert shuffled.n1 == 3 and shuffled.n2 == 5
    np.testing.assert_array_equal(shuffled.X, ds.X[:, perm])
    np.testing.assert_array_equal(shuffled.psi, ds.psi[perm])


def test_mix64_is_stable_and_spread():
    assert mix64(42, 0) == mix64(42, 0)
    seen = {mix64(42, k) for k in range(1000)}
    assert len(seen) == 1000
    assert all(0 <= s < 2**64 for s in seen)


def test_growth_diagnostics_identical_classes():
    p = 16
    m = MixtureModel(p, np.zeros(p), np.zeros(p), np.eye(p), np.eye(p), c1=0.5)
    d = growth_diagnostics(m, n=64)
    assert d.mean_gap == 0.0
    assert d.trace_gap_rate == 0.0
    assert d.likely_impossible and not d.likely_trivial


def test_growth_diagnostics_spiked_means():
    p = 512
    mu1 = np.zeros(p)
    mu2 = np.zeros(p)
    mu1[0] = 2.0
    mu2[1] = 2.0
    m = MixtureModel(p, mu1, mu2, np.eye(p), np.eye(p), c1=0.5)
    d = growth_diagnostics(m, n=256)
    assert d.mean_gap**2 == pytest.approx(8.0, rel=1e-12)
    assert not d.likely_impossible and not d.likely_trivial


def test_growth_diagnostics_boosted_trace_rate():
    p = 512
    n = 256
    m = fig_like_model(p, scale_boost=4.0, c1=0.5)
    d = growth_diagnostics(m, n)
    # tr(C2 - C1) = 4 sqrt(p), so the rate is 4 sqrt(p / n)
    assert d.trace_gap_rate == pytest.approx(4 * np.sqrt(p / n), rel=1e-10)
    assert d.likely_trivial is False


def test_growth_diagnostics_huge_separation_flagged():
    p = 8
    m = MixtureModel(p, np.zeros(p), np.full(p, 10.0), np.eye(p), np.eye(p), c1=0.5)
    assert growth_diagnostics(m, 32).likely_trivial


def test_model_from_spec_round_trip():
    spec = {
        "p": 16,
        "mean1": "zeros",
        "mean2": "unit_spike(2, 3.0)",
        "cov1": "identity",
        "cov2": "toeplitz(0.4, 1.25)",
        "c1": 0.25,
    }
    m = model_from_spec(spec)
    assert m.p == 16
    assert m.mu2[1] == 3.0 and m.mu2.sum() == 3.0  # 1-based spike index
    assert m.cov2[0, 1] == pytest.approx(0.5, rel=1e-12)
    assert m.c1 == 0.25
    scaled = model_from_spec(spec, p=32)
    assert scaled.p == 32


def test_model_from_counts():
    spec = {"p": 4, "mean1": "zeros", "mean2": "zeros", "cov1": "identity",
            "cov2": "identity", "n1": 1, "n2": 3}
    m = model_from_spec(spec)
    assert m.c1 == 0.25 and m.c2 == 0.75
