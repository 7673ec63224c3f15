import dataclasses
import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import RBF_UNIT, shape_kernel, shape_only_model
from lssvmlim.experiments import class_split, config_from_dict, run_sweep
from lssvmlim.mixture import (
    DenseCov,
    MixtureModel,
    ToeplitzCov,
    _root,
    _toeplitz_root,
    mix64,
    mixture_stats,
    model_from_spec,
    sample,
)
from lssvmlim.theory import gaussian_stats

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def fig_like_model(p, spike=3.0, scale_boost=5.0, c1=0.25):
    """Spiked means, identity vs boosted-Toeplitz covariances."""
    mu1 = np.zeros(p)
    mu2 = np.zeros(p)
    mu1[0] = spike
    mu2[1] = spike
    cov2 = np.asarray(ToeplitzCov(0.4, 1.0 + scale_boost / np.sqrt(p), p))
    return MixtureModel(p, mu1, mu2, np.eye(p), cov2, c1=c1)


def test_toeplitz_identity():
    np.testing.assert_array_equal(np.asarray(ToeplitzCov(0.0, 1.0, 4)), np.eye(4))


def test_toeplitz_small_case():
    expected = np.array([[1.0, 0.4, 0.16], [0.4, 1.0, 0.4], [0.16, 0.4, 1.0]])
    np.testing.assert_allclose(np.asarray(ToeplitzCov(0.4, 1.0, 3)), expected, atol=1e-15)


def test_toeplitz_trace_is_p_times_scale():
    p = 512
    scale = 1 + 4 / np.sqrt(p)
    assert np.trace(np.asarray(ToeplitzCov(0.4, scale, p))) == pytest.approx(p * scale, rel=1e-12)


@pytest.mark.parametrize(
    "rho, scale", [(0.4, np.inf), (0.4, np.nan), (0.4, 0.0), (0.4, -1.0), (1.0, 1.0), (np.nan, 1.0)]
)
def test_toeplitz_outside_its_domain_rejected(rho, scale):
    with pytest.raises(ValueError):
        ToeplitzCov(rho, scale, 16)


def test_proportions_sum_exactly():
    m = MixtureModel(2, np.zeros(2), np.zeros(2), np.eye(2), np.eye(2), c1=1 / 3)
    assert m.stats.c1 + m.stats.c2 == 1.0


def test_asymmetric_covariance_rejected():
    C = np.eye(3)
    C[0, 1] = 0.5
    with pytest.raises(ValueError):
        MixtureModel(3, np.zeros(3), np.zeros(3), C, np.eye(3), c1=0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_covariance_rejected_before_its_eigenvalues(bad):
    C = np.eye(3)
    C[1, 1] = bad
    with pytest.raises(ValueError, match="cov2 must be finite"):
        MixtureModel(3, np.zeros(3), np.zeros(3), np.eye(3), C, c1=0.5)


def test_indefinite_covariance_rejected():
    C = np.diag([1.0, -0.5, 1.0])
    with pytest.raises(ValueError):
        MixtureModel(3, np.zeros(3), np.zeros(3), C, np.eye(3), c1=0.5)


def test_tau_identity_covariances():
    m = MixtureModel(16, np.zeros(16), np.zeros(16), np.eye(16), np.eye(16), c1=0.5)
    assert m.stats.tau == pytest.approx(2.0, rel=1e-14)


def test_tau_equal_trace_covariances():
    p = 64
    m = MixtureModel(
        p, np.zeros(p), np.zeros(p), np.eye(p), np.asarray(ToeplitzCov(0.4, 1.0, p)), c1=0.5
    )
    assert m.stats.tau == pytest.approx(2.0, rel=1e-14)


def test_tau_boosted_covariance():
    p = 512
    scale = 1 + 4 / np.sqrt(p)
    m = MixtureModel(
        p, np.zeros(p), np.zeros(p), np.eye(p), np.asarray(ToeplitzCov(0.4, scale, p)), c1=0.5
    )
    # 2 * (1/2 + (1/2) * scale) = 2 + 4 / sqrt(512)
    assert m.stats.tau == pytest.approx(2.1767766952966369, rel=1e-12)


def test_sample_layout_and_reconstruction():
    m = fig_like_model(32)
    ds = sample(m, 5, 11, seed=123)
    assert ds.n1 == 5 and ds.n2 == 11
    assert np.all(ds.labels[:5] == -1) and np.all(ds.labels[5:] == 1)
    # omega is derived from X; at this draw it gives X back bit for bit
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


def test_mixture_refuses_an_empty_dimension_and_an_empty_class():
    with pytest.raises(ValueError, match="p must be positive, got 0"):
        MixtureModel(0, np.zeros(0), np.zeros(0), np.eye(0), np.eye(0), c1=0.5)
    with pytest.raises(ValueError, match="need at least one sample per class"):
        sample(fig_like_model(8), 0, 3, seed=1)


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
    tau = m.stats.tau
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


def test_mix64_is_stable_and_spread():
    assert mix64(42, 0) == mix64(42, 0)
    seen = {mix64(42, k) for k in range(1000)}
    assert len(seen) == 1000
    assert all(0 <= s < 2**64 for s in seen)


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
    assert np.asarray(m.cov2)[0, 1] == pytest.approx(0.5, rel=1e-12)
    assert m.c1 == 0.25
    scaled = model_from_spec(spec, p=32)
    assert scaled.p == 32


def test_model_refuses_counts_and_every_unknown_key():
    spec = {"p": 4, "mean1": "zeros", "mean2": "zeros", "cov1": "identity", "cov2": "identity"}
    with pytest.raises(ValueError, match="unknown key model.n1"):
        model_from_spec(dict(spec, n1=1, n2=3))
    with pytest.raises(ValueError, match="unknown key model.C1"):
        model_from_spec(dict(spec, C1=0.25))
    with pytest.raises(ValueError, match="missing key model.c1"):
        model_from_spec(spec)
    assert model_from_spec(dict(spec, c1=0.25)).c1 == 0.25


def test_c2_is_derived_from_c1_only():
    p = 3
    m = MixtureModel(p, np.zeros(p), np.zeros(p), np.eye(p), np.eye(p), c1=0.3)
    assert m.stats.c2 == 1.0 - 0.3
    with pytest.raises(AttributeError):
        m.stats.c2 = 0.5
    with pytest.raises(TypeError):
        MixtureModel(p, np.zeros(p), np.zeros(p), np.eye(p), np.eye(p), c1=0.3, c2=0.7)


def test_a_model_holds_its_statistics_in_one_record_only():
    p = 5
    cov2 = np.asarray(ToeplitzCov(0.4, 2.0, p))
    m = MixtureModel(p, np.zeros(p), np.arange(p) * 1.0, ToeplitzCov(0.3, 1.0, p), cov2, c1=0.3)
    assert m.stats == mixture_stats(m.mu1, m.mu2, m.cov1, m.cov2, 0.3)
    assert m.stats is m.stats  # derived once
    for name in ("c2", "trace1", "trace2", "trace_gap", "tr_c1c1", "tr_c1c2", "tr_c2c2",
                 "sq_trace_gap", "mean_gap", "mean_gap_sq", "mean_gap_quad", "tau"):
        assert not hasattr(m, name), name


@pytest.fixture
def eigh_calls(monkeypatch):
    """Every symmetric eigendecomposition the package asks NumPy for, from an
    empty cache of Toeplitz roots, so no earlier test's root is reused."""
    _toeplitz_root.cache_clear()
    calls = []
    real = np.linalg.eigh

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return calls


def test_spec_covariances_are_toeplitz_rows():
    m = model_from_spec({"p": 6, "mean1": "zeros", "mean2": "zeros", "cov1": "identity",
                         "cov2": "boosted_toeplitz(0.5, 2.0)", "c1": 0.5})
    assert isinstance(m.cov1, ToeplitzCov) and isinstance(m.cov2, ToeplitzCov)
    np.testing.assert_array_equal(np.asarray(m.cov1), np.eye(6))
    expected = np.asarray(ToeplitzCov(0.5, 1.0 + 2.0 / np.sqrt(6), 6))
    np.testing.assert_array_equal(np.asarray(m.cov2), expected)


def test_dense_toeplitz_stays_dense():
    p = 32
    C = np.asarray(ToeplitzCov(0.4, 1.5, p))
    m = MixtureModel(p, np.zeros(p), np.zeros(p), np.eye(p), C, c1=0.5)
    assert isinstance(m.cov1, DenseCov) and isinstance(m.cov2, DenseCov)
    np.testing.assert_array_equal(m.cov2.a, C)
    assert m.cov1.a[0, 1] == 0.0 and np.array_equal(m.cov2.a.T, C)
    # held read-only without a copy, and without touching the caller's array
    assert not m.cov2.a.flags.writeable and C.flags.writeable and np.shares_memory(m.cov2.a, C)


def test_dense_toeplitz_takes_the_eigenvalue_test():
    p = 5
    indefinite = scipy.linalg.toeplitz([1.0, 0.9, 0.0, -0.9, 0.0])
    assert np.linalg.eigvalsh(indefinite)[0] < -0.1
    with pytest.raises(ValueError, match="eigenvalue"):
        MixtureModel(p, np.zeros(p), np.zeros(p), indefinite, np.eye(p), c1=0.5)


def rotated(eigenvalues, seed):
    """An exactly symmetric matrix with the given eigenvalues, to rounding,
    in a random orthonormal basis."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(eigenvalues),) * 2))
    c = (q * eigenvalues) @ q.T
    return 0.5 * (c + c.T)


@pytest.mark.parametrize("ratio, accepted", [(-0.5e-10, True), (-2e-10, False)])
def test_eigenvalue_rule_holds_at_its_boundary(ratio, accepted):
    # The rule refuses a smallest eigenvalue below -1e-10 times the spectral
    # norm, here 1.  eigvalsh's error on these eigenvalues is about
    # p eps = 1.3e-15, below 1e-4 of either case's distance from the boundary.
    p = 6
    C = rotated(np.array([ratio, 0.1, 0.3, 0.5, 0.8, 1.0]), seed=p)
    assert np.linalg.eigvalsh(C)[0] == pytest.approx(ratio, abs=1e-14)
    args = (p, np.zeros(p), np.zeros(p), np.eye(p), C)
    if accepted:
        MixtureModel(*args, c1=0.5)
    else:
        with pytest.raises(ValueError, match="cov2 has eigenvalue"):
            MixtureModel(*args, c1=0.5)


AR1 = st.tuples(st.floats(0.0, 0.9), st.floats(0.1, 10.0))  # (rho, scale)


@settings(max_examples=150, deadline=None)
@given(
    p=st.integers(1, 300),
    a=AR1,
    b=AR1,
    spikes=st.lists(st.tuples(st.integers(0, 299), st.floats(-5.0, 5.0)), max_size=4),
    dense_mean=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_traces_match_dense(p, a, b, spikes, dense_mean, seed):
    A, B = ToeplitzCov(*a, p), ToeplitzCov(*b, p)
    dA, dB = np.asarray(A), np.asarray(B)
    if dense_mean:
        x = np.random.default_rng(seed).standard_normal(p)
    else:
        x = np.zeros(p)
        for k, v in spikes:
            x[k % p] = v
    assert A.trace() == pytest.approx(float(np.trace(dA)), rel=1e-12)
    assert A.tr_prod(B) == pytest.approx(float(np.vdot(dA, dB)), rel=1e-12)
    assert A.tr_prod(A) == pytest.approx(float(np.vdot(dA, dA)), rel=1e-12)
    assert A.quad(x) == pytest.approx(float(x @ dA @ x), rel=1e-12, abs=1e-300)
    m = MixtureModel(p, np.zeros(p), x, A, B, c1=0.5)
    assert m.stats.mean_gap_quad == pytest.approx((x @ dA @ x, x @ dB @ x), rel=1e-12, abs=1e-300)
    # tr((B - A)^2) cancels when A and B are close: held to the size of its terms
    scale = float(np.vdot(dA, dA) + np.vdot(dB, dB))
    assert m.stats.sq_trace_gap == pytest.approx(float(np.vdot(dB - dA, dB - dA)),
                                                 abs=1e-12 * scale)


# Identity-class blocks of each shipped config's base-seed draw, as sampled
# through the dense symmetric eigendecomposition root; that block involves
# no rounding that depends on the BLAS build or thread count.
IDENTITY_BLOCK_SHA256 = {
    "convergence": "2696dff7f1f780bd",
    "histogram_skew": "dede289a6d99d7eb",
    "sweep_ratio": "bba740d3ee77a693",
    "sweep_slope": "b5918e8560dc6e69",
    "sweep_width": "9a2d4a1c39514c91",
}


def dense_root_latents(model, n1, n2, seed):
    """Latents of ``sample`` as drawn before covariances had a structured
    form: the dense symmetric eigendecomposition root of each class."""
    rng = np.random.default_rng(seed)
    omegas = []
    for cov, na in ((model.cov1, n1), (model.cov2, n2)):
        w, v = np.linalg.eigh(np.asarray(cov))
        root = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T
        omegas.append((root @ rng.standard_normal((model.p, na))) / np.sqrt(model.p))
    return np.hstack(omegas)


def dense_rounding_bound(R, z):
    """``p eps max(|R| |z|)`` per column: the rounding bound of the dense
    product ``R @ z``, which the banded product of a decaying root is held to."""
    return R.shape[0] * np.finfo(float).eps * (np.abs(R) @ np.abs(z)).max(axis=0)


@pytest.mark.parametrize("name", sorted(IDENTITY_BLOCK_SHA256))
def test_shipped_config_draws_match_the_dense_root_sampler(name):
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    n, p = (doc.get("sizes") or [[doc["n"], doc["model"]["p"]]])[0]
    model = model_from_spec(doc["model"], p=p)
    n1, n2 = class_split(n, model.c1)
    ds = sample(model, n1, n2, doc["base_seed"])

    omega = dense_root_latents(model, n1, n2, doc["base_seed"])
    means = np.where((ds.labels < 0)[None, :], model.mu1[:, None], model.mu2[:, None])
    traces = np.where(ds.labels < 0, model.stats.trace1, model.stats.trace2)
    psi = np.einsum("ij,ij->j", omega, omega) - traces / p
    assert np.array_equal(ds.X[:, :n1], means[:, :n1] + np.sqrt(p) * omega[:, :n1])
    # the correlated class (rho = 0.4 in every shipped config) is drawn by
    # the banded product, which moves it from the dense draw at rounding level
    rng = np.random.default_rng(doc["base_seed"])
    rng.standard_normal((p, n1))
    root = _toeplitz_root(model.cov2.rho, model.cov2.scale, p)
    bound = dense_rounding_bound(root, rng.standard_normal((p, n2))) / np.sqrt(p)

    # the derived latents: X - mean and the division by sqrt(p) add at most
    # 2 eps (|X| + |mean|) / sqrt(p) per entry to the rounding of the draw,
    # and psi's sum of squares at most (p + 2) eps ||omega||^2 on top
    eps = np.finfo(float).eps
    err = 2 * eps * (np.abs(ds.X) + np.abs(means)) / np.sqrt(p)
    err[:, n1:] += bound
    assert (np.abs(ds.omega - omega) <= err).all()
    psi_err = 2 * np.einsum("ij,ij->j", np.abs(omega), err) + (p + 2) * eps * (omega**2).sum(0)
    assert (np.abs(ds.psi - psi) <= psi_err).all()

    h = hashlib.sha256()
    for a in (ds.X[:, :n1], omega[:, :n1], psi[:n1]):
        h.update(a.tobytes())
    assert h.hexdigest()[:16] == IDENTITY_BLOCK_SHA256[name]


@pytest.mark.parametrize("p", [64, 256, 1024, 2048])
@pytest.mark.parametrize("rho", [0.05, 0.1, 0.4, 0.7, 0.9, 0.97])
def test_banded_root_product_is_within_the_dense_products_rounding(rho, p):
    cov = ToeplitzCov(rho, 1.5, p)
    R = _toeplitz_root(rho, 1.5, p)
    z = np.random.default_rng(p).standard_normal((p, 24))
    out = cov.draw(z, np.empty_like(z))
    assert (np.abs(out - R @ z).max(axis=0) <= dense_rounding_bound(R, z)).all()


def test_band_is_p_unless_the_root_decays():
    p = 256
    z = np.random.default_rng(0).standard_normal((p, 9))
    dense = DenseCov(np.asarray(ToeplitzCov(0.4, 1.0, p)))
    assert np.array_equal(dense.draw(z, np.empty_like(z)), dense.root @ z)  # the whole root
    assert ToeplitzCov(0.0, 2.0, p).band == p
    assert ToeplitzCov(0.97, 1.0, p).band == p
    assert [ToeplitzCov(0.4, 1.0, q).band for q in (256, 1024, 2048)] == [46, 47, 48]
    # a band that reaches p is the one product with the whole root
    assert np.array_equal(ToeplitzCov(0.97, 1.0, p).draw(z, np.empty_like(z)),
                          _toeplitz_root(0.97, 1.0, p) @ z)


def test_theory_of_shape_only_model_needs_no_eigendecomposition(eigh_calls):
    # the body of acceptance claim C01
    m = shape_only_model(512)
    for fp in (-1.0, 0.0, 1.0):
        gaussian_stats(m.stats, 1024, 1024, 1.0, shape_kernel(m, fprime=fp))
    assert eigh_calls == []


def test_identity_sampling_needs_no_eigendecomposition(eigh_calls):
    p = 64
    m = model_from_spec({"p": p, "mean1": "zeros", "mean2": "zeros", "cov1": "identity",
                         "cov2": "toeplitz(0.0, 2.0)", "c1": 0.5})
    omega = sample(m, 3, 3, seed=5).omega
    assert eigh_calls == []
    assert np.array_equal(omega, dense_root_latents(m, 3, 3, seed=5))
    eigh_calls.clear()
    spec = {"p": p, "mean1": "zeros", "mean2": "zeros", "cov1": "identity",
            "cov2": "toeplitz(0.4, 1.0)", "c1": 0.5}
    m = model_from_spec(spec)
    sample(m, 3, 3, seed=5)
    sample(m, 3, 3, seed=6)
    assert eigh_calls == [(p, p)]  # once, for the correlated class
    sample(model_from_spec(spec), 3, 3, seed=7)
    assert eigh_calls == [(p, p)]  # a second model of the same spec reuses the root


def test_dense_covariances_are_decomposed_at_the_first_draw_only(eigh_calls):
    p, n1, n2 = 24, 7, 17
    covs = rotated(np.linspace(0.0, 2.0, p), seed=1), rotated(np.linspace(0.5, 1.5, p), seed=2)
    mu2 = np.full(p, 0.25)
    m = MixtureModel(p, np.zeros(p), mu2, *covs, c1=0.3)
    gaussian_stats(m.stats, n1, n2, 1.0, RBF_UNIT)
    assert eigh_calls == []  # build and theory
    X = sample(m, n1, n2, seed=9).X
    assert eigh_calls == [(p, p), (p, p)]
    sample(m, n1, n2, seed=10)
    assert len(eigh_calls) == 2
    # a copy, as a c1 or mu_offset grid point makes it, shares the roots
    sample(dataclasses.replace(m, c1=0.5, mu2=np.zeros(p)), n1, n2, seed=11)
    assert len(eigh_calls) == 2
    # the draw as sample makes it, through the root of the test's own eigh
    rng, sqrt_p = np.random.default_rng(9), np.sqrt(p)
    expected = [
        _root(*np.linalg.eigh(C)) @ rng.standard_normal((p, k)) / sqrt_p * sqrt_p + mu[:, None]
        for C, k, mu in ((covs[0], n1, np.zeros(p)), (covs[1], n2, mu2))
    ]
    assert np.array_equal(X, np.hstack(expected))


def test_sweep_factors_its_shared_covariance_once(eigh_calls):
    config = config_from_dict({
        "model": {"p": 64, "mean1": "zeros", "mean2": "unit_spike(1, 2.0)", "cov1": "identity",
                  "cov2": "toeplitz(0.4, 1.5)", "c1": 0.5},
        "n": 32, "n_test": 16, "trials": 1,
        "sweep": {"axis": "sigma2", "grid": [0.5, 1.0, 2.0]},
    })
    result = run_sweep(config)
    assert [r.trials for r in result.rows] == [1, 1, 1]
    assert eigh_calls == [(64, 64)]


def test_equal_toeplitz_covariances_share_one_read_only_root(eigh_calls):
    p = 32
    a, b = ToeplitzCov(0.4, 1.5, p), ToeplitzCov(0.4, 1.5, p)
    assert a is not b
    zeros, z = np.zeros(p), np.random.default_rng(3).standard_normal((p, 5))
    drawn = [sample(MixtureModel(p, zeros, zeros, a, b, c1=0.5), 5, 5, seed=4).X,
             sample(MixtureModel(p, zeros, zeros, b, a, c1=0.5), 5, 5, seed=4).X]
    assert eigh_calls == [(p, p)]  # one root for both covariances of both models
    assert np.array_equal(drawn[0], drawn[1])
    root = _toeplitz_root(0.4, 1.5, p)
    assert eigh_calls == [(p, p)]
    assert np.array_equal(a.draw(z, np.empty_like(z)), b.draw(z, np.empty_like(z)))
    assert not root.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        root[0, 0] = 0.0
    w, v = np.linalg.eigh(np.asarray(a))
    assert np.array_equal(root, (v * np.sqrt(np.maximum(w, 0.0))) @ v.T)


def test_million_dimension_prediction_stays_linear_in_p():
    p = 10**6
    spec = json.loads((CONFIG_DIR / "sweep_width.json").read_text())["model"]
    tracemalloc.start()
    try:
        m = model_from_spec(spec, p=p)
        stats = gaussian_stats(m.stats, 256, 256, 1.0, shape_kernel(m, fprime=1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(stats.Var1) and np.isfinite(stats.Var2)
    assert peak < 40 * 8 * p  # a few length-p vectors; one p x p matrix is 8 TB
