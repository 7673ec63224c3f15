import decimal
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import RBF_UNIT, balanced_model, shape_kernel, shape_only_model, skew_model
from lssvmlim.errors import NumericalFailure
from lssvmlim.experiments import at_threshold, class_split, config_from_dict, resolve_kernel
from lssvmlim.kernels import GaussianKernel, TaylorKernel
from lssvmlim.mixture import LatentDataset, MixtureModel, ToeplitzCov, model_from_spec, sample
from lssvmlim.theory import (
    TheoryStats,
    _stationary_points,
    error_rates,
    estimate_tau,
    gaussian_stats,
    informative_term,
    noise_term,
    optimal_threshold,
    q_function,
    random_equivalent,
)

# ---------------------------------------------------------------- q-function


def test_q_at_zero():
    assert q_function(0.0) == 0.5


def test_q_symmetry():
    for x in (-3.0, -0.5, 0.7, 2.2):
        assert q_function(x) + q_function(-x) == pytest.approx(1.0, abs=1e-14)


def test_q_standard_quantile():
    assert q_function(1.6448536) == pytest.approx(0.05, abs=1e-6)


def test_q_against_quadrature():
    # independent oracle: numerical integration of the standard normal density
    from scipy.integrate import quad

    for x in (0.3, 1.0, 2.5, 4.0):
        val, _ = quad(lambda t: np.exp(-t * t / 2) / np.sqrt(2 * np.pi), x, np.inf)
        assert q_function(x) == pytest.approx(val, rel=1e-10)


# ------------------------------------------------------------- tau estimator


def test_estimate_tau_identical_columns():
    X = np.tile(np.arange(4.0)[:, None], (1, 5))
    assert estimate_tau(X) == 0.0


def test_estimate_tau_hand_example():
    X = np.array([[0.0, 2.0], [0.0, 0.0]])
    # column mean (1, 0); both deviations have squared norm 1; p = 2
    assert estimate_tau(X) == pytest.approx(1.0, rel=1e-14)


def test_estimate_tau_consistency():
    p, n = 512, 1024
    model = skew_model(p)
    bad = 0
    for seed in range(20):
        ds = sample(model, n // 4, n - n // 4, seed=seed)
        if abs(estimate_tau(ds.X) - model.stats.tau) >= 0.05:
            bad += 1
    assert bad == 0


# ------------------------------------------------------- informative term D


def test_informative_term_identical_classes():
    p = 16
    m = MixtureModel(p, np.ones(p), np.ones(p), np.eye(p), np.eye(p), c1=0.3)
    assert informative_term(m.stats, RBF_UNIT) == 0.0


def test_informative_term_dense_oracle():
    # shape-only model with a curvature-only kernel: D = (4/p^2) tr((C2-I)^2)
    p = 512
    m = shape_only_model(p)
    profile = shape_kernel(m, fprime=0.0, fsecond=2.0)
    dC = m.cov2 - np.eye(p)
    expected = 4.0 / p**2 * float(np.trace(dC @ dC))
    assert informative_term(m.stats, profile) == pytest.approx(expected, rel=1e-12)


def test_informative_term_general_dense_oracle():
    rng = np.random.default_rng(0)
    p = 24
    A = rng.standard_normal((p, p))
    cov2 = A @ A.T / p + np.eye(p)
    m = MixtureModel(p, rng.standard_normal(p), rng.standard_normal(p), np.eye(p), cov2, c1=0.4)
    profile = GaussianKernel(0.8)
    f, fp, fpp = profile.derivatives(m.stats.tau)
    dmu = m.mu2 - m.mu1
    dC = cov2 - np.eye(p)
    expected = (
        -2 * fp / p * float(dmu @ dmu)
        + fpp / p**2 * float(np.trace(dC)) ** 2
        + 2 * fpp / p**2 * float(np.trace(dC @ dC))
    )
    assert informative_term(m.stats, profile) == pytest.approx(expected, rel=1e-10)


def test_informative_term_mean_only_reduction():
    # with no kernel curvature and equal covariances, D is linear in ||dmu||^2
    p = 32
    vals = []
    for spike in (1.0, 2.0):
        mu1 = np.zeros(p)
        mu2 = np.zeros(p)
        mu2[0] = spike
        m = MixtureModel(p, mu1, mu2, np.eye(p), np.eye(p), c1=0.5)
        profile = TaylorKernel(anchor=m.stats.tau, f0=4.0, f1=-1.5, f2=0.0)
        vals.append(informative_term(m.stats, profile))
        assert vals[-1] == pytest.approx(2 * 1.5 / p * spike**2, rel=1e-12)
    assert vals[1] == pytest.approx(4 * vals[0], rel=1e-12)


# ------------------------------------------------------------ noise term P


def at_class_means(model, labels):
    """A test set whose every point sits at its class mean: zero latents."""
    labels = np.asarray(labels, dtype=float)
    X = np.where(labels < 0, model.mu1[:, None], model.mu2[:, None])
    return LatentDataset(X, labels, model)


def test_noise_term_zero_latents():
    # equal traces, so the psi term vanishes with the other two
    m = balanced_model(16, boost=0.0)
    ds = sample(m, 4, 4, seed=0)
    assert np.all(noise_term(ds, at_class_means(m, [-1, 1]), RBF_UNIT) == 0.0)


def test_noise_term_coefficient_cancellation():
    # flat kernel slope and equal traces kill every term
    p = 16
    m = shape_only_model(p)
    profile = shape_kernel(m, fprime=0.0)
    ds = sample(m, 5, 5, seed=1)
    assert np.all(noise_term(ds, sample(m, 3, 3, seed=2), profile) == 0.0)


def test_noise_term_dense_oracle():
    # literal transcription with the centering projector materialized
    p, n = 4, 6
    m = balanced_model(p, spike=1.0, boost=1.0)
    ds = sample(m, 2, 4, seed=3)
    rng = np.random.default_rng(4)
    omega_x = rng.standard_normal((p, 2))
    labels = np.array([-1.0, 1.0])
    means = np.column_stack([m.mu1, m.mu2])
    test = LatentDataset(means + np.sqrt(p) * omega_x, labels, m)
    psi_x = (omega_x**2).sum(axis=0) - np.array([m.cov1.trace(), m.cov2.trace()]) / p
    profile = GaussianKernel(1.3)

    f, fp, fpp = profile.derivatives(m.stats.tau)
    c1, c2 = 2 / 6, 4 / 6
    P = np.eye(n) - np.ones((n, n)) / n
    y = ds.labels.astype(float)
    expected = (
        -2 * fp / n * (y @ P @ ds.omega.T @ omega_x)
        - 4 * c1 * c2 * fp / np.sqrt(p) * ((m.mu2 - m.mu1) @ omega_x)
        + 2 * c1 * c2 * fpp * psi_x * (m.cov2.trace() - m.cov1.trace()) / p
    )
    assert noise_term(ds, test, profile) == pytest.approx(expected, rel=1e-12)


def test_noise_term_refuses_a_test_set_of_another_model():
    # an equal model that is another object did not draw the training set
    m, other = balanced_model(8), balanced_model(8)
    ds = sample(m, 3, 5, seed=5)
    test = sample(other, 2, 2, seed=6)
    with pytest.raises(ValueError, match="model"):
        noise_term(ds, test, RBF_UNIT)
    with pytest.raises(ValueError, match="model"):
        random_equivalent(ds, test, 1.0, RBF_UNIT)


# -------------------------------------------------------- random equivalent


def test_random_equivalent_reduces_to_bias():
    # zero latents and identical classes leave only the proportion bias
    p = 8
    m = MixtureModel(p, np.ones(p), np.ones(p), np.eye(p), np.eye(p), c1=0.25)
    ds = sample(m, 2, 6, seed=7)
    got = random_equivalent(ds, at_class_means(m, [-1, 1]), gamma=2.0, profile=RBF_UNIT)
    assert got == pytest.approx([6 / 8 - 2 / 8] * 2, rel=1e-14)


def test_random_equivalent_class_gap():
    # same latents: the class-2 minus class-1 equivalent is gamma 2 c1 c2 D;
    # equal traces, so the two points' psi agree too
    p = 16
    m = balanced_model(p, boost=0.0)
    ds = sample(m, 6, 10, seed=8)
    rng = np.random.default_rng(9)
    omega_x = rng.standard_normal(p) * 0.1
    X = np.column_stack([m.mu1, m.mu2]) + np.sqrt(p) * omega_x[:, None]
    gamma = 1.7
    g1, g2 = random_equivalent(ds, LatentDataset(X, np.array([-1.0, 1.0]), m), gamma, RBF_UNIT)
    c1, c2 = 6 / 16, 10 / 16
    D = informative_term(m.stats, RBF_UNIT)
    assert g2 - g1 == pytest.approx(gamma * 2 * c1 * c2 * D, rel=1e-10)


def test_random_equivalent_without_noise_is_the_predicted_class_mean():
    # an unequal split, equal traces and test points at their class means:
    # the noise term vanishes and each point reads its class's E_a exactly
    m = balanced_model(16, boost=0.0)
    ds = sample(m, 6, 18, seed=10)
    labels = [-1, -1, 1, 1, 1]
    got = random_equivalent(ds, at_class_means(m, labels), 1.3, RBF_UNIT)
    st = gaussian_stats(m.stats, 6, 18, 1.3, RBF_UNIT)
    assert st.E1 != st.E2
    assert np.array_equal(got, [st.E1, st.E1, st.E2, st.E2, st.E2])


# ----------------------------------------------------------- gaussian stats


def test_gaussian_stats_identical_classes():
    p = 16
    m = MixtureModel(p, np.ones(p), np.ones(p), np.eye(p), np.eye(p), c1=0.25)
    st = gaussian_stats(m.stats, n1=16, n2=48, gamma=1.0, profile=RBF_UNIT)
    assert st.D == 0.0
    assert st.E1 == st.E2 == m.stats.c2 - m.c1
    assert st.v1 == (0.0, 0.0)
    assert st.v2 == (0.0, 0.0)
    assert st.Var1 == st.Var2 > 0


def test_gaussian_stats_internal_identities():
    m = skew_model(64)
    gamma = 1.3
    st = gaussian_stats(m.stats, n1=32, n2=96, gamma=gamma, profile=RBF_UNIT)
    c1, c2 = m.c1, m.stats.c2
    # mean gap identity and variance assembly
    assert st.E2 - st.E1 == pytest.approx(2 * c1 * c2 * gamma * st.D, rel=1e-12)
    for var, (w1, w2, w3) in ((st.Var1, (st.v1[0], st.v2[0], st.v3[0])),
                              (st.Var2, (st.v1[1], st.v2[1], st.v3[1]))):
        assert var == pytest.approx(8 * gamma**2 * c1**2 * c2**2 * (w1 + w2 + w3), rel=1e-12)
    # reduced fields factor gamma out exactly
    assert st.E1 == st.bias + gamma * st.e1
    assert st.Var1 == gamma**2 * st.s1**2


@pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf")])
def test_gaussian_stats_rejects_bad_gamma(gamma):
    with pytest.raises(ValueError, match="gamma"):
        gaussian_stats(skew_model(16).stats, 8, 24, gamma, RBF_UNIT)


def test_gaussian_stats_names_an_empty_class():
    with pytest.raises(ValueError, match="need a training point of each class, got 0 \\+ 32"):
        gaussian_stats(skew_model(16).stats, 0, 32, 1.0, RBF_UNIT)


def test_reduced_fields_do_not_depend_on_gamma():
    m = skew_model(64)
    a = gaussian_stats(m.stats, 32, 96, 0.1, RBF_UNIT)
    b = gaussian_stats(m.stats, 32, 96, 10.0, RBF_UNIT)
    assert (a.e1, a.e2, a.s1, a.s2, a.bias) == (b.e1, b.e2, b.s1, b.s2, b.bias)


def test_v3_halves_when_n_doubles():
    m = balanced_model(48)
    a = gaussian_stats(m.stats, n1=50, n2=50, gamma=1.0, profile=RBF_UNIT)
    b = gaussian_stats(m.stats, n1=100, n2=100, gamma=1.0, profile=RBF_UNIT)
    assert b.v3[0] == a.v3[0] / 2 and b.v3[1] == a.v3[1] / 2  # exact halving
    assert b.v1 == a.v1 and b.v2 == a.v2


# --------------------------------------------------------------- error rates


def test_error_rates_coin_flip():
    st = _stats(e1=0.0, e2=0.0, s1=1e-3, s2=1e-3)
    eps1, eps2, w = error_rates(st, 0.0)
    assert (eps1, eps2, w) == (0.5, 0.5, 0.5)


def _stats(e1, e2, s1, s2, bias=0.0, gamma=1.0, D=None, c1=0.5, c2=0.5):
    if D is None:
        D = e2 - e1
    return TheoryStats(
        tau=2.0, D=D, gamma=gamma, c1=c1, c2=c2, bias=bias,
        e1=e1, e2=e2, r1=s1**2, r2=s2**2,
        v1=(0, 0), v2=(0, 0), v3=(0, 0),
    )


def test_error_rates_degenerate_zero_variance():
    st = _stats(e1=-1.0, e2=1.0, s1=0.0, s2=0.0)
    assert error_rates(st, 0.0) == (0.0, 0.0, 0.0)
    assert error_rates(st, -2.0)[0] == 1.0  # mean on the wrong side
    assert error_rates(st, -1.0)[0] == 0.5  # exactly at the mass


def test_error_rates_shape_only_zero_error_point():
    # flat-slope kernel on a shape-only model: all variances vanish while the
    # separation stays positive, so the weighted error is exactly zero
    m = shape_only_model(512)
    profile = shape_kernel(m, fprime=0.0)
    st = gaussian_stats(m.stats, n1=1024, n2=1024, gamma=1.0, profile=profile)
    assert st.Var1 == st.Var2 == 0.0 and st.D > 0
    th, eps1, eps2, w = at_threshold(st, "optimal").values()
    assert w == 0.0 and st.E1 < th < st.E2


def test_error_rates_shape_only_reference_value():
    # sloped kernel on the shape-only family: weighted error at the optimal
    # threshold lands near 0.3578586, the zero-threshold value exactly
    m = shape_only_model(512)
    profile = shape_kernel(m, fprime=-1.0)
    st = gaussian_stats(m.stats, n1=1024, n2=1024, gamma=1.0, profile=profile)
    _, _, _, w_opt = at_threshold(st, "optimal").values()
    assert w_opt == pytest.approx(0.3578586, abs=1e-2)
    _, _, w_zero = error_rates(st, 0.0)
    assert w_zero == pytest.approx(0.357858640171627, abs=1e-9)


# ---------------------------------------------------------- threshold choice


def test_optimal_threshold_symmetric_case():
    st = _stats(e1=-1.0, e2=1.0, s1=0.5, s2=0.5)
    assert optimal_threshold(st) == pytest.approx(0.0, abs=1e-12)
    st = _stats(e1=0.0, e2=2.0, s1=0.3, s2=0.3, bias=0.25)
    assert optimal_threshold(st) == pytest.approx(0.25 + 1.0, rel=1e-12)


def test_underflowed_spread_is_a_point_mass():
    # 0.5 / s2**2 overflows, so the stationary-point search would meet inf
    st = _stats(e1=-1.0, e2=1.0, s1=0.5, s2=7e-162)
    assert 0.5 / st.s2**2 == np.inf
    point = _stats(e1=-1.0, e2=1.0, s1=0.5, s2=0.0)
    th, eps1, eps2, w = at_threshold(st, "optimal").values()
    assert th == optimal_threshold(point) and -1.0 < th < 1.0
    assert np.isfinite((eps1, eps2, w)).all() and eps2 == 0.0
    at_point = at_threshold(point, "optimal")
    assert (eps1, w) == (at_point["eps1"], at_point["weighted"])


def test_stationary_points_match_an_80_digit_evaluation():
    # sweep_width at sigma2 = 32: the two terms of -b + sqrt(b^2 - 4ac) nearly
    # cancel, which cost the textbook form 6.7e-11 of relative accuracy
    doc = json.loads((Path(__file__).resolve().parents[1] / "configs/sweep_width.json").read_text())
    doc["kernel"]["sigma2"] = 32.0
    config = config_from_dict(doc)
    model = model_from_spec(config.model)
    st = gaussian_stats(model.stats, *class_split(config.n, model.c1), config.gamma,
                        resolve_kernel(config.kernel, model))
    e1, s1, e2, s2, c1, c2 = st.e1, st.s1, st.e2, st.s2, st.c1, st.c2
    # the quadratic's coefficients as _stationary_points forms them
    a = 0.5 / s2**2 - 0.5 / s1**2
    b = e1 / s1**2 - e2 / s2**2
    c = e2**2 / (2.0 * s2**2) - e1**2 / (2.0 * s1**2) + float(np.log((c1 * s2) / (c2 * s1)))
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        A, B, C = (decimal.Decimal(v) for v in (a, b, c))
        root = (B * B - 4 * A * C).sqrt()
        exact = sorted(float(r) for r in ((-B + root) / (2 * A), (-B - root) / (2 * A)))
    got = sorted(_stationary_points(e1, s1, e2, s2, c1, c2))
    assert got == pytest.approx(exact, rel=5e-12, abs=0)
    assert e1 <= got[1] <= e2  # the root the optimal threshold takes


def test_optimal_threshold_degenerate_raises():
    st = _stats(e1=0.5, e2=0.5, s1=0.0, s2=0.0)
    with pytest.raises(NumericalFailure, match="both variances vanish with equal means"):
        optimal_threshold(st)


def test_optimal_threshold_flat_case_attains_grid_min():
    # equal means: no interior optimum; returned point must match the best
    # of a fine grid
    st = _stats(e1=0.3, e2=0.3, s1=2e-3, s2=3e-3, bias=0.0, c1=0.3, c2=0.7)
    th, _, _, w = at_threshold(st, "optimal").values()
    grid = np.linspace(st.E1 - 6 * np.sqrt(st.Var1), st.E2 + 6 * np.sqrt(st.Var2), 10_000)
    grid_w = min(error_rates(st, t)[2] for t in grid)
    assert w <= grid_w + 1e-12


@pytest.mark.parametrize("c1", [0.25, 0.5, 0.62])
def test_optimal_threshold_beats_grid_search(c1):
    m = skew_model(128, c1=c1)
    st = gaussian_stats(m.stats, *class_split(256, c1), gamma=1.0, profile=RBF_UNIT)
    th, _, _, w = at_threshold(st, "optimal").values()
    lo = st.E1 - 6 * np.sqrt(st.Var1)
    hi = st.E2 + 6 * np.sqrt(st.Var2)
    grid_w = min(error_rates(st, t)[2] for t in np.linspace(lo, hi, 10_000))
    assert w <= grid_w + 1e-12
    # and it beats the naive rules on this unbalanced model
    assert w <= error_rates(st, 0.0)[2]
    assert w <= error_rates(st, st.bias)[2]


_MEANS = st.floats(-5.0, 5.0)
_SPREADS = st.one_of(st.just(0.0), st.floats(0.01, 5.0))


@settings(max_examples=200, deadline=None)
@given(e1=_MEANS, s1=_SPREADS, e2=_MEANS, s2=_SPREADS, c1=st.floats(0.05, 0.95))
@example(e1=5e-324, s1=0.01, e2=0.0, s2=0.01, c1=0.3)  # the crossing's root overflows to inf
def test_threshold_mirrors_with_the_classes(e1, s1, e2, s2, c1):
    # negating the scores and swapping the classes negates the threshold
    assume(not (s1 == s2 == 0.0 and e1 == e2))  # no threshold separates them
    c2 = 1.0 - c1
    stats = _stats(e1=e1, e2=e2, s1=s1, s2=s2, c1=c1, c2=c2)
    mirror = _stats(e1=-e2, e2=-e1, s1=s2, s2=s1, c1=c2, c2=c1)
    w_mirror = at_threshold(mirror, "optimal")["weighted"]
    assert w_mirror == pytest.approx(at_threshold(stats, "optimal")["weighted"], rel=0, abs=1e-12)
    # equal weights and spreads with e1 >= e2 make both ends of the search
    # optimal, and each side keeps the end it tries first
    if not (c1 == c2 and s1 == s2 and e1 >= e2):
        th_mirror = optimal_threshold(mirror)  # bias 0 and gamma 1: the reduced threshold
        assert th_mirror == pytest.approx(-optimal_threshold(stats), rel=1e-9, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(e1=_MEANS.filter(lambda e: e == 0.0 or abs(e) >= 1e-3), s1=st.floats(0.01, 5.0),
       e2=_MEANS.filter(lambda e: e == 0.0 or abs(e) >= 1e-3), s2=st.floats(0.01, 5.0),
       c1=st.floats(0.05, 0.95), k=st.integers(-505, -495) | st.integers(-495, 200))
@example(e1=-1.0, s1=0.01, e2=2.0, s2=0.02, c1=0.3, k=-505)  # b * b overflows unscaled
def test_threshold_scales_with_the_scores_by_powers_of_two(e1, s1, e2, s2, c1, k):
    # The threshold scales with the scores, also near k = -505, where the
    # quadratic's coefficients would overflow unless it were solved in units
    # near the spreads.  A float's ** is not exactly scaled by 2**k, so to rounding.
    stats = _stats(e1=e1, e2=e2, s1=s1, s2=s2, c1=c1, c2=1.0 - c1)
    scaled = _stats(e1=math.ldexp(e1, k), e2=math.ldexp(e2, k), s1=math.ldexp(s1, k),
                    s2=math.ldexp(s2, k), c1=c1, c2=1.0 - c1)
    expected = math.ldexp(optimal_threshold(stats), k)
    assert optimal_threshold(scaled) == pytest.approx(expected, rel=1e-9, abs=math.ldexp(1e-12, k))


@pytest.mark.parametrize("c1", [0.25, 0.5])
def test_threshold_of_means_1e160_spreads_apart(c1):
    # even the quadratic in units of the spreads overflows: the threshold is
    # where both means are equally many spreads away
    stats = _stats(e1=-1e300, e2=2e300, s1=1e140, s2=2e140, c1=c1, c2=1.0 - c1)
    th, eps1, eps2, w = at_threshold(stats, "optimal").values()
    assert (th - stats.e1) / stats.s1 == pytest.approx((stats.e2 - th) / stats.s2, rel=1e-12)
    assert (eps1, eps2, w) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("e1, s1, e2, s2", [(0.0, 1e-150, 1.0, 1e10), (0.0, 1e-100, 1e200, 1e100)],
                         ids=["spreads-1e160-apart", "spreads-1e200-apart"])
def test_threshold_of_spreads_far_apart(e1, s1, e2, s2):
    # In units of the larger spread, 1 / s1**2 overflows; in units midway
    # between the spreads the quadratic is solved, and the threshold sits just
    # past the narrow class, where its error vanishes.
    stats = _stats(e1=e1, e2=e2, s1=s1, s2=s2)
    th, eps1, eps2, w = at_threshold(stats, "optimal").values()
    assert e1 < th < e2
    assert eps1 < 1e-100 and w <= 0.5 * eps2 + 1e-100


# ------------------------------------------------------ structural invariants


def _random_reasonable_model(rng):
    p = int(rng.integers(48, 160))
    spike = float(rng.uniform(0.5, 3.0))
    boost = float(rng.uniform(0.0, 6.0))
    c1 = float(rng.uniform(0.2, 0.8))
    mu1 = np.zeros(p)
    mu2 = np.zeros(p)
    mu1[0] = spike
    mu2[1] = spike
    cov2 = np.asarray(ToeplitzCov(float(rng.uniform(0, 0.6)), 1.0 + boost / np.sqrt(p), p))
    return MixtureModel(p, mu1, mu2, np.eye(p), cov2, c1=c1)


def test_gamma_invariance_of_optimal_error():
    rng = np.random.default_rng(10)
    for _ in range(10):
        m = _random_reasonable_model(rng)
        n = int(rng.integers(32, 512))
        profile = GaussianKernel(float(rng.uniform(0.25, 4.0)))
        outcomes = []
        for gamma in (0.1, 1.0, 10.0):
            st = gaussian_stats(m.stats, *class_split(n, m.c1), gamma, profile)
            outcomes.append(at_threshold(st, "optimal")["weighted"])
        assert abs(outcomes[0] - outcomes[1]) <= 1e-12
        assert abs(outcomes[2] - outcomes[1]) <= 1e-12


def test_gamma_invariance_of_composed_pipeline():
    # same property through the threshold-then-rates composition
    m = skew_model(96)
    profile = RBF_UNIT
    vals = []
    for gamma in (0.1, 1.0, 10.0):
        st = gaussian_stats(m.stats, 48, 144, gamma, profile)
        th = optimal_threshold(st)
        vals.append(error_rates(st, th)[2])
    assert abs(vals[0] - vals[1]) <= 1e-12
    assert abs(vals[2] - vals[1]) <= 1e-12


def test_curvature_sign_flip_never_helps():
    # with a negative slope held fixed, flipping the curvature sign shrinks
    # |D| while leaving every variance piece unchanged, so the optimal error
    # cannot decrease
    for p, boost in ((64, 2.0), (128, 0.0), (96, 4.0)):
        m = balanced_model(p, spike=1.0, boost=boost)
        for fsecond in (0.5, 1.0, 2.0):
            up = gaussian_stats(m.stats, 64, 64, 1.0, shape_kernel(m, -1.0, fsecond))
            down = gaussian_stats(m.stats, 64, 64, 1.0, shape_kernel(m, -1.0, -fsecond))
            assert abs(down.D) <= abs(up.D) + 1e-15
            assert down.Var1 == up.Var1 and down.Var2 == up.Var2
            w_up = at_threshold(up, "optimal")["weighted"]
            w_down = at_threshold(down, "optimal")["weighted"]
            assert w_down >= w_up - 1e-12


def test_error_monotone_in_separation():
    # fixed variances, growing |D|: optimal weighted error is non-increasing
    for c1 in (0.35, 0.5):
        prev = 1.0
        for D in np.linspace(0.0, 5e-3, 12):
            st = _stats(e1=-0.6 * D, e2=0.4 * D, s1=1.1e-3, s2=1.7e-3, D=D, c1=c1, c2=1 - c1)
            w = at_threshold(st, "optimal")["weighted"]
            assert w <= prev + 1e-12
            prev = w
