from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lssvmlim import lssvm
from lssvmlim.errors import DataError, NumericalFailure
from lssvmlim.kernels import (
    GaussianKernel,
    Gram,
    PolynomialKernel,
    TaylorKernel,
    gram_matrix,
    kernel_from_spec,
    kernel_vector,
)
from lssvmlim.mixture import MixtureModel, sample
from lssvmlim.lssvm import (
    TrainedModel,
    classify,
    normalize_labels,
    train,
)


def random_instance(rng, n, p, spd=True):
    X = rng.standard_normal((p, n))
    labels = np.concatenate([-np.ones(n // 2), np.ones(n - n // 2)])
    rng.shuffle(labels)
    if labels.min() == labels.max():  # guard tiny n
        labels[0] = -labels[0]
    return X, labels


def test_two_point_hand_solution():
    f0, k, gamma = 1.0, 0.25, 2.0
    K = np.array([[f0, k], [k, f0]])
    y = np.array([-1.0, 1.0])
    alpha, bias = train(K, y, gamma)
    denom = f0 + 2 / gamma - k
    assert bias == pytest.approx(0.0, abs=1e-14)
    assert alpha == pytest.approx([-1 / denom, 1 / denom], rel=1e-12)


def test_two_point_decision_at_training_point():
    # g(x1) = (k - f0) / (f0 + 2/gamma - k) for the symmetric two-point system
    gamma = 3.0
    X = np.array([[0.0, 2.0], [0.0, 0.0]])
    profile = GaussianKernel(1.0)
    model = TrainedModel.fit(X, np.array([-1.0, 1.0]), gamma, profile)
    f0 = 1.0
    k = float(np.exp(-1.0))
    expected = (k - f0) / (f0 + 2 / gamma - k)
    assert model.decide_many(X[:, :1])[0] == pytest.approx(expected, rel=1e-12)


def test_matches_explicit_inverse_oracle():
    rng = np.random.default_rng(42)
    n = 8
    A = rng.standard_normal((n, n))
    K = A @ A.T  # SPD gram
    y = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0, -1.0])
    gamma = 1.0
    alpha, bias = train(K, y, gamma)

    S_inv = np.linalg.inv(K + (n / gamma) * np.eye(n))
    ones = np.ones(n)
    bias_oracle = ones @ S_inv @ y / (ones @ S_inv @ ones)
    alpha_oracle = S_inv @ (y - bias_oracle * ones)
    assert abs(bias - bias_oracle) < 1e-9
    assert np.max(np.abs(alpha - alpha_oracle)) < 1e-9


def test_dual_coefficients_sum_to_zero():
    rng = np.random.default_rng(0)
    for trial in range(5):
        n = int(rng.integers(4, 40))
        X, labels = random_instance(rng, n, 6)
        K = gram_matrix(X, GaussianKernel(1.0))
        alpha, _ = train(K, labels, float(rng.uniform(0.1, 10)))
        assert abs(alpha.sum()) < 1e-8


def test_indefinite_gram_is_handled():
    # local quadratic profiles can produce indefinite Gram matrices
    rng = np.random.default_rng(1)
    X = rng.standard_normal((8, 24)) * 2.0
    profile = TaylorKernel(anchor=2.0, f0=4.0, f1=0.0, f2=2.0)
    K = gram_matrix(X, profile)
    assert np.linalg.eigvalsh(K).min() < 0  # the premise of the test
    labels = np.concatenate([-np.ones(12), np.ones(12)])
    alpha, bias = train(K, labels, 1.0)
    n = 24
    resid = (K + n * np.eye(n)) @ alpha - (labels - bias)
    assert np.linalg.norm(resid) < 1e-8 * (np.linalg.norm(labels) + abs(bias) * np.sqrt(n))


@pytest.fixture
def factor_calls(monkeypatch):
    """Count the times ``train`` decomposes S."""
    calls = []
    real = lssvm._factor

    def spy(K, shift):
        calls.append(K.shape[0])
        return real(K, shift)

    monkeypatch.setattr(lssvm, "_factor", spy)
    return calls


def _gave_up(*args):
    return None


@pytest.fixture
def no_cg(monkeypatch):
    """Make conjugate gradients give up, so that ``train`` factors S."""
    monkeypatch.setattr(lssvm, "_cg", _gave_up)


def assert_solves(K, labels, gamma, alpha, bias):
    n = len(labels)
    resid = (K + (n / gamma) * np.eye(n)) @ alpha - (labels - bias)
    assert np.linalg.norm(resid) < 1e-8 * (np.linalg.norm(labels) + abs(bias) * np.sqrt(n))
    assert abs(alpha.sum()) < 1e-8


def test_well_conditioned_system_takes_cg(factor_calls):
    rng = np.random.default_rng(31)
    X, labels = random_instance(rng, 40, 10)
    K = gram_matrix(X, GaussianKernel(1.0))
    alpha, bias = train(K, labels, 1.0)
    assert len(factor_calls) == 0
    assert_solves(K, labels, 1.0, alpha, bias)


def test_cg_stops_once_it_has_converged(factor_calls):
    # y has parts in four of S's five eigenvalues, so the solve reaches an
    # exactly zero residual in four steps, and a next direction of 0 would
    # have a curvature of 0/0
    K = scipy.linalg.circulant([0.5, 0.25, 0, 0, 0, 0, 0, 0.25])
    labels = np.array([-1.0, -1.0, 1.0, -1.0, 1.0, 1.0, 1.0, -1.0])
    alpha, bias = train(K, labels, gamma=8.0)
    assert len(factor_calls) == 0
    assert_solves(K, labels, 8.0, alpha, bias)


@dataclass(frozen=True, eq=False)
class CountingGram(Gram):
    """A :class:`Gram` that records the shape of each operand it multiplies."""

    products: list = field(default_factory=list)

    def __matmul__(self, p):
        self.products.append(np.shape(p))
        return super().__matmul__(p)


def test_training_makes_five_vector_products_with_k(factor_calls):
    # on the circulant system above: 4 for y (it has parts in four of S's
    # five eigenvalues), and 1 for the residual guard, which also gives the
    # bias; no solve for the ones
    K = scipy.linalg.circulant([0.5, 0.25, 0, 0, 0, 0, 0, 0.25])
    G = CountingGram((K,))  # n <= 512: one block row, K itself
    labels = np.array([-1.0, -1.0, 1.0, -1.0, 1.0, 1.0, 1.0, -1.0])
    alpha, bias = train(G, labels, gamma=8.0)
    assert G.products == [(8,)] * 5
    assert len(factor_calls) == 0
    assert_solves(K, labels, 8.0, alpha, bias)


def test_cg_that_misses_the_residual_guard_is_refined_by_one_eigh(monkeypatch, factor_calls):
    rng = np.random.default_rng(31)
    X, labels = random_instance(rng, 40, 10)
    K = gram_matrix(X, GaussianKernel(1.0))
    real_cg = lssvm._cg
    # scaling the solve moves alpha by 1e-6 relative, which trips the
    # residual guard
    monkeypatch.setattr(lssvm, "_cg", lambda *args: real_cg(*args) * (1 + 1e-6))
    alpha, bias = train(K, labels, 1.0)
    assert len(factor_calls) == 1
    assert_solves(K, labels, 1.0, alpha, bias)


def test_positive_definite_system_takes_one_eigh(no_cg, factor_calls):
    rng = np.random.default_rng(31)
    X, labels = random_instance(rng, 40, 10)
    K = gram_matrix(X, GaussianKernel(1.0))
    alpha, bias = train(K, labels, 1.0)
    assert len(factor_calls) == 1
    assert_solves(K, labels, 1.0, alpha, bias)


def test_eigh_path_from_a_gram_matches_the_dense_one(no_cg, factor_calls):
    # three block rows, so that the dense copy is assembled from packed ones
    rng = np.random.default_rng(47)
    X, labels = random_instance(rng, 1100, 10)
    G = gram_matrix(X, GaussianKernel(1.0))
    K = np.asarray(G)
    alpha, bias = train(G, labels, 1.0)
    dense_alpha, dense_bias = train(K, labels, 1.0)
    assert len(factor_calls) == 2
    np.testing.assert_allclose(alpha, dense_alpha, rtol=0, atol=1e-12)
    assert abs(bias - dense_bias) <= 1e-12
    assert np.array_equal(np.asarray(G), K)


def test_negative_definite_system_takes_one_eigh(factor_calls):
    n, gamma = 10, 2.0
    K = -3.0 * (n / gamma) * np.eye(n)  # S = K + (n/gamma) I = -2 (n/gamma) I
    labels = np.array([-1.0, 1.0] * (n // 2))
    alpha, bias = train(K, labels, gamma)
    assert len(factor_calls) == 1
    assert_solves(K, labels, gamma, alpha, bias)


@pytest.mark.parametrize(
    "S, cg",
    [
        (np.ones((6, 6)), True),  # rank one, and zero on the complement of 1
        # positive definite, with an eigenvalue below 1e-12 ||S|| along
        # e5 - e6, which is orthogonal to 1; conjugate gradients are kept
        # off to test the pivot rule of the factorization
        (
            scipy.linalg.block_diag(
                np.eye(4), [[0.5 + 5e-15, 0.5 - 5e-15], [0.5 - 5e-15, 0.5 + 5e-15]]
            ),
            False,
        ),
        (np.zeros((6, 6)), True),  # its eigenvalues are not above 1e-12 ||S|| = 0
    ],
    ids=["rank_one", "tiny_pivot", "zero"],
)
def test_collapsed_eigenvalues_raise(request, factor_calls, S, cg):
    if not cg:
        request.getfixturevalue("no_cg")
    n, gamma = len(S), 1.0
    K = S - (n / gamma) * np.eye(n)
    before = K.copy()
    labels = np.array([-1.0, 1.0] * (n // 2))
    with pytest.raises(NumericalFailure, match="numerically singular"):
        train(K, labels, gamma)
    assert len(factor_calls) == 1
    assert np.array_equal(K, before)  # the decomposition worked on a copy


def test_point_masses_under_a_constant_kernel_train(factor_calls):
    # identical point masses under f = -1/gamma give K = -11'/gamma, so
    # S = (n/gamma) I - 11'/gamma is singular only along 1, where the LS-SVM
    # system constrains alpha to zero: alpha = (gamma/n) P y, b = mean(y)
    p, n1, n2, gamma = 48, 20, 28, 1.0
    zeros = np.zeros((p, p))
    ds = sample(MixtureModel(p, np.zeros(p), np.zeros(p), zeros, zeros, c1=0.5), n1, n2, seed=7)
    profile = kernel_from_spec({"kind": "local", "tau": 0.0, "f": -1.0, "fp": 0.0, "fpp": 0.0})
    fitted = TrainedModel.fit(ds.X, ds.labels, gamma, profile)
    y, n = ds.labels, n1 + n2
    np.testing.assert_allclose(fitted.alpha, gamma / n * (y - y.mean()), rtol=0, atol=1e-14)
    assert fitted.bias == pytest.approx(y.mean(), rel=0, abs=1e-14)
    assert len(factor_calls) == 0


def bordered_solution(S, y):
    # [[S, 1], [1', 0]] [alpha; b] = [y; 0] is the LS-SVM system itself
    n = len(y)
    bordered = np.block([[S, np.ones((n, 1))], [np.ones((1, n)), np.zeros((1, 1))]])
    solution = np.linalg.solve(bordered, np.r_[y, 0.0])
    return solution[:n], solution[n]


@pytest.mark.parametrize(
    "n, n1, cg",
    [(1061, 400, True), (300, 113, True), (300, 113, False)],
    ids=["block_rows", "one_block_row", "no_cg"],
)
def test_projected_solve_matches_the_bordered_system(request, factor_calls, n, n1, cg):
    rng = np.random.default_rng(n)
    X = rng.standard_normal((16, n))
    y = rng.permutation(np.where(np.arange(n) < n1, -1.0, 1.0))
    G = gram_matrix(X, GaussianKernel(1.0))
    solution, b = bordered_solution(np.asarray(G) + n * np.eye(n), y)
    if cg:
        np.testing.assert_allclose(lssvm._cg(G, float(n), y), solution, rtol=0, atol=1e-9)
    else:
        request.getfixturevalue("no_cg")
    alpha, bias = train(G, y, 1.0)
    assert len(factor_calls) == (0 if cg else 1)
    np.testing.assert_allclose(alpha, solution, rtol=0, atol=1e-9)
    assert abs(bias - b) <= 1e-9


def test_system_singular_only_along_the_ones_trains(factor_calls):
    # S is 0 along 1 and has eigenvalues +-1 on its complement, so the
    # bordered matrix is well conditioned (2.83); conjugate gradients give
    # up on the negative curvature, and the fallback solves it
    n, gamma = 8, 1.0
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(np.c_[np.ones(n), rng.standard_normal((n, n - 1))])
    S = (q * np.r_[0.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0]) @ q.T
    S = (S + S.T) / 2
    labels = rng.permutation(np.r_[-np.ones(3), np.ones(5)])
    K = S - (n / gamma) * np.eye(n)
    alpha, bias = train(K, labels, gamma)
    assert len(factor_calls) == 1
    solution, b = bordered_solution(S, labels)
    np.testing.assert_allclose(alpha, solution, rtol=0, atol=1e-9)
    assert abs(bias - b) <= 1e-9


@pytest.mark.parametrize("gamma", [1.0, 1e6, 1e10, 1e13])
def test_fallback_keeps_alpha_orthogonal_to_the_ones(no_cg, factor_calls, gamma):
    # as gamma grows, the shift n/gamma vanishes next to the scale of K, and
    # the eigenvalue the decomposition gives 1 must keep to that scale
    rng = np.random.default_rng(31)
    X, labels = random_instance(rng, 40, 10)
    K = gram_matrix(X, GaussianKernel(1.0))
    alpha, bias = train(K, labels, gamma)
    assert len(factor_calls) == 1
    assert abs(alpha.sum()) <= 1e-12
    assert_solves(K, labels, gamma, alpha, bias)


def _unreachable(*args):
    raise AssertionError("conjugate gradients gave up")


# names replaced to force each solver path.  A uniform spectrum has no
# clusters, so conjugate gradients take about n steps on it, more than
# _CG_MAXIT allows past n = 16; the "cg" path gets room for every n drawn
# and must not reach the factorization.
SOLVER_PATHS = {
    "cg": {"lssvmlim.lssvm._CG_MAXIT": 48, "lssvmlim.lssvm._factor": _unreachable},
    "eigh": {"lssvmlim.lssvm._cg": _gave_up},
}


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 24), st.integers(0, 2**32 - 1))
def test_solver_paths_agree_on_an_indefinite_kernel(n, seed):
    # S = K + (n / gamma) I = K + I has its spectrum in [0.5, 2], so both
    # paths solve it, while K itself is indefinite
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    spectrum = rng.uniform(0.5, 2.0, n)
    spectrum[:2] = 0.5, 2.0
    K = (q * (spectrum - 1.0)) @ q.T
    K = (K + K.T) / 2
    labels = rng.permutation(np.where(np.arange(n) < n // 2, -1.0, 1.0))
    solved = {}
    for path, fakes in SOLVER_PATHS.items():
        with pytest.MonkeyPatch.context() as mp:
            for target, fake in fakes.items():
                mp.setattr(target, fake)
            solved[path] = train(K, labels, gamma=n)
    alpha, bias = solved["eigh"]
    np.testing.assert_allclose(solved["cg"][0], alpha, rtol=0, atol=1e-9)
    assert abs(solved["cg"][1] - bias) <= 1e-9


def test_cg_fit_over_block_rows_matches_the_dense_eigh(factor_calls):
    # three block rows, whose products are vector products, at a 400 : 661 split
    n = 1061
    rng = np.random.default_rng(61)
    X = rng.standard_normal((16, n))
    labels = rng.permutation(np.where(np.arange(n) < 400, -1.0, 1.0))
    G = gram_matrix(X, GaussianKernel(1.0))
    alpha, bias = train(G, labels, 1.0)
    assert len(factor_calls) == 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lssvm, "_cg", _gave_up)
        dense_alpha, dense_bias = train(np.asarray(G), labels, 1.0)
    assert len(factor_calls) == 1
    np.testing.assert_allclose(alpha, dense_alpha, rtol=0, atol=1e-9)
    assert abs(bias - dense_bias) <= 1e-9


def test_refinement_pass_reuses_the_factorization(monkeypatch, no_cg, factor_calls):
    rng = np.random.default_rng(37)
    X, labels = random_instance(rng, 30, 8)
    K = gram_matrix(X, GaussianKernel(1.0))
    exact = train(K, labels, 1.0)
    factor_calls.clear()

    counted_factor = lssvm._factor
    solves = []

    def sloppy_first_solve(K, shift):
        solve = counted_factor(K, shift)

        def sloppy(b):
            # scaling the solve for y moves alpha by 1e-6 relative, which
            # trips the residual guard; the refinement solves for the residual
            solves.append(b.shape)
            return solve(b) * (1 + 1e-6) if len(solves) == 1 else solve(b)

        return sloppy

    monkeypatch.setattr(lssvm, "_factor", sloppy_first_solve)
    alpha, bias = train(K, labels, 1.0)
    assert solves == [(30,), (30,)]
    assert len(factor_calls) == 1
    assert_solves(K, labels, 1.0, alpha, bias)
    np.testing.assert_allclose(alpha, exact[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "make_gram",
    [
        lambda X: np.asarray(gram_matrix(X, GaussianKernel(1.0))),
        lambda X: -3.0 * X.shape[1] * np.eye(X.shape[1]),  # conjugate gradients give up
        lambda X: np.asfortranarray(gram_matrix(X, GaussianKernel(1.0))),
    ],
    ids=["cg", "eigh", "fortran_order"],
)
def test_train_leaves_gram_unchanged(make_gram):
    rng = np.random.default_rng(41)
    X, labels = random_instance(rng, 24, 6)
    K = make_gram(X)
    before = K.copy()
    train(K, labels, 1.0)
    assert np.array_equal(K, before)


def test_one_class_rejected():
    with pytest.raises(DataError, match="single class"):
        train(np.eye(3), np.ones(3), 1.0)


@pytest.mark.parametrize(
    "gram, labels, gamma, error, message",
    [
        (np.eye(3)[:2], [-1.0, 1.0], 1.0, DataError, r"gram matrix must be square, got \(2, 3\)"),
        (np.eye(3), [-1.0, 1.0], 1.0, DataError, r"labels must have length 3, got \(2,\)"),
        (np.eye(3), [-1.0, 1.0, 1.0], 0.0, ValueError, "gamma must be positive, got 0.0"),
    ],
    ids=["gram-not-square", "labels-too-short", "gamma-zero"],
)
def test_train_refuses_a_malformed_system(gram, labels, gamma, error, message):
    with pytest.raises(error, match=message):
        train(gram, labels, gamma)


def test_decision_matches_scalar_double_loop():
    rng = np.random.default_rng(2)
    n, p = 16, 8
    X, labels = random_instance(rng, n, p)
    profile = GaussianKernel(1.3)
    model = TrainedModel.fit(X, labels, 0.7, profile)
    x = rng.standard_normal(p)
    manual = model.bias
    for j in range(n):
        u = np.sum((x - X[:, j]) ** 2) / p
        manual += model.alpha[j] * np.exp(-u / (2 * 1.3))
    assert model.decide_many(x[:, None])[0] == pytest.approx(manual, abs=1e-10)


def test_batch_decision_over_training_set_is_gram_action():
    rng = np.random.default_rng(3)
    X, labels = random_instance(rng, 12, 5)
    profile = GaussianKernel(1.0)
    model = TrainedModel.fit(X, labels, 2.0, profile)
    K = gram_matrix(X, profile)
    np.testing.assert_allclose(
        model.decide_many(X), K @ model.alpha + model.bias, atol=1e-10
    )


@pytest.mark.parametrize("shape", [(4,), (5, 3)], ids=["vector", "p-plus-one-rows"])
def test_decide_many_refuses_points_of_another_shape(shape):
    # a point is scored as a p x 1 column: a bare vector or a matrix of
    # another dimension is refused, never broadcast
    rng = np.random.default_rng(4)
    X, labels = random_instance(rng, 6, 4)
    model = TrainedModel.fit(X, labels, 1.0, GaussianKernel(1.0))
    with pytest.raises(DataError, match=rf"expected a 4 x m matrix, got \({shape[0]},"):
        model.decide_many(np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decide_many_rejects_non_finite_points(bad):
    rng = np.random.default_rng(4)
    X, labels = random_instance(rng, 6, 4)
    model = TrainedModel.fit(X, labels, 1.0, GaussianKernel(1.0))
    pts = rng.standard_normal((4, 5))
    pts[1, 3] = bad  # one column holds the bad entry; the rest are fine
    with pytest.raises(ValueError, match="finite"):
        model.decide_many(pts)


def test_normalized_labels_values():
    labels = np.array([-1, 1, 1, 1])  # c1 = 1/4, c2 = 3/4
    np.testing.assert_allclose(normalize_labels(labels), [-4.0, 4 / 3, 4 / 3, 4 / 3])
    labels = np.array([-1, -1, 1, 1])
    np.testing.assert_allclose(normalize_labels(labels), [-2.0, -2.0, 2.0, 2.0])


def test_normalized_labels_zero_sum():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 50))
        n1 = int(rng.integers(1, n))
        labels = np.concatenate([-np.ones(n1), np.ones(n - n1)])
        out = normalize_labels(labels)
        # exact rational identity: n1 * (-n/n1) + n2 * (n/n2) = 0
        assert n1 * Fraction(-n, n1) + (n - n1) * Fraction(n, n - n1) == 0
        # float realization keeps the zero sum to round-off
        assert abs(out.sum()) < 1e-10 * n


def test_normalized_labels_need_both_classes():
    with pytest.raises(DataError, match="both classes are required"):
        normalize_labels(np.ones(4))


def test_classify_rules():
    # the tie at 0.5 goes to class 2
    np.testing.assert_array_equal(classify(np.array([0.3, 0.5, 0.51]), 0.5), [1, 2, 2])
    np.testing.assert_array_equal(classify(np.array([0.0, 1.0]), 0.5), [1, 2])


@settings(max_examples=50, deadline=None)
@given(
    score=st.floats(-10, 10, allow_nan=False),
    threshold=st.floats(-10, 10, allow_nan=False),
)
def test_classify_threshold_shift(score, threshold):
    assert classify(score, threshold) == classify(score - threshold, 0.0)


def test_label_normalization_identity():
    # g(x) - (c2 - c1) = 2 c1 c2 g*(x) for the same data and kernel
    rng = np.random.default_rng(6)
    for trial in range(5):
        n = int(rng.integers(6, 32))
        p = int(rng.integers(2, 12))
        X, labels = random_instance(rng, n, p)
        gamma = float(rng.uniform(0.2, 5.0))
        profile = GaussianKernel(float(rng.uniform(0.5, 3.0)))
        standard = TrainedModel.fit(X, labels, gamma, profile)
        zero_sum = TrainedModel.fit(X, normalize_labels(labels), gamma, profile)
        c1 = np.count_nonzero(labels < 0) / n
        c2 = 1 - c1
        x = rng.standard_normal(p)
        lhs = standard.decide_many(x[:, None])[0] - (c2 - c1)
        rhs = 2 * c1 * c2 * zero_sum.decide_many(x[:, None])[0]
        assert abs(lhs - rhs) < 1e-8


def test_permutation_equivariance():
    rng = np.random.default_rng(7)
    X, labels = random_instance(rng, 14, 6)
    profile = GaussianKernel(1.0)
    model = TrainedModel.fit(X, labels, 1.5, profile)
    perm = rng.permutation(14)
    permuted = TrainedModel.fit(X[:, perm], labels[perm], 1.5, profile)
    assert abs(model.bias - permuted.bias) < 1e-10
    assert np.max(np.abs(model.alpha[perm] - permuted.alpha)) < 1e-10
    x = rng.standard_normal(6)
    assert abs(model.decide_many(x[:, None])[0] - permuted.decide_many(x[:, None])[0]) < 1e-10


def test_non_finite_labels_rejected():
    with pytest.raises(ValueError, match="finite"):
        train(0.5 * np.eye(4), [-1.0, 1.0, np.nan, 1.0], 1.0)
    with pytest.raises(ValueError, match="finite"):
        train(0.5 * np.eye(4), [-1.0, 1.0, np.inf, 1.0], 1.0)


@pytest.mark.parametrize("pos", [(0, 0), (0, 1), (1, 0)], ids=["diagonal", "upper", "lower"])
def test_nan_gram_is_a_singular_system(factor_calls, pos):
    K = 0.5 * np.eye(4)
    K[pos] = np.nan
    # the eigenvalue test rejects S itself, before any solve
    with pytest.raises(NumericalFailure, match="numerically singular"):
        train(K, [-1.0, 1.0, -1.0, 1.0], 1.0)
    assert len(factor_calls) == 1


def test_nan_solution_fails_the_residual_guard(monkeypatch, no_cg):
    # a decomposition that passes its eigenvalue check but solves to NaN must
    # not come back as NaN coefficients
    real_factor = lssvm._factor
    monkeypatch.setattr(lssvm, "_factor", lambda *args: lambda B: real_factor(*args)(B) * np.nan)
    with pytest.raises(NumericalFailure, match="training residual .* exceeds"):
        train(0.5 * np.eye(4), [-1.0, 1.0, -1.0, 1.0], 1.0)
