"""Asymptotic predictors for the LS-SVM decision score on a two-class
Gaussian mixture in the proportional regime (dimension and sample size large
and comparable).

The decision score concentrates around the class-proportion bias ``c2 - c1``
and fluctuates at scale ``1/n``.  The fluctuation splits into a zero-mean
"noise" part driven by the test point's latents and a deterministic
"informative" part built from the differences in class means and covariances;
per class the score is asymptotically Gaussian with explicit mean and
variance.  Everything here depends on the kernel only through its value and
first two derivatives at the distance concentration point ``tau``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .kernels import KernelProfile
from .mixture import MixtureModel, MixtureStats

_SQRT2 = np.sqrt(2.0)
_erfc = np.vectorize(math.erfc, otypes=[float])


def q_function(x):
    """Standard normal upper tail ``Q(x) = P(Z >= x) = erfc(x / sqrt 2) / 2``."""
    out = 0.5 * _erfc(np.asarray(x, dtype=float) / _SQRT2)
    return float(out) if out.ndim == 0 else out


def estimate_tau(X: np.ndarray) -> float:
    """Consistent estimate ``(2/n) sum_i ||x_i - xbar||^2 / p`` of the
    concentration point of pairwise normalized squared distances, computable
    from the data alone (no class information, no kernel).  Data that are
    not finite, or whose squared distances overflow, are refused."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 2:
        raise ValueError(
            f"the data must be a p x n matrix with p >= 1 and n >= 2, got shape {X.shape}"
        )
    p, n = X.shape
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN, inf or overflow: refused below
        Xc = X - X.mean(axis=1, keepdims=True)
        tau = 2.0 * float(np.vdot(Xc, Xc)) / (n * p)
    if not math.isfinite(tau):
        raise ValueError(f"the data must be finite and give a finite tau, got {tau}")
    return tau


def informative_term(stats: MixtureStats, profile: KernelProfile) -> float:
    """Deterministic class-separation functional

        D = -(2 f'(tau)/p) ||mu2 - mu1||^2
            + (f''(tau)/p^2) (tr(C2 - C1))^2
            + (2 f''(tau)/p^2) tr((C2 - C1)^2).
    """
    p = stats.p
    _, fp, fpp = profile.derivatives(stats.tau)
    return (
        -2.0 * fp / p * stats.mean_gap_sq
        + fpp / p**2 * stats.trace_gap**2
        + 2.0 * fpp / p**2 * stats.sq_trace_gap
    )


def _latents(model, X, labels):
    """``(omega, psi)`` of the points ``X`` of ``model`` labeled -1/+1:
    ``omega = (X - mu_class) / sqrt(p)``, the drawn latents to rounding, and
    ``psi = ||omega[:, i]||^2 - tr(C_class(i)) / p``."""
    means = np.where(labels < 0, model.mu1[:, None], model.mu2[:, None])
    omega = (X - means) / np.sqrt(model.p)
    traces = np.where(labels < 0, model.stats.trace1, model.stats.trace2)
    return omega, np.einsum("ij,ij->j", omega, omega) - traces / model.p


def noise_term(model: MixtureModel, train_set, test_set, profile: KernelProfile):
    """Zero-mean fluctuation of the score equivalent at each test point,
    from the training data and the point's latents ``w`` and ``psi``:

        P = -(2 f'(tau)/n) y' P Omega' w
            - (4 c1 c2 f'(tau)/sqrt p) (mu2 - mu1)' w
            + 2 c1 c2 f''(tau) psi tr(C2 - C1) / p

    with the centering projector applied implicitly as
    ``y' P = (y - (c2 - c1) 1)'`` and ``Omega y_c`` read off the data as
    ``(X y_c - sum_a mu_a (sum of y_c over class a)) / sqrt p``.  Both sets
    are labeled sets ``(X, labels)`` drawn from ``model``, whose means and
    traces give the test points' latents.  This is an oracle for validating
    the asymptotics, not an estimator: it reads latents that are unobservable
    in practice.
    """
    X, labels = train_set
    n, p = X.shape[1], model.p
    class1 = labels < 0
    # class counts over n, as gaussian_stats takes them, not c2 = 1 - c1
    c1, c2 = np.count_nonzero(class1) / n, np.count_nonzero(~class1) / n
    _, fp, fpp = profile.derivatives(model.stats.tau)
    y_centered = labels - (c2 - c1)
    omega_y = (
        X @ y_centered
        - model.mu1 * y_centered[class1].sum()
        - model.mu2 * y_centered[~class1].sum()
    ) / np.sqrt(p)
    w, psi = _latents(model, *test_set)
    t1 = -2.0 * fp / n * (omega_y @ w)
    t2 = -4.0 * c1 * c2 * fp / np.sqrt(p) * ((model.mu2 - model.mu1) @ w)
    t3 = 2.0 * c1 * c2 * fpp * psi * (model.stats.trace_gap / p)
    return t1 + t2 + t3


def random_equivalent(model: MixtureModel, train_set, test_set, gamma: float,
                      profile: KernelProfile):
    """Equivalent ``g_hat = E_a + gamma P`` of the decision score at each test
    point of the labeled sets ``(X, labels)`` drawn from ``model``: ``E_a`` is
    the mean :func:`gaussian_stats` predicts for the point's class at the
    training counts, and ``P`` the :func:`noise_term`.  It is asymptotically
    indistinguishable from the trained score at scale 1/n."""
    n1 = np.count_nonzero(train_set[1] < 0)
    stats = gaussian_stats(model.stats, n1, train_set[1].size - n1, gamma, profile)
    means = np.where(test_set[1] < 0, stats.E1, stats.E2)
    return means + gamma * noise_term(model, train_set, test_set, profile)


@dataclass(frozen=True)
class TheoryStats:
    """Per-class asymptotic score statistics.

    Only gamma-free quantities are stored besides ``gamma`` itself: the class
    proportions, the bias, the reduced means ``e_a`` and the reduced
    variances ``r_a``.  The user-facing Gaussian parameters are derived as
    ``E_a = bias + gamma e_a`` and ``Var_a = gamma^2 r_a``, with
    ``s_a = sqrt(r_a)``.  The reduced optimal threshold is therefore exactly
    invariant under rescaling gamma, and the error rates are to rounding.
    """

    tau: float
    D: float
    gamma: float
    c1: float
    c2: float
    bias: float
    e1: float
    e2: float
    r1: float
    r2: float
    v1: tuple  # (class 1, class 2) mean-free variance pieces
    v2: tuple
    v3: tuple

    @property
    def s1(self):
        return float(np.sqrt(self.r1))

    @property
    def s2(self):
        return float(np.sqrt(self.r2))

    @property
    def E1(self):
        return self.bias + self.gamma * self.e1

    @property
    def E2(self):
        return self.bias + self.gamma * self.e2

    @property
    def Var1(self):
        return self.gamma**2 * self.r1

    @property
    def Var2(self):
        return self.gamma**2 * self.r2

    def as_dict(self):
        return {
            "tau": self.tau,
            "D": self.D,
            "gamma": self.gamma,
            "label_convention": "standard",
            "E1": self.E1,
            "E2": self.E2,
            "Var1": self.Var1,
            "Var2": self.Var2,
            "V1": list(self.v1),
            "V2": list(self.v2),
            "V3": list(self.v3),
        }


def gaussian_stats(stats: MixtureStats, n1: int, n2: int, gamma: float,
                   profile: KernelProfile) -> TheoryStats:
    """Asymptotic Gaussian parameters of the decision score per class.

    With the variance pieces (a = 1, 2 indexing the test class)

        V1_a = f''(tau)^2 (tr(C2 - C1))^2 tr(C_a^2) / p^4
        V2_a = 2 f'(tau)^2 (mu2 - mu1)' C_a (mu2 - mu1) / p^2
        V3_a = (2 f'(tau)^2 / (n p^2)) (tr(C1 C_a)/c1 + tr(C2 C_a)/c2)

    the zero-sum targets of :func:`~lssvmlim.lssvm.normalize_labels` give

        E*_1 = -c2 gamma D,   E*_2 = c1 gamma D,
        Var*_a = 2 gamma^2 (V1_a + V2_a + V3_a),

    and +-1 labels, which every prediction is made for, give the zero-sum
    score under the map ``g -> (c2 - c1) + 2 c1 c2 g``: bias ``c2 - c1``,
    means scaled by ``k = 2 c2 c1`` and variances by ``k^2``.

    c1 = n1/n and c2 = n2/n are the proportions of the ``n = n1 + n2``
    training points, since a trained score centres at (n2 - n1)/n; tau is
    ``stats.tau``.  ``gamma`` must be finite and positive, and small enough
    that the score means ``E_a`` and variances ``Var_a`` are finite.
    """
    if not (np.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
    if min(n1, n2) < 1:
        raise ValueError(f"need a training point of each class, got {n1} + {n2}")
    p = stats.p
    n = n1 + n2
    c1, c2 = n1 / n, n2 / n
    tau = stats.tau
    try:
        with np.errstate(over="raise", invalid="raise"):
            _, fp, fpp = profile.derivatives(tau)
            D = informative_term(stats, profile)

            # the pieces for a = 1, 2; tr_cross[a] is (tr(C1 C_a), tr(C2 C_a))
            tr_cross = ((stats.tr_c1c1, stats.tr_c1c2), (stats.tr_c1c2, stats.tr_c2c2))
            v1 = tuple(fpp**2 / p**4 * stats.trace_gap**2 * t
                       for t in (stats.tr_c1c1, stats.tr_c2c2))
            v2 = tuple(2.0 * fp**2 / p**2 * quad for quad in stats.mean_gap_quad)
            v3 = tuple(2.0 * fp**2 / (n * p**2) * (t1 / c1 + t2 / c2) for t1, t2 in tr_cross)

            # the zero-sum statistics, mapped to the scores of +-1 labels
            k, bias = 2.0 * c2 * c1, c2 - c1
            e1, e2, var_scale = -k * c2 * D, k * c1 * D, 2.0 * k**2
            result = TheoryStats(
                tau=tau,
                D=D,
                gamma=float(gamma),
                c1=c1,
                c2=c2,
                bias=bias,
                e1=e1,
                e2=e2,
                r1=var_scale * (v1[0] + v2[0] + v3[0]),
                r2=var_scale * (v1[1] + v2[1] + v3[1]),
                v1=v1,
                v2=v2,
                v3=v3,
            )
            finite = np.isfinite((D, e1, e2, result.r1, result.r2, *v1, *v2, *v3)).all()
    except ArithmeticError:  # a huge derivative or mean overflowed
        finite = False
    if not finite:
        raise ValueError(f"the model and kernel at tau = {tau} give non-finite statistics")
    try:
        finite = np.isfinite((result.E1, result.E2, result.Var1, result.Var2)).all()
    except OverflowError:  # a Python float's ** does not return inf
        finite = False
    if not finite:
        raise ValueError(f"gamma = {gamma} gives score means or variances that are not finite")
    return result


def _tail(d, s):
    """P(s Z > d) for a standard normal Z, and 1/2 at s = d = 0."""
    return q_function(d / s) if s > 0.0 else (0.0 if d > 0.0 else (1.0 if d < 0.0 else 0.5))


def _rates(e1, s1, e2, s2, c1, c2, t):
    """Per-class and weighted error rates ``(eps1, eps2, c1 eps1 + c2 eps2)``
    at reduced threshold t, handling zero spread.

    Class 1 errs when its score lands at or above the threshold, class 2 when
    below; a point mass sitting exactly on the threshold counts 1/2.
    """
    eps1, eps2 = _tail(t - e1, s1), _tail(e2 - t, s2)
    return eps1, eps2, c1 * eps1 + c2 * eps2


def error_rates(stats: TheoryStats, threshold: float):
    """Asymptotic per-class and weighted error rates at a threshold:

        eps1 = Q((xi - E1)/sd1),  eps2 = Q((E2 - xi)/sd2),
        weighted = c1 eps1 + c2 eps2  (the proportions of ``stats``).

    Degenerate zero variances resolve to 0/1 by mean position (1/2 at
    equality).  The reduced parameterization is used internally, so results
    are stable under rescaling gamma.
    """
    t = (threshold - stats.bias) / stats.gamma
    return _rates(stats.e1, stats.s1, stats.e2, stats.s2, stats.c1, stats.c2, t)


def _stationary_points(e1, s1, e2, s2, c1, c2):
    """Real roots of c1 N(t; e1, s1) = c2 N(t; e2, s2) in t (at most two), or
    None when the quadratic's coefficients or discriminant overflow."""
    try:
        a = 0.5 / s2**2 - 0.5 / s1**2
        b = e1 / s1**2 - e2 / s2**2
        c = e2**2 / (2.0 * s2**2) - e1**2 / (2.0 * s1**2) + float(np.log((c1 * s2) / (c2 * s1)))
    except ArithmeticError:  # Python floats raise where NumPy gives inf: ** and / 0.0
        return None
    disc = b * b - 4.0 * a * c
    if not math.isfinite(disc):  # b or c overflowed to inf, or b * b or 4 a c did
        return None
    # Python floats: a root beyond the float range is +-inf, with no warning
    if a == 0.0:
        return [-c / b] if b != 0.0 else []
    if disc < 0.0:
        return []
    # q adds two terms of one sign, so neither root comes from a cancellation
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return [q / a, c / q] if q != 0.0 else [0.0]


def _reduced_optimal(e1, s1, e2, s2, c1, c2):
    """Reduced threshold minimizing the weighted error.

    Prefers a stationary point inside [e1, e2]; otherwise evaluates every
    stationary point together with the endpoints e1 - 6 s1 and e2 + 6 s2 and
    keeps the best.
    """
    # a spread so small that 0.5 / s**2 overflows is the point mass it is
    s1, s2 = (0.0 if s == 0.0 or 0.5 / s**2 == np.inf else s for s in (s1, s2))
    if s1 == 0.0 and s2 == 0.0:
        if e1 == e2:
            raise NumericalFailure("both variances vanish with equal means")
        return 0.5 * (e1 + e2)
    if s1 == 0.0 or s2 == 0.0:
        # One point mass: any threshold just inside the gap zeroes its error;
        # push against the degenerate side to shrink the other tail.
        shift = 1e-12 * max(e2 - e1, abs(e1), abs(e2), 1.0)
        return e1 + shift if s1 == 0.0 else e2 - shift
    # In units of 2**k midway between the spreads, so no 1 / s**2 overflows (ldexp
    # is exact).  None: the means lie some 1e150 spreads apart, and the densities
    # cross where each mean is equally many spreads away.
    k = (math.frexp(s1)[1] + math.frexp(s2)[1]) // 2
    roots = _stationary_points(*(math.ldexp(v, -k) for v in (e1, s1, e2, s2)), c1, c2)
    w = s1 / (s1 + s2)
    candidates = [(1 - w) * e1 + w * e2] if roots is None else [math.ldexp(t, k) for t in roots]
    inside = [t for t in candidates if e1 <= t <= e2]
    pool = inside if inside else candidates + [e1 - 6.0 * s1, e2 + 6.0 * s2]
    return min(pool, key=lambda t: _rates(e1, s1, e2, s2, c1, c2, t)[2])


def optimal_threshold(stats: TheoryStats) -> float:
    """Threshold minimizing the weighted error ``c1 eps1 + c2 eps2``."""
    t = _reduced_optimal(stats.e1, stats.s1, stats.e2, stats.s2, stats.c1, stats.c2)
    return float(stats.bias + stats.gamma * t)
