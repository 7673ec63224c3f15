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

from .errors import DegenerateStats
from .kernels import KernelProfile
from .mixture import LatentDataset, MixtureModel

_SQRT2 = np.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)
_erfc = np.vectorize(math.erfc, otypes=[float])


def q_function(x):
    """Standard normal upper tail ``Q(x) = P(Z >= x) = erfc(x / sqrt 2) / 2``."""
    out = 0.5 * _erfc(np.asarray(x, dtype=float) / _SQRT2)
    return float(out) if out.ndim == 0 else out


def estimate_tau(X: np.ndarray) -> float:
    """Consistent estimate ``(2/n) sum_i ||x_i - xbar||^2 / p`` of the
    concentration point of pairwise normalized squared distances, computable
    from the data alone (no class information, no kernel)."""
    X = np.asarray(X, dtype=float)
    p, n = X.shape
    if n < 2:
        raise ValueError("need at least two columns")
    if not np.isfinite(X).all():
        raise ValueError("the data must be finite")
    Xc = X - X.mean(axis=1, keepdims=True)
    return 2.0 * float(np.vdot(Xc, Xc)) / (n * p)


def informative_term(model: MixtureModel, profile: KernelProfile) -> float:
    """Deterministic class-separation functional

        D = -(2 f'(tau)/p) ||mu2 - mu1||^2
            + (f''(tau)/p^2) (tr(C2 - C1))^2
            + (2 f''(tau)/p^2) tr((C2 - C1)^2).
    """
    p = model.p
    _, fp, fpp = profile.derivatives(model.tau)
    return (
        -2.0 * fp / p * model.mean_gap_sq
        + fpp / p**2 * model.trace_gap**2
        + 2.0 * fpp / p**2 * model.sq_trace_gap
    )


def noise_term(
    dataset: LatentDataset,
    model: MixtureModel,
    omega_x,
    psi_x,
    profile: KernelProfile,
):
    """Zero-mean fluctuation of the score equivalent, from the training
    latents and the test point's latents:

        P = -(2 f'(tau)/n) y' P Omega' w_x
            - (4 c1 c2 f'(tau)/sqrt p) (mu2 - mu1)' w_x
            + 2 c1 c2 f''(tau) psi_x tr(C2 - C1) / p

    with the centering projector applied implicitly as
    ``y' P = (y - (c2 - c1) 1)'``.  ``omega_x`` may be a single ``p``-vector
    or a ``p x m`` matrix of test latents (with ``psi_x`` an ``m``-vector).
    This is an oracle for validating the asymptotics, not an estimator: it
    reads latents that are unobservable in practice.
    """
    omega_x = np.asarray(omega_x, dtype=float)
    n = dataset.n
    p = model.p
    if omega_x.shape[0] != p:
        raise ValueError(f"test latents must have {p} rows, got {omega_x.shape}")
    c1 = dataset.n1 / n
    c2 = dataset.n2 / n
    _, fp, fpp = profile.derivatives(model.tau)
    y_centered = dataset.labels - (c2 - c1)
    t1 = -2.0 * fp / n * ((dataset.omega @ y_centered) @ omega_x)
    t2 = -4.0 * c1 * c2 * fp / np.sqrt(p) * (model.mean_gap @ omega_x)
    t3 = 2.0 * c1 * c2 * fpp * np.asarray(psi_x, dtype=float) * (model.trace_gap / p)
    out = t1 + t2 + t3
    return float(out) if omega_x.ndim == 1 else out


def random_equivalent(
    dataset: LatentDataset,
    model: MixtureModel,
    omega_x,
    psi_x,
    test_class: int,
    gamma: float,
    profile: KernelProfile,
):
    """Deterministic-plus-latent equivalent of the decision score,

        g_hat = c2 - c1 + gamma (P - 2 c1 c2^2 D)   for a class-1 point,
        g_hat = c2 - c1 + gamma (P + 2 c1^2 c2 D)   for a class-2 point,

    asymptotically indistinguishable from the trained score at scale 1/n.
    Class proportions are the training sample's exact counts.
    """
    if test_class not in (1, 2):
        raise ValueError(f"test_class must be 1 or 2, got {test_class}")
    n = dataset.n
    c1 = dataset.n1 / n
    c2 = dataset.n2 / n
    noise = noise_term(dataset, model, omega_x, psi_x, profile)
    info = informative_term(model, profile)
    coef = -2.0 * c1 * c2**2 if test_class == 1 else 2.0 * c1**2 * c2
    return (c2 - c1) + gamma * (noise + coef * info)


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
    label_convention: str
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
            "label_convention": self.label_convention,
            "E1": self.E1,
            "E2": self.E2,
            "Var1": self.Var1,
            "Var2": self.Var2,
            "V1": list(self.v1),
            "V2": list(self.v2),
            "V3": list(self.v3),
        }


def gaussian_stats(
    model: MixtureModel,
    n: int,
    gamma: float,
    profile: KernelProfile,
    convention: str = "standard",
) -> TheoryStats:
    """Asymptotic Gaussian parameters of the decision score per class.

    With the variance pieces (a = 1, 2 indexing the test class)

        V1_a = f''(tau)^2 (tr(C2 - C1))^2 tr(C_a^2) / p^4
        V2_a = 2 f'(tau)^2 (mu2 - mu1)' C_a (mu2 - mu1) / p^2
        V3_a = (2 f'(tau)^2 / (n p^2)) (tr(C1 C_a)/c1 + tr(C2 C_a)/c2)

    standard +-1 labels give

        E_1 = c2 - c1 - 2 c2 c1 c2 gamma D,   E_2 = c2 - c1 + 2 c1 c1 c2 gamma D,
        Var_a = 8 gamma^2 c1^2 c2^2 (V1_a + V2_a + V3_a),

    and zero-sum normalized labels give

        E*_1 = -c2 gamma D,   E*_2 = c1 gamma D,
        Var*_a = 2 gamma^2 (V1_a + V2_a + V3_a).

    c1, c2 are the model's; ``gamma`` must be finite and positive.
    """
    if convention not in ("standard", "fisher"):
        raise ValueError(f"unknown label convention: {convention!r}")
    if not (np.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
    p = model.p
    c1, c2 = model.c1, model.c2
    tau = model.tau
    try:
        with np.errstate(over="raise", invalid="raise"):
            _, fp, fpp = profile.derivatives(tau)
            D = informative_term(model, profile)

            tr_sq = (model.tr_c1c1, model.tr_c2c2)
            tr_cross = (
                (model.tr_c1c1, model.tr_c1c2),  # tr(C1 C_a), tr(C2 C_a) for a = 1
                (model.tr_c1c2, model.tr_c2c2),  # ... for a = 2
            )
            quad = model.mean_gap_quad

            v1, v2, v3 = [], [], []
            for a in (0, 1):
                v1.append(fpp**2 / p**4 * model.trace_gap**2 * tr_sq[a])
                v2.append(2.0 * fp**2 / p**2 * quad[a])
                c1a, c2a = tr_cross[a]
                v3.append(2.0 * fp**2 / (n * p**2) * (c1a / c1 + c2a / c2))

            if convention == "standard":
                bias = c2 - c1
                e1 = -2.0 * c2 * c1 * c2 * D
                e2 = 2.0 * c1 * c1 * c2 * D
                var_scale = 8.0 * c1**2 * c2**2
            else:
                bias = 0.0
                e1 = -c2 * D
                e2 = c1 * D
                var_scale = 2.0
            stats = TheoryStats(
                tau=tau,
                D=D,
                gamma=float(gamma),
                label_convention=convention,
                c1=c1,
                c2=c2,
                bias=bias,
                e1=e1,
                e2=e2,
                r1=var_scale * (v1[0] + v2[0] + v3[0]),
                r2=var_scale * (v1[1] + v2[1] + v3[1]),
                v1=tuple(v1),
                v2=tuple(v2),
                v3=tuple(v3),
            )
            finite = np.isfinite((D, e1, e2, stats.r1, stats.r2, *v1, *v2, *v3)).all()
    except ArithmeticError:  # a huge derivative or mean overflowed
        finite = False
    if not finite:
        raise ValueError(f"the model and kernel at tau = {tau} give non-finite statistics")
    return stats


def _tail_pair(e1, s1, e2, s2, t):
    """Per-class error rates at reduced threshold t, handling zero spread.

    Class 1 errs when its score lands at or above the threshold, class 2 when
    below; a point mass sitting exactly on the threshold counts 1/2.
    """
    if s1 > 0.0:
        eps1 = q_function((t - e1) / s1)
    else:
        eps1 = 0.0 if e1 < t else (1.0 if e1 > t else 0.5)
    if s2 > 0.0:
        eps2 = q_function((e2 - t) / s2)
    else:
        eps2 = 0.0 if e2 > t else (1.0 if e2 < t else 0.5)
    return eps1, eps2


def error_rates(stats: TheoryStats, threshold: float):
    """Asymptotic per-class and weighted error rates at a threshold:

        eps1 = Q((xi - E1)/sd1),  eps2 = Q((E2 - xi)/sd2),
        weighted = c1 eps1 + c2 eps2  (the proportions of ``stats``).

    Degenerate zero variances resolve to 0/1 by mean position (1/2 at
    equality).  The reduced parameterization is used internally, so results
    are stable under rescaling gamma.
    """
    t = (threshold - stats.bias) / stats.gamma
    eps1, eps2 = _tail_pair(stats.e1, stats.s1, stats.e2, stats.s2, t)
    return eps1, eps2, stats.c1 * eps1 + stats.c2 * eps2


def _stationary_points(e1, s1, e2, s2, c1, c2):
    """Real roots of c1 N(t; e1, s1) = c2 N(t; e2, s2) in t (at most two), or
    None when the quadratic's coefficients or discriminant overflow."""
    try:
        a = 0.5 / s2**2 - 0.5 / s1**2
        b = e1 / s1**2 - e2 / s2**2
        c = e2**2 / (2.0 * s2**2) - e1**2 / (2.0 * s1**2) + float(np.log((c1 * s2) / (c2 * s1)))
    except OverflowError:  # a Python float's ** does not return inf
        return None
    disc = b * b - 4.0 * a * c
    if not math.isfinite(disc):  # b or c overflowed to inf, or b * b or 4 a c did
        return None
    # Python floats: a root beyond the float range is +-inf, with no warning
    if a == 0.0:
        return [-c / b] if b != 0.0 else []
    if disc < 0.0:
        return []
    root = math.sqrt(disc)
    return [(-b + root) / (2.0 * a), (-b - root) / (2.0 * a)]


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
            raise DegenerateStats("both variances vanish with equal means")
        return 0.5 * (e1 + e2)
    if s1 == 0.0 or s2 == 0.0:
        # One point mass: any threshold just inside the gap zeroes its error;
        # push against the degenerate side to shrink the other tail.
        shift = 1e-12 * max(e2 - e1, abs(e1), abs(e2), 1.0)
        return e1 + shift if s1 == 0.0 else e2 - shift
    candidates = _stationary_points(e1, s1, e2, s2, c1, c2)
    if candidates is None:  # overflowed: again in units of 2**k near the spreads
        k = math.frexp(max(s1, s2))[1]
        roots = _stationary_points(*(math.ldexp(v, -k) for v in (e1, s1, e2, s2)), c1, c2)
        # None again: the means lie some 1e150 spreads apart, and the densities
        # cross where each mean is equally many spreads away
        w = s1 / (s1 + s2)
        candidates = [(1 - w) * e1 + w * e2] if roots is None else [math.ldexp(t, k) for t in roots]
    inside = [t for t in candidates if e1 <= t <= e2]
    pool = inside if inside else candidates + [e1 - 6.0 * s1, e2 + 6.0 * s2]

    def weighted(t):
        p1, p2 = _tail_pair(e1, s1, e2, s2, t)
        return c1 * p1 + c2 * p2

    return min(pool, key=weighted)


def optimal_threshold(stats: TheoryStats) -> float:
    """Threshold minimizing the weighted error ``c1 eps1 + c2 eps2``."""
    t = _reduced_optimal(stats.e1, stats.s1, stats.e2, stats.s2, stats.c1, stats.c2)
    return float(stats.bias + stats.gamma * t)
