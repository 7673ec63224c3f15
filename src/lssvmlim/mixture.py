"""Two-class Gaussian mixtures: model statistics, covariance constructors,
sampling with latent-variable tracking, and growth-regime diagnostics.

A sample from class ``a`` is ``x = mu_a + sqrt(p) * w`` with
``w ~ N(0, C_a / p)``; the latent vectors ``w`` and the centered squared
norms ``psi = ||w||^2 - tr(C_a)/p`` are kept alongside the data so that
score predictions built from them can be validated directly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import EigFailure

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(seed: int, k: int) -> int:
    """Derive the k-th child seed of ``seed`` (splitmix64 finalizer).

    Fixed public mixing so that parallel Monte Carlo trials are reproducible
    and independent of execution order.
    """
    z = (int(seed) + int(k) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def toeplitz_cov(rho: float, scale: float, p: int) -> np.ndarray:
    """Covariance with entries ``scale * rho**|i - j|``."""
    if not 0 <= rho < 1:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return scipy.linalg.toeplitz(scale * rho ** np.arange(p))


def _check_cov(C, p, name):
    C = np.asarray(C, dtype=float)
    if C.shape != (p, p):
        raise ValueError(f"{name} must be {p}x{p}, got {C.shape}")
    scale = max(1.0, np.abs(C).max())
    if np.abs(C - C.T).max() > 1e-12 * scale:
        raise ValueError(f"{name} is not symmetric")
    return C


@dataclass(frozen=True, eq=False)
class MixtureModel:
    """Two-class Gaussian mixture statistics.

    ``c1`` is the class-1 proportion; ``c2`` is always stored as ``1 - c1``
    so the proportions sum to one exactly.  Covariances must be symmetric
    nonnegative-definite up to round-off (smallest eigenvalue no lower than
    ``-1e-10`` times the spectral norm).
    """

    p: int
    mu1: np.ndarray
    mu2: np.ndarray
    cov1: np.ndarray
    cov2: np.ndarray
    c1: float
    c2: float = field(default=None)  # derived, always 1 - c1

    def __post_init__(self):
        p = int(self.p)
        object.__setattr__(self, "p", p)
        for name in ("mu1", "mu2"):
            mu = np.asarray(getattr(self, name), dtype=float)
            if mu.shape != (p,):
                raise ValueError(f"{name} must have shape ({p},), got {mu.shape}")
            object.__setattr__(self, name, mu)
        object.__setattr__(self, "cov1", _check_cov(self.cov1, p, "cov1"))
        object.__setattr__(self, "cov2", _check_cov(self.cov2, p, "cov2"))
        if not 0.0 < self.c1 < 1.0:
            raise ValueError(f"c1 must lie in (0, 1), got {self.c1}")
        if self.c2 is not None and abs(self.c1 + self.c2 - 1.0) > 1e-12:
            raise ValueError("c1 + c2 must equal 1")
        object.__setattr__(self, "c2", 1.0 - self.c1)
        for name, (w, _) in (("cov1", self._eig1), ("cov2", self._eig2)):
            norm = np.abs(w).max() if w.size else 0.0
            if w.min() < -1e-10 * norm:
                raise ValueError(f"{name} has eigenvalue {w.min()} below tolerance")

    @classmethod
    def from_counts(cls, p, mu1, mu2, cov1, cov2, n1: int, n2: int) -> "MixtureModel":
        """Model tied to integer class sizes; proportions are n1/(n1+n2)."""
        return cls(p, mu1, mu2, cov1, cov2, c1=n1 / (n1 + n2))

    def _eig(self, C):
        try:
            return np.linalg.eigh(C)
        except np.linalg.LinAlgError as exc:
            raise EigFailure(str(exc)) from exc

    @cached_property
    def _eig1(self):
        return self._eig(self.cov1)

    @cached_property
    def _eig2(self):
        return self._eig(self.cov2)

    def _sqrt(self, eig):
        w, v = eig
        s = np.sqrt(np.maximum(w, 0.0))  # clamp round-off negatives
        return (v * s) @ v.T

    @cached_property
    def sqrt_cov1(self):
        return self._sqrt(self._eig1)

    @cached_property
    def sqrt_cov2(self):
        return self._sqrt(self._eig2)

    # Trace statistics reused throughout the asymptotic formulas.  For
    # symmetric A, B: tr(A B) = sum_ij A_ij B_ij.
    @cached_property
    def trace1(self):
        return float(np.trace(self.cov1))

    @cached_property
    def trace2(self):
        return float(np.trace(self.cov2))

    @cached_property
    def trace_gap(self):
        """tr(C2 - C1)"""
        return self.trace2 - self.trace1

    @cached_property
    def tr_c1c1(self):
        return float(np.vdot(self.cov1, self.cov1))

    @cached_property
    def tr_c2c2(self):
        return float(np.vdot(self.cov2, self.cov2))

    @cached_property
    def tr_c1c2(self):
        return float(np.vdot(self.cov1, self.cov2))

    @cached_property
    def sq_trace_gap(self):
        """tr((C2 - C1)^2)"""
        return self.tr_c1c1 + self.tr_c2c2 - 2.0 * self.tr_c1c2

    @cached_property
    def mean_gap(self):
        """mu2 - mu1"""
        return self.mu2 - self.mu1

    @cached_property
    def mean_gap_sq(self):
        """||mu2 - mu1||^2"""
        return float(self.mean_gap @ self.mean_gap)

    @cached_property
    def tau(self):
        """Concentration point (2/p) tr(c1 C1 + c2 C2) of the pairwise
        normalized squared distances."""
        return 2.0 / self.p * (self.c1 * self.trace1 + self.c2 * self.trace2)

    @cached_property
    def spectral_norms(self):
        w1, _ = self._eig1
        w2, _ = self._eig2
        return float(np.abs(w1).max()), float(np.abs(w2).max())


@dataclass(frozen=True, eq=False)
class LatentDataset:
    """Sampled data matrix with its generating latents.

    ``X[:, i] = mu_class(i) + sqrt(p) * omega[:, i]`` holds exactly by
    construction, and ``psi[i] = ||omega[:, i]||^2 - tr(C_class(i)) / p``.
    Labels are -1 for class 1 and +1 for class 2.
    """

    X: np.ndarray
    labels: np.ndarray
    omega: np.ndarray
    psi: np.ndarray

    @property
    def p(self):
        return self.X.shape[0]

    @property
    def n(self):
        return self.X.shape[1]

    @property
    def n1(self):
        return int(np.count_nonzero(self.labels < 0))

    @property
    def n2(self):
        return int(np.count_nonzero(self.labels > 0))

    def permuted(self, perm) -> "LatentDataset":
        """Column-reordered view of the same sample."""
        perm = np.asarray(perm)
        return LatentDataset(
            X=self.X[:, perm],
            labels=self.labels[perm],
            omega=self.omega[:, perm],
            psi=self.psi[perm],
        )


def sample(model: MixtureModel, n1: int, n2: int, seed: int) -> LatentDataset:
    """Draw ``n1`` class-1 then ``n2`` class-2 points (contiguous blocks).

    Latents are ``omega_i = C_a^{1/2} z_i / sqrt(p)`` with standard normal
    ``z_i``; the square root comes from the symmetric eigendecomposition with
    negative round-off eigenvalues clamped to zero, so rank-deficient
    covariances are legal.  Deterministic given ``seed``.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("need at least one sample per class")
    rng = np.random.default_rng(seed)
    p = model.p
    sqrt_p = np.sqrt(p)
    parts_x, parts_om, parts_psi = [], [], []
    for mu, sqrt_cov, trace, na in (
        (model.mu1, model.sqrt_cov1, model.trace1, n1),
        (model.mu2, model.sqrt_cov2, model.trace2, n2),
    ):
        z = rng.standard_normal((p, na))
        omega = (sqrt_cov @ z) / sqrt_p
        parts_om.append(omega)
        parts_x.append(mu[:, None] + sqrt_p * omega)
        parts_psi.append(np.einsum("ij,ij->j", omega, omega) - trace / p)
    labels = np.concatenate([np.full(n1, -1.0), np.full(n2, 1.0)])
    return LatentDataset(
        X=np.hstack(parts_x),
        labels=labels,
        omega=np.hstack(parts_om),
        psi=np.concatenate(parts_psi),
    )


@dataclass(frozen=True)
class GrowthDiagnostics:
    """Advisory scaling report for the nontrivial-classification regime.

    ``likely_trivial`` flags separations so large that asymptotically perfect
    classification is expected; ``likely_impossible`` flags the regime where
    every separation statistic vanishes and no classifier can do better than
    chance.
    """

    mean_gap: float          # ||mu2 - mu1||
    trace_gap_rate: float    # tr(C2 - C1) / sqrt(n)
    sq_trace_gap_rate: float # tr((C2 - C1)^2) / n
    cov_norm1: float
    cov_norm2: float
    tau: float
    dim_ratio: float         # p / n
    likely_trivial: bool
    likely_impossible: bool

    def as_dict(self):
        return asdict(self)


def growth_diagnostics(model: MixtureModel, n: int) -> GrowthDiagnostics:
    """Scaling diagnostics of a model at sample size ``n`` (advisory only)."""
    mean_gap = float(np.sqrt(model.mean_gap_sq))
    trace_rate = float(model.trace_gap / np.sqrt(n))
    sq_rate = float(model.sq_trace_gap / n)
    norm1, norm2 = model.spectral_norms
    return GrowthDiagnostics(
        mean_gap=mean_gap,
        trace_gap_rate=trace_rate,
        sq_trace_gap_rate=sq_rate,
        cov_norm1=norm1,
        cov_norm2=norm2,
        tau=model.tau,
        dim_ratio=model.p / n,
        likely_trivial=bool(mean_gap > 10.0 or abs(trace_rate) > 10.0),
        likely_impossible=bool(
            mean_gap < 0.1 and abs(trace_rate) < 0.1 and sq_rate < 0.1
        ),
    )


def _parse_mean_spec(spec, p):
    if isinstance(spec, str):
        s = spec.strip()
        if s == "zeros":
            return np.zeros(p)
        if s.startswith("unit_spike(") and s.endswith(")"):
            idx, val = (t.strip() for t in s[len("unit_spike(") : -1].split(","))
            mu = np.zeros(p)
            k = int(idx)
            if not 1 <= k <= p:
                raise ValueError(f"spike coordinate {k} outside 1..{p}")
            mu[k - 1] = float(val)  # 1-based coordinate
            return mu
        raise ValueError(f"unknown mean spec: {spec!r}")
    return np.asarray(spec, dtype=float)


def _parse_cov_spec(spec, p):
    if isinstance(spec, str):
        s = spec.strip()
        if s == "identity":
            return np.eye(p)
        if s.startswith("toeplitz(") and s.endswith(")"):
            rho, scale = (float(t) for t in s[len("toeplitz(") : -1].split(","))
            return toeplitz_cov(rho, scale, p)
        if s.startswith("boosted_toeplitz(") and s.endswith(")"):
            # scale tied to the dimension: 1 + boost / sqrt(p)
            rho, boost = (float(t) for t in s[len("boosted_toeplitz(") : -1].split(","))
            return toeplitz_cov(rho, 1.0 + boost / np.sqrt(p), p)
        raise ValueError(f"unknown covariance spec: {spec!r}")
    if isinstance(spec, dict) and "file" in spec:
        return np.load(spec["file"])
    return np.asarray(spec, dtype=float)


def model_from_spec(spec: dict, p: int | None = None) -> MixtureModel:
    """Build a model from its config-file form.

    Keys: ``p`` (overridable by the ``p`` argument), ``mean1``/``mean2``
    ("zeros", "unit_spike(k, v)" with 1-based k, or a dense list),
    ``cov1``/``cov2`` ("identity", "toeplitz(rho, scale)", a dense matrix, or
    ``{"file": path}``), and ``c1`` or integer counts ``n1``/``n2``.
    """
    p = int(spec["p"]) if p is None else int(p)
    mu1 = _parse_mean_spec(spec["mean1"], p)
    mu2 = _parse_mean_spec(spec["mean2"], p)
    cov1 = _parse_cov_spec(spec["cov1"], p)
    cov2 = _parse_cov_spec(spec["cov2"], p)
    if "c1" in spec:
        return MixtureModel(p, mu1, mu2, cov1, cov2, c1=float(spec["c1"]))
    return MixtureModel.from_counts(
        p, mu1, mu2, cov1, cov2, int(spec["n1"]), int(spec["n2"])
    )
