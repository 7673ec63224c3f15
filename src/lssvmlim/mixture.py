"""Two-class Gaussian mixtures: model statistics, covariance constructors
and sampling.

A sample from class ``a`` is ``x = mu_a + sqrt(p) * w`` with
``w ~ N(0, C_a / p)``.  A draw stores ``X`` only; the latent vectors ``w``
and the centered squared norms ``psi = ||w||^2 - tr(C_a)/p`` are derived
from it on first read, for the studies that validate score predictions
built from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_ROWS = 64  # rows of a banded root product per block


def mix64(seed: int, k: int) -> int:
    """Derive the k-th child seed of ``seed`` (splitmix64 finalizer).

    Fixed public mixing so that parallel Monte Carlo trials are reproducible
    and independent of execution order.
    """
    z = (int(seed) + int(k) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def whole_int(value, name: str, positive: bool = True) -> int:
    """``value`` as an int if it is a whole number, such as 300 or 300.0,
    and at least 1 where ``positive``; else a ValueError that names
    ``name``.  Nothing is truncated."""
    k = int(value) if isinstance(value, float) and value.is_integer() else value
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or (positive and k < 1):
        kind = "a positive integer" if positive else "an integer"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return int(k)


def real(value, name: str) -> float:
    """``value`` as a float if it is an int or a float, NumPy's included;
    else a ValueError that names ``name``.  A boolean, which would read as
    1 or 0, and a string, which ``float`` would parse, are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


class ToeplitzCov:
    """AR(1) covariance ``C[i, j] = scale * rho**|i - j|``, a symmetric
    Toeplitz matrix held by its first row ``row``.

    Positive definite for ``0 <= rho < 1`` and a finite ``scale > 0`` by
    construction; ``rho = 0`` is ``scale`` times the identity.  The trace
    statistics have closed forms, so no p x p array is formed until
    :func:`sample` needs a square root of a covariance that is not a
    multiple of the identity; ``np.asarray`` materializes the dense matrix.
    It is not an array: read entries through ``row`` or ``np.asarray``.
    """

    __slots__ = ("rho", "scale", "row")

    def __init__(self, rho: float, scale: float, p: int):
        if not 0 <= rho < 1:
            raise ValueError(f"rho must lie in [0, 1), got {rho}")
        if not 0 < scale < np.inf:
            raise ValueError(f"scale must be finite and positive, got {scale}")
        row = scale * rho ** np.arange(p)
        row.flags.writeable = False
        self.rho, self.scale, self.row = rho, scale, row

    @property
    def p(self):
        return self.row.size

    @property
    def shape(self):
        return (self.p, self.p)

    def __array__(self, dtype=None, copy=None):
        k = np.arange(self.p)
        lag = np.subtract.outer(k, k)
        dense = self.row[np.abs(lag, out=lag)]  # exact entry copies
        return dense if dtype is None else dense.astype(dtype, copy=False)

    def trace(self) -> float:
        """``tr C = p r0``"""
        return self.p * float(self.row[0])  # a Python float: inf on overflow, no warning

    def tr_prod(self, other: "ToeplitzCov") -> float:
        """``tr(A B) = p a0 b0 + 2 sum_k (p - k) a_k b_k`` for A = self, B = other."""
        a, b = self.row, other.row
        p = a.size
        return float(p * a[0] * b[0] + 2.0 * ((p - np.arange(1, p)) * a[1:]) @ b[1:])

    def quad(self, x) -> float:
        """``x' C x``: over the pairs of the support of ``x`` when it has at
        most sqrt(p) entries, else as ``x' (C x)`` with ``C x`` from the
        circulant embedding of ``C`` in O(p log p)."""
        x = np.asarray(x, dtype=float)
        nz = np.flatnonzero(x)
        if nz.size**2 <= x.size:
            xs = x[nz]
            return float(xs @ self.row[np.abs(nz[:, None] - nz)] @ xs)
        p = self.p
        n = 1 << (2 * p - 2).bit_length()  # the least power of two >= 2p - 1
        c = np.zeros(n)  # first column of the n x n circulant holding C top-left
        c[:p] = self.row
        c[n - p + 1 :] = self.row[:0:-1]
        cx = np.fft.irfft(np.fft.rfft(c) * np.fft.rfft(x, n), n)[:p]
        return float(x @ cx)


def _tr_prod(A, B) -> float:
    """tr(A B) for symmetric A, B: ``sum_ij A_ij B_ij``."""
    if isinstance(A, ToeplitzCov) and isinstance(B, ToeplitzCov):
        return A.tr_prod(B)
    return float(np.vdot(np.asarray(A), np.asarray(B)))


def _root(w, v):
    """Symmetric square root from the eigendecomposition ``(w, v)``."""
    s = np.sqrt(np.maximum(w, 0.0))  # clamp round-off negatives
    return (v * s) @ v.T


# Three roots: one per dimension of a convergence study, so the models of a
# repeated study or of a sweep never refactor.  Each root holds 8 p^2 bytes.
@lru_cache(maxsize=3)
def _toeplitz_root(rho, scale, p) -> np.ndarray:
    """Read-only symmetric square root of ``ToeplitzCov(rho, scale, p)``,
    computed once per distinct ``(rho, scale, p)`` and shared by every model
    whose covariance has those values."""
    root = _root(*np.linalg.eigh(np.asarray(ToeplitzCov(rho, scale, p))))
    root.flags.writeable = False
    return root


def _sqrt(cov, eig):
    """Symmetric square root of ``cov``: the scalar ``sqrt(r0)`` when a
    :class:`ToeplitzCov` is ``r0 I`` (its eigendecomposition gives exactly
    ``sqrt(r0) I``), the cached root of any other :class:`ToeplitzCov`, else
    from the eigendecomposition ``eig`` of the dense ``cov``."""
    if not isinstance(cov, ToeplitzCov):
        return _root(*eig)
    if not cov.row[1:].any():
        return np.sqrt(cov.row[0])
    return _toeplitz_root(cov.rho, cov.scale, cov.p)


def _band(cov, p) -> int:
    """Half-bandwidth of the root of ``cov`` that :func:`sample` uses: p, or for a
    ``ToeplitzCov`` root, which decays like rho**|i - j|, the least b with rho**b <= eps/p."""
    if not isinstance(cov, ToeplitzCov) or cov.rho == 0:
        return p
    return min(p, int(np.ceil(np.log(np.finfo(float).eps / p) / np.log(cov.rho))))


def _root_product(root, z, band, out):
    """``out = root @ z`` within ``band`` of the diagonal of ``root``, by ``_ROWS``-row
    blocks; one product when the band reaches p, one multiply for a scalar root."""
    if np.ndim(root) == 0:
        return np.multiply(z, root, out=out)
    p = z.shape[0]
    rows = _ROWS if band < p else p
    for i in range(0, p, rows):
        lo, hi = max(0, i - band), i + rows + band
        np.matmul(root[i : i + rows, lo:hi], z[lo:hi], out=out[i : i + rows])
    return out


def _check_cov(C, p, name):
    """``(C, eig)`` as the model stores them: a :class:`ToeplitzCov` as
    given with no eigendecomposition, any other input as a dense finite
    symmetric array with its eigendecomposition, whose eigenvalues must be
    nonnegative up to round-off."""
    C = C if isinstance(C, ToeplitzCov) else np.asarray(C, dtype=float)
    if C.shape != (p, p):
        raise ValueError(f"{name} must be {p}x{p}, got {C.shape}")
    if isinstance(C, ToeplitzCov):
        return C, None
    if not np.isfinite(C).all():  # a NaN would pass the symmetry test below
        raise ValueError(f"{name} must be finite")
    scale = max(1.0, np.abs(C).max())
    if np.abs(C - C.T).max() > 1e-12 * scale:
        raise ValueError(f"{name} is not symmetric")
    w, _ = eig = np.linalg.eigh(C)
    if w.min() < -1e-10 * np.abs(w).max():
        raise ValueError(f"{name} has eigenvalue {w.min()} below tolerance")
    return C, eig


@dataclass(frozen=True, eq=False)
class MixtureModel:
    """Two-class Gaussian mixture statistics.

    ``c1`` is the class-1 proportion; ``c2`` is the property ``1 - c1``, so
    the proportions sum to one exactly.  A :class:`ToeplitzCov`
    covariance is kept as given (the covariance specs of
    :func:`model_from_spec` build one) and is positive definite by
    construction.  Any other covariance is stored as a dense array, even
    when it is Toeplitz, and must be symmetric nonnegative-definite up to
    round-off (smallest eigenvalue no lower than ``-1e-10`` times the
    spectral norm).
    """

    p: int
    mu1: np.ndarray
    mu2: np.ndarray
    cov1: np.ndarray | ToeplitzCov
    cov2: np.ndarray | ToeplitzCov
    c1: float

    def __post_init__(self):
        p = int(self.p)
        if p < 1:
            raise ValueError(f"p must be positive, got {p}")
        object.__setattr__(self, "p", p)
        for name in ("mu1", "mu2"):
            mu = np.asarray(getattr(self, name), dtype=float)
            if mu.shape != (p,):
                raise ValueError(f"{name} must have shape ({p},), got {mu.shape}")
            if not np.isfinite(mu).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, mu)
        if not 0.0 < self.c1 < 1.0:
            raise ValueError(f"c1 must lie in (0, 1), got {self.c1}")
        (cov1, eig1), (cov2, eig2) = (_check_cov(getattr(self, n), p, n) for n in ("cov1", "cov2"))
        for name, value in (("cov1", cov1), ("cov2", cov2), ("_eigs", (eig1, eig2))):
            object.__setattr__(self, name, value)  # _eigs: None for a ToeplitzCov

    @property
    def c2(self):
        return 1.0 - self.c1

    @cached_property
    def sqrt_covs(self):
        """Symmetric square roots of ``(cov1, cov2)``, by :func:`_sqrt`."""
        return tuple(map(_sqrt, (self.cov1, self.cov2), self._eigs))

    # Trace statistics reused throughout the asymptotic formulas, in closed
    # form when both covariances are Toeplitz.
    @cached_property
    def trace1(self):
        return float(self.cov1.trace())

    @cached_property
    def trace2(self):
        return float(self.cov2.trace())

    @cached_property
    def trace_gap(self):
        """tr(C2 - C1)"""
        return self.trace2 - self.trace1

    @cached_property
    def tr_c1c1(self):
        return _tr_prod(self.cov1, self.cov1)

    @cached_property
    def tr_c2c2(self):
        return _tr_prod(self.cov2, self.cov2)

    @cached_property
    def tr_c1c2(self):
        return _tr_prod(self.cov1, self.cov2)

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
    def mean_gap_quad(self):
        """((mu2 - mu1)' C_a (mu2 - mu1) for a = 1, 2)"""
        dmu = self.mean_gap
        return tuple(
            C.quad(dmu) if isinstance(C, ToeplitzCov) else float(dmu @ C @ dmu)
            for C in (self.cov1, self.cov2)
        )

    @cached_property
    def tau(self):
        """Concentration point (2/p) tr(c1 C1 + c2 C2) of the pairwise
        normalized squared distances."""
        return 2.0 / self.p * (self.c1 * self.trace1 + self.c2 * self.trace2)


@dataclass(frozen=True, eq=False)
class LatentDataset:
    """Sampled data matrix with the model that generated it.

    Labels are -1 for class 1 and +1 for class 2.  The latents ``omega`` and
    ``psi`` are not stored: each is derived from ``X`` on its first read, so
    a draw that never reads them spends no memory on them.
    """

    X: np.ndarray
    labels: np.ndarray
    model: MixtureModel

    @property
    def n(self):
        return self.X.shape[1]

    @property
    def n1(self):
        return int(np.count_nonzero(self.labels < 0))

    @property
    def n2(self):
        return int(np.count_nonzero(self.labels > 0))

    @cached_property
    def omega(self):
        """``(X - mu_class) / sqrt(p)``: the drawn latents, to rounding."""
        m = self.model
        means = np.where(self.labels < 0, m.mu1[:, None], m.mu2[:, None])
        return (self.X - means) / np.sqrt(m.p)

    @cached_property
    def psi(self):
        """``||omega[:, i]||^2 - tr(C_class(i)) / p``"""
        m = self.model
        traces = np.where(self.labels < 0, m.trace1, m.trace2)
        return np.einsum("ij,ij->j", self.omega, self.omega) - traces / m.p


def sample(model: MixtureModel, n1: int, n2: int, seed: int) -> LatentDataset:
    """Draw ``n1`` class-1 then ``n2`` class-2 points (contiguous blocks).

    Column ``i`` of class ``a`` is ``mu_a + sqrt(p) * omega_i`` with latent
    ``omega_i = C_a^{1/2} z_i / sqrt(p)`` and standard normal ``z_i``, each
    class block computed in place in the one ``p x (n1 + n2)`` array ``X``.
    The square root comes from the symmetric eigendecomposition with
    negative round-off eigenvalues clamped to zero, so rank-deficient
    covariances are legal.  A :class:`ToeplitzCov` ``r0 I`` skips it:
    ``sqrt(r0) z`` equals the product with that root bit for bit.  Any other
    :class:`ToeplitzCov` takes its root from a cache keyed on
    ``(rho, scale, p)`` and multiplies by it within :func:`_band` of its diagonal:
    each column is within ``p eps max(|R| |z|)`` of ``R z``, that product's
    own rounding bound.  Deterministic given ``seed``.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("need at least one sample per class")
    rng = np.random.default_rng(seed)
    p = model.p
    sqrt_p = np.sqrt(p)
    X = np.empty((p, n1 + n2))
    for block, mu, cov, sqrt_cov in zip(
        (slice(0, n1), slice(n1, n1 + n2)), (model.mu1, model.mu2), (model.cov1, model.cov2),
        model.sqrt_covs,
    ):
        z = rng.standard_normal((p, block.stop - block.start))
        xb = X[:, block]
        _root_product(sqrt_cov, z, _band(cov, p), xb)
        xb /= sqrt_p  # the latents omega: X is sqrt(p) * omega as rounded
        xb *= sqrt_p
        X[mu != 0, block] += mu[mu != 0, None]  # adding a zero mean changes no value
    labels = np.concatenate([np.full(n1, -1.0), np.full(n2, 1.0)])
    return LatentDataset(X=X, labels=labels, model=model)


def _spec_args(spec, name, form, kinds):
    """The arguments of a spec string like "toeplitz(0.4, 2)", each converted
    by its entry of ``kinds``; ``name`` and ``form`` make the message when
    they do not fit."""
    s = spec.strip()
    args = s[s.index("(") + 1 : -1].split(",")
    try:
        if len(args) == len(kinds):
            return [kind(arg) for kind, arg in zip(kinds, args)]  # int and float strip spaces
    except ValueError:  # e.g. int("1.5")
        pass
    raise ValueError(f"{name}: expected {form}, got {spec!r}")


def _parse_mean_spec(spec, p, name):
    if isinstance(spec, str):
        s = spec.strip()
        if s == "zeros":
            return np.zeros(p)
        if s.startswith("unit_spike(") and s.endswith(")"):
            k, val = _spec_args(spec, name, "unit_spike(k, v) with an integer k", (int, float))
            mu = np.zeros(p)
            if not 1 <= k <= p:
                raise ValueError(f"spike coordinate {k} outside 1..{p}")
            mu[k - 1] = val  # 1-based coordinate
            return mu
        raise ValueError(f"unknown mean spec: {spec!r}")
    return np.asarray(spec, dtype=float)


def _parse_cov_spec(spec, p, name):
    if isinstance(spec, str):
        s = spec.strip()
        if s == "identity":
            return ToeplitzCov(0.0, 1.0, p)
        if s.startswith("toeplitz(") and s.endswith(")"):
            rho, scale = _spec_args(spec, name, "toeplitz(rho, scale)", (float, float))
            return ToeplitzCov(rho, scale, p)
        if s.startswith("boosted_toeplitz(") and s.endswith(")"):
            # scale tied to the dimension: 1 + boost / sqrt(p)
            rho, boost = _spec_args(spec, name, "boosted_toeplitz(rho, boost)", (float, float))
            return ToeplitzCov(rho, 1.0 + boost / np.sqrt(p), p)
        raise ValueError(f"unknown covariance spec: {spec!r}")
    if isinstance(spec, dict) and "file" in spec:
        return np.load(spec["file"])
    return np.asarray(spec, dtype=float)


def model_from_spec(spec: dict, p: int | None = None) -> MixtureModel:
    """Build a model from its config-file form.

    Keys: ``p`` (overridable by the ``p`` argument), ``mean1``/``mean2``
    ("zeros", "unit_spike(k, v)" with 1-based k, or a dense list),
    ``cov1``/``cov2`` ("identity", "toeplitz(rho, scale)",
    "boosted_toeplitz(rho, boost)", each built as a :class:`ToeplitzCov` with
    no p x p array; a dense matrix, or ``{"file": path}``), and the class-1
    proportion ``c1``.  Any other key is refused.
    """
    unknown = [key for key in spec if key not in ("p", "mean1", "mean2", "cov1", "cov2", "c1")]
    if unknown:
        raise ValueError(f"unknown key model.{unknown[0]}")
    try:
        p = whole_int(spec["p"], "model.p") if p is None else int(p)
        mu1, mu2 = (_parse_mean_spec(spec[key], p, f"model.{key}") for key in ("mean1", "mean2"))
        cov1, cov2 = (_parse_cov_spec(spec[key], p, f"model.{key}") for key in ("cov1", "cov2"))
        c1 = real(spec["c1"], "model.c1")
    except KeyError as exc:
        raise ValueError(f"missing key model.{exc.args[0]}") from None
    except (TypeError, ArithmeticError) as exc:  # e.g. an object for a mean, or a huge int
        raise ValueError(f"model value of the wrong type or range: {exc}") from exc
    return MixtureModel(p, mu1, mu2, cov1, cov2, c1=c1)
