"""Two-class Gaussian mixtures: model statistics, covariance constructors
and sampling.

A sample from class ``a`` is ``x = mu_a + sqrt(p) * w`` with
``w ~ N(0, C_a / p)``.  A draw stores ``X`` only; the latent vectors ``w``
and the centered squared norms ``psi = ||w||^2 - tr(C_a)/p`` are derived
from it on first read, for the studies that validate score predictions
built from them.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DataError

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


@contextmanager
def naming(key: str):
    """Re-raise a ValueError, TypeError or ArithmeticError raised inside as a
    ValueError whose message starts with the config key ``key``, as in
    ``model.cov1: rho must lie in [0, 1), got 1.5``; a message that already
    starts with ``key`` is kept as it is."""
    try:
        yield
    except (ValueError, TypeError, ArithmeticError) as exc:
        message = str(exc)
        raise ValueError(message if message.startswith(key) else f"{key}: {message}") from exc


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


def _sqrt(cov):
    """Symmetric square root of ``cov``: the scalar ``sqrt(r0)`` when a
    :class:`ToeplitzCov` is ``r0 I`` (its eigendecomposition gives exactly
    ``sqrt(r0) I``), the cached root of any other :class:`ToeplitzCov`, else
    from the eigendecomposition of the dense ``cov``."""
    if not isinstance(cov, ToeplitzCov):
        return _root(*np.linalg.eigh(cov))
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
    """``C`` as the model stores it: a :class:`ToeplitzCov` as given, any
    other input as a dense finite symmetric array whose eigenvalues must be
    nonnegative up to round-off."""
    C = C if isinstance(C, ToeplitzCov) else np.asarray(C, dtype=float)
    if C.shape != (p, p):
        raise ValueError(f"{name} must be {p}x{p}, got {C.shape}")
    if isinstance(C, ToeplitzCov):
        return C
    if not np.isfinite(C).all():  # a NaN would pass the symmetry test below
        raise ValueError(f"{name} must be finite")
    scale = max(1.0, np.abs(C).max())
    if np.abs(C - C.T).max() > 1e-12 * scale:
        raise ValueError(f"{name} is not symmetric")
    w = np.linalg.eigvalsh(C)
    if w.min() < -1e-10 * np.abs(w).max():
        raise ValueError(f"{name} has eigenvalue {w.min()} below tolerance")
    return C


@dataclass(frozen=True)
class MixtureStats:
    """The statistics of a two-class mixture that the asymptotic predictors
    read, from :func:`mixture_stats`; ``a`` and ``b`` index the classes."""

    p: int
    c1: float  # class-1 proportion
    trace1: float  # tr C_a
    trace2: float
    tr_c1c1: float  # tr(C_a C_b)
    tr_c1c2: float
    tr_c2c2: float
    mean_gap_sq: float  # ||mu2 - mu1||^2
    mean_gap_quad: tuple  # (mu2 - mu1)' C_a (mu2 - mu1) for a = 1, 2

    @cached_property
    def c2(self):  # 1 - c1, so the proportions sum to one exactly
        return 1.0 - self.c1

    @cached_property
    def trace_gap(self):  # tr(C2 - C1)
        return self.trace2 - self.trace1

    @cached_property
    def sq_trace_gap(self):  # tr((C2 - C1)^2)
        return self.tr_c1c1 + self.tr_c2c2 - 2.0 * self.tr_c1c2

    @cached_property
    def tau(self):  # (2/p) tr(c1 C1 + c2 C2), where the ||x_i - x_j||^2 / p concentrate
        return 2.0 / self.p * (self.c1 * self.trace1 + self.c2 * self.trace2)


def mixture_stats(mu1, mu2, cov1, cov2, c1) -> MixtureStats:
    """The :class:`MixtureStats` of class means ``mu_a``, covariances ``C_a``
    (:class:`ToeplitzCov` in closed form, or dense) and class-1 proportion
    ``c1``.  A statistic that overflows is inf or NaN: the predictors refuse it."""
    with np.errstate(over="ignore", invalid="ignore"):
        dmu = mu2 - mu1
        return MixtureStats(
            p=dmu.size, c1=c1, trace1=float(cov1.trace()), trace2=float(cov2.trace()),
            tr_c1c1=_tr_prod(cov1, cov1), tr_c1c2=_tr_prod(cov1, cov2),
            tr_c2c2=_tr_prod(cov2, cov2), mean_gap_sq=float(dmu @ dmu),
            mean_gap_quad=tuple(C.quad(dmu) if isinstance(C, ToeplitzCov) else float(dmu @ C @ dmu)
                                for C in (cov1, cov2)),
        )


@dataclass(frozen=True, eq=False)
class MixtureModel:
    """Two-class Gaussian mixture with class-1 proportion ``c1`` and statistics ``stats``.

    A :class:`ToeplitzCov` covariance is kept as given (the covariance specs
    of :func:`model_from_spec` build one) and is positive definite by
    construction.  Any other covariance is stored as a dense array, even
    when it is Toeplitz, and must be symmetric nonnegative-definite up to
    round-off (smallest eigenvalue, from ``eigvalsh``, no lower than
    ``-1e-10`` times the spectral norm); its root is made by ``eigh`` on the
    first :func:`sample`.
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
        for name in ("cov1", "cov2"):
            object.__setattr__(self, name, _check_cov(getattr(self, name), p, name))

    @cached_property
    def stats(self) -> MixtureStats:
        """The model's :class:`MixtureStats`, by :func:`mixture_stats`."""
        return mixture_stats(self.mu1, self.mu2, self.cov1, self.cov2, self.c1)

    @cached_property
    def sqrt_covs(self):
        """Symmetric square roots of ``(cov1, cov2)``, by :func:`_sqrt` at the first draw."""
        return tuple(map(_sqrt, (self.cov1, self.cov2)))


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
        m = self.model.stats
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
                raise ValueError(f"{name}: spike coordinate {k} outside 1..{p}")
            mu[k - 1] = val  # 1-based coordinate
            return mu
        raise ValueError(f"unknown mean spec: {spec!r}")
    return np.asarray(spec, dtype=float)


def load_npy(path, name):
    """The one real array in the ``.npy`` file at ``path``; an ``.npz``
    archive, or an array of complex values, strings, dates or records, is
    refused as a ``DataError`` naming ``name``."""
    loaded = np.load(path)
    if not isinstance(loaded, np.ndarray):  # an .npz archive
        loaded.close()
        raise DataError(f"{name}: {path} is an archive, not one array")
    if loaded.dtype.kind not in "biuf":  # booleans, integers and floats
        raise DataError(f"{name}: {path} holds {loaded.dtype} values, not real numbers")
    return loaded


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
        return load_npy(spec["file"], name)
    return np.asarray(spec, dtype=float)


_MODEL_KEYS = {"mu1": "model.mean1", "mu2": "model.mean2", "cov1": "model.cov1",
               "cov2": "model.cov2", "c1": "model.c1"}  # config key of each MixtureModel field


def model_from_spec(spec: dict, p: int | None = None) -> MixtureModel:
    """Build a model from its config-file form.

    Keys: ``p`` (checked even where the ``p`` argument overrides it),
    ``mean1``/``mean2`` ("zeros", "unit_spike(k, v)" with 1-based k, or a
    dense list), ``cov1``/``cov2`` ("identity", "toeplitz(rho, scale)",
    "boosted_toeplitz(rho, boost)", each built as a :class:`ToeplitzCov` with
    no p x p array; a dense matrix, or ``{"file": path}``), and the class-1
    proportion ``c1``.  Any other key is refused.
    """
    unknown = [key for key in spec if key not in ("p", "mean1", "mean2", "cov1", "cov2", "c1")]
    if unknown:
        raise ValueError(f"unknown key model.{unknown[0]}")

    def read(key, parse, *args):
        with naming(f"model.{key}"):
            return parse(spec[key], *args, f"model.{key}")

    try:
        given = whole_int(spec["p"], "model.p") if p is None or "p" in spec else None
        p = given if p is None else int(p)
        mu1, mu2 = (read(key, _parse_mean_spec, p) for key in ("mean1", "mean2"))
        cov1, cov2 = (read(key, _parse_cov_spec, p) for key in ("cov1", "cov2"))
        c1 = read("c1", real)
    except KeyError as exc:
        raise ValueError(f"missing key model.{exc.args[0]}") from None
    try:
        return MixtureModel(p, mu1, mu2, cov1, cov2, c1=c1)
    except ValueError as exc:  # MixtureModel names the field it refuses first: mu1, c1, cov2, ...
        key = _MODEL_KEYS.get(str(exc).split(" ", 1)[0])
        if key is None:  # not a refusal of one field, e.g. NumPy's LinAlgError
            raise
        raise ValueError(f"{key}: {exc}") from exc
