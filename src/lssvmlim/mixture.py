"""Two-class Gaussian mixtures: model statistics, covariance constructors
and sampling.

A sample from class ``a`` is ``x = mu_a + sqrt(p) * w`` with
``w ~ N(0, C_a / p)``.  A draw is the labeled set ``(X, labels)``, the
shape of an image pool too.  The latents ``w`` are not kept: the one reader
of them, the score equivalent in :mod:`lssvmlim.theory`, derives them from
``X`` and the model.
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
    :meth:`draw` needs a square root of a covariance that is not a multiple
    of the identity; ``np.asarray`` materializes the dense matrix.  It is
    not an array: read entries through ``row`` or ``np.asarray``.
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

    p = property(lambda self: self.row.size)
    shape = property(lambda self: (self.p, self.p))

    def __array__(self, dtype=None, copy=None):
        k = np.arange(self.p)
        lag = np.subtract.outer(k, k)
        dense = self.row[np.abs(lag, out=lag)]  # exact entry copies
        return dense if dtype is None else dense.astype(dtype, copy=False)

    def trace(self) -> float:
        """``tr C = p r0``"""
        return self.p * float(self.row[0])  # a Python float: inf on overflow, no warning

    def tr_prod(self, other) -> float:
        """``tr(A B)`` for A = self and a symmetric covariance B = other:
        ``p a0 b0 + 2 sum_k (p - k) a_k b_k`` when B is a ToeplitzCov, else
        the dense B's ``tr_prod``."""
        if not isinstance(other, ToeplitzCov):
            return other.tr_prod(self)
        a, b, p = self.row, other.row, self.p
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

    @property
    def band(self) -> int:
        """Half-bandwidth of the root that :meth:`draw` multiplies within: p for
        ``r0 I``, else the least b with rho**b <= eps/p, as the root decays like rho**|i - j|."""
        b = np.log(np.finfo(float).eps / self.p) / np.log(self.rho) if self.rho else self.p
        return min(self.p, int(np.ceil(b)))

    def draw(self, z, out):
        """``out = C^{1/2} z``: ``sqrt(r0) z`` for ``r0 I``, bit for bit the product with its
        eigendecomposition root; else, by ``_ROWS``-row blocks, the product with the read-only
        root that equal covariances share through ``_toeplitz_root``, within :attr:`band` of its
        diagonal: each column is within ``p eps max(|R| |z|)`` of ``R z``, that product's bound."""
        if not self.row[1:].any():
            return np.multiply(z, np.sqrt(self.row[0]), out=out)
        root, p, band = _toeplitz_root(self.rho, self.scale, self.p), self.p, self.band
        rows = _ROWS if band < p else p
        for i in range(0, p, rows):
            lo, hi = max(0, i - band), i + rows + band
            np.matmul(root[i : i + rows, lo:hi], z[lo:hi], out=out[i : i + rows])
        return out


class DenseCov:
    """A covariance held as the dense read-only p x p array ``a``: a config's dense list or
    ``{"file": path}``, or an array given to :class:`MixtureModel` or :func:`mixture_stats`.
    Its root is made by ``eigh`` at the first :meth:`draw` and kept, so every model that
    holds this object shares it; a rank-deficient covariance is legal."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float).view()  # read-only here, not in the caller's array
        self.a.flags.writeable = False

    shape = property(lambda self: self.a.shape)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.a, dtype=dtype, copy=copy)

    def check(self, name):
        """Refuse, naming the model field ``name``, an array that is not
        finite or not symmetric, or whose smallest eigenvalue (from
        ``eigvalsh``) is below ``-1e-10`` times the spectral norm."""
        C = self.a
        if not np.isfinite(C).all():  # a NaN would pass the symmetry test below
            raise ValueError(f"{name} must be finite")
        if np.abs(C - C.T).max() > 1e-12 * max(1.0, np.abs(C).max()):
            raise ValueError(f"{name} is not symmetric")
        w = np.linalg.eigvalsh(C)
        if w.min() < -1e-10 * np.abs(w).max():
            raise ValueError(f"{name} has eigenvalue {w.min()} below tolerance")

    def trace(self) -> float:
        return float(self.a.trace())

    def tr_prod(self, other) -> float:
        """``tr(A B) = sum_ij A_ij B_ij`` for A = self and a symmetric B = other."""
        return float(np.vdot(self.a, np.asarray(other)))

    def quad(self, x) -> float:
        return float(x @ self.a @ x)

    @cached_property
    def root(self):
        """Symmetric square root; round-off negative eigenvalues are clamped to zero."""
        return _root(*np.linalg.eigh(self.a))

    def draw(self, z, out):
        """``out = root @ z``"""
        return np.matmul(self.root, z, out=out)


def _as_cov(C):  # a covariance object as it is, an array as an unchecked DenseCov
    return C if isinstance(C, (ToeplitzCov, DenseCov)) else DenseCov(C)


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
    (either covariance class, or an array, read unchecked) and class-1
    proportion ``c1``.  A statistic that overflows is inf or NaN: the
    predictors refuse it."""
    cov1, cov2 = _as_cov(cov1), _as_cov(cov2)
    with np.errstate(over="ignore", invalid="ignore"):
        dmu = mu2 - mu1
        return MixtureStats(
            p=dmu.size, c1=c1, trace1=cov1.trace(), trace2=cov2.trace(),
            tr_c1c1=cov1.tr_prod(cov1), tr_c1c2=cov1.tr_prod(cov2), tr_c2c2=cov2.tr_prod(cov2),
            mean_gap_sq=float(dmu @ dmu), mean_gap_quad=(cov1.quad(dmu), cov2.quad(dmu)))


@dataclass(frozen=True, eq=False)
class MixtureModel:
    """Two-class Gaussian mixture with class-1 proportion ``c1`` and statistics ``stats``.

    A :class:`ToeplitzCov` or :class:`DenseCov` covariance is kept as given,
    with only its shape checked, so copies made by ``dataclasses.replace``
    share its check and its root.  Any other covariance, even a Toeplitz
    one, is wrapped in a DenseCov once and checked by :meth:`DenseCov.check`.
    """

    p: int
    mu1: np.ndarray
    mu2: np.ndarray
    cov1: ToeplitzCov | DenseCov
    cov2: ToeplitzCov | DenseCov
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
            C = _as_cov(getattr(self, name))
            if C.shape != (p, p):
                raise ValueError(f"{name} must be {p}x{p}, got {C.shape}")
            if C is not getattr(self, name):  # wrapped here, so checked here: once
                C.check(name)
            object.__setattr__(self, name, C)

    @cached_property
    def stats(self) -> MixtureStats:
        """The model's :class:`MixtureStats`, by :func:`mixture_stats`."""
        return mixture_stats(self.mu1, self.mu2, self.cov1, self.cov2, self.c1)


def sample(model: MixtureModel, n1: int, n2: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n1`` class-1 then ``n2`` class-2 points (contiguous blocks) as
    the labeled set ``(X, labels)``, labels -1 for class 1 and +1 for class 2.

    Column ``i`` of class ``a`` is ``mu_a + sqrt(p) * omega_i`` with latent
    ``omega_i = C_a^{1/2} z_i / sqrt(p)`` and standard normal ``z_i``, each
    class block computed in place in the one ``p x (n1 + n2)`` array ``X``
    by the covariance's ``draw``.  Deterministic given ``seed``.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("need at least one sample per class")
    rng = np.random.default_rng(seed)
    p = model.p
    sqrt_p = np.sqrt(p)
    X = np.empty((p, n1 + n2))
    covs = (model.cov1, model.cov2)
    for cov in covs:  # an empty draw makes any root first, so no eigh runs beside a block's z
        cov.draw(X[:, :0], X[:, :0])
    for block, mu, cov in zip((slice(0, n1), slice(n1, n1 + n2)), (model.mu1, model.mu2), covs):
        xb = cov.draw(rng.standard_normal((p, block.stop - block.start)), X[:, block])
        xb /= sqrt_p  # the latents omega: X is sqrt(p) * omega as rounded
        xb *= sqrt_p
        X[mu != 0, block] += mu[mu != 0, None]  # adding a zero mean changes no value
    labels = np.concatenate([np.full(n1, -1.0), np.full(n2, 1.0)])
    return X, labels


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
    return _reals(spec, name)


def _reals(spec, name):
    """``spec`` as a float array.  Each element of a list, nested to any depth,
    is read by :func:`real` naming ``name``, so a boolean or a numeric string
    there is refused; NumPy refuses a ragged list.  A list of plain ints and
    floats, such as each row of a JSON matrix, is converted whole."""
    if isinstance(spec, list) and not {int, float}.issuperset(map(type, spec)):  # bool is no int
        spec = [_reals(v, name) if isinstance(v, list) else real(v, name) for v in spec]
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
    return _reals(spec, name)


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
