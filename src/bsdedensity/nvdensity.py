"""Nourdin-Viens g-function estimation and Gaussian density envelopes.

For a centered functional F with Malliavin derivative path Phi_F(W), the
function

    g(x) = int_0^inf e^{-u} E( E'( <Phi_F(W), Phi_F(W^u)>_{L^2} ) | F - EF = x ) du,
    W^u  = e^{-u} W + sqrt(1 - e^{-2u}) W',   W' an independent copy of W,

controls the density of F: if 0 < gamma_min^2 <= g <= gamma_max^2 then F has
a density squeezed between the two Gaussian-shaped envelopes

    lower(z) = E|F-EF| / (2 gamma_max^2) * exp(-(z-EF)^2 / (2 gamma_min^2))
    upper(z) = E|F-EF| / (2 gamma_min^2) * exp(-(z-EF)^2 / (2 gamma_max^2)).

The estimator below samples the product-space expectation directly: outer
Monte Carlo over W, inner Monte Carlo over W', Gauss-Laguerre quadrature in u
(the e^{-u} weight matches the quadrature weight exactly), and Gaussian-kernel
Nadaraya-Watson regression for the conditioning on F - EF = x.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "GEstimate",
    "GTarget",
    "Envelope",
    "BoundConstants",
    "RowStatistics",
    "mehler_shift",
    "estimate_g",
    "derivative_bound_constants",
    "gaussian_envelopes",
    "silverman_bandwidth",
]

_U_CAP = 40.0
# g-estimator grid points with fewer effective samples are unreliable; the
# standard errors come from this many batch means
_MIN_EFFECTIVE = 30
_N_BATCHES = 20
_N_WITNESSES = 20


def mehler_shift(increments: np.ndarray, increments_prime: np.ndarray, u: float) -> np.ndarray:
    """Interpolate towards an independent copy: e^{-u} W + sqrt(1 - e^{-2u}) W'.

    The marginal law of each increment is preserved for every u >= 0.  The
    decay coefficient is capped at u = 40, beyond which the shift is the
    independent copy to machine precision.
    """
    if u < 0:
        raise DomainError("the Mehler shift needs u >= 0")
    a = np.asarray(increments, dtype=float)
    b = np.asarray(increments_prime, dtype=float)
    if a.shape != b.shape:
        raise DomainError(
            f"increment shapes differ: {a.shape} vs {b.shape}"
        )
    uc = min(float(u), _U_CAP)
    decay = np.exp(-uc)
    spread = np.sqrt(-np.expm1(-2.0 * uc))
    return decay * a + spread * b


def silverman_bandwidth(samples: np.ndarray) -> float:
    """Silverman's rule: 0.9 min(std, IQR/1.34) n^{-1/5}."""
    x = np.asarray(samples, dtype=float)
    sd = float(x.std())
    q75, q25 = np.percentile(x, [75, 25])
    iqr = float(q75 - q25)
    scale = min(sd, iqr / 1.34) if iqr > 0 else sd
    if scale <= 0:
        raise DomainError("cannot pick a bandwidth for degenerate samples")
    return 0.9 * scale * len(x) ** (-0.2)


@dataclass
class GEstimate:
    """Estimated g over a grid of centered values of F."""

    x_grid: np.ndarray
    g_values: np.ndarray
    standard_errors: np.ndarray
    reliable: np.ndarray
    n_effective: np.ndarray
    n_outer: int
    n_inner: int
    bandwidth: float


def _nadaraya_watson(
    x: np.ndarray, p: np.ndarray, grid: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel regression of p on x at the grid points.

    Returns (values, kernel mass, effective sample sizes)."""
    z = (x[None, :] - grid[:, None]) / h
    k = np.exp(-0.5 * z * z)
    mass = k.sum(axis=1)
    ksq = (k * k).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        vals = (k @ p) / mass
        n_eff = np.where(ksq > 0, mass * mass / ksq, 0.0)
    return vals, mass, n_eff


@dataclass
class GTarget:
    """One functional F whose g-function is estimated.

    ``samples`` holds F on the n_outer unshifted paths and ``phi(state)`` its
    Malliavin derivative path on the paths of a sweep state (rows Phi_theta,
    one column per theta node, matching ``theta_weights``).  ``mean_f`` is EF;
    None takes the mean of ``samples``.
    """

    samples: np.ndarray
    phi: Callable
    x_grid: np.ndarray
    theta_weights: np.ndarray
    mean_f: float | None = None


def _check_targets(targets: list[GTarget], n_outer: int, n_rows: int) -> None:
    if n_outer < _N_BATCHES:
        raise DomainError("n_outer must be at least the number of batches")
    if n_rows < n_outer:
        raise DomainError("base_increments has fewer rows than n_outer")
    for target in targets:
        grid = np.asarray(target.x_grid, dtype=float)
        if grid.ndim != 1 or np.any(np.diff(grid) <= 0):
            raise DomainError("x_grid must be strictly increasing")
        if np.ndim(target.theta_weights) != 1 or len(target.theta_weights) == 0:
            raise DomainError("theta_weights must be a non-empty vector")
        if np.shape(target.samples) != (n_outer,):
            raise DomainError("a target needs one F sample per outer path")


def estimate_g(
    targets: list[GTarget],
    sweep: Callable,
    n_outer: int,
    n_inner: int,
    *,
    base_increments: np.ndarray,
    increment_scale: float,
    wprime_seed: int,
    n_u_nodes: int = 16,
) -> list[GEstimate]:
    """Monte Carlo estimates of the Nourdin-Viens g-function, one per target.

    ``sweep(increments)`` returns the state that every target's ``phi`` reads;
    it runs once on the unshifted paths and once per (copy, u-node) pair,
    whatever the number of targets.  The outer samples are the first
    ``n_outer`` rows of ``base_increments``; each of the ``n_inner``
    independent copies W' is seeded from (wprime_seed, copy index) and shared
    across the u-quadrature nodes, so refining the u-grid isolates pure
    quadrature error.  Every input is checked before the first sweep.

    Grid points whose kernel window holds fewer than 30 effective samples
    are flagged unreliable.
    """
    _check_targets(targets, n_outer, base_increments.shape[0])
    # keep the caller's array object when it already has n_outer rows: the
    # perfbench tracer tells the unshifted pass from the replays by identity
    W = (
        base_increments
        if base_increments.shape[0] == n_outer
        else base_increments[:n_outer]
    )
    state = sweep(W)
    phis = []
    for target in targets:
        phi = np.asarray(target.phi(state), dtype=float)
        if phi.shape != (n_outer, len(target.theta_weights)):
            raise DomainError("a target's phi does not match its theta_weights")
        phis.append(phi)
    del state

    u_nodes, u_weights = np.polynomial.laguerre.laggauss(n_u_nodes)
    P = [np.zeros(n_outer) for _ in targets]
    for k in range(n_inner):
        rng = np.random.default_rng(np.random.SeedSequence([wprime_seed, k]))
        Wp = rng.standard_normal(W.shape) * increment_scale
        for u, wq in zip(u_nodes, u_weights):
            state = sweep(mehler_shift(W, Wp, u))
            for target, phi, p in zip(targets, phis, P):
                phi_u = np.asarray(target.phi(state), dtype=float)
                p += (wq / n_inner) * ((phi * phi_u) @ target.theta_weights)
            del state  # one sweep state alive at a time

    return [_g_estimate(target, p, n_inner) for target, p in zip(targets, P)]


def _g_estimate(target: GTarget, P: np.ndarray, n_inner: int) -> GEstimate:
    """Kernel regression of the accumulated inner products P on F - EF, with
    batch-means standard errors."""
    F = np.asarray(target.samples, dtype=float)
    n_outer = len(F)
    ef = float(F.mean()) if target.mean_f is None else float(target.mean_f)
    x = F - ef
    h = silverman_bandwidth(x)
    grid = np.asarray(target.x_grid, dtype=float)

    g_vals, _, n_eff = _nadaraya_watson(x, P, grid, h)

    # batch-means standard errors
    edges = np.linspace(0, n_outer, _N_BATCHES + 1).astype(int)
    batch_vals = np.empty((_N_BATCHES, len(grid)))
    for bidx in range(_N_BATCHES):
        sl = slice(edges[bidx], edges[bidx + 1])
        batch_vals[bidx], _, _ = _nadaraya_watson(x[sl], P[sl], grid, h)
    with np.errstate(invalid="ignore"):
        se = np.nanstd(batch_vals, axis=0, ddof=1) / np.sqrt(_N_BATCHES)

    return GEstimate(
        x_grid=grid,
        g_values=g_vals,
        standard_errors=se,
        reliable=n_eff >= _MIN_EFFECTIVE,
        n_effective=n_eff,
        n_outer=n_outer,
        n_inner=n_inner,
        bandwidth=h,
    )


@dataclass(frozen=True)
class BoundConstants:
    """Envelope variance constants derived from sampled derivative bounds."""

    gamma_min_sq: float
    gamma_max_sq: float
    c_hat: float
    C_hat: float
    quantile: float
    n_nonpositive: int


@dataclass(frozen=True)
class PositivityCounts:
    """What the positivity report needs of a D_theta Z sample: its size, its
    non-positive count and minimum and the first non-positive positions.

    ``a + b`` describes the samples of ``a`` followed by those of ``b``, so a
    pool of rows, or a row read in blocks of paths, is reported on without
    keeping the rows.  A non-finite sample raises DomainError.
    """

    n_samples: int
    n_nonpositive: int
    min_value: float
    witness_indices: tuple[int, ...]

    @classmethod
    def of(cls, samples: np.ndarray) -> PositivityCounts:
        flat = np.asarray(samples, dtype=float).ravel()
        if not np.isfinite(flat).all():
            raise DomainError("non-finite derivative sample")
        nonpos = flat <= 0.0
        n_nonpositive = int(nonpos.sum())
        # argmax stops at the next non-positive sample, so the witnesses cost
        # at most one pass and no index array of the whole block
        witnesses, lo = [], 0
        for _ in range(min(n_nonpositive, _N_WITNESSES)):
            lo += int(np.argmax(nonpos[lo:]))
            witnesses.append(lo)
            lo += 1
        return cls(int(flat.size), n_nonpositive, float(flat.min(initial=np.inf)),
                   tuple(witnesses))

    def __add__(self, other: PositivityCounts) -> PositivityCounts:
        shifted = tuple(self.n_samples + i for i in other.witness_indices)
        return PositivityCounts(
            self.n_samples + other.n_samples,
            self.n_nonpositive + other.n_nonpositive,
            float(np.minimum(self.min_value, other.min_value)),
            (self.witness_indices + shifted)[:_N_WITNESSES],
        )


def _extremes(values: np.ndarray, k_lo: int, k_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The k_lo smallest and the k_hi largest of ``values``, unordered."""
    n = values.size
    kth = [k for k in (k_lo - 1, n - k_hi) if 0 <= k < n]
    part = np.partition(values, kth) if kth else values
    return part[:k_lo], part[max(n - k_hi, 0):]


class RowStatistics:
    """What the density stage takes from an n_paths x n_theta D_theta row,
    added as blocks of paths in order: each path's sum of D^2 over theta, the
    :class:`PositivityCounts`, the smallest positive value and the robust
    quantiles.  ``np.quantile`` "lower" at q ("higher" at 1 - q) is the
    element of sorted rank floor((N - 1) q) (ceil((N - 1)(1 - q))); the k_lo
    smallest (k_hi largest) values seen so far hold it, so the quantiles are
    exact selections, up to the sign of zeros of both signs tied at the rank.
    """

    def __init__(self, n_paths: int, n_theta: int, robust_quantile: float = 0.001):
        size = n_paths * n_theta
        if size == 0:
            raise DomainError("empty derivative sample set")
        if not 0 <= robust_quantile < 0.5:
            raise DomainError("robust_quantile must lie in [0, 0.5)")
        self.quantile = robust_quantile
        self._k_lo = int(np.floor((size - 1) * robust_quantile)) + 1
        self._k_hi = size - int(np.ceil((size - 1) * (1.0 - robust_quantile)))
        self._lo = self._hi = np.empty(0)
        self.norms_sq, self.n_rows, self.smallest_positive = np.empty(n_paths), 0, np.inf
        self.positivity = PositivityCounts(0, 0, np.inf, ())

    def add(self, block: np.ndarray) -> None:
        """Take the next (rows, n_theta) block; a non-finite value raises DomainError."""
        self.positivity += PositivityCounts.of(block)
        self.norms_sq[self.n_rows:self.n_rows + len(block)] = (block * block).sum(axis=1)
        self.n_rows += len(block)
        flat = block.ravel()
        positive_min = float(flat.min(where=flat > 0.0, initial=np.inf))
        self.smallest_positive = min(self.smallest_positive, positive_min)
        lo, hi = _extremes(flat, self._k_lo, self._k_hi)
        self._lo = _extremes(np.concatenate([self._lo, lo]), self._k_lo, 0)[0]
        self._hi = _extremes(np.concatenate([self._hi, hi]), 0, self._k_hi)[1]

    def order_statistics(self) -> tuple[float, float]:
        """The robust lower and upper quantiles of the whole row."""
        if self.n_rows != len(self.norms_sq):
            raise DomainError(f"the statistics hold {self.n_rows} of {len(self.norms_sq)} paths")
        return float(self._lo.max()), float(self._hi.min())


def derivative_bound_constants(
    samples: np.ndarray | RowStatistics, t: float, robust_quantile: float = 0.001
) -> BoundConstants:
    """Envelope constants gamma_min^2 = c^2 t, gamma_max^2 = C^2 t.

    c and C are robust lower/upper quantiles of the sampled derivative values
    over theta <= t and paths (quantiles rather than raw extrema, to suppress
    regression-noise outliers) of an array or a :class:`RowStatistics`.
    Non-positive samples are counted and c is clamped to the smallest positive
    sample so the constants stay usable; a non-finite sample raises DomainError.
    """
    if not isinstance(samples, RowStatistics):
        flat = np.asarray(samples, dtype=float).ravel()
        samples = RowStatistics(1, flat.size, robust_quantile)
        samples.add(flat[None, :])
    elif samples.quantile != robust_quantile:
        raise DomainError(f"the statistics were gathered at quantile {samples.quantile}")
    if t <= 0:
        raise DomainError("t must be positive")
    c_hat, c_max = samples.order_statistics()
    if c_hat <= 0.0:
        if samples.smallest_positive == np.inf:
            raise DomainError(
                "no positive derivative samples: the positivity needed for the "
                "lower envelope fails everywhere"
            )
        c_hat = samples.smallest_positive
    return BoundConstants(
        gamma_min_sq=c_hat * c_hat * t,
        gamma_max_sq=c_max * c_max * t,
        c_hat=c_hat,
        C_hat=c_max,
        quantile=robust_quantile,
        n_nonpositive=samples.positivity.n_nonpositive,
    )


@dataclass
class Envelope:
    """Gaussian lower/upper density envelopes with their constants.

    ``lower``/``upper`` follow the convention in which the upper bound's
    prefactor carries gamma_min^2; :meth:`prefactors` also gives those of
    the transposed convention (prefactor constants swapped) so reports can
    print both variants side by side.
    """

    gamma_min_sq: float
    gamma_max_sq: float
    mean: float
    abs_moment: float
    z_grid: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def prefactors(self) -> dict[str, float]:
        m = self.abs_moment
        return {
            "lower": m / (2.0 * self.gamma_max_sq),
            "upper": m / (2.0 * self.gamma_min_sq),
            "alt_lower": m / (2.0 * self.gamma_min_sq),
            "alt_upper": m / (2.0 * self.gamma_max_sq),
        }


def gaussian_envelopes(
    mean: float,
    abs_moment: float,
    gamma_min_sq: float,
    gamma_max_sq: float,
    z_grid: np.ndarray,
) -> Envelope:
    """Build the density envelopes from the estimated constants.

    lower(z) <= upper(z) everywhere is an exact algebraic consequence of
    gamma_min^2 <= gamma_max^2 and is checked at construction.
    """
    if not np.all(np.isfinite([mean, abs_moment, gamma_min_sq, gamma_max_sq])):
        raise DomainError("envelope mean, E|F - EF| and constants must be finite")
    if gamma_min_sq <= 0 or gamma_max_sq <= 0:
        raise DomainError("envelope constants must be positive")
    if abs_moment <= 0:
        raise DomainError("E|F - EF| must be positive")
    if gamma_min_sq > gamma_max_sq:
        raise DomainError("gamma_min_sq must not exceed gamma_max_sq")
    z = np.asarray(z_grid, dtype=float)
    d2 = (z - mean) ** 2
    lower = abs_moment / (2.0 * gamma_max_sq) * np.exp(-d2 / (2.0 * gamma_min_sq))
    upper = abs_moment / (2.0 * gamma_min_sq) * np.exp(-d2 / (2.0 * gamma_max_sq))
    env = Envelope(
        gamma_min_sq=gamma_min_sq,
        gamma_max_sq=gamma_max_sq,
        mean=mean,
        abs_moment=abs_moment,
        z_grid=z,
        lower=lower,
        upper=upper,
    )
    if not np.all(env.lower <= env.upper * (1 + 1e-15)):
        raise DomainError("lower envelope exceeds the upper envelope")
    return env
