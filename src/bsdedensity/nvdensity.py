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

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "GEstimate",
    "Envelope",
    "BoundConstants",
    "mehler_shift",
    "estimate_g",
    "derivative_bound_constants",
    "gaussian_envelopes",
    "silverman_bandwidth",
]

_U_CAP = 40.0


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
    u_nodes: np.ndarray
    u_weights: np.ndarray
    n_outer: int
    n_inner: int
    bandwidth: float
    mean_f: float


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


def estimate_g(
    f_sampler,
    phi_sampler,
    x_grid: np.ndarray,
    n_outer: int,
    n_inner: int,
    *,
    base_increments: np.ndarray,
    increment_scale: float,
    theta_weights: np.ndarray,
    wprime_seed: int,
    n_u_nodes: int = 16,
    mean_f: float | None = None,
    min_effective: int = 30,
    n_batches: int = 20,
) -> GEstimate:
    """Monte Carlo estimate of the Nourdin-Viens g-function on a grid.

    ``f_sampler(increments)`` returns the functional F per path and
    ``phi_sampler(increments)`` its Malliavin derivative path (rows Phi_theta,
    one column per theta node, matching ``theta_weights``).  The outer samples
    are the first ``n_outer`` rows of ``base_increments``; each of the
    ``n_inner`` independent copies W' is seeded from (wprime_seed, copy index)
    and shared across the u-quadrature nodes, so refining the u-grid isolates
    pure quadrature error.

    Grid points whose kernel window holds fewer than ``min_effective``
    effective samples are flagged unreliable.
    """
    if n_outer < n_batches:
        raise DomainError("n_outer must be at least the number of batches")
    if base_increments.shape[0] < n_outer:
        raise DomainError("base_increments has fewer rows than n_outer")
    # keep the caller's array object when it already has n_outer rows: the
    # perfbench tracer tells the unshifted pass from the replays by identity
    W = (
        base_increments
        if base_increments.shape[0] == n_outer
        else base_increments[:n_outer]
    )
    F = np.asarray(f_sampler(W), dtype=float)
    phi = np.asarray(phi_sampler(W), dtype=float)
    if phi.shape[0] != n_outer or phi.shape[1] != len(theta_weights):
        raise DomainError("phi_sampler output does not match theta_weights")

    u_nodes, u_weights = np.polynomial.laguerre.laggauss(n_u_nodes)
    P = np.zeros(n_outer)
    for k in range(n_inner):
        rng = np.random.default_rng(np.random.SeedSequence([wprime_seed, k]))
        Wp = rng.standard_normal(W.shape) * increment_scale
        for u, wq in zip(u_nodes, u_weights):
            phi_u = np.asarray(phi_sampler(mehler_shift(W, Wp, u)), dtype=float)
            P += (wq / n_inner) * ((phi * phi_u) @ theta_weights)

    ef = float(F.mean()) if mean_f is None else float(mean_f)
    x = F - ef
    h = silverman_bandwidth(x)
    grid = np.asarray(x_grid, dtype=float)
    if grid.ndim != 1 or np.any(np.diff(grid) <= 0):
        raise DomainError("x_grid must be strictly increasing")

    g_vals, _, n_eff = _nadaraya_watson(x, P, grid, h)

    # batch-means standard errors
    edges = np.linspace(0, n_outer, n_batches + 1).astype(int)
    batch_vals = np.empty((n_batches, len(grid)))
    for bidx in range(n_batches):
        sl = slice(edges[bidx], edges[bidx + 1])
        batch_vals[bidx], _, _ = _nadaraya_watson(x[sl], P[sl], grid, h)
    with np.errstate(invalid="ignore"):
        se = np.nanstd(batch_vals, axis=0, ddof=1) / np.sqrt(n_batches)

    return GEstimate(
        x_grid=grid,
        g_values=g_vals,
        standard_errors=se,
        reliable=n_eff >= min_effective,
        n_effective=n_eff,
        u_nodes=u_nodes,
        u_weights=u_weights,
        n_outer=n_outer,
        n_inner=n_inner,
        bandwidth=h,
        mean_f=ef,
    )


@dataclass(frozen=True)
class BoundConstants:
    """Envelope variance constants derived from sampled derivative bounds."""

    gamma_min_sq: float
    gamma_max_sq: float
    c_hat: float
    C_hat: float
    t: float
    quantile: float
    n_nonpositive: int


def derivative_bound_constants(
    samples: np.ndarray, t: float, robust_quantile: float = 0.001
) -> BoundConstants:
    """Envelope constants gamma_min^2 = c^2 t, gamma_max^2 = C^2 t.

    c and C are robust lower/upper quantiles of the sampled derivative values
    over theta <= t and paths (quantiles rather than raw extrema, to suppress
    regression-noise outliers).  Non-positive samples are counted and c is
    clamped to the smallest positive sample so the constants stay usable.
    """
    flat = np.asarray(samples, dtype=float).ravel()
    if flat.size == 0:
        raise DomainError("empty derivative sample set")
    if t <= 0:
        raise DomainError("t must be positive")
    if not 0 <= robust_quantile < 0.5:
        raise DomainError("robust_quantile must lie in [0, 0.5)")
    c_hat = float(np.quantile(flat, robust_quantile, method="lower"))
    c_max = float(np.quantile(flat, 1.0 - robust_quantile, method="higher"))
    n_nonpos = int(np.count_nonzero(flat <= 0.0))
    if c_hat <= 0.0:
        positive = flat[flat > 0.0]
        if positive.size == 0:
            raise DomainError(
                "no positive derivative samples: the positivity needed for the "
                "lower envelope fails everywhere"
            )
        c_hat = float(positive.min())
    return BoundConstants(
        gamma_min_sq=c_hat * c_hat * t,
        gamma_max_sq=c_max * c_max * t,
        c_hat=c_hat,
        C_hat=c_max,
        t=t,
        quantile=robust_quantile,
        n_nonpositive=n_nonpos,
    )


@dataclass
class Envelope:
    """Gaussian lower/upper density envelopes with their constants.

    ``lower``/``upper`` follow the convention in which the upper bound's
    prefactor carries gamma_min^2; ``alt_lower``/``alt_upper`` carry the
    transposed convention (prefactor constants swapped) so reports can print
    both variants side by side.
    """

    gamma_min_sq: float
    gamma_max_sq: float
    mean: float
    abs_moment: float
    z_grid: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    alt_lower: np.ndarray
    alt_upper: np.ndarray

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
    alt_lower = abs_moment / (2.0 * gamma_min_sq) * np.exp(-d2 / (2.0 * gamma_max_sq))
    alt_upper = abs_moment / (2.0 * gamma_max_sq) * np.exp(-d2 / (2.0 * gamma_min_sq))
    env = Envelope(
        gamma_min_sq=gamma_min_sq,
        gamma_max_sq=gamma_max_sq,
        mean=mean,
        abs_moment=abs_moment,
        z_grid=z,
        lower=lower,
        upper=upper,
        alt_lower=alt_lower,
        alt_upper=alt_upper,
    )
    if not np.all(env.lower <= env.upper * (1 + 1e-15)):
        raise DomainError("lower envelope exceeds the upper envelope")
    return env
