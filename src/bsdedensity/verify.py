"""Kernel density estimates, envelope comparison and the positivity report.

The density theorems assert that the law of Y_t (resp. Z_t) has a density
squeezed between the Gaussian envelopes; the checks here compare a
kernel density estimate of the simulated samples against those envelopes on
the central quantile range (KDE tails are unreliable and the bounds hold for
almost all z).  Absolute continuity of Z_t is probed through the sampled
positivity of D_theta Z_t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .nvdensity import Envelope, PositivityCounts

__all__ = [
    "DensityEstimate",
    "DensityReport",
    "BouleauHirschReport",
    "PositivityCounts",
    "kde",
    "envelope_check",
    "positivity_report",
]

_GAUSS_NORM = 1.0 / np.sqrt(2.0 * np.pi)
_ROUGHNESS = 1.0 / (2.0 * np.sqrt(np.pi))  # integral of the squared Gaussian kernel
# elements of one (grid points x samples) kernel block: 512 KiB per buffer
_KERNEL_BLOCK = 1 << 16


def _kernel_means(z: np.ndarray, x: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Means over the samples ``x`` of the Gaussian kernel exp(-u^2 / 2) and
    of its second derivative (u^2 - 1) exp(-u^2 / 2), u = (z_j - x) / h, at
    each grid point z_j: one u and one exp serve both.  A block of grid
    points is evaluated at a time in two preallocated buffers, and each
    point's means run over its own row, so the values do not depend on the
    block size."""
    dens, curv = np.empty_like(z), np.empty_like(z)
    chunk = max(1, _KERNEL_BLOCK // max(x.size, 1))
    u_buf = np.empty((min(chunk, len(z)), x.size))
    e_buf = np.empty_like(u_buf)
    for start in range(0, len(z), chunk):
        zb = z[start : start + chunk, None]
        u, e = u_buf[: len(zb)], e_buf[: len(zb)]
        np.subtract(zb, x[None, :], out=u)
        u /= h
        np.multiply(u, -0.5, out=e)
        e *= u
        np.exp(e, out=e)
        dens[start : start + chunk] = e.mean(axis=1)
        u *= u
        u -= 1.0
        u *= e
        curv[start : start + chunk] = u.mean(axis=1)
    return dens, curv


@dataclass
class DensityEstimate:
    """Gaussian-kernel density estimate over a fixed grid."""

    z_grid: np.ndarray
    density: np.ndarray
    bandwidth: float
    n_samples: int
    samples_sorted: np.ndarray
    # the mean Gaussian-kernel second derivative at each grid point, from
    # the kernel pass of the density (unscaled)
    curvature: np.ndarray

    def standard_error(self) -> np.ndarray:
        """Pointwise KDE standard error sqrt(rho R(K) / (n h))."""
        return np.sqrt(
            np.maximum(self.density, 0.0) * _ROUGHNESS / (self.n_samples * self.bandwidth)
        )

    def bias_estimate(self, mask: np.ndarray | None = None) -> np.ndarray:
        """Leading-order smoothing bias h^2 |rho''| / 2 on the grid, or on
        the grid points selected by the boolean ``mask``.

        rho'' is the exact second derivative of the kernel estimate
        (mean of Gaussian-kernel second derivatives), which tracks the
        curvature of the underlying density to O(h^2).  The means are the
        ones the density's kernel pass computed, so a masked value is
        bitwise the unmasked one."""
        h = self.bandwidth
        d2 = self.curvature if mask is None else self.curvature[mask]
        return 0.5 * h * h * np.abs(d2 * (_GAUSS_NORM / h**3))

    def sample_quantile(self, q: float) -> float:
        return float(np.quantile(self.samples_sorted, q))


def kde(samples: np.ndarray, grid: np.ndarray, bandwidth: float | None = None) -> DensityEstimate:
    """Gaussian-kernel estimate; default bandwidth 1.06 sigma n^{-1/5}.

    The default rule needs at least 1000 samples; pass an explicit bandwidth
    for smaller sets.  An empty, non-finite or degenerate (zero-variance)
    sample and a bandwidth that is not finite and positive are rejected.
    """
    x = np.asarray(samples, dtype=float).ravel()
    z = np.asarray(grid, dtype=float)
    n = x.size
    if n == 0:
        raise DomainError("kde needs a non-empty sample")
    finite = np.isfinite(x)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DomainError(f"sample {i} = {x[i]} is not finite; no density estimate")
    sd = float(x.std())
    if sd == 0.0:
        raise DomainError("samples are degenerate (zero variance); no density exists")
    if bandwidth is None:
        if n < 1000:
            raise DomainError(
                "the default bandwidth rule needs >= 1000 samples; "
                "pass bandwidth explicitly"
            )
        bandwidth = 1.06 * sd * n ** (-0.2)
    if not (np.isfinite(bandwidth) and bandwidth > 0):
        raise DomainError(f"bandwidth = {bandwidth} must be finite and positive")
    dens, curv = _kernel_means(z, x, bandwidth)
    dens *= _GAUSS_NORM / bandwidth
    return DensityEstimate(
        z_grid=z,
        density=dens,
        bandwidth=float(bandwidth),
        n_samples=n,
        samples_sorted=np.sort(x),
        curvature=curv,
    )


@dataclass
class DensityReport:
    """Outcome of the KDE-vs-envelope comparison."""

    verdict: str  # "pass" | "fail"
    comparison_range: tuple[float, float]
    quantile_range: float
    tol: float
    max_violation_fraction: float
    lower_violation_fraction: float
    upper_violation_fraction: float
    lower_max_violation: float
    upper_max_violation: float
    n_compared: int


def envelope_check(
    kde_est: DensityEstimate,
    env: Envelope,
    quantile_range: float = 0.99,
    tol: float = 0.0,
    max_violation_fraction: float = 0.0,
) -> DensityReport:
    """Check lower(z) - slack <= kde(z) <= upper(z) + slack on the central range.

    The slack at z is tol * upper(z) plus the KDE's own error budget (three
    standard errors plus the leading smoothing bias), so the comparison is
    scale-free across problems and tol = 0 already tolerates pure estimation
    error.  Violation magnitudes are reported relative to the upper envelope.
    The verdict passes iff the violation fraction on each side is at most
    ``max_violation_fraction``.  A NaN tol, or a non-finite KDE value,
    envelope value or KDE error budget in the comparison range, raises
    DomainError; tol = inf (accept everything) is allowed.
    """
    if not 0 < quantile_range < 1:
        raise DomainError("quantile_range must lie in (0, 1)")
    if not np.array_equal(kde_est.z_grid, env.z_grid):
        raise DomainError("kde and envelope grids are not aligned")
    lo = kde_est.sample_quantile(0.5 * (1.0 - quantile_range))
    hi = kde_est.sample_quantile(1.0 - 0.5 * (1.0 - quantile_range))
    mask = (kde_est.z_grid >= lo) & (kde_est.z_grid <= hi)
    if not mask.any():
        raise DomainError("empty comparison range: grid misses the central quantiles")

    dens = kde_est.density[mask]
    lower = env.lower[mask]
    upper = env.upper[mask]
    se = kde_est.standard_error()[mask]
    bias = kde_est.bias_estimate(mask)
    if np.isnan(tol) or not all(np.isfinite(a).all() for a in (dens, lower, upper, se, bias)):
        raise DomainError("non-finite KDE, envelope or slack in the comparison range")
    slack = tol * upper + 3.0 * se + bias

    low_excess = (lower - slack) - dens
    high_excess = dens - (upper + slack)
    low_viol = low_excess > 0
    high_viol = high_excess > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        low_mag = float(np.max(np.where(low_viol, (lower - dens) / upper, 0.0), initial=0.0))
        high_mag = float(np.max(np.where(high_viol, (dens - upper) / upper, 0.0), initial=0.0))
    frac_low = float(np.mean(low_viol))
    frac_high = float(np.mean(high_viol))
    verdict = (
        "pass"
        if frac_low <= max_violation_fraction and frac_high <= max_violation_fraction
        else "fail"
    )
    return DensityReport(
        verdict=verdict,
        comparison_range=(lo, hi),
        quantile_range=quantile_range,
        tol=tol,
        max_violation_fraction=max_violation_fraction,
        lower_violation_fraction=frac_low,
        upper_violation_fraction=frac_high,
        lower_max_violation=low_mag,
        upper_max_violation=high_mag,
        n_compared=int(mask.sum()),
    )


@dataclass
class BouleauHirschReport:
    """Sampled positivity of D_theta Z_t: the absolute-continuity criterion."""

    min_value: float
    nonpositive_fraction: float
    verdict: str
    witness_indices: list[int]
    n_samples: int
    noise_floor: float


def positivity_report(dz_samples: np.ndarray | PositivityCounts,
                      noise_floor: float = 0.0) -> BouleauHirschReport:
    """Report extrema and the non-positive fraction of the sampled D_theta Z_t,
    given as samples or as their :class:`PositivityCounts`.

    Almost-sure positivity of the derivative makes the law of Z_t absolutely
    continuous, so the verdict passes iff the non-positive fraction does not
    exceed the declared Monte Carlo noise floor.
    """
    counts = (dz_samples if isinstance(dz_samples, PositivityCounts)
              else PositivityCounts.of(dz_samples))
    if counts.n_samples == 0:
        raise DomainError("positivity report needs a non-empty sample set")
    frac = counts.n_nonpositive / counts.n_samples
    return BouleauHirschReport(
        min_value=counts.min_value,
        nonpositive_fraction=frac,
        verdict="pass" if frac <= noise_floor else "fail",
        witness_indices=list(counts.witness_indices),
        n_samples=counts.n_samples,
        noise_floor=noise_floor,
    )
