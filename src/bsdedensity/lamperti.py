"""Lamperti transform g(x) = int_0^x du/sigma(u) and derived drift functions.

The state change U = g(X) turns the forward diffusion into a unit-diffusion
equation with drift beta o g^-1, where beta = b/sigma - sigma'/2.  The three
derived functions exposed here,

    beta(x)              = b(x)/sigma(x) - sigma'(x)/2
    beta_prime_sigma(x)  = [sigma,b](x)/sigma(x) - (sigma sigma'')(x)/2
    beta_comp_second(x)  = [sigma,[sigma,b]](x)/sigma(x) - ((sigma'' sigma)' sigma)(x)/2

are (beta o g^-1), its first and its second derivative, all parameterized in
x-coordinates (callers compose with X rather than U, avoiding a double
inversion).
"""

from __future__ import annotations

import numpy as np

from .coeffs import (
    CoefficientFamily,
    Points,
    as_points,
    eval_derivative,
    lie_bracket,
)
from .errors import DomainError

__all__ = ["LampertiMap"]

# the inverse's Newton iteration stops once every |g(x) - u| is at most this
_ROOT_TOLERANCE = 1e-12
# the inverse's cell search makes at most this many passes from the bucket's
# cell, then hands what is left to a binary search
_CELL_STEPS = 3
# the bucket table holds at most this many buckets per lattice cell
_MAX_BUCKETS_PER_CELL = 4


class LampertiMap:
    """Cached evaluator for g, g^-1 and the derived drift functions.

    The map certifies sigma > 0 on the convex hull of the validity box and
    the origin (g is anchored at 0), then builds a quadrature lattice for g
    by adaptive Simpson refinement.  Instances are immutable after
    construction, so concurrent reads need no coordination.
    """

    def __init__(
        self,
        sigma: CoefficientFamily,
        b: CoefficientFamily,
        box: tuple[float, float],
        quadrature_step: float = 1e-3,
    ) -> None:
        if quadrature_step <= 0:
            raise DomainError("quadrature_step must be positive")
        self.sigma = sigma
        self.b = b
        self.box = (float(box[0]), float(box[1]))
        self.quadrature_step = float(quadrature_step)

        lo = min(self.box[0], 0.0)
        hi = max(self.box[1], 0.0)
        n_cells = max(2, int(np.ceil((hi - lo) / self.quadrature_step)))
        # force the origin onto the lattice so that g(0) = 0 exactly
        n_left = int(np.round(n_cells * (0.0 - lo) / (hi - lo)))
        n_left = min(max(n_left, 0), n_cells)
        h_left = (0.0 - lo) / n_left if n_left else 0.0
        h_right = (hi - 0.0) / (n_cells - n_left) if n_cells - n_left else 0.0
        nodes = np.concatenate(
            [
                0.0 - h_left * np.arange(n_left, 0, -1),
                [0.0],
                0.0 + h_right * np.arange(1, n_cells - n_left + 1),
            ]
        )
        self._nodes = nodes
        self._i0 = n_left

        sig_nodes = eval_derivative(sigma, 0, nodes)
        self._certify_positive(sig_nodes, nodes)
        # probe midpoints too before trusting the lattice
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        self._certify_positive(eval_derivative(sigma, 0, mids), mids)

        cell = self._integrate_cells(nodes[:-1], nodes[1:])
        g = np.empty_like(nodes)
        g[0] = 0.0
        np.cumsum(cell, out=g[1:])
        g -= g[self._i0]
        self._g = g
        self._inv_sigma_nodes = 1.0 / sig_nodes
        # constant sigma makes g exactly linear; skip lattice work in that case
        self._const_sigma = (
            float(sigma.params["c"]) if sigma.family == "constant" else None
        )
        if self._const_sigma is None:
            # even buckets over [g_0, g_N], each holding the cell of its left
            # edge: the start of the inverse's cell search.  A bucket no wider
            # than the narrowest cell ends at most one cell past its edge's;
            # the table is capped, so a steep sigma can leave wider buckets
            n_cells = len(g) - 1
            span = g[-1] - g[0]
            cap = _MAX_BUCKETS_PER_CELL * n_cells
            narrowest = float(np.min(np.diff(g)))
            n_buckets = cap if narrowest * cap <= span else int(np.ceil(span / narrowest))
            self._bucket_scale = n_buckets / span
            edges = g[0] + np.arange(n_buckets) / self._bucket_scale
            self._bucket_cell = np.clip(
                np.searchsorted(g, edges, side="right") - 1, 0, n_cells - 1
            )

    # -- internals ---------------------------------------------------------

    def _certify_positive(self, values: np.ndarray, points: np.ndarray) -> None:
        bad = np.argmin(values)  # the first NaN if there is one
        if not values[bad] > 0.0:
            raise DomainError(
                f"sigma({points[bad]:.6g}) = {values[bad]:.6g} is not positive; the Lamperti "
                "transform requires sigma > 0 on the working interval"
            )

    def _simpson(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        mid = 0.5 * (a + b)
        fa = 1.0 / eval_derivative(self.sigma, 0, a)
        fm = 1.0 / eval_derivative(self.sigma, 0, mid)
        fb = 1.0 / eval_derivative(self.sigma, 0, b)
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def _integrate_cells(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Adaptive Simpson on each cell, refined until the Richardson error
        estimate is below the per-cell share of the quadrature budget."""
        length = self._nodes[-1] - self._nodes[0]
        tol = self.quadrature_step**2
        out = np.zeros(len(a))
        idx = np.arange(len(a))
        lo = a.astype(float).copy()
        hi = b.astype(float).copy()
        coarse = self._simpson(lo, hi)
        for _ in range(24):
            mid = 0.5 * (lo + hi)
            left = self._simpson(lo, mid)
            right = self._simpson(mid, hi)
            fine = left + right
            err = np.abs(fine - coarse) / 15.0
            budget = tol * (hi - lo) / length
            done = err <= budget
            np.add.at(out, idx[done], fine[done] + (fine[done] - coarse[done]) / 15.0)
            keep = ~done
            if not keep.any():
                return out
            idx = np.concatenate([idx[keep], idx[keep]])
            lo = np.concatenate([lo[keep], mid[keep]])
            hi = np.concatenate([mid[keep], hi[keep]])
            coarse = np.concatenate([left[keep], right[keep]])
        raise DomainError("quadrature for g did not converge on the lattice")

    @staticmethod
    def _range_check(v: np.ndarray, lo: float, hi: float, name: str, what: str) -> None:
        """Raise unless every entry of ``v`` lies in [lo, hi], ``what`` in
        the message; the test is written so that a NaN fails it without an
        extra pass."""
        if v.size and not (v.min() >= lo and v.max() <= hi):
            bad = float(v[np.argmin((v >= lo) & (v <= hi))])
            if not np.isfinite(bad):
                raise DomainError(f"{name} = {bad} is not finite")
            raise DomainError(f"{name} = {bad:.6g} is outside [{lo:.6g}, {hi:.6g}], {what}")

    def _cell(self, u: np.ndarray) -> np.ndarray:
        """The lattice cell k with g[k] <= u < g[k + 1], the last cell for
        u = g_N: ``searchsorted(g, u, side="right") - 1`` clipped to the
        cells.  The search starts at the cell of u's bucket and moves one
        cell per pass, for at most ``_CELL_STEPS`` passes; a binary search
        places the entries still off their cell, which only a bucket wider
        than the narrowest cell leaves.  The cell holding u is unique, so it
        is the same k."""
        g = self._g
        last = len(g) - 2
        j = ((u - g[0]) * self._bucket_scale).astype(np.intp)
        k = self._bucket_cell[np.minimum(j, len(self._bucket_cell) - 1, out=j)]
        for _ in range(_CELL_STEPS):
            up = g[k + 1] <= u
            up &= k < last
            down = g[k] > u
            if not (up.any() or down.any()):
                return k
            k = k + up - down
        off = (g[k] > u) | ((g[k + 1] <= u) & (k < last))
        k[off] = np.clip(np.searchsorted(g, u[off], side="right") - 1, 0, last)
        return k

    # -- public API ---------------------------------------------------------

    @property
    def g_range(self) -> tuple[float, float]:
        """Image of the certified interval under g."""
        return float(self._g[0]), float(self._g[-1])

    def transform(self, x):
        """g(x) = int_0^x du/sigma(u), absolute error below quadrature_step^2."""
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        self._range_check(arr, self._nodes[0], self._nodes[-1], "x",
                          "the certified interval of this Lamperti map")
        if self._const_sigma is not None:
            out = arr / self._const_sigma
        else:
            k = np.clip(np.searchsorted(self._nodes, arr, side="right") - 1, 0,
                        len(self._nodes) - 2)
            out = self._g[k] + self._simpson(self._nodes[k], arr)
        return float(out[0]) if scalar else out

    def inverse_transform(self, u):
        """g^-1(u) by monotone bracketing with Newton steps (g^-1)' = sigma o g^-1."""
        arr = np.asarray(u, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr).astype(float)
        self._range_check(arr, self._g[0], self._g[-1], "u",
                          "the image of the certified interval under g")
        if self._const_sigma is not None:
            out = arr * self._const_sigma
            return float(out[0]) if scalar else out
        nodes, g = self._nodes, self._g
        last = len(nodes) - 2
        k = self._cell(arr)
        blo = nodes[k].copy()
        bhi = nodes[k + 1].copy()
        # secant initial guess inside the bracketing cell
        span = g[k + 1] - g[k]
        frac = np.where(span > 0, (arr - g[k]) / np.where(span > 0, span, 1.0), 0.5)
        x = blo + frac * (bhi - blo)
        for _ in range(100):
            # transform(x) without its lattice search: the iterate stays in
            # the bracket [nodes[k], nodes[k + 1]] (up to one ulp), so its
            # cell is k or k + 1, and the Simpson end-point 1/sigma(x) shares
            # sigma(x) with the Newton slope
            kx = np.minimum(k + (x >= nodes[k + 1]), last)
            a = nodes[kx]
            sx = eval_derivative(self.sigma, 0, x)
            fm = 1.0 / eval_derivative(self.sigma, 0, 0.5 * (a + x))
            simpson = (x - a) / 6.0 * (self._inv_sigma_nodes[kx] + 4.0 * fm + 1.0 / sx)
            r = g[kx] + simpson - arr
            if np.max(np.abs(r)) <= _ROOT_TOLERANCE:
                break
            above = r > 0
            bhi = np.where(above, x, bhi)
            blo = np.where(above, blo, x)
            step = r * sx
            xn = x - step
            outside = (xn <= blo) | (xn >= bhi)
            x = np.where(outside, 0.5 * (blo + bhi), xn)
        else:
            raise DomainError("inverse Lamperti iteration failed to converge")
        return float(x[0]) if scalar else x

    def _sigma_guard(self, x: Points) -> np.ndarray:
        s = eval_derivative(self.sigma, 0, x)
        smin = np.min(s)
        if smin <= 0.0:
            arr = np.atleast_1d(x.x)
            sv = np.atleast_1d(np.asarray(s))
            bad = float(arr[np.argmin(sv)])
            raise DomainError(f"sigma({bad:.6g}) <= 0")
        return s

    def beta(self, x):
        """b/sigma - sigma'/2 evaluated at x."""
        x = as_points(x)
        s = self._sigma_guard(x)
        return eval_derivative(self.b, 0, x) / s - 0.5 * eval_derivative(self.sigma, 1, x)

    def beta_prime_sigma(self, x):
        """(beta o g^-1)'(g(x)) = [sigma,b](x)/sigma(x) - (sigma sigma'')(x)/2."""
        x = as_points(x)
        s = self._sigma_guard(x)
        return lie_bracket(self.sigma, self.b, x) / s - 0.5 * s * eval_derivative(
            self.sigma, 2, x
        )

    def beta_comp_second(self, x):
        """(beta o g^-1)''(g(x)) = [sigma,[sigma,b]]/sigma - ((sigma'' sigma)' sigma)/2.

        Parameterized by x in state space; callers compose with X_r, not U_r.
        The bracket is :func:`~bsdedensity.coeffs.iterated_bracket` written
        out on the sigma derivatives the formula reads anyway, with its
        operations in its order: each derivative is evaluated once, and the
        bits are the bracket's.
        """
        x = as_points(x)
        s = self._sigma_guard(x)
        s1, s2, s3 = (eval_derivative(self.sigma, k, x) for k in (1, 2, 3))
        b0, b1, b2 = (eval_derivative(self.b, k, x) for k in (0, 1, 2))
        bracket = s * (s * b2 - b0 * s2) - (s * b1 - b0 * s1) * s1
        return bracket / s - 0.5 * (s3 * s + s2 * s1) * s
