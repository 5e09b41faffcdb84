"""Independent numerical oracles used by the test suite.

These deliberately avoid the production code paths: finite differences for
derivatives, scipy quadrature for integrals, and a plain Euler scheme for the
pathwise flow map.  The reference evaluators at the end restate the
coefficient formulas with every transcendental computed afresh, as bitwise
references for the production code that shares them.
"""

import math
import tracemalloc
from dataclasses import asdict, replace

import numpy as np

from bsdedensity.coeffs import (
    GRID_CAVEAT,
    H7_COMPACT_BOX_CAVEAT,
    CoefficientFamily,
    HypothesisCheck,
    Points,
    eval_derivative,
    iterated_bracket,
    lie_bracket,
)
from bsdedensity.errors import CoefficientError, GlobalDomainError, OrderingError
from bsdedensity.forward import (
    _ROW_BLOCK,
    PathEnsemble,
    TimeGrid,
    _euler_lamperti,
)
from bsdedensity.lamperti import _ROOT_TOLERANCE, LampertiMap
from bsdedensity.nvdensity import mehler_shift, silverman_bandwidth

# roundoff/truncation balanced steps per derivative order
FD_STEPS = {1: 1e-5, 2: 6e-4, 3: 2e-2}


def traced(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` under tracemalloc: ``(result, peak, retained)``,
    the peak and the retained traced memory above the call's entry, in bytes.

    Called inside another trace (say a ``traced`` call wrapping a function
    that calls this one), it resets that trace's peak instead of starting its
    own, so blocks allocated before the call and freed within it count too.
    """
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        result = fn(*args, **kwargs)
        now, peak = tracemalloc.get_traced_memory()
    finally:
        if not outer:
            tracemalloc.stop()
    return result, peak - before, now - before


def central_diff(f, x: float, order: int, h: float | None = None) -> float:
    """Central finite difference of the given order.

    The third-order stencil is Richardson-extrapolated (h and h/2): the plain
    stencil's h^2 truncation floor sits right at 1e-6 relative in float64.
    """
    h = h if h is not None else FD_STEPS[order]
    if order == 1:
        return (f(x + h) - f(x - h)) / (2 * h)
    if order == 2:
        return (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)
    if order == 3:
        def stencil(s):
            return (f(x + 2 * s) - 2 * f(x + s) + 2 * f(x - s) - f(x - 2 * s)) / (
                2 * s**3
            )

        return (4.0 * stencil(h / 2) - stencil(h)) / 3.0
    raise ValueError(order)


def euler_u_flow(dw_row: np.ndarray, lmap, x0: float, dt: float) -> np.ndarray:
    """Re-run the Lamperti-coordinate Euler scheme on one increment row."""
    n = len(dw_row)
    u = np.empty(n + 1)
    x = np.empty(n + 1)
    u[0] = lmap.transform(x0)
    x[0] = x0
    for i in range(n):
        u[i + 1] = u[i] + lmap.beta(x[i]) * dt + dw_row[i]
        x[i + 1] = lmap.inverse_transform(u[i + 1])
    return u


# ---------------------------------------------------------------------------
# Reference evaluators: every derivative order recomputes its own
# transcendentals.  The production code computes each sin/cos/logistic once
# per point set and must agree with these bit for bit.
# ---------------------------------------------------------------------------


def _ref_logistic(x):
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _ref_family(family, p, order, x):
    if family == "constant":
        if order == 0:
            return np.full_like(x, p["c"], dtype=float)
        return np.zeros_like(x, dtype=float)
    if family == "affine":
        if order == 0:
            return p["a"] + p["b"] * x
        if order == 1:
            return np.full_like(x, p["b"], dtype=float)
        return np.zeros_like(x, dtype=float)
    if family == "trig-affine":
        a, b, c, d = p["a"], p["b"], p["c"], p["d"]
        if order == 0:
            return a + b * np.cos(x) + c * np.sin(x) + d * x
        if order == 1:
            return -b * np.sin(x) + c * np.cos(x) + d
        if order == 2:
            return -b * np.cos(x) - c * np.sin(x)
        return b * np.sin(x) - c * np.cos(x)
    if family == "scaled-sigmoid":
        a, k, b = p["a"], p["k"], p["b"]
        s = _ref_logistic(k * np.asarray(x, dtype=float))
        if order == 0:
            return a * s + b
        s1 = s * (1.0 - s)
        if order == 1:
            return a * k * s1
        if order == 2:
            return a * k * k * s1 * (1.0 - 2.0 * s)
        return a * k**3 * s1 * (1.0 - 6.0 * s + 6.0 * s * s)
    if family == "quadratic":
        a, b, c = p["a"], p["b"], p["c"]
        if order == 0:
            return a + x * (b + c * x)
        if order == 1:
            return b + 2.0 * c * x
        if order == 2:
            return np.full_like(x, 2.0 * c, dtype=float)
        return np.zeros_like(x, dtype=float)
    coefs = [p["c0"], p["c1"], p["c2"], p["c3"], p["c4"]]
    for _ in range(order):
        coefs = [i * coefs[i] for i in range(1, len(coefs))]
    if not coefs:
        return np.zeros_like(x, dtype=float)
    out = np.full_like(x, coefs[-1], dtype=float)
    for c in reversed(coefs[:-1]):
        out = out * x + c
    return out


def reference_derivative(fam, order: int, x):
    """Derivative of the given order of a coefficient family, computed from
    scratch; a scalar input gives a float."""
    out = _ref_family(fam.family, fam.params, order, np.asarray(x, dtype=float))
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def reference_drifts(lmap, x):
    """(beta, beta_prime_sigma, beta_comp_second) of a Lamperti map at x,
    each factor evaluated by :func:`reference_derivative`."""
    sig, b = lmap.sigma, lmap.b
    s0, s1, s2, s3 = (reference_derivative(sig, k, x) for k in range(4))
    b0, b1, b2 = (reference_derivative(b, k, x) for k in range(3))
    beta = b0 / s0 - 0.5 * s1
    bracket = s0 * b1 - b0 * s1
    prime = bracket / s0 - 0.5 * s0 * s2
    inner = s0 * b1 - b0 * s1
    iterated = s0 * (s0 * b2 - b0 * s2) - inner * s1
    second = iterated / s0 - 0.5 * (s3 * s0 + s2 * s1) * s0
    return beta, prime, second


def reference_transform(lmap, x):
    """g(x) on the map's lattice: a search for the cell, then Simpson from
    its left node with three fresh sigma evaluations."""
    nodes, g = lmap._nodes, lmap._g
    k = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, len(nodes) - 2)
    a = nodes[k]
    mid = 0.5 * (a + x)
    fa = 1.0 / reference_derivative(lmap.sigma, 0, a)
    fm = 1.0 / reference_derivative(lmap.sigma, 0, mid)
    fb = 1.0 / reference_derivative(lmap.sigma, 0, x)
    return g[k] + (x - a) / 6.0 * (fa + 4.0 * fm + fb)


def reference_inverse_transform(lmap, u):
    """g^-1(u) by bracketed Newton where every iteration runs the full
    :func:`reference_transform`."""
    arr = np.atleast_1d(np.asarray(u, dtype=float)).astype(float)
    nodes, g = lmap._nodes, lmap._g
    k = np.clip(np.searchsorted(g, arr, side="right") - 1, 0, len(g) - 2)
    blo = nodes[k].copy()
    bhi = nodes[k + 1].copy()
    span = g[k + 1] - g[k]
    frac = np.where(span > 0, (arr - g[k]) / np.where(span > 0, span, 1.0), 0.5)
    x = blo + frac * (bhi - blo)
    for _ in range(100):
        r = reference_transform(lmap, x) - arr
        if np.max(np.abs(r)) <= _ROOT_TOLERANCE:
            break
        above = r > 0
        bhi = np.where(above, x, bhi)
        blo = np.where(above, blo, x)
        xn = x - r * reference_derivative(lmap.sigma, 0, x)
        outside = (xn <= blo) | (xn >= bhi)
        x = np.where(outside, 0.5 * (blo + bhi), xn)
    else:
        raise RuntimeError("reference inverse did not converge")
    return x


# ---------------------------------------------------------------------------
# Reference tableau integrals and the single-target g-estimator: whole-matrix
# evaluations, and one target whose Phi-sampler re-runs the forward sweep over
# the whole horizon on every call.  The production code builds A and B in
# blocks of paths and shares one sweep per u-node between all targets, cut at
# the last eval time; it must agree with these bit for bit.
# ---------------------------------------------------------------------------


def _cumtrapz(values: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoid along the last axis, starting at 0."""
    out = np.zeros_like(values)
    np.cumsum(0.5 * dt * (values[..., 1:] + values[..., :-1]), axis=-1, out=out[..., 1:])
    return out


def reference_tableau_integrals(lmap, X, dt):
    """(sigma(X), A, B) of the forward tableau, each from one evaluation on
    the whole path matrix."""
    pts = Points(X)
    sigX = eval_derivative(lmap.sigma, 0, pts)
    A = _cumtrapz(lmap.beta_prime_sigma(pts), dt)
    B = _cumtrapz(lmap.beta_comp_second(X) * np.exp(A), dt)
    return sigX, A, B


def second_order_matrix(lmap, X, A, dt):
    """The whole matrix B, the cumulative trapezoid of (beta o g^-1)''(X) e^A
    along each path, built in blocks of paths as the tableau built it when
    it held B; a read-only zero view when sigma and b are constant families."""
    if lmap.sigma.family == lmap.b.family == "constant":
        return np.broadcast_to(0.0, X.shape)
    B = np.empty_like(X)
    for lo in range(0, len(X), _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        B[rows] = _cumtrapz(lmap.beta_comp_second(X[rows]) * np.exp(A[rows]), dt)
    return B


# Scalar tableau entries on one path, from the integrals A and B, the path
# matrix X and sigma; sigma and sigma' are evaluated at the one state read.
# The production tableau builds whole rows from the same integrals.


def _check_pair(A, theta_idx, t_idx):
    n = A.shape[1] - 1
    if not (0 <= theta_idx <= n and 0 <= t_idx <= n):
        raise OrderingError(f"indices ({theta_idx}, {t_idx}) outside 0..{n}")
    if theta_idx > t_idx:
        raise OrderingError(
            f"tableau is triangular: theta index {theta_idx} > t index {t_idx}"
        )


def _canon_second(A, theta_idx, t_idx, s_idx):
    lo, hi = min(theta_idx, t_idx), max(theta_idx, t_idx)
    if not (0 <= lo and s_idx <= A.shape[1] - 1):
        raise OrderingError("second-order indices outside the grid")
    if s_idx < hi:
        raise OrderingError(
            f"second-order slice needs max(theta, t) <= s; got s index {s_idx} < {hi}"
        )
    return lo, hi


def first_u(A, path, theta_idx, t_idx):
    """D_theta U_t = exp(A_t - A_theta)."""
    _check_pair(A, theta_idx, t_idx)
    return float(np.exp(A[path, t_idx] - A[path, theta_idx]))


def first_x(A, X, sigma, path, theta_idx, t_idx):
    """D_theta X_t = sigma(X_t) D_theta U_t."""
    _check_pair(A, theta_idx, t_idx)
    return eval_derivative(sigma, 0, X[path, t_idx]) * first_u(A, path, theta_idx, t_idx)


def second_u(A, B, path, theta_idx, t_idx, s_idx):
    """D2_{theta,t} U_s = exp(A_s - A_t - A_theta) (B_s - B_t), theta <= t."""
    lo, hi = _canon_second(A, theta_idx, t_idx, s_idx)
    a = A[path]
    return float(np.exp(a[s_idx] - a[hi] - a[lo]) * (B[path, s_idx] - B[path, hi]))


def second_x(A, B, X, sigma, path, theta_idx, t_idx, s_idx):
    """D2_{theta,t} X_s = (sigma' sigma)(X_s) D_theta U_s D_t U_s + sigma(X_s) D2 U_s."""
    lo, hi = _canon_second(A, theta_idx, t_idx, s_idx)
    a = A[path]
    du_prod = np.exp(2.0 * a[s_idx] - a[hi] - a[lo])
    d2u = np.exp(a[s_idx] - a[hi] - a[lo]) * (B[path, s_idx] - B[path, hi])
    sig = eval_derivative(sigma, 0, X[path, s_idx])
    return float(eval_derivative(sigma, 1, X[path, s_idx]) * sig * du_prod + sig * d2u)


def path_matrices(ens):
    """Path-major copies of the ensemble's step-major paths: ``(dW, X)`` of
    shapes (n_paths, n) and (n_paths, n + 1), the layout the reference
    oracles read.  A backward pass consumes the ensemble, so a test that
    reads the paths after a pass takes its copy first."""
    return np.stack(ens.dW, axis=1), np.stack(ens.X, axis=1)


def step_lists(ens):
    """The ensemble with new step lists over the same step arrays: a backward
    pass releases steps from the copy's lists only, so ``ens`` stays whole
    for the next pass (a module-scoped fixture serves many)."""
    return replace(ens, dW=list(ens.dW), X=list(ens.X))


def brownian_matrix(dW):
    """The Brownian path W of the increments ``dW``, shape (n_paths, n + 1),
    by the explicit running sum W_0 = 0, W_{i+1} = W_i + dW_i."""
    n_paths, n = dW.shape
    W = np.empty((n_paths, n + 1))
    W[:, 0] = 0.0
    for i in range(n):
        W[:, i + 1] = W[:, i] + dW[:, i]
    return W


def ensemble_from_increments(problem, grid, increments, lamperti_map=None):
    """An ensemble built from given Brownian increments over the whole grid,
    with escaping paths clamped instead of dropped (``n_flagged`` counts the
    clamp events), so its rows stay aligned with the increment rows."""
    lmap = lamperti_map or LampertiMap(problem.sigma, problem.b, problem.box)
    n_paths, n = increments.shape
    assert n == grid.n_steps, "increment matrix does not match the grid"
    dW = [increments[:, i].copy() for i in range(n)]
    X, hits = _euler_lamperti(problem, grid, dW, lmap)
    return PathEnsemble(
        grid=grid,
        n_paths=n_paths,
        master_seed=-1,
        x0=problem.x0,
        dW=dW,
        X=X,
        path_ids=np.arange(n_paths, dtype=np.uint64),
        n_flagged=int(hits.sum()),
        n_requested=n_paths,
    )


def reference_phi_sampler(btab, t_idx, component):
    """theta -> D_theta Y_t or D_theta Z_t (``component`` "Y" or "Z") on any
    increment matrix: a full-horizon forward sweep, the main run's frozen
    fits at the new time-t states and whole-matrix A and B.  ``n_clamped``
    sums the clamp events of all calls."""
    grid, lmap, problem = TimeGrid(btab.problem.T, btab.n), btab.ftab.lmap, btab.problem
    row = btab._row(t_idx)
    coeffs = row.dy_coeffs if component == "Y" else row.dz_coeffs

    def sampler(increments):
        ens = ensemble_from_increments(problem, grid, increments, lmap)
        sampler.n_clamped += ens.n_flagged
        dW, X = path_matrices(ens)
        _, A, B = reference_tableau_integrals(lmap, X, grid.dt)
        fits = row.design.evaluate(coeffs, ens.X[t_idx], brownian_matrix(dW)[:, t_idx])
        ea_th = np.exp(-A[:, : t_idx + 1])
        if component == "Y":
            return fits[:, 0][:, None] + ea_th * fits[:, 1][:, None]
        inner = fits[:, 2]
        if coeffs[:, 3].any():
            inner = inner - B[:, t_idx] * fits[:, 3]
        ea_t = np.exp(-A[:, t_idx])[:, None]
        return (fits[:, 0][:, None] + (ea_th + ea_t) * fits[:, 1][:, None]
                + ea_th * ea_t * inner[:, None])

    sampler.n_clamped = 0
    return sampler


def _reference_nadaraya_watson(x, p, grid, h):
    z = (x[None, :] - grid[:, None]) / h
    k = np.exp(-0.5 * z * z)
    mass = k.sum(axis=1)
    ksq = (k * k).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        vals = (k @ p) / mass
        n_eff = np.where(ksq > 0, mass * mass / ksq, 0.0)
    return vals, n_eff


def reference_estimate_g(f_sampler, phi_sampler, x_grid, n_outer, n_inner, *,
                         base_increments, increment_scale, theta_weights,
                         wprime_seed, n_u_nodes=16, mean_f=None, n_batches=20):
    """The single-target g-estimator: F and Phi from samplers of increment
    matrices, every u-node replaying ``phi_sampler``.  Returns
    (g_values, standard_errors, n_effective)."""
    W = base_increments[:n_outer]
    F = np.asarray(f_sampler(W), dtype=float)
    phi = np.asarray(phi_sampler(W), dtype=float)
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
    g_vals, n_eff = _reference_nadaraya_watson(x, P, grid, h)
    edges = np.linspace(0, n_outer, n_batches + 1).astype(int)
    batch_vals = np.empty((n_batches, len(grid)))
    for bidx in range(n_batches):
        sl = slice(edges[bidx], edges[bidx + 1])
        batch_vals[bidx], _ = _reference_nadaraya_watson(x[sl], P[sl], grid, h)
    with np.errstate(invalid="ignore"):
        se = np.nanstd(batch_vals, axis=0, ddof=1) / np.sqrt(n_batches)
    return g_vals, se, n_eff


def reference_bound_constants(samples, t: float, robust_quantile: float = 0.001) -> dict:
    """derivative_bound_constants on the whole sample at once: two
    ``np.quantile`` selections over every value, the non-positive count and
    the smallest positive value (when there is one), each a pass of its own."""
    flat = np.asarray(samples, dtype=float).ravel()
    c_hat = float(np.quantile(flat, robust_quantile, method="lower"))
    c_max = float(np.quantile(flat, 1.0 - robust_quantile, method="higher"))
    n_nonpos = int(np.count_nonzero(flat <= 0.0))
    raw_c_hat = c_hat
    if c_hat <= 0.0 and (flat > 0.0).any():
        c_hat = float(flat[flat > 0.0].min())
    return {
        "raw_c_hat": raw_c_hat,
        "c_hat": c_hat,
        "C_hat": c_max,
        "gamma_min_sq": c_hat * c_hat * t,
        "gamma_max_sq": c_max * c_max * t,
        "n_nonpositive": n_nonpos,
    }


# ---------------------------------------------------------------------------
# Reference hypothesis checker: H1..H8 as eight hand-written blocks, each with
# its own grid minimum, witness and inequality string.  The production checker
# evaluates the same rules as a condition table and must write the same report.
# ---------------------------------------------------------------------------


def _ref_grid_min(values: np.ndarray, grid: np.ndarray) -> tuple[float, float]:
    i = int(np.argmin(values))
    return float(values[i]), float(grid[i])


def _ref_grid_max(values: np.ndarray, grid: np.ndarray) -> tuple[float, float]:
    i = int(np.argmax(values))
    return float(values[i]), float(grid[i])


def reference_check_hypotheses(problem, box, n_grid) -> dict:
    """The hypothesis report payload as the checker wrote it with one
    hand-written pass/fail block per hypothesis: ``to_dict()`` of the report
    plus its ``pipelines``."""
    lo, hi = float(box[0]), float(box[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise GlobalDomainError(
            "hypothesis checking is grid-based and restricted to compact domains; "
            f"received unbounded box ({box[0]}, {box[1]}). Supply finite bounds."
        )
    if not lo < hi:
        raise CoefficientError("hypothesis box must satisfy lo < hi")
    if n_grid < 2:
        raise CoefficientError("n_grid must be at least 2")

    grid = np.linspace(lo, hi, n_grid)
    pts = Points(grid)  # every family below shares sin/cos(grid)
    sigma = problem.sigma
    sign_normalized = False
    sig_vals = eval_derivative(sigma, 0, pts)
    if np.max(sig_vals) < 0.0:
        # Remark-style sign normalization: flip sigma and recheck.
        sigma = CoefficientFamily(
            sigma.family, {k: -v for k, v in sigma.params.items()}
        )
        if sigma.family == "scaled-sigmoid":
            # sigmoid params do not negate term-wise; fall back to polynomial forms
            raise CoefficientError(
                "sign normalization is not available for scaled-sigmoid sigma"
            )
        sign_normalized = True
        sig_vals = eval_derivative(sigma, 0, pts)

    b = problem.b
    drv = problem.driver
    phi = problem.phi
    checks: dict[str, HypothesisCheck] = {}

    phi1 = eval_derivative(phi, 1, pts)
    phi2 = eval_derivative(phi, 2, pts)

    # --- H1: 0 < c <= D_theta xi <= C ------------------------------------
    # phi-of-WT: D_theta xi = phi'(W_T); phi-of-XT: phi'(X_T) * D_theta X_T
    # with D_theta X_T >= 0 under H3, so the checkable content is phi' > 0.
    p1min, w1 = _ref_grid_min(phi1, grid)
    p1max, _ = _ref_grid_max(phi1, grid)
    if p1min > 0:
        checks["H1"] = HypothesisCheck(
            "H1", "pass", constants={"c": p1min, "C": p1max}
        )
    else:
        checks["H1"] = HypothesisCheck(
            "H1", "fail", witness=w1, inequality="phi'(x) > 0", value=p1min,
            constants={"c": p1min, "C": p1max},
        )

    # --- H2: f in C_b^1 and 0 <= f_x <= C ---------------------------------
    gx, gy = np.meshgrid(grid, grid, indexing="ij")
    px, py = Points(gx), Points(gy)
    fxv = drv.partial(1, 0, px, py)
    fyv = drv.partial(0, 1, px, py)
    fxmin = float(fxv.min())
    fxmax = float(fxv.max())
    if fxmin >= 0:
        checks["H2"] = HypothesisCheck(
            "H2", "pass",
            constants={"C": fxmax, "sup|f_y|": float(np.abs(fyv).max())},
        )
    else:
        i = np.unravel_index(int(np.argmin(fxv)), fxv.shape)
        checks["H2"] = HypothesisCheck(
            "H2", "fail", witness=(float(gx[i]), float(gy[i])),
            inequality="f_x(x, y) >= 0", value=fxmin,
        )

    # --- H3: 0 <= sigma <= C and |[b, sigma]| <= M sigma -------------------
    smin, wsig = _ref_grid_min(sig_vals, grid)
    smax, _ = _ref_grid_max(sig_vals, grid)
    bracket = np.abs(lie_bracket(b, sigma, pts))
    if smin < 0:
        checks["H3"] = HypothesisCheck(
            "H3", "fail", witness=wsig, inequality="sigma(x) >= 0", value=smin,
            constants={"sigma_min": smin, "sigma_max": smax},
        )
    elif smin == 0 and float(bracket.max()) > 0:
        checks["H3"] = HypothesisCheck(
            "H3", "fail", witness=wsig,
            inequality="|[b,sigma]| <= M sigma with sigma(x) = 0", value=float(bracket.max()),
            constants={"sigma_min": smin, "sigma_max": smax},
        )
    else:
        # conservative certified constant: sup |[b,sigma]| / inf sigma
        m_hat = float(bracket.max()) / smin if smin > 0 else 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(sig_vals > 0, bracket / sig_vals, 0.0)
        checks["H3"] = HypothesisCheck(
            "H3", "pass",
            constants={
                "M": m_hat,
                "M_pointwise": float(ratio.max()),
                "sigma_min": smin,
                "sigma_max": smax,
            },
        )

    # --- H4: D_theta xi >= 0 and D^2 xi > 0 --------------------------------
    p2min, w2 = _ref_grid_min(phi2, grid)
    p2max, _ = _ref_grid_max(phi2, grid)
    if p1min >= 0 and p2min > 0:
        checks["H4"] = HypothesisCheck(
            "H4", "pass", constants={"phi''_min": p2min, "phi''_max": p2max}
        )
    elif p1min < 0:
        checks["H4"] = HypothesisCheck(
            "H4", "fail", witness=w1, inequality="phi'(x) >= 0", value=p1min
        )
    else:
        checks["H4"] = HypothesisCheck(
            "H4", "fail", witness=w2, inequality="phi''(x) > 0", value=p2min
        )

    # --- H5: f_x, f_y, f_xy, f_xx, f_yy >= 0 --------------------------------
    h5_fail = None
    for label, vals in (
        ("f_x", fxv),
        ("f_y", fyv),
        ("f_xy", drv.partial(1, 1, px, py)),
        ("f_xx", drv.partial(2, 0, px, py)),
        ("f_yy", drv.partial(0, 2, px, py)),
    ):
        vmin = float(vals.min())
        if vmin < 0:
            i = np.unravel_index(int(np.argmin(vals)), vals.shape)
            h5_fail = (label, (float(gx[i]), float(gy[i])), vmin)
            break
    if h5_fail is None:
        checks["H5"] = HypothesisCheck("H5", "pass")
    else:
        label, wit, vmin = h5_fail
        checks["H5"] = HypothesisCheck(
            "H5", "fail", witness=wit, inequality=f"{label}(x, y) >= 0", value=vmin
        )

    # --- H6: sigma, sigma', -sigma'', -sigma''' >= 0 and [s,[s,b]] >= 0 -----
    h6_fail = None
    for label, vals in (
        ("sigma", sig_vals),
        ("sigma'", eval_derivative(sigma, 1, pts)),
        ("-sigma''", -eval_derivative(sigma, 2, pts)),
        ("-sigma'''", -eval_derivative(sigma, 3, pts)),
        ("[sigma,[sigma,b]]", iterated_bracket(sigma, b, pts)),
    ):
        vmin, wit = _ref_grid_min(np.asarray(vals), grid)
        if vmin < 0:
            h6_fail = (label, wit, vmin)
            break
    if h6_fail is None:
        checks["H6"] = HypothesisCheck("H6", "pass")
    else:
        label, wit, vmin = h6_fail
        checks["H6"] = HypothesisCheck(
            "H6", "fail", witness=wit, inequality=f"{label}(x) >= 0", value=vmin
        )

    # --- H7: phi in C_b^2 and phi'' >= c > 0 (phi-of-WT models only) --------
    if problem.terminal == "phi-of-wt":
        if p2min > 0:
            checks["H7"] = HypothesisCheck(
                "H7", "pass", constants={"c": p2min, "C": p2max}
            )
        else:
            checks["H7"] = HypothesisCheck(
                "H7", "fail", witness=w2, inequality="phi''(w) >= c > 0", value=p2min
            )
    else:
        checks["H7"] = HypothesisCheck("H7", "not-applicable")

    # --- H8: univariate driver with f', f'' >= 0 -----------------------------
    if drv.univariate_in_y:
        fam = drv.f_of_y
        if fam is None:
            checks["H8"] = HypothesisCheck("H8", "pass", constants={"sup|f'|": 0.0})
        else:
            d1 = eval_derivative(fam, 1, pts)
            d2 = eval_derivative(fam, 2, pts)
            v1min, wv1 = _ref_grid_min(d1, grid)
            v2min, wv2 = _ref_grid_min(d2, grid)
            if v1min >= 0 and v2min >= 0:
                checks["H8"] = HypothesisCheck(
                    "H8", "pass",
                    constants={"sup|f'|": float(np.abs(d1).max()),
                               "sup|f''|": float(np.abs(d2).max())},
                )
            elif v1min < 0:
                checks["H8"] = HypothesisCheck(
                    "H8", "fail", witness=wv1, inequality="f'(y) >= 0", value=v1min
                )
            else:
                checks["H8"] = HypothesisCheck(
                    "H8", "fail", witness=wv2, inequality="f''(y) >= 0", value=v2min
                )
    else:
        checks["H8"] = HypothesisCheck("H8", "not-applicable")

    status = {k: c.status for k, c in checks.items()}
    ok = lambda k: status.get(k) == "pass"  # noqa: E731
    return {
        "box": [lo, hi],
        "n_grid": n_grid,
        "sign_normalized": sign_normalized,
        "all_pass": all(c.status != "fail" for c in checks.values()),
        "caveats": [GRID_CAVEAT, H7_COMPACT_BOX_CAVEAT],
        "checks": {k: asdict(c) for k, c in sorted(checks.items())},
        "pipelines": {
            "y_envelope": ok("H1") and ok("H2") and ok("H3"),
            "z_existence": ok("H4") and ok("H5") and ok("H6"),
            "z_envelope": ok("H7") and ok("H8"),
        },
    }
