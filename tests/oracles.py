"""Independent numerical oracles used by the test suite.

These deliberately avoid the production code paths: finite differences for
derivatives, scipy quadrature for integrals, and a plain Euler scheme for the
pathwise flow map.  The reference evaluators at the end restate the
coefficient formulas with every transcendental computed afresh, as bitwise
references for the production code that shares them.
"""

import numpy as np

from bsdedensity.coeffs import Points, eval_derivative
from bsdedensity.forward import PathEnsemble, _cumtrapz, _euler_lamperti
from bsdedensity.lamperti import LampertiMap
from bsdedensity.nvdensity import mehler_shift, silverman_bandwidth

# roundoff/truncation balanced steps per derivative order
FD_STEPS = {1: 1e-5, 2: 6e-4, 3: 2e-2}


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
        if np.max(np.abs(r)) <= lmap.root_tolerance:
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


def reference_tableau_integrals(lmap, X, dt):
    """(sigma(X), A, B) of the forward tableau, each from one evaluation on
    the whole path matrix."""
    pts = Points(X)
    sigX = eval_derivative(lmap.sigma, 0, pts)
    A = _cumtrapz(lmap.beta_prime_sigma(pts), dt)
    B = _cumtrapz(lmap.beta_comp_second(X) * np.exp(A), dt)
    return sigX, A, B


def ensemble_from_increments(problem, grid, increments, lamperti_map=None):
    """An ensemble built from given Brownian increments over the whole grid,
    with escaping paths clamped instead of dropped (``n_flagged`` counts the
    clamp events), so its rows stay aligned with the increment rows."""
    lmap = lamperti_map or LampertiMap(problem.sigma, problem.b, problem.box)
    n_paths, n = increments.shape
    assert n == grid.n_steps, "increment matrix does not match the grid"
    W, X, hits = _euler_lamperti(problem, grid, increments, lmap)
    return PathEnsemble(
        grid=grid,
        n_paths=n_paths,
        master_seed=-1,
        x0=problem.x0,
        dW=np.ascontiguousarray(increments),
        W=W,
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
    grid, lmap, problem = btab.ens.grid, btab.ftab.lmap, btab.problem
    row = btab._row(t_idx)
    coeffs = row.dy_coeffs if component == "Y" else row.dz_coeffs

    def sampler(increments):
        ens = ensemble_from_increments(problem, grid, increments, lmap)
        sampler.n_clamped += ens.n_flagged
        _, A, B = reference_tableau_integrals(lmap, ens.X, grid.dt)
        fits = row.design.evaluate(coeffs, ens.X[:, t_idx], ens.W[:, t_idx])
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
