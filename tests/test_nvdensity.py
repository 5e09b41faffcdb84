import numpy as np
import pytest

from bsdedensity.coeffs import Driver, ProblemSpec, affine, constant, quadratic, trig_affine
from bsdedensity.backward import (
    BackwardTableau,
    RegressionBasis,
    ensemble_from_increments,
    make_phi_sampler,
    solve_bsde,
)
from bsdedensity.errors import DomainError, SolverError
from bsdedensity.forward import MalliavinTableau, TimeGrid, _draw_increments, simulate_forward
from bsdedensity.lamperti import LampertiMap
from bsdedensity.nvdensity import (
    derivative_bound_constants,
    estimate_g,
    gaussian_envelopes,
    mehler_shift,
    silverman_bandwidth,
)


def test_mehler_endpoints():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((50, 20)) * 0.1
    wp = rng.standard_normal((50, 20)) * 0.1
    assert np.array_equal(mehler_shift(w, wp, 0.0), w)
    far = mehler_shift(w, wp, 1e9)
    assert np.max(np.abs(far - wp)) <= 1e-17 * max(1.0, np.abs(w).max())
    with pytest.raises(DomainError):
        mehler_shift(w, wp, -0.1)
    with pytest.raises(DomainError):
        mehler_shift(w, wp[:, :10], 1.0)


def test_mehler_preserves_marginal_variance():
    rng = np.random.default_rng(1)
    dt = 0.01
    w = rng.standard_normal((40000, 4)) * np.sqrt(dt)
    wp = rng.standard_normal((40000, 4)) * np.sqrt(dt)
    for u in (0.3, 1.0, 3.0):
        shifted = mehler_shift(w, wp, u)
        ratio = shifted.var(axis=0) / dt
        assert np.all(np.abs(ratio - 1) < 4 * np.sqrt(2.0 / 40000))


def _flat_phi_case(n_outer=4000, n_steps=50):
    incs = _draw_increments(123, n_outer, n_steps, 1.0 / n_steps)
    theta_w = np.full(n_steps + 1, 1.0 / n_steps)
    theta_w[0] = theta_w[-1] = 0.5 / n_steps
    f = lambda w: w.sum(axis=1)  # noqa: E731  F = W_1
    phi = lambda w: np.ones((w.shape[0], n_steps + 1))  # noqa: E731
    return incs, theta_w, f, phi


def test_estimate_g_flat_phi_exact():
    incs, theta_w, f, phi = _flat_phi_case()
    grid = np.linspace(-2, 2, 21)
    est = estimate_g(f, phi, grid, 4000, 1, base_increments=incs,
                     increment_scale=np.sqrt(1 / 50), theta_weights=theta_w,
                     wprime_seed=7)
    assert np.abs(est.g_values - 1.0).max() < 1e-10
    assert np.all(est.standard_errors[est.reliable] < 1e-10)
    assert est.reliable.sum() >= 15
    assert est.n_effective.max() <= 4000


def _tableau(prob, ens, basis):
    lmap = LampertiMap(prob.sigma, prob.b, prob.box)
    sol = solve_bsde(ens, prob, basis)
    return BackwardTableau(ens, sol, MalliavinTableau(ens, lmap, sol.reduced))


def _brownian_tableau(incs, grid):
    prob = ProblemSpec(0.0, 1.0, constant(0), constant(1), Driver(),
                       "phi-of-wt", affine(a=0, b=1), box=(-12, 12))
    ens = ensemble_from_increments(prob, grid, incs)
    return _tableau(prob, ens, RegressionBasis("polynomial-in-x", 3))


def test_estimate_g_pipeline_reduction():
    # F = Y_t for the zero-driver W_T terminal: Phi is identically 1 on [0, t]
    grid = TimeGrid(1.0, 50)
    t_idx = grid.index_of(0.5)
    incs = _draw_increments(5, 3000, 50, grid.dt)
    sampler = make_phi_sampler(_brownian_tableau(incs, grid), t_idx, "Y")
    theta_w = np.full(t_idx + 1, grid.dt)
    theta_w[0] = theta_w[-1] = 0.5 * grid.dt
    f = lambda w: w[:, :t_idx].sum(axis=1)  # noqa: E731
    xg = np.linspace(-1.2, 1.2, 11)
    est = estimate_g(f, sampler, xg, 3000, 1, base_increments=incs,
                     increment_scale=np.sqrt(grid.dt), theta_weights=theta_w,
                     wprime_seed=11)
    ok = est.reliable
    assert np.abs(est.g_values[ok] - 0.5).max() < 0.02


def test_phi_sampler_component_validation():
    grid = TimeGrid(1.0, 10)
    btab = _brownian_tableau(_draw_increments(5, 200, 10, grid.dt), grid)
    with pytest.raises(SolverError, match="component"):
        make_phi_sampler(btab, 5, "X")
    # the terminal node has no fitted regression to freeze
    for comp in ("Y", "Z"):
        with pytest.raises(SolverError, match="terminal node t = 1"):
            make_phi_sampler(btab, 10, comp)


def _s2_problem(alpha=0.0):
    return ProblemSpec(
        x0=0.0, T=1.0, b=trig_affine(c=0.3), sigma=trig_affine(a=2, b=0.5),
        driver=Driver(f_of_x=affine(b=0.1), f_of_y=trig_affine(c=0.2), alpha=alpha),
        terminal="phi-of-xt", phi=trig_affine(c=0.1, d=1), box=(-12, 12),
    )


FROZEN_CASES = {
    # nonlinear f(x, y) and sigma: the D_theta Z row needs B_t
    "s2": (_s2_problem(), RegressionBasis("polynomial-in-x", 4)),
    # linear z-term: Girsanov weights inside the fitted coefficients
    "s2-alpha": (_s2_problem(alpha=0.3), RegressionBasis("polynomial-in-x", 4)),
    # xi = W_T^2 / 2 on the (x, w) basis
    "xw": (
        ProblemSpec(0.0, 1.0, constant(0), constant(1), Driver(), "phi-of-wt",
                    quadratic(c=0.5), box=(-12, 12)),
        RegressionBasis("polynomial-in-xw", 4),
    ),
}
FROZEN_GRID = TimeGrid(1.0, 20)


@pytest.fixture(scope="module", params=sorted(FROZEN_CASES))
def frozen_case(request):
    prob, basis = FROZEN_CASES[request.param]
    ens = simulate_forward(prob, FROZEN_GRID, 4000, 3)
    return ens, _tableau(prob, ens, basis)


@pytest.mark.parametrize("component", ["Y", "Z"])
def test_frozen_sampler_reproduces_main_run_rows(frozen_case, component):
    ens, btab = frozen_case
    t_idx = FROZEN_GRID.index_of(0.5)
    m = 500
    sampler = make_phi_sampler(btab, t_idx, component)
    ref = (btab.dy_matrix if component == "Y" else btab.dz_matrix)(t_idx)[:m]
    got = sampler(ens.dW[:m])
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("component", ["Y", "Z"])
def test_frozen_sampler_is_row_wise(frozen_case, component):
    ens, btab = frozen_case
    m = 500
    rng = np.random.default_rng(8)
    incs = mehler_shift(ens.dW[:m], rng.standard_normal((m, FROZEN_GRID.n_steps))
                        * np.sqrt(FROZEN_GRID.dt), 0.7)
    rows = np.array([3, 17, 5, 400, 0, 499, 250])
    sampler = make_phi_sampler(btab, FROZEN_GRID.index_of(0.5), component)
    assert np.array_equal(sampler(incs[rows]), sampler(incs)[rows])


def _smooth_phi_case(n_outer=3000, n_steps=40):
    """Synthetic sampler with c <= Phi <= C and genuine u-dependence."""
    incs = _draw_increments(21, n_outer, n_steps, 1.0 / n_steps)
    theta_w = np.full(n_steps + 1, 1.0 / n_steps)
    theta_w[0] = theta_w[-1] = 0.5 / n_steps

    def phi(w):
        level = 1.0 + 0.5 * np.tanh(w.sum(axis=1))
        return np.repeat(level[:, None], n_steps + 1, axis=1)

    f = lambda w: w.sum(axis=1)  # noqa: E731
    return incs, theta_w, f, phi


def test_estimate_g_bounded_phi_band():
    incs, theta_w, f, phi = _smooth_phi_case()
    grid = np.linspace(-1.5, 1.5, 13)
    est = estimate_g(f, phi, grid, 3000, 1, base_increments=incs,
                     increment_scale=np.sqrt(1 / 40), theta_weights=theta_w,
                     wprime_seed=3)
    ok = est.reliable
    lo, hi = 0.5**2 * 1.0, 1.5**2 * 1.0
    assert np.all(est.g_values[ok] >= lo - 3 * est.standard_errors[ok] - 1e-9)
    assert np.all(est.g_values[ok] <= hi + 3 * est.standard_errors[ok] + 1e-9)


def test_u_quadrature_doubling():
    incs, theta_w, f, phi = _smooth_phi_case()
    grid = np.linspace(-1.0, 1.0, 9)
    kw = dict(base_increments=incs, increment_scale=np.sqrt(1 / 40),
              theta_weights=theta_w, wprime_seed=3)
    a = estimate_g(f, phi, grid, 3000, 1, n_u_nodes=16, **kw)
    b = estimate_g(f, phi, grid, 3000, 1, n_u_nodes=32, **kw)
    ok = a.reliable & b.reliable
    rel = np.abs(a.g_values[ok] - b.g_values[ok]) / np.abs(b.g_values[ok])
    assert rel.max() < 0.005


def test_estimate_g_validation():
    incs, theta_w, f, phi = _flat_phi_case(200, 10)
    with pytest.raises(DomainError):
        estimate_g(f, phi, np.array([0.0, -1.0]), 200, 1, base_increments=incs,
                   increment_scale=0.3, theta_weights=theta_w, wprime_seed=1)
    with pytest.raises(DomainError):
        estimate_g(f, phi, np.linspace(-1, 1, 5), 500, 1, base_increments=incs,
                   increment_scale=0.3, theta_weights=theta_w, wprime_seed=1)


def test_derivative_bound_constants_examples():
    c = derivative_bound_constants(np.ones(500), 1.0)
    assert (c.gamma_min_sq, c.gamma_max_sq) == (1.0, 1.0)
    v = np.exp(0.25)
    c2 = derivative_bound_constants(np.full(200, v), 0.5)
    assert c2.gamma_min_sq == pytest.approx(v * v * 0.5, rel=1e-12)
    assert c2.gamma_min_sq == pytest.approx(0.8243606353500641, rel=1e-9)
    c3 = derivative_bound_constants(np.array([0.5, 1.0, 1.5, 2.0]), 2.0, 0.001)
    assert (c3.gamma_min_sq, c3.gamma_max_sq) == (0.5, 8.0)


def test_derivative_bound_constants_clamping():
    samples = np.concatenate([np.full(999, 2.0), [-0.1]])
    c = derivative_bound_constants(samples, 1.0, robust_quantile=0.0)
    assert c.n_nonpositive == 1
    assert c.c_hat == 2.0  # clamped to the smallest positive sample
    with pytest.raises(DomainError):
        derivative_bound_constants(np.array([-1.0, 0.0]), 1.0)
    with pytest.raises(DomainError):
        derivative_bound_constants(np.array([]), 1.0)
    with pytest.raises(DomainError):
        derivative_bound_constants(np.ones(5), -1.0)


def test_gaussian_envelopes_identity():
    z = np.linspace(-4, 4, 801)
    m = np.sqrt(2 / np.pi)
    env = gaussian_envelopes(0.0, m, 1.0, 1.0, z)
    assert np.abs(env.lower - env.upper).max() < 1e-12
    mid = np.argmin(np.abs(z))
    assert env.lower[mid] == pytest.approx(1 / np.sqrt(2 * np.pi), abs=1e-12)
    # with E|F-EF| = sqrt(2t/pi) the curves equal the N(EF, t) density
    t = 0.7
    envt = gaussian_envelopes(0.3, np.sqrt(2 * t / np.pi), t, t, z)
    dens = np.exp(-((z - 0.3) ** 2) / (2 * t)) / np.sqrt(2 * np.pi * t)
    assert np.abs(envt.lower - dens).max() < 1e-12


def test_gaussian_envelopes_ordering_and_symmetry():
    z = np.linspace(-3, 3, 601)
    env = gaussian_envelopes(0.0, 0.5, 0.8, 1.4, z)
    assert np.all(env.lower <= env.upper)
    mid = np.argmin(np.abs(z))
    assert env.lower[mid] == pytest.approx(0.5 / (2 * 1.4))
    assert env.upper[mid] == pytest.approx(0.5 / (2 * 0.8))
    assert np.allclose(env.lower, env.lower[::-1])
    assert np.allclose(env.upper, env.upper[::-1])
    # both curves integrable (finite trapezoid mass)
    assert 0 < np.trapezoid(env.lower, z) <= np.trapezoid(env.upper, z) < np.inf
    # the transposed-prefactor variant is exposed for reports
    assert env.alt_upper[mid] == pytest.approx(0.5 / (2 * 1.4))


def test_gaussian_envelopes_contract_violations():
    z = np.linspace(-1, 1, 11)
    with pytest.raises(DomainError):
        gaussian_envelopes(0.0, 0.5, -1.0, 1.0, z)
    with pytest.raises(DomainError):
        gaussian_envelopes(0.0, 0.0, 1.0, 1.0, z)
    with pytest.raises(DomainError):
        gaussian_envelopes(0.0, 0.5, 2.0, 1.0, z)


def test_gaussian_envelopes_non_finite_inputs():
    z = np.linspace(-1, 1, 11)
    for args in [
        (0.0, 0.5, np.nan, 1.0),
        (0.0, 0.5, 0.5, np.nan),
        (0.0, 0.5, 0.5, np.inf),
        (np.nan, 0.5, 1.0, 1.0),
        (0.0, np.nan, 1.0, 1.0),
        (0.0, np.inf, 1.0, 1.0),
    ]:
        with pytest.raises(DomainError):
            gaussian_envelopes(*args, z)
    # a NaN grid point fails the lower <= upper check
    with pytest.raises(DomainError):
        gaussian_envelopes(0.0, 0.5, 1.0, 1.0, np.array([0.0, np.nan]))


def test_silverman_bandwidth():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(10000)
    h = silverman_bandwidth(x)
    assert 0.9 * 0.8 * 10000 ** (-0.2) < h < 0.9 * 1.1 * 10000 ** (-0.2)
    with pytest.raises(DomainError):
        silverman_bandwidth(np.ones(100))
