import weakref

import numpy as np
import pytest

from bsdedensity.coeffs import Driver, ProblemSpec, affine, constant, quadratic, trig_affine
from bsdedensity.backward import (
    RegressionBasis,
    make_phi_row,
    make_replay_sweep,
    solve_bsde,
)
from bsdedensity.errors import DomainError, SolverError
from bsdedensity.forward import MalliavinTableau, TimeGrid, _draw_increments, simulate_forward
from bsdedensity.lamperti import LampertiMap
from bsdedensity.nvdensity import (
    GTarget,
    RowStatistics,
    derivative_bound_constants,
    estimate_g,
    gaussian_envelopes,
    mehler_shift,
    silverman_bandwidth,
)

from oracles import (
    ensemble_from_increments,
    path_matrices,
    reference_bound_constants,
    reference_estimate_g,
    reference_phi_sampler,
    step_lists,
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


def _estimate_one(f, phi, x_grid, n_outer, n_inner, *, base_increments,
                  theta_weights, **kw):
    """One target whose F and Phi are functions of the increment matrix: the
    sweep state is the increment matrix itself."""
    target = GTarget(f(base_increments[:n_outer]), phi, x_grid, theta_weights)
    return estimate_g([target], lambda w: w, n_outer, n_inner,
                      base_increments=base_increments, **kw)[0]


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
    est = _estimate_one(f, phi, grid, 4000, 1, base_increments=incs,
                        increment_scale=np.sqrt(1 / 50), theta_weights=theta_w,
                        wprime_seed=7)
    assert np.abs(est.g_values - 1.0).max() < 1e-10
    assert np.all(est.standard_errors[est.reliable] < 1e-10)
    assert est.reliable.sum() >= 15
    assert est.n_effective.max() <= 4000


def _solve(prob, ens, basis, t_indices):
    lmap = LampertiMap(prob.sigma, prob.b, prob.box)
    ftab = MalliavinTableau(ens.dW, ens.X, lmap, ens.grid.dt)
    return solve_bsde(ens, prob, basis, forward_tab=ftab, t_indices=t_indices)


def _replay_sweep(btab, t_max):
    """The replay sweep of the main run's forward model, cut at ``t_max``."""
    return make_replay_sweep(btab.problem, TimeGrid(btab.problem.T, btab.n), btab.ftab.lmap,
                             t_max, btab.basis.reads_w)


def _brownian_tableau(incs, grid, t_indices):
    prob = ProblemSpec(0.0, 1.0, constant(0), constant(1), Driver(),
                       "phi-of-wt", affine(a=0, b=1), box=(-12, 12))
    ens = ensemble_from_increments(prob, grid, incs)
    return _solve(prob, ens, RegressionBasis("polynomial-in-x", 3), t_indices).tableau


def test_estimate_g_pipeline_reduction():
    # F = Y_t for the zero-driver W_T terminal: Phi is identically 1 on [0, t]
    grid = TimeGrid(1.0, 50)
    t_idx = grid.index_of(0.5)
    incs = _draw_increments(5, 3000, 50, grid.dt)
    btab = _brownian_tableau(incs, grid, [t_idx])
    theta_w = np.full(t_idx + 1, grid.dt)
    theta_w[0] = theta_w[-1] = 0.5 * grid.dt
    xg = np.linspace(-1.2, 1.2, 11)
    target = GTarget(incs[:, :t_idx].sum(axis=1), make_phi_row(btab, t_idx, "Y"), xg, theta_w)
    (est,) = estimate_g([target], _replay_sweep(btab, t_idx), 3000, 1,
                        base_increments=incs, increment_scale=np.sqrt(grid.dt),
                        wprime_seed=11)
    ok = est.reliable
    assert np.abs(est.g_values[ok] - 0.5).max() < 0.02


def test_phi_sampler_component_validation():
    grid = TimeGrid(1.0, 10)
    btab = _brownian_tableau(_draw_increments(5, 200, 10, grid.dt), grid, [5, 10])
    with pytest.raises(SolverError, match="component"):
        make_phi_row(btab, 5, "X")
    # the terminal node has no fitted regression to freeze
    for comp in ("Y", "Z"):
        with pytest.raises(SolverError, match="terminal node t = 1"):
            make_phi_row(btab, 10, comp)


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
FROZEN_ROWS = [5, 10, 15]


@pytest.fixture(scope="module", params=sorted(FROZEN_CASES))
def frozen_case(request):
    prob, basis = FROZEN_CASES[request.param]
    ens = simulate_forward(prob, FROZEN_GRID, 4000, 3)
    return ens, _solve(prob, step_lists(ens), basis, FROZEN_ROWS)


def test_kept_row_independent_of_declared_set(frozen_case):
    # the backward pass does the same arithmetic down to a row whatever else
    # is declared, so a row declared alone is bitwise the same
    ens, sol = frozen_case
    btab = sol.tableau
    for t_idx in FROZEN_ROWS:
        # a pass consumes its ensemble: each runs on new step lists, with a
        # forward tableau built on them
        alone = _solve(sol.problem, step_lists(ens), sol.basis, [t_idx]).tableau
        assert list(alone._rows) == [t_idx]
        for method in ("dy_fits", "d2y_fits", "dz_fits"):
            for a, b in zip(getattr(alone, method)(t_idx), getattr(btab, method)(t_idx)):
                assert np.array_equal(a, b)
        assert np.array_equal(alone.z_clark_all(t_idx), btab.z_clark_all(t_idx))
        a, b = alone._row(t_idx), btab._row(t_idx)
        assert np.array_equal(a.dy_coeffs, b.dy_coeffs)
        assert np.array_equal(a.dz_coeffs, b.dz_coeffs)


@pytest.mark.parametrize("component", ["Y", "Z"])
def test_frozen_sampler_reproduces_main_run_rows(frozen_case, component):
    ens, sol = frozen_case
    btab = sol.tableau
    t_idx = FROZEN_GRID.index_of(0.5)
    m = 500
    phi = make_phi_row(btab, t_idx, component)
    ref = (btab.dy_matrix if component == "Y" else btab.dz_matrix)(t_idx)[:m]
    got = phi(_replay_sweep(btab, t_idx)(path_matrices(ens)[0][:m]))
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("component", ["Y", "Z"])
def test_frozen_sampler_is_row_wise(frozen_case, component):
    ens, sol = frozen_case
    btab = sol.tableau
    m = 500
    rng = np.random.default_rng(8)
    incs = mehler_shift(path_matrices(ens)[0][:m], rng.standard_normal((m, FROZEN_GRID.n_steps))
                        * np.sqrt(FROZEN_GRID.dt), 0.7)
    rows = np.array([3, 17, 5, 400, 0, 499, 250])
    t_idx = FROZEN_GRID.index_of(0.5)
    phi, sweep = make_phi_row(btab, t_idx, component), _replay_sweep(btab, t_idx)
    assert np.array_equal(phi(sweep(incs[rows])), phi(sweep(incs))[rows])


def _cli_targets(sol, n_outer):
    """Y and Z targets at every frozen row, built as the CLI builds them,
    each with its single-target reference sampler."""
    btab, dt = sol.tableau, FROZEN_GRID.dt
    out = []
    for t_idx in FROZEN_ROWS:
        theta_w = np.full(t_idx + 1, dt)
        theta_w[0] = theta_w[-1] = 0.5 * dt
        for comp, values in (("Y", sol.y_at(t_idx)), ("Z", btab.z_clark_all(t_idx))):
            samples = values[:n_outer]
            spread = float(samples.std())
            target = GTarget(samples, make_phi_row(btab, t_idx, comp),
                             np.linspace(-2 * spread, 2 * spread, 9), theta_w,
                             mean_f=float(values.mean()))
            out.append((target, reference_phi_sampler(btab, t_idx, comp)))
    return out


def test_shared_sweep_matches_single_target_reference(frozen_case, monkeypatch):
    # every target reads its Phi rows from one sweep per (copy, u-node), cut
    # at the last eval time, and reproduces the single-target estimator that
    # replays the whole horizon per target bit for bit
    ens, sol = frozen_case
    n_outer, n_inner, n_nodes = 400, 2, 6
    pairs = _cli_targets(sol, n_outer)
    sweep = _replay_sweep(sol.tableau, max(FROZEN_ROWS))
    states = []

    def counted(incs):
        states.append(sweep(incs))
        return states[-1]

    kw = dict(base_increments=path_matrices(ens)[0][:n_outer], increment_scale=np.sqrt(FROZEN_GRID.dt),
              wprime_seed=77, n_u_nodes=n_nodes)
    reads = []  # the state of every B read
    real_b = MalliavinTableau.B
    monkeypatch.setattr(MalliavinTableau, "B",
                        lambda self, cols=slice(None): reads.append(self) or real_b(self, cols))
    got = estimate_g([t for t, _ in pairs], counted, n_outer, n_inner, **kw)
    assert len(states) == 1 + n_inner * n_nodes  # whatever the number of targets
    for est, (target, ref_sampler) in zip(got, pairs):
        g, se, n_eff = reference_estimate_g(
            lambda w, target=target: target.samples, ref_sampler, target.x_grid,
            n_outer, n_inner, theta_weights=target.theta_weights,
            mean_f=target.mean_f, **kw,
        )
        assert np.array_equal(est.g_values, g)
        assert np.array_equal(est.standard_errors, se)
        assert np.array_equal(est.n_effective, n_eff)
    # a Z row reads B_t exactly when its e-coefficient is non-zero (S2): one
    # column of each state per such row
    b_rows = [t for t in FROZEN_ROWS if sol.tableau._row(t).dz_coeffs[:, 3].any()]
    assert bool(b_rows) == (sol.problem.sigma.family != "constant")
    assert all(sum(r is st for r in reads) == len(b_rows) for st in states)


def test_replay_sweep_cut_at_t_max():
    # the state is a prefix of the full-horizon sweep, bit for bit, and the
    # clamp count covers the steps up to t_max only
    prob = _s2_problem()
    grid = TimeGrid(1.0, 20)
    lmap = LampertiMap(prob.sigma, prob.b, prob.box)
    incs = _draw_increments(9, 300, 20, grid.dt)
    full = make_replay_sweep(prob, grid, lmap, 20, reads_w=True)(incs)
    cut = make_replay_sweep(prob, grid, lmap, 12, reads_w=True)(incs)
    # dW, X, A and B are indexed step first, exp_neg_A path first
    assert np.array_equal(cut.dW, full.dW[:12])
    assert np.array_equal(cut.X, full.X[:13])
    assert np.array_equal(cut.A, full.A[:13])
    assert np.array_equal(cut.exp_neg_A, full.exp_neg_A[:, :13])
    assert np.array_equal(cut.B(), full.B()[:13])
    # a box barely wider than the paths' reach makes clamps happen late
    tight = ProblemSpec(0.0, 1.0, constant(0), constant(1), Driver(), "phi-of-wt",
                        affine(a=0, b=1), box=(-1.5, 1.5))
    tl = LampertiMap(tight.sigma, tight.b, tight.box)
    wide = 3.0 * incs
    counts = []
    for t in (5, 20):
        sweep = make_replay_sweep(tight, grid, tl, t)
        sweep(wide)
        counts.append(sweep.n_clamped)
    early, late = counts
    assert 0 < early < late
    assert late == ensemble_from_increments(tight, grid, wide, tl).n_flagged


def test_replay_state_frees_the_shifted_increments():
    """A replay state holds its increments only for the basis in (x, w),
    which reads W_t; under the basis in x the Mehler-shifted matrix is freed
    once the sweep returns."""
    prob = _s2_problem()
    grid = TimeGrid(1.0, 20)
    lmap = LampertiMap(prob.sigma, prob.b, prob.box)
    incs = _draw_increments(9, 300, 20, grid.dt)
    for reads_w in (False, True):
        shifted = mehler_shift(incs, incs[::-1], 0.5)
        alive = weakref.ref(shifted)
        state = make_replay_sweep(prob, grid, lmap, 12, reads_w)(shifted)
        del shifted
        assert (alive() is not None) == reads_w
        assert (state.dW is not None) == reads_w


def test_estimate_g_validates_before_the_first_sweep():
    incs, theta_w, f, phi = _flat_phi_case(200, 10)
    calls = []

    def sweep(w):
        calls.append(1)
        return w

    def run(n_outer=200, **changes):
        fields = dict(samples=f(incs[:n_outer]), phi=phi, x_grid=np.linspace(-1, 1, 5),
                      theta_weights=theta_w)
        good = GTarget(**fields)
        bad = GTarget(**{**fields, **changes})
        estimate_g([good, bad], sweep, n_outer, 1, base_increments=incs,
                   increment_scale=0.3, wprime_seed=1, n_u_nodes=2)

    for n_outer, changes in [
        (200, dict(x_grid=np.array([0.0, -1.0]))),
        (200, dict(x_grid=np.zeros((2, 2)))),
        (200, dict(theta_weights=np.ones((11, 1)))),
        (200, dict(samples=np.zeros(150))),
        (10, {}),  # fewer outer paths than batches
        (500, {}),  # more outer paths than base rows
    ]:
        with pytest.raises(DomainError):
            run(n_outer, **changes)
        assert calls == []
    # a phi whose width does not match theta_weights fails on the unshifted
    # sweep, before any replay
    with pytest.raises(DomainError, match="theta_weights"):
        run(theta_weights=theta_w[:-1])
    assert calls == [1]


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
    est = _estimate_one(f, phi, grid, 3000, 1, base_increments=incs,
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
    a = _estimate_one(f, phi, grid, 3000, 1, n_u_nodes=16, **kw)
    b = _estimate_one(f, phi, grid, 3000, 1, n_u_nodes=32, **kw)
    ok = a.reliable & b.reliable
    rel = np.abs(a.g_values[ok] - b.g_values[ok]) / np.abs(b.g_values[ok])
    assert rel.max() < 0.005


def test_estimate_g_validation():
    incs, theta_w, f, phi = _flat_phi_case(200, 10)
    with pytest.raises(DomainError):
        _estimate_one(f, phi, np.array([0.0, -1.0]), 200, 1, base_increments=incs,
                      increment_scale=0.3, theta_weights=theta_w, wprime_seed=1)
    with pytest.raises(DomainError):
        _estimate_one(f, phi, np.linspace(-1, 1, 5), 500, 1, base_increments=incs,
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


def _bits(*values) -> list[int]:
    return np.array(values, dtype=float).view(np.uint64).tolist()


def _row_statistics(D: np.ndarray, block: int, q: float = 0.001) -> RowStatistics:
    stats = RowStatistics(*D.shape, robust_quantile=q)
    for lo in range(0, len(D), block):
        stats.add(D[lo:lo + block])
    return stats


def _assert_matches_whole_matrix(D: np.ndarray, stats: RowStatistics, q: float) -> None:
    """Order statistics, constants and per-path norms bitwise those of the
    whole-matrix reference."""
    ref = reference_bound_constants(D, 0.5, q)
    assert _bits(*stats.order_statistics()) == _bits(ref["raw_c_hat"], ref["C_hat"])
    if (D > 0).any():
        c = derivative_bound_constants(stats, 0.5, q)
        assert _bits(c.c_hat, c.C_hat, c.gamma_min_sq, c.gamma_max_sq) == _bits(
            ref["c_hat"], ref["C_hat"], ref["gamma_min_sq"], ref["gamma_max_sq"])
        assert c.n_nonpositive == ref["n_nonpositive"]
    assert _bits(*stats.norms_sq) == _bits(*(D * D).sum(axis=1))


# blocks of one path, of three paths, of 40 paths (a short last block of 17)
# and one block for the whole row
@pytest.mark.parametrize("block", [1, 3, 40, 97])
@pytest.mark.parametrize("q", [0.0, 0.001, 0.05, 0.3])
def test_row_statistics_match_whole_matrix(block, q):
    rng = np.random.default_rng(11)
    rows = {
        "normal": 1.0 + rng.standard_normal((97, 13)),
        "ties": rng.integers(-2, 4, (97, 13)).astype(float),
        "cauchy": rng.standard_cauchy((97, 13)),
    }
    for D in rows.values():
        _assert_matches_whole_matrix(D, _row_statistics(D, block, q), q)


def test_row_statistics_randomized_against_whole_matrix():
    rng = np.random.default_rng(12)
    for case in range(600):
        shape = (int(rng.integers(1, 40)), int(rng.integers(1, 9)))
        D = (rng.standard_normal(shape), rng.integers(-1, 3, shape).astype(float),
             rng.standard_cauchy(shape))[case % 3]
        q = float(rng.choice([0.0, 0.001, 0.1, 0.499, 0.5 * rng.random()]))
        block = int(rng.integers(1, shape[0] + 2))
        _assert_matches_whole_matrix(D, _row_statistics(D, block, q), q)


def test_row_statistics_single_value():
    one = np.array([[2.5]])
    for q in (0.0, 0.001, 0.3):
        _assert_matches_whole_matrix(one, _row_statistics(one, 1, q), q)
        stats = _row_statistics(np.array([[-1.0]]), 1, q)
        assert stats.order_statistics() == (-1.0, -1.0)
        with pytest.raises(DomainError, match="no positive"):
            derivative_bound_constants(stats, 1.0, q)


def test_row_statistics_signed_zeros_at_the_rank():
    """Zeros of both signs tied at the selected rank: the selection is a zero
    equal to np.quantile's, but its sign is not pinned (which zero a
    partition leaves at a rank depends on its pivots).  The sign does not
    reach the constants: a zero c is clamped to the smallest positive value,
    and a zero C gives gamma_max^2 = +0, which the envelopes refuse."""
    D = np.array([[-0.0, 0.0, 1.0], [0.0, -0.0, 2.0], [-0.0, 3.0, 0.0]])
    z = np.linspace(-1.0, 1.0, 5)
    for block in (1, 2, 3):
        for q in (0.0, 0.2, 0.4):
            stats = _row_statistics(D, block, q)
            ref = reference_bound_constants(D, 1.0, q)
            lo, hi = stats.order_statistics()
            assert lo == ref["raw_c_hat"] == 0.0 and hi == ref["C_hat"]
            c = derivative_bound_constants(stats, 1.0, q)
            assert _bits(c.c_hat, c.gamma_min_sq, c.gamma_max_sq) == _bits(
                ref["c_hat"], ref["gamma_min_sq"], ref["gamma_max_sq"])
            if hi == 0.0:  # q = 0.4 selects a zero at the upper rank too
                with pytest.raises(DomainError, match="positive"):
                    gaussian_envelopes(0.0, 1.0, c.gamma_min_sq, c.gamma_max_sq, z)
            else:
                assert _bits(c.C_hat) == _bits(ref["C_hat"])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_derivative_bound_constants_refuse_non_finite(bad):
    samples = np.linspace(0.5, 2.0, 1000)
    samples[517] = bad
    with pytest.raises(DomainError, match="non-finite"):
        derivative_bound_constants(samples, 1.0)
    # read in blocks, the block that holds the value raises
    D = samples.reshape(100, 10)
    stats = RowStatistics(100, 10)
    stats.add(D[:40])
    with pytest.raises(DomainError, match="non-finite"):
        stats.add(D[40:80])


def test_row_statistics_refuse_a_partial_row_and_another_quantile():
    stats = RowStatistics(10, 3)
    stats.add(np.ones((4, 3)))
    with pytest.raises(DomainError, match="4 of 10 paths"):
        derivative_bound_constants(stats, 1.0)
    stats.add(np.ones((6, 3)))
    assert derivative_bound_constants(stats, 1.0).gamma_min_sq == 1.0
    with pytest.raises(DomainError, match="quantile"):
        derivative_bound_constants(stats, 1.0, robust_quantile=0.01)
    with pytest.raises(DomainError, match="empty"):
        RowStatistics(0, 3)


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
    assert env.prefactors()["alt_upper"] == pytest.approx(0.5 / (2 * 1.4))


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
