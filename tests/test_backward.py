import sys
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from bsdedensity.coeffs import (
    Driver,
    ProblemSpec,
    affine,
    constant,
    eval_derivative,
    quadratic,
    trig_affine,
)
from bsdedensity import backward
from bsdedensity.backward import (
    RegressionBasis,
    _StepDesign,
    solve_bsde,
)
from bsdedensity.errors import OrderingError, SolverError
from bsdedensity.forward import (
    _ROW_BLOCK,
    MalliavinTableau,
    PathEnsemble,
    TimeGrid,
    dump_ensemble,
    load_ensemble,
    simulate_forward,
)
from bsdedensity.lamperti import LampertiMap

from oracles import _cumtrapz, brownian_matrix, path_matrices, step_lists, traced

N_PATHS = 20000
GRID = TimeGrid(1.0, 200)
BASIS = RegressionBasis("polynomial-in-x", 4)


def _problem(phi, driver=None, terminal="phi-of-wt", b=None, sigma=None):
    return ProblemSpec(
        x0=0.0, T=1.0, b=b or constant(0), sigma=sigma or constant(1),
        driver=driver or Driver(), terminal=terminal, phi=phi, box=(-12, 12),
    )


@pytest.fixture(scope="module")
def ens():
    prob = _problem(affine(a=0, b=1))
    return simulate_forward(prob, GRID, N_PATHS, seed=7)


@pytest.fixture(scope="module")
def lmap():
    return LampertiMap(constant(1), constant(0), (-12, 12))


def _matrix(column, indices):
    """The path matrix of the kept columns ``column(i)`` at ``indices``."""
    return np.column_stack([column(i) for i in indices])


def _tableau(ens, lmap, prob, t_indices, basis=BASIS, **kw):
    """A pass with a tableau over new step lists of ``ens``, which it leaves whole."""
    ens = step_lists(ens)
    ftab = MalliavinTableau(ens.dW, ens.X, lmap, ens.grid.dt)
    sol = solve_bsde(ens, prob, basis, forward_tab=ftab, t_indices=t_indices, **kw)
    return sol, sol.tableau


def test_terminal_exactness_bitwise(ens):
    prob = _problem(trig_affine(c=1))  # xi = sin W_T
    sol = solve_bsde(step_lists(ens), prob, BASIS, t_indices=[GRID.n_steps])
    dW = path_matrices(ens)[0]
    assert np.array_equal(sol.y_at(GRID.n_steps), np.sin(brownian_matrix(dW)[:, -1]))


def test_martingale_case(ens, lmap):
    prob = _problem(affine(a=0, b=1))
    i = GRID.index_of(0.5)
    sol, tab = _tableau(ens, lmap, prob, [i])
    W = brownian_matrix(path_matrices(ens)[0])
    err = sol.y_at(i) - W[:, i]
    assert np.sqrt((err**2).mean()) < 0.02 * W[:, i].std()
    assert abs(sol.z_at(i).mean() - 1.0) < 0.02
    # D xi = 1 and the driver vanishes: every representation is exact
    assert np.abs(tab.dy_matrix(i, thetas=[GRID.index_of(0.2)])[:, 0] - 1.0).max() < 1e-10
    assert abs(tab.dy_matrix(i, thetas=[GRID.index_of(0.2)])[3, 0] - 1.0) < 1e-10
    assert np.abs(tab.z_clark_all(i) - 1.0).max() < 1e-10
    assert np.abs(tab.dz_matrix(i, thetas=[GRID.index_of(0.2)])[:, 0]).max() < 1e-10
    assert abs(tab.z_clark_all(i)[5] - 1.0) < 1e-10
    assert abs(tab.dz_matrix(i, thetas=[GRID.index_of(0.2)])[5, 0]) < 1e-10


def test_constant_terminal(ens):
    prob = _problem(constant(2.5))
    sol = solve_bsde(step_lists(ens), prob, BASIS, t_indices=range(GRID.n_steps + 1))
    assert np.abs(_matrix(sol.y_at, range(GRID.n_steps + 1)) - 2.5).max() < 1e-9
    assert np.abs(_matrix(sol.z_at, range(GRID.n_steps))).max() < 1e-9


def test_linear_driver_closed_form(ens, lmap):
    a = 0.5
    prob = _problem(affine(a=0, b=1), driver=Driver(f_of_y=affine(b=a)))
    sol, tab = _tableau(ens, lmap, prob,
                        [GRID.index_of(t) for t in (0.25, 0.5, 0.7, 0.75)])
    for t in (0.25, 0.5, 0.75):
        j = GRID.index_of(t)
        target = t * np.exp(2 * a * (1 - t))
        assert abs(sol.y_at(j).var() / target - 1) < 0.02
    # deterministic exponent: the DY representation is exact
    j = GRID.index_of(0.5)
    dy = tab.dy_matrix(j, thetas=[GRID.index_of(0.3)])[:, 0]
    assert np.abs(dy - np.exp(a * 0.5)).max() < 1e-9
    # D2Y vanishes identically (all second partials and D2 xi are zero)
    d2 = tab.d2y_all(GRID.index_of(0.2), GRID.index_of(0.4), GRID.index_of(0.7))
    assert np.abs(d2).max() < 1e-12


def test_quadratic_terminal_second_order(ens, lmap):
    prob = _problem(quadratic(c=0.5))  # xi = W_T^2 / 2
    i = GRID.index_of(0.5)
    sol, tab = _tableau(ens, lmap, prob, [i, GRID.index_of(0.6)])
    d2 = tab.d2y_all(GRID.index_of(0.2), GRID.index_of(0.4), GRID.index_of(0.6))
    assert np.abs(d2 - 1.0).max() < 1e-10
    assert abs(tab.d2y_all(GRID.index_of(0.2), GRID.index_of(0.4),
                           GRID.index_of(0.6))[7] - 1.0) < 1e-10
    dz = tab.dz_matrix(i, thetas=[GRID.index_of(0.2)])[:, 0]
    assert np.abs(dz - 1.0).max() < 1e-10
    # solver Z and Clark-Ocone Z both track W_t
    zc = tab.z_clark_all(i)
    W = brownian_matrix(path_matrices(ens)[0])
    assert np.sqrt(((zc - W[:, i]) ** 2).mean()) < 0.05
    assert np.sqrt(((sol.z_at(i) - W[:, i]) ** 2).mean()) < 0.08


def test_girsanov_reduction(ens, lmap, monkeypatch):
    prob = _problem(affine(a=0, b=1), driver=Driver(alpha=0.3))
    alpha = prob.driver.alpha
    # telescoping bookkeeping: the one-step weights multiply to the weight over [0, T]
    W = brownian_matrix(path_matrices(ens)[0])
    steps = [backward._girsanov_weight(alpha, ens.dW[i], GRID.dt)
             for i in range(GRID.n_steps)]
    horizon = backward._girsanov_weight(alpha, W[:, -1] - W[:, 0], 1.0)
    assert np.allclose(np.prod(steps, axis=0), horizon, rtol=1e-10, atol=0)
    assert backward._girsanov_weight(0.0, ens.dW[0], GRID.dt) is None
    # solve_bsde and its tableau weight by problem.driver.alpha: every step's
    # weight and every weight over [t, T]
    weight = backward._girsanov_weight
    seen = []
    monkeypatch.setattr(backward, "_girsanov_weight",
                        lambda a, dw, tau: seen.append(a) or weight(a, dw, tau))
    grid = TimeGrid(1.0, 10)
    for a in (0.3, 0.0):
        p = _problem(affine(a=0, b=1), driver=Driver(alpha=a))
        small = simulate_forward(p, grid, 500, seed=4)
        seen.clear()
        _tableau(small, lmap, p, [5])
        assert len(seen) >= grid.n_steps and set(seen) == {p.driver.alpha}


def test_girsanov_solution(ens):
    prob = _problem(affine(a=0, b=1), driver=Driver(alpha=0.3))
    j = GRID.index_of(0.5)
    sol = solve_bsde(step_lists(ens), prob, RegressionBasis("polynomial-in-x", 2),
                     t_indices=[0, j])
    oracle = brownian_matrix(path_matrices(ens)[0])[:, j] + 0.3 * 0.5
    assert np.sqrt(((sol.y_at(j) - oracle) ** 2).mean()) < 0.01
    assert abs(sol.y_at(0)[0] - 0.3) < 0.005


def test_girsanov_weights_add_no_path_matrix(lmap):
    """A linear z-term costs one weight column per step, no path matrix: the
    traced peak of solve_bsde at alpha = 0.3 stays within a quarter of a dW
    matrix of the peak at alpha = 0, with and without a forward tableau."""
    grid = TimeGrid(1.0, 40)
    base = _problem(quadratic(c=0.5), driver=Driver(f_of_y=trig_affine(c=0.2)))
    ens = simulate_forward(base, grid, 4000, seed=5)

    def peak(alpha, with_tableau):
        prob = replace(base, driver=replace(base.driver, alpha=alpha))
        e = step_lists(ens)
        ftab = MalliavinTableau(e.dW, e.X, lmap, grid.dt) if with_tableau else None
        return traced(solve_bsde, e, prob, BASIS, forward_tab=ftab, t_indices=[10, 20, 30])[1]

    dw_bytes = 8 * ens.n_paths * grid.n_steps  # one path matrix of dW
    for with_tableau in (False, True):
        gap = (peak(0.3, with_tableau) - peak(0.0, with_tableau)) / dw_bytes
        assert gap < 0.25, (with_tableau, gap)


def test_girsanov_tail_is_the_reversed_running_sum(lmap, monkeypatch):
    """At alpha = 0.3 the tableau weights each fitted step s over [s, T] by
    the tail W_T - W_s that its pass carries down from T: the dw handed to
    _girsanov_weight is bitwise the running sum dW_{n-1} + ... + dW_s of the
    reversed increments, at every step from n - 1 down to the smallest
    declared index."""
    grid = TimeGrid(1.0, 30)
    n = grid.n_steps
    prob = _problem(quadratic(c=0.5), driver=Driver(f_of_y=trig_affine(c=0.2), alpha=0.3))
    ens = simulate_forward(prob, grid, 1500, seed=5)
    tails = np.cumsum(path_matrices(ens)[0][:, ::-1], axis=1)
    weight, seen = backward._girsanov_weight, {}

    def spy(alpha, dw, tau):
        caller = sys._getframe(1)
        if caller.f_code is backward.BackwardTableau.step.__code__:
            seen[caller.f_locals["s"]] = dw.copy()
        return weight(alpha, dw, tau)

    monkeypatch.setattr(backward, "_girsanov_weight", spy)
    for lowest in (0, 7):
        seen.clear()
        _tableau(ens, lmap, prob, [lowest, 20])
        assert sorted(seen) == list(range(lowest, n))
        for s, dw in seen.items():
            assert np.array_equal(dw.view(np.uint64), tails[:, n - 1 - s].view(np.uint64)), s


def test_forward_tableau_of_another_ensemble_is_refused(ens, lmap):
    """solve_bsde reads the paths of ``ens`` and the tableau reads the X of
    ``forward_tab``: a tableau built on other X arrays is refused, even when
    they hold equal values.  The pass hands each dW_s to the tableau's step,
    so the tableau's own dW is never read: at alpha = 0.3, a tableau built on
    other increments gives the rows of one built on none."""
    prob = _problem(affine(a=0, b=1))
    other = simulate_forward(prob, GRID, 500, seed=8)
    copy = [step.copy() for step in ens.X]
    for dW, X in ((other.dW, other.X), (ens.dW, copy), (None, copy)):
        ftab = MalliavinTableau(dW, X, lmap, GRID.dt)
        with pytest.raises(SolverError, match="this ensemble's own X"):
            solve_bsde(ens, prob, BASIS, forward_tab=ftab, t_indices=[100])
    girsanov = _problem(affine(a=0, b=1), driver=Driver(f_of_y=trig_affine(c=0.2), alpha=0.3))
    rows = []
    for dW in (None, ens.dW):
        e = step_lists(other)
        ftab = MalliavinTableau(dW, e.X, lmap, GRID.dt)
        tab = solve_bsde(e, girsanov, BASIS, forward_tab=ftab, t_indices=[100]).tableau
        rows.append((tab.dy_matrix(100), tab.dz_matrix(100)))
    for a, b in zip(*rows):
        assert np.array_equal(a, b)


def test_clark_ocone_sin_terminal(ens, lmap):
    prob = _problem(trig_affine(c=1))
    j = GRID.index_of(0.5)
    sol, tab = _tableau(ens, lmap, prob, [j, GRID.n_steps],
                        basis=RegressionBasis("polynomial-in-x", 6))
    W = brownian_matrix(path_matrices(ens)[0])
    oracle = np.cos(W[:, j]) * np.exp(-0.25)
    zc = tab.z_clark_all(j)
    assert np.sqrt(((zc - oracle) ** 2).mean()) < 0.03 * oracle.std()
    # t = T short-circuits to D_T xi
    assert np.array_equal(tab.z_clark_all(GRID.n_steps), np.cos(W[:, -1]))


def test_cross_estimator_agreement(ens, lmap):
    # the solver's Z and the Clark-Ocone Z estimate the same process
    for prob, scale in (
        (_problem(affine(a=0, b=1)), 1.0),
        (_problem(affine(a=0, b=1), driver=Driver(f_of_y=affine(b=0.5))),
         np.exp(0.5 * 0.5)),
    ):
        j = GRID.index_of(0.5)
        sol, tab = _tableau(ens, lmap, prob, [j])
        diff = tab.z_clark_all(j) - sol.z_at(j)
        assert np.sqrt((diff**2).mean()) < 0.03 * scale


def test_dy_bounds_invariant(ens, lmap):
    a = 0.5
    prob = _problem(affine(a=0, b=1), driver=Driver(f_of_y=affine(b=a)))
    j = GRID.index_of(0.5)
    _, tab = _tableau(ens, lmap, prob, [j])
    dym = tab.dy_matrix(j)
    c_hat = np.exp(-a * 1.0) * 1.0          # e^{-sup|f_y| T} c_xi
    C_hat = np.exp(a * 1.0) * (1.0 + 0.0)   # e^{sup|f_y| T} (C_xi + T sup|f_x| C_X)
    assert dym.min() >= c_hat - 1e-9
    assert dym.max() <= C_hat + 1e-9


def test_dz_convex_terminal_chain_bounds(ens, lmap):
    prob = _problem(quadratic(c=0.5))
    j = GRID.index_of(0.5)
    _, tab = _tableau(ens, lmap, prob, [j])
    dzm = tab.dz_matrix(j)
    # phi'' = 1, f = 0: the envelope constants collapse to c = C = 1
    assert np.abs(dzm - 1.0).max() < 1e-9


def test_adaptedness_measurability(ens):
    """Y_t is an exact function of the stored time-t regression output."""
    prob = _problem(affine(a=0, b=1))
    sol = solve_bsde(step_lists(ens), prob, BASIS)
    rec = sol.records[100]
    assert rec["step"] == 100
    assert "coeffs_y" in rec and "x_mean" in rec


def test_adaptedness_future_shuffle(ens, lmap):
    """With a zero driver and xi = phi(X_T) the Y-sweep touches increments
    only through X: a permutation of future increments across paths leaves
    every Y regression bit-identical (the control variate, which
    deliberately uses increments, is switched off)."""
    prob = _problem(affine(a=0, b=1), terminal="phi-of-xt")
    every = range(GRID.n_steps + 1)
    base = solve_bsde(step_lists(ens), prob, BASIS, z_control_variate=False, t_indices=every)
    i_cut = 100
    rng = np.random.default_rng(0)
    perm = rng.permutation(ens.n_paths)
    dW2 = [step[perm] if i >= i_cut else step for i, step in enumerate(ens.dW)]
    tampered = PathEnsemble(
        grid=ens.grid, n_paths=ens.n_paths, master_seed=ens.master_seed,
        x0=ens.x0, dW=dW2, X=list(ens.X),
        path_ids=ens.path_ids, n_flagged=0, n_requested=ens.n_requested,
    )
    shuffled = solve_bsde(tampered, prob, BASIS, z_control_variate=False, t_indices=every)
    assert np.array_equal(_matrix(base.y_at, every), _matrix(shuffled.y_at, every))
    for i in range(GRID.n_steps):
        assert np.array_equal(
            base.records[i]["coeffs_y"], shuffled.records[i]["coeffs_y"]
        )
    # Z at steps past the cut does change (it reads the shuffled increments)
    assert not np.array_equal(_matrix(base.z_at, every[i_cut:]),
                              _matrix(shuffled.z_at, every[i_cut:]))


def test_rank_deficiency_error():
    prob = _problem(affine(a=0, b=1))
    grid = TimeGrid(1.0, 4)
    tiny = simulate_forward(prob, grid, 4, seed=1)
    with pytest.raises(SolverError) as err:
        solve_bsde(tiny, prob, RegressionBasis("polynomial-in-x", 6, ridge=0.0))
    assert "time step" in str(err.value)


def _running_power(v, p):
    """v * v * ... * v (p factors, left to right); ones for p = 0."""
    out = np.ones_like(v)
    for _ in range(p):
        out = out * v
    return out


def _design(kind, degree):
    """A degree-``degree`` design on 10k normal draws of (x, w), with the
    standardized states and the monomials of its rule, less their means: a
    running product in x, ``xs**p * ws**q`` in (x, w)."""
    rng = np.random.default_rng(11)
    x, w = rng.standard_normal(10_000), 2.0 + 0.5 * rng.standard_normal(10_000)
    design = _StepDesign(RegressionBasis(kind, degree), x, w, 0.0, 0)
    xs = (x - float(x.mean())) / float(x.std())
    ws = (w - float(w.mean())) / float(w.std())
    if kind == "polynomial-in-x":
        monomials = [_running_power(xs, p) for p, _ in design.powers]
    else:
        monomials = [xs**p * ws**q for p, q in design.powers]
    return design, x, w, xs, [m - float(m.mean()) for m in monomials]


def test_design_columns_are_running_products():
    """In the basis in x each design column is the running product of the
    standardized state (``xs*xs*xs``) less its mean, bit for bit, and the
    product is within 2 p eps of ``np.power``, relative."""
    design, _, _, xs, centered = _design("polynomial-in-x", 6)
    assert design.D.shape == (10_000, 7)
    assert np.array_equal(design.D[:, 0], np.ones(10_000))
    for j, ((p, _), col) in enumerate(zip(design.powers, centered), 1):
        np.testing.assert_array_equal(design.D[:, j], col, err_msg=f"power {p}")
        product, by_power = _running_power(xs, p), xs**p
        bound = 2 * p * np.finfo(float).eps * np.abs(by_power)
        assert np.all(np.abs(product - by_power) <= bound), p


def test_xw_design_columns_are_powers():
    """The basis in (x, w) keeps ``xs**p * ws**q`` less its mean, bit for
    bit: its design is ill-conditioned enough that an ulp move of a column
    moves the fits far beyond one."""
    design, _, _, _, centered = _design("polynomial-in-xw", 6)
    assert design.D.shape == (10_000, len(centered) + 1)
    for j, ((p, q), col) in enumerate(zip(design.powers, centered), 1):
        np.testing.assert_array_equal(design.D[:, j], col, err_msg=f"column {(p, q)}")


@pytest.mark.parametrize("kind", ["polynomial-in-x", "polynomial-in-xw"])
def test_evaluate_builds_the_design_columns(kind):
    """On the fitting sample ``evaluate`` builds the design's columns by the
    design's rule: with identity coefficients it returns ``D`` and the rule's
    columns less their means, bit for bit."""
    design, x, w, _, centered = _design(kind, 6)
    cols = design.evaluator().evaluate(np.eye(len(centered) + 1), x, w)
    np.testing.assert_array_equal(cols, design.D)
    for j, col in enumerate(centered, 1):
        np.testing.assert_array_equal(cols[:, j], col)


def test_xw_basis_runs(ens, lmap):
    prob = _problem(trig_affine(c=1), b=affine(b=-0.5))
    prob_map = LampertiMap(prob.sigma, prob.b, prob.box)
    e2 = simulate_forward(prob, TimeGrid(1.0, 50), 4000, seed=3)
    dW = path_matrices(e2)[0]
    sol = solve_bsde(e2, prob, RegressionBasis("polynomial-in-xw", 3), t_indices=[0, 50])
    assert np.array_equal(sol.y_at(50), np.sin(brownian_matrix(dW)[:, -1]))
    assert abs(sol.y_at(0)[0] - np.sin(0) * np.exp(-0.5)) < 0.05


def test_ordering_errors(ens, lmap):
    prob = _problem(affine(a=0, b=1))
    sol, tab = _tableau(ens, lmap, prob, [20, 30, 40])
    with pytest.raises(OrderingError):
        tab.dy_matrix(20, thetas=[50])
    with pytest.raises(OrderingError):
        tab.d2y_all(10, 60, 40)
    with pytest.raises(OrderingError):
        tab.dz_matrix(30, thetas=[80])
    # only declared rows are kept
    for row in (tab.dy_matrix, tab.d2y_fits, tab.z_clark_all, tab.dz_matrix):
        with pytest.raises(OrderingError, match="not declared"):
            row(21)
    with pytest.raises(OrderingError, match="not declared"):
        tab.dy_matrix(21, thetas=[10])
    # the solution keeps Y and Z at the same declared indices only
    for column in (sol.y_at, sol.z_at):
        with pytest.raises(OrderingError, match="not declared"):
            column(21)
    with pytest.raises(OrderingError, match="declared t indices"):
        solve_bsde(ens, prob, BASIS, t_indices=[GRID.n_steps + 1])
    for bad in ([], [GRID.n_steps + 1], [-1, 20]):
        with pytest.raises(OrderingError, match="declared t indices"):
            solve_bsde(ens, prob, BASIS, forward_tab=tab.ftab, t_indices=bad)


def test_non_finite_values_fail_loud(lmap):
    prob = _problem(affine(a=0, b=1), driver=Driver(f_of_y=affine(b=0.5)))
    grid = TimeGrid(1.0, 10)
    small = simulate_forward(prob, grid, 500, seed=1)
    # a NaN state must not become an all-zero regression column
    X = list(small.X)
    X[4] = X[4].copy()
    X[4][7] = np.nan
    bad = PathEnsemble(
        grid=grid, n_paths=small.n_paths, master_seed=small.master_seed,
        x0=small.x0, dW=list(small.dW), X=X,
        path_ids=small.path_ids, n_flagged=0, n_requested=small.n_requested,
    )
    with pytest.raises(SolverError, match="non-finite x state .* time step 4"):
        solve_bsde(bad, prob, BASIS)
    # an overflowing driver
    huge = _problem(affine(a=0, b=1), driver=Driver(f_of_y=affine(b=1e308)))
    with pytest.raises(SolverError, match="non-finite Y at time step 9"), \
            np.errstate(over="ignore", invalid="ignore"):
        solve_bsde(step_lists(small), huge, BASIS)
    # a NaN reaching a kept tableau row through the f_x integrand at step 5
    curved = _problem(affine(a=0, b=1),
                      driver=Driver(f_of_x=affine(b=0.1), f_of_y=trig_affine(c=0.2)))

    def solve_with_nan(t_indices):
        e = step_lists(small)
        ftab = MalliavinTableau(e.dW, e.X, lmap, small.grid.dt)
        assert ftab.constant_drift  # B is a zero view whatever A holds: the NaN enters through A
        ftab.A = [a.copy() for a in ftab.A]  # sigma and b are constant: A is read-only zero views
        ftab.A[5][3] = np.nan
        return solve_bsde(e, curved, BASIS, forward_tab=ftab, t_indices=t_indices)

    with np.errstate(invalid="ignore"):
        with pytest.raises(SolverError, match="non-finite D_theta Y row at time step 2"):
            solve_with_nan([2])
        # rows after the NaN stay clean
        solve_with_nan([6])


def test_constant_drift_integrals_are_zero_views():
    """Constant sigma and b: A and B are read-only zero views in the forward
    tableau and in a replay sweep, and every row is bitwise the one built on
    a materialised zero A and B; a non-constant b still gets a computed A."""
    prob = _problem(quadratic(b=1, c=0.1), terminal="phi-of-xt", b=constant(0.3),
                    driver=Driver(f_of_x=affine(b=0.1), f_of_y=trig_affine(c=0.2)))
    grid = TimeGrid(1.0, 20)
    ens = simulate_forward(prob, grid, 2000, seed=3)
    pmap = LampertiMap(prob.sigma, prob.b, prob.box)
    rows = [5, 10]
    tabs = []
    for materialise in (False, True):
        e = step_lists(ens)
        ftab = MalliavinTableau(e.dW, e.X, pmap, ens.grid.dt)
        if materialise:  # B is integrated from the zero integrand on a dense zero A
            ftab.A, ftab.constant_drift = [np.zeros(ens.n_paths) for _ in ens.X], False
        else:
            assert all(a.strides == b.strides == (0,) for a, b in zip(ftab.A, ftab.B()))
        tabs.append(solve_bsde(e, prob, BASIS, forward_tab=ftab, t_indices=rows).tableau)
    view, dense = tabs
    for i in rows:
        for row in (view.dy_matrix, view.d2y_fits, view.z_clark_all, view.dz_matrix):
            assert np.array_equal(row(i), getattr(dense, row.__name__)(i))
    sweep = backward.make_replay_sweep(prob, grid, pmap, 10)(path_matrices(ens)[0][:300])
    phi = backward.make_phi_row(view, 10, "Z")
    got = phi(sweep)
    assert all(a.strides == b.strides == (0,) for a, b in zip(sweep.A, sweep.B()))
    sweep.A, sweep.constant_drift = [np.zeros(sweep.n_paths) for _ in sweep.X], False
    sweep._exp_neg_A = None  # the first call cached exp(-A) of the zero view
    assert np.array_equal(phi(sweep), got)
    ou = LampertiMap(constant(1), affine(b=-0.5), prob.box)
    A = MalliavinTableau(None, ens.X, ou, grid.dt).A
    assert all(a.flags.writeable and a.strides != (0,) for a in A)
    assert np.allclose(np.stack(A, axis=1), -0.5 * grid.nodes, atol=1e-12)


def _s2_problem():
    return ProblemSpec(
        x0=0.0, T=1.0, b=trig_affine(c=0.3), sigma=trig_affine(a=2, b=0.5),
        driver=Driver(f_of_x=affine(b=0.1), f_of_y=trig_affine(c=0.2)),
        terminal="phi-of-xt", phi=trig_affine(c=0.1, d=1), box=(-12, 12),
    )


def _constant_drift_problem():
    return _problem(quadratic(b=1, c=0.1), terminal="phi-of-xt", b=constant(0.3),
                    driver=Driver(f_of_x=affine(b=0.1), f_of_y=trig_affine(c=0.2)))


BITWISE_CASES = {"s2": _s2_problem, "constant-drift": _constant_drift_problem}


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("case", sorted(BITWISE_CASES))
def test_replay_sweep_is_the_main_run_tableau(case):
    """One forward-tableau build serves both runs: a replay of the main run's
    own increments holds the prefix of its tableau bit for bit, B included
    (read on S2, where sigma is non-constant; zero views under constant drift)."""
    prob = BITWISE_CASES[case]()
    grid = TimeGrid(1.0, 20)
    ens = simulate_forward(prob, grid, 1500, seed=5)
    assert ens.n_flagged == 0 and ens.n_paths > _ROW_BLOCK
    pmap = LampertiMap(prob.sigma, prob.b, prob.box)
    main = MalliavinTableau(ens.dW, ens.X, pmap, grid.dt)
    t_max = 12
    replay = backward.make_replay_sweep(prob, grid, pmap, t_max,
                                        reads_w=True)(path_matrices(ens)[0])
    # dW, X, A and B are indexed step first
    assert np.array_equal(_bits(replay.dW), _bits(main.dW[:t_max]))
    assert np.array_equal(_bits(replay.X), _bits(main.X[: t_max + 1])), "X"
    assert np.array_equal(_bits(replay.A), _bits(main.A[: t_max + 1])), "A"
    assert np.array_equal(_bits(replay.B()), _bits(main.B()[: t_max + 1]))
    zero_views = case == "constant-drift"
    for tab in (main, replay):
        assert all(a.strides == b.strides == (0,)
                   for a, b in zip(tab.A, tab.B())) == zero_views
    assert zero_views or np.abs(replay.B()).max() > 0


@pytest.mark.parametrize("case", sorted(BITWISE_CASES))
def test_row_columns_are_matrix_columns(case):
    """dy_matrix / dz_matrix given a theta list assemble those columns with
    the whole row's formula: every single-theta column, and an unordered
    list of them, is bitwise the whole matrix's columns."""
    prob = BITWISE_CASES[case]()
    grid = TimeGrid(1.0, 20)
    ens = simulate_forward(prob, grid, 1500, seed=5)
    pmap = LampertiMap(prob.sigma, prob.b, prob.box)
    ftab = MalliavinTableau(ens.dW, ens.X, pmap, grid.dt)
    rows = [5, 12, grid.n_steps]
    tab = solve_bsde(ens, prob, BASIS, forward_tab=ftab, t_indices=rows).tableau
    for t in rows:
        assert np.abs(tab.dz_fits(t)[3]).max() > 0  # dz reads B_t
        for matrix in (tab.dy_matrix, tab.dz_matrix):
            whole = matrix(t)
            for theta in range(t + 1):
                assert np.array_equal(_bits(matrix(t, thetas=[theta])[:, 0]),
                                      _bits(whole[:, theta]))
            picks = [t, 0, t // 2]
            assert np.array_equal(_bits(matrix(t, thetas=picks)), _bits(whole[:, picks]))


def test_tableau_memory_stays_linear_in_paths():
    """Beyond its Y/Z outputs the sweep keeps O(n_paths) running state and the
    declared rows; no path matrix is built (B is held as marks)."""
    prob = _s2_problem()
    ens = simulate_forward(prob, GRID, 4000, seed=5)
    pmap = LampertiMap(prob.sigma, prob.b, prob.box)
    ftab = MalliavinTableau(ens.dW, ens.X, pmap, ens.grid.dt)
    rows = [GRID.index_of(t) for t in (0.25, 0.5, 0.75)]

    def solve_and_read_rows():
        sol = solve_bsde(ens, prob, BASIS, forward_tab=ftab, t_indices=rows)
        tab = sol.tableau
        for i in rows:
            tab.dy_matrix(i), tab.d2y_fits(i), tab.z_clark_all(i), tab.dz_matrix(i)
        return sol

    sol, _, retained = traced(solve_and_read_rows)
    kept = sum(sol.y_at(i).nbytes + sol.z_at(i).nbytes for i in rows)
    x_bytes = 8 * ens.n_paths * (GRID.n_steps + 1)  # one path matrix of X
    assert retained - kept < 4 * x_bytes


def test_f_x_reads_b_without_a_path_matrix():
    """B is held as marks about every sqrt(n) steps plus one rebuilt segment:
    with f_x != 0 the traced peak of solve_bsde stays within 0.6 X matrices
    of the same solve with f_x = 0, which reads no B (a held B is one X
    matrix).  A kept row's design holds no (n_paths, p) array."""
    base = replace(_s2_problem(), terminal="phi-of-wt",
                   driver=Driver(f_of_y=trig_affine(c=0.2)))
    grid = TimeGrid(1.0, 40)
    ens = simulate_forward(base, grid, 8000, seed=5)
    pmap = LampertiMap(base.sigma, base.b, base.box)

    def peak(prob):
        e = step_lists(ens)
        ftab = MalliavinTableau(e.dW, e.X, pmap, grid.dt)
        sol, top, _ = traced(solve_bsde, e, prob, BASIS, forward_tab=ftab,
                             t_indices=[10, 20, 30])
        return top, sol.tableau

    with_fx = replace(base, driver=replace(base.driver, f_of_x=affine(b=0.1)))
    (top_fx, tab), (top, _) = peak(with_fx), peak(base)
    x_bytes = 8 * ens.n_paths * (grid.n_steps + 1)  # one path matrix of X
    assert (top_fx - top) / x_bytes < 0.6
    for t in (10, 20, 30):
        row = tab._row(t)
        assert row.b is not None
        assert row.b.base is None  # a kept B_t column pins no segment matrix
        assert not any(isinstance(v, np.ndarray) and v.shape[0] == ens.n_paths
                       for v in vars(row.design).values())


def test_d2y_reads_b_from_a_declared_row():
    """After the pass, D2Y with a non-zero f4 reads B at max(theta, t) from
    the row kept there, not from the steps of X the pass has released: on
    S2 with rows 20 and 30 it has the bits of a pass that declares every
    index, and an undeclared max(theta, t) raises OrderingError naming it."""
    prob = _s2_problem()
    ens = simulate_forward(prob, TimeGrid(1.0, 40), 2000, seed=5)
    pmap = LampertiMap(prob.sigma, prob.b, prob.box)
    _, some = _tableau(ens, pmap, prob, [20, 30])
    _, every = _tableau(ens, pmap, prob, range(41))
    assert some.d2y_fits(30)[3].any()
    got, want = some.d2y_all(10, 20, 30), every.d2y_all(10, 20, 30)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    with pytest.raises(OrderingError, match="t index 25 was not declared"):
        some.d2y_all(10, 25, 30)


@pytest.mark.parametrize("source", ["simulated", "loaded"])
def test_pass_frees_each_step_it_has_read(tmp_path, source):
    """solve_bsde consumes its ensemble: once it returns, every step of dW
    and every undeclared step of X is freed, for a simulated ensemble and
    for one loaded from a dump; the declared steps of X stay, bitwise the
    simulated ones."""
    prob = _s2_problem()
    grid = TimeGrid(1.0, 20)
    ens = simulate_forward(prob, grid, 1500, seed=5)
    X = path_matrices(ens)[1]
    if source == "loaded":
        dump_ensemble(ens, tmp_path / "ens.bin")
        ens = load_ensemble(tmp_path / "ens.bin")
    rows = [5, 12]
    dW_refs = [weakref.ref(step) for step in ens.dW]
    X_refs = [weakref.ref(step) for step in ens.X]
    ftab = MalliavinTableau(ens.dW, ens.X, LampertiMap(prob.sigma, prob.b, prob.box), grid.dt)
    sol = solve_bsde(ens, prob, BASIS, forward_tab=ftab, t_indices=rows)
    assert sorted(sol.tableau._rows) == rows
    assert all(ref() is None for ref in dW_refs)
    assert [i for i, ref in enumerate(X_refs) if ref() is not None] == rows
    for i in rows:
        assert ens.X[i] is X_refs[i]()
        assert np.array_equal(_bits(ens.X[i]), _bits(X[:, i]))


def test_xw_pass_frees_each_w_step_it_has_read(monkeypatch):
    """The basis in (x, w) reads W_i at step i only, and the pass frees it
    with dW_i: when the design of step i - 1 is built, no W step that an
    earlier design read is alive.  The weakref is taken to the array that
    owns the step's memory, so a column view of a W matrix counts as the
    matrix."""
    prob = _s2_problem()
    grid = TimeGrid(1.0, 20)
    ens = simulate_forward(prob, grid, 1500, seed=5)
    init, refs, alive = _StepDesign.__init__, {}, {}

    def spy(self, basis, x, w, ridge, step):
        alive[step] = [i for i, ref in refs.items() if ref() is not None]
        refs[step] = weakref.ref(w if w.base is None else w.base)
        init(self, basis, x, w, ridge, step)

    monkeypatch.setattr(_StepDesign, "__init__", spy)
    solve_bsde(ens, prob, RegressionBasis("polynomial-in-xw", 2), t_indices=[5, 12])
    assert sorted(refs) == list(range(grid.n_steps))
    assert all(not held for held in alive.values()), alive
    assert all(ref() is None for ref in refs.values())


def test_pass_peak_falls_as_it_frees_steps():
    """The pass frees each step of dW and X once it has read it, so its
    traced peak above its entry no longer reaches its lowest declared row
    with both path sets whole: on the S2 model at 20000 x 40 with rows
    10/20/30 it is 1.51 X path matrices, against 2.44 when every step was
    held to the end of the pass.  Tracing starts before the simulation, so
    the freed steps count."""
    prob = _s2_problem()
    grid = TimeGrid(1.0, 40)
    tracemalloc.start()
    try:
        ens = simulate_forward(prob, grid, 20000, seed=5)
        lmap = LampertiMap(prob.sigma, prob.b, prob.box)
        ftab = MalliavinTableau(ens.dW, ens.X, lmap, grid.dt)
        _, peak, _ = traced(solve_bsde, ens, prob, BASIS, forward_tab=ftab,
                            t_indices=[10, 20, 30])
    finally:
        tracemalloc.stop()
    x_bytes = 8 * ens.n_paths * (grid.n_steps + 1)  # one path matrix of X
    assert peak / x_bytes < 2.0


def _consumed_s2():
    """A small S2 ensemble after a pass declared at step 5 only."""
    prob = _s2_problem()
    grid = TimeGrid(1.0, 10)
    ens = simulate_forward(prob, grid, 500, seed=5)
    solve_bsde(ens, prob, BASIS, t_indices=[5])
    return prob, ens


def test_second_pass_on_a_consumed_ensemble_fails_loud():
    prob, ens = _consumed_s2()
    with pytest.raises(SolverError, match="step 0 of dW was released: a backward pass consumed"):
        solve_bsde(ens, prob, BASIS, t_indices=[5])


def test_forward_tableau_of_a_consumed_ensemble_fails_loud():
    prob, ens = _consumed_s2()
    lmap = LampertiMap(prob.sigma, prob.b, prob.box)
    with pytest.raises(SolverError, match="step 0 of dW was released: a backward pass consumed"):
        MalliavinTableau(ens.dW, ens.X, lmap, ens.grid.dt)
    with pytest.raises(SolverError, match="step 0 of X was released: a backward pass consumed"):
        MalliavinTableau(None, ens.X, lmap, ens.grid.dt)


def test_tableau_step_holds_one_steps_working_set(monkeypatch):
    """BackwardTableau.step updates its running state in place: on the S2
    model at 20000 x 40 no step peaks more than 34 path vectors above its
    entry, the declared rows included (out of place, a declared row took
    46).  Inside the trace of the whole solve, the blocks a step frees count
    too."""
    prob = _s2_problem()
    grid = TimeGrid(1.0, 40)
    ens = simulate_forward(prob, grid, 20000, seed=5)
    ftab = MalliavinTableau(ens.dW, ens.X, LampertiMap(prob.sigma, prob.b, prob.box), grid.dt)
    step, peaks = backward.BackwardTableau.step, []

    def traced_step(self, *args):
        peaks.append(traced(step, self, *args)[1])

    monkeypatch.setattr(backward.BackwardTableau, "step", traced_step)
    traced(solve_bsde, ens, prob, BASIS, forward_tab=ftab, t_indices=[10, 20, 30])
    assert len(peaks) == grid.n_steps - 10 + 1
    assert max(peaks) / (8 * ens.n_paths) <= 34


def test_dy_row_peak_is_two_rows():
    """dy_matrix holds e^{-A} and its output row, nothing more: the density
    stage's peak on the default configuration is set by this row."""
    prob = _s2_problem()
    ens = simulate_forward(prob, GRID, 4000, seed=5)
    pmap = LampertiMap(prob.sigma, prob.b, prob.box)
    ftab = MalliavinTableau(ens.dW, ens.X, pmap, ens.grid.dt)
    t_idx = GRID.index_of(0.75)
    tab = solve_bsde(ens, prob, BASIS, forward_tab=ftab, t_indices=[t_idx]).tableau
    row_bytes = ens.n_paths * (t_idx + 1) * 8
    _, peak, _ = traced(tab.dy_matrix, t_idx)
    assert peak < 2.1 * row_bytes


def test_dz_row_allocates_two_rows():
    """_dz_row accumulates in place: its output row and one product row, with
    the bits of the plain expression."""
    rng = np.random.default_rng(3)
    n_paths, width = 20000, 151
    ea_th = np.exp(-rng.random((n_paths, width)))
    fa, fbc, inner, ea_t = rng.standard_normal((4, n_paths))
    row_bytes = ea_th.nbytes
    out, peak, _ = traced(backward._dz_row, fa, fbc, inner, ea_th, ea_t)
    assert peak <= 2.1 * row_bytes
    e = ea_t[:, None]
    expect = fa[:, None] + (ea_th + e) * fbc[:, None] + ea_th * e * inner[:, None]
    assert np.array_equal(out, expect)


def test_one_design_per_step(monkeypatch):
    """The solver and the tableau share each step's regression design."""
    built = []

    class CountingDesign(_StepDesign):
        def __init__(self, *args, **kwargs):
            built.append(args[-1])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(backward, "_StepDesign", CountingDesign)
    prob = _s2_problem()
    grid = TimeGrid(1.0, 40)
    ens = simulate_forward(prob, grid, 2000, seed=5)
    pmap = LampertiMap(prob.sigma, prob.b, prob.box)
    ftab = MalliavinTableau(ens.dW, ens.X, pmap, ens.grid.dt)
    sol = solve_bsde(ens, prob, BASIS, forward_tab=ftab, t_indices=[10, 20, 30])
    assert len(built) == grid.n_steps
    assert sorted(sol.tableau._rows) == [10, 20, 30]


def test_terminal_phi_of_xt(lmap):
    # xi = phi(X_T) with X an OU path: D xi = phi'(X_T) D X_T
    prob = ProblemSpec(
        x0=0.5, T=1.0, b=affine(b=-0.5), sigma=constant(1), driver=Driver(),
        terminal="phi-of-xt", phi=quadratic(a=0, b=1, c=0.1), box=(-12, 12),
    )
    pmap = LampertiMap(prob.sigma, prob.b, prob.box)
    e = simulate_forward(prob, TimeGrid(1.0, 100), 5000, seed=11)
    ftab = MalliavinTableau(e.dW, e.X, pmap, e.grid.dt)
    n = e.grid.n_steps
    tab = solve_bsde(e, prob, BASIS, forward_tab=ftab, t_indices=[n]).tableau
    # at t = T the row is the exact pathwise derivative
    dy_T = tab.dy_matrix(n, thetas=[GRID.index_of(0.3)])[:, 0]
    expect = (1 + 0.2 * e.X[-1]) * ftab.first_x_all(GRID.index_of(0.3), n)
    assert np.allclose(dy_T, expect, atol=1e-12)


# ---------------------------------------------------------------------------
# Direct-assembly oracle for the factorized D2Y / DZ representations
# ---------------------------------------------------------------------------


def _fit_at(sol, paths, t, target):
    tab = sol.tableau
    dW, X = paths
    W = brownian_matrix(dW)
    lam = backward._girsanov_weight(tab.problem.driver.alpha, W[:, tab.n] - W[:, t],
                                    (tab.n - t) * tab.dt)
    if lam is not None:
        target = target * lam
    w = W[:, t] if tab.basis.reads_w else None
    design = _StepDesign(tab.basis, X[:, t], w, sol.ridge_used, t)
    fitted, _ = design.fit(target)
    return fitted


def _phi_T(tab, paths, order):
    wt = tab.problem.terminal == "phi-of-wt"
    dW, X = paths
    arg = brownian_matrix(dW)[:, -1] if wt else X[:, -1]
    return eval_derivative(tab.problem.phi, order, arg)


def _int_fy(sol, X):
    """Cumulative trapezoid E_s = int_0^s f_y per path."""
    tab = sol.tableau
    Y = _matrix(sol.y_at, range(tab.n + 1))
    return _cumtrapz(tab.problem.driver.partial(0, 1, X, Y), tab.dt)


def _direct_dy(sol, paths, theta, t):
    """Direct per-theta assembly of the two DY conditional parts.

    The history factor exp(-A_theta) is F_t-measurable and multiplies
    pathwise after the regression, exactly as in the true conditional
    expectation; the assembly here uses explicit trapezoids instead of
    cumulative differences, so it cross-checks the factorization algebra."""
    tab = sol.tableau
    ftab = tab.ftab
    X = paths[1]
    n, dt = tab.n, tab.dt
    E = _int_fy(sol, X)
    fx = tab.problem.driver.partial(1, 0, X, _matrix(sol.y_at, range(n + 1)))
    sigX = eval_derivative(tab.problem.sigma, 0, X)
    A = np.stack(ftab.A, axis=1)
    dx_free = sigX * np.exp(A)  # DX(theta, s) = dx_free * e^{-A_theta}
    integrand = np.exp(E - E[:, t][:, None]) * fx * dx_free
    w = np.full(n + 1 - t, dt)
    w[0] = w[-1] = 0.5 * dt
    part2 = integrand[:, t:] @ w
    phi1 = _phi_T(tab, paths, 1)
    if tab.problem.terminal == "phi-of-wt":
        part1 = np.exp(E[:, n] - E[:, t]) * phi1
    else:
        part1 = np.zeros(len(X))
        part2 = part2 + np.exp(E[:, n] - E[:, t]) * phi1 * dx_free[:, n]
    return (_fit_at(sol, paths, t, part1)
            + np.exp(-A[:, theta]) * _fit_at(sol, paths, t, part2))


def _direct_d2y(sol, paths, theta, t, s):
    """Direct assembly of the D2Y conditional parts for fixed (theta, t).

    The F_s-measurable multipliers (exp(-A_theta), exp(-A_t), B_t) are pulled
    out of each regression pathwise; the theta/t-free targets are assembled
    by explicit trapezoids."""
    tab = sol.tableau
    ftab = tab.ftab
    n, dt = tab.n, tab.dt
    X, Y = paths[1], _matrix(sol.y_at, range(n + 1))
    drv = tab.problem.driver
    N = len(X)
    E = _int_fy(sol, X)
    A, B = np.stack(ftab.A, axis=1), np.stack(ftab.B(), axis=1)
    ea_th = np.exp(-A[:, theta])
    ea_t = np.exp(-A[:, t])
    Bt = B[:, t]
    expE = np.exp(E - E[:, s][:, None])
    sigX = eval_derivative(tab.problem.sigma, 0, X)
    sig1X = eval_derivative(tab.problem.sigma, 1, X)
    dx_free = sigX * np.exp(A)
    g1 = np.column_stack([tab.dy_fits(r)[0] for r in range(n + 1)])
    g2 = np.column_stack([tab.dy_fits(r)[1] for r in range(n + 1)])
    w = np.full(n + 1 - s, dt)
    w[0] = w[-1] = 0.5 * dt

    def integ(rows):
        if s == n:
            return np.zeros(N)
        return (expE * rows)[:, s:] @ w

    fyy = drv.partial(0, 2, X, Y)
    fyx = drv.partial(1, 1, X, Y)
    fxx = drv.partial(2, 0, X, Y)
    fx = drv.partial(1, 0, X, Y)
    h0 = integ(fyy * g1 * g1)
    h12 = integ(fyx * dx_free * g1 + fyy * g1 * g2)
    h3 = integ(
        2 * fyx * dx_free * g2
        + fyy * g2 * g2
        + fxx * dx_free**2
        + fx * sig1X * sigX * np.exp(2 * A)
        + fx * sigX * np.exp(A) * B
    )
    h4 = integ(fx * sigX * np.exp(A))
    tail = np.exp(E[:, n] - E[:, s])
    phi1, phi2 = _phi_T(tab, paths, 1), _phi_T(tab, paths, 2)
    if tab.problem.terminal == "phi-of-wt":
        h0 = h0 + tail * phi2
    else:
        h3 = h3 + tail * (
            phi2 * dx_free[:, n] ** 2
            + phi1 * sig1X[:, n] * sigX[:, n] * np.exp(2 * A[:, n])
            + phi1 * dx_free[:, n] * B[:, n]
        )
        h4 = h4 + tail * phi1 * dx_free[:, n]
    if s == n:
        f0, f12, f3, f4 = h0, h12, h3, h4
    else:
        f0 = _fit_at(sol, paths, s, h0)
        f12 = _fit_at(sol, paths, s, h12)
        f3 = _fit_at(sol, paths, s, h3)
        f4 = _fit_at(sol, paths, s, h4)
    return f0 + (ea_th + ea_t) * f12 + ea_th * ea_t * f3 - Bt * ea_th * ea_t * f4


def _oracle_tableau(alpha):
    """Every index declared, on a problem exercising every term: non-constant
    sigma, x/y/cross driver parts, X_T terminal and, for alpha != 0, the
    Girsanov weights.  Returns the solution and the path matrices of its
    ensemble, copied before the pass consumed the increments."""
    prob = ProblemSpec(
        x0=0.3, T=0.5,
        b=trig_affine(c=0.3),
        sigma=trig_affine(a=2, b=1),
        driver=Driver(
            f_of_x=quadratic(a=0, b=0.1, c=0.05),
            f_of_y=quadratic(a=0, b=0.2, c=0.1),
            cross_x=affine(a=0, b=0.2),
            cross_y=affine(a=0, b=0.3),
            alpha=alpha,
        ),
        terminal="phi-of-xt",
        phi=quadratic(a=0, b=1, c=0.2),
        box=(-6, 6),
    )
    grid = TimeGrid(0.5, 40)
    ens = simulate_forward(prob, grid, 800, seed=17)
    pmap = LampertiMap(prob.sigma, prob.b, prob.box)
    ftab = MalliavinTableau(ens.dW, ens.X, pmap, ens.grid.dt)
    paths = path_matrices(ens)
    return solve_bsde(ens, prob, RegressionBasis("polynomial-in-x", 3),
                      forward_tab=ftab, t_indices=range(grid.n_steps + 1)), paths


def test_factorized_rows_match_direct_assembly():
    """The affine-in-exp(-A_theta) row factorization must agree with a direct
    per-theta assembly of the same conditional-expectation targets."""
    for alpha in (0.0, 0.3):
        sol, paths = _oracle_tableau(alpha)
        tab = sol.tableau
        for theta, t in ((4, 12), (10, 25), (0, 30)):
            fact = tab.dy_matrix(t, thetas=[theta])[:, 0]
            direct = _direct_dy(sol, paths, theta, t)
            assert np.allclose(fact, direct, rtol=1e-9, atol=1e-12)

        for theta, t, s in ((4, 12, 20), (10, 25, 32), (5, 18, 40)):
            fact = tab.d2y_all(theta, t, s)
            direct = _direct_d2y(sol, paths, theta, t, s)
            assert np.allclose(fact, direct, rtol=1e-8, atol=1e-10)


def test_dz_factorization_matches_direct_assembly():
    """D_theta Z_t via the kept fit quadruple vs a one-shot direct regression."""
    for alpha in (0.0, 0.3):
        sol, paths = _oracle_tableau(alpha)
        tab = sol.tableau
        ftab = tab.ftab
        n, dt = tab.n, tab.dt
        X, Y = paths[1], _matrix(sol.y_at, range(n + 1))
        drv = tab.problem.driver
        A, B = np.stack(ftab.A, axis=1), np.stack(ftab.B(), axis=1)
        fy, fx = drv.partial(0, 1, X, Y), drv.partial(1, 0, X, Y)
        fyy, fxy, fxx = drv.partial(0, 2, X, Y), drv.partial(1, 1, X, Y), drv.partial(2, 0, X, Y)
        phi1, phi2 = _phi_T(tab, paths, 1), _phi_T(tab, paths, 2)

        sigX = eval_derivative(tab.problem.sigma, 0, X)
        sig1X = eval_derivative(tab.problem.sigma, 1, X)
        dx_free = sigX * np.exp(A)
        g1 = np.column_stack([tab.dy_fits(r)[0] for r in range(n + 1)])
        g2 = np.column_stack([tab.dy_fits(r)[1] for r in range(n + 1)])
        F = [np.column_stack([tab.d2y_fits(r)[k] for r in range(n + 1)]) for k in range(4)]

        for theta, t in ((4, 12), (10, 25)):
            w = np.full(n + 1 - t, dt)
            w[0] = w[-1] = 0.5 * dt

            def integ(rows):
                return rows[:, t:] @ w

            ta = integ(fyy * g1 * g1 + fy * F[0])
            tbc = integ(fxy * dx_free * g1 + fyy * g1 * g2 + fy * F[1])
            td = integ(
                2 * fxy * dx_free * g2
                + fyy * g2 * g2
                + fxx * dx_free**2
                + fx * sig1X * sigX * np.exp(2 * A)
                + fx * sigX * np.exp(A) * B
                + fy * F[2]
            )
            te = integ(fx * sigX * np.exp(A) + fy * F[3])
            td = td + (
                phi2 * dx_free[:, n] ** 2
                + phi1 * sig1X[:, n] * sigX[:, n] * np.exp(2 * A[:, n])
                + phi1 * dx_free[:, n] * B[:, n]
            )
            te = te + phi1 * dx_free[:, n]
            fits = [_fit_at(sol, paths, t, tt) for tt in (ta, tbc, td, te)]
            ea_th = np.exp(-A[:, theta])
            ea_t = np.exp(-A[:, t])
            direct = (
                fits[0]
                + (ea_th + ea_t) * fits[1]
                + ea_th * ea_t * (fits[2] - B[:, t] * fits[3])
            )
            fact = tab.dz_matrix(t, thetas=[theta])[:, 0]
            assert np.allclose(fact, direct, rtol=1e-8, atol=1e-10)


def test_girsanov_derivative_representations(ens, lmap):
    """Constant targets stay correct under the measure-shift weights."""
    prob = _problem(quadratic(c=0.5), driver=Driver(alpha=0.3))
    j = GRID.index_of(0.5)
    _, tab = _tableau(ens, lmap, prob, [j])
    dz = tab.dz_matrix(j, thetas=[GRID.index_of(0.2)])[:, 0]
    # D2 xi = 1 deterministic, but the weighted regression adds MC noise
    assert abs(dz.mean() - 1.0) < 0.01
    assert dz.std() < 0.05


@pytest.mark.parametrize("n_steps, all_converged", [(8, False), (40, True)])
def test_picard_convergence_is_recorded(n_steps, all_converged):
    """Each step's record says whether its Picard iteration met the
    tolerance.  On the S2 model at the benchmark's 20000 paths, 8 steps
    leave most steps at the iteration cap short of it (the run still
    proceeds); the benchmark's 40 steps meet it at every step."""
    prob = _s2_problem()
    ens = simulate_forward(prob, TimeGrid(1.0, n_steps), 20000, seed=20240801)
    records = solve_bsde(ens, prob, BASIS).records
    converged = [r["picard_converged"] for r in records]
    assert all(converged) == all_converged
    for r in records:
        assert r["picard_converged"] or r["picard_iterations"] == backward._MAX_PICARD
    # a zero driver takes no iteration and is converged
    zero = _problem(affine(a=0, b=1))
    rec = solve_bsde(simulate_forward(zero, TimeGrid(1.0, 4), 500, seed=1), zero, BASIS).records
    assert all(r["picard_converged"] and r["picard_iterations"] == 0 for r in rec)
