"""Acceptance suite: closed-form oracles at the stated tolerances.

Each criterion prints one pass/fail line.  The heavyweight criteria share a
module-scoped 200k-path ensemble (the same driftless unit-diffusion forward
serves several backward problems).
"""

import gc
import os

import numpy as np
import pytest
from scipy.stats import norm

from bsdedensity.cli import main
from bsdedensity.coeffs import (
    Driver,
    ProblemSpec,
    affine,
    check_hypotheses,
    constant,
    eval_derivative,
    polynomial,
    quadratic,
    scaled_sigmoid,
    trig_affine,
)
from bsdedensity.backward import (
    RegressionBasis,
    solve_bsde,
)
from bsdedensity.errors import GlobalDomainError
from bsdedensity.forward import (
    MalliavinTableau,
    TimeGrid,
    _draw_increments,
    simulate_forward,
)
from bsdedensity.lamperti import LampertiMap
from bsdedensity.nvdensity import (
    GTarget,
    derivative_bound_constants,
    estimate_g,
    gaussian_envelopes,
)
from bsdedensity.verify import envelope_check, kde, positivity_report

from oracles import (
    FD_STEPS,
    brownian_matrix,
    central_diff,
    euler_u_flow,
    path_matrices,
    second_u,
    step_lists,
)

MASTER_SEED = 20240801
BIG_N = 200000
BIG_GRID = TimeGrid(1.0, 200)


def _report(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


def _unit_problem(phi, driver=None):
    return ProblemSpec(
        x0=0.0, T=1.0, b=constant(0), sigma=constant(1),
        driver=driver or Driver(), terminal="phi-of-wt", phi=phi, box=(-12, 12),
    )


@pytest.fixture(scope="module")
def big_ens():
    prob = _unit_problem(affine(a=0, b=1))
    ens = simulate_forward(prob, BIG_GRID, BIG_N, seed=MASTER_SEED)
    yield ens
    del ens
    gc.collect()


@pytest.fixture(scope="module")
def unit_lmap():
    return LampertiMap(constant(1), constant(0), (-12, 12))


def test_criterion_01_brownian_oracle(big_ens, unit_lmap):
    """KDE of Y_0.5 vs N(0, 0.5); envelope check from tableau constants."""
    prob = _unit_problem(affine(a=0, b=1))
    ens = step_lists(big_ens)  # the pass consumes the copy's step lists only
    ftab = MalliavinTableau(ens.dW, ens.X, unit_lmap, ens.grid.dt)
    i = BIG_GRID.index_of(0.5)
    sol = solve_bsde(ens, prob, RegressionBasis("polynomial-in-x", 4),
                     forward_tab=ftab, t_indices=[i])
    btab = sol.tableau
    samples = sol.y_at(i)
    grid = np.linspace(samples.min() - 0.1, samples.max() + 0.1, 321)
    est = kde(samples, grid)
    lo, hi = np.quantile(samples, [0.025, 0.975])
    mask = (grid >= lo) & (grid <= hi)
    true = norm.pdf(grid, 0.0, np.sqrt(0.5))
    sup_rel = float(np.max(np.abs(est.density[mask] - true[mask]) / true[mask]))

    dym = btab.dy_matrix(i)
    consts = derivative_bound_constants(dym, 0.5)
    env = gaussian_envelopes(
        float(samples.mean()), float(np.abs(samples - samples.mean()).mean()),
        consts.gamma_min_sq, consts.gamma_max_sq, grid,
    )
    rep = envelope_check(est, env, 0.99, 0.0, max_violation_fraction=0.05)
    c_ok = abs(consts.c_hat - 1) < 1e-9 and abs(consts.C_hat - 1) < 1e-9
    ok = sup_rel < 0.03 and rep.verdict == "pass" and c_ok
    _report(1, ok, f"sup rel err {sup_rel:.4f} < 0.03; envelope {rep.verdict}; "
                   f"c={consts.c_hat:.3f}, C={consts.C_hat:.3f}")
    del sol, ftab, btab, dym
    gc.collect()


def test_criterion_02_envelope_identity():
    """Equal gammas give coinciding curves equal to the exact normal density."""
    t = 0.5
    z = np.linspace(-3, 3, 1201)
    env = gaussian_envelopes(0.0, np.sqrt(2 * t / np.pi), t, t, z)
    coincide = float(np.abs(env.lower - env.upper).max())
    mid = np.argmin(np.abs(z))
    peak_err = abs(env.lower[mid] - 1.0 / np.sqrt(2 * np.pi * t))
    exact = np.exp(-(z**2) / (2 * t)) / np.sqrt(2 * np.pi * t)
    curve_err = float(np.abs(env.lower - exact).max())
    ok = coincide < 1e-12 and peak_err < 1e-12 and curve_err < 1e-12
    _report(2, ok, f"curves coincide to {coincide:.2e}; peak err {peak_err:.2e}")


def test_criterion_03_g_estimator_calibration():
    """F = W_1 with Phi == 1: the g-estimate must reproduce 1 on the grid."""
    n_outer, n_steps = 10000, 50
    incs = _draw_increments(MASTER_SEED, n_outer, n_steps, 1.0 / n_steps)
    theta_w = np.full(n_steps + 1, 1.0 / n_steps)
    theta_w[0] = theta_w[-1] = 0.5 / n_steps
    target = GTarget(incs.sum(axis=1), lambda w: np.ones((w.shape[0], n_steps + 1)),
                     np.linspace(-2, 2, 21), theta_w)
    (est,) = estimate_g(
        [target], lambda w: w, n_outer, 1,
        base_increments=incs, increment_scale=np.sqrt(1.0 / n_steps),
        wprime_seed=MASTER_SEED + 1,
    )
    err = float(np.abs(est.g_values - 1.0).max())
    ok = err < 0.05
    _report(3, ok, f"max |g - 1| = {err:.2e} < 0.05 over 21-point grid")


def test_criterion_04_forward_tableau_ou():
    """OU tableau: D X agrees with exp(-kappa (t - theta)) at 1e-3."""
    kappa = 0.5
    prob = ProblemSpec(0.0, 1.0, affine(b=-kappa), constant(1), Driver(),
                       "phi-of-wt", affine(a=0, b=1), box=(-12, 12))
    grid = TimeGrid(1.0, 1000)
    ens = simulate_forward(prob, grid, 1000, seed=MASTER_SEED)
    lmap = LampertiMap(prob.sigma, prob.b, prob.box)
    tab = MalliavinTableau(ens.dW, ens.X, lmap, ens.grid.dt)
    worst = 0.0
    for t in (0.25, 0.5, 0.75, 1.0):
        ti = grid.index_of(t)
        for th in (0.0, 0.1, 0.2, 0.4, 0.6):
            if th > t:
                continue
            thi = grid.index_of(th)
            vals = tab.first_x_all(thi, ti)
            worst = max(worst, float(np.abs(vals - np.exp(-kappa * (t - th))).max()))
    ok = worst < 1e-3
    _report(4, ok, f"max |DX - exp(-kappa tau)| = {worst:.2e} < 1e-3")


def test_criterion_05_linear_driver(unit_lmap):
    """Var(Y_t) and DY against the linear-BSDE closed form."""
    a = 0.5
    prob = _unit_problem(affine(a=0, b=1), driver=Driver(f_of_y=affine(b=a)))
    grid = TimeGrid(1.0, 200)
    ens = simulate_forward(prob, grid, 100000, seed=MASTER_SEED)
    ftab = MalliavinTableau(ens.dW, ens.X, unit_lmap, ens.grid.dt)
    sol = solve_bsde(ens, prob, RegressionBasis("polynomial-in-x", 4), forward_tab=ftab,
                     t_indices=[grid.index_of(t) for t in (0.25, 0.5, 0.75)])
    btab = sol.tableau
    var_errs = []
    dy_errs = []
    for t in (0.25, 0.5, 0.75):
        j = grid.index_of(t)
        target = t * np.exp(2 * a * (1 - t))
        var_errs.append(abs(sol.y_at(j).var() / target - 1))
        dy = btab.dy_matrix(j, thetas=[grid.index_of(t / 2)])[:, 0]
        dy_errs.append(float(np.abs(dy / np.exp(a * (1 - t)) - 1).max()))
    ok = max(var_errs) < 0.02 and max(dy_errs) < 0.02
    _report(5, ok, f"max Var rel err {max(var_errs):.4f} < 0.02; "
                   f"max DY rel err {max(dy_errs):.2e} < 0.02")
    del ens, sol, ftab, btab
    gc.collect()


def test_criterion_06_clark_ocone_oracle(big_ens, unit_lmap):
    """Z_0.5 for xi = sin W_T vs cos(W_0.5) e^{-0.25}, degree-6 basis."""
    prob = _unit_problem(trig_affine(c=1))
    ens = step_lists(big_ens)  # the pass consumes the copy's step lists only
    ftab = MalliavinTableau(ens.dW, ens.X, unit_lmap, ens.grid.dt)
    j = BIG_GRID.index_of(0.5)
    sol = solve_bsde(ens, prob, RegressionBasis("polynomial-in-x", 6),
                     forward_tab=ftab, t_indices=[j])
    btab = sol.tableau
    z = btab.z_clark_all(j)
    dW = np.stack(big_ens.dW[:j], axis=1)  # the increments W_j reads, path-major
    oracle = np.cos(brownian_matrix(dW)[:, j]) * np.exp(-0.25)
    rmse = float(np.sqrt(((z - oracle) ** 2).mean()))
    ok = rmse < 0.02 * oracle.std()
    _report(6, ok, f"pathwise RMSE {rmse:.5f} < 2% of std {oracle.std():.4f}")
    del sol, ftab, btab
    gc.collect()


def test_criterion_07_girsanov_reduction():
    """Pure linear-z driver: Y_0 = alpha T within 1%."""
    alpha = 0.3
    prob = _unit_problem(affine(a=0, b=1), driver=Driver(alpha=alpha))
    grid = TimeGrid(1.0, 100)
    ens = simulate_forward(prob, grid, 200000, seed=MASTER_SEED)
    sol = solve_bsde(ens, prob, RegressionBasis("polynomial-in-x", 2), t_indices=[0])
    y0 = float(sol.y_at(0)[0])
    rel = abs(y0 - alpha * 1.0) / (alpha * 1.0)
    ok = rel < 0.01
    _report(7, ok, f"Y_0 = {y0:.5f} vs 0.3, rel err {rel:.4f} < 0.01")
    del ens, sol
    gc.collect()


def test_criterion_08_z_pipeline(big_ens, unit_lmap):
    """Convex terminal phi = w^2/2: DZ == 1, positivity, Z-envelope."""
    prob = _unit_problem(quadratic(c=0.5))
    ens = step_lists(big_ens)  # the pass consumes the copy's step lists only
    ftab = MalliavinTableau(ens.dW, ens.X, unit_lmap, ens.grid.dt)
    i = BIG_GRID.index_of(0.5)
    rows = [BIG_GRID.index_of(t) for t in (0.25, 0.5, 0.75)]
    sol = solve_bsde(ens, prob, RegressionBasis("polynomial-in-x", 4),
                     forward_tab=ftab, t_indices=rows)
    btab = sol.tableau

    dz_err = 0.0
    pool = []
    for (th, tt) in ((0.1, 0.25), (0.2, 0.5), (0.3, 0.5), (0.5, 0.75)):
        dz = btab.dz_matrix(BIG_GRID.index_of(tt), thetas=[BIG_GRID.index_of(th)])[:, 0]
        se = max(float(dz.std() / np.sqrt(len(dz))), 1e-12)
        dz_err = max(dz_err, float(np.abs(dz.mean() - 1.0) / se) if se > 1e-12 else 0.0)
        pool.append(dz)
    within_3se = all(
        abs(d.mean() - 1.0) <= 3 * max(d.std() / np.sqrt(len(d)), 1e-12) + 1e-9
        for d in pool
    )
    pos = positivity_report(np.concatenate(pool))

    samples = btab.z_clark_all(i)
    grid = np.linspace(samples.min() - 0.1, samples.max() + 0.1, 321)
    est = kde(samples, grid)
    consts = derivative_bound_constants(btab.dz_matrix(i), 0.5)
    env = gaussian_envelopes(
        float(samples.mean()), float(np.abs(samples - samples.mean()).mean()),
        consts.gamma_min_sq, consts.gamma_max_sq, grid,
    )
    rep = envelope_check(est, env, 0.99, 0.0, max_violation_fraction=0.05)
    ok = within_3se and pos.verdict == "pass" and rep.verdict == "pass"
    _report(8, ok, f"DZ within 3 MC se of 1: {within_3se}; positivity "
                   f"{pos.verdict}; Z-envelope {rep.verdict}")
    del sol, ftab, btab
    gc.collect()


def test_criterion_09_hypothesis_checker():
    """H3 pass with M <= 3, H7 failure with a correct witness, refusal."""
    prob_h3 = ProblemSpec(0.0, 1.0, trig_affine(c=1), trig_affine(a=2, b=1),
                          Driver(), "phi-of-wt", affine(a=0, b=1), box=(-8, 8))
    rep3 = check_hypotheses(prob_h3, (-4, 4), 2001)
    h3 = rep3.checks["H3"]
    h3_ok = h3.status == "pass" and h3.constants["M"] <= 3 + 1e-9

    prob_h7 = ProblemSpec(0.0, 1.0, constant(0), constant(1), Driver(),
                          "phi-of-wt", trig_affine(c=0.1, d=1), box=(-8, 8))
    rep7 = check_hypotheses(prob_h7, (-3, 3), 1201)
    h7 = rep7.checks["H7"]
    h7_ok = (
        h7.status == "fail"
        and eval_derivative(prob_h7.phi, 2, h7.witness) <= 0
        and abs(h7.witness - np.pi / 2) < 0.01
    )

    try:
        check_hypotheses(prob_h7, (-np.inf, np.inf), 100)
        refused = False
    except GlobalDomainError:
        refused = True
    ok = h3_ok and h7_ok and refused
    _report(9, ok, f"H3 pass (M={h3.constants['M']:.3f}); H7 witness "
                   f"{h7.witness:.4f}; global request refused: {refused}")


def test_criterion_10_second_order_consistency():
    """Pathwise second finite difference of the U-flow vs the tableau."""
    prob = ProblemSpec(0.0, 0.25, polynomial(0, 0, 1), constant(2), Driver(),
                       "phi-of-wt", affine(a=0, b=1), box=(-9, 9))
    grid = TimeGrid(0.25, 500)
    ens = simulate_forward(prob, grid, 3, seed=123)
    lmap = LampertiMap(prob.sigma, prob.b, prob.box)
    tab = MalliavinTableau(ens.dW, ens.X, lmap, ens.grid.dt)
    eps = 1e-4
    worst = 0.0
    for (thi, tti, ssi) in ((100, 250, 500), (50, 200, 400), (150, 300, 450)):
        base = path_matrices(ens)[0][0].copy()
        vals = {}
        for s1 in (1, -1):
            for s2 in (1, -1):
                dw = base.copy()
                dw[thi - 1] += s1 * eps
                dw[tti - 1] += s2 * eps
                vals[(s1, s2)] = euler_u_flow(dw, lmap, prob.x0, grid.dt)[ssi]
        fd = (vals[(1, 1)] - vals[(1, -1)] - vals[(-1, 1)] + vals[(-1, -1)]) / (
            4 * eps * eps
        )
        ana = second_u(tab.A, tab.B(), 0, thi, tti, ssi)
        worst = max(worst, abs(ana - fd) / abs(fd))
    ok = worst < 0.05
    _report(10, ok, f"max rel diff vs pathwise FD = {worst:.4f} < 0.05")


def test_criterion_11_derivative_validation():
    """Every registry family, orders 1-3, against central finite differences."""
    families = [
        constant(2.5),
        affine(a=2, b=3),
        trig_affine(a=2, b=1, c=-0.5, d=0.3),
        quadratic(a=1, b=-2, c=0.5),
        polynomial(0.5, -1, 0.25, 2, -0.125),
        scaled_sigmoid(a=2.0, k=1.5, b=0.2),
    ]
    xs = np.linspace(-5, 5, 100)
    worst = 0.0
    for fam in families:
        f0 = lambda x: eval_derivative(fam, 0, x)  # noqa: E731
        for order in (1, 2, 3):
            for x in xs:
                ana = eval_derivative(fam, order, float(x))
                num = central_diff(f0, float(x), order, FD_STEPS[order])
                worst = max(worst, abs(ana - num) / (1.0 + abs(ana)))
    ok = worst < 1e-6
    _report(11, ok, f"max normalized FD residual {worst:.2e} < 1e-6")


def test_criterion_12_determinism(tmp_path):
    """Equal seeds give byte-identical CSVs."""
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "grid.n_steps = 40\nmc.n_paths = 3000\nmc.master_seed = 77\n"
        "basis.degree = 3\neval.times = 0.5\ngest.n_outer = 1000\n"
        "gest.n_x_grid = 9\n",
        encoding="utf-8",
    )
    outs = []
    for tag in ("a", "b"):
        rc = main(["run", str(cfg), "--out", str(tmp_path / tag)])
        assert rc == 0
        outs.append(tmp_path / tag)
    names = [n for n in os.listdir(outs[0]) if n.endswith(".csv")]
    identical = all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names
    )
    ok = identical and len(names) >= 3
    _report(12, ok, f"{len(names)} CSVs byte-identical across reruns")
