import struct
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

from bsdedensity.backward import BackwardTableau, RegressionBasis, solve_bsde
from bsdedensity.coeffs import Driver, ProblemSpec, affine, constant, polynomial, trig_affine
from bsdedensity.errors import OrderingError, SimulationError, SolverError
from bsdedensity.forward import (
    _ROW_BLOCK,
    MalliavinTableau,
    PathEnsemble,
    TimeGrid,
    _running_sums,
    dump_ensemble,
    load_ensemble,
    simulate_forward,
)
from bsdedensity.lamperti import LampertiMap

from oracles import (
    brownian_matrix,
    euler_u_flow,
    first_u,
    first_x,
    path_matrices,
    reference_tableau_integrals,
    second_order_matrix,
    second_u,
    second_x,
    traced,
)


def _problem(b, sigma, box=(-12, 12), T=1.0):
    return ProblemSpec(
        x0=0.0, T=T, b=b, sigma=sigma, driver=Driver(),
        terminal="phi-of-wt", phi=affine(a=0, b=1), box=box,
    )


@pytest.fixture(scope="module")
def driftless():
    prob = _problem(constant(0), constant(1))
    grid = TimeGrid(1.0, 200)
    ens = simulate_forward(prob, grid, 20000, seed=7)
    return prob, grid, ens


def test_driftless_unit_diffusion_is_brownian(driftless):
    prob, grid, ens = driftless
    dW, X = path_matrices(ens)
    W = brownian_matrix(dW)
    assert np.abs(X - W).max() < 1e-10
    n = ens.n_paths
    xT = X[:, -1]
    assert abs(xT.mean()) < 3 * np.sqrt(1.0 / n)
    assert abs(xT.var() - 1.0) < 3.5 * np.sqrt(2.0 / n)
    assert ens.n_flagged == 0
    assert np.all(W[:, 0] == 0.0)
    assert np.all(X[:, 0] == 0.0)


def test_constant_drift_mean(driftless):
    prob = _problem(constant(1), constant(2), box=(-25, 25))
    grid = TimeGrid(1.0, 100)
    ens = simulate_forward(prob, grid, 20000, seed=11)
    m = ens.X[-1].mean()
    assert abs(m - 1.0) < 3 * 2.0 / np.sqrt(ens.n_paths)


def test_path_ensemble_refuses_mismatched_steps(driftless):
    """The ensemble checks its step-major layout with real errors, not
    asserts that vanish under python -O: a step count that disagrees with
    n_steps, or a step whose length disagrees with n_paths, names the field
    and the step."""
    _, grid, ens = driftless
    fields = dict(grid=grid, n_paths=ens.n_paths, master_seed=7, x0=0.0,
                  path_ids=ens.path_ids, n_flagged=0, n_requested=ens.n_paths)
    PathEnsemble(dW=list(ens.dW), X=list(ens.X), **fields)
    with pytest.raises(SimulationError, match="dW holds 199 steps; n_steps = 200 needs 200"):
        PathEnsemble(dW=ens.dW[:-1], X=ens.X, **fields)
    with pytest.raises(SimulationError, match="X holds 200 steps; n_steps = 200 needs 201"):
        PathEnsemble(dW=ens.dW, X=ens.X[1:], **fields)
    # a path-major matrix has one entry per path, not per step
    with pytest.raises(SimulationError, match="dW holds 20000 steps"):
        PathEnsemble(dW=np.stack(ens.dW, axis=1), X=ens.X, **fields)
    short = list(ens.X)
    short[7] = short[7][:-1]
    with pytest.raises(SimulationError, match=r"step 7 of X has shape \(19999,\), not \(20000,\)"):
        PathEnsemble(dW=ens.dW, X=short, **fields)


def test_determinism(driftless):
    prob, grid, ens = driftless
    again = simulate_forward(prob, grid, 20000, seed=7)
    assert np.array_equal(ens.X, again.X)
    assert np.array_equal(ens.dW, again.dW)


def test_tableau_ou_exact():
    prob = _problem(affine(b=-0.5), constant(1))
    grid = TimeGrid(1.0, 1000)
    ens = simulate_forward(prob, grid, 50, seed=3)
    lmap = LampertiMap(prob.sigma, prob.b, prob.box)
    tab = MalliavinTableau(ens.dW, ens.X, lmap, ens.grid.dt)
    A = np.stack(tab.A, axis=1)
    th, ti = grid.index_of(0.2), grid.index_of(1.0)
    # (beta' sigma) = -kappa exactly, so the tableau quadrature is exact
    assert first_u(A, 0, th, ti) == pytest.approx(np.exp(-0.4), abs=1e-12)
    dx = first_x(A, path_matrices(ens)[1], prob.sigma, 3, th, ti)
    assert dx == pytest.approx(np.exp(-0.4), abs=1e-12)
    assert first_u(A, 0, 300, 300) == 1.0


def test_tableau_constant_coefficients(driftless):
    prob = _problem(constant(0), constant(2), box=(-25, 25))
    grid = TimeGrid(1.0, 50)
    ens = simulate_forward(prob, grid, 30, seed=5)
    lmap = LampertiMap(prob.sigma, prob.b, prob.box)
    tab = MalliavinTableau(ens.dW, ens.X, lmap, ens.grid.dt)
    A, B = np.stack(tab.A, axis=1), np.stack(tab.B(), axis=1)
    assert first_u(A, 0, 10, 40) == 1.0
    X = path_matrices(ens)[1]
    assert first_x(A, X, prob.sigma, 0, 10, 40) == 2.0
    assert second_u(A, B, 0, 5, 20, 45) == 0.0
    assert second_x(A, B, X, prob.sigma, 0, 5, 20, 45) == 0.0


def test_du_positive_and_log_additive():
    prob = _problem(affine(b=-0.8), constant(1))
    grid = TimeGrid(1.0, 200)
    ens = simulate_forward(prob, grid, 40, seed=9)
    lmap = LampertiMap(prob.sigma, prob.b, prob.box)
    tab = MalliavinTableau(ens.dW, ens.X, lmap, ens.grid.dt)
    n = grid.n_steps
    A = np.stack(tab.A, axis=1)
    mat = np.exp(A[:, n : n + 1] - A)  # D_theta U_T for every theta
    assert np.all(mat > 0)
    for p in (0, 17):
        a = first_u(A, p, 20, 80)
        b = first_u(A, p, 80, 150)
        c = first_u(A, p, 20, 150)
        assert a * b == pytest.approx(c, rel=1e-12)


def test_triangularity_errors(driftless):
    prob, grid, ens = driftless
    lmap = LampertiMap(prob.sigma, prob.b, prob.box)
    tab = MalliavinTableau(ens.dW, ens.X, lmap, ens.grid.dt)
    A, B = np.stack(tab.A, axis=1), np.stack(tab.B(), axis=1)
    with pytest.raises(OrderingError):
        first_u(A, 0, 10, 5)
    with pytest.raises(OrderingError):
        second_u(A, B, 0, 50, 100, 80)  # s < max(theta, t)
    with pytest.raises(OrderingError):
        first_x(A, ens.X, prob.sigma, 0, 0, grid.n_steps + 1)
    with pytest.raises(OrderingError):
        tab.first_x_all([0, 50], 40)


def test_second_order_zero_cases(driftless):
    prob, grid, ens = driftless
    lmap = LampertiMap(prob.sigma, prob.b, prob.box)
    tab = MalliavinTableau(ens.dW, ens.X, lmap, ens.grid.dt)
    # t = s gives an empty integral
    assert second_u(np.stack(tab.A, axis=1), np.stack(tab.B(), axis=1), 0, 10, 50, 50) == 0.0


def test_second_order_symmetry_under_swap():
    prob = _problem(polynomial(0, 0, 1), constant(2), box=(-9, 9), T=0.25)
    grid = TimeGrid(0.25, 200)
    ens = simulate_forward(prob, grid, 10, seed=123)
    lmap = LampertiMap(prob.sigma, prob.b, prob.box)
    tab = MalliavinTableau(ens.dW, ens.X, lmap, ens.grid.dt)
    X = path_matrices(ens)[1]
    A, B = np.stack(tab.A, axis=1), np.stack(tab.B(), axis=1)
    a = second_x(A, B, X, prob.sigma, 2, 40, 100, 180)
    b = second_x(A, B, X, prob.sigma, 2, 100, 40, 180)
    assert a == b


def test_second_order_finite_difference_oracle():
    prob = _problem(polynomial(0, 0, 1), constant(2), box=(-9, 9), T=0.25)
    grid = TimeGrid(0.25, 500)
    ens = simulate_forward(prob, grid, 3, seed=123)
    lmap = LampertiMap(prob.sigma, prob.b, prob.box)
    tab = MalliavinTableau(ens.dW, ens.X, lmap, ens.grid.dt)
    p, thi, tti, ssi = 0, 100, 250, 500
    eps = 1e-4
    base = path_matrices(ens)[0][p].copy()
    vals = {}
    for s1 in (1, -1):
        for s2 in (1, -1):
            dw = base.copy()
            dw[thi - 1] += s1 * eps
            dw[tti - 1] += s2 * eps
            vals[(s1, s2)] = euler_u_flow(dw, lmap, prob.x0, grid.dt)[ssi]
    fd = (vals[(1, 1)] - vals[(1, -1)] - vals[(-1, 1)] + vals[(-1, -1)]) / (4 * eps**2)
    ana = second_u(np.stack(tab.A, axis=1), np.stack(tab.B(), axis=1), p, thi, tti, ssi)
    assert fd != 0
    assert abs(ana - fd) / abs(fd) < 0.05


def test_dx_bounds_under_h3():
    prob = _problem(affine(b=-0.5), constant(1))
    grid = TimeGrid(1.0, 100)
    ens = simulate_forward(prob, grid, 100, seed=21)
    lmap = LampertiMap(prob.sigma, prob.b, prob.box)
    tab = MalliavinTableau(ens.dW, ens.X, lmap, ens.grid.dt)
    cap = 1.0 * np.exp(0.5 * 1.0)  # (max sigma) * exp(max|beta' sigma| T)
    for t_idx in (25, 50, 100):
        mat = np.column_stack([tab.first_x_all(th, t_idx) for th in range(t_idx + 1)])
        assert mat.min() >= 0.0
        assert mat.max() <= cap + 1e-12


def test_second_order_nonnegative_under_h6():
    prob = _problem(polynomial(0, 0, 1), constant(2), box=(-9, 9), T=0.25)
    grid = TimeGrid(0.25, 100)
    ens = simulate_forward(prob, grid, 20, seed=2)
    lmap = LampertiMap(prob.sigma, prob.b, prob.box)
    tab = MalliavinTableau(ens.dW, ens.X, lmap, ens.grid.dt)
    eps = 10 * grid.dt
    X = path_matrices(ens)[1]
    A, B = np.stack(tab.A, axis=1), np.stack(tab.B(), axis=1)
    rng = np.random.default_rng(0)
    for _ in range(60):
        th, tt = sorted(rng.integers(0, 100, 2))
        s = int(rng.integers(tt, 101))
        p = int(rng.integers(0, 20))
        assert second_u(A, B, p, th, tt, s) >= -eps
        assert second_x(A, B, X, prob.sigma, p, th, tt, s) >= -eps


def test_unflagged_simulation_keeps_one_copy_of_the_ensemble():
    """With no path flagged the ensemble holds the sweep's own dW and X, and
    no W: the peak is those two matrices and per-step vectors, no masked
    copy."""
    prob = _problem(trig_affine(c=0.3), trig_affine(a=2, b=0.5))
    lmap = LampertiMap(prob.sigma, prob.b, prob.box)
    ens, peak, _ = traced(simulate_forward, prob, TimeGrid(1.0, 200), 2000, seed=5,
                          lamperti_map=lmap)
    assert ens.n_flagged == 0
    x_bytes = 8 * ens.n_paths * (ens.grid.n_steps + 1)  # one path matrix of X
    assert peak < 3 * x_bytes  # a masked copy would make it 4


def test_flagged_paths_excluded_and_error():
    prob = _problem(constant(0), constant(1), box=(-3.2, 3.2))
    grid = TimeGrid(1.0, 100)
    ens = simulate_forward(prob, grid, 3000, seed=13)
    assert ens.n_flagged >= 1
    assert ens.n_paths == 3000 - ens.n_flagged
    assert len(ens.path_ids) == ens.n_paths
    tight = _problem(constant(0), constant(1), box=(-1.0, 1.0))
    with pytest.raises(SimulationError):
        simulate_forward(tight, grid, 1000, seed=13)


def test_dump_load_roundtrip(tmp_path, driftless):
    prob, grid, ens = driftless
    # version 4: after the header and the path ids, each step as it is
    # held, the dW steps and then the X steps
    for n_paths in (50, 2 * _ROW_BLOCK + 37):
        small = simulate_forward(prob, TimeGrid(1.0, 30), n_paths, seed=99)
        assert small.n_paths == n_paths
        path = tmp_path / "ens.bin"
        dump_ensemble(small, path)
        assert path.read_bytes()[56:] == small.path_ids.astype("<u8").tobytes() + b"".join(
            step.astype("<f8").tobytes() for step in small.dW + small.X)
        back = load_ensemble(path)
        for field in ("dW", "X"):
            assert np.array_equal(getattr(back, field), getattr(small, field))
        assert np.array_equal(back.path_ids, small.path_ids)
        assert back.master_seed == small.master_seed
        assert back.grid == small.grid
    with pytest.raises(SimulationError):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOTMAGIC" + b"\0" * 64)
        load_ensemble(bad)
    # a version-1 dump (dW, W, U, X per path; U = X for unit sigma) is
    # refused, not misread
    head = bytearray(path.read_bytes()[:56])
    dW, X = path_matrices(small)
    head[8:12] = struct.pack("<I", 1)
    old = tmp_path / "v1.bin"
    per_path = np.concatenate([dW, brownian_matrix(dW), X, X], axis=1)
    old.write_bytes(bytes(head) + small.path_ids.astype("<u8").tobytes()
                    + per_path.astype("<f8").tobytes())
    with pytest.raises(SimulationError, match="version-1 ensemble dump"):
        load_ensemble(old)
    # so is a version-2 dump (dW, W, X per path)
    head[8:12] = struct.pack("<I", 2)
    old = tmp_path / "v2.bin"
    per_path = np.concatenate([dW, brownian_matrix(dW), X], axis=1)
    old.write_bytes(bytes(head) + small.path_ids.astype("<u8").tobytes()
                    + per_path.astype("<f8").tobytes())
    with pytest.raises(SimulationError, match="version-2 ensemble dump"):
        load_ensemble(old)
    # and a version-3 dump (dW, X per path), although its size is that of
    # a version-4 one
    head[8:12] = struct.pack("<I", 3)
    old = tmp_path / "v3.bin"
    per_path = np.concatenate([dW, X], axis=1)
    old.write_bytes(bytes(head) + small.path_ids.astype("<u8").tobytes()
                    + per_path.astype("<f8").tobytes())
    assert old.stat().st_size == path.stat().st_size
    with pytest.raises(SimulationError, match="version-3 ensemble dump"):
        load_ensemble(old)


def test_dump_load_roundtrip_of_a_flagged_ensemble(tmp_path):
    """An ensemble with flagged paths comes back bitwise: its gapped path
    ids and its counts as well as its steps."""
    prob = _problem(constant(0), constant(1), box=(-3.2, 3.2))
    ens = simulate_forward(prob, TimeGrid(1.0, 100), 3000, seed=13)
    assert ens.n_flagged > 0
    assert not np.array_equal(ens.path_ids, np.arange(ens.n_paths))  # gapped
    path = tmp_path / "ens.bin"
    dump_ensemble(ens, path)
    back = load_ensemble(path)
    for field in ("n_paths", "n_flagged", "n_requested", "master_seed", "x0", "grid"):
        assert getattr(back, field) == getattr(ens, field)
    assert np.array_equal(back.path_ids, ens.path_ids)
    assert len(back.dW) == len(ens.dW) and len(back.X) == len(ens.X)
    for mine, theirs in zip(back.dW + back.X, ens.dW + ens.X):
        assert np.array_equal(mine.view(np.uint64), theirs.view(np.uint64))


def test_dump_and_load_peak_below_one_path_matrix(tmp_path, driftless):
    """Dump and load write and read each step array as it is held: beyond
    what each call returns, neither holds a whole-ensemble temporary."""
    _, _, ens = driftless
    path = tmp_path / "ens.bin"
    _, dump_peak, dump_kept = traced(dump_ensemble, ens, path)
    back, load_peak, _ = traced(load_ensemble, path)
    returned = sum(step.nbytes for step in back.dW + back.X) + back.path_ids.nbytes
    x_bytes = 8 * ens.n_paths * (ens.grid.n_steps + 1)  # one path matrix of X
    assert dump_peak <= x_bytes
    # what the dump kept counts against the load's bound, as from the dump's entry
    assert dump_kept + load_peak - returned <= x_bytes
    assert (ens.n_paths, len(ens.X)) == (20000, 201)


def test_dump_of_a_consumed_ensemble_fails_loud(tmp_path):
    """A backward pass consumes its ensemble, so a dump after it is refused
    before any byte is written."""
    prob = _problem(constant(0), constant(1))
    ens = simulate_forward(prob, TimeGrid(1.0, 10), 200, seed=3)
    solve_bsde(ens, prob, RegressionBasis(), t_indices=[4])
    path = tmp_path / "ens.bin"
    with pytest.raises(SolverError, match="step 0 of dW was released: a backward pass consumed"):
        dump_ensemble(ens, path)
    assert not path.exists()


def test_truncated_dump_rejected(tmp_path):
    prob = _problem(constant(0), constant(1))
    ens = simulate_forward(prob, TimeGrid(1.0, 30), 50, seed=99)
    path = tmp_path / "ens.bin"
    dump_ensemble(ens, path)
    raw = path.read_bytes()
    for cut in (raw[:-100], raw[:20], raw + b"\0" * 8):
        path.write_bytes(cut)
        with pytest.raises(SimulationError):
            load_ensemble(path)


def test_time_grid():
    g = TimeGrid(2.0, 8)
    assert g.dt == 0.25
    assert g.index_of(0.5) == 2
    assert np.allclose(g.nodes, np.linspace(0, 2, 9))
    with pytest.raises(ValueError):
        TimeGrid(0.0, 5)
    with pytest.raises(ValueError):
        g.index_of(3.0)


def test_tableau_integrals_in_path_blocks_match_whole_matrix():
    # A and B are built one step at a time along every path, so every value
    # is bitwise the whole-matrix one; sigma(X) on one column is bitwise its
    # whole-matrix value too; S2's sigma and b
    prob = _problem(trig_affine(c=0.3), trig_affine(a=2, b=0.5))
    grid = TimeGrid(1.0, 8)
    n_paths = 2 * _ROW_BLOCK + 37
    ens = simulate_forward(prob, grid, n_paths, seed=5)
    assert ens.n_paths % _ROW_BLOCK and ens.n_paths > _ROW_BLOCK
    lmap = LampertiMap(prob.sigma, prob.b, prob.box)
    tab = MalliavinTableau(ens.dW, ens.X, lmap, ens.grid.dt)
    sigX, A, B = reference_tableau_integrals(lmap, path_matrices(ens)[1], grid.dt)
    for t_idx in (3, grid.n_steps):
        expect = sigX[:, t_idx] * np.exp(A[:, t_idx] - A[:, 2])
        assert np.array_equal(tab.first_x_all(2, t_idx), expect)
        # a sequence of thetas gives the rows of the single-theta calls
        thetas = [0, 2, t_idx]
        assert np.array_equal(tab.first_x_all(thetas, t_idx),
                              [tab.first_x_all(th, t_idx) for th in thetas])
    assert np.array_equal(np.stack(tab.A, axis=1), A)
    assert np.array_equal(np.stack(tab.B(), axis=1), B)
    assert np.abs(B).max() > 0


def test_brownian_columns_are_the_running_sum():
    """W is summed from the increments by the running-sum generator bitwise
    as the explicit running sum from W_0 = 0 and as np.cumsum (apart from
    the sign of a zero W_1): every step, a fresh contiguous array, up to W_n
    where the increments end; W_T alone, read one step at a time; and on the
    strided prefix of the increments that a replay sweep reads."""
    n_paths, n = 2 * _ROW_BLOCK + 37, 30
    dW = np.random.default_rng(3).standard_normal((n_paths, n)) * np.sqrt(1.0 / n)
    dW[0, 0] = -0.0  # W_1 = 0 + (-0) is +0
    W = brownian_matrix(dW)

    def bits(a):
        return np.ascontiguousarray(a).view(np.uint64)

    def w_steps(steps):  # step-first, as the package reads increments
        return _running_sums(n_paths, steps, np.zeros(n_paths))

    steps = dW.T
    got = list(w_steps(steps))
    assert len(got) == n + 1
    assert all(w.flags.c_contiguous and w.base is None for w in got)
    assert len({id(w) for w in got}) == n + 1
    assert np.array_equal(bits(np.stack(got, axis=1)), bits(W))
    summed = np.cumsum(dW, axis=1)
    assert np.signbit(summed[0, 0]) and summed[0, 0] == 0.0
    summed[0, 0] = 0.0
    assert np.array_equal(bits(summed), bits(W[:, 1:]))
    assert np.array_equal(bits(next(islice(w_steps(steps), n, None))), bits(W[:, n]))
    assert np.array_equal(bits(next(islice(w_steps(steps[:12]), 12, None))),
                          bits(brownian_matrix(dW[:, :12])[:, 12]))
    assert np.all(got[0] == 0.0)
    assert not np.signbit(got[1][0])


def test_b_columns_are_the_cumulative_trapezoid():
    """B is built from the tableau's A and X bitwise as the whole-matrix
    cumulative trapezoid: for one step, scattered, contiguous and gapped
    lists, a slice and the prefix of X that a cut sweep reads, each step a
    fresh contiguous array.  The Y/Z tableau's descending segment walk gives
    every step from its smallest declared index to n, and a first increment
    of -0.0 stays -0.0 in both."""
    prob = _problem(trig_affine(c=0.3), trig_affine(a=2, b=0.5))
    n = 30
    grid = TimeGrid(1.0, n)
    ens = simulate_forward(prob, grid, 2 * _ROW_BLOCK + 37, seed=5)
    assert ens.n_paths % _ROW_BLOCK and ens.n_paths > _ROW_BLOCK
    lmap = LampertiMap(prob.sigma, prob.b, prob.box)
    with_fx = replace(prob, driver=Driver(f_of_x=affine(b=0.1)), terminal="phi-of-xt")

    def bits(a):
        return np.ascontiguousarray(a).view(np.uint64)

    def walk(tab, lowest):
        btab = BackwardTableau(with_fx, RegressionBasis(), tab, {lowest, 20})
        return {s: btab._b_at(s) for s in range(n, lowest - 1, -1)}

    tab = MalliavinTableau(ens.dW, ens.X, lmap, grid.dt)
    B = second_order_matrix(lmap, path_matrices(ens)[1], np.stack(tab.A, axis=1), grid.dt)
    assert np.abs(B).max() > 0
    steps = tab.B()
    assert all(b.flags.c_contiguous and b.base is None for b in steps)
    assert len({id(b) for b in steps}) == n + 1
    assert np.array_equal(bits(np.stack(steps, axis=1)), bits(B))
    assert np.array_equal(bits(tab.B(n)), bits(B[:, n]))
    for cols in ([17, 0, 4, n, 9], [4, 5, 6], [4, 6]):
        assert np.array_equal(bits(np.stack(tab.B(cols), axis=1)), bits(B[:, cols]))
    assert np.array_equal(bits(np.stack(tab.B(slice(12, None)), axis=1)), bits(B[:, 12:]))
    cut = MalliavinTableau(None, ens.X[:13], lmap, grid.dt)
    assert np.array_equal(bits(cut.B(12)), bits(B[:, 12]))
    for lowest in (0, 7):
        walked = walk(tab, lowest)
        assert sorted(walked) == list(range(lowest, n + 1))
        for s, b in walked.items():
            assert np.array_equal(bits(b), bits(B[:, s])), (lowest, s)

    # an integrand of -0.0 at the first two nodes of path 0
    lmap.beta_comp_second = lambda x: x * 1.0
    X = [step.copy() for step in ens.X]
    X[0][0] = X[1][0] = -0.0  # path 0 at steps 0 and 1
    tab = MalliavinTableau(ens.dW, X, lmap, grid.dt)
    B = second_order_matrix(lmap, np.stack(X, axis=1), np.stack(tab.A, axis=1), grid.dt)
    assert np.signbit(B[0, 1]) and B[0, 1] == 0.0
    assert np.array_equal(bits(np.stack(tab.B(), axis=1)), bits(B))
    walked = walk(tab, 0)
    assert np.signbit(walked[1][0])
    assert all(np.array_equal(bits(b), bits(B[:, s])) for s, b in walked.items())
