"""Forward simulation and the first/second order Malliavin tableaux for U and X.

The forward equation is simulated in Lamperti coordinates: U = g(X) has unit
diffusion, so Euler-Maruyama on U adds the Brownian increments exactly and the
only discretization error sits in the drift.  X is recovered per step through
g^-1; U itself is carried as a running vector and not stored.

Malliavin derivatives along a simulated path reduce to one-dimensional
quadratures of state functions:

    D_theta U_t      = exp( int_theta^t (beta o g^-1)'(U_s) ds )
    D_theta X_t      = sigma(X_t) D_theta U_t
    D2_{theta,t} U_s = int_t^s (beta o g^-1)''(U_r) D_r U_s D_t U_r D_theta U_r dr
    D2_{theta,t} X_s = (sigma' sigma)(X_s) D_theta U_s D_t U_s + sigma(X_s) D2 U_s

Because the trapezoid rule makes the log-derivative integral additive, the
whole first-order tableau is represented by one cumulative integral per path
(A_i below) and entries are materialized on demand:

    D_theta U_t = exp(A_t - A_theta),
    D2_{theta,t} U_s = exp(A_s - A_t - A_theta) * (B_s - B_t),

where B is the cumulative trapezoid of (beta o g^-1)''(X_r) exp(A_r).  This
is exactly the triangular tableau of trapezoid quadratures, stored in O(n)
per path instead of O(n^2).  A is held; B is not: :meth:`MalliavinTableau.B`
builds the steps a reader asks for, and the backward pass keeps B at marks
about every sqrt(n) steps and rebuilds each segment upward from its mark.
A, B and the Brownian path W (summed where it is read) are running sums from
step 0, yielded one step at a time by :func:`_running_sums`, so a B step
walked up from a held one has the bits of the sum from 0.

Every path set is indexed step first: ``dW[i]``, ``X[i]`` and ``A[i]`` are
separate contiguous arrays holding step i across paths, so the backward pass
can release each step once it has read it; a replay sweep hands the Euler
loop the transpose of its increment matrix, a view whose rows are the steps.
A reader of a block of paths by steps (the D_theta rows, a replay's e^{-A})
gathers those steps into one C-order matrix.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import count, pairwise
from pathlib import Path

import numpy as np

from .coeffs import Points, ProblemSpec, eval_derivative
from .errors import OrderingError, SimulationError, SolverError
from .lamperti import LampertiMap

__all__ = [
    "TimeGrid",
    "PathEnsemble",
    "MalliavinTableau",
    "simulate_forward",
    "dump_ensemble",
    "load_ensemble",
]

_MAGIC = b"BSDENS01"
_VERSION = 4
_HEADER_FMT = "<8sIIIIddQI4x"

# the share of flagged paths above which a simulation fails
_MAX_FLAGGED_FRACTION = 0.01


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i T / n on [0, T]."""

    T: float
    n_steps: int

    def __post_init__(self) -> None:
        if self.T <= 0:
            raise ValueError("T must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_steps + 1)

    def index_of(self, t: float) -> int:
        """Snap a time in [0, T] to the nearest grid node."""
        i = int(round(t / self.dt))
        if not 0 <= i <= self.n_steps:
            raise ValueError(f"t = {t} outside [0, {self.T}]")
        return i


@dataclass
class PathEnsemble:
    """Seeded Brownian increments and state paths of the surviving paths,
    stored step-major.

    ``dW`` is a list of n_steps arrays and ``X`` a list of n_steps + 1, each
    a separate contiguous (n_paths,) array: ``dW[i]`` and ``X[i]`` hold step
    i across paths.  W is not stored: its readers sum it from dW.  Path
    p's increments are a pure function of (master_seed, path_id): they are
    drawn row-major from a single PCG64 stream, so they depend only on the
    path's original index.  Paths that left the certified sigma > 0 box are
    dropped; ``path_ids`` maps surviving paths to original indices.

    :func:`backward.solve_bsde` consumes the ensemble: it sets each step of
    ``dW`` to None once it has read it, and each step of ``X`` except at the
    declared indices.  A reader that meets a released step raises SolverError.
    """

    grid: TimeGrid
    n_paths: int
    master_seed: int
    x0: float
    dW: list[np.ndarray | None]
    X: list[np.ndarray | None]
    path_ids: np.ndarray
    n_flagged: int
    n_requested: int

    def __post_init__(self) -> None:
        n = self.grid.n_steps
        for name, steps, count in (("dW", self.dW, n), ("X", self.X, n + 1)):
            if len(steps) != count:
                raise SimulationError(
                    f"{name} holds {len(steps)} steps; n_steps = {n} needs {count}")
            for i, step in enumerate(steps):
                if np.shape(step) != (self.n_paths,):
                    raise SimulationError(f"step {i} of {name} has shape "
                                          f"{np.shape(step)}, not ({self.n_paths},)")


def _draw_increments(master_seed: int, n_paths: int, n_steps: int, dt: float) -> np.ndarray:
    rng = np.random.default_rng(np.random.PCG64(master_seed))
    dW = rng.standard_normal((n_paths, n_steps))
    dW *= np.sqrt(dt)
    return dW


def _euler_lamperti(
    problem: ProblemSpec, grid: TimeGrid, dW, lmap: LampertiMap, n: int | None = None
) -> tuple[list[np.ndarray], np.ndarray]:
    """Euler-Maruyama on U = g(X) driven by the increments ``dW``, indexed
    step first (``dW[i]`` holds step i across paths), for its first ``n``
    steps (default: all of them).

    Steps whose U would leave the image of the certified box are clamped just
    inside it.  Returns X, a list of n + 1 step arrays (X_{i+1} is the array
    the inverse transform returns), and the number of clamp events per path.
    """
    n = len(dW) if n is None else n
    n_paths = len(dW[0])
    dt = grid.dt
    glo, ghi = lmap.g_range
    margin = 1e-9 * (ghi - glo)
    X = [np.full(n_paths, problem.x0)]
    u = np.full(n_paths, lmap.transform(problem.x0))
    hits = np.zeros(n_paths, dtype=np.int64)
    for i in range(n):
        drift = lmap.beta(X[i])
        u = u + drift * dt + dW[i]
        out = (u < glo + margin) | (u > ghi - margin)
        if out.any():
            hits += out
            u = np.clip(u, glo + margin, ghi - margin)
        X.append(lmap.inverse_transform(u))
    return X, hits


def simulate_forward(
    problem: ProblemSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    lamperti_map: LampertiMap | None = None,
) -> PathEnsemble:
    """Simulate the forward diffusion by Euler-Maruyama on U = g(X).

    Paths whose U leaves the image of the certified box are clamped, flagged
    and excluded from the returned ensemble; if more than 1% of paths are
    flagged the run fails.  The increments are drawn as one (n_paths,
    n_steps) matrix, so the stream is that of a row-major draw, and each
    column is copied into its own step array before the matrix is dropped.
    With no path flagged the ensemble holds the sweep's own step arrays;
    otherwise each step is replaced by its kept paths in turn.
    """
    if n_paths < 1:
        raise SimulationError("n_paths must be >= 1")
    lmap = lamperti_map or LampertiMap(problem.sigma, problem.b, problem.box)
    dW = _draw_increments(seed, n_paths, grid.n_steps, grid.dt)
    dW = [dW[:, i].copy() for i in range(grid.n_steps)]
    X, hits = _euler_lamperti(problem, grid, dW, lmap)
    flagged = hits > 0
    n_flagged = int(flagged.sum())
    if n_flagged > _MAX_FLAGGED_FRACTION * n_paths:
        raise SimulationError(
            f"{n_flagged} of {n_paths} paths left the certified box "
            f"[{problem.box[0]}, {problem.box[1]}] (> {_MAX_FLAGGED_FRACTION:.1%}); "
            "enlarge the working box or shorten the horizon"
        )
    keep = ~flagged
    if n_flagged:
        for steps in (dW, X):
            for i, step in enumerate(steps):
                steps[i] = step[keep]
    return PathEnsemble(
        grid=grid, n_paths=n_paths - n_flagged, master_seed=seed, x0=problem.x0,
        dW=dW, X=X, path_ids=np.nonzero(keep)[0].astype(np.uint64),
        n_flagged=n_flagged, n_requested=n_paths,
    )


# paths per block of the D_theta row statistics (cli.Experiment._component),
# the one reader of a whole row of paths at once: its temporaries stay
# block-sized, and each block gathers the steps it reads into a C-ordered
# (rows, k) matrix
_ROW_BLOCK = 1024


def _row_blocks(n_rows: int):
    return (slice(lo, lo + _ROW_BLOCK) for lo in range(0, n_rows, _ROW_BLOCK))


def _exp_neg(steps) -> np.ndarray:
    """e^{-c} of the step arrays ``steps`` as one C-order (n_rows, k) matrix,
    one column per step, computed in the buffer the steps are gathered in."""
    out = np.stack(steps, axis=1)
    return np.exp(np.negative(out, out=out), out=out)


def _running_sums(n_rows: int, increments, start=None):
    """The running sums c_0, c_1, ... of ``increments`` (inc_0, inc_1, ...,
    each on every path) along ``n_rows`` paths, yielded one (n_rows,) step at
    a time: the one place that sums along paths.  inc_j is drawn only once
    c_{j+1} is asked for.  Given a ``start`` step, c_0 = start and
    c_{j+1} = c_j + inc_j: W's rule, so W_1 = 0 + dW_0 is +0 after a -0.0.
    Without one, c_0 = +0 and c_1 is inc_0 itself (which must then be a
    fresh array): the cumulative trapezoid's rule, so a -0.0 stays -0.0.
    Later steps are fresh arrays; a walk up from a held step j > 0 has the
    bits of the sum from step 0."""
    c = np.zeros(n_rows) if start is None else start
    yield c
    for j, inc in enumerate(increments):
        c = inc if j == 0 and start is None else c + inc
        yield c


def _step(steps, i: int, name: str) -> np.ndarray:
    """Step i of the path set ``name``, refused once a backward pass has
    released it."""
    if steps[i] is None:
        raise SolverError(f"step {i} of {name} was released: a backward pass "
                          "consumed this ensemble; simulate or load it again")
    return steps[i]


def _check_unconsumed(steps, name: str) -> None:
    """Refuse a path set with a step that a backward pass has released."""
    for i in range(len(steps)):
        _step(steps, i, name)


def _check_triangular(thetas, t_idx: int, n: int) -> None:
    """Refuse a (theta, t) index pair outside 0..n or with theta > t, for
    each index of ``thetas`` (one index or a list)."""
    for theta_idx in np.atleast_1d(thetas):
        if not (0 <= theta_idx <= n and 0 <= t_idx <= n):
            raise OrderingError(f"indices ({theta_idx}, {t_idx}) outside 0..{n}")
        if theta_idx > t_idx:
            raise OrderingError(
                f"tableau is triangular: theta index {theta_idx} > t index {t_idx}"
            )


class MalliavinTableau:
    """First and second order Malliavin derivatives of U and X along the paths
    of one forward sweep: the main run's ensemble or a g-estimator replay.

    Logical layout is the lower-triangular grid DU[theta_i][t_j] (theta <= t)
    per path, with second-order slices indexed by (theta, t, s); physically
    everything derives from the cumulative integrals A and B described in the
    module docstring; under a constant drift (sigma and b constant families,
    ``constant_drift``) every step of both is one read-only zero view.  A is
    held as a list of n + 1 step arrays; B is not: :meth:`B` builds the steps
    asked for, from its leading zero or walked up from a step the caller
    holds.  e^{-A} (which only the replay rows read, each slicing it) is
    built on first use, as one path-major matrix.  The accessor reads grid
    indices and rejects theta > t; sigma is evaluated at the states it reads.
    ``dW`` and ``X`` are indexed step first and held as given: the main run's
    are None (the pass hands each dW_s to the Y/Z tableau) and the
    ensemble's own X, which the backward pass consumes step by step; a
    replay's are a view of its increments (None when its rows do not read W)
    and the Euler loop's list.  A path set with a released step is refused
    (SolverError).
    """

    def __init__(self, dW, X, lmap: LampertiMap, dt: float):
        if dW is not None:
            _check_unconsumed(dW, "dW")
        _check_unconsumed(X, "X")
        self.dW, self.X = dW, X
        self.lmap, self.dt = lmap, dt
        self.n = len(X) - 1
        self.n_paths = len(X[0])
        self.constant_drift = lmap.sigma.family == lmap.b.family == "constant"
        # A, the cumulative trapezoid of (beta o g^-1)'(X) along each path
        self.A = self._trapezoid(lambda c: lmap.beta_prime_sigma(Points(X[c])))
        self._exp_neg_A: np.ndarray | None = None

    def _trapezoid(self, integrand, cols=slice(None), lo=0, c_lo=None):
        """Steps ``cols`` (an index, a list or a slice) of the cumulative
        trapezoid of ``integrand(c)``, the integrand at step c on every path,
        from its leading zero or walked up from its step ``lo`` = ``c_lo``:
        an (n_paths,) array for an index, a list of them otherwise.  It reads
        X and A up to the last asked-for step and keeps only the asked-for
        ones.  Under a constant drift every step is one read-only zero view."""
        idx = np.arange(self.n + 1)[cols]
        if self.constant_drift:
            zero = np.broadcast_to(0.0, self.n_paths)
            return zero if idx.ndim == 0 else [zero] * idx.size
        half = 0.5 * self.dt

        def increments():  # (v_c + v_{c+1}) (dt/2) between the steps c and c + 1
            for left, right in pairwise(map(integrand, count(lo))):
                inc = left + right
                inc *= half
                yield inc

        last = idx.max(initial=lo - 1)
        sums = zip(range(lo, last + 1), _running_sums(self.n_paths, increments(), c_lo))
        held = {c: step for c, step in sums if np.any(idx == c)}
        return held[int(idx)] if idx.ndim == 0 else [held[c] for c in idx]

    def B(self, cols=slice(None), lo: int = 0, b_lo: np.ndarray | None = None):
        """Steps ``cols`` (an index, a list or a slice, none below ``lo``) of
        B, the cumulative trapezoid of (beta o g^-1)''(X) e^A: from its
        leading zero, or walked up from its step ``lo`` > 0 held as ``b_lo``
        (a walk from step 0 would turn a -0.0 B_1 into +0).  One step array
        for an index, a list of them otherwise.  It reads the steps of X from
        ``lo`` up; one that a backward pass has released raises SolverError."""
        return self._trapezoid(lambda c: self.lmap.beta_comp_second(_step(self.X, c, "X"))
                               * np.exp(self.A[c]), cols, lo, b_lo)

    @property
    def exp_neg_A(self) -> np.ndarray:
        if self._exp_neg_A is None:
            self._exp_neg_A = _exp_neg(self.A)
        return self._exp_neg_A

    # -- vector accessor -----------------------------------------------------

    def first_x_all(self, theta_idx, t_idx: int) -> np.ndarray:
        """D_theta X_t across paths, shape (n_paths,); a list of k theta
        indices gives shape (k, n_paths) and evaluates sigma(X_t) once."""
        _check_triangular(theta_idx, t_idx, self.n)
        sig = eval_derivative(self.lmap.sigma, 0, _step(self.X, t_idx, "X"))
        A = self.A
        a_theta = np.stack([A[th] for th in theta_idx]) if np.ndim(theta_idx) else A[theta_idx]
        return sig * np.exp(A[t_idx] - a_theta)


# ---------------------------------------------------------------------------
# Binary ensemble dump (little-endian, layout documented in the README)
# ---------------------------------------------------------------------------


def dump_ensemble(ens: PathEnsemble, path: str | Path) -> None:
    """Write the ensemble in the documented binary layout: after the header
    and the path ids, each step array as it is held, dW_0..dW_{n-1} and then
    X_0..X_n.  An ensemble that a backward pass has consumed is refused."""
    _check_unconsumed(ens.dW, "dW")
    _check_unconsumed(ens.X, "X")
    header = struct.pack(_HEADER_FMT, _MAGIC, _VERSION, ens.grid.n_steps, ens.n_paths,
                         ens.n_requested, ens.grid.T, ens.x0, ens.master_seed, ens.n_flagged)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(ens.path_ids, dtype="<u8"))
        for step in [*ens.dW, *ens.X]:
            fh.write(np.ascontiguousarray(step, dtype="<f8"))


def load_ensemble(path: str | Path) -> PathEnsemble:
    """Read an ensemble written by :func:`dump_ensemble`, each step straight
    into a freshly allocated step array."""
    head_size = struct.calcsize(_HEADER_FMT)
    size = Path(path).stat().st_size
    if size < head_size:
        raise SimulationError(f"{path} is shorter than an ensemble dump header")
    with open(path, "rb") as fh:
        magic, version, n_steps, n_paths, n_requested, T, x0, seed, n_flagged = (
            struct.unpack(_HEADER_FMT, fh.read(head_size))
        )
        if magic != _MAGIC:
            raise SimulationError(f"{path} is not an ensemble dump")
        if version != _VERSION:
            raise SimulationError(
                f"{path} is a version-{version} ensemble dump; this version reads "
                f"version {_VERSION} only, so re-run --stage simulate"
            )
        for field, value in (("n_steps", n_steps), ("n_paths", n_paths), ("T", T)):
            if not (np.isfinite(value) and value > 0):
                raise SimulationError(f"{path} has {field} = {value} in its header; "
                                      "a dump needs a positive, finite value")
        expected = head_size + 8 * n_paths * (2 + 2 * n_steps)
        if size != expected:
            raise SimulationError(
                f"{path} holds {size} bytes; a dump of {n_paths} paths x "
                f"{n_steps} steps needs {expected}"
            )
        path_ids = np.empty(n_paths, dtype="<u8")
        fh.readinto(path_ids)
        steps = [np.empty(n_paths, dtype="<f8") for _ in range(2 * n_steps + 1)]
        for step in steps:
            fh.readinto(step)
    return PathEnsemble(
        grid=TimeGrid(T, n_steps), n_paths=n_paths, master_seed=int(seed), x0=x0,
        dW=steps[:n_steps], X=steps[n_steps:], path_ids=path_ids, n_flagged=n_flagged,
        n_requested=n_requested,
    )
