"""Least-squares Monte Carlo BSDE solver and Malliavin tableaux for Y and Z.

Conditional expectations E(. | F_t) are estimated by cross-sectional
regression of (possibly measure-weighted) path targets on polynomial bases of
the time-t state; one simulated ensemble serves every representation.

Drivers with a linear z-term f*(x, y, z) = f(x, y) + alpha z are handled by a
measure change: with constant f_z = alpha the shifted process
W~_t = W_t - alpha t is a Brownian motion under an equivalent measure, and
conditional expectations under that measure are computed by regressing
payoffs multiplied by the explicit one-step density factors
exp(alpha dW_i - alpha^2 dt / 2), each built from its own increment column.

The derivative representations implemented here are conditional expectations
of path functionals built from the forward tableau:

    D_theta Y_t  = E~[ e^{int_t^T f_y} D_theta xi | F_t ]
                 + E~[ int_t^T e^{int_t^s f_y} f_x D_theta X_s ds | F_t ]
    D2_{theta,t} Y_s, Z_t (Clark-Ocone) and D_theta Z_t analogously.

Every integrand is affine in exp(-A_theta) (A is the log-derivative integral
of the forward tableau), so a whole tableau row {theta <= t} costs a fixed
number of regressions independent of theta.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import accumulate, islice, repeat

import numpy as np

from .coeffs import Driver, Points, ProblemSpec, eval_derivative
from .errors import OrderingError, SolverError
from .forward import (
    MalliavinTableau,
    PathEnsemble,
    TimeGrid,
    _check_triangular,
    _check_unconsumed,
    _euler_lamperti,
    _exp_neg,
    _running_sums,
)
from .lamperti import LampertiMap

__all__ = [
    "RegressionBasis",
    "BackwardSolution",
    "BackwardTableau",
    "b_marks",
    "make_phi_row",
    "make_replay_sweep",
    "solve_bsde",
]

BASIS_KINDS = ("polynomial-in-x", "polynomial-in-xw")

# the implicit-in-Y fixed point: at most this many Picard iterations per
# step, stopping once no path's update exceeds the tolerance
_MAX_PICARD = 5
_PICARD_TOL = 1e-10


@dataclass(frozen=True)
class RegressionBasis:
    """Cross-sectional regression basis for conditional expectations.

    ``ridge`` is the Tikhonov weight added to the normal equations of the
    standardized non-intercept columns; None selects the default
    1e-8 * n_paths.
    """

    kind: str = "polynomial-in-x"
    degree: int = 4
    ridge: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in BASIS_KINDS:
            raise SolverError(f"basis kind must be one of {BASIS_KINDS}")
        if self.degree < 0:
            raise SolverError("basis degree must be >= 0")
        if self.ridge is not None and self.ridge < 0:
            raise SolverError("ridge must be >= 0")

    @property
    def reads_w(self) -> bool:
        """Whether the basis reads the Brownian path W: the basis in (x, w)."""
        return self.kind == "polynomial-in-xw"


def _require_finite(values, what: str, step: int, hint: str = "") -> None:
    if not np.isfinite(values).all():
        raise SolverError(f"non-finite {what} at time step {step}{hint}")


class _StepDesign:
    """Design matrix at one time step: standardized centered monomials.

    The standardization (``meta``) and the column means are kept, so fitted
    coefficients can be evaluated on states other than the fitting sample.
    """

    def __init__(self, basis: RegressionBasis, x: np.ndarray,
                 w: np.ndarray | None, ridge: float, step: int):
        self.step = step
        self.ridge = ridge
        if not basis.reads_w:
            self.powers = [(p, 0) for p in range(1, basis.degree + 1)]
            w = None
        else:
            if w is None:
                raise SolverError("polynomial-in-xw basis needs the W path")
            self.powers = [
                (p, total - p)
                for total in range(1, basis.degree + 1)
                for p in range(total + 1)
            ]
        self.meta: dict[str, float] = {}
        for tag, v in (("x", x), ("w", w)):
            if v is not None:
                _require_finite(v, f"{tag} state entering the regression", step)
                self.meta[f"{tag}_mean"] = float(v.mean())
                self.meta[f"{tag}_std"] = float(v.std())
        # a basis that overflows leaves a non-finite Gram, refused below
        self.col_means: list[float] = []
        with np.errstate(over="ignore", invalid="ignore"):
            self.D = self._columns(x, w, self.col_means)
            gram = self.D.T @ self.D
        _require_finite(gram, "regression Gram", step, "; reduce basis.degree")
        p = gram.shape[0]
        pen = np.zeros(p)
        pen[1:] = ridge
        self.gram = gram + np.diag(pen)

    def evaluator(self) -> _StepDesign:
        """A copy without the design matrix and its Gram: what
        :meth:`evaluate` reads (the powers, the standardization and the
        column means), for a fitted row that outlives its step."""
        out = copy.copy(self)
        del out.D, out.gram
        return out

    def _standardized(self, v: np.ndarray, tag: str) -> np.ndarray:
        mu = self.meta[f"{tag}_mean"]
        sd = self.meta[f"{tag}_std"]
        return (v - mu) / sd if sd > 0 else np.zeros_like(v)

    def _columns(self, x: np.ndarray, w: np.ndarray | None,
                 col_means: list[float]) -> np.ndarray:
        """The (N, p) array of the intercept and the centered monomials at the
        states (x, w).

        A power of x is a running product (``xs*xs*xs``), a few ulps from
        ``np.power``; the basis in (x, w) keeps ``xs**p * ws**q`` (ROADMAP,
        item 2).  ``col_means`` holds the fitting sample's column means; an
        empty list is filled with these states' means.  ``w`` is ignored by a
        basis in x only.
        """
        xs = self._standardized(x, "x")
        if "w_std" in self.meta:
            ws = self._standardized(w, "w")
            cols = (xs**p * ws**q for p, q in self.powers)
        else:  # one running power at a time
            cols = islice(accumulate(repeat(xs), np.multiply), len(self.powers))
        out = np.empty((len(x), len(self.powers) + 1))
        out[:, 0] = 1.0
        fill = not col_means
        for j, col in enumerate(cols, 1):
            if fill:
                col_means.append(float(col.mean()))
            # centered: the intercept reproduces constants exactly
            np.subtract(col, col_means[j - 1], out=out[:, j])
        return out

    def evaluate(self, coeffs: np.ndarray, x: np.ndarray,
                 w: np.ndarray | None) -> np.ndarray:
        """The fitted function with coefficients ``coeffs`` ((p,) or (p, k))
        at new states, through the fitting sample's standardization.

        The columns are built by :meth:`_columns`, so on the fitting sample
        they are ``D`` bit for bit.  They are summed by elementwise products,
        so each output row depends on its own state only; a BLAS matrix
        product may change its summation order with the number of rows.
        """
        out = 0.0
        for col, c in zip(self._columns(x, w, self.col_means).T, coeffs):
            out = out + np.multiply.outer(col, c)
        return out

    def fit(self, targets: np.ndarray,
            weight: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Least squares of targets on the design; returns (fitted, coeffs).

        ``targets`` may be (n,) or (n, k) for simultaneous fits.  ``weight``
        is a Girsanov density factor that multiplies each path's targets
        (None: unweighted).
        """
        if weight is not None:
            targets = targets * (weight[:, None] if targets.ndim == 2 else weight)
        rhs = self.D.T @ targets
        try:
            coeffs = np.linalg.solve(self.gram, rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"rank-deficient regression at time step {self.step}; "
                "increase ridge or reduce the basis degree"
            ) from exc
        return self.D @ coeffs, coeffs

    def fit_cross(self, targets: np.ndarray, weight: np.ndarray | None = None) -> np.ndarray:
        """Two-fold cross-fitted values: each half predicted by the other.

        The prediction for a path never uses that path's own target, so a
        cross-fitted function of time-i regressors is exactly uncorrelated
        with the path's time-i increment (used by the control variate).
        ``weight`` is as in :meth:`fit`; ``targets`` is (n,).
        """
        if weight is not None:
            targets = targets * weight
        # the folds are the even and odd rows, copied so that every BLAS
        # product runs on contiguous operands
        halves = [(self.D[k::2].copy(), targets[k::2].copy()) for k in (0, 1)]
        pen = np.zeros(self.gram.shape[0])
        pen[1:] = self.ridge * 0.5
        out = np.empty(self.D.shape[0])
        for k, (D_f, t_f) in enumerate(halves):
            gram_f = D_f.T @ D_f + np.diag(pen)
            try:
                coeffs = np.linalg.solve(gram_f, D_f.T @ t_f)
            except np.linalg.LinAlgError as exc:
                raise SolverError(
                    f"rank-deficient cross-fit at time step {self.step}"
                ) from exc
            out[1 - k :: 2] = halves[1 - k][0] @ coeffs
        return out


def _girsanov_weight(alpha: float, dw: np.ndarray, tau: float) -> np.ndarray | None:
    """Density factor exp(alpha dw - alpha^2 tau / 2) of the drift shift
    W~ = W - alpha t over a time span tau in which W moves by dw: one step
    (tau = dt) or [t, T].  None, meaning unweighted, for alpha = 0."""
    if alpha == 0.0:
        return None
    return np.exp(alpha * dw - 0.5 * alpha**2 * tau)


def _declared_entry(kept: dict, t_idx: int, what: str):
    if t_idx not in kept:
        raise OrderingError(f"t index {t_idx} was not declared; this {what} keeps {sorted(kept)}")
    return kept[t_idx]


@dataclass
class BackwardSolution:
    """LSMC solution of the backward equation on a simulated ensemble, with
    the Y/Z tableau of the same sweep when it was given a forward tableau.
    ``kept`` maps each declared t index to its (Y_t, Z_t) columns, the only
    ones kept; :meth:`y_at` / :meth:`z_at` refuse any other index."""

    problem: ProblemSpec
    basis: RegressionBasis
    ridge_used: float
    kept: dict[int, tuple[np.ndarray, np.ndarray]]
    records: list[dict] = field(default_factory=list)
    tableau: BackwardTableau | None = None

    def y_at(self, t_idx: int) -> np.ndarray:
        """Y at the declared step ``t_idx``, shape (n_paths,)."""
        return _declared_entry(self.kept, t_idx, "solution")[0]

    def z_at(self, t_idx: int) -> np.ndarray:
        """The sweep's regression Z at the declared step ``t_idx``."""
        return _declared_entry(self.kept, t_idx, "solution")[1]


def _terminal(problem: ProblemSpec, dW: list[np.ndarray], x_T: Points,
              tab: BackwardTableau | None):
    """(xi, Z_T, tableau data) on one point set of the terminal argument.

    Z_T = D_T xi is phi'(W_T), or phi'(X_T) sigma(X_T) via D_T X_T =
    sigma(X_T); W_T is summed from the step-first increments ``dW``, one step
    at a time, only for a phi-of-wt terminal.  Given the Y/Z tableau, the
    tableau data are the undiscounted D_theta xi as the (free, exp(-A_theta))
    pair and D2 xi as the (a, bc, d, e) quadruple, with B_n read from the
    tableau's kept steps; otherwise None.
    """
    wt, N = problem.terminal == "phi-of-wt", len(x_T.x)
    arg = Points(next(islice(_running_sums(N, dW, np.zeros(N)), len(dW), None))) if wt else x_T
    xi, phi1 = eval_derivative(problem.phi, 0, arg), eval_derivative(problem.phi, 1, arg)
    sig = None if wt else eval_derivative(problem.sigma, 0, arg)
    z_T = phi1 if wt else phi1 * sig
    if tab is None:
        return xi, z_T, None
    zero = tab._zero
    phi2 = eval_derivative(problem.phi, 2, arg)
    if wt:
        return xi, z_T, ((z_T, zero), np.stack([phi2, zero, zero, zero]))
    eA = np.exp(tab.ftab.A[-1])
    sA = sig * eA
    sig1 = eval_derivative(problem.sigma, 1, arg)
    d = phi2 * sA**2 + phi1 * sig1 * sig * eA**2 + phi1 * sA * tab._b_at(tab.n)
    return xi, z_T, ((zero, z_T * eA), np.stack([zero, zero, d, phi1 * sA]))


def solve_bsde(
    ens: PathEnsemble,
    problem: ProblemSpec,
    basis: RegressionBasis,
    z_control_variate: bool = True,
    forward_tab: MalliavinTableau | None = None,
    t_indices: Iterable[int] = (),
) -> BackwardSolution:
    """Backward sweep with implicit-in-Y regression Monte Carlo.

    At each step i the conditional mean c_i = E~(Y_{i+1} | F_i) is a fitted
    regression value and Y_i solves Y_i = c_i + f(X_i, Y_i) dt by fixed-point
    iteration.  Z_i is the regression of the martingale-increment projection
    (Y_{i+1} - c_i) dW~_{i+1} / dt, whose predictable center keeps the
    estimator unbiased and suppresses the O(1/dt) variance of the raw
    Y dW regressor.  Y_T = xi holds exactly by construction.

    With ``z_control_variate`` the Y-regression target is recentred by the
    fitted martingale increment z_i dW~_{i+1}, which has conditional mean
    zero and removes the O(dt) Brownian variance of the target; without it
    the Y_0 estimator degrades to the raw Monte Carlo average of the
    (weighted) terminal payoff.

    The sweep carries Y_{i+1} as one vector and keeps the Y and Z columns at
    ``t_indices`` only (Z is fitted there only).  Given ``forward_tab``, which
    must hold the ensemble's own X list (SolverError otherwise), it also
    builds the Y/Z tableau (returned as ``tableau``) with rows at the
    same indices: once Y_i is known, step i advances it on the same design,
    down to the smallest index.  Alpha is read from ``problem.driver``.

    The pass consumes the ensemble, whose paths are stored one array per
    step: once step i is done it sets ``ens.dW[i]`` to None, and ``ens.X[i]``
    too unless i is declared (and W_i, which the basis in (x, w) sums before
    the sweep), so each step is freed once it has been read.  The rows read
    A and fits, the B segments only steps not yet done, and the tableau's
    Girsanov tail each dW_s, handed to its step before the release.  After
    the pass only the declared steps of X remain; a second pass, a forward
    tableau or a dump of the ensemble raises SolverError.
    """
    n, dt, N = ens.grid.n_steps, ens.grid.dt, ens.n_paths
    ridge = basis.ridge if basis.ridge is not None else 1e-8 * N
    driver = problem.driver
    alpha = driver.alpha
    declared = {int(t) for t in t_indices}
    if not declared <= set(range(n + 1)) or not declared and forward_tab is not None:
        raise OrderingError(f"declared t indices {sorted(declared)} must be a subset "
                            f"of 0..{n}, non-empty for a tableau")
    if forward_tab is not None and forward_tab.X is not ens.X:
        raise SolverError("forward_tab must be built on this ensemble's own X")
    dW, X = ens.dW, ens.X
    _check_unconsumed(dW, "dW")
    _check_unconsumed(X, "X")

    # one point set per step: X_i serves the terminal data, the Picard loop
    # and the tableau step alike
    x = Points(X[n])
    tab = None
    if forward_tab is not None:
        tab = BackwardTableau(problem, basis, forward_tab, declared)
    y_next, z_T, terminal = _terminal(problem, dW, x, tab)
    _require_finite(y_next, "terminal value Y_T", n)
    _require_finite(z_T, "terminal value Z_T", n)
    kept = {n: (y_next, z_T)} if n in declared else {}
    if tab is not None:
        tab.step(n, None, x, y_next, None, terminal)
    if n not in declared:  # X_n is read: release it
        X[n] = None

    # the one basis that reads W reads each of its steps below n once
    W = list(islice(_running_sums(N, dW, np.zeros(N)), n)) if basis.reads_w else [None] * n
    records: list[dict | None] = [None] * n

    for i in range(n - 1, -1, -1):
        x = Points(X[i])
        design = _StepDesign(basis, X[i], W[i], ridge, i)
        # the step's Girsanov weight and shifted increment dW~_i = dW_i - alpha dt
        w_i = _girsanov_weight(alpha, dW[i], dt)
        dW_tilde = dW[i] - alpha * dt
        cfit, coef_y = design.fit(y_next, w_i)
        tz = (y_next - cfit) * dW_tilde / dt
        if z_control_variate:
            # cross-fitted z keeps the control variate exactly mean-zero
            # conditionally; an in-sample Z fit would feed its own increment
            # noise back into Y and bias the variance of (Y, Z)
            zcv = design.fit_cross(tz, w_i)
            cfit, coef_y = design.fit(y_next - zcv * dW_tilde, w_i)
        y, iters, converged = cfit, 0, True
        if not driver.is_zero:
            f_i = driver.f_given_x(x)
            for iters in range(1, _MAX_PICARD + 1):
                y_new = cfit + f_i(y) * dt
                delta = float(np.max(np.abs(y_new - y)))
                y = y_new
                converged = delta <= _PICARD_TOL
                if converged:
                    break
        _require_finite(y, "Y", i)
        if i in declared:
            zfit, _ = design.fit(tz, w_i)
            _require_finite(zfit, "Z", i)
            kept[i] = (y, zfit)
        records[i] = {
            "step": i,
            "coeffs_y": coef_y,
            "picard_iterations": iters,
            "picard_converged": converged,
            **design.meta,
        }
        # the fit targets die before the tableau step, which peaks above them
        y_next = cfit = tz = zcv = dW_tilde = w_i = f_i = None
        if tab is not None and i >= tab.lowest:
            tab.step(i, design, x, y, dW[i])
        y_next = y
        dW[i] = W[i] = None  # step i is read: release it
        if i not in declared:
            X[i] = None

    return BackwardSolution(problem=problem, basis=basis, ridge_used=ridge, kept=kept,
                            records=records, tableau=tab)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Malliavin tableau for Y and Z
# ---------------------------------------------------------------------------


def b_marks(problem: ProblemSpec, n: int, t_indices) -> list[int]:
    """The steps at which the Y/Z tableau of a pass over n steps with rows
    at ``t_indices`` keeps B: every k-th step from the smallest declared
    index, k ~ sqrt of the pass length, and n last, when the f_x integrand
    reads B at every step; the declared indices and n when only an X_T
    terminal reads it; none when nothing reads B.  The forward sweep builds
    them (:func:`forward.simulate_forward`), and the pass rebuilds each
    segment between two of them once (see :meth:`BackwardTableau._b_at`)."""
    drv = problem.driver
    if drv.f_of_x is not None or drv.cross_x is not None:
        lowest = min(t_indices)
        return [*range(lowest, n, math.isqrt(n - lowest) + 1), n]
    if problem.terminal == "phi-of-xt":
        return sorted({*t_indices, n})
    return []


@dataclass(frozen=True)
class _Row:
    """The fits the tableau keeps at one declared time index.

    ``design`` (its :meth:`_StepDesign.evaluator`) and the coefficient arrays
    are None at the terminal node, where conditioning on F_T is the identity
    and nothing is fitted.  ``b`` is the column B_t that the D2Y and D_theta
    Z rows read, None when its D2Y f4 and its D_theta Z e are both zero.
    """

    design: _StepDesign | None
    dy: tuple[np.ndarray, np.ndarray]
    dy_coeffs: np.ndarray | None
    d2y: tuple[np.ndarray, ...]
    z_clark: np.ndarray
    dz: tuple[np.ndarray, ...]
    dz_coeffs: np.ndarray | None
    b: np.ndarray | None


class BackwardTableau:
    """D_theta Y, D2_{theta,t} Y, Clark-Ocone Z and D_theta Z at declared times.

    Each representation is a conditional expectation of a tail integral
    int_t^T of path integrands, estimated on the solver's regression basis.
    With G = (c1, c2) the D_theta Y fits, F the D2Y fits and

        h = (f_yy G1^2,  f_xy se G1 + f_yy G1 G2,
             2 f_xy se G2 + f_yy G2^2 + f_xx se^2 + f_x sigma' sigma e^{2A}
             + f_x se B,  f_x se),                    se = sigma e^A,

    the pass from T down to the smallest declared index carries three running
    trapezoid tails, O(n_paths) state each:

    * the tail of h discounted by exp(int f_y): the D2Y targets, and in its
      last column the D_theta Y integral;
    * the plain tail of h + f_y F: the D_theta Z targets;
    * the plain tail of (f_y G1, f_x se + f_y G2): the Clark-Ocone Z targets.

    A tail obeys T_s = d_s (T_{s+1} + dt/2 h_{s+1}) + dt/2 h_s with the local
    discount d_s = exp(dt/2 (f_y(s) + f_y(s+1))) (d_s = 1 for plain tails),
    so no cumulative path matrix is formed.  G and F are fitted at undeclared
    steps only when f_y is present, since only the f_y terms carry them to
    earlier times.

    :func:`solve_bsde` builds the tableau and calls :meth:`step` on each of
    its steps down to the smallest declared index.  Only the rows at
    ``t_indices`` are kept; a row yields the entries for every theta <= t at
    once because each target is affine in exp(-A_theta).  A kept row holds
    its design's evaluator and its B_t step, no path matrix.  An undeclared
    index raises OrderingError, a non-finite kept row SolverError.

    X, A, B, n and dt come from ``forward_tab``, each dW_s from the pass.
    B is never held whole: the pass takes over the forward tableau's B steps
    at :func:`b_marks` (built by the forward sweep, or in one walk for a
    tableau that lacks them) and rebuilds each segment between two marks
    once (see :meth:`_b_at`).  A linear z-term alpha of ``problem``'s
    driver enters only through the Girsanov weights over [t, T] (the driver
    partials do not see it), which read the tail W_T - W_s: at alpha != 0 only, one vector that starts at
    zero at s = n and adds dW_s at each step s < n.
    """

    def __init__(
        self,
        problem: ProblemSpec,
        basis: RegressionBasis,
        forward_tab: MalliavinTableau,
        t_indices: set[int],
    ):
        self.ftab = ftab = forward_tab
        self.problem = problem
        self.basis = basis
        self.n = ftab.n
        self.dt = ftab.dt
        self._declared = t_indices  # a non-empty subset of 0..n (solve_bsde checks)
        self.lowest = min(t_indices)
        self._rows: dict[int, _Row] = {}
        drv = problem.driver
        self._has_fy = drv.f_of_y is not None or drv.cross_x is not None
        self._has_fx = drv.f_of_x is not None or drv.cross_x is not None
        self._active = not drv.is_zero  # a zero driver keeps every tail zero
        # B, read by the f_x integrand at every step and by an X_T terminal at
        # the declared rows and at n: the pass takes over the forward
        # tableau's steps at the marks, building any it lacks in one walk
        # (see b_marks and _b_at)
        marks, held = b_marks(problem, self.n, t_indices), ftab.b_marks
        missing = [m for m in marks if m not in held]
        held.update(zip(missing, ftab.B(missing)))
        self._b_marks, self._b_lo, self._b_seg = [(m, held.pop(m)) for m in marks], 0, []

        # running state between two steps, O(n_paths) each; _above holds
        # (f_y, h + f_y F, Clark-Ocone integrand) of step s + 1.  A tail starts
        # as 0.0 (x + 0.0 has the bits of x + zeros): a zero driver holds none
        self._above = None
        N = ftab.n_paths
        self._zero = np.zeros(N)  # read-only, shared by every step and kept row
        self._zero.flags.writeable = False
        self._w_tail = np.zeros(N) if drv.alpha else None  # W_T - W_s
        self._d2y_tail = 0.0   # discounted tail of h, plus dt/2 h_s between steps
        self._dz_tail = 0.0    # plain tail of h + f_y F
        self._z_tail = 0.0     # plain tail of (f_y G1, f_x se + f_y G2)
        self._discount = 1.0   # exp(int_s^T f_y)

    def step(self, s: int, design: _StepDesign | None, x: Points, y: np.ndarray,
             dw: np.ndarray | None = None, terminal: tuple | None = None) -> None:
        """Advance the pass from s + 1 to s, given the solver's point set of
        X_s, Y_s, its design at s and ``dw`` = dW_s.  The pass starts at
        s = n, where nothing is fitted (``design`` and ``dw`` are None) and
        ``terminal`` is the (D_theta xi, D2 xi) data of :func:`_terminal`.
        The running state is updated in place, with the plain operands."""
        if s == self.n:
            self._dxi, self._d2xi = terminal
        elif self._w_tail is not None:
            self._w_tail += dw
        keep = s in self._declared
        if not (keep or self._active):
            return
        drv, A, zero = self.problem.driver, self.ftab.A, self._zero
        has_fy, has_fx = self._has_fy, self._has_fx
        wt = self.problem.terminal == "phi-of-wt"
        half = 0.5 * self.dt
        # the driver partials, sigma and sigma' share each transcendental of X_s, Y_s
        y = Points(y)
        fitted = keep or has_fy
        carry = self._active and s < self.n
        lam = None
        if fitted and design is not None:  # the weight over [s, T]; None at alpha = 0
            lam = _girsanov_weight(drv.alpha, self._w_tail, (self.n - s) * self.dt)

        fy = drv.partial(0, 1, x, y) if has_fy else None
        h = np.zeros((4, len(zero)))
        if has_fx:
            fx = drv.partial(1, 0, x, y)
            e_a = np.exp(A[s])
            se = eval_derivative(self.problem.sigma, 0, x) * e_a  # sigma e^A
            h[3] = fx * se
            h[2] = drv.partial(2, 0, x, y) * se**2
            if fx.any():  # B is read only when f_x is non-zero
                h[2] += h[3] * (eval_derivative(self.problem.sigma, 1, x) * e_a + self._b_at(s))
        if carry:
            fy_above, p_above, c_above = self._above
            if has_fy:  # the local discount, in the buffer of f_y(s + 1); 1 otherwise
                d = np.exp(np.multiply(half, fy + fy_above, out=fy_above), out=fy_above)
                self._discount *= d
                self._d2y_tail *= d

        G = None
        if fitted:
            c1_t = self._discount * self._dxi[0] if wt else None
            c2_t = None if wt else self._discount * self._dxi[1]
            if has_fx:
                integral = self._d2y_tail[3] + half * h[3] if carry else zero
                c2_t = integral if c2_t is None else c2_t + integral
            G, dy_coeffs = _fit_pair(design, lam, c1_t, c2_t, zero)
            c1_t = c2_t = integral = None  # the targets die before the F fit
        if has_fy:
            g1, g2 = G
            fyy = drv.partial(0, 2, x, y)
            h[0] = fyy * g1 * g1
            h[1] = fyy * g1 * g2
            h[2] += fyy * g2 * g2
            if drv.cross_x is not None:
                fxy_se = drv.partial(1, 1, x, y) * se
                h[1] += fxy_se * g1
                h[2] += 2.0 * fxy_se * g2
        if carry:
            self._d2y_tail += half * h  # T_s

        if fitted:
            F, _ = _fit_rows(design, lam, self._d2xi, self._d2y_tail, self._discount)
        if self._active:
            self._d2y_tail += half * h  # T_s + dt/2 h_s
            c = np.stack([fy * g1, h[3] + fy * g2]) if has_fy else np.stack([zero, h[3]])
            for h_k, F_k in zip(h, F) if has_fy else ():  # p = h + f_y F, in h
                h_k += fy * F_k
            if carry:  # dt/2 (above + p) in the buffers of step s + 1
                self._dz_tail += np.multiply(half, np.add(p_above, h, out=p_above), out=p_above)
                self._z_tail += np.multiply(half, np.add(c_above, c, out=c_above), out=c_above)
            self._above = (fy, h, c)

        if keep:
            dz, dz_coeffs = _fit_rows(design, lam, self._d2xi, self._dz_tail)
            free, dep = np.add(self._dxi, self._z_tail)
            if design is None:
                zc = free + np.exp(-A[s]) * dep
            else:
                zc = design.fit(free, lam)[0] + np.exp(-A[s]) * design.fit(dep, lam)[0]
            for name, v in (("D_theta Y", G), ("D2 Y", F), ("Clark-Ocone Z", zc),
                            ("D_theta Z", dz)):
                _require_finite(v, f"{name} row", s)
            self._rows[s] = _Row(
                None if design is None else design.evaluator(), G, dy_coeffs, tuple(F),
                zc, tuple(dz), dz_coeffs,
                self._b_at(s).copy() if F[3].any() or dz[3].any() else None,
            )
        if s == self.lowest:  # the pass is complete: drop its running state
            del self._dxi, self._d2xi, self._above, self._discount
            del self._d2y_tail, self._dz_tail, self._z_tail, self._w_tail
            del self._b_marks, self._b_lo, self._b_seg

    def _b_at(self, s: int) -> np.ndarray:
        """B_s on the pass down from n, a step of the segment that the pass
        builds when it enters the segment between two kept steps: steps
        lo..s walked up from the kept step lo at or below s
        (:meth:`MalliavinTableau.B`; from step 0 the build starts from B's
        leading zero), bitwise the cumulative sum.  The kept steps above s
        and the previous segment are dropped first; so the pass holds
        O(sqrt(n)) steps of B, not all of them."""
        if not self._b_lo <= s < self._b_lo + len(self._b_seg):
            marks = self._b_marks
            while marks[-1][0] > s:
                marks.pop()
            lo, b = marks[-1]
            self._b_seg = None  # drop the previous segment before building this one
            self._b_lo, self._b_seg = lo, self.ftab.B(slice(lo, s + 1), lo, b if lo else None)
        return self._b_seg[s - self._b_lo]

    def _row(self, t_idx: int) -> _Row:
        return _declared_entry(self._rows, t_idx, "tableau")

    # -- D_theta Y_t ------------------------------------------------------------

    def dy_fits(self, t_idx: int) -> tuple[np.ndarray, np.ndarray]:
        """Fitted pair (c1, c2) with D_theta Y_t = c1 + exp(-A_theta) c2."""
        return self._row(t_idx).dy

    def _exp_neg_a_theta(self, t_idx: int, rows: slice, thetas) -> np.ndarray:
        """e^{-A_theta} on the paths ``rows`` as a C-order (rows, k) block,
        for every theta <= t of a row, or for the checked list ``thetas``."""
        if thetas is None:
            thetas = range(t_idx + 1)
        else:
            _check_triangular(thetas, t_idx, self.n)
        return _exp_neg([self.ftab.A[th][rows] for th in thetas])

    def dy_matrix(self, t_idx: int, rows: slice = slice(None), thetas=None) -> np.ndarray:
        """D_theta Y_t on the paths ``rows`` for every theta <= t, or for the
        indices ``thetas``.  An entry depends on its path and theta alone, so
        a block or a theta list has the bits of the whole matrix."""
        c1, c2 = self.dy_fits(t_idx)
        return _dy_row(c1[rows], c2[rows], self._exp_neg_a_theta(t_idx, rows, thetas))

    # -- D2_{theta,t} Y_s ---------------------------------------------------------

    def d2y_fits(self, s_idx: int) -> tuple[np.ndarray, ...]:
        """Fitted quadruple (f0, f12, f3, f4) with

        D2_{theta,t} Y_s = f0 + (e^{-A_theta} + e^{-A_t}) f12
                           + e^{-A_theta - A_t} f3 - B_t e^{-A_theta - A_t} f4.
        """
        return self._row(s_idx).d2y

    def d2y_all(self, theta_idx: int, t_idx: int, s_idx: int) -> np.ndarray:
        """D2_{theta,t} Y_s across paths, from the quadruple kept at s (see
        :meth:`d2y_fits`).  With f4 non-zero somewhere it reads B at
        max(theta, t) from the row kept there, since the pass has released
        the steps of X that a rebuild of B would read: that index must have
        been declared as well, or OrderingError names it."""
        lo, hi = min(theta_idx, t_idx), max(theta_idx, t_idx)
        if s_idx < hi or s_idx > self.n:
            raise OrderingError(
                f"D2Y needs max(theta, t) <= s <= n; got ({theta_idx}, {t_idx}, {s_idx})"
            )
        f0, f12, f3, f4 = self.d2y_fits(s_idx)
        ea, eb = np.exp(-self.ftab.A[lo]), np.exp(-self.ftab.A[hi])
        out = f0 + (ea + eb) * f12 + ea * eb * f3
        if f4.any():  # f4 == 0 whenever f_x vanishes and xi is not phi(X_T)
            out = out - self._row(hi).b * ea * eb * f4
        return out

    # -- Clark-Ocone Z ------------------------------------------------------------

    def z_clark_all(self, t_idx: int) -> np.ndarray:
        """Z_t = E~(D_t xi + int_t^T {f_x D_t X_s + f_y D_t Y_s} ds | F_t).

        The F_t-measurable history factor exp(-A_t) multiplies its fitted
        component pathwise; only the genuinely conditional parts are
        regressed.
        """
        return self._row(t_idx).z_clark

    # -- D_theta Z_t ----------------------------------------------------------------

    def dz_fits(self, t_idx: int) -> tuple[np.ndarray, ...]:
        """Fitted quadruple (a, bc, d, e) with

        D_theta Z_t = a + (e^{-A_theta} + e^{-A_t}) bc
                        + e^{-A_theta - A_t} (d - B_t e).

        The structure mirrors :meth:`d2y_fits`: every F_t-measurable history
        factor multiplies its fitted component pathwise.
        """
        return self._row(t_idx).dz

    def dz_matrix(self, t_idx: int, rows: slice = slice(None), thetas=None) -> np.ndarray:
        """D_theta Z_t on the paths ``rows``, as :meth:`dy_matrix`."""
        fa, fbc, fd, fe = self.dz_fits(t_idx)
        # the branch follows fe on the whole row, so a block of paths takes
        # the whole row's branch
        b = self._row(t_idx).b
        inner = fd[rows] - b[rows] * fe[rows] if fe.any() else fd[rows]
        return _dz_row(fa[rows], fbc[rows], inner, self._exp_neg_a_theta(t_idx, rows, thetas),
                       np.exp(-self.ftab.A[t_idx][rows]))


def _fit_pair(design: _StepDesign | None, lam: np.ndarray | None,
              c1_t: np.ndarray | None, c2_t: np.ndarray | None,
              zero: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray | None]:
    """The D_theta Y pair (c1, c2) and its (p, 2) coefficients; a missing
    target is identically zero and is not fitted."""
    if design is None:  # conditioning on F_T is the identity
        return (zero if c1_t is None else c1_t, zero if c2_t is None else c2_t), None
    # separate c1 and c2 solves: a fused two-column solve moves the
    # fitted values at the ulp level
    coeffs = np.zeros((design.gram.shape[0], 2))
    c1, c2 = zero, zero
    if c1_t is not None:
        c1, coeffs[:, 0] = design.fit(c1_t, lam)
    if c2_t is not None:
        c2, coeffs[:, 1] = design.fit(c2_t, lam)
    return (c1, c2), coeffs


def _fit_rows(design: _StepDesign | None, lam: np.ndarray | None, a: np.ndarray,
              b: np.ndarray | float, scale=1.0) -> tuple[np.ndarray, np.ndarray | None]:
    """One simultaneous fit of the (k, n_paths) targets scale * a + b:
    ((k, n_paths) fitted values, (p, k) coefficients).  The targets are
    written straight into the C-order (n_paths, k) layout of np.column_stack."""
    targets = np.empty(a.shape[::-1]).T
    np.multiply(scale, a, out=targets)
    targets += b
    if design is None:
        return targets, None
    fitted, coeffs = design.fit(targets.T, lam)
    return fitted.T, coeffs


def _dy_row(c1: np.ndarray, c2: np.ndarray, ea_th: np.ndarray) -> np.ndarray:
    """D_theta Y_t = c1 + e^{-A_theta} c2 for the theta columns of ``ea_th``."""
    # in place: the caller still holds ea_th, so only one more row is built
    out = ea_th * c2[:, None]
    out += c1[:, None]
    return out


def _dz_row(fa: np.ndarray, fbc: np.ndarray, inner: np.ndarray, ea_th: np.ndarray,
            ea_t: np.ndarray) -> np.ndarray:
    """D_theta Z_t = a + (e^{-A_theta} + e^{-A_t}) bc + e^{-A_theta - A_t} inner
    for the theta columns of ``ea_th``, where inner = d - B_t e."""
    # in place: besides the caller's ea_th, only the output and one product row
    ea_t = ea_t[:, None]
    out = ea_th + ea_t
    out *= fbc[:, None]
    out += fa[:, None]
    prod = ea_th * ea_t
    prod *= inner[:, None]
    out += prod
    return out


# ---------------------------------------------------------------------------
# Replay pipeline for the Nourdin-Viens g-estimator
# ---------------------------------------------------------------------------


def make_replay_sweep(problem: ProblemSpec, grid: TimeGrid, lmap: LampertiMap, t_max: int,
                      reads_w: bool = False):
    """``sweep(increments) -> MalliavinTableau``: the forward sweep of one
    increment matrix up to step ``t_max`` on the main run's forward model,
    the state every Phi row of the g-estimator reads.

    Escaping paths are clamped to the working box instead of dropped, so the
    rows stay aligned with the unshifted ensemble; the ``n_clamped``
    attribute sums the clamp events up to ``t_max`` of all its sweeps.  The
    Euler loop builds A from its own point sets, reading the increments
    step first through the transposed view of ``increments``; each row
    slices the tableau's ``exp_neg_A``, one path-major matrix gathered from
    the steps of A, and builds the one step of B it reads.  The state holds that view's first ``t_max`` steps only
    when ``reads_w``, for the basis in (x, w); otherwise its dW is None, so
    a shifted increment matrix is freed once the sweep returns.
    """

    def sweep(increments: np.ndarray) -> MalliavinTableau:
        steps = increments.T  # a view whose rows are the steps: nothing is copied
        X, hits, sums = _euler_lamperti(problem, grid, steps, lmap, t_max, b_marks=())
        sweep.n_clamped += int(hits.sum())
        return MalliavinTableau(steps[:t_max] if reads_w else None, X, lmap, grid.dt,
                                sums=sums)

    sweep.n_clamped = 0
    return sweep


def make_phi_row(btab: BackwardTableau, t_idx: int, component: str):
    """``phi(state)``: theta -> D_theta Y_t or D_theta Z_t on the paths of a
    replay :class:`MalliavinTableau` that reaches ``t_idx``; ``component`` is "Y" or "Z".

    By the Markov property the coefficients of the row (c1, c2 for Y, the
    quadruple for Z) are deterministic functions of the time-t state, and
    ``btab`` has fitted them on the whole main-run ensemble.  The row
    evaluates the frozen fits at the sweep's time-t states and assembles
    itself with the main run's formula, reading B_t only when the fitted
    e-coefficients are non-zero and W_t only for the basis in (x, w), whose
    sweep must hold its increments (``make_replay_sweep(..., reads_w=True)``).
    Output row i depends on increment row i only.  The Girsanov weights of
    a linear z-driver are already inside the fits.  The terminal node has no
    regression to freeze and is refused with a SolverError.
    """
    if component not in ("Y", "Z"):
        raise SolverError(f"component must be 'Y' or 'Z'; got {component!r}")
    if t_idx == btab.n:
        raise SolverError(
            f"t index {t_idx} is the terminal node t = {t_idx * btab.dt:g}, where "
            f"D_theta {component}_t has no fitted regression to evaluate; the "
            "g-estimator needs an eval time that snaps below T"
        )
    row = btab._row(t_idx)
    design = row.design
    coeffs = row.dy_coeffs if component == "Y" else row.dz_coeffs
    uses_b = component == "Z" and bool(coeffs[:, 3].any())
    uses_w = btab.basis.reads_w

    def phi(state: MalliavinTableau) -> np.ndarray:
        if uses_w and state.dW is None:
            raise SolverError("the (x, w) basis reads W_t: the replay sweep must hold dW")
        w = (next(islice(_running_sums(state.n_paths, state.dW, np.zeros(state.n_paths)),
                         t_idx, None)) if uses_w else None)  # W_t, one step at a time
        fits = design.evaluate(coeffs, state.X[t_idx], w)
        ea_th = state.exp_neg_A[:, : t_idx + 1]
        if component == "Y":
            return _dy_row(fits[:, 0], fits[:, 1], ea_th)
        inner = fits[:, 2]
        if uses_b:
            inner = inner - state.B(t_idx) * fits[:, 3]
        return _dz_row(fits[:, 0], fits[:, 1], inner, ea_th, state.exp_neg_A[:, t_idx])

    return phi
