"""Least-squares Monte Carlo BSDE solver and Malliavin tableaux for Y and Z.

Conditional expectations E(. | F_t) are estimated by cross-sectional
regression of (possibly measure-weighted) path targets on polynomial bases of
the time-t state; one simulated ensemble serves every representation.

Drivers with a linear z-term f*(x, y, z) = f(x, y) + alpha z are handled by a
measure change: with constant f_z = alpha the shifted process
W~_t = W_t - alpha t is a Brownian motion under an equivalent measure, and
conditional expectations under that measure are computed by regressing
payoffs multiplied by the explicit one-step density factors
exp(alpha dW - alpha^2 dt / 2).

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

from dataclasses import dataclass, replace, field

import numpy as np

from .coeffs import Driver, ProblemSpec, eval_derivative
from .errors import OrderingError, SolverError
from .forward import MalliavinTableau, PathEnsemble, TimeGrid, _cumtrapz, _euler_lamperti
from .lamperti import LampertiMap

__all__ = [
    "RegressionBasis",
    "DriftShift",
    "BackwardSolution",
    "BackwardTableau",
    "girsanov_reduce",
    "solve_bsde",
]

BASIS_KINDS = ("polynomial-in-x", "polynomial-in-xw")


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


class _StepDesign:
    """Design matrix at one time step: standardized centered monomials.

    The standardization (``meta``) and the column means are kept, so fitted
    coefficients can be evaluated on states other than the fitting sample.
    """

    def __init__(self, basis: RegressionBasis, x: np.ndarray,
                 w: np.ndarray | None, ridge: float, step: int):
        self.step = step
        self.ridge = ridge
        if basis.kind == "polynomial-in-x":
            self.powers = [(p, 0) for p in range(1, basis.degree + 1)]
            w = None
        else:
            if w is None:
                raise SolverError("polynomial-in-xw basis needs the W path")
            self.powers = [
                (p, q)
                for total in range(1, basis.degree + 1)
                for p in range(total + 1)
                if (q := total - p) >= 0
            ]
        self.meta: dict[str, float] = {}
        for tag, v in (("x", x), ("w", w)):
            if v is not None:
                self.meta[f"{tag}_mean"] = float(v.mean())
                self.meta[f"{tag}_std"] = float(v.std())
        cols, self.col_means = self._columns(x, w)
        self.D = np.column_stack(cols)
        gram = self.D.T @ self.D
        p = gram.shape[0]
        pen = np.zeros(p)
        pen[1:] = ridge
        self.gram = gram + np.diag(pen)

    def _standardized(self, v: np.ndarray, tag: str) -> np.ndarray:
        mu = self.meta[f"{tag}_mean"]
        sd = self.meta[f"{tag}_std"]
        return (v - mu) / sd if sd > 0 else np.zeros_like(v)

    def _columns(self, x: np.ndarray, w: np.ndarray | None,
                 col_means: list[float] | None = None) -> tuple[list[np.ndarray], list[float]]:
        """Intercept and centered monomial columns at the states (x, w).

        The column means are taken from these states unless ``col_means``
        supplies the fitting sample's.  ``w`` is ignored by a basis in x only.
        """
        xs = self._standardized(x, "x")
        ws = self._standardized(w, "w") if "w_std" in self.meta else None
        cols = [np.ones_like(x)]
        means = []
        for k, (p, q) in enumerate(self.powers):
            col = xs**p if p else np.ones_like(xs)
            if q:
                col = col * ws**q
            m = float(col.mean()) if col_means is None else col_means[k]
            means.append(m)
            cols.append(col - m)  # centered: the intercept reproduces constants exactly
        return cols, means

    def evaluate(self, coeffs: np.ndarray, x: np.ndarray,
                 w: np.ndarray | None) -> np.ndarray:
        """The fitted function with coefficients ``coeffs`` ((p,) or (p, k))
        at new states, through the fitting sample's standardization.

        The columns are accumulated by elementwise products, so each output
        row depends on its own state only; a BLAS matrix product may change
        its summation order with the number of rows.
        """
        cols, _ = self._columns(x, w, self.col_means)
        out = 0.0
        for col, c in zip(cols, coeffs):
            out = out + np.multiply.outer(col, c)
        return out

    def fit(self, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Least squares of targets on the design; returns (fitted, coeffs).

        ``targets`` may be (n,) or (n, k) for simultaneous fits.
        """
        rhs = self.D.T @ targets
        try:
            coeffs = np.linalg.solve(self.gram, rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"rank-deficient regression at time step {self.step}; "
                "increase ridge or reduce the basis degree"
            ) from exc
        return self.D @ coeffs, coeffs

    def fit_cross(self, targets: np.ndarray) -> np.ndarray:
        """Two-fold cross-fitted values: each half predicted by the other.

        The prediction for a path never uses that path's own target, so a
        cross-fitted function of time-i regressors is exactly uncorrelated
        with the path's time-i increment (used by the control variate).
        """
        n = self.D.shape[0]
        even = np.arange(n) % 2 == 0
        out = np.empty(n)
        for fold in (even, ~even):
            D_f = self.D[fold]
            pen = np.zeros(self.gram.shape[0])
            pen[1:] = self.ridge * 0.5
            gram_f = D_f.T @ D_f + np.diag(pen)
            try:
                coeffs = np.linalg.solve(gram_f, D_f.T @ targets[fold])
            except np.linalg.LinAlgError as exc:
                raise SolverError(
                    f"rank-deficient cross-fit at time step {self.step}"
                ) from exc
            out[~fold] = self.D[~fold] @ coeffs
        return out


@dataclass(frozen=True)
class DriftShift:
    """Descriptor of the Girsanov drift shift W~ = W - alpha t.

    For alpha = 0 every method degenerates to the identity/no-op.
    """

    alpha: float

    @property
    def is_identity(self) -> bool:
        return self.alpha == 0.0

    def shifted_increments(self, ens: PathEnsemble) -> np.ndarray:
        """dW~_i = dW_i - alpha dt."""
        if self.is_identity:
            return ens.dW
        return ens.dW - self.alpha * ens.grid.dt

    def step_weights(self, ens: PathEnsemble) -> np.ndarray | None:
        """One-step density factors exp(alpha dW - alpha^2 dt / 2)."""
        if self.is_identity:
            return None
        return np.exp(self.alpha * ens.dW - 0.5 * self.alpha**2 * ens.grid.dt)

    def weight_to_horizon(self, ens: PathEnsemble, t_idx: int) -> np.ndarray | None:
        """Density factor over [t, T]: exp(alpha (W_T - W_t) - alpha^2 (T-t)/2)."""
        if self.is_identity:
            return None
        n = ens.grid.n_steps
        tau = (n - t_idx) * ens.grid.dt
        return np.exp(
            self.alpha * (ens.W[:, n] - ens.W[:, t_idx]) - 0.5 * self.alpha**2 * tau
        )


def girsanov_reduce(problem: ProblemSpec) -> tuple[ProblemSpec, DriftShift]:
    """Remove the linear z-term from the driver via a constant drift shift.

    Returns the problem with alpha = 0 together with the shift descriptor;
    downstream conditional expectations apply the descriptor's density
    factors.  For alpha = 0 the reduction is the identity.
    """
    alpha = problem.driver.alpha
    if alpha == 0.0:
        return problem, DriftShift(0.0)
    reduced = replace(problem, driver=replace(problem.driver, alpha=0.0))
    return reduced, DriftShift(alpha)


@dataclass
class BackwardSolution:
    """LSMC solution of the backward equation on a simulated ensemble."""

    problem: ProblemSpec
    reduced: ProblemSpec
    shift: DriftShift
    basis: RegressionBasis
    ridge_used: float
    Y: np.ndarray
    Z: np.ndarray
    records: list[dict] = field(default_factory=list)

    def coefficients(self, t_idx: int) -> dict:
        return self.records[t_idx]


def terminal_values(problem: ProblemSpec, ens: PathEnsemble) -> np.ndarray:
    arg = ens.W[:, -1] if problem.terminal == "phi-of-wt" else ens.X[:, -1]
    return eval_derivative(problem.phi, 0, arg)


def _terminal_z(problem: ProblemSpec, ens: PathEnsemble,
                sigX_T: np.ndarray | None = None) -> np.ndarray:
    """D_T xi: phi'(W_T), or phi'(X_T) sigma(X_T) via D_T X_T = sigma(X_T)."""
    if problem.terminal == "phi-of-wt":
        return eval_derivative(problem.phi, 1, ens.W[:, -1])
    if sigX_T is None:
        sigX_T = eval_derivative(problem.sigma, 0, ens.X[:, -1])
    return eval_derivative(problem.phi, 1, ens.X[:, -1]) * sigX_T


def solve_bsde(
    ens: PathEnsemble,
    problem: ProblemSpec,
    basis: RegressionBasis,
    max_picard: int = 5,
    picard_tol: float = 1e-10,
    z_control_variate: bool = True,
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
    """
    reduced, shift = girsanov_reduce(problem)
    grid = ens.grid
    n = grid.n_steps
    dt = grid.dt
    N = ens.n_paths
    ridge = basis.ridge if basis.ridge is not None else 1e-8 * N
    driver = reduced.driver

    Y = np.empty((N, n + 1))
    Z = np.empty((N, n + 1))
    Y[:, n] = terminal_values(reduced, ens)
    Z[:, n] = _terminal_z(reduced, ens)

    lam = shift.step_weights(ens)
    dW_tilde = shift.shifted_increments(ens)
    need_w = basis.kind == "polynomial-in-xw"
    records: list[dict | None] = [None] * n

    for i in range(n - 1, -1, -1):
        design = _StepDesign(
            basis, ens.X[:, i], ens.W[:, i] if need_w else None, ridge, i
        )
        w_i = lam[:, i] if lam is not None else None
        ty = Y[:, i + 1] if w_i is None else w_i * Y[:, i + 1]
        cfit, coef_y = design.fit(ty)
        tz = (Y[:, i + 1] - cfit) * dW_tilde[:, i] / dt
        if w_i is not None:
            tz = w_i * tz
        zfit, coef_z = design.fit(tz)
        Z[:, i] = zfit
        if z_control_variate:
            # cross-fitted z keeps the control variate exactly mean-zero
            # conditionally; the in-sample zfit would feed its own increment
            # noise back into Y and bias the variance of (Y, Z)
            zcv = design.fit_cross(tz)
            ty2 = Y[:, i + 1] - zcv * dW_tilde[:, i]
            if w_i is not None:
                ty2 = w_i * ty2
            cfit, coef_y = design.fit(ty2)
        if driver.is_zero:
            y = cfit
            iters = 0
        else:
            y = cfit
            for iters in range(1, max_picard + 1):
                y_new = cfit + driver.f(ens.X[:, i], y) * dt
                delta = float(np.max(np.abs(y_new - y)))
                y = y_new
                if delta <= picard_tol:
                    break
        Y[:, i] = y
        records[i] = {
            "step": i,
            "coeffs_y": coef_y,
            "coeffs_z": coef_z,
            "picard_iterations": iters,
            **design.meta,
        }

    return BackwardSolution(
        problem=problem,
        reduced=reduced,
        shift=shift,
        basis=basis,
        ridge_used=ridge,
        Y=Y,
        Z=Z,
        records=records,  # type: ignore[arg-type]
    )


# ---------------------------------------------------------------------------
# Malliavin tableau for Y and Z
# ---------------------------------------------------------------------------


class BackwardTableau:
    """D_theta Y, D2_{theta,t} Y, Clark-Ocone Z and D_theta Z along the ensemble.

    All representations are conditional expectations estimated on the same
    regression basis as the solver.  Results are cached per time index; a
    cached row yields the entries for every theta at once because each target
    is affine in exp(-A_theta).
    """

    def __init__(
        self,
        ens: PathEnsemble,
        sol: BackwardSolution,
        forward_tab: MalliavinTableau,
    ):
        self.ens = ens
        self.sol = sol
        self.ftab = forward_tab
        self.problem = sol.reduced
        self.shift = sol.shift
        self.basis = sol.basis
        grid = ens.grid
        self.n = grid.n_steps
        self.dt = grid.dt

        driver = self.problem.driver
        X, Y = ens.X, sol.Y
        self._has_fy = driver.f_of_y is not None or driver.cross_x is not None
        self._has_fx = driver.f_of_x is not None or driver.cross_x is not None
        self._driver = driver
        self.fy = driver.fy(X, Y) if self._has_fy else None
        self.Ecum = _cumtrapz(self.fy, self.dt) if self.fy is not None else None
        self._expA: np.ndarray | None = None

        # terminal data
        phi = self.problem.phi
        if self.problem.terminal == "phi-of-wt":
            self.phi1_T = eval_derivative(phi, 1, ens.W[:, -1])
            self.phi2_T = eval_derivative(phi, 2, ens.W[:, -1])
        else:
            self.phi1_T = eval_derivative(phi, 1, ens.X[:, -1])
            self.phi2_T = eval_derivative(phi, 2, ens.X[:, -1])

        self._designs: dict[int, _StepDesign] = {}
        self._dy_fits: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._d2y_fits: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
        self._dz_fits: dict[int, tuple[np.ndarray, ...]] = {}
        self._z_clark: dict[int, np.ndarray] = {}
        self._dy_int_cum: np.ndarray | None = None
        self._G: tuple[np.ndarray, np.ndarray] | None = None
        self._d2y_cums: dict[str, np.ndarray] | None = None
        self._plain_cums: dict[str, np.ndarray] | None = None
        self._plain_has_second = False
        self._F: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None

    # -- plumbing -------------------------------------------------------------

    @property
    def expA(self) -> np.ndarray:
        # only needed when DX rows enter a target; skip the allocation for
        # zero-driver W_T-terminal problems
        if self._expA is None:
            self._expA = np.exp(self.ftab.A)
        return self._expA

    def _design(self, t_idx: int) -> _StepDesign:
        if t_idx not in self._designs:
            need_w = self.basis.kind == "polynomial-in-xw"
            self._designs[t_idx] = _StepDesign(
                self.basis,
                self.ens.X[:, t_idx],
                self.ens.W[:, t_idx] if need_w else None,
                self.sol.ridge_used,
                t_idx,
            )
        return self._designs[t_idx]

    def _fit(self, t_idx: int, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(fitted, coeffs) of the measure-weighted regression at step t_idx."""
        lam = self.shift.weight_to_horizon(self.ens, t_idx)
        if lam is not None:
            target = target * (lam[:, None] if target.ndim == 2 else lam)
        return self._design(t_idx).fit(target)

    def _exp_E_tail(self, t_idx: int) -> np.ndarray | float:
        """exp(int_t^T f_y ds) per path (1.0 when the driver has no y-part)."""
        if self.Ecum is None:
            return 1.0
        return np.exp(self.Ecum[:, self.n] - self.Ecum[:, t_idx])

    def _exp_E_minus(self, t_idx: int) -> np.ndarray | float:
        if self.Ecum is None:
            return 1.0
        return np.exp(-self.Ecum[:, t_idx])

    def _check_row(self, theta_idx: int, t_idx: int) -> None:
        if not (0 <= theta_idx <= self.n and 0 <= t_idx <= self.n):
            raise OrderingError(f"indices ({theta_idx}, {t_idx}) outside 0..{self.n}")
        if theta_idx > t_idx:
            raise OrderingError(
                f"theta index {theta_idx} > t index {t_idx} in a triangular tableau"
            )

    # -- D_theta Y_t ------------------------------------------------------------

    def dy_fits(self, t_idx: int) -> tuple[np.ndarray, np.ndarray]:
        """Fitted pair (c1, c2) with D_theta Y_t = c1 + exp(-A_theta) c2.

        The cache also keeps the regression coefficients of the pair as one
        (p, 2) array (None at the terminal node, where nothing is fitted).
        """
        if t_idx in self._dy_fits:
            return self._dy_fits[t_idx][0]
        ens, ftab = self.ens, self.ftab
        n = self.n
        exp_tail = self._exp_E_tail(t_idx)

        if self._has_fx:
            if self._dy_int_cum is None:
                fx = self._driver.fx(ens.X, self.sol.Y)
                expE = np.exp(self.Ecum) if self.Ecum is not None else 1.0
                self._dy_int_cum = _cumtrapz(expE * fx * ftab.sigX * self.expA, self.dt)
            integral = (
                self._dy_int_cum[:, n] - self._dy_int_cum[:, t_idx]
            ) * self._exp_E_minus(t_idx)
        else:
            integral = None

        if self.problem.terminal == "phi-of-wt":
            c1_target = exp_tail * self.phi1_T
            c2_target = integral
        else:
            c1_target = None
            xi_part = exp_tail * self.phi1_T * ftab.sigX[:, n] * self.expA[:, n]
            c2_target = xi_part if integral is None else xi_part + integral

        N = ens.n_paths
        if t_idx == n:
            # conditioning on F_T is the identity
            c1 = c1_target if c1_target is not None else np.zeros(N)
            c2 = c2_target if c2_target is not None else np.zeros(N)
            coeffs = None
        else:
            # separate c1 and c2 solves: a fused two-column solve moves the
            # fitted values at the ulp level
            coeffs = np.zeros((self._design(t_idx).gram.shape[0], 2))
            c1, c2 = np.zeros(N), np.zeros(N)
            if c1_target is not None:
                c1, coeffs[:, 0] = self._fit(t_idx, c1_target)
            if c2_target is not None:
                c2, coeffs[:, 1] = self._fit(t_idx, c2_target)
        self._dy_fits[t_idx] = ((c1, c2), coeffs)
        return c1, c2

    def dy_matrix(self, t_idx: int) -> np.ndarray:
        """D_theta Y_t for all theta <= t: shape (n_paths, t_idx + 1)."""
        return _dy_row(*self.dy_fits(t_idx), self.ftab.A, t_idx)

    def dy_all(self, theta_idx: int, t_idx: int) -> np.ndarray:
        self._check_row(theta_idx, t_idx)
        c1, c2 = self.dy_fits(t_idx)
        return c1 + np.exp(-self.ftab.A[:, theta_idx]) * c2

    # -- D2_{theta,t} Y_s ---------------------------------------------------------

    def _g_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Path matrices G1[:, r], G2[:, r] of the D_theta Y_r fit pairs."""
        if self._G is None:
            N = self.ens.n_paths
            G1 = np.empty((N, self.n + 1))
            G2 = np.empty((N, self.n + 1))
            for r in range(self.n + 1):
                c1, c2 = self.dy_fits(r)
                G1[:, r] = c1
                G2[:, r] = c2
            self._G = (G1, G2)
        return self._G

    def _d2y_cumulatives(self) -> dict[str, np.ndarray]:
        """Cumulative trapezoids of every r-integrand in the D2Y representation."""
        if self._d2y_cums is not None:
            return self._d2y_cums
        ens, ftab = self.ens, self.ftab
        X, Y = ens.X, self.sol.Y
        drv = self._driver
        expE = np.exp(self.Ecum) if self.Ecum is not None else np.ones_like(X)
        cums: dict[str, np.ndarray] = {}

        def cum(tag: str, integrand: np.ndarray) -> None:
            cums[tag] = _cumtrapz(expE * integrand, self.dt)

        fyy = drv.fyy(X, Y) if self._has_fy else None
        fyx = drv.fxy(X, Y) if (drv.cross_x is not None) else None
        fxx = drv.fxx(X, Y) if self._has_fx else None
        fx = drv.fx(X, Y) if self._has_fx else None
        if fyy is not None and np.any(fyy):
            G1, G2 = self._g_matrices()
            cum("yy00", fyy * G1 * G1)
            cum("yy01", fyy * G1 * G2)
            cum("yy11", fyy * G2 * G2)
        if fyx is not None and np.any(fyx):
            G1, G2 = self._g_matrices()
            se = ftab.sigX * self.expA
            cum("yx1", fyx * se * G1)
            cum("yx2", fyx * se * G2)
        if fxx is not None and np.any(fxx):
            cum("xx", fxx * ftab.sigX**2 * self.expA**2)
        if fx is not None and np.any(fx):
            cum("xa", fx * ftab.sig1X * ftab.sigX * self.expA**2)
            cum("xb", fx * ftab.sigX * self.expA * ftab.B)
            cum("xc", fx * ftab.sigX * self.expA)
        self._d2y_cums = cums
        return cums

    def d2y_fits(self, s_idx: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fitted quadruple (f0, f12, f3, f4) with

        D2_{theta,t} Y_s = f0 + (e^{-A_theta} + e^{-A_t}) f12
                           + e^{-A_theta - A_t} f3 - B_t e^{-A_theta - A_t} f4.
        """
        if s_idx in self._d2y_fits:
            return self._d2y_fits[s_idx]
        ens, ftab = self.ens, self.ftab
        n = self.n
        N = ens.n_paths
        exp_tail = self._exp_E_tail(s_idx)
        exp_minus = self._exp_E_minus(s_idx)
        cums = self._d2y_cumulatives()

        def tail(tag: str) -> np.ndarray | float:
            if tag not in cums:
                return 0.0
            return (cums[tag][:, n] - cums[tag][:, s_idx]) * exp_minus

        zero = np.zeros(N)
        t0 = zero.copy()
        t12 = zero.copy()
        t3 = zero.copy()
        t4 = zero.copy()
        if self.problem.terminal == "phi-of-wt":
            t0 = t0 + exp_tail * self.phi2_T
        else:
            sA = ftab.sigX[:, n] * self.expA[:, n]
            t3 = t3 + exp_tail * (
                self.phi2_T * sA**2
                + self.phi1_T * ftab.sig1X[:, n] * ftab.sigX[:, n] * self.expA[:, n] ** 2
                + self.phi1_T * sA * ftab.B[:, n]
            )
            t4 = t4 + exp_tail * self.phi1_T * sA
        t0 = t0 + tail("yy00")
        t12 = t12 + tail("yx1") + tail("yy01")
        t3 = t3 + 2.0 * tail("yx2") + tail("yy11") + tail("xx") + tail("xa") + tail("xb")
        t4 = t4 + tail("xc")

        if s_idx == n:
            fits = (t0, t12, t3, t4)
        else:
            targets = np.column_stack([t0, t12, t3, t4])
            lam = self.shift.weight_to_horizon(ens, s_idx)
            if lam is not None:
                targets = targets * lam[:, None]
            fitted, _ = self._design(s_idx).fit(targets)
            fits = (fitted[:, 0], fitted[:, 1], fitted[:, 2], fitted[:, 3])
        self._d2y_fits[s_idx] = fits
        return fits

    def d2y_all(self, theta_idx: int, t_idx: int, s_idx: int) -> np.ndarray:
        lo, hi = min(theta_idx, t_idx), max(theta_idx, t_idx)
        if s_idx < hi or s_idx > self.n:
            raise OrderingError(
                f"D2Y needs max(theta, t) <= s <= n; got ({theta_idx}, {t_idx}, {s_idx})"
            )
        f0, f12, f3, f4 = self.d2y_fits(s_idx)
        A = self.ftab.A
        ea = np.exp(-A[:, lo])
        eb = np.exp(-A[:, hi])
        out = f0 + (ea + eb) * f12 + ea * eb * f3
        if f4.any():  # building B is expensive; f4 == 0 whenever f_x vanishes
            out = out - self.ftab.B[:, hi] * ea * eb * f4
        return out

    # -- Clark-Ocone Z ------------------------------------------------------------

    def _plain_cumulatives(self, with_second: bool = False) -> dict[str, np.ndarray]:
        """Cumulative trapezoids of the unweighted s-integrands shared by the
        Clark-Ocone Z and the D_theta Z representation.

        The second-order tags (everything a D_theta Z row needs beyond
        Clark-Ocone) are filled on first request because they pull in the
        whole D2Y fit table."""
        ens, ftab = self.ens, self.ftab
        X, Y = ens.X, self.sol.Y
        drv = self._driver
        if self._plain_cums is None:
            cums: dict[str, np.ndarray] = {}
            if self._has_fx:
                cums["x_dx"] = _cumtrapz(drv.fx(X, Y) * ftab.sigX * self.expA, self.dt)
            if self._has_fy:
                G1, G2 = self._g_matrices()
                cums["y_g1"] = _cumtrapz(self.fy * G1, self.dt)
                cums["y_g2"] = _cumtrapz(self.fy * G2, self.dt)
            self._plain_cums = cums
        cums = self._plain_cums
        if with_second and not self._plain_has_second:
            def cum(tag: str, integrand: np.ndarray) -> None:
                cums[tag] = _cumtrapz(integrand, self.dt)

            if self._has_fx:
                fx = drv.fx(X, Y)
                cum("x_d2a", fx * ftab.sig1X * ftab.sigX * self.expA**2)
                cum("x_d2b", fx * ftab.sigX * self.expA * ftab.B)
                fxx = drv.fxx(X, Y)
                if np.any(fxx):
                    cum("xx", fxx * ftab.sigX**2 * self.expA**2)
            if self._has_fy:
                G1, G2 = self._g_matrices()
                F0, F12, F3, F4 = self._f_matrices()
                cum("y_f0", self.fy * F0)
                cum("y_f12", self.fy * F12)
                cum("y_f3", self.fy * F3)
                cum("y_f4", self.fy * F4)
                fyy = drv.fyy(X, Y)
                if np.any(fyy):
                    cum("yy_11", fyy * G1 * G1)
                    cum("yy_12", fyy * G1 * G2)
                    cum("yy_22", fyy * G2 * G2)
            if drv.cross_x is not None:
                fyx = drv.fxy(X, Y)
                G1, G2 = self._g_matrices()
                se = ftab.sigX * self.expA
                cum("yx_1", fyx * se * G1)
                cum("yx_2", fyx * se * G2)
            self._plain_has_second = True
        return cums

    def z_clark_all(self, t_idx: int) -> np.ndarray:
        """Z_t = E~(D_t xi + int_t^T {f_x D_t X_s + f_y D_t Y_s} ds | F_t).

        The F_t-measurable history factor exp(-A_t) multiplies its fitted
        component pathwise; only the genuinely conditional parts are
        regressed.
        """
        if t_idx in self._z_clark:
            return self._z_clark[t_idx]
        ens, ftab = self.ens, self.ftab
        n = self.n
        N = ens.n_paths
        free = np.zeros(N)
        dep = np.zeros(N)
        if self.problem.terminal == "phi-of-wt":
            free = free + self.phi1_T
        else:
            dep = dep + self.phi1_T * ftab.sigX[:, n] * self.expA[:, n]
        if t_idx < n:
            cums = self._plain_cumulatives()

            def tail(tag: str):
                if tag not in cums:
                    return 0.0
                return cums[tag][:, n] - cums[tag][:, t_idx]

            dep = dep + tail("x_dx")
            free = free + tail("y_g1")
            dep = dep + tail("y_g2")
            out = self._fit(t_idx, free)[0] + np.exp(-ftab.A[:, t_idx]) * self._fit(
                t_idx, dep
            )[0]
        else:
            out = free + np.exp(-ftab.A[:, n]) * dep
        self._z_clark[t_idx] = out
        return out

    # -- D_theta Z_t ----------------------------------------------------------------

    def _f_matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Path matrices of the D2Y fit quadruple over s (used when f_y != 0)."""
        if self._F is None:
            N = self.ens.n_paths
            mats = tuple(np.empty((N, self.n + 1)) for _ in range(4))
            for s in range(self.n + 1):
                fits = self.d2y_fits(s)
                for m, fvals in zip(mats, fits):
                    m[:, s] = fvals
            self._F = mats  # type: ignore[assignment]
        return self._F  # type: ignore[return-value]

    def dz_fits(self, t_idx: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fitted quadruple (a, bc, d, e) with

        D_theta Z_t = a + (e^{-A_theta} + e^{-A_t}) bc
                        + e^{-A_theta - A_t} (d - B_t e).

        The structure mirrors :meth:`d2y_fits`: every F_t-measurable history
        factor multiplies its fitted component pathwise.  The cache also keeps
        the (p, 4) regression coefficients (None at the terminal node).
        """
        if t_idx in self._dz_fits:
            return self._dz_fits[t_idx][0]
        ens, ftab = self.ens, self.ftab
        n = self.n
        N = ens.n_paths
        zero = np.zeros(N)
        ta, tbc, td, te = zero.copy(), zero.copy(), zero.copy(), zero.copy()

        # terminal second derivative D2_{theta,t} xi (no exponential weight)
        if self.problem.terminal == "phi-of-wt":
            ta = ta + self.phi2_T
        else:
            sA = ftab.sigX[:, n] * self.expA[:, n]
            td = td + (
                self.phi2_T * sA**2
                + self.phi1_T * ftab.sig1X[:, n] * ftab.sigX[:, n] * self.expA[:, n] ** 2
                + self.phi1_T * sA * ftab.B[:, n]
            )
            te = te + self.phi1_T * sA

        if t_idx < n and not self._driver.is_zero:
            cums = self._plain_cumulatives(with_second=True)

            def tail(tag: str):
                if tag not in cums:
                    return 0.0
                return cums[tag][:, n] - cums[tag][:, t_idx]

            ta = ta + tail("yy_11") + tail("y_f0")
            tbc = tbc + tail("yx_1") + tail("yy_12") + tail("y_f12")
            td = td + (
                2.0 * tail("yx_2") + tail("yy_22") + tail("xx")
                + tail("x_d2a") + tail("x_d2b") + tail("y_f3")
            )
            te = te + tail("x_dx") + tail("y_f4")

        if t_idx == n:
            fits = (ta, tbc, td, te)
            coeffs = None
        else:
            fitted, coeffs = self._fit(t_idx, np.column_stack([ta, tbc, td, te]))
            fits = (fitted[:, 0], fitted[:, 1], fitted[:, 2], fitted[:, 3])
        self._dz_fits[t_idx] = (fits, coeffs)
        return fits

    def _dz_inner(self, fd: np.ndarray, fe: np.ndarray, t_idx: int) -> np.ndarray:
        if fe.any():  # building B is expensive; fe == 0 whenever f_x vanishes
            return fd - self.ftab.B[:, t_idx] * fe
        return fd

    def dz_matrix(self, t_idx: int) -> np.ndarray:
        """D_theta Z_t for all theta <= t: shape (n_paths, t_idx + 1)."""
        fa, fbc, fd, fe = self.dz_fits(t_idx)
        return _dz_row(fa, fbc, self._dz_inner(fd, fe, t_idx), self.ftab.A, t_idx)

    def dz_all(self, theta_idx: int, t_idx: int) -> np.ndarray:
        self._check_row(theta_idx, t_idx)
        fa, fbc, fd, fe = self.dz_fits(t_idx)
        ea_th = np.exp(-self.ftab.A[:, theta_idx])
        ea_t = np.exp(-self.ftab.A[:, t_idx])
        return fa + (ea_th + ea_t) * fbc + ea_th * ea_t * self._dz_inner(fd, fe, t_idx)


def _dy_row(c1: np.ndarray, c2: np.ndarray, A: np.ndarray, t_idx: int) -> np.ndarray:
    """D_theta Y_t = c1 + e^{-A_theta} c2 for all theta <= t."""
    return c1[:, None] + np.exp(-A[:, : t_idx + 1]) * c2[:, None]


def _dz_row(fa: np.ndarray, fbc: np.ndarray, inner: np.ndarray, A: np.ndarray,
            t_idx: int) -> np.ndarray:
    """D_theta Z_t = a + (e^{-A_theta} + e^{-A_t}) bc + e^{-A_theta - A_t} inner
    for all theta <= t, where inner = d - B_t e."""
    ea_th = np.exp(-A[:, : t_idx + 1])
    ea_t = np.exp(-A[:, t_idx])[:, None]
    return fa[:, None] + (ea_th + ea_t) * fbc[:, None] + ea_th * ea_t * inner[:, None]


# ---------------------------------------------------------------------------
# Replay pipeline for the Nourdin-Viens g-estimator
# ---------------------------------------------------------------------------


def ensemble_from_increments(
    problem: ProblemSpec,
    grid: TimeGrid,
    increments: np.ndarray,
    lamperti_map: LampertiMap | None = None,
) -> PathEnsemble:
    """Build an ensemble from given Brownian increments (no path exclusion).

    Used to replay the pipeline on Mehler-shifted increments: the output must
    stay aligned row-for-row with the unshifted ensemble, so escaping paths
    are clamped to the working box instead of dropped; ``n_flagged`` counts
    the clamp events.
    """
    lmap = lamperti_map or LampertiMap(problem.sigma, problem.b, problem.box)
    n_paths, n = increments.shape
    if n != grid.n_steps:
        raise SolverError("increment matrix does not match the grid")
    W, U, X, hits = _euler_lamperti(problem, grid, increments, lmap)
    return PathEnsemble(
        grid=grid,
        n_paths=n_paths,
        master_seed=-1,
        x0=problem.x0,
        dW=np.ascontiguousarray(increments),
        W=W,
        U=U,
        X=X,
        path_ids=np.arange(n_paths, dtype=np.uint64),
        n_flagged=int(hits.sum()),
        n_requested=n_paths,
    )


def make_phi_sampler(btab: BackwardTableau, t_idx: int, component: str):
    """Sampler evaluating theta -> D_theta Y_t or D_theta Z_t on arbitrary
    increment matrices; ``component`` is "Y" or "Z".

    By the Markov property the coefficients of the row (c1, c2 for Y, the
    quadruple for Z) are deterministic functions of the time-t state, and
    ``btab`` has fitted them on the whole main-run ensemble.  A call runs the
    forward sweep on the supplied increments, builds the forward tableau's
    A (and B_t only when the fitted e-coefficients are non-zero), evaluates
    the frozen fits at the new time-t states and assembles the row with the
    main run's formula.  Output row i depends on increment row i only.  The
    Girsanov weights of a linear z-driver are already inside the fits.

    The sampler's ``n_clamped`` attribute counts the clamp events of all its
    forward sweeps.  The terminal node has no regression to freeze and is
    refused with a SolverError.
    """
    if component not in ("Y", "Z"):
        raise SolverError(f"component must be 'Y' or 'Z'; got {component!r}")
    grid = btab.ens.grid
    if t_idx == btab.n:
        raise SolverError(
            f"t index {t_idx} is the terminal node t = {t_idx * grid.dt:g}, where "
            f"D_theta {component}_t has no fitted regression to evaluate; the "
            "g-estimator needs an eval time that snaps below T"
        )
    if component == "Y":
        btab.dy_fits(t_idx)
        coeffs = btab._dy_fits[t_idx][1]
    else:
        btab.dz_fits(t_idx)
        coeffs = btab._dz_fits[t_idx][1]
    design = btab._design(t_idx)
    problem, lmap = btab.problem, btab.ftab.lmap

    def sampler(increments: np.ndarray) -> np.ndarray:
        ens = ensemble_from_increments(problem, grid, increments, lmap)
        sampler.n_clamped += ens.n_flagged
        ftab = MalliavinTableau(ens, lmap, problem)
        fits = design.evaluate(coeffs, ens.X[:, t_idx], ens.W[:, t_idx])
        if component == "Y":
            return _dy_row(fits[:, 0], fits[:, 1], ftab.A, t_idx)
        inner = fits[:, 2]
        if coeffs[:, 3].any():  # B is built only when the e-fit is non-zero
            inner = inner - ftab.B[:, t_idx] * fits[:, 3]
        return _dz_row(fits[:, 0], fits[:, 1], inner, ftab.A, t_idx)

    sampler.n_clamped = 0
    return sampler
