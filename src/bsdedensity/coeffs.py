"""Analytic coefficient families, Lie brackets and the hypothesis checker.

Coefficient functions (drift b, diffusion sigma, driver parts, terminal phi)
are drawn from a closed registry of analytic families with exact derivatives
up to order 3.  Keeping the registry closed is what makes the grid-based
hypothesis checker decidable: every condition it verifies is a statement
about these derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import CoefficientError, GlobalDomainError

__all__ = [
    "CoefficientFamily",
    "Points",
    "Driver",
    "ProblemSpec",
    "HypothesisCheck",
    "HypothesisReport",
    "constant",
    "affine",
    "trig_affine",
    "scaled_sigmoid",
    "quadratic",
    "polynomial",
    "parse_family",
    "family_to_string",
    "format_float",
    "eval_derivative",
    "lie_bracket",
    "iterated_bracket",
    "check_hypotheses",
    "H7_COMPACT_BOX_CAVEAT",
]

MAX_ORDER = 3

# f(x) = a + b*cos(x) + c*sin(x) + d*x; the linear term lets one family cover
# sigma = 2 + cos(x) as well as phi(w) = w + 0.1*sin(w).
_FAMILY_PARAMS: dict[str, tuple[str, ...]] = {
    "constant": ("c",),
    "affine": ("a", "b"),
    "trig-affine": ("a", "b", "c", "d"),
    "scaled-sigmoid": ("a", "k", "b"),
    "quadratic": ("a", "b", "c"),
    "polynomial": ("c0", "c1", "c2", "c3", "c4"),
}

_FAMILY_DEFAULTS: dict[str, dict[str, float]] = {
    "constant": {"c": 0.0},
    "affine": {"a": 0.0, "b": 0.0},
    "trig-affine": {"a": 0.0, "b": 0.0, "c": 0.0, "d": 0.0},
    "scaled-sigmoid": {"a": 1.0, "k": 1.0, "b": 0.0},
    "quadratic": {"a": 0.0, "b": 0.0, "c": 0.0},
    "polynomial": {"c0": 0.0, "c1": 0.0, "c2": 0.0, "c3": 0.0, "c4": 0.0},
}


def _logistic(x: np.ndarray) -> np.ndarray:
    # numerically stable sigmoid
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class Points:
    """Evaluation points whose transcendentals are computed once.

    ``sin(x)``, ``cos(x)`` and the logistic of ``k*x`` are computed on first
    use and kept, so every derivative order, bracket factor and driver
    partial evaluated on the same points shares them.  The cache holds
    arrays the size of ``x``: wrap the points for one computation and never
    keep a Points on a long-lived object.
    """

    __slots__ = ("x", "scalar", "_sin", "_cos", "_logistic")

    def __init__(self, x) -> None:
        self.x = np.asarray(x, dtype=float)
        self.scalar = self.x.ndim == 0
        self._sin: np.ndarray | None = None
        self._cos: np.ndarray | None = None
        self._logistic: dict[float, np.ndarray] = {}

    def sin(self) -> np.ndarray:
        if self._sin is None:
            self._sin = np.sin(self.x)
        return self._sin

    def cos(self) -> np.ndarray:
        if self._cos is None:
            self._cos = np.cos(self.x)
        return self._cos

    def logistic(self, k: float) -> np.ndarray:
        """1 / (1 + exp(-k x))."""
        s = self._logistic.get(k)
        if s is None:
            s = self._logistic[k] = _logistic(k * self.x)
        return s


def as_points(x) -> Points:
    """``x`` itself if it is a :class:`Points`, else the points of ``x``."""
    return x if isinstance(x, Points) else Points(x)


def _eval_constant(p: dict[str, float], order: int, pts: Points) -> np.ndarray:
    if order == 0:
        return np.full_like(pts.x, p["c"], dtype=float)
    return np.zeros_like(pts.x, dtype=float)


def _eval_affine(p: dict[str, float], order: int, pts: Points) -> np.ndarray:
    if order == 0:
        return p["a"] + p["b"] * pts.x
    if order == 1:
        return np.full_like(pts.x, p["b"], dtype=float)
    return np.zeros_like(pts.x, dtype=float)


def _eval_trig_affine(p: dict[str, float], order: int, pts: Points) -> np.ndarray:
    a, b, c, d = p["a"], p["b"], p["c"], p["d"]
    if order == 0:
        return a + b * pts.cos() + c * pts.sin() + d * pts.x
    if order == 1:
        return -b * pts.sin() + c * pts.cos() + d
    if order == 2:
        return -b * pts.cos() - c * pts.sin()
    return b * pts.sin() - c * pts.cos()


def _eval_scaled_sigmoid(p: dict[str, float], order: int, pts: Points) -> np.ndarray:
    a, k, b = p["a"], p["k"], p["b"]
    s = pts.logistic(k)
    if order == 0:
        return a * s + b
    s1 = s * (1.0 - s)
    if order == 1:
        return a * k * s1
    if order == 2:
        return a * k * k * s1 * (1.0 - 2.0 * s)
    return a * k**3 * s1 * (1.0 - 6.0 * s + 6.0 * s * s)


def _eval_quadratic(p: dict[str, float], order: int, pts: Points) -> np.ndarray:
    a, b, c = p["a"], p["b"], p["c"]
    x = pts.x
    if order == 0:
        return a + x * (b + c * x)
    if order == 1:
        return b + 2.0 * c * x
    if order == 2:
        return np.full_like(x, 2.0 * c, dtype=float)
    return np.zeros_like(x, dtype=float)


def _eval_polynomial(p: dict[str, float], order: int, pts: Points) -> np.ndarray:
    x = pts.x
    coefs = [p["c0"], p["c1"], p["c2"], p["c3"], p["c4"]]
    for _ in range(order):
        coefs = [i * coefs[i] for i in range(1, len(coefs))]
    if not coefs:
        return np.zeros_like(x, dtype=float)
    out = np.full_like(x, coefs[-1], dtype=float)
    for c in reversed(coefs[:-1]):
        out = out * x + c
    return out


_EVALUATORS: dict[str, Callable[[dict[str, float], int, Points], np.ndarray]] = {
    "constant": _eval_constant,
    "affine": _eval_affine,
    "trig-affine": _eval_trig_affine,
    "scaled-sigmoid": _eval_scaled_sigmoid,
    "quadratic": _eval_quadratic,
    "polynomial": _eval_polynomial,
}


@dataclass(frozen=True)
class CoefficientFamily:
    """A named analytic function family with exact derivatives up to order 3."""

    family: str
    params: dict[str, float] = field(default_factory=dict)
    max_derivative_order: int = MAX_ORDER

    def __post_init__(self) -> None:
        if self.family not in _FAMILY_PARAMS:
            raise CoefficientError(
                f"unknown coefficient family {self.family!r}; "
                f"known: {sorted(_FAMILY_PARAMS)}"
            )
        allowed = _FAMILY_PARAMS[self.family]
        for name in self.params:
            if name not in allowed:
                raise CoefficientError(
                    f"family {self.family!r} has no parameter {name!r}; "
                    f"allowed: {allowed}"
                )
        merged = dict(_FAMILY_DEFAULTS[self.family])
        merged.update({k: float(v) for k, v in self.params.items()})
        for name, v in merged.items():
            if not math.isfinite(v):
                raise CoefficientError(
                    f"family {self.family!r}: parameter {name!r} = {v} is not finite"
                )
        object.__setattr__(self, "params", merged)
        if self.max_derivative_order < MAX_ORDER:
            raise CoefficientError("max_derivative_order must be at least 3")

    def __call__(self, x, order: int = 0):
        return eval_derivative(self, order, x)

    def __str__(self) -> str:
        return family_to_string(self)


def constant(c: float) -> CoefficientFamily:
    return CoefficientFamily("constant", {"c": c})


def affine(a: float = 0.0, b: float = 0.0) -> CoefficientFamily:
    return CoefficientFamily("affine", {"a": a, "b": b})


def trig_affine(a: float = 0.0, b: float = 0.0, c: float = 0.0, d: float = 0.0) -> CoefficientFamily:
    """a + b*cos(x) + c*sin(x) + d*x."""
    return CoefficientFamily("trig-affine", {"a": a, "b": b, "c": c, "d": d})


def scaled_sigmoid(a: float = 1.0, k: float = 1.0, b: float = 0.0) -> CoefficientFamily:
    """a / (1 + exp(-k*x)) + b."""
    return CoefficientFamily("scaled-sigmoid", {"a": a, "k": k, "b": b})


def quadratic(a: float = 0.0, b: float = 0.0, c: float = 0.0) -> CoefficientFamily:
    return CoefficientFamily("quadratic", {"a": a, "b": b, "c": c})


def polynomial(*coeffs: float) -> CoefficientFamily:
    if len(coeffs) > 5:
        raise CoefficientError("polynomial families support degree <= 4")
    names = ["c0", "c1", "c2", "c3", "c4"]
    return CoefficientFamily("polynomial", dict(zip(names, coeffs)))


def format_float(v: float) -> str:
    """``:g`` when it parses back to exactly ``v``, else the lossless ``repr``."""
    short = f"{v:g}"
    return short if float(short) == v else repr(v)


def family_to_string(fam: CoefficientFamily) -> str:
    """Serialize as ``family-id(param=value, ...)``, omitting zero defaults."""
    defaults = _FAMILY_DEFAULTS[fam.family]
    parts = [
        f"{k}={format_float(fam.params[k])}"
        for k in _FAMILY_PARAMS[fam.family]
        if fam.params[k] != defaults[k] or fam.family == "constant" and k == "c"
    ]
    return f"{fam.family}({', '.join(parts)})"


def parse_family(text: str) -> CoefficientFamily:
    """Parse a ``family-id(param=value, ...)`` string."""
    text = text.strip()
    if "(" not in text or not text.endswith(")"):
        raise CoefficientError(
            f"cannot parse coefficient family {text!r}: expected name(param=value, ...)"
        )
    name, _, inner = text.partition("(")
    name = name.strip()
    inner = inner[:-1].strip()
    params: dict[str, float] = {}
    if inner:
        for piece in inner.split(","):
            if "=" not in piece:
                raise CoefficientError(f"bad parameter {piece!r} in family {text!r}")
            key, _, val = piece.partition("=")
            try:
                params[key.strip()] = float(val)
            except ValueError as exc:
                raise CoefficientError(
                    f"parameter {key.strip()!r} in family {text!r} is not a number"
                ) from exc
    return CoefficientFamily(name, params)


def eval_derivative(fam: CoefficientFamily, order: int, x):
    """Exact analytic derivative of ``fam`` of the given order at ``x``.

    Accepts scalars, arrays or :class:`Points`; the result matches the
    input shape, and a scalar input gives a float.
    """
    if not 0 <= order <= fam.max_derivative_order:
        raise CoefficientError(
            f"derivative order {order} outside contract 0..{fam.max_derivative_order}"
        )
    pts = as_points(x)
    out = _EVALUATORS[fam.family](fam.params, order, pts)
    return float(out) if pts.scalar else out


def lie_bracket(h: CoefficientFamily, g: CoefficientFamily, x):
    """Lie bracket [h, g](x) = h(x) g'(x) - g(x) h'(x)."""
    x = as_points(x)
    return eval_derivative(h, 0, x) * eval_derivative(g, 1, x) - eval_derivative(
        g, 0, x
    ) * eval_derivative(h, 1, x)


def iterated_bracket(sigma: CoefficientFamily, b: CoefficientFamily, x):
    """Iterated bracket [sigma, [sigma, b]](x).

    Expanded with analytic derivatives: [sigma,b]' = sigma b'' - b sigma'',
    so [sigma,[sigma,b]] = sigma (sigma b'' - b sigma'') - [sigma,b] sigma'.
    """
    x = as_points(x)
    s0 = eval_derivative(sigma, 0, x)
    s1 = eval_derivative(sigma, 1, x)
    s2 = eval_derivative(sigma, 2, x)
    b0 = eval_derivative(b, 0, x)
    b1 = eval_derivative(b, 1, x)
    b2 = eval_derivative(b, 2, x)
    inner = s0 * b1 - b0 * s1
    inner_prime = s0 * b2 - b0 * s2
    return s0 * inner_prime - inner * s1


# ---------------------------------------------------------------------------
# Problem definition
# ---------------------------------------------------------------------------

TERMINAL_KINDS = ("phi-of-wt", "phi-of-xt")


@dataclass(frozen=True)
class Driver:
    """Backward-equation driver f(x, y) + alpha * z.

    The (x, y) part is a sum of univariate registry families plus an optional
    separable product term::

        f(x, y) = f_of_x(x) + f_of_y(y) + cross_x(x) * cross_y(y)

    which keeps all partial derivatives exact while still allowing a nonzero
    mixed partial f_xy.
    """

    f_of_x: CoefficientFamily | None = None
    f_of_y: CoefficientFamily | None = None
    cross_x: CoefficientFamily | None = None
    cross_y: CoefficientFamily | None = None
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if (self.cross_x is None) != (self.cross_y is None):
            raise CoefficientError("cross_x and cross_y must be given together")

    @property
    def univariate_in_y(self) -> bool:
        return self.f_of_x is None and self.cross_x is None

    @property
    def is_zero(self) -> bool:
        return self.f_of_x is None and self.f_of_y is None and self.cross_x is None

    def _part(self, fam: CoefficientFamily | None, order: int, v: Points):
        if fam is None:
            return np.zeros_like(v.x)
        return eval_derivative(fam, order, v)

    def partial(self, dx: int, dy: int, x, y):
        """Exact partial derivative d^(dx+dy) f / dx^dx dy^dy at (x, y);
        ``x`` and ``y`` may be arrays or :class:`Points`."""
        x = as_points(x)
        y = as_points(y)
        out = np.zeros(np.broadcast(x.x, y.x).shape)
        if dy == 0:
            out = out + self._part(self.f_of_x, dx, x)
        if dx == 0:
            out = out + self._part(self.f_of_y, dy, y)
        if self.cross_x is not None:
            out = out + self._part(self.cross_x, dx, x) * self._part(self.cross_y, dy, y)
        return out

    def f(self, x, y):
        return self.partial(0, 0, x, y)

    def fx(self, x, y):
        return self.partial(1, 0, x, y)

    def fy(self, x, y):
        return self.partial(0, 1, x, y)

    def fxx(self, x, y):
        return self.partial(2, 0, x, y)

    def fxy(self, x, y):
        return self.partial(1, 1, x, y)

    def fyy(self, x, y):
        return self.partial(0, 2, x, y)


@dataclass(frozen=True)
class ProblemSpec:
    """A forward-backward system: forward diffusion, driver and terminal data.

    ``terminal`` selects xi = phi(W_T) ("phi-of-wt") or xi = phi(X_T)
    ("phi-of-xt").  ``box`` is the compact interval on which sigma > 0 is
    certified before any Lamperti machinery runs.
    """

    x0: float
    T: float
    b: CoefficientFamily
    sigma: CoefficientFamily
    driver: Driver
    terminal: str
    phi: CoefficientFamily
    box: tuple[float, float] = (-12.0, 12.0)

    def __post_init__(self) -> None:
        if not self.T > 0:
            raise CoefficientError("T must be positive")
        if self.terminal not in TERMINAL_KINDS:
            raise CoefficientError(
                f"terminal must be one of {TERMINAL_KINDS}, got {self.terminal!r}"
            )
        if not (np.isfinite(self.box[0]) and np.isfinite(self.box[1])):
            raise CoefficientError("working box must be bounded")
        if not self.box[0] < self.box[1]:
            raise CoefficientError("working box must satisfy lo < hi")


# ---------------------------------------------------------------------------
# Hypothesis checking
# ---------------------------------------------------------------------------

H7_COMPACT_BOX_CAVEAT = (
    "H7 combines global boundedness of phi'' with uniform convexity "
    "(phi'' >= c > 0), which forces phi' to be unbounded and therefore cannot "
    "hold on all of R; this check certifies H7 on the supplied compact box only."
)

GRID_CAVEAT = (
    "all hypotheses are certified on the supplied compact box only; "
    "global (almost-sure) claims are outside the checker's contract."
)


@dataclass
class HypothesisCheck:
    name: str
    status: str  # "pass" | "fail" | "not-applicable"
    witness: float | tuple[float, float] | None = None
    inequality: str | None = None
    value: float | None = None
    constants: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "witness": self.witness,
            "inequality": self.inequality,
            "value": self.value,
            "constants": self.constants,
        }


@dataclass
class HypothesisReport:
    checks: dict[str, HypothesisCheck]
    box: tuple[float, float]
    n_grid: int
    sign_normalized: bool = False
    caveats: list[str] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(c.status != "fail" for c in self.checks.values())

    def failed(self) -> list[str]:
        return [k for k, c in self.checks.items() if c.status == "fail"]

    def to_dict(self) -> dict:
        return {
            "box": list(self.box),
            "n_grid": self.n_grid,
            "sign_normalized": self.sign_normalized,
            "all_pass": self.all_pass,
            "caveats": self.caveats,
            "checks": {k: c.to_dict() for k, c in sorted(self.checks.items())},
        }


def _grid_min(values: np.ndarray, grid: np.ndarray) -> tuple[float, float]:
    i = int(np.argmin(values))
    return float(values[i]), float(grid[i])


def _grid_max(values: np.ndarray, grid: np.ndarray) -> tuple[float, float]:
    i = int(np.argmax(values))
    return float(values[i]), float(grid[i])


def check_hypotheses(
    problem: ProblemSpec, box: tuple[float, float], n_grid: int
) -> HypothesisReport:
    """Evaluate the standing hypotheses H1..H8 on a grid over a compact box.

    Boundedness conditions become grid extrema, sign conditions grid minima,
    and the bracket conditions go through :func:`lie_bracket` /
    :func:`iterated_bracket`.  When the terminal is phi-of-WT the conditions
    on the terminal data reduce to conditions on phi' and phi''.  Hypotheses
    whose setting does not match the problem (e.g. H7 with an X_T terminal)
    are reported as not-applicable.

    If sigma < 0 on the whole box, the (sigma, W, Z) -> (-sigma, -W, -Z)
    normalization is applied before checking and the report is flagged.
    """
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
    p1min, w1 = _grid_min(phi1, grid)
    p1max, _ = _grid_max(phi1, grid)
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
    fxv = drv.fx(px, py)
    fyv = drv.fy(px, py)
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
    smin, wsig = _grid_min(sig_vals, grid)
    smax, _ = _grid_max(sig_vals, grid)
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
    p2min, w2 = _grid_min(phi2, grid)
    p2max, _ = _grid_max(phi2, grid)
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
        ("f_xy", drv.fxy(px, py)),
        ("f_xx", drv.fxx(px, py)),
        ("f_yy", drv.fyy(px, py)),
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
        vmin, wit = _grid_min(np.asarray(vals), grid)
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
            v1min, wv1 = _grid_min(d1, grid)
            v2min, wv2 = _grid_min(d2, grid)
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

    return HypothesisReport(
        checks=checks,
        box=(lo, hi),
        n_grid=n_grid,
        sign_normalized=sign_normalized,
        caveats=[GRID_CAVEAT, H7_COMPACT_BOX_CAVEAT],
    )
