"""Analytic coefficient families, Lie brackets and the hypothesis checker.

Coefficient functions (drift b, diffusion sigma, driver parts, terminal phi)
are drawn from a closed registry of analytic families with exact derivatives
up to order 3.  Keeping the registry closed is what makes the grid-based
hypothesis checker decidable: every condition it verifies is a statement
about these derivatives.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
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


def _trig_affine_full(p: dict[str, float], order: int, pts: Points) -> np.ndarray:
    a, b, c, d = p["a"], p["b"], p["c"], p["d"]
    if order == 0:
        return a + b * pts.cos() + c * pts.sin() + d * pts.x
    if order == 1:
        return -b * pts.sin() + c * pts.cos() + d
    if order == 2:
        return -b * pts.cos() - c * pts.sin()
    return b * pts.sin() - c * pts.cos()


def _eval_trig_affine(p: dict[str, float], order: int, pts: Points) -> np.ndarray:
    """The terms of :func:`_trig_affine_full` whose coefficient is non-zero,
    summed in the same order, so sin or cos is computed only when a term
    reads it.

    At a finite point a skipped term is a signed zero, which can change only
    the sign of a zero sum; where the sum is zero, the full formula is
    evaluated on those points.  The bits are therefore those of
    :func:`_trig_affine_full` at every finite point, whatever the signs of
    the zero coefficients.
    """
    a, b, c, d = p["a"], p["b"], p["c"], p["d"]
    x = lambda: pts.x  # noqa: E731
    # (coefficient, factor) pairs, the factor None for the constant; u - c*v
    # is written u + (-c)*v, which is the same in floating point
    terms = (
        [(a, None), (b, pts.cos), (c, pts.sin), (d, x)],
        [(-b, pts.sin), (c, pts.cos), (d, None)],
        [(-b, pts.cos), (-c, pts.sin)],
        [(b, pts.sin), (-c, pts.cos)],
    )[order]
    kept = [(k, f) for k, f in terms if k != 0.0]
    if not kept or len(kept) == len(terms):
        return _trig_affine_full(p, order, pts)
    if len(kept) == 1 and kept[0][1] is None:  # a non-zero constant
        return np.full_like(pts.x, kept[0][0], dtype=float)
    out = None
    for k, f in kept:
        v = k if f is None else k * f()
        out = v if out is None else out + v
    zero = out == 0.0
    if pts.scalar:
        return _trig_affine_full(p, order, pts) if zero else out
    if zero.any():
        out[zero] = _trig_affine_full(p, order, Points(pts.x[zero]))
    return out


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


# family -> (evaluator, the parameters' defaults in their canonical order)
_FAMILIES: dict[str, tuple[Callable[[dict[str, float], int, Points], np.ndarray],
                           dict[str, float]]] = {
    "constant": (_eval_constant, {"c": 0.0}),
    "affine": (_eval_affine, {"a": 0.0, "b": 0.0}),
    # f(x) = a + b*cos(x) + c*sin(x) + d*x; the linear term lets one family cover
    # sigma = 2 + cos(x) as well as phi(w) = w + 0.1*sin(w).
    "trig-affine": (_eval_trig_affine, {"a": 0.0, "b": 0.0, "c": 0.0, "d": 0.0}),
    "scaled-sigmoid": (_eval_scaled_sigmoid, {"a": 1.0, "k": 1.0, "b": 0.0}),
    "quadratic": (_eval_quadratic, {"a": 0.0, "b": 0.0, "c": 0.0}),
    "polynomial": (_eval_polynomial,
                   {"c0": 0.0, "c1": 0.0, "c2": 0.0, "c3": 0.0, "c4": 0.0}),
}


@dataclass(frozen=True)
class CoefficientFamily:
    """A named analytic function family with exact derivatives up to order 3."""

    family: str
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise CoefficientError(
                f"unknown coefficient family {self.family!r}; "
                f"known: {sorted(_FAMILIES)}"
            )
        defaults = _FAMILIES[self.family][1]
        for name in self.params:
            if name not in defaults:
                raise CoefficientError(
                    f"family {self.family!r} has no parameter {name!r}; "
                    f"allowed: {tuple(defaults)}"
                )
        merged = dict(defaults)
        merged.update({k: float(v) for k, v in self.params.items()})
        for name, v in merged.items():
            if not math.isfinite(v):
                raise CoefficientError(
                    f"family {self.family!r}: parameter {name!r} = {v} is not finite"
                )
        object.__setattr__(self, "params", merged)

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
    parts = [
        f"{k}={format_float(fam.params[k])}"
        for k, default in _FAMILIES[fam.family][1].items()
        if fam.params[k] != default or fam.family == "constant" and k == "c"
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
    if not 0 <= order <= MAX_ORDER:
        raise CoefficientError(
            f"derivative order {order} outside contract 0..{MAX_ORDER}"
        )
    pts = as_points(x)
    out = _FAMILIES[fam.family][0](fam.params, order, pts)
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
        if dx == dy == 0:
            return self.f_given_x(x)(y)
        x = as_points(x)
        y = as_points(y)
        out = np.zeros(np.broadcast(x.x, y.x).shape)
        if dy == 0:
            out += self._part(self.f_of_x, dx, x)
        if dx == 0:
            out += self._part(self.f_of_y, dy, y)
        if self.cross_x is not None:
            out += self._part(self.cross_x, dx, x) * self._part(self.cross_y, dy, y)
        return out

    def f_given_x(self, x):
        """``y -> f(x, y)`` for arrays or :class:`Points` ``y``: the x-parts
        are evaluated once, and each call adds the y-parts to them.  This is
        the one place that fixes the order of the value sum;
        ``partial(0, 0, ...)`` calls it."""
        x = as_points(x)
        base = np.zeros(x.x.shape) + self._part(self.f_of_x, 0, x)
        cx = None if self.cross_x is None else self._part(self.cross_x, 0, x)

        def f(y):
            y = as_points(y)
            out = base + self._part(self.f_of_y, 0, y)
            if cx is not None:
                out = out + cx * self._part(self.cross_y, 0, y)
            return out

        return f


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


# the hypotheses each theorem pipeline needs: H1-H3 back the Y-density
# envelopes, H4-H6 the existence of a density for Z (positivity report), H7-H8
# the Z-density envelopes for the univariate driver with a W_T terminal.  A
# run proceeds when any pipeline applies; the checks of the others are
# reported not-applicable instead of gating the exit status.
PIPELINES: dict[str, tuple[str, ...]] = {
    "y_envelope": ("H1", "H2", "H3"),
    "z_existence": ("H4", "H5", "H6"),
    "z_envelope": ("H7", "H8"),
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

    def to_dict(self) -> dict:
        pipelines = {p: all(self.checks[h].status == "pass" for h in hs)
                     for p, hs in PIPELINES.items()}
        return {**asdict(self), "all_pass": self.all_pass, "pipelines": pipelines}


def _finite(quantity: str, values: np.ndarray, witness_at) -> np.ndarray:
    """``values``, once every entry is finite: an overflowing coefficient
    must not turn into a pass, so the first non-finite entry raises."""
    ok = np.isfinite(values)
    if not ok.all():
        i = int(np.argmin(ok))
        raise CoefficientError(
            f"hypothesis check: {quantity} = {values.flat[i]} is not finite at "
            f"grid point {witness_at(i)}; shrink the box or the coefficients"
        )
    return values


def _extrema(values: np.ndarray) -> tuple[int, float, float]:
    """(flat index of the first minimum, the minimum, the maximum)."""
    i = int(np.argmin(values))
    return i, float(values.flat[i]), float(values.max())


def _first_violation(conditions, witness_at):
    """The first broken one of ``(inequality, extrema, strict)`` conditions.

    Each condition asks ``values > 0`` (strict) or ``values >= 0`` on the
    whole grid, given the values' :func:`_extrema`.  Returns ``(inequality,
    witness, value)`` with the grid minimum as the value, or None when every
    condition holds; ``witness_at`` maps a flat grid index to its point (or
    its ``(x, y)`` pair).
    """
    for inequality, (i, value, _), strict in conditions:
        if value < 0 or strict and value == 0:
            return inequality, witness_at(i), value
    return None


def _verdict(name, violation, constants=None, fail_constants=None) -> HypothesisCheck:
    if violation is None:
        return HypothesisCheck(name, "pass", constants=constants or {})
    inequality, witness, value = violation
    return HypothesisCheck(name, "fail", witness, inequality, value, fail_constants or {})


@np.errstate(all="ignore")  # every non-finite value read is raised by _finite
def check_hypotheses(
    problem: ProblemSpec, box: tuple[float, float], n_grid: int
) -> HypothesisReport:
    """Evaluate the standing hypotheses H1..H8 on a grid over a compact box.

    Boundedness conditions become grid extrema, sign conditions grid minima,
    and the bracket conditions go through :func:`lie_bracket` /
    :func:`iterated_bracket`.  When the terminal is phi-of-WT the conditions
    on the terminal data reduce to conditions on phi' and phi''.  Hypotheses
    whose setting does not match the problem (e.g. H7 with an X_T terminal)
    are reported as not-applicable.  A non-finite value of any checked
    quantity raises :class:`CoefficientError`.

    If sigma < 0 on the whole box, the (sigma, W, Z) -> (-sigma, -W, -Z)
    normalization is applied before checking and the report is flagged.
    """
    lo, hi = float(box[0]), float(box[1])
    if not math.isfinite(hi - lo):  # also a finite box too wide for a grid
        raise GlobalDomainError(
            "hypothesis checking is grid-based and restricted to compact domains; "
            f"received box ({box[0]}, {box[1]}) of unbounded width. Supply finite bounds."
        )
    if not lo < hi:
        raise CoefficientError("hypothesis box must satisfy lo < hi")
    if n_grid < 2:
        raise CoefficientError("n_grid must be at least 2")

    grid = np.linspace(lo, hi, n_grid)

    def at(i: int) -> float:
        return float(grid[i])

    def at_xy(i: int) -> tuple[float, float]:
        return tuple(float(grid[k]) for k in divmod(i, n_grid))

    def ends(values: np.ndarray) -> tuple[float, float]:
        # the entries at argmin/argmax keep the sign of a zero extremum
        return float(values[values.argmin()]), float(values[values.argmax()])

    pts = Points(grid)  # every family below shares sin/cos(grid)
    # x down the rows, y along the columns: the driver partials broadcast to the mesh
    px, py = Points(grid[:, None]), Points(grid[None, :])
    sigma = problem.sigma
    sign_normalized = False
    if np.max(eval_derivative(sigma, 0, pts)) < 0.0:
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

    b, drv, phi = problem.b, problem.driver, problem.phi
    g = {q: _finite(q, values, at) for q, values in (
        ("phi'", eval_derivative(phi, 1, pts)),
        ("phi''", eval_derivative(phi, 2, pts)),
        ("sigma", eval_derivative(sigma, 0, pts)),
        ("sigma'", eval_derivative(sigma, 1, pts)),
        ("-sigma''", -eval_derivative(sigma, 2, pts)),
        ("-sigma'''", -eval_derivative(sigma, 3, pts)),
        ("[b,sigma]", lie_bracket(b, sigma, pts)),
        ("[sigma,[sigma,b]]", iterated_bracket(sigma, b, pts)),
    )}
    # each (n_grid, n_grid) partial is reduced to its extrema, all that H2 and
    # H5 read, before the next one is built
    f = {q: _extrema(_finite(q, drv.partial(dx, dy, px, py), at_xy)) for q, dx, dy in (
        ("f_x", 1, 0), ("f_y", 0, 1), ("f_xy", 1, 1), ("f_xx", 2, 0), ("f_yy", 0, 2),
    )}
    phi1, phi2, sig = g["phi'"], g["phi''"], g["sigma"]
    p1min, p1max = ends(phi1)
    p2min, p2max = ends(phi2)
    checks: dict[str, HypothesisCheck] = {}

    # H1: 0 < c <= D_theta xi <= C.  phi-of-WT: D_theta xi = phi'(W_T);
    # phi-of-XT: phi'(X_T) * D_theta X_T with D_theta X_T >= 0 under H3, so
    # the checkable content is phi' > 0.
    h1 = {"c": p1min, "C": p1max}
    checks["H1"] = _verdict(
        "H1", _first_violation([("phi'(x) > 0", _extrema(phi1), True)], at), h1, h1
    )

    # H2: f in C_b^1 and 0 <= f_x <= C
    checks["H2"] = _verdict(
        "H2", _first_violation([("f_x(x, y) >= 0", f["f_x"], False)], at_xy),
        {"C": f["f_x"][2], "sup|f_y|": max(abs(f["f_y"][1]), abs(f["f_y"][2]))},
    )

    # H3: 0 <= sigma <= C and |[b, sigma]| <= M sigma
    smin, smax = ends(sig)
    bracket = np.abs(g["[b,sigma]"])
    h3 = {"sigma_min": smin, "sigma_max": smax}
    violation = _first_violation([("sigma(x) >= 0", _extrema(sig), False)], at)
    if smin == 0 and bracket.max() > 0:
        violation = ("|[b,sigma]| <= M sigma with sigma(x) = 0",
                     at(sig.argmin()), float(bracket.max()))
    if violation is None:
        # conservative certified constant: sup |[b,sigma]| / inf sigma
        ratio = np.where(sig > 0, bracket / sig, 0.0)
        h3["M"] = float(_finite("M", bracket / smin, at).max()) if smin > 0 else 0.0
        h3["M_pointwise"] = float(_finite("M_pointwise", ratio, at).max())
    checks["H3"] = _verdict("H3", violation, h3, h3)

    # H4: D_theta xi >= 0 and D^2 xi > 0
    checks["H4"] = _verdict("H4", _first_violation(
        [("phi'(x) >= 0", _extrema(phi1), False), ("phi''(x) > 0", _extrema(phi2), True)], at
    ), {"phi''_min": p2min, "phi''_max": p2max})

    # H5: f_x, f_y, f_xy, f_xx, f_yy >= 0
    checks["H5"] = _verdict("H5", _first_violation(
        [(f"{q}(x, y) >= 0", values, False) for q, values in f.items()], at_xy
    ))

    # H6: sigma, sigma', -sigma'', -sigma''' >= 0 and [s,[s,b]] >= 0
    checks["H6"] = _verdict("H6", _first_violation([
        (f"{q}(x) >= 0", _extrema(g[q]), False)
        for q in ("sigma", "sigma'", "-sigma''", "-sigma'''", "[sigma,[sigma,b]]")
    ], at))

    # H7: phi in C_b^2 and phi'' >= c > 0 (phi-of-WT models only)
    if problem.terminal == "phi-of-wt":
        checks["H7"] = _verdict(
            "H7", _first_violation([("phi''(w) >= c > 0", _extrema(phi2), True)], at),
            {"c": p2min, "C": p2max},
        )
    else:
        checks["H7"] = HypothesisCheck("H7", "not-applicable")

    # H8: univariate driver with f', f'' >= 0
    if not drv.univariate_in_y:
        checks["H8"] = HypothesisCheck("H8", "not-applicable")
    elif drv.f_of_y is None:
        checks["H8"] = HypothesisCheck("H8", "pass", constants={"sup|f'|": 0.0})
    else:
        d1 = _finite("f'", eval_derivative(drv.f_of_y, 1, pts), at)
        d2 = _finite("f''", eval_derivative(drv.f_of_y, 2, pts), at)
        checks["H8"] = _verdict("H8", _first_violation(
            [("f'(y) >= 0", _extrema(d1), False), ("f''(y) >= 0", _extrema(d2), False)], at
        ), {"sup|f'|": float(np.abs(d1).max()), "sup|f''|": float(np.abs(d2).max())})

    return HypothesisReport(
        checks=checks,
        box=(lo, hi),
        n_grid=n_grid,
        sign_normalized=sign_normalized,
        caveats=[GRID_CAVEAT, H7_COMPACT_BOX_CAVEAT],
    )
