"""Forward-backward SDE simulation, Malliavin derivative tableaux and
Gaussian density envelopes for the components of one-dimensional BSDEs."""

from .coeffs import (
    CoefficientFamily,
    Driver,
    ProblemSpec,
    HypothesisReport,
    constant,
    affine,
    trig_affine,
    scaled_sigmoid,
    quadratic,
    polynomial,
    parse_family,
    eval_derivative,
    lie_bracket,
    iterated_bracket,
    check_hypotheses,
)
from .lamperti import LampertiMap
from .forward import TimeGrid, PathEnsemble, MalliavinTableau, simulate_forward
from .backward import (
    RegressionBasis,
    BackwardSolution,
    BackwardTableau,
    solve_bsde,
)
from .nvdensity import (
    GEstimate,
    GTarget,
    Envelope,
    mehler_shift,
    estimate_g,
    derivative_bound_constants,
    gaussian_envelopes,
)
from .verify import (
    DensityEstimate,
    DensityReport,
    BouleauHirschReport,
    kde,
    envelope_check,
    positivity_report,
)

__version__ = "0.1.0"
