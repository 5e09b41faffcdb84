"""Forward-backward SDE simulation, Malliavin derivative tableaux and
Gaussian density envelopes for the components of one-dimensional BSDEs.

The namespace is lazy (PEP 562): a public name imports its submodule on
first access, so ``bsdedensity.cli`` can run before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "coeffs": (
        "CoefficientFamily",
        "Driver",
        "ProblemSpec",
        "HypothesisReport",
        "constant",
        "affine",
        "trig_affine",
        "scaled_sigmoid",
        "quadratic",
        "polynomial",
        "parse_family",
        "eval_derivative",
        "lie_bracket",
        "iterated_bracket",
        "check_hypotheses",
    ),
    "lamperti": ("LampertiMap",),
    "forward": ("TimeGrid", "PathEnsemble", "MalliavinTableau", "simulate_forward"),
    "backward": ("RegressionBasis", "BackwardSolution", "BackwardTableau", "solve_bsde"),
    "nvdensity": (
        "GEstimate",
        "GTarget",
        "Envelope",
        "mehler_shift",
        "estimate_g",
        "derivative_bound_constants",
        "gaussian_envelopes",
    ),
    "verify": (
        "DensityEstimate",
        "DensityReport",
        "BouleauHirschReport",
        "kde",
        "envelope_check",
        "positivity_report",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
