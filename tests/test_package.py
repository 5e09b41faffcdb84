import importlib

import pytest

import bsdedensity

# the public names of the package namespace, by defining submodule, as the
# namespace exported them when it imported every submodule eagerly
PUBLIC = {
    "coeffs": (
        "CoefficientFamily", "Driver", "ProblemSpec", "HypothesisReport", "constant",
        "affine", "trig_affine", "scaled_sigmoid", "quadratic", "polynomial",
        "parse_family", "eval_derivative", "lie_bracket", "iterated_bracket",
        "check_hypotheses",
    ),
    "lamperti": ("LampertiMap",),
    "forward": ("TimeGrid", "PathEnsemble", "MalliavinTableau", "simulate_forward"),
    "backward": ("RegressionBasis", "BackwardSolution", "BackwardTableau", "solve_bsde"),
    "nvdensity": (
        "GEstimate", "GTarget", "Envelope", "mehler_shift", "estimate_g",
        "derivative_bound_constants", "gaussian_envelopes",
    ),
    "verify": (
        "DensityEstimate", "DensityReport", "BouleauHirschReport", "kde",
        "envelope_check", "positivity_report",
    ),
}
NAMES = [name for names in PUBLIC.values() for name in names]


def test_public_names_are_their_submodules_objects():
    for module, names in PUBLIC.items():
        sub = importlib.import_module(f"bsdedensity.{module}")
        for name in names:
            assert getattr(bsdedensity, name) is getattr(sub, name), (module, name)
    assert bsdedensity.__version__ == "0.1.0"


def test_star_import_and_dir_list_every_public_name():
    namespace: dict = {}
    exec("from bsdedensity import *", namespace)
    assert len(NAMES) == 37
    assert set(NAMES) <= namespace.keys()
    assert namespace["kde"] is importlib.import_module("bsdedensity.verify").kde
    assert set(NAMES) <= set(dir(bsdedensity))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        bsdedensity.no_such_name  # noqa: B018
    assert not hasattr(bsdedensity, "_no_such_private")
