import json
import re

import numpy as np
import pytest

from bsdedensity.coeffs import (
    _FAMILIES,
    CoefficientFamily,
    Driver,
    Points,
    ProblemSpec,
    affine,
    check_hypotheses,
    constant,
    eval_derivative,
    family_to_string,
    iterated_bracket,
    lie_bracket,
    parse_family,
    polynomial,
    quadratic,
    scaled_sigmoid,
    trig_affine,
)
from bsdedensity.errors import CoefficientError, GlobalDomainError

from oracles import (
    FD_STEPS,
    central_diff,
    reference_check_hypotheses,
    reference_derivative,
    traced,
)

ALL_FAMILIES = [
    constant(2.5),
    affine(a=2, b=3),
    trig_affine(a=2, b=1),
    trig_affine(a=0.3, b=-1.2, c=0.7, d=0.4),
    scaled_sigmoid(a=2.0, k=1.5, b=0.2),
    quadratic(a=1, b=-2, c=0.5),
    polynomial(0.5, -1, 0.25, 2, -0.125),
]


def test_eval_examples():
    assert eval_derivative(affine(a=2, b=3), 1, 7.0) == 3.0
    sig = trig_affine(a=2, b=1)
    assert eval_derivative(sig, 0, 0.0) == 3.0
    assert abs(eval_derivative(sig, 2, np.pi / 2)) < 1e-12


def test_eval_vectorized_matches_scalar():
    fam = quadratic(a=1, b=-2, c=0.5)
    xs = np.linspace(-3, 3, 7)
    vec = eval_derivative(fam, 1, xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert eval_derivative(fam, 1, float(x)) == v


def test_order_out_of_range():
    with pytest.raises(CoefficientError):
        eval_derivative(affine(a=1, b=1), -1, 0.0)
    # order 4 is refused by every family, not folded into the order-3 branch
    for fam in ALL_FAMILIES:
        with pytest.raises(CoefficientError, match="outside contract 0..3"):
            eval_derivative(fam, 4, 0.3)


def test_unknown_family_and_params():
    with pytest.raises(CoefficientError):
        CoefficientFamily("cubic-spline", {})
    with pytest.raises(CoefficientError):
        CoefficientFamily("affine", {"slope": 1.0})


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.family)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_derivatives_match_finite_differences(fam, order):
    xs = np.linspace(-5, 5, 100)
    f0 = lambda x: eval_derivative(fam, 0, x)  # noqa: E731
    worst = 0.0
    for x in xs:
        ana = eval_derivative(fam, order, float(x))
        num = central_diff(f0, float(x), order, FD_STEPS[order])
        worst = max(worst, abs(ana - num) / (1.0 + abs(ana)))
    assert worst < 1e-6


def _evaluation_inputs():
    rng = np.random.default_rng(7)
    mat = rng.uniform(-6.0, 6.0, (64, 9))
    return {
        "contiguous": rng.uniform(-6.0, 6.0, 257),
        "strided column": mat[:, 3],
        "matrix": mat,
        "0-d array": np.array(0.73),
        "float": -1.9,
    }


def _assert_same(got, ref, scalar):
    if scalar:
        assert type(got) is float and got == ref
    else:
        assert np.array_equal(got, ref)


@pytest.mark.parametrize(
    "fam", ALL_FAMILIES + [scaled_sigmoid(a=-1.5, k=-2.0, b=0.3)], ids=lambda f: str(f)
)
def test_evaluators_bitwise_equal_reference(fam):
    # one Points serves every order (shared transcendentals), in any order
    for x in _evaluation_inputs().values():
        pts = Points(x)
        scalar = np.ndim(x) == 0
        for order in (3, 0, 2, 1):
            ref = reference_derivative(fam, order, x)
            _assert_same(eval_derivative(fam, order, x), ref, scalar)
            _assert_same(eval_derivative(fam, order, pts), ref, scalar)


def _bits(v):
    return np.asarray(v, dtype=float).view(np.uint64)


@pytest.mark.parametrize("zero", [0.0, -0.0])
@pytest.mark.parametrize("pattern", range(16))
def test_trig_affine_zero_terms_bitwise_equal_full_formula(pattern, zero):
    # every zero pattern of (a, b, c, d), with zeros of either sign: the
    # evaluator skips the zero terms, the reference builds all four; the
    # bits agree, signed zeros included, on finite points that hit
    # sin = +-0 and x = +-0
    values = {"a": 0.3, "b": -1.2, "c": 0.7, "d": 0.4}
    params = {k: (v if pattern >> i & 1 else zero) for i, (k, v) in enumerate(values.items())}
    fam = trig_affine(**params)
    x = np.concatenate([
        np.random.default_rng(9).uniform(-7.0, 7.0, 300),
        [0.0, -0.0, np.pi, -np.pi, 0.5 * np.pi, -0.5 * np.pi, 2 * np.pi, 1e-300, -1e-300],
    ])
    for order in range(4):
        ref = reference_derivative(fam, order, x)
        assert np.array_equal(_bits(eval_derivative(fam, order, Points(x))), _bits(ref))
        for xi in (0.0, -0.0, 1.3):
            got = eval_derivative(fam, order, xi)
            assert type(got) is float
            assert _bits(got) == _bits(reference_derivative(fam, order, xi))


def test_trig_affine_computes_only_the_transcendentals_it_reads():
    # sigma = 2 + 0.5 cos x reads no sin at order 0; b = 0.3 sin x no cos
    pts = Points(np.linspace(-3.0, 3.0, 11))
    eval_derivative(trig_affine(a=2, b=0.5), 0, pts)
    assert pts._sin is None and pts._cos is not None
    pts = Points(np.linspace(-3.0, 3.0, 11))
    eval_derivative(trig_affine(c=0.3), 0, pts)
    eval_derivative(trig_affine(c=0.3), 2, pts)
    assert pts._cos is None and pts._sin is not None


def test_driver_f_given_x_bitwise_equal_f():
    x = np.random.default_rng(4).uniform(-3.0, 3.0, 200)
    ys = [np.cos(x) * 2.0, np.linspace(-1.0, 1.0, 200)]
    for drv in (
        Driver(f_of_x=affine(b=0.1), f_of_y=trig_affine(c=0.2)),
        Driver(f_of_y=scaled_sigmoid(a=1.2, k=0.7)),
        Driver(f_of_x=trig_affine(a=0.1, b=0.3), cross_x=quadratic(a=0.5, c=0.25),
               cross_y=trig_affine(b=0.4, c=0.9)),
    ):
        def part(fam, v):
            return np.zeros_like(v) if fam is None else reference_derivative(fam, 0, v)

        f = drv.f_given_x(x)
        for y in ys:
            # the value sum of f in the order of the other partials
            ref = np.zeros(x.shape) + part(drv.f_of_x, x) + part(drv.f_of_y, y)
            if drv.cross_x is not None:
                ref = ref + part(drv.cross_x, x) * part(drv.cross_y, y)
            for got in (f(y), f(Points(y)), drv.partial(0, 0, x, y),
                        drv.partial(0, 0, Points(x), y)):
                assert np.array_equal(_bits(got), _bits(ref))


def test_brackets_and_driver_on_points_bitwise():
    ref = reference_derivative
    drv = Driver(
        f_of_x=trig_affine(a=0.1, b=0.3, c=-0.2, d=0.5),
        f_of_y=scaled_sigmoid(a=1.2, k=0.7),
        cross_x=quadratic(a=0.5, c=0.25),
        cross_y=trig_affine(b=0.4, c=0.9),
    )
    for x in _evaluation_inputs().values():
        scalar = np.ndim(x) == 0
        y = np.cos(x) * 2.0 if not scalar else 0.4
        pts, ypts = Points(x), Points(y)
        for h, g in ((ALL_FAMILIES[3], ALL_FAMILIES[4]), (ALL_FAMILIES[2], ALL_FAMILIES[6])):
            lie = ref(h, 0, x) * ref(g, 1, x) - ref(g, 0, x) * ref(h, 1, x)
            _assert_same(lie_bracket(h, g, pts), lie, scalar)
            prime = ref(h, 0, x) * ref(g, 2, x) - ref(g, 0, x) * ref(h, 2, x)
            it = ref(h, 0, x) * prime - lie * ref(h, 1, x)
            _assert_same(iterated_bracket(h, g, pts), it, scalar)
        for dx, dy in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
            out = np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape)
            if dy == 0:
                out = out + ref(drv.f_of_x, dx, x)
            if dx == 0:
                out = out + ref(drv.f_of_y, dy, y)
            out = out + ref(drv.cross_x, dx, x) * ref(drv.cross_y, dy, y)
            assert np.array_equal(drv.partial(dx, dy, pts, ypts), out)


def test_non_finite_parameters_rejected():
    for text, family, name in (
        ("trig-affine(a=nan)", "trig-affine", "a"),
        ("affine(b=inf)", "affine", "b"),
        ("scaled-sigmoid(k=-inf)", "scaled-sigmoid", "k"),
    ):
        with pytest.raises(CoefficientError, match=f"'{family}'.*'{name}'.*not finite"):
            parse_family(text)
    with pytest.raises(CoefficientError, match="not finite"):
        polynomial(0.0, float("nan"))


def test_lie_bracket_examples():
    h = polynomial(0, 1)          # x
    g = polynomial(0, 0, 1)       # x^2
    assert lie_bracket(h, g, 2.0) == 4.0
    assert lie_bracket(trig_affine(c=1), trig_affine(a=2, b=1), 0.0) == -3.0


def test_lie_bracket_antisymmetry_exact():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-4, 4, 25)
    for h in ALL_FAMILIES[:4]:
        for g in ALL_FAMILIES[3:]:
            for x in xs:
                assert lie_bracket(h, g, float(x)) == -lie_bracket(g, h, float(x))
    # the diagonal vanishes identically
    for fam in ALL_FAMILIES:
        assert lie_bracket(fam, fam, 1.3) == 0.0


def test_iterated_bracket_examples():
    assert iterated_bracket(constant(2), polynomial(0, 0, 1), 1.0) == 8.0
    assert iterated_bracket(constant(2), affine(a=1, b=3), 0.7) == 0.0
    assert iterated_bracket(trig_affine(a=2, b=1), constant(0), 1.1) == 0.0


def test_parse_family_roundtrip():
    for fam in ALL_FAMILIES:
        back = parse_family(family_to_string(fam))
        assert back.family == fam.family
        assert back.params == fam.params
    assert parse_family("trig-affine(a=2, b=1)")(0.0) == 3.0
    with pytest.raises(CoefficientError):
        parse_family("affine[a=1]")
    with pytest.raises(CoefficientError):
        parse_family("affine(a=one)")


def test_driver_partials_match_finite_differences():
    drv = Driver(
        f_of_x=quadratic(a=0, b=0.5, c=0.25),
        f_of_y=trig_affine(a=1, c=0.5),
        cross_x=affine(a=0, b=1),
        cross_y=scaled_sigmoid(a=1, k=1),
        alpha=0.2,
    )
    h = 1e-5
    rng = np.random.default_rng(1)
    for x, y in rng.uniform(-2, 2, (20, 2)):
        f = lambda a, b: float(drv.partial(0, 0, a, b))  # noqa: E731
        num_fx = (f(x + h, y) - f(x - h, y)) / (2 * h)
        num_fy = (f(x, y + h) - f(x, y - h)) / (2 * h)
        num_fxy = (
            f(x + h, y + h) - f(x + h, y - h) - f(x - h, y + h) + f(x - h, y - h)
        ) / (4 * h * h)
        assert abs(float(drv.partial(1, 0, x, y)) - num_fx) < 1e-8 * (1 + abs(num_fx))
        assert abs(float(drv.partial(0, 1, x, y)) - num_fy) < 1e-8 * (1 + abs(num_fy))
        assert abs(float(drv.partial(1, 1, x, y)) - num_fxy) < 1e-5


def _problem(b, sigma, phi=None, driver=None, terminal="phi-of-wt"):
    return ProblemSpec(
        x0=0.0,
        T=1.0,
        b=b,
        sigma=sigma,
        driver=driver or Driver(),
        terminal=terminal,
        phi=phi or affine(a=0, b=1),
        box=(-8, 8),
    )


def test_h3_pass_with_constants():
    prob = _problem(trig_affine(c=1), trig_affine(a=2, b=1))
    rep = check_hypotheses(prob, (-4, 4), 1000)
    h3 = rep.checks["H3"]
    assert h3.status == "pass"
    assert h3.constants["M"] <= 3 + 1e-9
    assert 1 - 1e-4 <= h3.constants["sigma_min"]
    assert h3.constants["sigma_max"] <= 3 + 1e-12


def test_h3_fail_sign_witness():
    prob = _problem(constant(0), affine(a=0, b=1))
    rep = check_hypotheses(prob, (-1, 1), 101)
    h3 = rep.checks["H3"]
    assert h3.status == "fail"
    assert h3.witness == -1.0
    # report soundness: the quoted inequality is violated at the witness
    assert eval_derivative(prob.sigma, 0, h3.witness) == h3.value < 0


def test_h7_fail_witness_near_half_pi():
    prob = _problem(constant(0), constant(1), phi=trig_affine(c=0.1, d=1))
    rep = check_hypotheses(prob, (-3, 3), 601)
    h7 = rep.checks["H7"]
    assert h7.status == "fail"
    assert abs(h7.witness - np.pi / 2) < 0.02
    assert eval_derivative(prob.phi, 2, h7.witness) <= 0


def test_global_domain_refused():
    prob = _problem(constant(0), constant(1))
    with pytest.raises(GlobalDomainError):
        check_hypotheses(prob, (-np.inf, np.inf), 100)


def test_h6_pass_and_fail():
    ok = _problem(polynomial(0, 0, 1), constant(2), phi=quadratic(c=0.5))
    rep = check_hypotheses(ok, (-2, 2), 301)
    assert rep.checks["H6"].status == "pass"
    bad = _problem(constant(0), trig_affine(a=2, b=1))
    rep2 = check_hypotheses(bad, (-2, 2), 301)
    assert rep2.checks["H6"].status == "fail"  # sigma' = -sin changes sign


def test_h5_cross_driver():
    drv = Driver(cross_x=quadratic(c=1), cross_y=quadratic(c=1))  # x^2 y^2
    prob = _problem(constant(0), constant(1), driver=drv)
    rep = check_hypotheses(prob, (0.5, 2.0), 101)
    assert rep.checks["H5"].status == "pass"
    rep2 = check_hypotheses(prob, (-2.0, 2.0), 101)
    assert rep2.checks["H5"].status == "fail"  # f_xy = 4xy < 0 in two quadrants
    assert rep2.checks["H5"].witness is not None


def test_sign_normalization():
    prob = _problem(trig_affine(c=1), trig_affine(a=-2, b=-1))  # sigma < 0 everywhere
    rep = check_hypotheses(prob, (-4, 4), 501)
    assert rep.sign_normalized
    assert rep.checks["H3"].status == "pass"


def test_h1_h4_terminal_reductions():
    steep = _problem(constant(0), constant(1), phi=quadratic(a=0, b=2, c=0.5))
    rep = check_hypotheses(steep, (-1, 1), 201)
    assert rep.checks["H1"].status == "pass"   # phi' = 2 + x > 0 on box
    assert rep.checks["H4"].status == "pass"   # phi'' = 1 > 0
    flat = _problem(constant(0), constant(1))  # phi = x, phi'' = 0
    rep2 = check_hypotheses(flat, (-1, 1), 201)
    assert rep2.checks["H1"].status == "pass"
    assert rep2.checks["H4"].status == "fail"


def test_h8_univariate_only():
    uni = _problem(constant(0), constant(1),
                   driver=Driver(f_of_y=quadratic(a=0, b=1, c=0.5)))
    rep = check_hypotheses(uni, (0.1, 3), 201)
    assert rep.checks["H8"].status == "pass"
    sig = _problem(constant(0), constant(1),
                   driver=Driver(f_of_y=scaled_sigmoid(a=1, k=1)))
    rep_sig = check_hypotheses(sig, (0.1, 3), 201)
    assert rep_sig.checks["H8"].status == "fail"  # f'' < 0 for y > 0
    mixed = _problem(constant(0), constant(1),
                     driver=Driver(f_of_x=affine(b=1), f_of_y=affine(b=1)))
    rep2 = check_hypotheses(mixed, (0.1, 3), 201)
    assert rep2.checks["H8"].status == "not-applicable"


def test_report_caveats_present():
    rep = check_hypotheses(_problem(constant(0), constant(1)), (-1, 1), 11)
    assert any("compact box" in c for c in rep.caveats)


def _report_json(payload: dict) -> str:
    # the bytes hypothesis_report.json gets: signed zeros and key order count
    return json.dumps(payload, indent=2, sort_keys=True)


def _random_family(rng, positive=False):
    if positive:  # a sigma that stays positive, so H3 reaches its constants
        return trig_affine(a=2.0 + float(rng.random()), b=float(rng.uniform(-1, 1)),
                           c=float(rng.uniform(-0.5, 0.5)))
    name = str(rng.choice(sorted(_FAMILIES)))
    return CoefficientFamily(name, {
        k: 0.0 if rng.random() < 0.3 else round(float(rng.uniform(-2.0, 2.0)), 2)
        for k in _FAMILIES[name][1]
    })


def _random_driver(rng):
    shape = int(rng.integers(4))
    if shape == 0:
        return Driver()
    if shape == 1:
        return Driver(f_of_y=_random_family(rng))
    if shape == 2:
        return Driver(f_of_x=_random_family(rng), f_of_y=_random_family(rng))
    return Driver(f_of_x=_random_family(rng), cross_x=_random_family(rng),
                  cross_y=_random_family(rng))


def test_check_hypotheses_reduces_the_mesh_one_partial_at_a_time():
    """Each (n_grid, n_grid) driver partial is checked and reduced to its
    extrema before the next is built: on the S2 model (nonlinear f(x, y))
    at n_grid = 801 the checker peaks within 2.5 mesh arrays above its entry
    (holding the five partials at once took six)."""
    prob = ProblemSpec(
        x0=0.0, T=1.0, b=trig_affine(c=0.3), sigma=trig_affine(a=2, b=0.5),
        driver=Driver(f_of_x=affine(b=0.1), f_of_y=trig_affine(c=0.2)),
        terminal="phi-of-xt", phi=trig_affine(c=0.1, d=1), box=(-12, 12),
    )
    report, peak, _ = traced(check_hypotheses, prob, (-12.0, 12.0), 801)
    assert report.checks["H2"].status == "pass"
    assert peak / (8 * 801**2) <= 2.5


def test_check_hypotheses_matches_reference_on_random_models():
    """The condition-table checker writes the report of the hand-written
    reference checker, byte for byte, on 320 seeded random models."""
    seen = set()
    for seed in range(320):
        rng = np.random.default_rng(seed)
        lo = round(float(rng.uniform(-6.0, 3.0)), 2)
        box = (lo, lo + round(float(rng.uniform(0.1, 8.0)), 2))
        prob = ProblemSpec(
            x0=0.0, T=1.0, b=_random_family(rng),
            sigma=_random_family(rng, positive=rng.random() < 0.4),
            driver=_random_driver(rng),
            terminal=str(rng.choice(["phi-of-wt", "phi-of-xt"])),
            phi=_random_family(rng), box=(-8.0, 8.0),
        )
        n_grid = int(rng.integers(2, 301))
        try:
            ref = reference_check_hypotheses(prob, box, n_grid)
        except CoefficientError as exc:  # the scaled-sigmoid sign refusal
            with pytest.raises(CoefficientError, match=re.escape(str(exc))):
                check_hypotheses(prob, box, n_grid)
            seen.add("refused")
            continue
        assert _report_json(check_hypotheses(prob, box, n_grid).to_dict()) == (
            _report_json(ref)
        ), seed
        seen.update((k, c["status"]) for k, c in ref["checks"].items())
        seen.update(c["inequality"] for c in ref["checks"].values())
    for h in ("H1", "H2", "H3", "H4", "H5", "H6", "H7", "H8"):
        assert {(h, "pass"), (h, "fail")} <= seen, h
    assert {("H7", "not-applicable"), ("H8", "not-applicable"), "refused"} <= seen


_S = constant(0), constant(1)  # b, sigma of cases that only vary phi or the driver


@pytest.mark.parametrize("check, inequality, b, sigma, phi, driver, box, n_grid", [
    ("H1", "phi'(x) > 0", *_S, affine(b=-1), None, (-1, 1), 11),
    ("H2", "f_x(x, y) >= 0", *_S, None, Driver(f_of_x=affine(b=-1)), (-1, 1), 11),
    ("H3", "sigma(x) >= 0", constant(0), affine(b=1), None, None, (-1, 1), 11),
    # sigma = x^2 is 0 at the middle grid point, where |[b, sigma]| = |2x| is
    # not 0 on the rest of the grid: no finite M
    ("H3", "|[b,sigma]| <= M sigma with sigma(x) = 0",
     affine(a=1), quadratic(c=1), None, None, (-1, 1), 21),
    ("H4", "phi'(x) >= 0", *_S, affine(b=-1), None, (-1, 1), 11),
    ("H4", "phi''(x) > 0", *_S, affine(b=1), None, (-1, 1), 11),
    ("H5", "f_x(x, y) >= 0", *_S, None, Driver(f_of_x=affine(b=-1)), (-1, 1), 11),
    ("H5", "f_y(x, y) >= 0", *_S, None, Driver(f_of_y=affine(b=-1)), (-1, 1), 11),
    ("H5", "f_xy(x, y) >= 0", *_S, None,
     Driver(cross_x=affine(a=-10, b=1), cross_y=affine(a=10, b=-1)), (0.5, 2), 11),
    ("H5", "f_xx(x, y) >= 0", *_S, None, Driver(f_of_x=quadratic(b=5, c=-1)), (0.5, 2), 11),
    ("H5", "f_yy(x, y) >= 0", *_S, None, Driver(f_of_y=quadratic(b=5, c=-1)), (0.5, 2), 11),
    ("H6", "sigma(x) >= 0", constant(0), affine(b=1), None, None, (-1, 1), 11),
    ("H6", "sigma'(x) >= 0", constant(0), trig_affine(a=2, b=1), None, None, (-2, 2), 41),
    ("H6", "-sigma''(x) >= 0", constant(0), quadratic(a=1, b=1, c=1), None, None, (0, 1), 11),
    ("H6", "-sigma'''(x) >= 0",
     constant(0), polynomial(10, 1, -0.5, 0.01), None, None, (0, 1), 11),
    ("H6", "[sigma,[sigma,b]](x) >= 0",
     quadratic(c=-1), constant(2), None, None, (-1, 1), 11),
    ("H7", "phi''(w) >= c > 0", *_S, trig_affine(c=0.1, d=1), None, (-3, 3), 61),
    ("H8", "f'(y) >= 0", *_S, None, Driver(f_of_y=affine(b=-1)), (0.1, 3), 11),
    ("H8", "f''(y) >= 0", *_S, None, Driver(f_of_y=scaled_sigmoid(a=1, k=1)), (0.1, 3), 11),
])
def test_every_inequality_matches_reference(check, inequality, b, sigma, phi, driver,
                                            box, n_grid):
    prob = _problem(b, sigma, phi=phi, driver=driver)
    rep = check_hypotheses(prob, box, n_grid)
    assert rep.checks[check].status == "fail"
    assert rep.checks[check].inequality == inequality
    assert _report_json(rep.to_dict()) == _report_json(
        reference_check_hypotheses(prob, box, n_grid)
    )


def test_special_cases_match_reference():
    flipped = _problem(trig_affine(c=1), trig_affine(a=-2, b=-1))
    x_terminal = _problem(constant(0), constant(1), terminal="phi-of-xt",
                          driver=Driver(f_of_x=affine(b=1), f_of_y=affine(b=1)))
    # sigma = -0 + 0 cos x + ... is -0.0 on (-pi, -pi/2) and +0.0 elsewhere:
    # sigma_min and sigma_max are the entries at argmin/argmax, signs kept
    signed_zero = _problem(constant(1), trig_affine(a=-0.0))
    for prob in (flipped, x_terminal, signed_zero):
        rep = check_hypotheses(prob, (-3, 3), 61)
        assert _report_json(rep.to_dict()) == _report_json(
            reference_check_hypotheses(prob, (-3, 3), 61)
        )
    rep = check_hypotheses(signed_zero, (-3, 3), 61)
    assert '"sigma_max": -0.0' in _report_json(rep.to_dict())
    assert check_hypotheses(flipped, (-3, 3), 61).sign_normalized
    rep = check_hypotheses(x_terminal, (-1, 1), 11)
    assert rep.checks["H7"].status == rep.checks["H8"].status == "not-applicable"
    sigmoid = _problem(constant(0), scaled_sigmoid(a=-1, b=-0.5))
    for checker in (check_hypotheses, reference_check_hypotheses):
        with pytest.raises(CoefficientError, match="scaled-sigmoid"):
            checker(sigmoid, (-1, 1), 11)


def test_overflowing_coefficient_fails_loudly():
    # sigma = 1 + x^2 + x^4 overflows on the box: no pass with M = NaN
    prob = _problem(constant(0), polynomial(1, 0, 1, 0, 1))
    with pytest.raises(CoefficientError, match=r"sigma = inf is not finite at grid point -1e\+90"):
        check_hypotheses(prob, (-1e90, 1e90), 101)
