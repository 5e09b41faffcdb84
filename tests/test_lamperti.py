import numpy as np
import pytest
from scipy.integrate import quad

from bsdedensity.coeffs import affine, constant, polynomial, scaled_sigmoid, trig_affine
from bsdedensity.errors import DomainError
from bsdedensity import lamperti
from bsdedensity.lamperti import LampertiMap

from oracles import (
    central_diff,
    reference_drifts,
    reference_inverse_transform,
)

SIG_TRIG = trig_affine(a=2, b=1)  # 2 + cos x
# sigma and b of the S2 model, on the default working box
S2_SIGMA, S2_B, S2_BOX = trig_affine(a=2, b=0.5), trig_affine(c=0.3), (-12.0, 12.0)


def test_transform_constant_sigma():
    m = LampertiMap(constant(2), constant(1), (-3, 3))
    assert m.transform(1.0) == pytest.approx(0.5, abs=1e-12)
    assert m.transform(0.0) == 0.0


def test_transform_against_quadrature_oracle():
    m = LampertiMap(SIG_TRIG, trig_affine(c=1), (-4, 4))
    for x in (-3.0, -1.2, 0.7, np.pi, 3.9):
        oracle, _ = quad(lambda u: 1.0 / (2.0 + np.cos(u)), 0.0, x)
        assert m.transform(x) == pytest.approx(oracle, abs=1e-9)
    assert m.transform(np.pi) == pytest.approx(np.pi / np.sqrt(3), abs=1e-9)


def test_transform_monotone_on_grid():
    m = LampertiMap(SIG_TRIG, constant(0), (-4, 4))
    xs = np.linspace(-4, 4, 400)
    g = m.transform(xs)
    assert np.all(np.diff(g) > 0)


def test_roundtrip():
    m = LampertiMap(SIG_TRIG, constant(0), (-4, 4))
    xs = np.array([-1.0, 0.3, 2.0])
    assert np.max(np.abs(m.inverse_transform(m.transform(xs)) - xs)) < 1e-10
    grid = np.linspace(-3.9, 3.9, 101)
    assert np.max(np.abs(m.inverse_transform(m.transform(grid)) - grid)) < 1e-10


def test_inverse_examples_and_domain():
    m = LampertiMap(constant(2), constant(0), (-3, 3))
    assert m.inverse_transform(0.5) == pytest.approx(1.0, abs=1e-10)
    m2 = LampertiMap(SIG_TRIG, constant(0), (-4, 4))
    assert m2.inverse_transform(np.pi / np.sqrt(3)) == pytest.approx(np.pi, abs=1e-8)
    with pytest.raises(DomainError):
        m2.inverse_transform(1e6)


def test_sigma_nonpositive_rejected_at_construction():
    with pytest.raises(DomainError) as err:
        LampertiMap(affine(a=0, b=1), constant(0), (-1, 1))
    assert "sigma(" in str(err.value)


def test_beta_examples():
    assert LampertiMap(constant(2), constant(1), (-2, 2)).beta(0.3) == 0.5
    m = LampertiMap(SIG_TRIG, constant(0), (-4, 4))
    assert m.beta(0.0) == pytest.approx(0.0, abs=1e-14)
    m2 = LampertiMap(constant(1), affine(b=-0.5), (-5, 5))
    assert m2.beta(2.0) == pytest.approx(-1.0)


def test_beta_prime_sigma_examples():
    ou = LampertiMap(constant(1), affine(b=-0.5), (-5, 5))
    assert ou.beta_prime_sigma(1.7) == pytest.approx(-0.5, abs=1e-14)
    aff = LampertiMap(constant(3), affine(a=1, b=2), (-5, 5))
    assert aff.beta_prime_sigma(0.4) == pytest.approx(2.0, abs=1e-14)
    assert LampertiMap(constant(3), constant(0), (-5, 5)).beta_prime_sigma(1.0) == 0.0


def test_beta_comp_second_examples():
    assert LampertiMap(constant(2), affine(a=1, b=1), (-3, 3)).beta_comp_second(0.5) == 0.0
    m = LampertiMap(constant(2), polynomial(0, 0, 1), (-3, 3))
    assert m.beta_comp_second(1.0) == pytest.approx(4.0, abs=1e-14)
    m2 = LampertiMap(SIG_TRIG, constant(0), (-4, 4))
    assert m2.beta_comp_second(0.0) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize(
    "sigma,b",
    [
        (SIG_TRIG, trig_affine(c=1)),
        (trig_affine(a=3, c=0.5), polynomial(0, 0.5, 0.1)),
    ],
)
def test_derived_drifts_match_finite_differences(sigma, b):
    """beta_prime_sigma and beta_comp_second are the first and second
    derivatives of beta o g^-1, checked at g(x) by finite differences."""
    m = LampertiMap(sigma, b, (-4, 4))
    f = lambda u: m.beta(m.inverse_transform(u))  # noqa: E731
    for x in (-2.0, -0.3, 0.9, 2.4):
        u = m.transform(x)
        d1 = central_diff(f, u, 1, 1e-4)
        ana1 = m.beta_prime_sigma(x)
        assert abs(d1 - ana1) / (1 + abs(ana1)) < 1e-5
        d2 = central_diff(f, u, 2, 2e-3)
        ana2 = m.beta_comp_second(x)
        assert abs(d2 - ana2) / (1 + abs(ana2)) < 1e-4


def test_quadrature_accuracy_contract():
    coarse = LampertiMap(SIG_TRIG, constant(0), (-4, 4), quadrature_step=5e-2)
    oracle, _ = quad(lambda u: 1.0 / (2.0 + np.cos(u)), 0.0, 3.7)
    assert abs(coarse.transform(3.7) - oracle) < 5e-2**2


def test_sigma_nan_rejected_by_certification():
    m = LampertiMap(SIG_TRIG, constant(0), (-4, 4))
    for values in ([1.0, np.nan], [np.nan, 1.0], [2.0, -1.0]):
        with pytest.raises(DomainError):
            m._certify_positive(np.array(values), np.array([0.5, 1.5]))
    m._certify_positive(np.array([1.0, 2.0]), np.array([0.5, 1.5]))


def test_inverse_transform_bitwise_equal_reference():
    m = LampertiMap(S2_SIGMA, S2_B, S2_BOX)
    nodes, g = m._nodes, m._g
    glo, ghi = m.g_range
    rng = np.random.default_rng(11)
    u_random = rng.uniform(glo, ghi, 5000)
    u_lattice = np.concatenate([g[::37], g[-1:]])
    # a u just below g_{k+1} whose secant guess rounds onto nodes[k + 1]
    k = np.arange(len(g) - 1)
    u_top = np.nextafter(g[k + 1], -np.inf)
    frac = (u_top - g[k]) / (g[k + 1] - g[k])
    guess = nodes[k] + frac * (nodes[k + 1] - nodes[k])
    u_edge = u_top[guess >= nodes[k + 1]]
    assert u_edge.size > 0
    for u in (u_random, u_lattice, u_edge, u_random.reshape(50, 100)[:, 7]):
        assert np.array_equal(m.inverse_transform(u), reference_inverse_transform(m, u))
    for u in (0.37, float(g[5000]), float(u_edge[0])):
        got = m.inverse_transform(u)
        assert type(got) is float and got == reference_inverse_transform(m, u)[0]


@pytest.mark.parametrize(
    "sigma,b,box",
    [
        (S2_SIGMA, S2_B, S2_BOX),
        (trig_affine(a=3, c=0.5), polynomial(0, 0.5, 0.1), (-4, 4)),
        (scaled_sigmoid(a=2.0, k=1.5, b=0.5), trig_affine(a=0.2, b=-0.4, d=0.1), (-4, 4)),
    ],
)
def test_drift_functions_bitwise_equal_reference(sigma, b, box):
    m = LampertiMap(sigma, b, box)
    mat = np.random.default_rng(5).uniform(-3.5, 3.5, (40, 13))
    for x in (mat, mat[:, 4], np.ascontiguousarray(mat[:, 4]), 0.81):
        beta, prime, second = reference_drifts(m, x)
        for got, ref in ((m.beta(x), beta), (m.beta_prime_sigma(x), prime),
                         (m.beta_comp_second(x), second)):
            if np.ndim(x) == 0:
                assert type(got) is float and got == ref
            else:
                assert np.array_equal(got, ref)


def test_beta_comp_second_computes_sin_and_cos_once(monkeypatch):
    m = LampertiMap(S2_SIGMA, S2_B, S2_BOX)
    X = np.random.default_rng(3).uniform(-3.0, 3.0, (200, 41))
    calls = {"sin": 0, "cos": 0}
    for name in calls:
        def counted(*args, _fn=getattr(np, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    m.beta_comp_second(X)
    assert calls == {"sin": 1, "cos": 1}


def _cell_queries(g):
    inside = lambda u: u[(u >= g[0]) & (u <= g[-1])]  # noqa: E731
    return (
        np.random.default_rng(8).uniform(g[0], g[-1], 20000),
        g,
        inside(np.nextafter(g, -np.inf)),
        inside(np.nextafter(g, np.inf)),
        np.array([g[0], g[-1]]),
    )


# 1.001 + cos x has sigma_max / sigma_min near 2000: its narrowest cell is
# far narrower than a bucket of the capped table
STEEP_SIGMA = trig_affine(a=1.001, b=1)


@pytest.mark.parametrize(
    "sigma,box",
    [(S2_SIGMA, S2_BOX), (scaled_sigmoid(a=2.0, k=1.5, b=0.5), (-4, 4)),
     (STEEP_SIGMA, (-4, 4))],
)
@pytest.mark.parametrize("steps", [0, lamperti._CELL_STEPS])
def test_bucket_cell_search_equals_searchsorted(sigma, box, steps, monkeypatch):
    # with no passes the binary search places every entry
    m = LampertiMap(sigma, constant(0), box)
    monkeypatch.setattr(lamperti, "_CELL_STEPS", steps)
    g = m._g
    last = len(g) - 2
    for u in _cell_queries(g):
        ref = np.clip(np.searchsorted(g, u, side="right") - 1, 0, last)
        assert np.array_equal(m._cell(u), ref)


@pytest.mark.parametrize(
    "sigma,box",
    [(S2_SIGMA, S2_BOX), (scaled_sigmoid(a=2.0, k=1.5, b=0.5), (-4, 4)),
     (trig_affine(a=1.5, b=1), (-4, 4))],
)
def test_bucket_cell_search_steps_are_bounded(sigma, box, monkeypatch):
    # buckets no wider than the narrowest cell: each query is on its cell
    # after at most two moves, so no entry reaches the binary search, and
    # a steeper sigma (1.5 + cos x, sigma ratio 5) costs no more passes
    m = LampertiMap(sigma, constant(0), box)
    g = m._g
    assert len(m._bucket_cell) * float(np.min(np.diff(g))) >= g[-1] - g[0]
    queries = _cell_queries(g)
    refs = [np.clip(np.searchsorted(g, u, side="right") - 1, 0, len(g) - 2)
            for u in queries]

    def no_search(*args, **kwargs):
        raise AssertionError("the cell search fell back to searchsorted")

    monkeypatch.setattr(np, "searchsorted", no_search)
    for u, ref in zip(queries, refs):
        assert np.array_equal(m._cell(u), ref)


def test_steep_sigma_caps_the_bucket_table():
    m = LampertiMap(STEEP_SIGMA, constant(0), (-4, 4))
    n_cells = len(m._g) - 1
    assert len(m._bucket_cell) == lamperti._MAX_BUCKETS_PER_CELL * n_cells


@pytest.mark.parametrize("sigma", [constant(2), S2_SIGMA])
def test_non_finite_input_names_the_value(sigma):
    m = LampertiMap(sigma, constant(0), (-4, 4))
    for bad in (np.nan, np.inf, -np.inf):
        for v in (bad, np.array([0.1, bad, 0.2])):
            with pytest.raises(DomainError, match=f"= {bad} is not finite"):
                m.transform(v)
            with pytest.raises(DomainError, match=f"= {bad} is not finite"):
                m.inverse_transform(v)
    with pytest.raises(DomainError, match="= 1e\\+06 is outside .*, the image"):
        m.inverse_transform(np.array([0.1, 1e6]))
    with pytest.raises(DomainError, match="= -1e\\+06 is outside .*, the certified interval"):
        m.transform(-1e6)
