from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

from bsdedensity.errors import DomainError
from bsdedensity.nvdensity import RowStatistics, gaussian_envelopes
from bsdedensity import verify
from bsdedensity.verify import PositivityCounts, envelope_check, kde, positivity_report

from oracles import traced


@pytest.fixture(scope="module")
def normal_samples():
    return np.random.default_rng(2024).standard_normal(100000)


def test_kde_normal_oracle(normal_samples):
    grid = np.linspace(-4, 4, 401)
    est = kde(normal_samples, grid)
    inner = np.abs(grid) <= 2
    err = np.abs(est.density[inner] - norm.pdf(grid[inner]))
    assert err.max() < 0.01


def test_kde_translation_equivariance(normal_samples):
    x = normal_samples[:5000]
    grid = np.linspace(-3, 3, 101)
    a = kde(x, grid, bandwidth=0.2)
    b = kde(x + 10.0, grid + 10.0, bandwidth=0.2)
    assert np.allclose(a.density, b.density, atol=1e-12)


def test_kde_normalization(normal_samples):
    grid = np.linspace(-6, 6, 601)
    est = kde(normal_samples, grid)
    mass = np.trapezoid(est.density, grid)
    assert abs(mass - 1.0) < 0.01
    assert 0.98 <= mass <= 1.001


def test_kde_contract_errors():
    with pytest.raises(DomainError):
        kde(np.ones(5000), np.linspace(-1, 1, 11))
    with pytest.raises(DomainError):
        kde(np.random.default_rng(0).standard_normal(100), np.linspace(-1, 1, 5))
    # small sets are fine with an explicit bandwidth
    est = kde(np.random.default_rng(0).standard_normal(100),
              np.linspace(-1, 1, 5), bandwidth=0.3)
    assert np.all(est.density >= 0)


@pytest.mark.parametrize("bandwidth", [np.nan, np.inf])
def test_kde_rejects_a_bandwidth_not_finite_and_positive(bandwidth):
    x = np.random.default_rng(0).standard_normal(100)
    with pytest.raises(DomainError, match="finite and positive"):
        kde(x, np.linspace(-1, 1, 5), bandwidth=bandwidth)


def test_kde_rejects_an_empty_sample():
    for bandwidth in (None, 0.3):
        with pytest.raises(DomainError, match="non-empty"):
            kde(np.array([]), np.linspace(-1, 1, 5), bandwidth=bandwidth)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kde_rejects_a_non_finite_sample(bad):
    x = np.random.default_rng(0).standard_normal(2000)
    x[17] = bad
    for bandwidth in (None, 0.3):
        with pytest.raises(DomainError, match=f"sample 17 = {bad} is not finite"):
            kde(x, np.linspace(-1, 1, 5), bandwidth=bandwidth)


def _matched_case(n=100000, t=1.0, seed=5):
    samples = np.random.default_rng(seed).standard_normal(n) * np.sqrt(t)
    grid = np.linspace(samples.min() - 0.2, samples.max() + 0.2, 301)
    est = kde(samples, grid)
    m = float(np.abs(samples - samples.mean()).mean())
    env = gaussian_envelopes(float(samples.mean()), m, t, t, grid)
    return est, env


def test_envelope_check_matched_density_passes():
    est, env = _matched_case()
    rep = envelope_check(est, env, quantile_range=0.99, tol=0.0,
                         max_violation_fraction=0.05)
    assert rep.verdict == "pass"


def test_envelope_check_wrong_variance_fails():
    n = 100000
    samples = np.random.default_rng(6).standard_normal(n) * 2.0  # N(0, 4)
    grid = np.linspace(samples.min() - 0.2, samples.max() + 0.2, 301)
    est = kde(samples, grid)
    m = float(np.abs(samples).mean())
    env = gaussian_envelopes(0.0, m, 1.0, 1.0, grid)  # built for variance 1
    rep = envelope_check(est, env, 0.99, 0.0)
    assert rep.verdict == "fail"
    assert rep.upper_violation_fraction > 0  # tails exceed the upper envelope


def test_envelope_check_tol_infinite_and_monotone():
    n = 100000
    samples = np.random.default_rng(6).standard_normal(n) * 2.0
    grid = np.linspace(samples.min() - 0.2, samples.max() + 0.2, 301)
    est = kde(samples, grid)
    env = gaussian_envelopes(0.0, float(np.abs(samples).mean()), 1.0, 1.0, grid)
    assert envelope_check(est, env, 0.99, np.inf).verdict == "pass"
    fracs = []
    for tol in (0.0, 0.5, 2.0, 10.0):
        rep = envelope_check(est, env, 0.99, tol)
        fracs.append(rep.upper_violation_fraction + rep.lower_violation_fraction)
    assert all(a >= b for a, b in zip(fracs, fracs[1:]))


def test_envelope_check_grid_mismatch():
    est, env = _matched_case(n=5000)
    env2 = gaussian_envelopes(env.mean, env.abs_moment, 1.0, 1.0,
                              env.z_grid[:-1])
    with pytest.raises(DomainError):
        envelope_check(est, env2)


def test_envelope_check_rejects_nan():
    est, env = _matched_case(n=5000)
    nan_kde = replace(est, density=np.full_like(est.density, np.nan))
    with pytest.raises(DomainError, match="non-finite"):
        envelope_check(nan_kde, env)
    nan_env = replace(env, upper=np.full_like(env.upper, np.nan))
    with pytest.raises(DomainError, match="non-finite"):
        envelope_check(est, nan_env)
    with pytest.raises(DomainError, match="non-finite"):
        envelope_check(est, env, tol=np.nan)


def test_positivity_report():
    rep = positivity_report(np.full(1000, 0.3))
    assert rep.verdict == "pass"
    assert rep.min_value == pytest.approx(0.3)
    assert rep.nonpositive_fraction == 0.0

    samples = np.full(10**6, 1.0)
    samples[123456] = -0.01
    rep2 = positivity_report(samples)
    assert rep2.verdict == "fail"
    assert rep2.witness_indices == [123456]
    assert rep2.min_value == pytest.approx(-0.01)

    noisy = 1.0 + 1e-3 * np.random.default_rng(3).standard_normal(20000)
    rep3 = positivity_report(noisy)
    assert rep3.verdict == "pass"

    with pytest.raises(DomainError):
        positivity_report(np.array([]))


def test_positivity_noise_floor():
    samples = np.ones(10000)
    samples[:5] = -1e-6
    assert positivity_report(samples).verdict == "fail"
    assert positivity_report(samples, noise_floor=1e-3).verdict == "pass"


def test_positivity_counts_pool_rows_in_order():
    # summed per-row counts report on the pool as on the concatenated rows:
    # witnesses are offset into the pooled order and cut at 20 across rows
    rng = np.random.default_rng(3)
    rows = [rng.standard_normal((50, 4)) + 1.5, rng.standard_normal((30, 7)) + 2.0,
            np.full((10, 2), 0.1), rng.standard_normal((40, 3))]
    counts = [PositivityCounts.of(r) for r in rows]
    rep = positivity_report(sum(counts[1:], counts[0]), noise_floor=0.01)
    flat = np.concatenate([r.ravel() for r in rows])
    nonpos = flat <= 0.0
    assert counts[0].n_nonpositive < 20 < counts[0].n_nonpositive + counts[3].n_nonpositive
    assert rep.witness_indices == [int(i) for i in np.nonzero(nonpos)[0][:20]]
    assert rep.n_samples == flat.size
    assert rep.nonpositive_fraction == float(nonpos.mean())
    assert rep.min_value == float(flat.min())
    assert rep.verdict == "fail"


@pytest.mark.parametrize("case", ["all-non-positive", "sparse", "late-dense", "none", "empty"])
def test_positivity_witnesses_are_the_first_twenty(case):
    rng = np.random.default_rng(5)
    samples = {
        "all-non-positive": -rng.random((40, 30)),
        "sparse": np.where(rng.random((40, 30)) < 0.01, -1.0, 1.0),
        "late-dense": np.concatenate([np.ones(1000), -np.ones(500)]),
        "none": 1.0 + rng.random(1200),
        "empty": np.empty((0, 3)),
    }[case]
    nonpos = samples.ravel() <= 0.0
    counts = PositivityCounts.of(samples)
    assert counts.witness_indices == tuple(int(i) for i in np.nonzero(nonpos)[0][:20])
    assert counts.n_nonpositive == int(nonpos.sum())


def test_positivity_witnesses_need_no_block_sized_index_array():
    # an index array over a block of non-positive samples is as large as the
    # block; the counts allocate only boolean masks of it
    samples = -np.ones(10**6)
    counts, peak, _ = traced(PositivityCounts.of, samples)
    assert counts.witness_indices == tuple(range(20))
    assert peak < 0.5 * samples.nbytes


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_positivity_report_refuses_non_finite(bad):
    with pytest.raises(DomainError, match="non-finite"):
        positivity_report(np.array([1.0, bad, 2.0]))
    with pytest.raises(DomainError, match="non-finite"):
        PositivityCounts.of(np.array([[1.0, 2.0], [bad, 3.0]]))


@pytest.mark.parametrize("block", [1, 3, 7, 50])
def test_positivity_counts_of_path_blocks_equal_the_whole_row(block):
    # non-positive values in the first and last column of pairs of rows that
    # straddle seams of blocks of 3 paths (2|3, 20|21) and of 7 paths (all
    # six pairs), more of them than the report lists
    rng = np.random.default_rng(8)
    D = 1.0 + 0.1 * rng.standard_normal((50, 9))
    for r in (2, 3, 6, 7, 13, 14, 20, 21, 27, 28, 48, 49):
        D[r, [0, -1]] = -rng.random(2)
    stats = RowStatistics(*D.shape)
    for lo in range(0, len(D), block):
        stats.add(D[lo:lo + block])
    whole = PositivityCounts.of(D)
    assert whole.n_nonpositive == 24
    assert stats.positivity == whole
    assert np.float64(stats.positivity.min_value).view(np.uint64) == np.float64(
        whole.min_value).view(np.uint64)
    assert positivity_report(stats.positivity) == positivity_report(D)


def test_bias_estimate_on_the_mask_only(normal_samples):
    # the masked bias is computed on the selected grid points alone, in
    # chunks that start elsewhere, and is bitwise the unmasked one there
    grid = np.linspace(-5, 5, 321)
    est = kde(normal_samples, grid)
    for mask in (np.abs(grid) <= 2.5, grid > 1.0, np.zeros(321, dtype=bool),
                 np.arange(321) % 7 == 3):
        assert np.array_equal(est.bias_estimate(mask), est.bias_estimate()[mask])


def test_kernel_blocks_bound_memory_and_keep_values(normal_samples):
    """kde and bias_estimate evaluate the kernel a bounded block of grid
    points at a time, with per-point means bitwise those of one
    whole-matrix evaluation."""
    x = normal_samples[:20000]
    grid = np.linspace(-4, 4, 321)

    def kde_and_bias():
        est = kde(x, grid)
        return est, est.bias_estimate()

    (est, bias), peak, _ = traced(kde_and_bias)
    assert peak < 16 * 2**20
    h = est.bandwidth
    u = (grid[::8, None] - x[None, :]) / h
    dens = np.exp(-0.5 * u * u).mean(axis=1) * (1.0 / np.sqrt(2.0 * np.pi) / h)
    assert np.array_equal(est.density[::8], dens)
    u = (grid[::8, None] - est.samples_sorted[None, :]) / h
    d2 = ((u * u - 1.0) * np.exp(-0.5 * u * u)).mean(axis=1)
    d2 *= 1.0 / np.sqrt(2.0 * np.pi) / h**3
    assert np.array_equal(bias[::8], 0.5 * h * h * np.abs(d2))


@pytest.mark.parametrize("block", [1, 3 * 5000, 1 << 16, 1 << 30])
def test_kernel_means_bitwise_equal_whole_matrix(block, monkeypatch):
    # blocks of one row, of three rows with a shorter last block, the
    # default block and one block for the whole grid
    monkeypatch.setattr(verify, "_KERNEL_BLOCK", block)
    x = np.random.default_rng(6).standard_normal(5000)
    z = np.linspace(-4.0, 4.0, 41)
    h = 0.21
    u = (z[:, None] - x[None, :]) / h
    refs = {
        verify._gauss: np.exp(-0.5 * u * u).mean(axis=1),
        verify._gauss_second: ((u * u - 1.0) * np.exp(-0.5 * u * u)).mean(axis=1),
    }
    for kernel, ref in refs.items():
        got = verify._kernel_means(z, x, h, kernel)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
