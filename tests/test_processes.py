import numpy as np
import pytest

from dcxsim.distributions import ClusterKernel, CovarianceSpec, MassDistribution, constant, exponential
from dcxsim.geometry import Box, GridField, count_in, make_stream, make_window
from dcxsim import processes


W = make_window([0.0, 0.0], [1.0, 1.0])


def _count_stats(sampler, n_reps, seed=3):
    gen = make_stream(seed).generator()
    counts = np.array([sampler(gen).n for _ in range(n_reps)])
    return counts.mean(), counts.var(ddof=1)


def test_poisson_count_moments():
    mean, var = _count_stats(lambda g: processes.sample_poisson(20.0, W, g), 20_000)
    se = np.sqrt(20.0 / 20_000)
    assert abs(mean - 20.0) < 4 * se
    assert var == pytest.approx(20.0, rel=0.05)


def test_cox_exact_given_field():
    field = GridField(W, [2, 2], np.array([[40.0, 0.0], [0.0, 0.0]]))
    gen = make_stream(1).generator()
    counts = []
    for _ in range(5000):
        p = processes.sample_cox(field, gen)
        # all points land in the single active cell
        assert np.all(p.points < 0.5)
        counts.append(p.n)
    counts = np.asarray(counts)
    assert counts.mean() == pytest.approx(10.0, rel=0.05)
    assert counts.var(ddof=1) == pytest.approx(10.0, rel=0.1)


def test_mixed_poisson_overdispersed():
    mix = MassDistribution("user_table", (5.0, 0.5, 35.0, 0.5))
    mean, var = _count_stats(lambda g: processes.sample_mixed_poisson(mix, W, g), 20_000)
    assert mean == pytest.approx(20.0, rel=0.03)
    # var = E lam + Var lam = 20 + 225
    assert var == pytest.approx(245.0, rel=0.1)


def test_ising_field_values_and_mean():
    w = make_window([0, 0], [4, 4])
    gen = make_stream(9).generator()
    vals = []
    for _ in range(500):
        f = processes.sample_ising_field(2.0, 0.0, 0.5, w, [16, 16], gen)
        assert set(np.unique(f.values)) <= {0.0, 2.0}
        vals.append(f.values.mean())
    # 16 independent spins per replication: stderr about 0.011 at 500 reps
    assert np.mean(vals) == pytest.approx(1.0, abs=0.05)


def test_ising_field_validation():
    with pytest.raises(ValueError):
        processes.sample_ising_field(1.0, 2.0, 0.5, W, [4, 4], make_stream(0))
    with pytest.raises(ValueError):
        processes.sample_ising_field(2.0, 0.0, 1.5, W, [4, 4], make_stream(0))
    with pytest.raises(ValueError):  # torus side not a whole multiple of the spacing
        processes.sample_ising_field(2.0, 0.0, 0.5, W, [4, 4], make_stream(0), spacing=0.3)


def test_ising_field_periodic_on_torus():
    # points 0.12 apart across the wrap share a lattice cell w.p. 0.88, so
    # their values agree w.p. 0.88 + 0.12 / 2 = 0.94 (0.5 without wrapping)
    w = make_window([0, 0], [4, 4])
    gen = make_stream(13).generator()
    pts = np.array([[0.06, 2.0], [3.94, 2.0]])
    agree = [
        np.ptp(processes.sample_ising_field(2.0, 0.0, 0.5, w, [32, 32], gen).value_at(pts)) == 0
        for _ in range(400)
    ]
    assert np.mean(agree) >= 0.85


def test_levy_grid_lattice_layout():
    w = make_window([0, 0], [4, 4])
    m = processes.sample_levy_grid_basis(1.0, exponential(1.0), w, make_stream(2))
    assert m.n == 16
    assert np.allclose(np.sort(np.unique(m.locations[:, 0])), [0.5, 1.5, 2.5, 3.5])


def test_marked_basis_shares_support():
    const, marked = processes.sample_marked_poisson_basis(
        10.0, exponential(1.0), W, make_stream(4)
    )
    assert np.array_equal(const.locations, marked.locations)
    assert np.allclose(const.masses, 1.0)


def test_ppcluster_intensity_mean_and_variance_scaling():
    kernel = ClusterKernel("gaussian", (0.1,))
    queries = np.array([[0.5, 0.5]])
    gen = make_stream(6).generator()
    lam = 20.0
    out = {}
    for c in (1.0, 4.0):
        vals = np.array(
            [processes.ppcluster_intensity_at(c, lam, kernel, W, queries, gen)[0] for _ in range(20_000)]
        )
        out[c] = (vals.mean(), vals.var(ddof=1))
    int_h2 = 1.0 / (4 * np.pi * 0.1**2)
    for c in (1.0, 4.0):
        assert out[c][0] == pytest.approx(lam, rel=0.02)
        assert out[c][1] == pytest.approx(lam * int_h2 / c, rel=0.05)


def test_thomas_total_intensity():
    sampler = processes.make_thomas_sampler(4.0, 5.0, 0.05, W)
    mean, var = _count_stats(sampler, 20_000)
    assert mean == pytest.approx(20.0, rel=0.03)
    # clustering: over-dispersed relative to Poisson
    assert var > 25.0


def test_thomas_on_plain_window_uses_padded_parents():
    wp = make_window([0, 0], [1, 1], "plain")
    sampler = processes.make_thomas_sampler(4.0, 5.0, 0.05, wp)
    mean, _ = _count_stats(sampler, 10_000)
    assert mean == pytest.approx(20.0, rel=0.05)


def test_lgcp_mean_intensity():
    cov = CovarianceSpec("exponential", 0.5, 0.2)
    sampler = processes.make_lgcp_sampler(np.log(10.0) - 0.25, cov, W, [8, 8])
    gen = make_stream(8).generator()
    counts = np.array([sampler(gen).n for _ in range(10_000)])
    # E exp(G) = exp(mean + var/2) = 10 per unit area
    assert counts.mean() == pytest.approx(10.0, rel=0.05)


def test_lgcp_zero_variance_is_poisson():
    cov = CovarianceSpec("exponential", 0.0, 0.2)
    sampler = processes.make_lgcp_sampler(np.log(5.0), cov, W, [4, 4])
    gen = make_stream(8).generator()
    counts = np.array([sampler(gen).n for _ in range(20_000)])
    assert counts.var(ddof=1) == pytest.approx(5.0, rel=0.06)


def test_lgcp_cell_cap():
    cov = CovarianceSpec("exponential", 1.0, 0.2)
    with pytest.raises(ValueError):
        processes.make_lgcp_sampler(0.0, cov, W, [128, 128])


def test_gnscp_matches_thomas_construction():
    kernel = ClusterKernel("gaussian", (0.05,))
    parents = lambda gen: processes.sample_poisson(4.0, W, gen)
    gen = make_stream(12).generator()
    counts = np.array(
        [
            processes.sample_gnscp(parents, constant(5.0), constant(1.0), kernel, W, gen).n
            for _ in range(10_000)
        ]
    )
    assert counts.mean() == pytest.approx(20.0, rel=0.04)


def test_ginibre_radii_counts():
    gen = make_stream(13).generator()
    b = 2.0
    counts = np.array([processes.sample_ginibre_radii(b, gen).n for _ in range(20_000)])
    assert counts.mean() == pytest.approx(b, rel=0.03)
    # strictly under-dispersed relative to Poisson(b)
    assert counts.var(ddof=1) < b * 0.9


def test_ginibre_truncation_order():
    m = processes.ginibre_truncation_order(2.0)
    from scipy import special

    assert special.gammainc(m, 2.0) < 1e-12
    assert special.gammainc(m - 1, 2.0) >= 1e-12
