import numpy as np
import pytest

from dcxsim.geometry import Box, PatternBatch, PointPattern, count_in, make_stream, make_window
from dcxsim.ordering import batched
from dcxsim.processes import make_poisson_batch, make_thomas_batch, sample_poisson
from dcxsim import stats

W = make_window([0.0, 0.0], [1.0, 1.0])


def test_ripley_poisson_baseline():
    r_grid = np.array([0.05, 0.1])
    k_hat, se = stats.ripley_k(make_poisson_batch(50.0, W), r_grid, 50.0, 2000, make_stream(21))
    ref = np.pi * r_grid**2
    assert np.all(np.abs(k_hat - ref) <= 4 * se)


def test_ripley_thomas_excess():
    thomas = make_thomas_batch(10.0, 5.0, 0.05, W)
    k_hat, se = stats.ripley_k(thomas, np.array([0.05]), 50.0, 1000, make_stream(22))
    assert k_hat[0] - np.pi * 0.05**2 > 3 * se[0]


def test_ripley_matches_direct_pair_counting():
    # replications of 3, 0, 1 and 4 points, two pairs close across the torus seam
    pts = np.array([[0.1, 0.1], [0.15, 0.1], [0.9, 0.95], [0.5, 0.5],
                    [0.02, 0.5], [0.97, 0.5], [0.5, 0.03], [0.5, 0.99]])
    counts = np.array([3, 0, 1, 4])
    batch = PatternBatch(W, pts, counts)
    r_grid = np.array([0.03, 0.045, 0.1, 0.2, 0.5])
    lam = 3.0
    k_hat, se = stats.ripley_k(lambda gen, size: batch, r_grid, lam, 4, make_stream(0))
    per_rep = np.zeros((4, r_grid.size))
    start = 0
    for i, n in enumerate(counts):
        p = pts[start : start + n]
        start += n
        for a in range(n):
            for b in range(n):
                if a != b:
                    d = np.abs(p[a] - p[b])
                    dist = np.hypot(*np.minimum(d, 1.0 - d))
                    per_rep[i] += dist <= r_grid
    per_rep /= lam**2 * W.volume
    assert np.allclose(k_hat, per_rep.mean(axis=0), rtol=0, atol=1e-12)
    assert np.allclose(se, per_rep.std(axis=0, ddof=1) / 2.0, rtol=0, atol=1e-12)
    assert per_rep[2].sum() == 0 and per_rep[1].sum() == 0


def test_ripley_requires_torus():
    wp = make_window([0, 0], [1, 1], "plain")
    batch = PatternBatch(wp, np.array([[0.5, 0.5], [0.6, 0.5]]), np.array([1, 1]))
    with pytest.raises(ValueError):
        stats.ripley_k(lambda gen, size: batch, np.array([0.1]), 1.0, 2, make_stream(0))


def test_coverage_field_counts():
    p = PointPattern(W, np.array([[0.5, 0.5], [0.52, 0.5]]), marks=np.array([0.1, 0.05]))
    v = stats.coverage_field(p, np.array([[0.5, 0.5], [0.9, 0.9]]))
    assert list(v) == [2, 0]
    with pytest.raises(ValueError):
        stats.coverage_field(PointPattern(W, np.array([[0.5, 0.5]])), np.array([[0.5, 0.5]]))


def test_integrate_weight_dispatch():
    from dcxsim.geometry import AtomicMeasure, GridField

    f = lambda pts: pts[:, 0]
    p = PointPattern(W, np.array([[0.25, 0.5], [0.75, 0.5]]))
    assert stats.integrate_weight(p, f) == pytest.approx(1.0)
    m = AtomicMeasure(W, p.points, np.array([2.0, 2.0]))
    assert stats.integrate_weight(m, f) == pytest.approx(2.0)
    g = GridField(W, [2, 1], np.array([[4.0], [4.0]]))
    assert stats.integrate_weight(g, f) == pytest.approx(4.0 * 0.5)


def test_mixed_palm_poisson_identity():
    # the per-realization point path is the reference for the count-level draw
    lam = 5.0
    w = make_window([0, 0], [2, 2])
    box_a = Box([0, 0], [1, 1])
    f = lambda pts: box_a.contains(pts).astype(float)

    def draw(gen):
        p = sample_poisson(lam, w, gen)
        return [stats.integrate_weight(p, f), count_in(p, box_a)]

    est, se = stats.mixed_palm_estimate(batched(draw), 30_000, make_stream(31))
    assert abs(est - 6.0) <= 3 * se
    assert se < 0.1


def test_mixed_palm_matches_cov_delta_formula():
    gen = make_stream(5).generator()
    rows = np.column_stack([gen.exponential(2.0, 500), gen.normal(3.0, 1.0, 500)])
    est, se = stats.mixed_palm_estimate(lambda g, size: rows, 500, make_stream(0))
    weights, a = rows[:, 0], rows[:, 0] * rows[:, 1]
    bbar = weights.mean()
    ratio = a.mean() / bbar
    cov = np.cov(np.stack([a, weights]), ddof=1)
    var = (cov[0, 0] - 2 * ratio * cov[0, 1] + ratio**2 * cov[1, 1]) / (bbar**2 * 500)
    assert abs(est - ratio) <= 1e-12
    assert abs(se - np.sqrt(var)) <= 1e-12


def test_mixed_palm_rejects_zero_weights():
    zeros = lambda gen, size: np.zeros((size, 2))
    with pytest.raises(ValueError):
        stats.mixed_palm_estimate(zeros, 10, make_stream(0))
