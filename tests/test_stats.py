import math

import numpy as np
import pytest

from dcxsim.geometry import (
    Box, PatternBatch, PointPattern, count_in, make_stream, make_window, pairwise_distances,
)
from dcxsim.ordering import batched, replicate
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


def _sorted_pair_k(draw, r_grid, lam, n_reps, stream):
    """Ripley K by the per-replication reference: each replication's
    unordered pair distances sorted and searched, one replication at a time."""

    def rows(batch):
        w = batch.window
        out = np.zeros((batch.size, r_grid.size))
        for i, (n, end) in enumerate(zip(batch.counts, np.cumsum(batch.counts))):
            pts = batch.points[end - n : end]
            d = np.sort(pairwise_distances(w, pts, pts)[np.triu_indices(n, k=1)])
            out[i] = 2.0 * np.searchsorted(d, r_grid, side="right") / (lam**2 * w.volume)
        return out

    (mom,) = replicate((draw,), rows, n_reps, stream)
    return mom.mean, mom.stderr


def _fixed_count_batch(n, w):
    return lambda gen, size: PatternBatch(
        w, w.lows + gen.random((size * n, w.dim)) * w.lengths, np.full(size, n)
    )


# a replicated point is a pair at distance 0, counted at r = 0
_DUPLICATES = PatternBatch(
    W,
    np.array([[0.3, 0.3], [0.3, 0.3], [0.99, 0.5], [0.3, 0.3], [0.01, 0.5], [0.7, 0.1]]),
    np.array([2, 1, 3, 0]),
)
_R20 = np.linspace(0.01, 0.2, 20)  # the grid of scripts/ripley_curves.py


@pytest.mark.parametrize(
    "draw, r_grid, lam, n_reps",
    [
        # counts of 0 and 1 next to a few pairs
        (make_poisson_batch(1.5, W), np.array([0.0, 0.3, 0.6]), 1.5, 500),
        # many distinct counts in each of two chunks; r = 0, unsorted, negative,
        # above half the side and above the longest torus distance
        (make_poisson_batch(50.0, W), np.array([0.15, 0.0, 0.5, 0.03, -0.1, 0.6, 0.8]), 50.0, 2500),
        (make_poisson_batch(50.0, W), _R20, 50.0, 1000),
        # one count whose group spans many blocks
        (_fixed_count_batch(40, W), np.array([0.05, 0.1, 0.15, 0.2]), 40.0, 2000),
        (make_thomas_batch(10.0, 5.0, 0.05, W), _R20, 50.0, 1000),
        (make_poisson_batch(20.0, make_window([0.0], [3.0])), np.array([0.1, 0.5, 1.5, 2.0]), 20.0, 500),
        (make_poisson_batch(15.0, make_window([0, 0, 0], [1.0, 1.5, 1.0])), np.array([0.1, 0.4, 0.5]), 15.0, 500),
        (lambda gen, size: _DUPLICATES, np.array([0.0, 0.02, 0.5]), 2.0, 4),
    ],
    ids=["sparse", "poisson", "poisson-r20", "fixed-count", "thomas-r20", "1d", "3d", "duplicates"],
)
def test_ripley_equals_sorted_pair_reference(draw, r_grid, lam, n_reps):
    k_hat, se = stats.ripley_k(draw, r_grid, lam, n_reps, make_stream(41))
    k_ref, se_ref = _sorted_pair_k(draw, r_grid, lam, n_reps, make_stream(41))
    assert np.array_equal(k_hat, k_ref)
    assert np.array_equal(se, se_ref)


def test_sq_threshold_is_the_largest_square_within_r():
    # sqrt(t) <= r < sqrt(next double after t): sq <= t exactly when sqrt(sq) <= r
    gen = make_stream(7).generator()
    tiny = np.finfo(float).smallest_subnormal
    rs = np.concatenate([
        gen.random(3000) * 0.8,
        gen.random(500) * 1e6,
        np.arange(0, 64) / 8.0,  # exact squares
        np.sqrt(np.arange(1.0, 500.0)),  # squares within an ulp of an integer
        [0.0, -0.0, tiny, 1e-310, np.finfo(float).tiny, 1e-300, 1e300,
         np.sqrt(np.finfo(float).max), np.finfo(float).max],
    ])
    for r in rs.tolist():
        t = stats._sq_threshold(r)
        assert math.sqrt(t) <= r < math.sqrt(math.nextafter(t, math.inf))
    assert stats._sq_threshold(0.0) == 0.0 and stats._sq_threshold(1e-310) == 0.0
    assert stats._sq_threshold(1e300) == np.finfo(float).max
    assert stats._sq_threshold(math.inf) == math.inf
    # below every squared distance
    for r in (-0.1, -tiny, -math.inf, math.nan):
        assert stats._sq_threshold(r) < 0


def test_ripley_counts_no_pair_below_zero_or_at_nan():
    r_grid = np.array([-0.1, np.nan, -np.inf, -0.0, 0.0, 0.5])
    k_hat, se = stats.ripley_k(lambda gen, size: _DUPLICATES, r_grid, 2.0, 4, make_stream(0))
    assert np.all(k_hat[:3] == 0) and np.all(se[:3] == 0)
    # -0.0 >= 0: the duplicated point counts, as at r = 0
    assert k_hat[3] == k_hat[4] > 0


def _ulp_steps(gen, n):
    """n points on a line through the torus, the gaps a few ulps apart, so
    that squared distances land next to one another."""
    x = 0.2 + np.cumsum(np.full(n, 0.07))
    x = x + gen.integers(-3, 4, n) * np.spacing(x)
    return np.column_stack([x, np.full(n, 0.4)])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ripley_counts_pairs_at_r_and_not_one_ulp_past(n):
    # r on every pair distance (the pair counts) and one ulp below it (the
    # pair is one ulp past r and does not count), on replications of n points
    gen = make_stream(50 + n).generator()
    pts = np.vstack([_ulp_steps(gen, n) for _ in range(4)] + [gen.random((4 * n, 2))])
    batch = PatternBatch(W, pts, np.full(8, n))
    d = np.unique(np.concatenate([
        pairwise_distances(W, p, p)[np.triu_indices(n, k=1)] for p in np.split(pts, 8)
    ]))
    r_grid = np.concatenate([d, np.nextafter(d, -np.inf), np.nextafter(d, np.inf)])
    draw = lambda gen, size: batch
    k_hat, se = stats.ripley_k(draw, r_grid, 3.0, 8, make_stream(0))
    k_ref, se_ref = _sorted_pair_k(draw, r_grid, 3.0, 8, make_stream(0))
    assert np.array_equal(k_hat, k_ref)
    assert np.array_equal(se, se_ref)
    at, below = np.split(k_hat[: 2 * d.size], 2)
    assert np.all(at > below)


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


def test_integrate_weight_weighs_a_marked_pattern_by_its_marks():
    # as additive_sn does: 1-d marks are masses, other marks are not
    f = lambda pts: pts[:, 0]
    pts = np.array([[0.25, 0.5], [0.75, 0.5]])
    assert stats.integrate_weight(PointPattern(W, pts, np.array([3.0, 1.0])), f) == 1.5
    assert stats.integrate_weight(PointPattern(W, pts, np.ones((2, 3)) * 7), f) == 1.0
    assert stats.integrate_weight(PointPattern(W, np.empty((0, 2)), np.empty(0)), f) == 0.0


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
