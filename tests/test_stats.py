import numpy as np
import pytest

from dcxsim.geometry import Box, PointPattern, count_in, make_stream, make_window
from dcxsim.processes import make_thomas_sampler, sample_poisson
from dcxsim import stats

W = make_window([0.0, 0.0], [1.0, 1.0])


def _poisson_reps(lam, n_reps, seed=21):
    gen = make_stream(seed).generator()
    return [sample_poisson(lam, W, gen) for _ in range(n_reps)]


def test_ripley_poisson_baseline():
    r_grid = np.array([0.05, 0.1])
    k_hat, se = stats.ripley_k(_poisson_reps(50.0, 2000), r_grid, 50.0)
    ref = np.pi * r_grid**2
    assert np.all(np.abs(k_hat - ref) <= 4 * se)


def test_ripley_thomas_excess():
    gen = make_stream(22).generator()
    sampler = make_thomas_sampler(10.0, 5.0, 0.05, W)
    reps = [sampler(gen) for _ in range(1000)]
    k_hat, se = stats.ripley_k(reps, np.array([0.05]), 50.0)
    assert k_hat[0] - np.pi * 0.05**2 > 3 * se[0]


def test_ripley_requires_torus():
    wp = make_window([0, 0], [1, 1], "plain")
    p = PointPattern(wp, np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        stats.ripley_k([p], np.array([0.1]), 1.0)


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
    lam = 5.0
    w = make_window([0, 0], [2, 2])
    box_a = Box([0, 0], [1, 1])
    f = lambda pts: box_a.contains(pts).astype(float)
    g = lambda p: float(count_in(p, box_a))
    est, se = stats.mixed_palm_estimate(
        lambda gen: sample_poisson(lam, w, gen), f, g, 30_000, make_stream(31)
    )
    assert abs(est - 6.0) <= 3 * se
    assert se < 0.1


def test_mixed_palm_rejects_zero_weights():
    sampler = lambda gen: PointPattern(W, np.empty((0, 2)))
    with pytest.raises(ValueError):
        stats.mixed_palm_estimate(sampler, lambda pts: pts[:, 0], lambda p: 0.0, 10, make_stream(0))

