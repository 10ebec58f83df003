import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcxsim.distributions import constant, exponential
from dcxsim.geometry import PointPattern, make_stream, make_window
from dcxsim import ops
from dcxsim.processes import sample_poisson

W = make_window([0.0, 0.0], [1.0, 1.0])


def _pattern(seed, n):
    gen = make_stream(seed).generator()
    return PointPattern(W, gen.random((n, 2)))


def test_displace_wraps_on_torus():
    p = _pattern(1, 20)
    q = ops.displace(p, lambda x: x + np.array([0.7, 0.9]))
    assert q.n == p.n
    assert W.contains(q.points).all()


def test_displace_drops_on_plain():
    wp = make_window([0, 0], [1, 1], "plain")
    p = PointPattern(wp, np.array([[0.1, 0.1], [0.9, 0.9]]))
    q = ops.displace(p, lambda x: x + 0.2)
    assert q.n == 1


def test_mark_iid():
    p = _pattern(2, 50)
    m = ops.mark_iid(p, exponential(2.0), make_stream(3).generator())
    assert m.marks.shape == (50,)


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.integers(0, 40))
@settings(max_examples=40, deadline=None)
def test_thin_split_reconstructs(seed, q, n):
    p = _pattern(seed % 1000, n)
    kept, dropped = ops.thin_split(p, q, make_stream(seed).generator())
    back = ops.superpose(kept, dropped)
    assert back.n == p.n
    assert np.array_equal(np.sort(back.points.ravel()), np.sort(p.points.ravel()))


def test_thin_iid_matches_split_kept_part():
    p = _pattern(7, 100)
    a = ops.thin_iid(p, 0.4, make_stream(99).generator())
    kept, _ = ops.thin_split(p, 0.4, make_stream(99).generator())
    assert np.array_equal(a.points, kept.points)


def test_thinning_rejects_retention_outside_unit_interval():
    p = _pattern(7, 100)
    for retention in (1.5, -0.5):
        with pytest.raises(ValueError):
            ops.thin_split(p, retention, make_stream(0).generator())


def test_superpose_window_and_marks_rules():
    p1 = _pattern(1, 5)
    p2 = _pattern(2, 3)
    assert ops.superpose(p1, p2).n == 8
    with pytest.raises(ValueError):
        ops.superpose(p1, ops.mark_iid(p2, constant(1.0), make_stream(0).generator()))
    other = PointPattern(make_window([0, 0], [2, 2]), np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        ops.superpose(p1, other)


def test_thinned_poisson_is_poisson():
    gen = make_stream(11).generator()
    counts = []
    for _ in range(20_000):
        p = sample_poisson(20.0, W, gen)
        counts.append(ops.thin_iid(p, 0.5, gen).n)
    counts = np.asarray(counts)
    assert counts.mean() == pytest.approx(10.0, rel=0.03)
    assert counts.var(ddof=1) == pytest.approx(10.0, rel=0.06)
