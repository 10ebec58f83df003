import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcxsim.geometry import (
    AtomicMeasure,
    GridField,
    PointPattern,
    make_stream,
    make_window,
)
from dcxsim.ordering import VIOLATION, batched, compare_vectors, make_suite
from dcxsim.processes import sample_cox, sample_ising_field, sample_poisson
from dcxsim.shotnoise import ResponseKernel, additive_sn, campbell_mean, extremal_sn

W = make_window([0.0, 0.0], [1.0, 1.0])
QUERIES = np.array([[0.5, 0.5], [0.1, 0.9]])


def test_kernel_shapes_and_truncation():
    ball = ResponseKernel("indicator_ball", (0.2,), emitted_power=3.0)
    assert float(ball.value(0.1)) == 3.0
    assert float(ball.value(0.25)) == 0.0
    pl = ResponseKernel("power_law", (4.0,))
    assert float(pl.value(0.0)) == 1.0
    assert float(pl.value(1.0)) == pytest.approx(1 / 16)
    r = pl.truncation_radius()
    assert float(pl._profile(r)) == pytest.approx(1e-6, rel=1e-6)


def test_user_grid_kernel_interpolates():
    k = ResponseKernel("user_grid", (0.0, 1.0, 1.0, 0.5, 2.0, 0.0))
    assert float(k.value(0.5)) == pytest.approx(0.75)
    assert float(k.value(3.0)) == 0.0


def test_additive_sn_point_pattern():
    p = PointPattern(W, np.array([[0.5, 0.5], [0.5, 0.6]]))
    h = ResponseKernel("gaussian", (0.2,))
    v = additive_sn(p, h, np.array([[0.5, 0.5]]))
    expected = 1.0 + np.exp(-0.01 / (2 * 0.04))
    assert v[0] == pytest.approx(expected)


def test_additive_sn_marked_pattern_uses_marks_as_masses():
    p = PointPattern(W, np.array([[0.5, 0.5]]), marks=np.array([4.0]))
    h = ResponseKernel("indicator_ball", (0.3,))
    assert additive_sn(p, h, np.array([[0.5, 0.6]]))[0] == 4.0


def test_grid_field_equals_midpoint_atoms():
    gen = make_stream(3).generator()
    vals = gen.random((8, 8)) * 5
    f = GridField(W, [8, 8], vals)
    atoms = AtomicMeasure(W, f.midpoints(), vals.ravel() * f.cell_volume)
    h = ResponseKernel("power_law", (4.0,))
    assert np.allclose(additive_sn(f, h, QUERIES), additive_sn(atoms, h, QUERIES))


@given(st.integers(0, 10**6), st.floats(0.1, 5.0))
@settings(max_examples=30, deadline=None)
def test_additive_sn_linear_in_masses(seed, scale):
    gen = make_stream(seed).generator()
    locs = gen.random((6, 2))
    masses = gen.random(6) + 0.1
    h = ResponseKernel("gaussian", (0.3,))
    a = AtomicMeasure(W, locs, masses)
    b = AtomicMeasure(W, locs, scale * masses)
    va = additive_sn(a, h, QUERIES)
    vb = additive_sn(b, h, QUERIES)
    assert np.allclose(vb, scale * va, rtol=1e-12)


def test_extremal_sn_max_and_empty():
    h = ResponseKernel("power_law", (4.0,))
    empty = PointPattern(W, np.empty((0, 2)))
    assert np.all(extremal_sn(empty, h, QUERIES) == 0.0)
    p = PointPattern(W, np.array([[0.5, 0.5], [0.5, 0.7]]))
    u = extremal_sn(p, h, np.array([[0.5, 0.5]]))
    assert u[0] == 1.0


def test_extremal_never_exceeds_additive():
    gen = make_stream(9).generator()
    h = ResponseKernel("gaussian", (0.2,))
    for _ in range(20):
        p = PointPattern(W, gen.random((10, 2)))
        assert np.all(extremal_sn(p, h, QUERIES) <= additive_sn(p, h, QUERIES) + 1e-12)


def test_campbell_mean_indicator_ball():
    h = ResponseKernel("indicator_ball", (0.2,), emitted_power=2.0)
    val = campbell_mean(h, 5.0, W)
    assert val == pytest.approx(5.0 * 2.0 * np.pi * 0.04, rel=1e-9)


def test_campbell_mean_matches_monte_carlo():
    h = ResponseKernel("power_law", (4.0,))
    lam = 10.0
    target = campbell_mean(h, lam, W)
    gen = make_stream(17).generator()
    vals = np.array(
        [additive_sn(sample_poisson(lam, W, gen), h, np.array([[0.5, 0.5]]))[0] for _ in range(20_000)]
    )
    assert vals.mean() == pytest.approx(target, abs=4 * vals.std() / np.sqrt(vals.size))


def test_campbell_mean_requires_torus():
    h = ResponseKernel("gaussian", (0.1,))
    with pytest.raises(ValueError):
        campbell_mean(h, 1.0, make_window([0, 0], [1, 1], "plain"))


def test_dcx_ordered_measures_give_ordered_additive_shot_noise():
    # Poisson(1) is dcx-smaller than the spin-lattice Cox process with
    # intensities (2, 0, 1/2); additive shot noise at any query points keeps
    # that order, so the reversed claim must be falsified
    w = make_window([0.0, 0.0], [4.0, 4.0])
    h = ResponseKernel("gaussian", (0.5,))
    queries = np.array([[1.0, 1.0], [1.4, 1.3], [3.0, 2.5]])
    draw_po = batched(lambda gen: additive_sn(sample_poisson(1.0, w, gen), h, queries))
    draw_cox = batched(lambda gen: additive_sn(
        sample_cox(sample_ising_field(2.0, 0.0, 0.5, w, [32, 32], gen), gen), h, queries
    ))
    stream = make_stream(12)
    suite = make_suite("dcx", 3, 30, stream.split(10**6), scale=np.full(3, campbell_mean(h, 1.0, w)))
    fwd = compare_vectors(draw_po, draw_cox, suite, 4000, stream.split(0))
    assert fwd.verdict != VIOLATION
    assert any(r.z > 3 for r in fwd.records)
    rev = compare_vectors(draw_cox, draw_po, suite, 4000, stream.split(1))
    assert rev.verdict == VIOLATION
