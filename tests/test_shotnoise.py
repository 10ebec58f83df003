import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcxsim.distributions import TRUNCATION_REL_TOL, exponential
from dcxsim.geometry import (
    AtomicMeasure,
    GridField,
    PatternBatch,
    PointPattern,
    make_stream,
    make_window,
    pairwise_distances,
)
from dcxsim.ordering import (
    CONSISTENT,
    VIOLATION,
    batched,
    compare_vectors,
    make_suite,
)
from dcxsim.processes import (
    make_poisson_batch,
    make_thomas_batch,
    make_thomas_sampler,
    sample_cox,
    sample_ising_field,
    sample_poisson,
)
from dcxsim import shotnoise
from dcxsim.shotnoise import ResponseKernel, additive_sn, extremal_sn, ragged_sn
from dcxsim.stats import coverage_field
from conftest import law_verdict

W = make_window([0.0, 0.0], [1.0, 1.0])
QUERIES = np.array([[0.5, 0.5], [0.1, 0.9]])


def test_kernel_shapes_and_truncation():
    pl = ResponseKernel("power_law", (4.0,))
    assert float(pl.value(0.0)) == 1.0
    assert float(pl.value(1.0)) == pytest.approx(1 / 16)
    r = pl.truncation_radius()
    assert float(pl._profile(r)) == pytest.approx(1e-6, rel=1e-6)
    for kind in ("indicator_ball", "user_grid"):
        with pytest.raises(ValueError):
            ResponseKernel(kind, (0.2,))


def test_additive_sn_point_pattern():
    p = PointPattern(W, np.array([[0.5, 0.5], [0.5, 0.6]]))
    h = ResponseKernel("gaussian", (0.2,))
    v = additive_sn(p, h, np.array([[0.5, 0.5]]))
    expected = 1.0 + np.exp(-0.01 / (2 * 0.04))
    assert v[0] == pytest.approx(expected)


def test_additive_sn_marked_pattern_uses_marks_as_masses():
    p = PointPattern(W, np.array([[0.5, 0.5]]), marks=np.array([4.0]))
    h = ResponseKernel("gaussian", (0.1,))
    assert additive_sn(p, h, np.array([[0.5, 0.6]]))[0] == pytest.approx(4.0 * np.exp(-0.5))


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


def _gaussian_campbell_mean(h: ResponseKernel, lam: float) -> float:
    # planar Campbell mean of the Gaussian kernel, cut where it falls to
    # TRUNCATION_REL_TOL of its peak: lam * 2 pi sigma^2 * (1 - tol)
    (sigma,) = h.params
    return lam * 2 * np.pi * sigma**2 * (1 - TRUNCATION_REL_TOL)


def test_campbell_mean_matches_monte_carlo():
    # sigma 0.05 keeps the truncated kernel inside the unit torus
    h = ResponseKernel("gaussian", (0.05,))
    lam = 10.0
    target = _gaussian_campbell_mean(h, lam)
    gen = make_stream(17).generator()
    vals = np.array(
        [additive_sn(sample_poisson(lam, W, gen), h, np.array([[0.5, 0.5]]))[0] for _ in range(20_000)]
    )
    assert vals.mean() == pytest.approx(target, abs=4 * vals.std() / np.sqrt(vals.size))


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
    suite = make_suite("dcx", 3, 30, stream.split(10**6), scale=np.full(3, _gaussian_campbell_mean(h, 1.0)))
    fwd = compare_vectors(draw_po, draw_cox, suite, 4000, stream.split(0))
    assert fwd.verdict != VIOLATION
    assert any(r["z"] > 3 for r in fwd.records)
    rev = compare_vectors(draw_cox, draw_po, suite, 4000, stream.split(1))
    assert rev.verdict == VIOLATION


def _batch_of(patterns) -> PatternBatch:
    return PatternBatch(
        patterns[0].window,
        np.vstack([p.points for p in patterns]),
        np.array([p.n for p in patterns]),
    )


def test_ragged_sn_equals_per_realization_reducers():
    # the same realizations, one batch: sum, count and max agree with
    # additive_sn, coverage_field and extremal_sn, and empty replications give 0
    gen = make_stream(21).generator()
    empty = PointPattern(W, np.empty((0, 2)))
    pats = [empty] + [sample_poisson(3.0, W, gen) for _ in range(30)] + [empty, empty]
    batch = _batch_of(pats)
    h = ResponseKernel("power_law", (4.0,))
    radii = gen.exponential(0.2, size=batch.points.shape[0])
    total = ragged_sn(batch, QUERIES, h.value)
    top = ragged_sn(batch, QUERIES, h.value, "max")
    count = ragged_sn(batch, QUERIES, lambda d, r: d <= r, marks=radii)
    ends = np.cumsum(batch.counts)
    for r, p in enumerate(pats):
        grains = PointPattern(W, p.points, radii[ends[r] - p.n : ends[r]])
        assert np.allclose(total[r], additive_sn(p, h, QUERIES), rtol=1e-12, atol=0)
        assert np.array_equal(top[r], extremal_sn(p, h, QUERIES))
        assert np.array_equal(count[r], coverage_field(grains, QUERIES))
    for out in (total, top, count):
        assert np.all(out[[0, -2, -1]] == 0.0)
    none = PatternBatch(W, np.empty((0, 2)), np.zeros(4, dtype=int))
    for how in ("sum", "max"):
        assert np.array_equal(ragged_sn(none, QUERIES, h.value, how), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        ragged_sn(batch, QUERIES, h.value, "mean")
    with pytest.raises(ValueError, match="marks"):
        ragged_sn(batch, QUERIES, lambda d, r: d <= r, "max", marks=radii)


def _single_pass_sn(batch, queries, response, how="sum", weights=None):
    """ragged_sn as one reduceat over the whole batch per query, multiplied by
    weights[:, j] when point-query weights are given: the blocked reducer's
    reference."""
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    out = np.zeros((batch.size, queries.shape[0]))
    if batch.points.shape[0] == 0:
        return out
    ufunc = {"sum": np.add, "max": np.maximum}[how]
    filled = batch.counts > 0
    starts = (np.cumsum(batch.counts) - batch.counts)[filled]
    for j, y in enumerate(queries):
        vals = response(pairwise_distances(batch.window, batch.points, y)[:, 0])
        if weights is not None:
            vals = vals * weights[:, j]
        out[filled, j] = ufunc.reduceat(vals, starts, dtype=float)
    return out


@pytest.mark.parametrize("block", [1, 7, 1 << 14])
def test_blocked_ragged_sn_equals_single_pass(monkeypatch, block):
    # empty replications on the block edges (multiples of 7) and at both ends,
    # a replication of 15 points, longer than a block of 7, and a Poisson batch
    # of 20 000 points, more than one block of 2^14
    monkeypatch.setattr(shotnoise, "_BLOCK", block)
    gen = make_stream(23).generator()
    counts = np.array([0, 3, 4, 0, 0, 7, 15, 0, 1, 2, 0, 0])
    edges = PatternBatch(W, gen.random((counts.sum(), 2)), counts)
    big = make_poisson_batch(50.0, W)(gen, 400)
    h = ResponseKernel("power_law", (4.0,))
    # squared distances, with the root taken by the response
    root = lambda d2: h.value(np.sqrt(d2))
    for batch in (edges, big):
        n = batch.points.shape[0]
        fades = gen.exponential(1.0, size=(n, QUERIES.shape[0]))
        radii = gen.exponential(0.2, size=n)
        for how in ("sum", "max"):
            single = _single_pass_sn(batch, QUERIES, h.value, how)
            assert np.array_equal(ragged_sn(batch, QUERIES, h.value, how), single)
            assert np.array_equal(ragged_sn(batch, QUERIES, root, how, squared=True), single)
        assert np.array_equal(
            ragged_sn(batch, QUERIES, lambda d, f: h.value(d) * f, marks=fades),
            _single_pass_sn(batch, QUERIES, h.value, weights=fades),
        )
        assert np.array_equal(
            ragged_sn(batch, QUERIES, lambda d, r: d <= r, marks=radii),
            _single_pass_sn(batch, QUERIES, lambda d: d <= radii),
        )
    none = PatternBatch(W, np.empty((0, 2)), np.zeros(5, dtype=int))
    for how in ("sum", "max"):
        assert np.array_equal(ragged_sn(none, QUERIES, h.value, how), np.zeros((5, 2)))


@pytest.mark.parametrize("block", [1, 7, 1 << 14])
def test_ragged_sn_max_is_the_response_of_the_nearest_point(monkeypatch, block):
    # the unmarked maximum is read at each replication's least squared
    # distance; the oracle takes the maximum of every point's response.  The
    # short-range Gaussian (truncated near 0.105) leaves filled replications
    # whose nearest point lies beyond truncation at 0, and empty replications
    # sit between filled ones
    monkeypatch.setattr(shotnoise, "_BLOCK", block)
    gen = make_stream(31).generator()
    counts = np.tile([2, 0, 1, 0, 0, 3, 0, 9, 1, 0, 4, 0, 0, 1, 2, 0, 30, 0], 20)
    short = ResponseKernel("gaussian", (0.02,))
    for w in (W, make_window([0.0, 0.0], [1.0, 1.0], "plain")):
        batch = PatternBatch(w, gen.random((counts.sum(), 2)), counts)
        for h in (ResponseKernel("power_law", (4.0,)), short):
            got = ragged_sn(batch, QUERIES, h.value, "max")
            assert np.array_equal(got, _single_pass_sn(batch, QUERIES, h.value, "max"))
            assert np.all(got[counts == 0] == 0.0)
        assert np.any(ragged_sn(batch, QUERIES, short.value, "max")[counts > 0] == 0.0)


@pytest.mark.parametrize("n", [5, 40, 300])
def test_ragged_sn_of_a_replication_does_not_depend_on_its_offset(n):
    # one replication of n points, alone and after 1-8 points of other
    # replications (split into one or several, some empty): its sums and
    # maxima keep their bits, above and below the unrolled and pairwise
    # summation lengths (8 and 128 points)
    gen = make_stream(29).generator()
    pts = gen.random((n, 2))
    fades = gen.exponential(1.0, size=(n, QUERIES.shape[0]))
    h = ResponseKernel("power_law", (4.0,))
    faded = lambda d, f: h.value(d) * f
    faded_alone = ragged_sn(PatternBatch(W, pts, np.array([n])), QUERIES, faded, marks=fades)
    for how in ("sum", "max"):
        alone = ragged_sn(PatternBatch(W, pts, np.array([n])), QUERIES, h.value, how)
        for before in ([1], [2], [3], [0, 4], [5], [6, 0], [1, 6], [8], [2, 2, 0, 2, 2]):
            lead = gen.random((sum(before), 2))
            counts = np.array(before + [n, 1])
            batch = PatternBatch(W, np.vstack([lead, pts, gen.random((1, 2))]), counts)
            row = len(before)
            assert np.array_equal(ragged_sn(batch, QUERIES, h.value, how)[row], alone[0])
            marks = np.vstack([gen.exponential(1.0, size=(sum(before), 2)), fades, [[1.0, 1.0]]])
            if how == "sum":  # a maximum takes no marks
                got = ragged_sn(batch, QUERIES, faded, marks=marks)
                assert np.array_equal(got[row], faded_alone[0])


WP = make_window([0.0, 0.0], [1.0, 1.0], "plain")
PL = ResponseKernel("power_law", (4.0,))
FADING = exponential(1.0)
RADIUS = exponential(0.1)


def _interference_batch(gen, size):
    # fading-weighted Poisson interference at the queries, fading i.i.d. per
    # interferer-query pair, as the SINR estimators draw it
    b = make_poisson_batch(5.0, W)(gen, size)
    fades = FADING.sample(gen, size=(b.points.shape[0], QUERIES.shape[0]))
    return ragged_sn(b, QUERIES, lambda d, f: PL.value(d) * f, marks=fades)


def _interference_single(gen):
    p = sample_poisson(5.0, W, gen)
    fades = FADING.sample(gen, size=(p.n, QUERIES.shape[0]))
    return (fades * PL.value(pairwise_distances(W, p.points, QUERIES))).sum(axis=0)


def _coverage_batch(gen, size):
    b = make_thomas_batch(4.0, 5.0, 0.05, W)(gen, size)
    radii = RADIUS.sample(gen, size=b.points.shape[0])
    return ragged_sn(b, QUERIES, lambda d, r: d <= r, marks=radii)


def _coverage_single(gen):
    p = make_thomas_sampler(4.0, 5.0, 0.05, W)(gen)
    return coverage_field(PointPattern(W, p.points, RADIUS.sample(gen, size=p.n)), QUERIES)


REDUCTION_CASES = {
    "sum-interference": (_interference_batch, _interference_single),
    "count-coverage": (_coverage_batch, _coverage_single),
    "max-extremal": (
        lambda gen, size: ragged_sn(
            make_thomas_batch(4.0, 5.0, 0.05, WP)(gen, size), QUERIES, PL.value, "max"
        ),
        lambda gen: extremal_sn(make_thomas_sampler(4.0, 5.0, 0.05, WP)(gen), PL, QUERIES),
    ),
}


@pytest.mark.parametrize("case", sorted(REDUCTION_CASES))
def test_ragged_reductions_match_per_realization_in_law(case):
    # per query the mean and the second moment, and the cross moment of the
    # two queries, of the batch draw against the per-realization draw,
    # judged as one two-sided family
    batch, single = REDUCTION_CASES[case]
    assert law_verdict(4000, ((batch, batched(single)), batch, make_stream(33))) == CONSISTENT
