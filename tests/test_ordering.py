from fractions import Fraction

import numpy as np
import pytest
from scipy import special
from scipy import stats as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from dcxsim.distributions import POISSON_TAIL, poisson_pmf_tail
from dcxsim.geometry import make_stream
from dcxsim import ordering
from dcxsim.ordering import (
    CONSISTENT,
    INCONCLUSIVE,
    VIOLATION,
    Moments,
    TestFunction,
    batched,
    bonferroni_z,
    compare_vectors,
    cx_compare_exact,
    decide,
    lo_compare,
    make_suite,
    oracle_ginibre_radii,
    oracle_ising_exact,
    oracle_poisson_scaling,
    verify_dcx_numeric,
)

@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_suite_members_certified_numerically(seed):
    n = 3
    stream = make_stream(seed)
    suite = make_suite("dcx", n, 8, stream, scale=np.full(n, 3.0))
    probes = stream.split(1).generator().random((15, n)) * 8.0
    for f in suite:
        ok, worst = verify_dcx_numeric(f, probes, delta=0.3)
        assert ok, (f.family, f.phi, worst)


def test_suite_validation():
    for order_class in ("supermodular", "idcx", "cx"):
        with pytest.raises(ValueError):
            make_suite(order_class, 2, 5, make_stream(0))
    with pytest.raises(ValueError):
        make_suite("dcx", 2, 0, make_stream(0))


def test_verify_rejects_misdeclared_function():
    # a concave profile declared convex must fail the certificate
    f = TestFunction(0, "lin_convex", np.array([1.0, 1.0]), phi="power", p=0.5)
    ok, worst = verify_dcx_numeric(f, np.array([[1.0, 1.0]]), delta=0.5)
    assert not ok and worst < 0


def _draw_iid_poisson(lam, n):
    def draw(gen):
        return gen.poisson(lam, size=n).astype(float)

    return batched(draw)


def _draw_mixed_poisson(levels, n):
    # common random level across coordinates: same marginals' mean, dcx-larger
    levels = np.asarray(levels, dtype=float)

    def draw(gen):
        lam = levels[gen.integers(levels.size)]
        return gen.poisson(lam, size=n).astype(float)

    return batched(draw)


def test_compare_vectors_consistent_direction():
    stream = make_stream(5)
    suite = make_suite("dcx", 3, 40, stream.split(10**6), scale=np.full(3, 5.0))
    rep = compare_vectors(
        _draw_iid_poisson(5.0, 3),
        _draw_mixed_poisson([2.5, 7.5], 3),
        suite,
        20_000,
        stream,
    )
    assert rep.verdict == CONSISTENT
    assert rep.mean_equality["passed"]
    assert any(r["z"] > 3 for r in rep.records)


def test_compare_vectors_detects_reversal():
    stream = make_stream(6)
    suite = make_suite("dcx", 3, 40, stream.split(10**6), scale=np.full(3, 5.0))
    rep = compare_vectors(
        _draw_mixed_poisson([2.5, 7.5], 3),
        _draw_iid_poisson(5.0, 3),
        suite,
        20_000,
        stream,
    )
    assert rep.verdict == VIOLATION


def test_compare_vectors_mean_gate_inconclusive():
    stream = make_stream(7)
    suite = make_suite("dcx", 2, 20, stream.split(10**6), scale=np.full(2, 5.0))
    rep = compare_vectors(
        _draw_iid_poisson(5.0, 2), _draw_iid_poisson(6.0, 2), suite, 20_000, stream
    )
    assert rep.verdict == INCONCLUSIVE
    assert not rep.mean_equality["passed"]


@given(
    st.integers(2, 80),
    st.integers(1, 3),
    st.lists(st.integers(1, 79), max_size=8),
    st.sampled_from([0.0, 1e8]),
    st.integers(0, 10**6),
)
@settings(max_examples=80, deadline=None)
def test_moments_merged_chunks_match_one_pass(n, k, cuts, offset, seed):
    rows = offset + make_stream(seed).generator().standard_normal((n, k))
    # Moments.of centres its rows in place: each piece is a copy, not a view of rows
    pieces = [p.copy() for p in np.split(rows, sorted({c for c in cuts if c < n}))]
    merged = Moments.of(pieces[0])
    for piece in pieces[1:]:
        merged = merged.merge(Moments.of(piece))
    assert merged.n == n
    # a mean near 0 against O(1) rows has no relative accuracy to test: hold
    # each column's mean to a few ulps of its largest |row| of the exact mean
    ulp = np.spacing(np.abs(rows).max(axis=0))
    for j in range(k):
        col = list(map(Fraction, rows[:, j]))
        exact = sum(col) / n
        assert abs(Fraction(merged.mean[j]) - exact) <= 8 * Fraction(ulp[j]), j
        # against the exact variance: numpy's two-pass var of two rows near
        # 1e8 is itself 1e-12 off (seed 57497)
        exact_var = sum((x - exact) ** 2 for x in col) / (n - 1)
        assert abs(Fraction(merged.var[j]) - exact_var) <= Fraction(1e-12) * exact_var, j


def test_replicate_draws_chunk_ci_of_side_s_from_substream_ci_then_s():
    # two full chunks and a remainder per side; rebuilding each side's draws
    # chunk by chunk from stream.split(ci).split(s) must give the same moments
    sides = (
        lambda gen, size: gen.standard_normal((size, 2)),
        lambda gen, size: gen.exponential(2.0, (size, 2)),
    )
    reduce = lambda v: np.column_stack([v, v[:, :1] * v[:, 1:]])
    stream = make_stream(23)
    sizes = [ordering._CHUNK, ordering._CHUNK, 37]
    moms = ordering.replicate(sides, reduce, sum(sizes), stream)
    for s, draw in enumerate(sides):
        rows = np.vstack([
            reduce(draw(stream.split(ci).split(s).generator(), size))
            for ci, size in enumerate(sizes)
        ])
        # a mean near 0 has no relative accuracy against O(1) rows: allow a
        # few ulps of each column's largest |row| besides the relative bound
        ulp = np.spacing(np.abs(rows).max(axis=0))
        ref = Moments.of(rows)
        assert moms[s].n == ref.n == sum(sizes)
        err = np.abs(moms[s].mean - ref.mean)
        assert np.all(err <= 1e-12 * np.abs(ref.mean) + 8 * ulp), (err, ulp)
        np.testing.assert_allclose(moms[s].var, ref.var, rtol=1e-12, atol=0)


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_compare_vectors_stderr_at_large_offset(seed):
    # X = Y = 1e8 + N(0, 1): the mean difference of a linear function has
    # stderr sqrt(2 / n) whatever the offset
    f = TestFunction(0, "lin_convex", np.array([1.0]), phi="power", t=0.0, p=1.0)
    draw = batched(lambda gen: 1e8 + gen.standard_normal(1))
    rep = compare_vectors(draw, draw, [f], 20_000, make_stream(seed))
    assert rep.records[0]["stderr"] == pytest.approx(np.sqrt(2 / 20_000), rel=0.05)


def test_bonferroni_grows_with_suite_size():
    assert bonferroni_z(3.0, 1) == pytest.approx(3.0)
    assert bonferroni_z(3.0, 100) > 3.0


@pytest.mark.parametrize("z_crit", [1.0, 2.0, 3.0, 3.5])
def test_bonferroni_z_matches_scipy_quantile(z_crit):
    n_tests = np.arange(1, 2001)
    got = [bonferroni_z(z_crit, int(n)) for n in n_tests]
    ref = -special.ndtri(special.ndtr(-z_crit) / n_tests)
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)


@pytest.mark.parametrize("n_tests", [1, 8, 25])
def test_decide_false_alarm_rate_on_null_z(n_tests):
    # i.i.d. N(0, 1) families: VIOLATION at most sf(z_crit) of the time
    gen = make_stream(21, n_tests).generator()
    rate = np.mean([decide(z, 2.0) == VIOLATION for z in gen.standard_normal((4000, n_tests))])
    alpha = sps.norm.sf(2.0)
    assert rate <= alpha + 3 * np.sqrt(alpha / 4000)


def test_compare_vectors_false_alarm_rate_on_equal_laws():
    # equal laws: each of VIOLATION (suite) and INCONCLUSIVE (mean gate) fires
    # in at most sf(z_crit) of the runs
    n_runs, alpha = 300, sps.norm.sf(1.0)
    stream = make_stream(22)
    suite = make_suite("dcx", 3, 10, stream.split(10**6), scale=np.full(3, 5.0))
    draw = _draw_iid_poisson(5.0, 3)
    verdicts = [
        compare_vectors(draw, draw, suite, 200, stream.split(i), z_crit=1.0).verdict
        for i in range(n_runs)
    ]
    bound = alpha + 3 * np.sqrt(alpha * (1 - alpha) / n_runs)
    assert verdicts.count(VIOLATION) / n_runs <= bound
    assert verdicts.count(INCONCLUSIVE) / n_runs <= bound


def test_lo_compare_directions():
    stream = make_stream(9)
    draw_small = batched(lambda gen: gen.exponential(1.0, size=2))
    draw_big = batched(lambda gen: gen.exponential(2.0, size=2))
    ts = np.array([[t, t] for t in np.linspace(0.2, 3.0, 5)])
    rep = lo_compare(draw_small, draw_big, ts, 20_000, stream)
    assert rep["verdict"] == CONSISTENT
    rep2 = lo_compare(draw_big, draw_small, ts, 20_000, stream)
    assert rep2["verdict"] == VIOLATION


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lo_compare_cdfs_match_broadcast_formula(dim):
    # integer-valued draws tie with the thresholds, which must count as below
    draw_1 = lambda gen, size: gen.integers(0, 4, size=(size, dim)).astype(float)
    draw_2 = lambda gen, size: gen.poisson(1.5, size=(size, dim)).astype(float)
    grid = np.array([0.0, 1.0, 1.5, 3.0])
    ts = np.stack(np.meshgrid(*[grid] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    rep = lo_compare(draw_1, draw_2, ts, 600, make_stream(5))
    below = lambda u: np.all(u[:, None, :] <= ts[None, :, :], axis=2)
    mom_1, mom_2 = ordering.replicate((draw_1, draw_2), below, 600, make_stream(5))
    assert [r["cdf_1"] for r in rep["per_threshold"]] == mom_1.mean.tolist()
    assert [r["cdf_2"] for r in rep["per_threshold"]] == mom_2.mean.tolist()


def test_cx_compare_exact_basics():
    # a two-point law vs its mean: constant is convex-smaller
    const = (np.array([1.0]), np.array([1.0]))
    spread = (np.array([0.0, 2.0]), np.array([0.5, 0.5]))
    assert cx_compare_exact(const, spread)["verdict"] == "pass"
    assert cx_compare_exact(spread, const)["verdict"] == "fail"
    # unequal means fail even without a stop-loss crossing
    shifted = (np.array([2.0]), np.array([1.0]))
    assert cx_compare_exact(const, shifted)["verdict"] == "fail"
    with pytest.raises(ValueError):
        cx_compare_exact((np.array([0.0]), np.array([0.9])), const)


def _cx_max_violation_on_distinct_points(pmf_x, pmf_y) -> float:
    # the stop-loss grid of every distinct support point and the midpoints
    (vx, px), (vy, py) = pmf_x, pmf_y
    support = np.unique(np.concatenate([vx, vy]))
    t_grid = np.concatenate([support, (support[:-1] + support[1:]) / 2.0])
    stop_loss = lambda v, p: np.maximum(v[None, :] - t_grid[:, None], 0.0) @ p
    return max(float(np.max(stop_loss(vx, px) - stop_loss(vy, py))), 0.0)


def test_cx_compare_exact_grid_with_repeated_points():
    # repeated support points within and across the two pmfs leave the
    # maximum stop-loss violation bit-identical
    gen = make_stream(31).generator()
    for _ in range(100):
        pmfs = [(gen.integers(0, 6, size=n).astype(float), gen.dirichlet(np.ones(n))) for n in (5, 9)]
        for pair in (pmfs, pmfs[::-1]):
            assert cx_compare_exact(*pair)["max_violation"] == _cx_max_violation_on_distinct_points(*pair)


@pytest.mark.parametrize("mean", [0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 6.0, 9.0, 50.0])
def test_poisson_pmf_tail_matches_scipy(mean):
    pmf, tail = poisson_pmf_tail(mean)
    k = np.arange(pmf.size)
    ref_pmf = np.exp(special.xlogy(k, mean) - special.gammaln(k + 1) - mean)
    np.testing.assert_allclose(pmf, ref_pmf, rtol=1e-12, atol=0)
    # the oracles' support end: two past the smallest k with P(N > k) < POISSON_TAIL
    end = 0
    while special.pdtrc(end, mean) >= POISSON_TAIL:
        end += 1
    end += 2
    assert ordering._poisson_pmf_truncated(mean)[0][-1] == end
    # tail[k] = P(N >= k) = pdtrc(k - 1) for k >= 1, over the oracles' support
    k = np.arange(1, end + 2)
    np.testing.assert_allclose(tail[k], special.pdtrc(k - 1, mean), rtol=1e-12, atol=0)


def test_oracle_poisson_scaling_validation():
    with pytest.raises(ValueError):
        oracle_poisson_scaling(0.0, 2.0)
    with pytest.raises(ValueError):
        oracle_poisson_scaling(1.0, 0.5)
    assert oracle_poisson_scaling(1.0, 1.0)["verdict"] == "pass"  # identical laws


def test_oracle_ginibre_mean_matches_b():
    rep = oracle_ginibre_radii(1.5)
    assert rep["verdict"] == "pass"
    assert rep["mean_structured"] == pytest.approx(1.5, abs=1e-9)
    assert rep["mean_poisson"] == pytest.approx(1.5, abs=1e-9)


def test_oracle_ising_validation():
    f = TestFunction(0, "pair_product", np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        oracle_ising_exact(13, 2.0, 0.0, 0.5, [f])
    with pytest.raises(ValueError):
        oracle_ising_exact(2, 0.0, 2.0, 0.5, [f])


def test_empty_suite_rejected():
    with pytest.raises(ValueError):
        compare_vectors(batched(lambda g: np.zeros(2)), batched(lambda g: np.zeros(2)), [], 10, make_stream(0))
