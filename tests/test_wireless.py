import numpy as np
import pytest

from dcxsim.distributions import MassDistribution, constant, exponential
from dcxsim.geometry import PatternBatch, make_stream, make_window
from dcxsim.processes import make_poisson_batch, make_thomas_batch
from dcxsim.scenarios import run_scenario
from dcxsim.shotnoise import ResponseKernel
from dcxsim import wireless

W = make_window([0.0, 0.0], [1.0, 1.0])
PL = ResponseKernel("power_law", (4.0,))


def _layout(threshold=1.0, noise=0.0, n_links=1):
    tx = np.array([[0.3, 0.3], [0.7, 0.7]])[:n_links]
    rx = np.array([[0.3, 0.35], [0.7, 0.75]])[:n_links]
    return wireless.LinkLayout(W, tx, rx, threshold, PL, exponential(1.0), noise)


def _no_interferers(gen, size):
    return PatternBatch(W, np.empty((0, 2)), np.zeros(size, dtype=int))


def test_layout_validation():
    with pytest.raises(ValueError):
        wireless.LinkLayout(W, np.empty((0, 2)), np.empty((0, 2)), 1.0, PL, exponential(1.0), 0.0)
    with pytest.raises(ValueError):
        _layout(threshold=0.0)
    with pytest.raises(ValueError):
        _layout(noise=-0.5)


def test_success_is_one_without_noise_or_interference():
    p, se = wireless.sinr_success(_layout(), _no_interferers, 500, make_stream(1))
    assert p == 1.0 and se == 0.0
    p2, _ = wireless.sinr_success_rayleigh(_layout(), _no_interferers, 500, make_stream(1))
    assert p2 == pytest.approx(1.0)


def test_rayleigh_closed_form_single_link():
    # one link has no cross-link term: the success probability is the noise-only tail
    w0, t = 0.3, 2.0
    layout = _layout(threshold=t, noise=w0)
    g = layout.gains()[0, 0]
    p, se = wireless.sinr_success_rayleigh(layout, _no_interferers, 200, make_stream(2))
    assert se == pytest.approx(0.0, abs=1e-15)
    assert p == pytest.approx(float(np.exp(-t * w0 / g)))
    p_ind, _ = wireless.sinr_success(layout, _no_interferers, 20_000, make_stream(2))
    assert p_ind == pytest.approx(float(np.exp(-t * w0 / g)), abs=0.015)


def test_success_decreases_with_threshold():
    lam = 5.0
    sampler = make_poisson_batch(lam, W)
    p_lo, _ = wireless.sinr_success_rayleigh(_layout(threshold=10.0, noise=0.01), sampler, 4000, make_stream(3))
    p_hi, _ = wireless.sinr_success_rayleigh(_layout(threshold=1000.0, noise=0.01), sampler, 4000, make_stream(3))
    assert p_hi < p_lo
    assert p_hi < 0.01


def test_rayleigh_estimator_reduces_variance():
    layout = _layout(noise=0.01, n_links=2)
    sampler = make_poisson_batch(5.0, W)
    n = 8000
    p_i, se_i = wireless.sinr_success(layout, sampler, n, make_stream(4))
    p_r, se_r = wireless.sinr_success_rayleigh(layout, sampler, n, make_stream(4))
    assert se_r < se_i
    assert abs(p_i - p_r) <= 3 * float(np.hypot(se_i, se_r))


def test_rayleigh_requires_closed_form_tail():
    layout = wireless.LinkLayout(
        W,
        np.array([[0.3, 0.3]]),
        np.array([[0.3, 0.35]]),
        1.0,
        PL,
        MassDistribution("sum_of_exponentials", (0.5, 0.5)),
        0.0,
    )
    with pytest.raises(ValueError):
        wireless.sinr_success_rayleigh(layout, _no_interferers, 10, make_stream(0))


def test_boolean_coverage_poisson_matches_void_probability():
    lam, r = 20.0, 0.1
    rep = wireless.boolean_coverage(
        make_poisson_batch(lam, W),
        r,
        np.array([[0.5, 0.5]]),
        20_000,
        make_stream(5),
    )
    target = 1.0 - np.exp(-lam * np.pi * r**2)
    assert abs(rep["p_cover"][0] - target) <= 3 * rep["p_cover_stderr"][0]
    # Campbell: E V = lam * pi r^2
    assert abs(rep["mean_count"][0] - lam * np.pi * r**2) <= 3 * rep["mean_count_stderr"][0]



def test_coverage_compare_analytic_is_the_void_probability_of_its_dimension():
    # 1 - exp(-lam |ball of radius r|): the ball is 2 r long on a line and
    # pi r^2 in the plane, where the value keeps its planar formula's bits
    lam, r = 20.0, 0.1
    for window, queries, want in (
        ({"lows": [0.0], "highs": [1.0]}, [[0.5]], 1.0 - np.exp(-2 * lam * r)),
        ({}, [[0.5, 0.5]], None),
    ):
        params = {"lam": lam, "r": r, "n_reps": 200, "window": window, "queries": queries}
        got = run_scenario("coverage-compare", params, make_stream(5)).details["poisson_coverage_analytic"]
        if want is None:
            assert got == 1.0 - float(np.exp(-lam * np.pi * r**2))
        else:
            assert got == pytest.approx(want, rel=1e-12)


def test_coverage_compare_analytic_is_null_where_a_ball_is_not_in_the_window():
    # 1 - exp(-lam pi r^2) misreads the coverage when the ball round a query
    # overlaps itself on the torus (r 0.6 reads 0.677 against a Monte-Carlo
    # 0.612) or leaves a plain window (query [0.02, 0.5] reads 0.467 against
    # 0.330); the value is then null and its CSV cell empty
    plain = {"lows": [0.0, 0.0], "highs": [1.0, 1.0], "topology": "plain"}
    for lam, r, window, queries, valid in (
        (1.0, 0.6, {}, [[0.5, 0.5]], False),
        (1.0, 0.5, {}, [[0.5, 0.5]], True),
        (1.0, 0.5, {"lows": [0.0, 0.0], "highs": [2.0, 0.9]}, [[0.5, 0.5]], False),
        (20.0, 0.1, plain, [[0.02, 0.5]], False),
        (20.0, 0.1, plain, [[0.5, 0.5], [0.9, 0.1]], True),
        (20.0, 0.1, plain, [[0.5, 0.5], [0.95, 0.5]], False),
    ):
        params = {"lam": lam, "r": r, "n_reps": 200, "window": window, "queries": queries}
        res = run_scenario("coverage-compare", params, make_stream(5))
        got = res.details["poisson_coverage_analytic"]
        cells = [row["analytic"] for row in res.rows if row["germs"] == "poisson"]
        if valid:
            assert got == 1.0 - float(np.exp(-lam * np.pi * r**2)), (r, window, queries)
            assert cells == [got] * len(queries)
        else:
            assert got is None, (r, window, queries)
            assert cells == [""] * len(queries)

def test_boolean_coverage_empty_germs():
    rep = wireless.boolean_coverage(
        _no_interferers, 0.2, np.array([[0.5, 0.5]]), 100, make_stream(6)
    )
    assert rep["p_cover"][0] == 0.0
    assert rep["mean_count"][0] == 0.0


def test_cross_link_interference_reaches_each_receiver():
    # constant fading, no noise, no interferers: link j succeeds iff its gain
    # beats T times the power every other emitter i sends to receiver j
    tx = np.array([[0.1, 0.1], [0.5, 0.5]])
    rx = np.array([[0.1, 0.2], [0.9, 0.9]])
    for t in (0.4, 0.6, 2.0, 4.0):
        layout = wireless.LinkLayout(W, tx, rx, t, PL, constant(1.0), 0.0)
        gains = layout.gains()
        cross = gains - np.diag(np.diag(gains))
        sir = np.diag(gains) / cross.sum(axis=0)
        p, _ = wireless.sinr_success(layout, _no_interferers, 10, make_stream(7))
        assert p == float(np.all(sir >= t))
    # the two receivers' ratios differ, so a transposed sum would be seen
    assert not np.allclose(sir, np.diag(gains) / cross.sum(axis=1))


class _RecordingFading:
    """Constant unit fades with the exponential tail, recording the shape of
    every draw."""

    kind = "exponential"

    def __init__(self):
        self.sizes = []

    def sample(self, gen, size):
        self.sizes.append(size)
        return np.ones(size)

    def tail(self, s):
        return exponential(1.0).tail(s)


def test_cross_link_fades_are_drawn_only_off_the_diagonal():
    # three links, no interferers: per replication, n(n-1) cross fades, none
    # for the interferers, and n own-link fades for the indicator only.  With
    # unit fades the Rayleigh product is exp(-T sum_r I_r / g_rr), I_r the
    # column sum of the other emitters' gains at receiver r
    tx = np.array([[0.1, 0.1], [0.5, 0.5], [0.8, 0.2]])
    rx = np.array([[0.1, 0.2], [0.9, 0.9], [0.7, 0.2]])
    t, n = 0.05, 3
    estimators = ((wireless.sinr_success, n * n), (wireless.sinr_success_rayleigh, n * (n - 1)))
    for estimator, per_rep in estimators:
        fading = _RecordingFading()
        layout = wireless.LinkLayout(W, tx, rx, t, PL, fading, 0.0)
        p, _ = estimator(layout, _no_interferers, 10, make_stream(9))
        assert sum(int(np.prod(size)) for size in fading.sizes) == 10 * per_rep, fading.sizes
    gains = layout.gains()
    own = np.diag(gains)
    cross = gains - np.diag(own)
    assert p == pytest.approx(float(np.exp(-t * np.sum(cross.sum(axis=0) / own))), rel=1e-12)
    # a transposed sum would give another product
    assert not np.isclose(np.sum(cross.sum(axis=0) / own), np.sum(cross.sum(axis=1) / own))


def test_gains_hold_every_transmitter_receiver_pair():
    layout = _layout(n_links=2)
    d = np.linalg.norm(layout.transmitters[:, None, :] - layout.receivers[None, :, :], axis=2)
    assert np.allclose(layout.gains(), (1.0 + d) ** -4.0, rtol=1e-12, atol=0)
    far = wireless.LinkLayout(
        W, np.array([[0.1, 0.1]]), np.array([[0.6, 0.6]]), 1.0,
        ResponseKernel("gaussian", (0.01,)), exponential(1.0), 0.0,
    )
    with pytest.raises(ValueError, match="zero path gain"):
        far.gains()


@pytest.mark.parametrize(
    "sampler", [make_poisson_batch(5.0, W), make_thomas_batch(1.0, 5.0, 0.05, W)]
)
def test_success_depends_on_noise_over_power_times_fading_mean(sampler):
    # doubling the fading mean, with the noise doubled to match, scales the
    # interference, the gains and the fading draws by two, so both estimators
    # keep their bits: sinr-compare needs no fading_mean knob besides noise,
    # and its response kernel has unit power (a power P would scale them alike)
    tx = np.array([[0.3, 0.3], [0.7, 0.7]])
    rx = np.array([[0.3, 0.35], [0.7, 0.75]])
    for estimator in (wireless.sinr_success, wireless.sinr_success_rayleigh):
        results = {
            estimator(
                wireless.LinkLayout(
                    W, tx, rx, 1.0, ResponseKernel("power_law", (4.0,)), exponential(fading_mean),
                    noise,
                ),
                sampler, 3000, make_stream(8),
            )
            for noise, fading_mean in ((0.01, 1.0), (0.02, 2.0))
        }
        assert len(results) == 1, results
        ((p, se),) = results
        assert 0.0 < p < 1.0 and se > 0.0
