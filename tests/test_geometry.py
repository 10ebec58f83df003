import ast
import inspect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcxsim import geometry, ops
from dcxsim.geometry import (
    PLAIN,
    TORUS,
    AtomicMeasure,
    Box,
    GridField,
    PointPattern,
    RngStream,
    boxes_disjoint,
    count_in,
    make_stream,
    make_window,
    mass_in,
    pairwise_distances,
    sq_distances,
)
from dcxsim.scenarios import SCENARIOS, run_scenario
from conftest import wrap_oracle
from test_acceptance import FAST_PARAMS, SEED

# calls that build a generator or a seed: only RngStream.generator may make them
_RNG_BUILDERS = {"PCG64DXSM", "Philox", "SeedSequence", "default_rng", "Generator", "RandomState"}


def test_window_validation():
    with pytest.raises(ValueError):
        make_window([0, 0], [1, 0])
    with pytest.raises(ValueError):
        make_window([0], [1], "klein-bottle")
    for lows, highs in (([0, np.nan], [1, 1]), ([0, 0], [1, np.inf]), ([-np.inf], [1])):
        with pytest.raises(ValueError, match="finite"):
            make_window(lows, highs)
        with pytest.raises(ValueError, match="finite"):
            Box(lows, highs)
    w = make_window([0, 0], [2, 3])
    assert w.dim == 2
    assert w.volume == 6.0


def test_wrap_and_contains():
    w = make_window([0, 0], [1, 1])
    wrapped = w.wrap([[1.25, -0.25]])
    assert np.allclose(wrapped, [[0.25, 0.75]])
    assert w.contains(wrapped).all()


def test_wrap_never_returns_the_upper_edge():
    # mod(1 - 1e-17, 1) rounds up to 1, a point no half-open box of a
    # partition of the window counts
    w = make_window([0, 0], [1, 1])
    assert (w.lows + np.mod(np.array([[-1e-17, 0.5]]) - w.lows, w.lengths))[0, 0] == 1.0
    wrapped = w.wrap([[-1e-17, 0.5]])
    assert np.array_equal(wrapped, [[0.0, 0.5]])
    halves = [Box([0, 0], [0.5, 1]), Box([0.5, 0], [1, 1])]
    assert sum(count_in(PointPattern(w, wrapped), b) for b in halves) == 1
    # non-zero lows: the coordinate just below lows[0] wraps to just below highs[0]
    w = make_window([0.125, -2.0], [1.125, 1.0])
    x = np.nextafter(0.125, -np.inf)
    assert (w.lows + np.mod(np.array([[x, 0.0]]) - w.lows, w.lengths))[0, 0] == 1.125
    assert np.array_equal(w.wrap([[x, 0.0]]), [[0.125, 0.0]])
    assert np.array_equal(w.wrap([[1.125, 1.0]]), [[0.125, -2.0]])
    # 0.8 - -0.4 rounds to 1.2000000000000002, mod(-1.1e-16, that) rounds up to
    # it, and -0.4 + it is 0.8000000000000002: the formula lands past highs
    w = make_window([-0.4, 1.25], [0.8, 3.0])
    x = np.nextafter(np.nextafter(-0.4, -np.inf), -np.inf)
    assert (w.lows + np.mod(np.array([[x, 2.0]]) - w.lows, w.lengths))[0, 0] > 0.8
    assert np.array_equal(w.wrap([[x, 2.0]]), [[-0.4, 2.0]])


@pytest.mark.parametrize("lows, highs", [
    ([0.3], [2.1]),
    ([-0.4, 1.25], [0.8, 3.0]),
    ([0.1, -2.0, 5.0], [1.3, -1.1, 5.7]),
    ([0.0, 0.0], [1.0, 1.0]),
    # lows + (highs - lows) rounds below highs on both axes
    ([0.2, -2.0], [0.9, 1.3]),
])
def test_wrap_matches_broadcast_formula(lows, highs):
    w = make_window(lows, highs)
    lo, hi, length = w.lows, w.highs, w.lengths
    k = np.arange(-3, 4)[:, None]
    special = np.vstack([
        lo, hi, -lo, -hi,
        lo + k * length, hi + k * length,  # at +-k L
        lo + 1e6 * length, lo - 1e12 * length, np.full_like(lo, 1e300), np.full_like(lo, -1e300),
        np.full_like(lo, -0.0), np.full_like(lo, 0.0),
        np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), np.nextafter(hi, -np.inf),
    ])
    gen = make_stream(4).generator()
    spread = lo + gen.normal(0.5, 0.8, size=(2000, w.dim)) * length
    inside = lo + gen.random((500, w.dim)) * length
    for pts in (special, spread, inside, special[:, ::-1] if w.dim > 1 else special):
        got = w.wrap(pts)
        assert np.array_equal(got, wrap_oracle(w, pts))
        assert np.array_equal(np.signbit(got), np.signbit(wrap_oracle(w, pts)))
        assert np.all((got >= lo) & (got < hi))


@pytest.mark.parametrize("lows, highs", [
    ([0.3], [2.1]),
    ([0.1, -0.4], [1.1, 0.8]),
    ([0.1, -2.0, 5.0], [1.3, -1.1, 5.7]),
])
def test_wrap_and_identity_displace_keep_in_window_points(lows, highs):
    # (x - lows) + lows is an ulp off x for many doubles when lows != 0
    w = make_window(lows, highs)
    gen = make_stream(8).generator()
    pts = np.round(w.lows + gen.random((20000, w.dim)) * w.lengths, 7)
    pts = pts[w.contains(pts) & np.all(pts < w.highs, axis=1)]
    pts = np.vstack([pts, w.lows, np.nextafter(w.highs, -np.inf)])
    assert np.array_equal(w.wrap(pts), pts)
    assert np.array_equal(ops.displace(PointPattern(w, pts), lambda x: x).points, pts)


@pytest.mark.parametrize("lows, highs", [
    ([0.0], [3.0]),
    ([0.2, -2.0], [0.9, 1.3]),
    ([0.0, 0.0, 0.0], [1.0, 1.5, 1.0]),
])
def test_membership_and_value_at_match_broadcast_formulas(lows, highs):
    # the per-axis membership tests and cell lookup against the (N, d)-by-(d,)
    # broadcast formulas they replace, bit for bit, with points on lows and
    # highs and one ulp either side of them
    w = make_window(lows, highs, PLAIN)
    lo, hi = w.lows, w.highs
    gen = make_stream(5).generator()
    edges = np.vstack([lo, hi, np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf),
                       np.nextafter(hi, -np.inf), np.nextafter(hi, np.inf)])
    # every combination of edge values across the axes, and random points
    # around the window
    mixed = np.stack(np.meshgrid(*edges.T, indexing="ij"), axis=-1).reshape(-1, w.dim)
    spread = lo + gen.uniform(-0.2, 1.2, size=(3000, w.dim)) * w.lengths
    box = Box(lo + 0.25 * w.lengths, hi - 0.25 * w.lengths)
    bedges = np.vstack([box.lows, box.highs, np.nextafter(box.lows, -np.inf),
                        np.nextafter(box.highs, -np.inf), np.nextafter(box.highs, np.inf)])
    bmixed = np.stack(np.meshgrid(*bedges.T, indexing="ij"), axis=-1).reshape(-1, w.dim)
    field = GridField(w, np.arange(3, 3 + w.dim), gen.random(int(np.prod(np.arange(3, 3 + w.dim)))))
    for pts in (edges, mixed, spread, bmixed):
        assert np.array_equal(w.contains(pts), np.all((pts >= w.lows) & (pts <= w.highs), axis=1))
        assert np.array_equal(box.contains(pts), np.all((pts >= box.lows) & (pts < box.highs), axis=1))
        idx = np.floor((pts - w.lows) / field.cell_lengths).astype(int)
        idx = np.clip(idx, 0, field.cells_per_axis - 1)
        assert np.array_equal(field.value_at(pts), field.values[tuple(idx.T)])
    assert w.contains(edges[:2]).all() and not w.contains(edges[[2, 5]]).any()
    assert box.contains(bedges[[0, 3]]).all() and not box.contains(bedges[[1, 2, 4]]).any()
    # points of another dimension are refused, as the broadcast refused them
    # (except a single column, which it spread over every axis)
    for pts in (np.zeros((2, w.dim + 1)), np.zeros((2, 1)) if w.dim > 1 else np.zeros((2, 2))):
        for f in (w.contains, box.contains, field.value_at):
            with pytest.raises(ValueError):
                f(pts)


def test_sq_distances_pairs_by_broadcasting():
    # elementwise pairs of broadcast points; pairwise_distances is the sqrt of
    # every (a, b) pair of them, bit for bit
    w = make_window([0, 0, 0], [1.0, 1.5, 2.0])
    gen = make_stream(6).generator()
    a = gen.random((4, 9, 3)) * w.lengths
    b = gen.random((9, 3)) * w.lengths
    sq = sq_distances(w, a, b)
    assert sq.shape == (4, 9)
    assert np.array_equal(np.sqrt(sq), pairwise_distances(w, a, b[None]).diagonal(axis1=1, axis2=2))
    assert np.array_equal(np.sqrt(sq_distances(w, a[0], b[3])), pairwise_distances(w, a[0], b[3])[:, 0])
    with pytest.raises(ValueError):
        sq_distances(w, a, b[:, :2])


def test_torus_distance_min_image():
    a, b = [[0.05, 0.5]], [[0.95, 0.5]]
    w = make_window([0, 0], [1, 1], TORUS)
    assert pairwise_distances(w, a, b)[0, 0] == pytest.approx(0.1)
    wp = make_window([0, 0], [1, 1], PLAIN)
    assert pairwise_distances(wp, a, b)[0, 0] == pytest.approx(0.9)


@given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=2, max_size=2))
@settings(max_examples=50, deadline=None)
def test_torus_distance_never_exceeds_plain(pts):
    a, b = (np.asarray(p) for p in pts)
    wt = make_window([0, 0], [1, 1], TORUS)
    wp = make_window([0, 0], [1, 1], PLAIN)
    assert pairwise_distances(wt, a, b)[0, 0] <= pairwise_distances(wp, a, b)[0, 0] + 1e-12


def test_box_half_open_counting():
    w = make_window([0, 0], [1, 1])
    p = PointPattern(w, np.array([[0.5, 0.5], [0.0, 0.0], [0.25, 0.75]]))
    left = Box([0, 0], [0.5, 1])
    right = Box([0.5, 0], [1, 1])
    assert count_in(p, left) + count_in(p, right) == p.n
    assert count_in(PointPattern(w, np.empty((0, 2))), left) == 0
    assert boxes_disjoint([left, right])
    assert not boxes_disjoint([left, Box([0.25, 0], [0.75, 1])])


@given(st.integers(0, 2**32 - 1), st.integers(1, 30))
@settings(max_examples=30, deadline=None)
def test_count_partition_additivity(seed, n_pts):
    gen = make_stream(seed).generator()
    w = make_window([0, 0], [1, 1])
    p = PointPattern(w, gen.random((n_pts, 2)))
    quads = [
        Box([0, 0], [0.5, 0.5]),
        Box([0.5, 0], [1, 0.5]),
        Box([0, 0.5], [0.5, 1]),
        Box([0.5, 0.5], [1, 1]),
    ]
    assert sum(count_in(p, b) for b in quads) == n_pts


def test_grid_field_mass_exact_fractional_overlap():
    w = make_window([0, 0], [1, 1])
    f = GridField(w, [2, 2], np.array([[1.0, 2.0], [3.0, 4.0]]))
    # whole window: integral of piecewise-constant density
    assert mass_in(f, Box([0, 0], [1, 1])) == pytest.approx(10.0 * 0.25)
    # a box covering the left half of the left cells
    assert mass_in(f, Box([0, 0], [0.25, 1])) == pytest.approx(0.25 * 0.5 * (1 + 2))


def test_atomic_measure_mass():
    w = make_window([0, 0], [1, 1])
    m = AtomicMeasure(w, np.array([[0.1, 0.1], [0.9, 0.9]]), np.array([2.0, 5.0]))
    assert mass_in(m, Box([0, 0], [0.5, 0.5])) == 2.0
    assert mass_in(AtomicMeasure(w, np.empty((0, 2)), np.empty(0)), Box([0, 0], [0.5, 0.5])) == 0.0
    with pytest.raises(ValueError):
        AtomicMeasure(w, np.array([[0.1, 0.1]]), np.array([-1.0]))


def test_grid_field_value_at_midpoints():
    w = make_window([0, 0], [1, 2])
    vals = np.arange(6, dtype=float).reshape(2, 3)
    f = GridField(w, [2, 3], vals)
    assert np.allclose(f.value_at(f.midpoints()), vals.ravel())


def test_pattern_validation():
    w = make_window([0, 0], [1, 1])
    with pytest.raises(ValueError):
        PointPattern(w, np.array([[2.0, 0.5]]))
    with pytest.raises(ValueError):
        PointPattern(w, np.array([[0.5, 0.5]]), marks=np.array([1.0, 2.0]))
    # both containers: the closed window holds its corners, not NaN, and
    # points of another dimension are refused
    assert PointPattern(w, [[0.0, 1.0], [1.0, 0.0]]).n == 2
    assert AtomicMeasure(w, [[1.0, 1.0]], [1.0]).n == 1
    for pts, match in (([[np.nan, 0.5]], "outside window"), ([[0.5, 0.5, 0.5]], "dimension")):
        with pytest.raises(ValueError, match=match):
            PointPattern(w, pts)
        with pytest.raises(ValueError, match=match):
            AtomicMeasure(w, pts, [1.0])


def test_rng_stream_reproducible_and_split():
    s = make_stream(123, 4)
    a = s.generator().random(5)
    b = s.generator().random(5)
    assert np.array_equal(a, b)
    c = s.split(0).generator().random(5)
    d = s.split(1).generator().random(5)
    assert not np.array_equal(c, d)
    assert s.split(0) == s.split(0)


def test_rng_stream_draws_pcg64dxsm_seeded_by_its_path():
    # a change of bit generator or of keying moves every report byte; this
    # names the cause
    s = make_stream(123, 4)
    assert type(s.generator().bit_generator) is np.random.PCG64DXSM
    seq = np.random.SeedSequence(123, spawn_key=(4,))
    want = np.random.Generator(np.random.PCG64DXSM(seq)).random(5)
    assert np.array_equal(s.generator().random(5), want)


def test_paths_a_linear_id_mix_merged_draw_different_numbers():
    # a child key linear in (parent id, index) before mixing made each pair
    # one stream; the second is scenario 0's suite stream and chunk 8472,
    # side 1, of scenario 15
    for x, y in (
        (make_stream(7, 0).split(65537), make_stream(7, 1).split(0)),
        (make_stream(7, 0).split(10**6), make_stream(7, 15).split(16945)),
    ):
        assert not np.array_equal(x.generator().random(8), y.generator().random(8))


def test_split_index_and_seed_ranges():
    # SeedSequence cuts larger ints into 32-bit words that alias longer paths
    s = make_stream(7)
    for i in (-1, 2**32):
        with pytest.raises(ValueError, match="index"):
            s.split(i)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            make_stream(seed)
    assert s.split(2**32 - 1).path == (0, 2**32 - 1)
    assert make_stream(2**64 - 1, 3) == RngStream(2**64 - 1, (3,))


def test_distinct_paths_give_distinct_generator_states():
    # edge paths, then random paths of one to four small or full-width indices
    gen = make_stream(1).generator()
    paths = {(), (0,), (0, 0), (2**32 - 1,), (1, 0), (0, 1), (0, 65537), (1, 0, 0)}
    while len(paths) < 1000:
        high = (2, 2**16, 2**32)[gen.integers(3)]
        paths.add(tuple(gen.integers(0, high, gen.integers(1, 5)).tolist()))
    streams = [RngStream(seed, path) for seed in (0, 2**64 - 1) for path in sorted(paths)]
    states = set()
    for s in streams:
        state = s.generator().bit_generator.state["state"]
        states.add((state["state"], state["inc"]))
    assert len(states) == len(streams)


def test_no_two_generators_of_a_run_share_a_path(monkeypatch):
    # every scenario in one process, as one config runs them
    paths = []
    generator = RngStream.generator

    def recording(self):
        paths.append((self.seed, self.path))
        return generator(self)

    monkeypatch.setattr(RngStream, "generator", recording)
    for k, sid in enumerate(SCENARIOS):
        run_scenario(sid, FAST_PARAMS[sid], make_stream(SEED, k))
    assert paths and len(set(paths)) == len(paths)


def test_randomness_flows_only_through_rng_stream():
    # a generator built anywhere else could repeat a stream's numbers
    src = Path(geometry.__file__).parent
    lines, start = inspect.getsourcelines(RngStream.generator)
    allowed = {("geometry.py", n) for n in range(start, start + len(lines))}
    found = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func)
                if name.split(".")[-1] in _RNG_BUILDERS or name.startswith("np.random."):
                    found.add((path.name, node.lineno))
    assert found and found <= allowed, sorted(found - allowed)


def test_pairwise_distances_topology():
    wt = make_window([0, 0], [1, 1], TORUS)
    a = np.array([[0.05, 0.5]])
    b = np.array([[0.95, 0.5], [0.05, 0.6]])
    d = pairwise_distances(wt, a, b)
    assert d.shape == (1, 2)
    assert d[0, 0] == pytest.approx(0.1)
    assert d[0, 1] == pytest.approx(0.1)


@pytest.mark.parametrize("topology", [PLAIN, TORUS])
def test_pairwise_distances_broadcast_leading_axes(topology):
    # a (g, n, d) stack gives the stack of the per-slice 2-d calls, bit for bit
    w = make_window([0, 0], [1.0, 1.5], topology)
    gen = make_stream(3).generator()
    a = gen.random((13, 50, 2)) * w.lengths
    b = gen.random((13, 7, 2)) * w.lengths
    for y in (a, b):
        stacked = pairwise_distances(w, a, y)
        assert stacked.shape == (13, 50, y.shape[1])
        for i in range(13):
            assert np.array_equal(stacked[i], pairwise_distances(w, a[i], y[i]))
    # a 2-d b broadcasts against every slice of a
    assert np.array_equal(pairwise_distances(w, a, b[0])[5], pairwise_distances(w, a[5], b[0]))
    with pytest.raises(ValueError):
        pairwise_distances(w, a, gen.random((13, 7, 3)))
    with pytest.raises(ValueError):
        pairwise_distances(w, a[0], gen.random((7, 1)))
