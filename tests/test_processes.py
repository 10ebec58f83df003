import numpy as np
import pytest

from dcxsim.distributions import (
    ClusterKernel, CovarianceSpec, MassDistribution, constant, exponential, poisson_tail_order,
)
from dcxsim.geometry import (
    Box, GridField, count_in, make_stream, make_window, mass_in, pairwise_distances,
)
from dcxsim import ops, processes, shotnoise
from dcxsim.ordering import CONSISTENT, batched, counts_on_boxes
from dcxsim.scenarios import (
    SCENARIOS, _box_count_samplers, _ops_arms, _quadrant_boxes, run_scenario,
)
from dcxsim.shotnoise import ResponseKernel, additive_sn, ragged_sn
from conftest import law_verdict, wrap_oracle


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
    empty = processes.sample_cox(GridField(W, [2, 2], np.zeros((2, 2))), gen)
    assert empty.points.shape == (0, 2)


def test_mixed_poisson_overdispersed():
    mix = exponential(20.0)
    mean, var = _count_stats(lambda g: processes.sample_mixed_poisson(mix, W, g), 20_000)
    assert mean == pytest.approx(20.0, rel=0.03)
    # var = E lam + Var lam = 20 + 400
    assert var == pytest.approx(420.0, rel=0.1)


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
        processes.sample_ising_field(1.0, 2.0, 0.5, W, [4, 4], make_stream(0).generator())
    with pytest.raises(ValueError):
        processes.sample_ising_field(2.0, 0.0, 1.5, W, [4, 4], make_stream(0).generator())
    w = make_window([0, 0], [4.5, 4.5])
    with pytest.raises(ValueError):  # torus side not a whole multiple of the spacing
        processes.sample_ising_field(2.0, 0.0, 0.5, w, [4, 4], make_stream(0).generator())


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
    m = processes.sample_levy_grid_basis(1.0, exponential(1.0), w, make_stream(2).generator())
    assert m.n == 16
    assert np.allclose(np.sort(np.unique(m.locations[:, 0])), [0.5, 1.5, 2.5, 3.5])


@pytest.mark.parametrize("spacing,counts", [(1.0, [4, 4, 4, 4]), (0.7, [9, 9, 9, 9]),
                                            (1.5, [1, 2, 2, 4])])
def test_levy_grid_counts_the_atoms_of_each_box(spacing, counts):
    # on the 4 x 4 window a spacing that does not divide it still lays whole
    # lattice cells from the lower corner: 0.7 puts 6 atoms per axis, 3 in
    # each half, and 1.5 puts 1 below the midline and 2 above; the unit-mean
    # box masses read those counts
    res = run_scenario(
        "levy-grid", {"lattice_spacing": spacing, "n_reps": 2000, "suite_size": 6},
        make_stream(31),
    )
    assert res.details["atoms_per_box"] == np.mean(counts)
    for side in ("mean_x", "mean_y"):
        assert np.allclose(res.mean_equality[side], counts, rtol=0.1), side


@pytest.mark.parametrize("topology", ["torus", "plain"])
@pytest.mark.parametrize("size", [1, 7, 2000])
@pytest.mark.parametrize("c, lam, block", [
    # the defaults, about ten blocks of 2^14 parents in a chunk of 2000
    (4.0, 20.0, None),
    # about 1.5 parents a replication: many are empty and many straddle a
    # multiple of the block size
    (0.5, 3.0, 16),
])
def test_streamed_ppcluster_equals_the_whole_chunk_draw(monkeypatch, topology, size, c, lam, block):
    # drawn one block of parents at a time, the cluster intensity must equal,
    # bit for bit, ragged_sn over the whole chunk's Poisson parents (padded on
    # a plain window), and leave the generator where that draw leaves it
    if block is not None:
        monkeypatch.setattr(shotnoise, "_BLOCK", block)
    w = make_window([0.0, 0.0], [1.0, 1.0], topology)
    kernel = ClusterKernel(0.1)
    queries = np.array([[0.2, 0.2], [0.5, 0.5], [0.8, 0.6], [0.02, 0.97]])
    gen = make_stream(41).generator()
    got = processes.make_ppcluster_intensity_at(c, lam, kernel, w, queries)(gen, size)
    ref_gen = make_stream(41).generator()
    parents = processes._poisson_batch(c * lam, w, kernel.truncation_radius(), ref_gen, size)
    density = lambda d2: kernel.density(d2, w.dim)
    assert np.array_equal(got, ragged_sn(parents, queries, density, squared=True) / c)
    assert gen.random() == ref_gen.random()
    if size == 2000:
        starts = np.cumsum(parents.counts) - parents.counts
        edge = shotnoise._BLOCK
        assert np.any((starts % edge > 0) & (starts % edge + parents.counts > edge))
        assert np.any(parents.counts == 0) == (block is not None)


def test_marked_basis_shares_support():
    const, marked = processes.sample_marked_poisson_basis(
        10.0, exponential(1.0), W, make_stream(4).generator()
    )
    assert np.array_equal(const.locations, marked.locations)
    assert np.allclose(const.masses, 1.0)


def test_ppcluster_intensity_mean_and_variance_scaling():
    kernel = ClusterKernel(0.1)
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
    kernel = ClusterKernel(0.05)
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
    # sample_ginibre_radii draws m gammas, so m must stay the smallest order
    # with P(Gamma(m, 1) <= b) < 1e-12 by scipy's incomplete gamma
    from scipy import special

    for b in np.append(np.linspace(0.05, 20.0, 406), 2.0):
        m = poisson_tail_order(b)
        assert special.gammainc(m, b) < 1e-12, b
        assert special.gammainc(m - 1, b) >= 1e-12, b


SHIFT = np.array([0.35, 0.15])  # the translation of ops-preservation
POINT_OPS = {
    "thin_iid_half": lambda p, gen: ops.thin_iid(p, 0.5, gen),
    "displace_shift": lambda p, gen: ops.displace(p, lambda x: x + SHIFT),
    "superpose_poisson": lambda p, gen: ops.superpose(
        p, processes.sample_poisson(1.0, p.window, gen)
    ),
}


@pytest.mark.parametrize(
    "topology, cells, dim, op",
    [
        ("torus", 32, 2, None),
        ("torus", 32, 2, "displace_shift"),
        ("plain", 32, 2, "displace_shift"),
        ("torus", 33, 2, None),  # grid cell edges straddle the box edges
        ("torus", 32, 2, "thin_iid_half"),
        ("torus", 32, 2, "superpose_poisson"),
        ("plain", 5, 3, None),
    ],
)
def test_count_samplers_match_point_path_in_law(topology, cells, dim, op):
    # the scenarios' count-level samplers against field -> points -> operation
    # -> count_in: per box the mean and second moment, per pair of boxes the
    # cross moment, for the Poisson and the Cox side, judged as one family
    w = make_window(np.zeros(dim), np.full(dim, 4.0 if dim == 2 else 2.0), topology)
    boxes = _quadrant_boxes(w)
    params = dict(SCENARIOS["ops-preservation"][2], cells_per_axis=cells)
    if op is None:
        count = _box_count_samplers(params, w, boxes)[1:]
    else:
        count = _ops_arms(params, w, boxes)[op][0]
    base = [
        lambda gen: processes.sample_poisson(1.0, w, gen),
        lambda gen: processes.sample_cox(
            processes.sample_ising_field(2.0, 0.0, 0.5, w, [cells] * dim, gen), gen
        ),
    ]
    operate = POINT_OPS.get(op, lambda p, gen: p)
    point = [
        batched(counts_on_boxes(lambda gen, b=b: operate(b(gen), gen), boxes)) for b in base
    ]
    draws = (count[0], point[0], count[1], point[1])
    assert law_verdict(3000, (draws, count[1], make_stream(31))) == CONSISTENT


# disjoint boxes holding 8, 6, 4 and 1 atoms of the lattice of spacing 0.5,
# so that the boxes differ in law and a misplaced incidence column shows
MASS_BOXES = [
    Box([0.0, 0.0], [1.0, 2.0]),
    Box([1.0, 0.0], [2.5, 1.0]),
    Box([2.0, 1.0], [3.0, 2.0]),
    Box([2.5, 0.0], [3.0, 0.5]),
]


def test_box_mass_samplers_match_measure_path_in_law():
    # the scenarios' box-mass samplers against random measure -> mass_in: per
    # box the mean and second moment, per pair of boxes the cross moment, for
    # both lattice masses and both marked sides, judged as one family.  The
    # mark mean 2.5 tells the constant side N E Z apart from the count N.  The
    # atoms and MASS_BOXES lie inside the window, so no sampler here depends
    # on its topology.
    w = make_window([0.0, 0.0], [3.0, 2.0])
    mark = exponential(2.5)
    lattice = [MassDistribution("sum_of_exponentials", (0.5, 0.5)), exponential(1.0)]
    batch = [processes.make_levy_grid_masses(0.5, m, w, MASS_BOXES) for m in lattice] + [
        processes.make_marked_poisson_masses(3.0, m, w, MASS_BOXES)
        for m in (constant(mark.mean()), mark)
    ]
    measures = [
        lambda gen, m=m: processes.sample_levy_grid_basis(0.5, m, w, gen) for m in lattice
    ] + [
        lambda gen, side=side: processes.sample_marked_poisson_basis(3.0, mark, w, gen)[side]
        for side in (0, 1)
    ]
    single = [
        batched(lambda gen, m=m: np.array([mass_in(m(gen), b) for b in MASS_BOXES]))
        for m in measures
    ]
    pairs = [((b, s), b, make_stream(34, k)) for k, (b, s) in enumerate(zip(batch, single))]
    assert law_verdict(2000, *pairs) == CONSISTENT


def test_count_samplers_reject_bad_boxes():
    w = make_window([0, 0], [4, 4])
    overlapping = [Box([0, 0], [2, 2]), Box([1, 1], [3, 3])]
    outside = [Box([3, 3], [5, 5])]
    for boxes in (overlapping, outside):
        with pytest.raises(ValueError):
            processes.make_poisson_counts(1.0, w, boxes)
        with pytest.raises(ValueError):
            processes.make_ising_cox_counts(2.0, 0.0, 0.5, w, [8, 8], boxes)


H_PROBE = ResponseKernel("gaussian", (0.04,))
PROBES = np.array([[0.5, 0.5], [0.02, 0.97], [0.9, 0.3]])  # one near the corners
STRIP = Box([0.9, 0.0], [1.0, 1.0])  # at the edge: sees wrapping and dropping


def _close_pairs(w, pts) -> int:
    """Pairs of points closer than 0.05: sees the cluster spread."""
    return (np.count_nonzero(pairwise_distances(w, pts, pts) < 0.05) - len(pts)) // 2


def _pattern_probe(p) -> np.ndarray:
    return np.hstack(
        [p.n, count_in(p, STRIP), _close_pairs(p.window, p.points), additive_sn(p, H_PROBE, PROBES)]
    )


def _batch_probe(batch) -> np.ndarray:
    strip = np.bincount(batch.replication(), STRIP.contains(batch.points), batch.size)
    split = np.split(batch.points, np.cumsum(batch.counts)[:-1])
    pairs = [_close_pairs(batch.window, pts) for pts in split]
    return np.column_stack([batch.counts, strip, pairs, ragged_sn(batch, PROBES, H_PROBE.value)])


WP = make_window([0.0, 0.0], [1.0, 1.0], "plain")
KERNEL = ClusterKernel(0.1)
BATCH_CASES = {
    # name: (batch draw (gen, size) -> (size, k), per-realization draw gen -> (k,))
    "poisson": (
        lambda gen, size: _batch_probe(processes.make_poisson_batch(20.0, W)(gen, size)),
        lambda gen: _pattern_probe(processes.sample_poisson(20.0, W, gen)),
    ),
    "thomas-torus": (
        lambda gen, size: _batch_probe(processes.make_thomas_batch(4.0, 5.0, 0.05, W)(gen, size)),
        lambda gen: _pattern_probe(processes.make_thomas_sampler(4.0, 5.0, 0.05, W)(gen)),
    ),
    "thomas-plain": (
        lambda gen, size: _batch_probe(processes.make_thomas_batch(4.0, 5.0, 0.05, WP)(gen, size)),
        lambda gen: _pattern_probe(processes.make_thomas_sampler(4.0, 5.0, 0.05, WP)(gen)),
    ),
    "ppcluster-c4": (
        processes.make_ppcluster_intensity_at(4.0, 20.0, KERNEL, W, PROBES),
        lambda gen: processes.ppcluster_intensity_at(4.0, 20.0, KERNEL, W, PROBES, gen),
    ),
    "ppcluster-c0.5": (
        processes.make_ppcluster_intensity_at(0.5, 20.0, KERNEL, W, PROBES),
        lambda gen: processes.ppcluster_intensity_at(0.5, 20.0, KERNEL, W, PROBES, gen),
    ),
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batch_samplers_match_per_realization_samplers_in_law(case):
    # per probe (the point count, the count in an edge strip, close pairs
    # and shot noise at three queries, or the cluster intensity at the
    # queries) the mean and the second moment, per pair of probes the cross
    # moment, batch draw against per-realization draw, judged as one
    # two-sided family
    batch, single = BATCH_CASES[case]
    assert law_verdict(4000, ((batch, batched(single)), batch, make_stream(32))) == CONSISTENT


# ---------------------------------------------------------------------------
# Exact oracles: the batch samplers' per-axis arithmetic against the
# broadcast formulas it replaced, on the same generator state

AXIS_WINDOWS = [
    ([0.3], [2.1]),
    ([-0.4, 1.25], [0.8, 3.0]),
    ([0.1, -2.0, 5.0], [1.3, -1.1, 5.7]),
]


def _poisson_batch_oracle(lam, w, pad, gen, size):
    lows, lengths = w.lows, w.lengths
    if w.topology != "torus":
        lows, lengths = lows - pad, lengths + 2 * pad
    counts = gen.poisson(lam * float(np.prod(lengths)), size=size)
    return lows + gen.random((int(counts.sum()), w.dim)) * lengths, counts


def _thomas_batch_oracle(parent_lam, cluster_size, sigma, w, gen, size):
    kernel = ClusterKernel(sigma)
    parents, counts = _poisson_batch_oracle(parent_lam, w, kernel.truncation_radius(), gen, size)
    n_child = gen.poisson(cluster_size, size=parents.shape[0])
    children = np.repeat(parents, n_child, axis=0)
    children += kernel.sample_offsets(gen, children.shape[0], w.dim)
    rep = np.repeat(np.repeat(np.arange(size), counts), n_child)
    if w.topology == "torus":
        children = wrap_oracle(w, children)
    else:
        keep = np.all((children >= w.lows) & (children <= w.highs), axis=1)
        children, rep = children[keep], rep[keep]
    return children, np.bincount(rep, minlength=size)


@pytest.mark.parametrize("topology", ["torus", "plain"])
@pytest.mark.parametrize("lows, highs", AXIS_WINDOWS)
def test_batch_samplers_match_broadcast_formulas(lows, highs, topology):
    w = make_window(lows, highs, topology)
    lam = 60.0 / w.volume
    for seed in range(3):
        batch = processes.make_poisson_batch(lam, w)(make_stream(seed).generator(), 50)
        pts, counts = _poisson_batch_oracle(lam, w, 0.0, make_stream(seed).generator(), 50)
        assert np.array_equal(batch.points, pts) and np.array_equal(batch.counts, counts)
        # sigma near the shortest side: many children leave the window
        sigma = 0.3 * float(w.lengths.min())
        batch = processes.make_thomas_batch(lam / 5, 5.0, sigma, w)(make_stream(seed).generator(), 50)
        pts, counts = _thomas_batch_oracle(lam / 5, 5.0, sigma, w, make_stream(seed).generator(), 50)
        assert np.array_equal(batch.points, pts) and np.array_equal(batch.counts, counts)
        assert batch.points.shape[0] > 1000



@pytest.mark.parametrize("topology", ["torus", "plain"])
def test_thomas_batch_counts_match_per_child_replication_index(topology):
    # about one parent per replication and one child per parent, so many
    # replications hold no point: the counts, summed per parent on a torus,
    # equal the bincount of a per-child replication index
    w = make_window([-0.4, 1.25], [0.8, 3.0], topology)
    lam = 1.0 / w.volume
    for seed in range(3):
        batch = processes.make_thomas_batch(lam, 1.0, 0.1, w)(make_stream(seed).generator(), 400)
        pts, counts = _thomas_batch_oracle(lam, 1.0, 0.1, w, make_stream(seed).generator(), 400)
        assert np.array_equal(batch.points, pts) and np.array_equal(batch.counts, counts)
        assert batch.counts.dtype == counts.dtype
        assert 50 < np.count_nonzero(counts == 0) < 350

def _lattice_index_oracle(w, points, shift, spacing, n_lattice):
    if w.topology == "torus":
        return np.floor((points - w.lows - shift) / spacing).astype(int) % n_lattice, n_lattice
    idx = np.floor((points - shift) / spacing).astype(int)
    idx -= idx.min(axis=-2, keepdims=True)
    return idx, np.max(np.reshape(idx.max(axis=-2) + 1, (-1, w.dim)), axis=0)


@pytest.mark.parametrize("topology", ["torus", "plain"])
@pytest.mark.parametrize("lows, highs, cells", [
    ([0.5], [7.5], [20]),
    ([0.5, -1.0], [4.5, 2.0], [12, 7]),
    ([-2.0, 0.0, 3.0], [1.0, 2.0, 4.0], [5, 4, 3]),
])
def test_lattice_index_matches_broadcast_formula(lows, highs, cells, topology):
    w = make_window(lows, highs, topology)
    field = GridField(w, cells, np.zeros(cells))
    n_lattice = processes._lattice_size(w)
    gen = make_stream(6).generator()
    # one (d,) shift, as the field draws it, and the count sampler's (size, d)
    # shifts; the oracle takes the grid's (cells, d) midpoints
    grid = [g.ravel() for g in np.meshgrid(*[np.arange(c) for c in cells], indexing="ij")]
    for shift in (gen.random(w.dim), gen.random((40, w.dim))):
        idx, n_lat = processes._lattice_index(w, field.axis_midpoints(), shift, n_lattice)
        # each axis's (..., cells_k) index spread over the grid, in midpoints() order
        got = np.stack([i[..., g] for i, g in zip(idx, grid)], axis=-1)
        want, want_n = _lattice_index_oracle(w, field.midpoints(), shift[..., None, :], 1.0, n_lattice)
        assert np.array_equal(got, want)
        assert np.array_equal(n_lat, want_n)


@pytest.mark.parametrize("topology", ["torus", "plain"])
@pytest.mark.parametrize("lows, highs, cells", [
    ([0.5], [7.5], [20]),
    # the default window: cell 8 of axis 0 has midpoint 1.0625, fraction 0.0625
    ([0.0, 0.0], [4.0, 4.0], [32, 32]),
    # the midpoints 1.0 and 3.0 of axis 0 lie on lattice lines, and on the
    # plain window two midpoints of axis 1 lie in (-1, 0)
    ([0.0, -1.0], [4.0, 2.0], [2, 7]),
    ([-2.0, 0.0, 3.0], [1.0, 2.0, 4.0], [5, 4, 3]),
])
def test_lattice_index_steps_one_double_past_each_fraction(lows, highs, cells, topology):
    # the lattice rule: a grid cell with offset u over the spacing and fraction
    # g = spacing * (u - floor(u)) keeps its shift-0 index for shifts up to g
    # and is one lower from the next double on; checked at every cell's g and
    # the double after it, where a floating-point floor of u - s can miss
    w = make_window(lows, highs, topology)
    field = GridField(w, cells, np.zeros(cells))
    axes, n_lattice = field.axis_midpoints(), processes._lattice_size(w)
    zero, _ = processes._lattice_index(w, axes, np.zeros(w.dim), n_lattice)
    for k, (a, lo) in enumerate(zip(axes, w.lows)):
        u = (a - lo if topology == "torus" else a) / processes.ISING_SPACING
        frac = processes.ISING_SPACING * (u - np.floor(u))
        shift = np.zeros((2 * a.size, w.dim))
        shift[:, k] = np.concatenate([frac, np.nextafter(frac, np.inf)])
        idx = processes._lattice_index(w, axes, shift, n_lattice)[0][k]
        want = zero[k] - (shift[:, k, None] > frac)
        if topology == "torus":
            assert np.array_equal(idx, want % n_lattice[k])
        else:
            # a plain window numbers each shift's cells from 0
            assert np.array_equal(idx, want - want.min(axis=1, keepdims=True))


@pytest.mark.parametrize("topology", ["torus", "plain"])
@pytest.mark.parametrize("lows, highs, cells, translate", [
    ([0.5], [7.5], [20], 0.0),
    # the midpoints 1.0 and 3.0 of axis 0 lie on lattice lines
    ([0.0, -1.0], [4.0, 2.0], [2, 7], [0.35, 0.15]),
    ([-2.0, 0.0, 3.0], [1.0, 2.0, 4.0], [5, 4, 3], [0.3, -0.45, 0.1]),
])
def test_occupancy_lookup_matches_lattice_index(lows, highs, cells, translate, topology):
    # the tabled occupancies of make_ising_cox_counts against _occupancy of
    # _lattice_index, bit for bit, at each axis's breakpoints, one ulp below
    # them, 0 and the largest shift below the spacing
    w = make_window(lows, highs, topology)
    field = GridField(w, cells, np.zeros(cells))
    axes, n_lattice = field.axis_midpoints(), processes._lattice_size(w)
    ovs = processes._preimage_overlaps(w, field.cells_per_axis, _quadrant_boxes(w), translate)
    tables = processes._occupancy_tables(w, axes, ovs, n_lattice)
    top = np.nextafter(processes.ISING_SPACING, 0.0)
    gen = make_stream(8).generator()
    for k, (breaks, _, _) in enumerate(tables):
        assert breaks.size > 0
        points = np.concatenate([breaks, np.nextafter(breaks, 0.0), [0.0, top]])
        shift = gen.random((points.size, w.dim))
        shift[:, k] = points
        # the whole batch, and each shift alone, since a plain window's
        # lattice size is the largest in the batch
        for s in [shift, *shift[:, None]]:
            occ, n_lat = processes._lookup_occupancy(tables, s)
            idx, want_n = processes._lattice_index(w, axes, s, n_lattice)
            assert np.array_equal(n_lat, want_n)
            for got, i, n, ov in zip(occ, idx, want_n, ovs):
                want = processes._occupancy(i, n, ov)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
