"""Samplers for the point-process and random-measure families under comparison.

The per-realization samplers, each drawing from one numpy ``Generator``
``gen``, are the reference for the law.  The scenarios draw a whole chunk at
once with batch samplers (gen, size) of the same law: count-level samplers (``make_poisson_counts``, ``make_ising_cox_counts``)
return (size, boxes) box counts, box-mass samplers
(``make_levy_grid_masses``, ``make_marked_poisson_masses``) return (size,
boxes) box masses, and ragged samplers (``make_poisson_batch``,
``make_thomas_batch``) return a ``PatternBatch``: the points (N, d) of all
realizations in replication order and the per-replication counts (size,),
which ``shotnoise.ragged_sn`` reduces in replication-aligned blocks.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .distributions import (
    ClusterKernel,
    CovarianceSpec,
    MassDistribution,
    cholesky_with_jitter,
    poisson_tail_order,
)
from .geometry import (
    PLAIN,
    TORUS,
    AtomicMeasure,
    GridField,
    PatternBatch,
    PointPattern,
    Window,
    boxes_disjoint,
    cell_overlaps,
    pairwise_distances,
    sq_distances,
)
from .shotnoise import ragged_sn, replication_blocks

LGCP_CELL_CAP = 10_000


def _uniform_points(
    gen: np.random.Generator, n: int, lows: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """(n, d) points uniform on the box lows + [0, lengths): lows + u *
    lengths, one axis at a time, on one (n, d) draw."""
    pts = gen.random((n, lows.shape[0]))
    for col, lo, length in zip(pts.T, lows, lengths):
        col *= length
        col += lo
    return pts


def sample_poisson(lam: float, w: Window, gen: np.random.Generator) -> PointPattern:
    """Homogeneous Poisson pattern of intensity lam on w."""
    if lam <= 0:
        raise ValueError("intensity must be positive")
    n = gen.poisson(lam * w.volume)
    return PointPattern(w, _uniform_points(gen, n, w.lows, w.lengths))


def sample_cox(field: GridField, gen: np.random.Generator) -> PointPattern:
    """Exact Cox sample for a piecewise-constant intensity: per-cell Poisson counts,
    points uniform within their cell."""
    w = field.window
    means = field.values.ravel() * field.cell_volume
    counts = gen.poisson(means)
    flat_idx = np.repeat(np.arange(means.size), counts)
    multi = np.unravel_index(flat_idx, tuple(field.cells_per_axis))
    lows = w.lows + np.stack(multi, axis=1) * field.cell_lengths
    pts = lows + gen.random((flat_idx.size, w.dim)) * field.cell_lengths
    return PointPattern(w, pts)


def sample_mixed_poisson(
    mix: MassDistribution, w: Window, gen: np.random.Generator
) -> PointPattern:
    """Mixed Poisson: one random intensity level, then homogeneous Poisson."""
    lam = float(mix.sample(gen))
    n = gen.poisson(lam * w.volume)
    return PointPattern(w, _uniform_points(gen, n, w.lows, w.lengths))


def _check_spins(mu1: float, mu2: float, p_plus: float) -> None:
    if mu2 > mu1:
        raise ValueError("need mu2 <= mu1")
    if not 0.0 <= p_plus <= 1.0:
        raise ValueError("p_plus must be a probability")


def _lattice_size(w: Window) -> np.ndarray:
    """Spin-lattice cells per axis; on a torus each side must be a whole
    multiple of the spacing."""
    n_lattice = np.rint(w.lengths / ISING_SPACING).astype(int)
    if w.topology == TORUS and np.any(np.abs(n_lattice * ISING_SPACING - w.lengths) > 1e-9 * w.lengths):
        raise ValueError("on a torus each window side must be a whole multiple of the spacing")
    return n_lattice


def _lattice_offsets(w: Window, axes: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """The lattice rule, per axis: each grid cell's lattice cell at shift 0,
    floor(u), and its fraction g = ISING_SPACING * (u - floor(u)), where u is
    the cell's midpoint over the spacing, less the window's lower corner on a
    torus.  A shift s moves the cell to floor(u) - (s > g); for u >= 0 the
    fraction is exact (Sterbenz), so that is the exact floor of u - s / spacing.
    """
    out = []
    for a, lo in zip(axes, w.lows):
        u = (a - lo if w.topology == TORUS else a) / ISING_SPACING
        start = np.floor(u)
        out.append((start.astype(int), ISING_SPACING * (u - start)))
    return out


def _lattice_index(
    w: Window, axes: list[np.ndarray], shift: np.ndarray, n_lattice: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Spin-lattice cell of each grid cell along each axis, one (..., cells_k)
    array per axis, and the lattice size (d,).

    axes holds the grid's cell midpoints along each axis (cells_k,), and the
    lattice shift is (..., d); each axis follows _lattice_offsets.  On a torus
    the lattice is periodic with n_lattice cells per axis; on a plain window it
    is the cells the grid meets, numbered from 0 along each axis (per leading
    index), and its size is the largest such count.
    """
    rule = _lattice_offsets(w, axes)
    idx = [start - (shift[..., k, None] > frac) for k, (start, frac) in enumerate(rule)]
    if w.topology == TORUS:
        return [i % n for i, n in zip(idx, n_lattice)], n_lattice
    idx = [i - i.min(axis=-1, keepdims=True) for i in idx]
    return idx, np.array([i.max() + 1 for i in idx])


# Lattice spacing of the spin-lattice field, shared by the point and the count path.
ISING_SPACING = 1.0


def sample_ising_field(
    mu1: float,
    mu2: float,
    p_plus: float,
    w: Window,
    cells_per_axis,
    gen: np.random.Generator,
) -> GridField:
    """Randomly shifted lattice field of spacing ISING_SPACING taking mu1 w.p.
    p_plus else mu2, i.i.d. per lattice cell, resampled onto the requested grid
    at cell midpoints.

    On a torus the lattice is periodic (each side must be a whole multiple of
    the spacing), so the cell that wraps around the window has one spin.
    """
    _check_spins(mu1, mu2, p_plus)
    n_lattice = _lattice_size(w)
    shift = gen.random(w.dim) * ISING_SPACING
    field = GridField(w, cells_per_axis, np.zeros(tuple(np.atleast_1d(cells_per_axis))))
    lattice_idx, n_lattice = _lattice_index(w, field.axis_midpoints(), shift, n_lattice)
    spins = gen.random(tuple(n_lattice)) < p_plus
    return GridField(w, cells_per_axis, np.where(spins[np.ix_(*lattice_idx)], mu1, mu2))


# ---------------------------------------------------------------------------
# Count-level samplers: given its intensity L, a Cox process has independent
# Poisson(L(B)) counts on disjoint boxes B, so box counts are drawn without
# points.  Each sampler is a batch draw (gen, size) -> (size, len(boxes)) with
# the law of the point samplers above followed by count_in on every box.

def _preimage_overlaps(w: Window, cells_per_axis, boxes, translate) -> list[np.ndarray]:
    """cell_overlaps of the grid with the pre-images B - translate of the boxes:
    wrapped around a torus, clipped to a plain window (ops.displace drops the
    points that leave it)."""
    lows = np.array([b.lows for b in boxes])
    highs = np.array([b.highs for b in boxes])
    if not (boxes_disjoint(boxes) and w.contains(lows).all() and w.contains(highs).all()):
        raise ValueError("boxes must be pairwise disjoint and lie in the window")
    lows, highs = lows - translate, highs - translate
    if w.topology != TORUS:
        return cell_overlaps(w, cells_per_axis, lows, highs)
    wrapped = w.lows + np.mod(lows - w.lows, w.lengths)
    highs = wrapped + (highs - lows)
    # the part of a wrapped box beyond the window's upper edge re-enters at its lower edge
    upper = cell_overlaps(w, cells_per_axis, wrapped, highs)
    lower = cell_overlaps(w, cells_per_axis, wrapped - w.lengths, highs - w.lengths)
    return [a + b for a, b in zip(upper, lower)]


def _occupancy(idx: np.ndarray, n_lat: int, ov: np.ndarray) -> np.ndarray:
    """(size, n_lat, boxes) sums of the grid cells' box overlaps ov (cells, boxes)
    over the cells that idx (size, cells) maps to each lattice cell."""
    size = idx.shape[0]
    flat = (idx + n_lat * np.arange(size)[:, None]).ravel()
    sums = [np.bincount(flat, np.tile(col, size), size * n_lat) for col in ov.T]
    return np.stack(sums, axis=-1).reshape(size, n_lat, -1)


def _occupancy_tables(w: Window, axes, ovs, n_lattice: np.ndarray) -> list[tuple]:
    """Per axis k, the sorted distinct shifts in (0, ISING_SPACING) at which
    a grid cell's lattice index changes, the (intervals, n_lat_k, boxes)
    _occupancy of each interval between them, and each interval's lattice
    size n_lat_k.

    A cell with fraction g (_lattice_offsets) changes index at s > g, that is
    at s >= nextafter(g, inf), so these breakpoints are read off the rule
    _lattice_index follows.  A shift s_k in interval m = searchsorted(breaks,
    s_k, side="right") thus maps every grid cell as the interval's start does,
    and its occupancy is row m, made by _lattice_index and _occupancy at that
    start: the same sums in the same order as for s_k itself.  On a plain
    window a row is padded with zero lattice cells up to the widest row.
    """
    tables = []
    for k, ((_, frac), ov) in enumerate(zip(_lattice_offsets(w, axes), ovs)):
        b = np.sort(np.nextafter(frac, np.inf))
        breaks = b[np.append(b[1:] != b[:-1], True) & (b < ISING_SPACING)]
        starts = np.zeros((breaks.size + 1, w.dim))
        starts[1:, k] = breaks
        idx, n_lat = _lattice_index(w, axes, starts, n_lattice)
        rows = np.full(starts.shape[0], n_lat[k]) if w.topology == TORUS else idx[k].max(axis=1) + 1
        tables.append((breaks, _occupancy(idx[k], n_lat[k], ov), rows))
    return tables


def _lookup_occupancy(tables: list[tuple], shift: np.ndarray) -> tuple[list[np.ndarray], list]:
    """For (size, d) lattice shifts, the per-axis (size, n_lat_k, boxes)
    occupancies and the lattice size, as _occupancy of _lattice_index gives
    them: on a plain window n_lat_k is the widest row the shifts meet."""
    occ, n_lat = [], []
    for k, (breaks, table, rows) in enumerate(tables):
        m = np.searchsorted(breaks, shift[:, k], side="right")
        n = rows[m].max()
        occ.append(table[m, :n])
        n_lat.append(n)
    return occ, n_lat


def make_poisson_counts(lam: float, w: Window, boxes, translate=0.0) -> Callable:
    """Counts of the homogeneous Poisson process on the boxes (translated by
    ``translate`` as ops.displace does): independent Poisson(lam |B - t|)."""
    if lam <= 0:
        raise ValueError("intensity must be positive")
    ovs = _preimage_overlaps(w, np.ones(w.dim, dtype=int), boxes, translate)
    means = lam * np.prod([ov[0] for ov in ovs], axis=0)
    return lambda gen, size: gen.poisson(means, size=(size, means.size))


def make_ising_cox_counts(
    mu1: float,
    mu2: float,
    p_plus: float,
    w: Window,
    cells_per_axis,
    boxes,
    translate=0.0,
) -> Callable:
    """Counts of the spin-lattice Cox process (sample_ising_field, then
    sample_cox) on the boxes, translated by ``translate`` as ops.displace does.

    A grid cell takes the spin of the lattice cell holding its midpoint, so
    L(B) = sum over lattice cells l of value(l) * prod_k occ_k(l_k, B), where
    occ_k(l, B) is the length along axis k of the grid cells mapped to l inside
    B.  Only (size, lattice cells, boxes) arrays are built, never the grid.
    Each occ_k takes one of at most cells_k + 1 values as the shift runs over
    a lattice cell, changing only where it passes a grid cell's fraction
    (_lattice_offsets), so they are tabled once at those breakpoints
    (_occupancy_tables) and looked up, as _lattice_index would map each shift.
    """
    _check_spins(mu1, mu2, p_plus)
    n_lattice = _lattice_size(w)
    field = GridField(w, cells_per_axis, np.zeros(tuple(np.atleast_1d(cells_per_axis))))
    ovs = _preimage_overlaps(w, field.cells_per_axis, boxes, translate)
    tables = _occupancy_tables(w, field.axis_midpoints(), ovs, n_lattice)

    def draw(gen: np.random.Generator, size: int) -> np.ndarray:
        shift = gen.random((size, w.dim)) * ISING_SPACING
        occ, n_lat = _lookup_occupancy(tables, shift)
        values = np.where(gen.random((size, *n_lat)) < p_plus, mu1, mu2)
        # contract the last lattice axis by a batched matmul, then each
        # remaining axis, last first, by a multiply and a sum
        mean = (values.reshape(size, -1, n_lat[-1]) @ occ[-1]).reshape(size, *n_lat[:-1], -1)
        for k in range(w.dim - 2, -1, -1):
            mean *= occ[k].reshape(size, *[1] * k, n_lat[k], -1)
            mean = mean.sum(axis=-2)
        return gen.poisson(mean)

    return draw


def lattice_points(spacing: float, w: Window) -> np.ndarray:
    """(atoms, d) lattice atoms inside w: the centres of the cells of side
    ``spacing`` laid from the window's lower corner."""
    if spacing <= 0:
        raise ValueError("lattice spacing must be positive")
    axes = [np.arange(w.lows[k] + spacing / 2, w.highs[k], spacing) for k in range(w.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def sample_levy_grid_basis(
    lattice_spacing: float, mass: MassDistribution, w: Window, gen: np.random.Generator
) -> AtomicMeasure:
    """Atoms on a deterministic lattice inside w with i.i.d. non-negative masses."""
    locs = lattice_points(lattice_spacing, w)
    masses = np.asarray(mass.sample(gen, size=locs.shape[0]), dtype=float)
    return AtomicMeasure(w, locs, masses)


def sample_marked_poisson_basis(
    lam: float, mark: MassDistribution, w: Window, gen: np.random.Generator
) -> tuple[AtomicMeasure, AtomicMeasure]:
    """One Poisson support carrying constant masses E(Z) and i.i.d. marks Z.

    The law reference of ``make_marked_poisson_masses``; the program draws
    each side on its own and never uses the shared support.
    """
    pts = _uniform_points(gen, gen.poisson(lam * w.volume), w.lows, w.lengths)
    marks = np.asarray(mark.sample(gen, size=pts.shape[0]), dtype=float)
    const = np.full(pts.shape[0], mark.mean())
    return AtomicMeasure(w, pts, const), AtomicMeasure(w, pts, marks)


# ---------------------------------------------------------------------------
# Box-mass samplers: batch draws (gen, size) -> (size, len(boxes)) with the
# law of a per-realization random measure followed by mass_in on every box.

def make_levy_grid_masses(
    lattice_spacing: float, mass: MassDistribution, w: Window, boxes
) -> Callable:
    """Box masses of sample_levy_grid_basis: the lattice is fixed, so one
    (atoms, boxes) incidence matrix sums a (size, atoms) mass draw per box."""
    locs = lattice_points(lattice_spacing, w)
    incidence = np.column_stack([b.contains(locs) for b in boxes]).astype(float)
    return lambda gen, size: mass.sample(gen, size=(size, locs.shape[0])) @ incidence


def make_marked_poisson_masses(lam: float, mark: MassDistribution, w: Window, boxes) -> Callable:
    """Box masses of a homogeneous Poisson process with i.i.d. marks ``mark``
    on pairwise-disjoint boxes: Poisson box counts N, then N marks per box
    summed by one bincount.  With ``constant(E Z)`` marks this is N E Z, the
    constant side of sample_marked_poisson_basis; with Z its marked side."""
    counts = make_poisson_counts(lam, w, boxes)

    def draw(gen: np.random.Generator, size: int) -> np.ndarray:
        n = counts(gen, size)
        marks = mark.sample(gen, size=int(n.sum()))
        cell = np.repeat(np.arange(n.size), n.ravel())
        return np.bincount(cell, marks, n.size).reshape(n.shape)

    return draw


def _parent_box(w: Window, pad: float) -> tuple[np.ndarray, np.ndarray]:
    """Lows and lengths of the box that cluster parents are drawn on: the
    window padded by ``pad`` when it is plain, so parents lie partly outside
    it, while on a torus the clusters wrap."""
    if w.topology == TORUS:
        return w.lows, w.lengths
    return w.lows - pad, w.lengths + 2 * pad


def _poisson_batch(
    lam: float, w: Window, pad: float, gen: np.random.Generator, size: int
) -> PatternBatch:
    """``size`` independent Poisson(lam) patterns as one batch on
    _parent_box(w, pad): the counts, then one uniform draw for all points."""
    lows, lengths = _parent_box(w, pad)
    counts = gen.poisson(lam * float(np.prod(lengths)), size=size)
    return PatternBatch(w, _uniform_points(gen, int(counts.sum()), lows, lengths), counts)


def ppcluster_intensity_at(
    c: float, lam: float, kernel: ClusterKernel, w: Window, queries: np.ndarray,
    gen: np.random.Generator,
) -> np.ndarray:
    """One draw of the shot-noise intensity sum_parents h(parent, y)/c over
    Poisson(c*lam) parents, evaluated exactly at the query points."""
    if c <= 0 or lam <= 0:
        raise ValueError("c and lam must be positive")
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    parents = _poisson_batch(c * lam, w, kernel.truncation_radius(), gen, 1).points
    return kernel.density(sq_distances(w, parents[:, None], queries), w.dim).sum(axis=0) / c


def sample_ppcluster_intensity(
    c: float, lam: float, kernel: ClusterKernel, w: Window, cells_per_axis, gen: np.random.Generator
) -> GridField:
    """ppcluster_intensity_at evaluated at the grid midpoints."""
    field = GridField(w, cells_per_axis, np.zeros(tuple(np.atleast_1d(cells_per_axis))))
    vals = ppcluster_intensity_at(c, lam, kernel, w, field.midpoints(), gen)
    return GridField(w, cells_per_axis, vals.reshape(field.values.shape))


def sample_ppcluster(
    c: float, lam: float, kernel: ClusterKernel, w: Window, cells_per_axis, gen: np.random.Generator
) -> PointPattern:
    """Cox sample driven by the Poisson-Poisson cluster intensity."""
    return sample_cox(sample_ppcluster_intensity(c, lam, kernel, w, cells_per_axis, gen), gen)


def make_lgcp_sampler(
    mean: float, cov: CovarianceSpec, w: Window, cells_per_axis
) -> Callable[[np.random.Generator], PointPattern]:
    """Log-Gaussian Cox sampler with the grid covariance factorized once."""
    field0 = GridField(w, cells_per_axis, np.zeros(tuple(np.atleast_1d(cells_per_axis))))
    mids = field0.midpoints()
    if mids.shape[0] > LGCP_CELL_CAP:
        raise ValueError(f"grid exceeds {LGCP_CELL_CAP} cells for the Gaussian factorization")
    if cov.variance == 0.0:
        chol = None
    else:
        chol = cholesky_with_jitter(cov.value(pairwise_distances(w, mids, mids)))

    def draw(gen: np.random.Generator) -> PointPattern:
        if chol is None:
            g = np.full(mids.shape[0], mean)
        else:
            g = mean + chol @ gen.standard_normal(mids.shape[0])
        field = GridField(w, cells_per_axis, np.exp(g).reshape(field0.values.shape))
        return sample_cox(field, gen)

    return draw


def sample_gnscp(
    parent_sampler: Callable,
    gamma_dist: MassDistribution,
    b_dist: MassDistribution,
    k1: ClusterKernel,
    w: Window,
    gen: np.random.Generator,
) -> PointPattern:
    """Generalized shot-noise Cox sample: parents marked with (weight, bandwidth),
    each spawning a Poisson(weight) cluster displaced by the bandwidth-scaled kernel.

    Given the parents and marks, the cluster union is exactly a Poisson pattern
    with the scaled-kernel superposition intensity, so no grid discretization
    is involved.  The Thomas process (gaussian k1) is the b == 1,
    gamma == const, Poisson-parent special case.
    """
    parents = parent_sampler(gen)
    clusters = [np.empty((0, w.dim))]
    for j in range(parents.n):
        gamma_j = float(gamma_dist.sample(gen))
        b_j = float(b_dist.sample(gen))
        n_j = gen.poisson(gamma_j)
        if n_j == 0:
            continue
        offs = k1.sample_offsets(gen, n_j, w.dim) * b_j
        clusters.append(parents.points[j] + offs)
    # wrapping and clipping act point by point, so once over all clusters
    children = np.concatenate(clusters)
    if w.topology == TORUS:
        return PointPattern(w, w.wrap(children))
    return PointPattern(w, children[w.contains(children)])


def make_thomas_sampler(
    parent_lam: float, cluster_size: float, sigma: float, w: Window
) -> Callable[[np.random.Generator], PointPattern]:
    """Thomas process of total intensity parent_lam * cluster_size."""
    kernel = ClusterKernel(sigma)
    gamma = MassDistribution("constant", (cluster_size,))
    b_one = MassDistribution("constant", (1.0,))

    def parents(gen):
        pad = kernel.truncation_radius()
        pts = _poisson_batch(parent_lam, w, pad, gen, 1).points
        if w.topology == TORUS:
            return PointPattern(w, pts)
        # padded parents live outside the window; carry them in an enlarged one
        w_pad = Window(w.lows - pad, w.highs + pad, PLAIN)
        return PointPattern(w_pad, pts)

    return lambda gen: sample_gnscp(parents, gamma, b_one, kernel, w, gen)


# ---------------------------------------------------------------------------
# Ragged batch samplers: (gen, size) -> PatternBatch of ``size`` independent
# realizations, with the law of the per-realization sampler named.

def make_poisson_batch(lam: float, w: Window) -> Callable:
    """Batch sampler of sample_poisson(lam, w)."""
    if lam <= 0:
        raise ValueError("intensity must be positive")
    return lambda gen, size: _poisson_batch(lam, w, 0.0, gen, size)


def make_thomas_batch(
    parent_lam: float, cluster_size: float, sigma: float, w: Window
) -> Callable:
    """Batch sampler of make_thomas_sampler(parent_lam, cluster_size, sigma, w):
    Poisson parents, Poisson(cluster_size) children per parent displaced by
    Gaussian offsets; children wrap on a torus, while on a plain window the
    parents are padded and children outside the window dropped."""
    kernel = ClusterKernel(sigma)
    pad = kernel.truncation_radius()

    def draw(gen: np.random.Generator, size: int) -> PatternBatch:
        parents = _poisson_batch(parent_lam, w, pad, gen, size)
        n_child = gen.poisson(cluster_size, size=parents.points.shape[0])
        children = np.repeat(parents.points, n_child, axis=0)
        children += kernel.sample_offsets(gen, children.shape[0], w.dim)
        if w.topology == TORUS:
            # every child stays: its replication's count is its parents' total
            counts = np.bincount(parents.replication(), n_child, size).astype(int)
            return PatternBatch(w, w.wrap(children), counts)
        rep = np.repeat(parents.replication(), n_child)
        keep = w.contains(children)
        return PatternBatch(w, children[keep], np.bincount(rep[keep], minlength=size))

    return draw


def make_ppcluster_intensity_at(
    c: float, lam: float, kernel: ClusterKernel, w: Window, queries: np.ndarray
) -> Callable:
    """Batch sampler (gen, size) -> (size, len(queries)) of
    ppcluster_intensity_at: Poisson(c lam) parents, the kernel density summed
    over each replication's parents, divided by c.

    The parents are _poisson_batch's, the same doubles in the same order,
    but drawn one block of shotnoise.replication_blocks at a time after the
    chunk's counts, and each block is reduced before the next is drawn: a
    chunk never holds more than a block of parents.  The density takes
    ragged_sn's squared distances as they are.
    """
    if c <= 0 or lam <= 0:
        raise ValueError("c and lam must be positive")
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    lows, lengths = _parent_box(w, kernel.truncation_radius())
    mean = c * lam * float(np.prod(lengths))
    density = lambda d: kernel.density(d, w.dim)

    def draw(gen: np.random.Generator, size: int) -> np.ndarray:
        counts = gen.poisson(mean, size=size)
        out = np.zeros((size, queries.shape[0]))
        for lo, hi, first, last in replication_blocks(counts):
            parents = _uniform_points(gen, last - first, lows, lengths)
            batch = PatternBatch(w, parents, counts[lo:hi])
            out[lo:hi] = ragged_sn(batch, queries, density)
        out /= c
        return out

    return draw


def sample_ginibre_radii(b_max: float, gen: np.random.Generator) -> PointPattern:
    """One-dimensional pattern on [0, b_max]: the k-th smallest point of the k-th
    of i.i.d. unit Poisson processes on the half-line, kept if <= b_max."""
    if b_max <= 0:
        raise ValueError("b_max must be positive")
    # P(Gamma(m, 1) <= b_max) = P(Poisson(b_max) >= m) < POISSON_TAIL
    m = poisson_tail_order(b_max)
    gammas = gen.gamma(np.arange(1, m + 1), 1.0)
    kept = gammas[gammas <= b_max]
    w = Window(np.array([0.0]), np.array([b_max]), PLAIN)
    return PointPattern(w, kept.reshape(-1, 1))
