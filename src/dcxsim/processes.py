"""Samplers for the point-process and random-measure families under comparison."""
from __future__ import annotations

from typing import Callable, Optional

import numpy as np
from scipy import special

from .distributions import ClusterKernel, CovarianceSpec, MassDistribution, cholesky_with_jitter
from .geometry import (
    PLAIN,
    TORUS,
    AtomicMeasure,
    GridField,
    PointPattern,
    Window,
    as_generator,
    pairwise_distances,
)

LGCP_CELL_CAP = 10_000


def _uniform_points(w: Window, n: int, gen: np.random.Generator) -> np.ndarray:
    return w.lows + gen.random((n, w.dim)) * w.lengths


def sample_poisson(lam: float, w: Window, rng) -> PointPattern:
    """Homogeneous Poisson pattern of intensity lam on w."""
    if lam <= 0:
        raise ValueError("intensity must be positive")
    gen = as_generator(rng)
    n = gen.poisson(lam * w.volume)
    return PointPattern(w, _uniform_points(w, n, gen))


def sample_cox(field: GridField, rng) -> PointPattern:
    """Exact Cox sample for a piecewise-constant intensity: per-cell Poisson counts,
    points uniform within their cell."""
    gen = as_generator(rng)
    w = field.window
    means = field.values.ravel() * field.cell_volume
    counts = gen.poisson(means)
    total = int(counts.sum())
    if total == 0:
        return PointPattern(w, np.empty((0, w.dim)))
    flat_idx = np.repeat(np.arange(means.size), counts)
    multi = np.unravel_index(flat_idx, tuple(field.cells_per_axis))
    lows = w.lows + np.stack(multi, axis=1) * field.cell_lengths
    pts = lows + gen.random((total, w.dim)) * field.cell_lengths
    return PointPattern(w, pts)


def sample_mixed_poisson(mix: MassDistribution, w: Window, rng) -> PointPattern:
    """Mixed Poisson: one random intensity level, then homogeneous Poisson."""
    gen = as_generator(rng)
    lam = float(mix.sample(gen))
    n = gen.poisson(lam * w.volume)
    return PointPattern(w, _uniform_points(w, n, gen))


def sample_ising_field(
    mu1: float,
    mu2: float,
    p_plus: float,
    w: Window,
    cells_per_axis,
    rng,
    spacing: float = 1.0,
) -> GridField:
    """Randomly shifted lattice field taking mu1 w.p. p_plus else mu2, i.i.d. per
    lattice cell, resampled onto the requested grid at cell midpoints.

    On a torus the lattice is periodic (each side must be a whole multiple of
    the spacing), so the cell that wraps around the window has one spin.
    """
    if mu2 > mu1:
        raise ValueError("need mu2 <= mu1")
    if not 0.0 <= p_plus <= 1.0:
        raise ValueError("p_plus must be a probability")
    n_lattice = np.rint(w.lengths / spacing).astype(int)
    if w.topology == TORUS and np.any(np.abs(n_lattice * spacing - w.lengths) > 1e-9 * w.lengths):
        raise ValueError("on a torus each window side must be a whole multiple of the spacing")
    gen = as_generator(rng)
    shift = gen.random(w.dim) * spacing
    field = GridField(w, cells_per_axis, np.zeros(tuple(np.atleast_1d(cells_per_axis))))
    mids = field.midpoints()
    if w.topology == TORUS:
        lattice_idx = np.floor((mids - w.lows - shift) / spacing).astype(int) % n_lattice
    else:
        lattice_idx = np.floor((mids - shift) / spacing).astype(int)
        lattice_idx -= lattice_idx.min(axis=0)
        n_lattice = lattice_idx.max(axis=0) + 1
    spins = gen.random(tuple(n_lattice)) < p_plus
    vals = np.where(spins[tuple(lattice_idx.T)], mu1, mu2)
    return GridField(w, cells_per_axis, vals.reshape(field.values.shape))


def sample_levy_grid_basis(
    lattice_spacing: float, mass: MassDistribution, w: Window, rng
) -> AtomicMeasure:
    """Atoms on a deterministic lattice inside w with i.i.d. non-negative masses."""
    if lattice_spacing <= 0:
        raise ValueError("lattice spacing must be positive")
    gen = as_generator(rng)
    axes = [
        np.arange(w.lows[k] + lattice_spacing / 2, w.highs[k], lattice_spacing)
        for k in range(w.dim)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    locs = np.stack([m.ravel() for m in mesh], axis=1)
    masses = np.asarray(mass.sample(gen, size=locs.shape[0]), dtype=float)
    return AtomicMeasure(w, locs, masses)


def sample_marked_poisson_basis(
    lam: float, mark: MassDistribution, w: Window, rng
) -> tuple[AtomicMeasure, AtomicMeasure]:
    """Coupled pair on one Poisson support: constant masses E(Z) vs i.i.d. marks Z."""
    gen = as_generator(rng)
    pts = _uniform_points(w, gen.poisson(lam * w.volume), gen)
    marks = np.asarray(mark.sample(gen, size=pts.shape[0]), dtype=float)
    const = np.full(pts.shape[0], mark.mean())
    return AtomicMeasure(w, pts, const), AtomicMeasure(w, pts, marks)


def _parent_points(
    lam: float, w: Window, pad: float, gen: np.random.Generator
) -> np.ndarray:
    """Parents for cluster intensities: wrapped on torus, padded on plain windows."""
    if w.topology == TORUS:
        n = gen.poisson(lam * w.volume)
        return _uniform_points(w, n, gen)
    lows = w.lows - pad
    lengths = w.lengths + 2 * pad
    n = gen.poisson(lam * float(np.prod(lengths)))
    return lows + gen.random((n, w.dim)) * lengths


def _kernel_values(
    kernel: ClusterKernel, w: Window, parents: np.ndarray, query: np.ndarray
) -> np.ndarray:
    """(n_parents, n_query) kernel density values under the window topology."""
    if parents.shape[0] == 0:
        return np.zeros((0, query.shape[0]))
    return kernel.density(pairwise_distances(w, parents, query), w.dim)


def sample_ppcluster_intensity(
    c: float, lam: float, kernel: ClusterKernel, w: Window, cells_per_axis, rng
) -> GridField:
    """Shot-noise intensity sum_parents h(parent, y)/c over Poisson(c*lam) parents,
    evaluated at grid midpoints."""
    if c <= 0 or lam <= 0:
        raise ValueError("c and lam must be positive")
    gen = as_generator(rng)
    pad = kernel.truncation_radius(w.dim)
    parents = _parent_points(c * lam, w, pad, gen)
    field = GridField(w, cells_per_axis, np.zeros(tuple(np.atleast_1d(cells_per_axis))))
    mids = field.midpoints()
    vals = _kernel_values(kernel, w, parents, mids).sum(axis=0) / c
    return GridField(w, cells_per_axis, vals.reshape(field.values.shape))


def ppcluster_intensity_at(
    c: float, lam: float, kernel: ClusterKernel, w: Window, queries: np.ndarray, rng
) -> np.ndarray:
    """One draw of the cluster intensity evaluated exactly at query points."""
    if c <= 0 or lam <= 0:
        raise ValueError("c and lam must be positive")
    gen = as_generator(rng)
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    pad = kernel.truncation_radius(w.dim)
    parents = _parent_points(c * lam, w, pad, gen)
    return _kernel_values(kernel, w, parents, queries).sum(axis=0) / c


def sample_ppcluster(
    c: float, lam: float, kernel: ClusterKernel, w: Window, cells_per_axis, rng
) -> PointPattern:
    """Cox sample driven by the Poisson-Poisson cluster intensity."""
    gen = as_generator(rng)
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
        chol = cholesky_with_jitter(cov.matrix(pairwise_distances(w, mids, mids)))

    def draw(rng) -> PointPattern:
        gen = as_generator(rng)
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
    rng,
) -> PointPattern:
    """Generalized shot-noise Cox sample: parents marked with (weight, bandwidth),
    each spawning a Poisson(weight) cluster displaced by the bandwidth-scaled kernel.

    Given the parents and marks, the cluster union is exactly a Poisson pattern
    with the scaled-kernel superposition intensity, so no grid discretization
    is involved.  Thomas (gaussian k1) and Matern cluster (uniform_ball k1)
    are the b == 1, gamma == const, Poisson-parent special cases.
    """
    gen = as_generator(rng)
    parents = parent_sampler(gen)
    pts_list = []
    for j in range(parents.n):
        gamma_j = float(gamma_dist.sample(gen))
        b_j = float(b_dist.sample(gen))
        n_j = gen.poisson(gamma_j)
        if n_j == 0:
            continue
        offs = k1.sample_offsets(gen, n_j, w.dim) * b_j
        children = parents.points[j] + offs
        if w.topology == TORUS:
            pts_list.append(w.wrap(children))
        else:
            keep = w.contains(children)
            pts_list.append(np.atleast_2d(children)[keep])
    pts = np.vstack(pts_list) if pts_list else np.empty((0, w.dim))
    return PointPattern(w, pts)


def make_thomas_sampler(
    parent_lam: float, cluster_size: float, sigma: float, w: Window
) -> Callable[[np.random.Generator], PointPattern]:
    """Thomas process of total intensity parent_lam * cluster_size."""
    kernel = ClusterKernel("gaussian", (sigma,))
    gamma = MassDistribution("constant", (cluster_size,))
    b_one = MassDistribution("constant", (1.0,))

    def parents(gen):
        pad = kernel.truncation_radius(w.dim)
        pts = _parent_points(parent_lam, w, pad, gen)
        if w.topology == TORUS:
            return PointPattern(w, pts)
        # padded parents live outside the window; carry them in an enlarged one
        w_pad = Window(w.lows - pad, w.highs + pad, PLAIN)
        return PointPattern(w_pad, pts)

    def draw(rng) -> PointPattern:
        gen = as_generator(rng)
        return sample_gnscp(parents, gamma, b_one, kernel, w, gen)

    return draw


def sample_ginibre_radii(b_max: float, rng) -> PointPattern:
    """One-dimensional pattern on [0, b_max]: the k-th smallest point of the k-th
    of i.i.d. unit Poisson processes on the half-line, kept if <= b_max."""
    if b_max <= 0:
        raise ValueError("b_max must be positive")
    gen = as_generator(rng)
    m = ginibre_truncation_order(b_max)
    gammas = gen.gamma(np.arange(1, m + 1), 1.0)
    kept = gammas[gammas <= b_max]
    w = Window(np.array([0.0]), np.array([b_max]), PLAIN)
    return PointPattern(w, kept.reshape(-1, 1))


def ginibre_truncation_order(b_max: float, tail: float = 1e-12) -> int:
    """Smallest m with P(Gamma(m, 1) <= b_max) < tail."""
    m = max(1, int(np.ceil(b_max)))
    while special.gammainc(m, b_max) >= tail:
        m += 1
    return m
