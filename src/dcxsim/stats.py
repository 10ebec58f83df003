"""Summary statistics of realizations: Ripley's K, Boolean-model coverage
counts, and mixed-Palm (size-biased) reweighting; the Ripley and Palm
estimates reduce batch draws through ``ordering.replicate``.  Ripley's K
counts a chunk's pairs in blocks of replications with equal point counts,
stacked (g, n, d): ``geometry.pairwise_distances`` broadcasts over such
leading axes."""
from __future__ import annotations

from typing import Callable, Union

import numpy as np

from .geometry import (
    TORUS,
    AtomicMeasure,
    GridField,
    NumericalError,
    PatternBatch,
    PointPattern,
    RngStream,
    pairwise_distances,
)
from .ordering import replicate


# distance entries per block of equal-count replications: large enough that
# numpy's per-call cost is spread over many pairs, small enough for the cache
# (the r comparisons hold len(r_grid) bytes per entry)
_BLOCK_ENTRIES = 1 << 14


def ripley_k(
    draw: Callable, r_grid: np.ndarray, lam: float, n_reps: int, stream: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    """Plug-in Ripley K estimate on a torus with known intensity, over n_reps
    replications of the batch sampler draw (gen, size) -> PatternBatch.

    Returns (K_hat, stderr); for homogeneous Poisson in the plane K(r) = pi r^2.
    """
    r_grid = np.asarray(r_grid, dtype=float)

    def k_rows(batch: PatternBatch) -> np.ndarray:
        w = batch.window
        if w.topology != TORUS:
            raise ValueError("ripley_k requires a torus window")
        counts = batch.counts
        starts = np.cumsum(counts) - counts
        scale = lam**2 * w.volume
        with_diagonal = r_grid >= 0
        out = np.zeros((batch.size, r_grid.size))
        # replications of n points are stacked (g, n, d) and their n x n
        # distance matrices counted together, a block of them at a time
        present = np.flatnonzero(np.bincount(counts))
        for n in present[present >= 2]:
            reps = np.flatnonzero(counts == n)
            per_block = max(1, _BLOCK_ENTRIES // (n * n))
            for lo in range(0, reps.size, per_block):
                block = reps[lo : lo + per_block]
                pts = batch.points[starts[block, None] + np.arange(n)]
                d = pairwise_distances(w, pts, pts).reshape(block.size, n * n)
                # ordered pairs: the matrix is exactly symmetric, and its zero
                # diagonal counts once r >= 0
                pairs = np.count_nonzero(d[:, None, :] <= r_grid[:, None], axis=2)
                out[block] = (pairs - n * with_diagonal) / scale
        return out

    (mom,) = replicate((draw,), k_rows, n_reps, stream)
    return mom.mean, mom.stderr


def coverage_field(p: PointPattern, queries: np.ndarray) -> np.ndarray:
    """Number of grains (balls with per-point radius marks) covering each query."""
    if p.marks is None:
        raise ValueError("coverage_field needs grain-radius marks")
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    d = pairwise_distances(p.window, p.points, queries)
    radii = np.asarray(p.marks, dtype=float)[:, None]
    return (d <= radii).sum(axis=0)


Realization = Union[PointPattern, AtomicMeasure, GridField]


def integrate_weight(real: Realization, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Integral of the point weight f against a realization's measure."""
    if isinstance(real, PointPattern):
        if real.n == 0:
            return 0.0
        return float(np.sum(f(real.points)))
    if isinstance(real, AtomicMeasure):
        if real.n == 0:
            return 0.0
        return float(np.sum(real.masses * f(real.locations)))
    return float(np.sum(real.values.ravel() * real.cell_volume * f(real.midpoints())))


def mixed_palm_estimate(
    draw: Callable[[np.random.Generator, int], np.ndarray], n_reps: int, stream: RngStream
) -> tuple[float, float]:
    """Self-normalized reweighting estimate of E g under the f-weighted law:
    E[W g(Lambda)] / E[W] with W = int f dLambda, and its delta-method stderr.

    ``draw`` is a batch draw (gen, size) -> (size, 2) of the columns W and g.
    """

    def reduce(wg: np.ndarray) -> np.ndarray:
        a = wg[:, 0] * wg[:, 1]
        return np.column_stack([wg[:, 0], a, wg[:, 0] + a])

    (mom,) = replicate((draw,), reduce, n_reps, stream)
    bbar, abar = mom.mean[:2]
    if bbar == 0.0:
        raise NumericalError("all weights zero in the sample")
    var_w, var_a, var_sum = mom.var
    # Moments keeps per-column variances only: cov(W, Wg) by polarization
    cov = (var_sum - var_w - var_a) / 2.0
    ratio = abar / bbar
    var = (var_a - 2 * ratio * cov + ratio**2 * var_w) / (bbar**2 * n_reps)
    return float(ratio), float(np.sqrt(max(var, 0.0)))
