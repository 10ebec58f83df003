"""Summary statistics of realizations: Ripley's K, Boolean-model coverage
counts, and mixed-Palm (size-biased) reweighting; the Ripley and Palm
estimates reduce batch draws through ``ordering.replicate``.

Ripley's K counts each unordered pair of a replication once, on squared
distances: a pair is within r exactly when its squared distance is at most
``geometry.sq_threshold``(r), the largest double whose square root is at
most r, the rule Boolean coverage shares.  A chunk's replications are
grouped by point count and stacked (g, n, d), a block of about
``geometry._BLOCK`` pair entries at a time."""
from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import (
    _BLOCK,
    TORUS,
    NumericalError,
    PatternBatch,
    PointPattern,
    RngStream,
    pairwise_distances,
    sq_distances,
    sq_threshold,
)
from .ordering import replicate
from .shotnoise import Source, _atoms_of


def ripley_k(
    draw: Callable, r_grid: np.ndarray, lam: float, n_reps: int, stream: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    """Plug-in Ripley K estimate on a torus with known intensity, over n_reps
    replications of the batch sampler draw (gen, size) -> PatternBatch.

    Returns (K_hat, stderr); for homogeneous Poisson in the plane K(r) = pi r^2.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    thresholds = [sq_threshold(r) for r in r_grid.tolist()]

    def k_rows(batch: PatternBatch) -> np.ndarray:
        w = batch.window
        if w.topology != TORUS:
            raise ValueError("ripley_k requires a torus window")
        counts = batch.counts
        starts = np.cumsum(counts) - counts
        # ordered pairs: each unordered pair counted once stands for two
        scale = lam**2 * w.volume / 2.0
        out = np.zeros((batch.size, r_grid.size))
        present = np.flatnonzero(np.bincount(counts))
        for n in present[present >= 2]:
            reps = np.flatnonzero(counts == n)
            # point i pairs with point i + s (mod n) for s = 1..h: the points
            # followed by their first h, seen through windows of n.  When n is
            # even, the row s = n/2 holds each of its pairs twice, bit-equal,
            # and only its first half is kept: the first n(n-1)/2 entries of
            # a replication's (h, n) rows hold each pair once
            h = n // 2
            ring = np.arange(n + h) % n
            pairs = n * (n - 1) // 2
            per_block = max(1, _BLOCK // (n * h))
            for lo in range(0, reps.size, per_block):
                block = reps[lo : lo + per_block]
                pts = batch.points[starts[block, None] + ring]
                shifted = sliding_window_view(pts, n, axis=1)[:, 1:]
                sq = sq_distances(w, pts[:, None, :n], np.moveaxis(shifted, -1, -2))
                sq = sq.reshape(block.size, n * h)[:, :pairs]
                for j, t in enumerate(thresholds):
                    out[block, j] = np.count_nonzero(sq <= t, axis=1)
        out /= scale
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


def integrate_weight(real: Source, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Integral of the point weight f against a realization's measure: the
    sum of mass * f(location) over its atoms (``shotnoise._atoms_of``), so a
    pattern with 1-d marks is weighted by its marks."""
    _, locs, masses = _atoms_of(real)
    if locs.shape[0] == 0:
        return 0.0
    return float(np.sum(masses * f(locs)))


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
