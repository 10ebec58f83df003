"""Summary statistics of realizations: Ripley's K, Boolean-model coverage
counts, and mixed-Palm (size-biased) reweighting; the Ripley and Palm
estimates reduce batch draws through ``ordering.replicate``."""
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
        out = np.zeros((batch.size, r_grid.size))
        for i, (n, end) in enumerate(zip(batch.counts, np.cumsum(batch.counts))):
            pts = batch.points[end - n : end]
            # unordered pair distances, each pair once; ordered pairs = 2 * unordered
            d = np.sort(pairwise_distances(w, pts, pts)[np.triu_indices(n, k=1)])
            out[i] = 2.0 * np.searchsorted(d, r_grid, side="right") / (lam**2 * w.volume)
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
