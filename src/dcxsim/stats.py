"""Summary statistics of realizations: Ripley's K, Boolean-model coverage
counts, and mixed-Palm (size-biased) reweighting."""
from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np

from .geometry import (
    TORUS,
    AtomicMeasure,
    GridField,
    NumericalError,
    PointPattern,
    as_generator,
    pairwise_distances,
)


def ripley_k(
    reps: Sequence[PointPattern], r_grid: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Plug-in Ripley K estimate on a torus with known intensity.

    Returns (K_hat, stderr) over the replications; for homogeneous Poisson in
    the plane K(r) = pi r^2.
    """
    if any(p.window.topology != TORUS for p in reps):
        raise ValueError("ripley_k requires a torus window")
    if len(reps) < 2:
        raise ValueError("need at least 2 replications")
    r_grid = np.asarray(r_grid, dtype=float)
    per_rep = np.zeros((len(reps), r_grid.size))
    for i, p in enumerate(reps):
        if p.n < 2:
            continue
        # unordered pair distances, each pair once
        d = pairwise_distances(p.window, p.points, p.points)[np.triu_indices(p.n, k=1)]
        d.sort()
        # ordered pairs = 2 * unordered
        per_rep[i] = 2.0 * np.searchsorted(d, r_grid, side="right")
    vol = reps[0].window.volume
    per_rep /= lam**2 * vol
    k_hat = per_rep.mean(axis=0)
    stderr = per_rep.std(axis=0, ddof=1) / np.sqrt(len(reps))
    return k_hat, stderr


def coverage_field(p: PointPattern, queries: np.ndarray) -> np.ndarray:
    """Number of grains (balls with per-point radius marks) covering each query."""
    if p.marks is None:
        raise ValueError("coverage_field needs grain-radius marks")
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if p.n == 0:
        return np.zeros(queries.shape[0], dtype=int)
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
    sampler: Callable,
    f: Callable[[np.ndarray], np.ndarray],
    g: Callable[[Realization], float],
    n_reps: int,
    rng,
) -> tuple[float, float]:
    """Self-normalized reweighting estimate of E g under the f-weighted law:
    E[(int f dLambda) g(Lambda)] / E[int f dLambda], with delta-method stderr."""
    if n_reps < 2:
        raise ValueError("need at least 2 replications")
    gen = as_generator(rng)
    weights = np.empty(n_reps)
    stats = np.empty(n_reps)
    for i in range(n_reps):
        real = sampler(gen)
        weights[i] = integrate_weight(real, f)
        stats[i] = g(real)
    bbar = weights.mean()
    if bbar == 0.0:
        raise NumericalError("all weights zero in the sample")
    a = weights * stats
    ratio = a.mean() / bbar
    cov = np.cov(np.stack([a, weights]), ddof=1)
    var = (cov[0, 0] - 2 * ratio * cov[0, 1] + ratio**2 * cov[1, 1]) / (bbar**2 * n_reps)
    return float(ratio), float(np.sqrt(max(var, 0.0)))
