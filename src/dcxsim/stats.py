"""Summary statistics whose orderings the comparison suites exercise:
Ripley's K, pair correlation, coverage counts, joint p.g.f., mixed-Palm
reweighting, and the typical degree of a random geometric graph."""
from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np
from scipy import special

from .geometry import (
    TORUS,
    AtomicMeasure,
    Box,
    GridField,
    NumericalError,
    PointPattern,
    as_generator,
    pairwise_distances,
)


def _require_torus(p: PointPattern):
    if p.window.topology != TORUS:
        raise ValueError("second-order estimators require a torus window")


def _pair_distances(p: PointPattern) -> np.ndarray:
    """Unordered pair distances (each pair once)."""
    d = pairwise_distances(p.window, p.points, p.points)
    iu = np.triu_indices(p.n, k=1)
    return d[iu]


def ripley_k(
    reps: Sequence[PointPattern], r_grid: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Plug-in Ripley K estimate on a torus with known intensity.

    Returns (K_hat, stderr) over the replications; for homogeneous Poisson in
    the plane K(r) = pi r^2.
    """
    for p in reps:
        _require_torus(p)
    if len(reps) < 2:
        raise ValueError("need at least 2 replications")
    r_grid = np.asarray(r_grid, dtype=float)
    per_rep = np.zeros((len(reps), r_grid.size))
    for i, p in enumerate(reps):
        if p.n < 2:
            continue
        d = np.sort(_pair_distances(p))
        # ordered pairs = 2 * unordered
        per_rep[i] = 2.0 * np.searchsorted(d, r_grid, side="right")
    vol = reps[0].window.volume
    per_rep /= lam**2 * vol
    k_hat = per_rep.mean(axis=0)
    stderr = per_rep.std(axis=0, ddof=1) / np.sqrt(len(reps))
    return k_hat, stderr


def _ball_volume(dim: int, r: np.ndarray) -> np.ndarray:
    return np.pi ** (dim / 2) / special.gamma(dim / 2 + 1) * np.asarray(r, dtype=float) ** dim


def pair_correlation(
    reps: Sequence[PointPattern],
    r_grid: np.ndarray,
    bandwidth: float,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Box-kernel estimate of the pair correlation function g(r) on a torus."""
    for p in reps:
        _require_torus(p)
    if len(reps) < 2:
        raise ValueError("need at least 2 replications")
    r_grid = np.asarray(r_grid, dtype=float)
    if bandwidth <= 0 or bandwidth >= r_grid.max():
        raise ValueError("need 0 < bandwidth < max r")
    dim = reps[0].window.dim
    vol = reps[0].window.volume
    lo = np.maximum(r_grid - bandwidth / 2, 0.0)
    hi = r_grid + bandwidth / 2
    shell = _ball_volume(dim, hi) - _ball_volume(dim, lo)
    per_rep = np.zeros((len(reps), r_grid.size))
    for i, p in enumerate(reps):
        if p.n < 2:
            continue
        d = np.sort(_pair_distances(p))
        counts = np.searchsorted(d, hi, side="right") - np.searchsorted(d, lo, side="right")
        per_rep[i] = 2.0 * counts
    per_rep /= lam**2 * vol * shell
    return per_rep.mean(axis=0), per_rep.std(axis=0, ddof=1) / np.sqrt(len(reps))


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


def joint_pgf(count_reps: np.ndarray, s: np.ndarray) -> float:
    """Empirical joint p.g.f. E prod_j s_j^{V_j}; 0^0 = 1."""
    counts = np.atleast_2d(np.asarray(count_reps, dtype=float))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s < 0):
        raise ValueError("p.g.f. arguments must be non-negative")
    with np.errstate(divide="ignore"):
        logs = np.where(s > 0, np.log(s), 0.0)
    terms = np.exp(counts @ logs)
    zero_cols = s == 0
    if zero_cols.any():
        terms = terms * np.all(counts[:, zero_cols] == 0, axis=1)
    return float(terms.mean())


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


def rgg_typical_degree(
    reps: Sequence[PointPattern], grain_radius: float, box_a: Box, lam: float
) -> tuple[float, float]:
    """Typical degree of the geometric graph with balls of radius grain_radius/2:
    grains intersect iff the centers are within grain_radius."""
    if box_a.volume <= 0:
        raise ValueError("empty reference box")
    per_rep = np.zeros(len(reps))
    for i, p in enumerate(reps):
        _require_torus(p)
        if p.n < 2:
            continue
        in_a = box_a.contains(p.points)
        if not in_a.any():
            continue
        d = pairwise_distances(p.window, p.points[in_a], p.points)
        # subtract the self-pairs (one zero distance per point of A; patterns are simple)
        cnt = int(np.sum(d <= grain_radius)) - int(in_a.sum())
        per_rep[i] = cnt / (lam * box_a.volume)
    return float(per_rep.mean()), float(per_rep.std(ddof=1) / np.sqrt(len(reps)))
