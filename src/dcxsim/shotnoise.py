"""Additive and extremal shot-noise fields over patterns, grids and atomic measures.

``additive_sn`` and ``extremal_sn`` reduce one realization.  ``ragged_sn``
reduces a whole batch of realizations (a ``PatternBatch``) in
replication-aligned blocks: the Monte-Carlo estimators use it, and the
per-realization functions are its reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .distributions import TRUNCATION_REL_TOL
from .geometry import (
    _BLOCK,
    AtomicMeasure,
    GridField,
    NumericalError,
    PatternBatch,
    PointPattern,
    Window,
    pairwise_distances,
    sq_distances,
)


@dataclass(frozen=True)
class ResponseKernel:
    """Radially symmetric non-negative response g(distance), 1 at distance 0.

    kinds:
      gaussian        params = (sigma,)          g(r) = exp(-r^2 / 2 sigma^2)
      power_law       params = (beta,)           g(r) = 1 / (1 + r)^beta
    """

    kind: str
    params: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.kind not in ("gaussian", "power_law"):
            raise ValueError(f"unknown response kernel kind {self.kind!r}")
        if not all(0 < p < math.inf for p in self.params):
            raise ValueError("response kernel needs finite params > 0")

    def _profile(self, r: np.ndarray) -> np.ndarray:
        if self.kind == "gaussian":
            (sigma,) = self.params
            return np.exp(-(r**2) / (2 * sigma**2))
        (beta,) = self.params
        return (1.0 + r) ** (-beta)

    def value(self, r) -> np.ndarray:
        """g(r) with contributions beyond the truncation radius dropped."""
        r = np.asarray(r, dtype=float)
        return np.where(r <= self.truncation_radius(), self._profile(r), 0.0)

    def truncation_radius(self) -> float:
        """Radius where the profile falls below TRUNCATION_REL_TOL of its peak."""
        if self.kind == "gaussian":
            (sigma,) = self.params
            return sigma * float(np.sqrt(-2.0 * np.log(TRUNCATION_REL_TOL)))
        (beta,) = self.params
        return float(TRUNCATION_REL_TOL ** (-1.0 / beta) - 1.0)


Source = Union[PointPattern, AtomicMeasure, GridField]


def _atoms_of(src: Source) -> tuple[Window, np.ndarray, np.ndarray]:
    """Reduce any source to (window, locations, masses).

    Grid fields place each cell's mass at its midpoint, which makes additive_sn
    over a GridField exactly equal to additive_sn over that atomic measure.
    """
    if isinstance(src, PointPattern):
        masses = (
            np.asarray(src.marks, dtype=float)
            if src.marks is not None and np.ndim(src.marks) == 1
            else np.ones(src.n)
        )
        return src.window, src.points, masses
    if isinstance(src, AtomicMeasure):
        return src.window, src.locations, src.masses
    return src.window, src.midpoints(), src.values.ravel() * src.cell_volume


def additive_sn(src: Source, h: ResponseKernel, queries: np.ndarray) -> np.ndarray:
    """Integral shot-noise V(y) = sum over atoms of mass * g(distance(atom, y))."""
    w, locs, masses = _atoms_of(src)
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    vals = h.value(pairwise_distances(w, locs, queries))
    if not np.all(np.isfinite(vals)):
        raise NumericalError("non-finite kernel value")
    return masses @ vals


def extremal_sn(p: PointPattern, h: ResponseKernel, queries: np.ndarray) -> np.ndarray:
    """Extremal shot-noise U(y) = max over points of g(distance); 0 on empty patterns."""
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if p.n == 0:
        return np.zeros(queries.shape[0])
    vals = h.value(pairwise_distances(p.window, p.points, queries))
    return vals.max(axis=0)


def replication_blocks(counts: np.ndarray) -> list[tuple[int, int, int, int]]:
    """The replication-aligned blocks of a ragged batch with these
    per-replication counts, as (lo, hi, first, last): replications lo:hi,
    whose points are first:last in replication order.

    A block ends at the first replication that starts at or after a multiple
    of ``geometry._BLOCK`` points, so it holds about that many points, or
    one replication when it has more.  Blocks without points are left out.
    """
    starts = np.cumsum(counts) - counts
    n_points = int(np.sum(counts))
    # replication cuts, ascending; a replication longer than a block repeats
    # its cut, and empty replications can follow the last point
    cuts = np.append(np.searchsorted(starts, np.arange(0, n_points, _BLOCK)), len(counts))
    edges = np.append(starts, n_points)[cuts].tolist()
    cuts = cuts.tolist()
    return [
        (lo, hi, first, last)
        for lo, hi, first, last in zip(cuts, cuts[1:], edges, edges[1:])
        if first < last
    ]


def ragged_sn(
    batch: PatternBatch,
    queries: np.ndarray,
    response: Callable[..., np.ndarray],
    how: str = "sum",
    marks: Optional[np.ndarray] = None,
    squared: bool = False,
) -> np.ndarray:
    """Shot noise of every replication of a batch at the queries, (size, q).

    For each query y, ``response`` maps distances from points to y to their
    contributions, elementwise (squared distances, with no square root taken,
    when ``squared`` is true): response(d) without marks; with per-point
    marks (N,) or per point-query marks (N, q), response(d, m), where m holds
    the marks of the same points (column j of them for query j).  how="sum"
    adds the contributions of each replication (additive shot noise, as
    additive_sn), how="max" takes their maximum (extremal shot noise, as
    extremal_sn, of unmarked points only); a replication without points
    gives 0.  The maximum is taken as the response at the distance of each
    replication's nearest point, the square root of its least squared
    distance: this is the maximum of the per-point contributions only if
    response(d) does not increase with d, as ResponseKernel.value does not
    (a nearest point beyond the truncation radius gives 0).

    The batch is walked in the blocks of ``replication_blocks``, so every
    replication is reduced whole, by one ``reduceat`` over the block's
    non-empty replications, and the sums and maxima do not depend on the
    blocks.  The reduction runs in float, so boolean responses count.
    Queries are reduced one at a time, so no (N, q, d) array is built.
    """
    if how not in ("sum", "max"):
        raise ValueError(f"unknown reduction {how!r}")
    if how == "max" and marks is not None:
        raise ValueError("how='max' takes no marks")
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    out = np.zeros((batch.size, queries.shape[0]))
    for lo, hi, first, last in replication_blocks(batch.counts):
        pts = batch.points[first:last]
        m = None if marks is None else marks[first:last]
        counts = batch.counts[lo:hi]
        filled = np.flatnonzero(counts)
        block_starts = (np.cumsum(counts) - counts)[filled]
        rows = out[lo:hi]
        for j, y in enumerate(queries):
            sq = sq_distances(batch.window, pts, y)
            if how == "max":
                near = np.minimum.reduceat(sq, block_starts)
                rows[filled, j] = response(near if squared else np.sqrt(near))
            else:
                d = sq if squared else np.sqrt(sq, out=sq)
                vals = response(d) if m is None else response(d, m if m.ndim == 1 else m[:, j])
                rows[filled, j] = np.add.reduceat(vals, block_starts, dtype=float)
    return out
