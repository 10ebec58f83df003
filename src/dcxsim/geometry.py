"""Geometric primitives: windows, boxes, patterns, fields, measures, RNG streams.

All sampling windows are axis-aligned boxes in R^d with either torus
(periodic) or plain topology.  Boxes are half-open [low, high) so that a
partition of a box counts every point exactly once.

Arithmetic on batches of (N, d) points runs one axis at a time, as an (N,)
column combined with a scalar: numpy broadcasting an (N, d) array against a
(d,) vector runs one inner loop per row, several times slower for small d.
``Window.wrap`` rewrites only the coordinates that left the window.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
import numpy.random  # numpy loads it lazily; every stream draws from it, so load it here


# points (or pair entries) per block of the ragged reducers, shotnoise.ragged_sn
# and stats.ripley_k: large enough that numpy's per-call cost is spread over
# many entries, small enough that a block's temporaries stay in the cache
_BLOCK = 1 << 14


class NumericalError(ArithmeticError, ValueError):
    """A numerical failure rather than a bad input: a non-PSD covariance,
    non-finite values, all-zero weights.  It is a ValueError too, so callers
    that catch ValueError still catch it."""


# ---------------------------------------------------------------------------
# Windows and boxes

TORUS = "torus"
PLAIN = "plain"


@dataclass(frozen=True)
class Window:
    """Bounded axis-aligned sampling arena in R^d."""

    lows: np.ndarray
    highs: np.ndarray
    topology: str = TORUS

    def __post_init__(self):
        lows = np.atleast_1d(np.asarray(self.lows, dtype=float))
        highs = np.atleast_1d(np.asarray(self.highs, dtype=float))
        if lows.shape != highs.shape or lows.ndim != 1:
            raise ValueError("lows/highs must be 1-D vectors of equal length")
        if not (np.isfinite(lows).all() and np.isfinite(highs).all()):
            raise ValueError("window bounds must be finite")
        if np.any(lows >= highs):
            raise ValueError("degenerate axis: need lows[i] < highs[i] for all i")
        if self.topology not in (TORUS, PLAIN):
            raise ValueError(f"unknown topology {self.topology!r}")
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)

    @property
    def dim(self) -> int:
        return self.lows.shape[0]

    @property
    def lengths(self) -> np.ndarray:
        return self.highs - self.lows

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Closed membership: low <= x <= high per axis."""
        return _inside(points, self.lows, self.highs, np.less_equal)

    def wrap(self, points: np.ndarray) -> np.ndarray:
        """Map points into [lows, highs) by periodic wrapping (torus only),
        as a new array.  A coordinate already in [lows, highs) comes back
        unchanged; the others become lows + mod(x - lows, lengths), with one
        that rounds to highs or past it mapped to lows (mod of a tiny negative
        value rounds up to the length, and lows + lengths can exceed highs)."""
        out = np.array(points, dtype=float, ndmin=2)
        for k, (lo, hi, length) in enumerate(zip(self.lows, self.highs, self.lengths)):
            col = out[:, k]
            outside = col < lo
            outside |= col >= hi
            i = np.flatnonzero(outside)
            if i.size:
                rel = np.mod(col[i] - lo, length)
                rel += lo
                rel[rel >= hi] = lo
                col[i] = rel
        return out


@dataclass(frozen=True)
class Box:
    """Half-open sub-box [low, high) of a window."""

    lows: np.ndarray
    highs: np.ndarray

    def __post_init__(self):
        lows = np.atleast_1d(np.asarray(self.lows, dtype=float))
        highs = np.atleast_1d(np.asarray(self.highs, dtype=float))
        if lows.shape != highs.shape or np.any(lows >= highs):
            raise ValueError("box needs lows[i] < highs[i] for all i")
        if not (np.isfinite(lows).all() and np.isfinite(highs).all()):
            raise ValueError("box bounds must be finite")
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)

    @property
    def volume(self) -> float:
        return float(np.prod(self.highs - self.lows))

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Half-open membership: low <= x < high per axis."""
        return _inside(points, self.lows, self.highs, np.less)


def _as_points(points, dim: int) -> np.ndarray:
    """Points as an (N, dim) float array, (0, dim) when there are none;
    ValueError for another dimension."""
    pts = np.asarray(points, dtype=float)
    pts = pts.reshape(0, dim) if pts.size == 0 else np.atleast_2d(pts)
    if pts.shape[-1] != dim:
        raise ValueError(f"points of dimension {pts.shape[-1]} in {dim}-d space")
    return pts


def _inside(points, lows: np.ndarray, highs: np.ndarray, below) -> np.ndarray:
    """(N,) lows[k] <= x_k and below(x_k, highs[k]) on every axis k."""
    pts = _as_points(points, lows.shape[0])
    out = np.ones(pts.shape[0], dtype=bool)
    for k, (lo, hi) in enumerate(zip(lows, highs)):
        out &= pts[:, k] >= lo
        out &= below(pts[:, k], hi)
    return out


def _in_window(points, w: Window, what: str) -> np.ndarray:
    """Points as ``_as_points`` gives them; ValueError unless each lies in the
    closed window (NaN does not).  One comparison per bound over the whole
    array: containers are built per realization, a few points at a time."""
    pts = _as_points(points, w.dim)
    if not ((pts >= w.lows).all() and (pts <= w.highs).all()):
        raise ValueError(f"{what} outside window")
    return pts


def make_window(lows, highs, topology: str = TORUS) -> Window:
    return Window(np.asarray(lows, dtype=float), np.asarray(highs, dtype=float), topology)


def boxes_disjoint(boxes: Sequence[Box]) -> bool:
    """Pairwise disjointness of half-open boxes, decidable from coordinates."""
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            a, b = boxes[i], boxes[j]
            if np.all(np.maximum(a.lows, b.lows) < np.minimum(a.highs, b.highs)):
                return False
    return True


# ---------------------------------------------------------------------------
# Distances

def sq_distances(w: Window, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances under the window's topology between the points
    a (..., d) and b (..., d), paired by broadcasting their leading axes.
    One axis at a time: per axis k the gap |a_k - b_k| (on a torus, the
    shorter way round), squared in place; the first axis's square is the
    result, and each later one is added into it from one reused buffer."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"points of dimension {a.shape[-1]} and {b.shape[-1]} have no distance")
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    # every axis overwrites its buffer; zeros only where there is no axis
    sq = gap = (np.empty if a.shape[-1] else np.zeros)(shape)
    for k in range(a.shape[-1]):
        if k == 1:
            gap = np.empty(shape)
        np.subtract(a[..., k], b[..., k], out=gap)
        np.abs(gap, out=gap)
        if w.topology == TORUS:
            np.minimum(gap, w.lengths[k] - gap, out=gap)
        np.multiply(gap, gap, out=gap)
        if k:
            sq += gap
    return sq


def pairwise_distances(w: Window, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance matrix (..., len(a), len(b)) under the window's topology for
    points a (..., len(a), d) and b (..., len(b), d), whose leading axes
    broadcast: the square root of ``sq_distances`` of every (a, b) pair;
    ValueError when the points of a and b differ in dimension."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    sq = sq_distances(w, a[..., :, None, :], b[..., None, :, :])
    return np.sqrt(sq, out=sq)


# ---------------------------------------------------------------------------
# Realization containers

@dataclass(frozen=True)
class PointPattern:
    """Finite point-process realization in a window, optionally marked."""

    window: Window
    points: np.ndarray
    marks: Optional[np.ndarray] = None

    def __post_init__(self):
        pts = _in_window(self.points, self.window, "point")
        object.__setattr__(self, "points", pts)
        if self.marks is not None:
            marks = np.asarray(self.marks)
            if marks.shape[0] != pts.shape[0]:
                raise ValueError("marks length must equal number of points")
            object.__setattr__(self, "marks", marks)

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class PatternBatch:
    """``size`` point-pattern realizations as one ragged array: the points
    (N, d) of every replication in replication order, and the number of
    points of each replication, counts (size,).  Not validated: batch
    samplers build it once per chunk."""

    window: Window
    points: np.ndarray
    counts: np.ndarray

    @property
    def size(self) -> int:
        return self.counts.shape[0]

    def replication(self) -> np.ndarray:
        """(N,) replication index of each point."""
        return np.repeat(np.arange(self.size), self.counts)


@dataclass(frozen=True)
class GridField:
    """Piecewise-constant non-negative intensity on a regular grid."""

    window: Window
    cells_per_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        cpa = np.atleast_1d(np.asarray(self.cells_per_axis, dtype=int))
        if cpa.shape[0] != self.window.dim or np.any(cpa < 1):
            raise ValueError("cells_per_axis must be positive, one entry per axis")
        vals = np.asarray(self.values, dtype=float).reshape(tuple(cpa))
        if np.any(vals < 0) or not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite and non-negative")
        object.__setattr__(self, "cells_per_axis", cpa)
        object.__setattr__(self, "values", vals)

    @property
    def cell_lengths(self) -> np.ndarray:
        return self.window.lengths / self.cells_per_axis

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.cell_lengths))

    def axis_midpoints(self) -> list[np.ndarray]:
        """Cell midpoints along each axis."""
        return [
            self.window.lows[k] + (np.arange(self.cells_per_axis[k]) + 0.5) * self.cell_lengths[k]
            for k in range(self.window.dim)
        ]

    def midpoints(self) -> np.ndarray:
        """(n_cells, d) cell midpoints in C order matching values.ravel()."""
        mesh = np.meshgrid(*self.axis_midpoints(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def value_at(self, points: np.ndarray) -> np.ndarray:
        pts = _as_points(points, self.window.dim)
        lows, cell, n = self.window.lows, self.cell_lengths, self.cells_per_axis
        idx = [
            np.clip(np.floor((pts[:, k] - lows[k]) / cell[k]).astype(int), 0, n[k] - 1)
            for k in range(self.window.dim)
        ]
        return self.values[tuple(idx)]


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite purely atomic measure: (location, non-negative mass) pairs."""

    window: Window
    locations: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        locs = _in_window(self.locations, self.window, "atom")
        masses = np.atleast_1d(np.asarray(self.masses, dtype=float))
        if locs.shape[0] != masses.shape[0]:
            raise ValueError("locations/masses length mismatch")
        if np.any(masses < 0):
            raise ValueError("masses must be non-negative")
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "masses", masses)

    @property
    def n(self) -> int:
        return self.locations.shape[0]


# ---------------------------------------------------------------------------
# Counting and mass

def count_in(p: PointPattern, b: Box) -> int:
    """Number of points of p in the half-open box b."""
    return int(np.count_nonzero(b.contains(p.points)))


def mass_in(m: Union[GridField, AtomicMeasure], b: Box) -> float:
    """Measure of the half-open box b under a grid field or atomic measure.

    For a grid field this is the exact integral of the piecewise-constant
    density over b (fractional cell overlaps included).
    """
    if isinstance(m, AtomicMeasure):
        return float(np.sum(m.masses[b.contains(m.locations)]))
    # grid field: per-axis overlap lengths factorize the integral
    t = m.values
    for ov in cell_overlaps(m.window, m.cells_per_axis, b.lows, b.highs):
        t = np.tensordot(ov, t, axes=(0, 0))
    return float(t)


def cell_overlaps(w: Window, cells_per_axis, lows, highs) -> list[np.ndarray]:
    """Per axis k, the lengths of [edge_i, edge_i+1) ∩ [lows[..., k], highs[..., k])
    over the k-th axis's grid cells, each of shape (cells_per_axis[k],) + lows.shape[:-1].

    The volume of a grid cell inside a box is the product of its per-axis lengths.
    """
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    out = []
    for k in range(w.dim):
        n = int(cells_per_axis[k])
        edges = w.lows[k] + np.arange(n + 1) * (w.lengths[k] / n)
        edges = edges.reshape((n + 1,) + (1,) * (lows.ndim - 1))
        out.append(
            np.maximum(np.minimum(edges[1:], highs[..., k]) - np.maximum(edges[:-1], lows[..., k]), 0.0)
        )
    return out


# ---------------------------------------------------------------------------
# Random streams

@dataclass(frozen=True)
class RngStream:
    """A master seed and the path of split indices from it, seeding a
    PCG64DXSM generator through numpy's SeedSequence(seed, spawn_key=path),
    which hashes distinct paths to independent states.  SeedSequence cuts
    ints into 32-bit words, so an index of 2**32 or more, or a seed of 2**128
    or more, would alias a longer path."""

    seed: int
    path: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64DXSM(seq))

    def split(self, i: int) -> "RngStream":
        """The substream at path + (i,); ValueError unless 0 <= i < 2**32."""
        if not 0 <= i < 2**32:
            raise ValueError(f"substream index {i} outside [0, 2**32)")
        return RngStream(self.seed, self.path + (int(i),))


def make_stream(seed: int, k: int = 0) -> RngStream:
    """Substream k of the master seed; ValueError unless 0 <= seed < 2**64."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} outside [0, 2**64)")
    return RngStream(int(seed)).split(k)
