"""Order-preserving operations on realizations: displacement, i.i.d. marking,
independent thinning (of patterns and of box counts) and superposition."""
from __future__ import annotations

from typing import Callable

import numpy as np

from .distributions import MassDistribution
from .geometry import TORUS, PointPattern


def displace(p: PointPattern, mapping: Callable[[np.ndarray], np.ndarray]) -> PointPattern:
    """Apply a deterministic point map; wrap on torus, drop out-of-window on plain.

    mapping takes an (n, d) array and returns an (n, d) array.
    """
    if p.n == 0:
        return p
    images = np.atleast_2d(np.asarray(mapping(p.points), dtype=float))
    w = p.window
    if w.topology == TORUS:
        images = w.wrap(images)
        keep = np.ones(images.shape[0], dtype=bool)
    else:
        keep = w.contains(images)
    marks = p.marks[keep] if p.marks is not None else None
    return PointPattern(w, images[keep], marks)


def mark_iid(p: PointPattern, mark: MassDistribution, gen: np.random.Generator) -> PointPattern:
    marks = np.asarray(mark.sample(gen, size=p.n), dtype=float)
    return PointPattern(p.window, p.points, marks)


def thin_iid(p: PointPattern, retention: float, gen: np.random.Generator) -> PointPattern:
    return thin_split(p, retention, gen)[0]


def thin_counts(counts: np.ndarray, retention: float, gen: np.random.Generator) -> np.ndarray:
    """Box counts of an independent thinning, from the box counts of the
    pattern: each count is thinned binomially."""
    if not 0.0 <= retention <= 1.0:
        raise ValueError("retention must be in [0, 1]")
    return gen.binomial(counts, retention)


def thin_split(
    p: PointPattern, retention: float, gen: np.random.Generator
) -> tuple[PointPattern, PointPattern]:
    """Thinning plus its complement from shared coin flips; superposing the two
    reconstructs p exactly."""
    if not 0.0 <= retention <= 1.0:
        raise ValueError("retention must be in [0, 1]")
    keep = gen.random(p.n) < retention
    m = p.marks
    return (
        PointPattern(p.window, p.points[keep], None if m is None else m[keep]),
        PointPattern(p.window, p.points[~keep], None if m is None else m[~keep]),
    )


def superpose(p1: PointPattern, p2: PointPattern) -> PointPattern:
    """Union with multiplicity; both patterns must share a window."""
    if p1.window != p2.window:
        raise ValueError("window mismatch in superposition")
    pts = np.vstack([p1.points, p2.points])
    if p1.marks is not None and p2.marks is not None:
        marks = np.concatenate([p1.marks, p2.marks])
    elif p1.marks is None and p2.marks is None:
        marks = None
    else:
        raise ValueError("cannot superpose a marked with an unmarked pattern")
    return PointPattern(p1.window, pts, marks)
