"""Order-preserving operations on realizations: displacement, marking, thinning,
superposition, mark projection, and product-power counts."""
from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np

from .distributions import MassDistribution
from .geometry import (
    TORUS,
    AtomicMeasure,
    Box,
    GridField,
    PointPattern,
    Window,
    as_generator,
    count_in,
    mass_in,
)


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


def mark_iid(p: PointPattern, mark: MassDistribution, rng) -> PointPattern:
    gen = as_generator(rng)
    marks = np.asarray(mark.sample(gen, size=p.n), dtype=float)
    return PointPattern(p.window, p.points, marks)


def mark_independent(
    p: PointPattern, kernel: Callable[[np.ndarray], MassDistribution], rng
) -> PointPattern:
    """Position-dependent independent marking: mark of x drawn from kernel(x)."""
    gen = as_generator(rng)
    marks = np.array([float(kernel(x).sample(gen)) for x in p.points])
    return PointPattern(p.window, p.points, marks)


def thin_iid(p: PointPattern, retention: float, rng) -> PointPattern:
    if not 0.0 <= retention <= 1.0:
        raise ValueError("retention must be in [0, 1]")
    gen = as_generator(rng)
    keep = gen.random(p.n) < retention
    marks = p.marks[keep] if p.marks is not None else None
    return PointPattern(p.window, p.points[keep], marks)


def thin_counts(counts: np.ndarray, retention: float, rng) -> np.ndarray:
    """Box counts of an independent thinning, from the box counts of the
    pattern: each count is thinned binomially."""
    if not 0.0 <= retention <= 1.0:
        raise ValueError("retention must be in [0, 1]")
    return as_generator(rng).binomial(counts, retention)


def thin_split(p: PointPattern, retention: float, rng) -> tuple[PointPattern, PointPattern]:
    """Thinning plus its complement from shared coin flips; superposing the two
    reconstructs p exactly."""
    gen = as_generator(rng)
    keep = gen.random(p.n) < retention
    m = p.marks
    return (
        PointPattern(p.window, p.points[keep], None if m is None else m[keep]),
        PointPattern(p.window, p.points[~keep], None if m is None else m[~keep]),
    )


def thin_independent(
    p: PointPattern, retention: Callable[[np.ndarray], np.ndarray], rng
) -> PointPattern:
    """Keep point x w.p. retention(x); retention takes (n, d) and returns (n,)."""
    gen = as_generator(rng)
    if p.n == 0:
        return p
    probs = np.asarray(retention(p.points), dtype=float)
    if np.any(probs < 0) or np.any(probs > 1):
        raise ValueError("retention probabilities must be in [0, 1]")
    keep = gen.random(p.n) < probs
    marks = p.marks[keep] if p.marks is not None else None
    return PointPattern(p.window, p.points[keep], marks)


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


def project_marks(p: PointPattern, mark_window: Window) -> PointPattern:
    """Pattern of marks; marks must be points of mark_window."""
    if p.marks is None:
        raise ValueError("pattern carries no marks")
    marks = np.atleast_2d(np.asarray(p.marks, dtype=float))
    if marks.shape[0] != p.n:
        marks = marks.T
    if marks.shape[1] != mark_window.dim:
        raise ValueError("marks are not points of the mark window")
    if p.n and not mark_window.contains(marks).all():
        if mark_window.topology == TORUS:
            marks = mark_window.wrap(marks)
        else:
            raise ValueError("mark outside mark window")
    return PointPattern(mark_window, marks)


def product_power_counts(
    src: Union[PointPattern, AtomicMeasure, GridField],
    boxes: Sequence[Box],
    k: int,
) -> np.ndarray:
    """One realization of the k-th power measure on all k-tuples of the boxes.

    Returns an array of shape (len(boxes),) * k with entry (i1..ik) equal to
    the product of the masses of the boxes.
    """
    if not 1 <= k <= 3:
        raise ValueError("k must be in 1..3")
    if isinstance(src, PointPattern):
        masses = np.array([count_in(src, b) for b in boxes], dtype=float)
    else:
        masses = np.array([mass_in(src, b) for b in boxes])
    out = masses
    for _ in range(k - 1):
        out = np.multiply.outer(out, masses)
    return out
