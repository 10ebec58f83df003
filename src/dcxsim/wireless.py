"""Network performance estimators driven by shot-noise interference:
joint SINR coverage of a set of links and Boolean-model coverage counts.

The estimators take ragged batch samplers (gen, size) -> PatternBatch: a
chunk's points (N, d) in replication order and its per-replication counts
(size,).  Fading is drawn as (N, links) arrays and reaches
``shotnoise.ragged_sn`` as its marks, with the response value(d) * f, and
the chunk is reduced in replication-aligned blocks; noise power and grain
radius are fixed numbers.  The chunks are those of ``ordering.replicate``."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import MassDistribution
from .geometry import RngStream, Window, _in_window, pairwise_distances
from .ordering import replicate
from .shotnoise import ResponseKernel, ragged_sn


@dataclass(frozen=True)
class LinkLayout:
    """Fixed transmitter/receiver pairs sharing a window with interferers.

    Link i succeeds when F_i * g(|x_i - y_i|) >= threshold * (W + I_i),
    with F_i the own-link fading, W >= 0 the fixed noise power at every
    receiver and I_i the fading-weighted shot-noise interference at y_i.
    """

    window: Window
    transmitters: np.ndarray
    receivers: np.ndarray
    threshold: float
    path_loss: ResponseKernel
    fading: MassDistribution
    noise: float

    def __post_init__(self):
        # a torus distance takes the shorter way round, which is wrong from
        # a point outside the window
        tx = _in_window(self.transmitters, self.window, "transmitter")
        rx = _in_window(self.receivers, self.window, "receiver")
        if tx.shape != rx.shape:
            raise ValueError("transmitters/receivers must be matching (n, d) arrays")
        if tx.shape[0] == 0:
            raise ValueError("need at least one link")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if not self.noise >= 0:
            raise ValueError("noise power must be non-negative")
        object.__setattr__(self, "transmitters", tx)
        object.__setattr__(self, "receivers", rx)

    @property
    def n_links(self) -> int:
        return self.transmitters.shape[0]

    def gains(self) -> np.ndarray:
        """Path gain from transmitter i to receiver j at [i, j]; the diagonal
        holds each link's gain at its own receiver."""
        gains = self.path_loss.value(
            pairwise_distances(self.window, self.transmitters, self.receivers)
        )
        if np.any(np.diag(gains) <= 0):
            raise ValueError("a direct link has zero path gain (beyond truncation)")
        return gains


def _sinr_estimate(
    layout: LinkLayout,
    interferer_sampler: Callable,
    n_reps: int,
    stream: RngStream,
    rayleigh: bool,
) -> tuple[float, float]:
    all_gains = layout.gains()
    gains = np.diag(all_gains)
    fading, n = layout.fading, layout.n_links
    # row r: the gains from every other link's emitter to receiver r
    cross_gains = all_gains.T[~np.eye(n, dtype=bool)].reshape(n, n - 1)

    def draw(gen, size: int) -> np.ndarray:
        interferers = interferer_sampler(gen, size)
        # the other links' emitters and the interferers, with fading i.i.d.
        # per emitter-receiver pair
        cross = np.asarray(fading.sample(gen, size=(size, n, n - 1)), dtype=float) * cross_gains
        fades = np.asarray(fading.sample(gen, size=(interferers.points.shape[0], n)), dtype=float)
        i_pow = cross.sum(axis=2) + ragged_sn(
            interferers, layout.receivers, lambda d, f: layout.path_loss.value(d) * f, marks=fades
        )
        s = layout.threshold * (layout.noise + i_pow) / gains
        if rayleigh:
            # conditional success probability given noise and interference:
            # product of the fading tails, a lower-variance estimator of the
            # same joint coverage probability
            return np.prod(fading.tail(s), axis=1, keepdims=True)
        own = np.asarray(fading.sample(gen, size=(size, n)), dtype=float)
        return np.all(own >= s, axis=1, keepdims=True)

    (mom,) = replicate((draw,), lambda v: v, n_reps, stream)
    return float(mom.mean[0]), float(mom.stderr[0])


def sinr_success(
    layout: LinkLayout,
    interferer_sampler: Callable,
    n_reps: int,
    stream: RngStream,
) -> tuple[float, float]:
    """Joint success probability of all links, indicator estimator.

    Works for any fading law; every replication draws the interferer pattern,
    interference fading and own-link fading.  interferer_sampler is a
    batch sampler (gen, size) -> PatternBatch in the layout's window.
    """
    return _sinr_estimate(layout, interferer_sampler, n_reps, stream, False)


def sinr_success_rayleigh(
    layout: LinkLayout,
    interferer_sampler: Callable,
    n_reps: int,
    stream: RngStream,
) -> tuple[float, float]:
    """Joint success probability with own-link fading integrated out analytically.

    Unbiased for the same quantity as sinr_success whenever the fading law has
    a closed-form tail, with strictly smaller per-replication variance; with
    exponential fading this is the classical Rayleigh product form.
    """
    if layout.fading.kind == "sum_of_exponentials":
        raise ValueError("fading law lacks a closed-form tail")
    return _sinr_estimate(layout, interferer_sampler, n_reps, stream, True)


def boolean_coverage(
    germ_sampler: Callable,
    radius: float,
    queries: np.ndarray,
    n_reps: int,
    stream: RngStream,
) -> dict[str, np.ndarray]:
    """Coverage count V(y) = number of balls of the given radius > 0, centred
    at the germs, that contain y; estimates P(V >= 1), E V and E V^2 at each
    query, as arrays p_cover, mean_count and second_moment, each with its
    stderrs under the same key plus "_stderr".

    germ_sampler is a batch sampler (gen, size) -> PatternBatch; the count
    is stats.coverage_field of each realization with every mark = radius."""
    if not radius > 0:
        raise ValueError("grain radius must be positive")
    queries = np.atleast_2d(np.asarray(queries, dtype=float))

    def draw(gen, size: int) -> np.ndarray:
        return ragged_sn(germ_sampler(gen, size), queries, lambda d: d <= radius)

    (mom,) = replicate((draw,), lambda v: np.hstack([v >= 1, v, v**2]), n_reps, stream)
    out = {}
    for key, mean, se in zip(
        ("p_cover", "mean_count", "second_moment"), np.split(mom.mean, 3), np.split(mom.stderr, 3)
    ):
        out[key], out[key + "_stderr"] = mean, se
    return out
