"""Parametric ingredient distributions: masses/marks, cluster kernels,
covariances, and the Poisson pmf with its summed tails."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .geometry import NumericalError

# relative level, against the peak, below which cluster and response kernels
# are cut off
TRUNCATION_REL_TOL = 1e-6

# Poisson tail mass P(N >= m) below which the exact oracles truncate the
# Poisson support and the stacked-radii sampler stops drawing radii
POISSON_TAIL = 1e-12


def poisson_pmf_tail(mean: float) -> tuple[np.ndarray, np.ndarray]:
    """Poisson(mean) pmf and its tail, tail[k] = P(N >= k), on the exact
    oracles' support 0..m, m one past poisson_tail_order(mean).

    Both are computed on 0..top first, top = mean + 40 sqrt(mean) + 40,
    beyond which the Poisson mass is below exp(-60) by a Chernoff bound, far
    under POISSON_TAIL.  Each term is exp(k log mean - lgamma(k + 1) - mean),
    and the tail is a reversed cumulative sum, so small terms are added
    first and the tail is non-increasing from tail[0] = 1.
    """
    if mean <= 0:
        raise ValueError("mean must be positive")
    top = int(mean + 40.0 * math.sqrt(mean) + 40.0)
    k = np.arange(top + 1)
    log_fact = np.array([math.lgamma(j + 1.0) for j in range(top + 1)])
    pmf = np.exp(k * math.log(mean) - log_fact - mean)
    tail = np.cumsum(pmf[::-1])[::-1]
    m = int(np.count_nonzero(tail >= POISSON_TAIL)) + 1
    return pmf[: m + 1], tail[: m + 1]


def poisson_tail_order(mean: float) -> int:
    """Smallest m with P(Poisson(mean) >= m) < POISSON_TAIL: the table of
    poisson_pmf_tail ends one past it."""
    return poisson_pmf_tail(mean)[0].size - 2


@dataclass(frozen=True)
class MassDistribution:
    """Non-negative scalar law with a closed-form mean.

    kinds:
      constant            params = (c,)
      exponential         params = (mean,)
      sum_of_exponentials params = (mean_1, ..., mean_k), sum of independent Exp
    """

    kind: str
    params: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.kind not in ("constant", "exponential", "sum_of_exponentials"):
            raise ValueError(f"unknown mass distribution kind {self.kind!r}")
        if not all(0 < p < math.inf or p == 0 and self.kind == "constant" for p in self.params):
            raise ValueError("mass params must be finite: a constant >= 0, exponential means > 0")

    def mean(self) -> float:
        if self.kind == "sum_of_exponentials":
            return float(sum(self.params))
        return self.params[0]

    def second_moment(self) -> float:
        if self.kind == "constant":
            return self.params[0] ** 2
        if self.kind == "exponential":
            return 2.0 * self.params[0] ** 2
        m = np.asarray(self.params)
        return float(np.sum(m**2) + np.sum(m) ** 2)

    def variance(self) -> float:
        return self.second_moment() - self.mean() ** 2

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        if self.kind == "constant":
            return np.full(size, self.params[0]) if size is not None else self.params[0]
        if self.kind == "exponential":
            return rng.exponential(self.params[0], size=size)
        shape = (size,) if np.isscalar(size) else size
        if size is None:
            return float(sum(rng.exponential(m) for m in self.params))
        out = np.zeros(shape)
        for m in self.params:
            out += rng.exponential(m, size=shape)
        return out

    def tail(self, s) -> np.ndarray:
        """P(X >= s); used as the fading tail in SINR estimators."""
        s = np.asarray(s, dtype=float)
        if self.kind == "constant":
            return (s <= self.params[0]).astype(float)
        if self.kind == "exponential":
            return np.exp(-np.maximum(s, 0.0) / self.params[0])
        raise NotImplementedError("tail of sum_of_exponentials not needed")


def constant(c: float) -> MassDistribution:
    return MassDistribution("constant", (c,))


def exponential(mean: float) -> MassDistribution:
    return MassDistribution("exponential", (mean,))


@dataclass(frozen=True)
class ClusterKernel:
    """Gaussian probability-density kernel of standard deviation sigma per axis on R^d."""

    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "sigma", float(self.sigma))
        if not self.sigma > 0:
            raise ValueError("cluster kernel sigma must be positive")

    def density(self, r2, dim: int) -> np.ndarray:
        """Kernel density at squared distance r2 from its centre; integrates to
        1 over R^dim.  It takes the squared distance that sq_distances gives,
        so the batch path takes no square root only to square it again."""
        out = np.exp(np.asarray(r2, dtype=float) * (-0.5 / self.sigma**2))
        out /= (2 * np.pi * self.sigma**2) ** (dim / 2)
        return out

    def truncation_radius(self) -> float:
        """Radius beyond which the density is below TRUNCATION_REL_TOL of its peak."""
        return self.sigma * np.sqrt(-2.0 * np.log(TRUNCATION_REL_TOL))

    def sample_offsets(self, rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
        """n i.i.d. displacement vectors distributed per the kernel density."""
        return rng.normal(0.0, self.sigma, size=(n, dim))


@dataclass(frozen=True)
class CovarianceSpec:
    """Stationary isotropic covariance for Gaussian fields on a grid."""

    kind: str
    variance: float
    corr_range: float

    def __post_init__(self):
        if self.kind not in ("exponential", "gaussian"):
            raise ValueError(f"unknown covariance kind {self.kind!r}")
        if self.variance < 0 or self.corr_range <= 0:
            raise ValueError("need variance >= 0 and range > 0")

    def value(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.kind == "exponential":
            return self.variance * np.exp(-r / self.corr_range)
        return self.variance * np.exp(-(r**2) / (2 * self.corr_range**2))


def cholesky_with_jitter(cov: np.ndarray) -> np.ndarray:
    """Dense Cholesky; one retry with 1e-10 added to the diagonal on failure."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        try:
            return np.linalg.cholesky(cov + 1e-10 * np.eye(cov.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise NumericalError("covariance matrix is not PSD within jitter tolerance") from exc
