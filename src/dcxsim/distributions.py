"""Parametric ingredient distributions: masses/marks, cluster kernels, covariances."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy import special

from .geometry import NumericalError


@dataclass(frozen=True)
class MassDistribution:
    """Non-negative scalar law with a closed-form mean.

    kinds:
      constant            params = (c,)
      exponential         params = (mean,)
      gamma               params = (shape, scale)
      sum_of_exponentials params = (mean_1, ..., mean_k), sum of independent Exp
      bernoulli           params = (p, value): value w.p. p, else 0
      user_table          params = (v1, p1, v2, p2, ...), probs sum to 1
    """

    kind: str
    params: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.kind not in (
            "constant",
            "exponential",
            "gamma",
            "sum_of_exponentials",
            "bernoulli",
            "user_table",
        ):
            raise ValueError(f"unknown mass distribution kind {self.kind!r}")
        if self.kind == "user_table":
            v, p = self._table()
            if np.any(v < 0) or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
                raise ValueError("user_table needs non-negative values and probs summing to 1")
        elif self.kind == "bernoulli":
            p = self.params[0]
            if not 0.0 <= p <= 1.0:
                raise ValueError("bernoulli probability must be in [0, 1]")

    def _table(self):
        arr = np.asarray(self.params, dtype=float).reshape(-1, 2)
        return arr[:, 0], arr[:, 1]

    def mean(self) -> float:
        if self.kind == "constant":
            return self.params[0]
        if self.kind == "exponential":
            return self.params[0]
        if self.kind == "gamma":
            return self.params[0] * self.params[1]
        if self.kind == "sum_of_exponentials":
            return float(sum(self.params))
        if self.kind == "bernoulli":
            return self.params[0] * self.params[1]
        v, p = self._table()
        return float(np.sum(v * p))

    def second_moment(self) -> float:
        if self.kind == "constant":
            return self.params[0] ** 2
        if self.kind == "exponential":
            return 2.0 * self.params[0] ** 2
        if self.kind == "gamma":
            k, s = self.params
            return k * (k + 1) * s**2
        if self.kind == "sum_of_exponentials":
            m = np.asarray(self.params)
            return float(np.sum(m**2) + np.sum(m) ** 2)
        if self.kind == "bernoulli":
            return self.params[0] * self.params[1] ** 2
        v, p = self._table()
        return float(np.sum(v**2 * p))

    def variance(self) -> float:
        return self.second_moment() - self.mean() ** 2

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        if self.kind == "constant":
            return np.full(size, self.params[0]) if size is not None else self.params[0]
        if self.kind == "exponential":
            return rng.exponential(self.params[0], size=size)
        if self.kind == "gamma":
            return rng.gamma(self.params[0], self.params[1], size=size)
        if self.kind == "sum_of_exponentials":
            shape = (size,) if np.isscalar(size) else size
            if size is None:
                return float(sum(rng.exponential(m) for m in self.params))
            out = np.zeros(shape)
            for m in self.params:
                out += rng.exponential(m, size=shape)
            return out
        if self.kind == "bernoulli":
            p, v = self.params
            return v * (rng.random(size) < p)
        v, p = self._table()
        idx = rng.choice(len(v), size=size, p=p)
        return v[idx]

    def tail(self, s) -> np.ndarray:
        """P(X >= s); used as the fading tail in SINR estimators."""
        s = np.asarray(s, dtype=float)
        if self.kind == "constant":
            return (s <= self.params[0]).astype(float)
        if self.kind == "exponential":
            return np.exp(-np.maximum(s, 0.0) / self.params[0])
        if self.kind == "gamma":
            k, sc = self.params
            return special.gammaincc(k, np.maximum(s, 0.0) / sc)
        if self.kind == "sum_of_exponentials":
            raise NotImplementedError("tail of sum_of_exponentials not needed")
        if self.kind == "bernoulli":
            p, v = self.params
            return np.where(s <= 0, 1.0, np.where(s <= v, p, 0.0))
        v, p = self._table()
        return np.array([(p[v >= x]).sum() for x in np.atleast_1d(s)]).reshape(s.shape)


def constant(c: float) -> MassDistribution:
    return MassDistribution("constant", (c,))


def exponential(mean: float) -> MassDistribution:
    return MassDistribution("exponential", (mean,))


@dataclass(frozen=True)
class ClusterKernel:
    """Radially symmetric probability-density kernel on R^d.

    kinds:
      gaussian       params = (sigma,)
      uniform_ball   params = (radius,)         constant density inside the ball
      indicator_ball params = (radius,)         alias of uniform_ball
      power_law      params = (beta, r0)        density prop. to (r0 + r)^-beta, beta > d
    """

    kind: str
    params: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.kind not in ("gaussian", "uniform_ball", "indicator_ball", "power_law"):
            raise ValueError(f"unknown cluster kernel kind {self.kind!r}")

    def _ball_volume(self, dim: int, r: float) -> float:
        return float(np.pi ** (dim / 2) / special.gamma(dim / 2 + 1) * r**dim)

    def density(self, r, dim: int) -> np.ndarray:
        """Kernel density evaluated at distance r; integrates to 1 over R^dim."""
        r = np.asarray(r, dtype=float)
        if self.kind == "gaussian":
            (sigma,) = self.params
            norm = (2 * np.pi * sigma**2) ** (dim / 2)
            return np.exp(-(r**2) / (2 * sigma**2)) / norm
        if self.kind in ("uniform_ball", "indicator_ball"):
            (radius,) = self.params
            return (r <= radius) / self._ball_volume(dim, radius)
        beta, r0 = self.params
        if beta <= dim:
            raise ValueError("power_law kernel needs beta > dim for integrability")
        # normalization of (r0+r)^-beta over R^dim via the radial integral
        surf = 2 * np.pi ** (dim / 2) / special.gamma(dim / 2)
        from scipy.integrate import quad

        total, _ = quad(lambda u: surf * u ** (dim - 1) * (r0 + u) ** (-beta), 0, np.inf)
        return (r0 + r) ** (-beta) / total

    def truncation_radius(self, dim: int) -> float:
        """Radius beyond which the density is below 1e-6 times its peak."""
        if self.kind == "gaussian":
            (sigma,) = self.params
            return sigma * np.sqrt(-2.0 * np.log(1e-6))
        if self.kind in ("uniform_ball", "indicator_ball"):
            return self.params[0]
        beta, r0 = self.params
        return r0 * (1e-6 ** (-1.0 / beta) - 1.0)

    def sample_offsets(self, rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
        """n i.i.d. displacement vectors distributed per the kernel density."""
        if self.kind == "gaussian":
            (sigma,) = self.params
            return rng.normal(0.0, sigma, size=(n, dim))
        if self.kind in ("uniform_ball", "indicator_ball"):
            (radius,) = self.params
            dirs = rng.normal(size=(n, dim))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            radii = radius * rng.random(n) ** (1.0 / dim)
            return dirs * radii[:, None]
        raise NotImplementedError("offset sampling for power_law kernels is not supported")


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

    def matrix(self, dists: np.ndarray) -> np.ndarray:
        """Covariance matrix from a distance matrix, validated PSD via Cholesky."""
        cov = self.value(dists)
        cholesky_with_jitter(cov)  # raises if not PSD within jitter tolerance
        return cov


def cholesky_with_jitter(cov: np.ndarray) -> np.ndarray:
    """Dense Cholesky; one retry with 1e-10 added to the diagonal on failure."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        try:
            return np.linalg.cholesky(cov + 1e-10 * np.eye(cov.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise NumericalError("covariance matrix is not PSD within jitter tolerance") from exc
