import numpy as np
import pytest
from scipy.integrate import quad

from dcxsim.distributions import (
    ClusterKernel,
    CovarianceSpec,
    MassDistribution,
    cholesky_with_jitter,
    constant,
    exponential,
)
from dcxsim.geometry import make_stream


@pytest.mark.parametrize(
    "dist",
    [
        constant(2.5),
        exponential(1.5),
        MassDistribution("sum_of_exponentials", (0.5, 0.5)),
    ],
)
def test_moments_match_samples(dist):
    gen = make_stream(11).generator()
    x = np.asarray(dist.sample(gen, size=200_000), dtype=float)
    assert x.mean() == pytest.approx(dist.mean(), abs=5 * x.std() / np.sqrt(x.size) + 1e-12)
    assert (x**2).mean() == pytest.approx(dist.second_moment(), rel=0.05, abs=1e-12)
    assert np.all(x >= 0)


def test_sum_of_two_half_exponentials_mean_matches_unit_exponential():
    a = MassDistribution("sum_of_exponentials", (0.5, 0.5))
    b = exponential(1.0)
    assert a.mean() == b.mean() == 1.0
    # strictly less spread: the convex-order relation shows up in the variance
    assert a.variance() < b.variance()


def test_tail_functions():
    e = exponential(2.0)
    assert e.tail(0.0) == pytest.approx(1.0)
    assert e.tail(2.0) == pytest.approx(np.exp(-1.0))
    c = constant(3.0)
    assert c.tail(2.0) == 1.0 and c.tail(4.0) == 0.0


def test_invalid_distributions():
    # only the laws the scenarios use are kinds; the Gaussian kernel needs sigma > 0
    for kind in ("cauchy", "gamma", "bernoulli", "user_table"):
        with pytest.raises(ValueError):
            MassDistribution(kind, (0.5, 1.0))
    for sigma in (0.0, -0.1, float("nan")):
        with pytest.raises(ValueError):
            ClusterKernel(sigma)


@pytest.mark.parametrize(
    "kernel,dim",
    [
        (ClusterKernel(0.2), 2),
        (ClusterKernel(0.2), 1),
    ],
)
def test_kernel_density_normalized(kernel, dim):
    from scipy import special

    surf = 2 * np.pi ** (dim / 2) / special.gamma(dim / 2)
    total, _ = quad(
        lambda r: surf * r ** (dim - 1) * float(kernel.density(r**2, dim)), 0, np.inf, limit=200
    )
    assert total == pytest.approx(1.0, abs=1e-6)


def test_kernel_offsets_match_density():
    gen = make_stream(5).generator()
    k = ClusterKernel(0.2)
    offs = k.sample_offsets(gen, 100_000, 2)
    assert offs.std(axis=0) == pytest.approx([0.2, 0.2], rel=0.02)


def test_truncation_radius_bounds_density():
    k = ClusterKernel(0.2)
    r = k.truncation_radius()
    assert float(k.density(r**2, 2)) <= 1e-6 * float(k.density(0.0, 2)) * (1 + 1e-9)


def test_covariance_spec_and_cholesky():
    cov = CovarianceSpec("exponential", 1.5, 0.3)
    assert cov.value(0.0) == pytest.approx(1.5)
    d = np.abs(np.subtract.outer(np.linspace(0, 1, 20), np.linspace(0, 1, 20)))
    m = cov.value(d)
    chol = cholesky_with_jitter(m)
    assert np.allclose(chol @ chol.T, m, atol=1e-8)
    with pytest.raises(ValueError):
        cholesky_with_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]))
