"""Stochastic-order testing: certified test-function suites, paired Monte-Carlo
comparisons, one verdict rule, and exact discrete oracles.

A claim "X <= Y in dcx order" is tested by estimating E f(X) and E f(Y) for
a randomized suite of functions f certified to be dcx.  Monte Carlo can only
falsify an ordering, so passing verdicts are CONSISTENT rather than proven.

Monte-Carlo estimates come from ``replicate``: chunk ci of side s is one batch
draw (gen, size) -> (size, k) from ``stream.split(ci).split(s)``.  Scenarios
pass the batch samplers of ``processes``; ``batched`` turns a per-replication
draw into one for the reference paths (``compare_on_boxes``, the law tests).
``compare_vectors`` evaluates its whole suite per chunk in one function-major
buffer (``_suite_plan``); ``TestFunction.__call__``, one function at a time,
is the reference and serves the numeric certificate and the exact oracle.

Every Monte-Carlo verdict comes from ``decide``: a family of z-scores, signed
so that negative values count against the claim (a two-sided test enters as
z and -z), is a VIOLATION iff some z < -bonferroni_z(z_crit, len(z)).  One
family fires falsely with probability at most sf(z_crit), 1.35e-3 at the
default z_crit = Z_CRIT.  ``worst`` combines the verdicts of sub-comparisons.
``bonferroni_z(z_crit, n) = -Phi^-1(Phi(-z_crit) / n)`` is computed with
``statistics.NormalDist``, and the exact oracles sum their Poisson pmfs and
tails with ``distributions.poisson_pmf_tail``, so this module needs no scipy.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Optional, Sequence

import numpy as np

from .distributions import poisson_pmf_tail
from .geometry import Box, RngStream, boxes_disjoint, count_in

CONSISTENT = "CONSISTENT"
VIOLATION = "VIOLATION"
INCONCLUSIVE = "INCONCLUSIVE"

# the false-alarm rate of every verdict: a family fires falsely with
# probability at most sf(Z_CRIT) = 1.35e-3
Z_CRIT = 3.0

# the exp test functions' argument is capped here, far below float overflow
_EXP_ARG_CAP = 90.0

# absolute tolerance of the exact stop-loss oracles
ORACLE_TOL = 1e-9


# ---------------------------------------------------------------------------
# Test functions

@dataclass(frozen=True)
class TestFunction:
    """One certified member of the dcx function class.

    families:
      lin_convex    phi(theta . x), phi in {exp, ((u - t)+)^p}; dcx and increasing
      pair_product  x_i * x_j; dcx on the non-negative orthant
    """

    __test__ = False  # not a pytest collection target

    fid: int
    family: str
    theta: np.ndarray
    phi: str = ""
    t: float = 0.0
    p: float = 1.0
    shift: float = 0.0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.family == "lin_convex":
            u = x @ self.theta
            if self.phi == "exp":
                return np.exp(np.minimum(u - self.shift, _EXP_ARG_CAP))
            return np.maximum(u - self.t, 0.0) ** self.p
        i, j = int(self.theta[0]), int(self.theta[1])
        return x[:, i] * x[:, j]

    def describe(self) -> str:
        if self.family == "lin_convex":
            return f"{self.family}/{self.phi}"
        return self.family


_DCX_FAMILIES = ("lin_convex:exp", "lin_convex:power", "pair_product")


def make_suite(
    order_class: str,
    n: int,
    count: int,
    stream: RngStream,
    scale: Optional[np.ndarray] = None,
) -> list[TestFunction]:
    """Randomized suite of `count` dcx functions on R^n; `order_class` must be
    "dcx".

    `scale` is a pilot estimate of the mean of the compared vectors; thresholds
    and exp-family weights are calibrated against it so arguments stay in a
    numerically benign range.
    """
    if order_class != "dcx":
        raise ValueError(f"unknown order class {order_class!r}")
    if count < 1:
        raise ValueError("count must be >= 1")
    gen = stream.generator()
    xbar = np.ones(n) if scale is None else np.maximum(np.asarray(scale, dtype=float), 1e-9)
    out: list[TestFunction] = []
    for fid in range(count):
        fam = _DCX_FAMILIES[fid % len(_DCX_FAMILIES)]
        theta = gen.random(n)
        u_bar = float(theta @ xbar)
        if fam == "lin_convex:exp":
            target = gen.uniform(0.5, 2.5)
            theta = theta * (target / max(u_bar, 1e-12))
            out.append(TestFunction(fid, "lin_convex", theta, phi="exp", shift=target))
        elif fam == "lin_convex:power":
            p = (1.0, 2.0, 3.0)[int(gen.integers(3))]
            t = float(gen.uniform(0.0, 1.2) * u_bar) if p > 1 or gen.random() < 0.5 else 0.0
            out.append(TestFunction(fid, "lin_convex", theta, phi="power", t=t, p=p))
        else:  # pair_product
            i = int(gen.integers(n))
            j = int(gen.integers(n - 1)) if n > 1 else 0
            if n > 1 and j >= i:
                j += 1
            out.append(TestFunction(fid, "pair_product", np.array([i, j], dtype=float)))
    return out


def verify_dcx_numeric(
    f: TestFunction, probes: np.ndarray, delta: float, tol: float = 1e-9
) -> tuple[bool, float]:
    """Finite-difference dcx certificate: all mixed second differences
      f(x + d e_i + d e_j) - f(x + d e_i) - f(x + d e_j) + f(x)
    are non-negative.  Returns (passed, worst violation).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    n = probes.shape[1]
    base = f(probes)
    scale = 1.0 + np.max(np.abs(base))
    worst = 0.0
    shifted = {i: f(probes + delta * np.eye(n)[i]) for i in range(n)}
    for i in range(n):
        for j in range(i, n):
            both = f(probes + delta * (np.eye(n)[i] + np.eye(n)[j]))
            mixed = both - shifted[i] - shifted[j] + base
            worst = min(worst, float(np.min(mixed)))
    return worst >= -tol * scale, worst


# ---------------------------------------------------------------------------
# Monte-Carlo comparison harness

@dataclass
class OrderReport:
    """Outcome of a paired comparison testing the claim X <= Y in some class.

    ``records`` holds one dict per suite function, keyed id, family, mean_x,
    mean_y, diff, stderr, z: the report's per_function entries and CSV columns.
    """

    records: list[dict]
    verdict: str
    mean_equality: Optional[dict]
    # per-coordinate variances of X and Y; kept for callers, not reported
    var_x: np.ndarray
    var_y: np.ndarray


def bonferroni_z(z_crit: float, n_tests: int) -> float:
    """The normal quantile whose upper tail is the tail of z_crit split over n_tests."""
    u = NormalDist()
    return -u.inv_cdf(u.cdf(-z_crit) / max(n_tests, 1))


def decide(z, z_crit: float = Z_CRIT) -> str:
    """VIOLATION iff some z < -bonferroni_z(z_crit, len(z)); negative z count against the claim."""
    return VIOLATION if np.any(np.ravel(z) < -bonferroni_z(z_crit, np.size(z))) else CONSISTENT


def worst(verdicts) -> str:
    """The most severe verdict: VIOLATION, then INCONCLUSIVE, then CONSISTENT."""
    return max(verdicts, key=(CONSISTENT, INCONCLUSIVE, VIOLATION).index, default=CONSISTENT)


# Replications per chunk of every Monte-Carlo estimate.  Chunk ci of side s
# draws from stream.split(ci).split(s), so the chunk size fixes which random
# numbers each replication sees and must stay constant.
_CHUNK = 2000


@dataclass(frozen=True)
class Moments:
    """Count, per-column mean and M2 (sum of squared deviations from the mean)
    of a sample of rows, mergeable with the pairwise update of Chan, Golub &
    LeVeque (1979).

    The mean is held as ``shift + offset`` with ``shift`` the sample's first
    row, so samples far from zero merge without cancellation (the shifted-data
    advice of Chan, Golub & LeVeque 1983): the merged mean is within a few
    ulps of the largest |row| of the exact mean.
    """

    n: int
    shift: np.ndarray
    offset: np.ndarray
    m2: np.ndarray

    @classmethod
    def of(cls, rows: np.ndarray) -> "Moments":
        """Two-pass moments of the rows of a 2-d array, centred in place: a
        float array passed in is overwritten with its squared deviations, so
        a caller that still needs its rows passes a copy (rows of another
        dtype are converted to a new float array first)."""
        rows = np.asarray(rows, dtype=float)
        shift = rows[0].copy()  # a view would keep every chunk's rows alive
        rows -= shift
        offset = rows.mean(axis=0)
        rows -= offset
        return cls(rows.shape[0], shift, offset, np.square(rows, out=rows).sum(axis=0))

    def merge(self, other: "Moments") -> "Moments":
        n = self.n + other.n
        delta = (other.shift - self.shift) + (other.offset - self.offset)
        return Moments(
            n,
            self.shift,
            self.offset + delta * (other.n / n),
            self.m2 + other.m2 + delta**2 * (self.n * other.n / n),
        )

    @property
    def mean(self) -> np.ndarray:
        return self.shift + self.offset

    @property
    def var(self) -> np.ndarray:
        """Unbiased (ddof = 1) variance per column."""
        return self.m2 / (self.n - 1)

    @property
    def stderr(self) -> np.ndarray:
        """Standard error of the mean per column."""
        return np.sqrt(self.var / self.n)


def _chunk_sizes(n_reps: int) -> list[int]:
    full, rem = divmod(n_reps, _CHUNK)
    return [_CHUNK] * full + ([rem] if rem else [])


def _run_chunks(worker, n_chunks: int) -> list:
    """The engine's chunk loop: worker results in chunk order."""
    return [worker(ci) for ci in range(n_chunks)]


def batched(draw: Callable[[np.random.Generator], np.ndarray]) -> Callable:
    """Batch draw from a per-replication draw: ``size`` calls stacked into a
    (size, k) array, in order from the one generator."""
    return lambda gen, size: np.stack([np.atleast_1d(draw(gen)) for _ in range(size)])


def check_reps(n_reps: int) -> int:
    """n_reps, refused below 2: one replication leaves the variance undefined."""
    if n_reps < 2:
        raise ValueError("need at least 2 replications")
    return n_reps


def replicate(
    draws: Sequence[Callable[[np.random.Generator, int], np.ndarray]],
    reduce: Callable[[np.ndarray], np.ndarray],
    n_reps: int,
    stream: RngStream,
) -> list[Moments]:
    """Moments of n_reps independent draws per side, one Moments per batch draw.

    Each chunk of _CHUNK replications (the last one holds the remainder)
    calls ``draw(gen, size)`` once for a (size, k) array of independent
    replications, and ``reduce`` maps it to the rows whose moments are kept.
    ``Moments.of`` centres those rows in place, so ``reduce`` returns a
    fresh array, or the draw itself, which nothing else holds.
    Chunk ci of side s draws from ``stream.split(ci).split(s)``, one index
    deeper than the suite streams ``stream.split(j)``, so the two never share
    a path; chunks merge in chunk order, so the result depends only on the stream.
    """
    sizes = _chunk_sizes(check_reps(n_reps))

    def worker(ci: int) -> list[Moments]:
        chunk = stream.split(ci)
        return [
            Moments.of(reduce(draw(chunk.split(s).generator(), sizes[ci])))
            for s, draw in enumerate(draws)
        ]

    parts = _run_chunks(worker, len(sizes))
    merged = parts[0]
    for part in parts[1:]:
        merged = [a.merge(b) for a, b in zip(merged, part)]
    return merged


def _z_scores(diff, se, degenerate=None) -> np.ndarray:
    """diff / se where se > 0, else ``degenerate`` (default: 0 or +-inf by the sign of diff)."""
    if degenerate is None:
        degenerate = np.where(diff == 0, 0.0, np.copysign(np.inf, diff))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(se > 0, diff / np.where(se > 0, se, 1.0), degenerate)


def _suite_plan(suite: Sequence[TestFunction]) -> tuple[Callable, np.ndarray]:
    """One evaluation of the whole suite per batch, and where each function lands.

    ``reduce`` maps a (size, k) batch v to a (size, len(suite) + k) rows array:
    the transpose of one function-major buffer whose rows are the exp
    functions, the power functions by exponent, the pair products (each
    family in suite order), then the k coordinates.  It is filled in place:
    one matmul of the stacked weights gives every linear statistic theta . x,
    and ufuncs on contiguous row blocks apply each profile.  Column
    ``back[i]`` of the rows holds suite[i], which ``TestFunction.__call__``
    evaluates on its own as the reference, up to the rounding of theta . x.
    """
    # exp, power by exponent, then pair products; sorted keeps suite order within each
    rank = [(f.family != "lin_convex", f.phi != "exp", f.p) for f in suite]
    order = sorted(range(len(suite)), key=rank.__getitem__)
    lin = [suite[i] for i in order if suite[i].family == "lin_convex"]
    n_lin, nf = len(lin), len(suite)
    n_exp = sum(f.phi == "exp" for f in lin)
    theta = np.array([f.theta for f in lin], dtype=float)
    offset = np.array([f.shift if f.phi == "exp" else f.t for f in lin])[:, None]
    powers, stop = [], n_exp
    for p, run in itertools.groupby(f.p for f in lin[n_exp:]):
        start, stop = stop, stop + len(list(run))
        powers.append((slice(start, stop), p))
    pairs = [suite[i].theta.astype(int) for i in order[n_lin:]]

    def reduce(v: np.ndarray) -> np.ndarray:
        buf = np.empty((nf + v.shape[1], v.shape[0]))
        x, u = buf[nf:], buf[:n_lin]
        x[...] = v.T
        np.matmul(theta.reshape(n_lin, v.shape[1]), x, out=u)
        u -= offset
        np.exp(np.minimum(u[:n_exp], _EXP_ARG_CAP, out=u[:n_exp]), out=u[:n_exp])
        np.maximum(u[n_exp:], 0.0, out=u[n_exp:])
        for block, p in powers:
            rows = u[block]
            rows **= p
        for r, (i, j) in enumerate(pairs, n_lin):
            np.multiply(x[i], x[j], out=buf[r])
        return buf.T

    return reduce, np.argsort(order)


def compare_vectors(
    draw_x: Callable[[np.random.Generator, int], np.ndarray],
    draw_y: Callable[[np.random.Generator, int], np.ndarray],
    suite: Sequence[TestFunction],
    n_reps: int,
    stream: RngStream,
    *,
    z_crit: float = Z_CRIT,
) -> OrderReport:
    """Independent MC estimates of E f(X) and E f(Y) per suite function, with
    Welch z-scores against the claim X <= Y and a Bonferroni-corrected verdict.

    draw_x and draw_y are batch draws (gen, size) -> (size, n), each side
    drawn from its own substreams, so the two sides are independent.  Each
    chunk's suite values and coordinates fill one function-major
    (suite + n, size) buffer (``_suite_plan``), whose transpose Moments.of
    centres in place; the records come back in suite order."""
    if len(suite) == 0:
        raise ValueError("empty test-function suite")
    nf = len(suite)

    reduce, back = _suite_plan(suite)
    mom_x, mom_y = replicate((draw_x, draw_y), reduce, n_reps, stream)
    # back to suite order, once; the coordinates follow the suite rows
    back = np.concatenate([back, np.arange(nf, len(mom_x.mean))])
    mean_x, mean_y = mom_x.mean[back], mom_y.mean[back]
    var_x, var_y = mom_x.var[back], mom_y.var[back]
    se_all = np.sqrt((var_x + var_y) / n_reps)
    diff_all = mean_y - mean_x

    diff, se = diff_all[:nf], se_all[:nf]
    z = _z_scores(diff, se)
    records = [
        {"id": f.fid, "family": f.describe(), "mean_x": float(mean_x[i]), "mean_y": float(mean_y[i]),
         "diff": float(diff[i]), "stderr": float(se[i]), "z": float(z[i])}
        for i, f in enumerate(suite)
    ]

    zm = _z_scores(diff_all[nf:], se_all[nf:], 0.0)
    means_equal = decide(np.concatenate([zm, -zm]), z_crit) == CONSISTENT
    mean_eq = {
        "checked": True,
        "mean_x": mean_x[nf:].tolist(),
        "mean_y": mean_y[nf:].tolist(),
        "z": zm.tolist(),
        "passed": means_equal,
    }

    verdict = decide(z, z_crit)
    if verdict == CONSISTENT and not means_equal:
        verdict = INCONCLUSIVE
    return OrderReport(records, verdict, mean_eq, var_x[nf:], var_y[nf:])


def counts_on_boxes(sampler: Callable, boxes: Sequence[Box]) -> Callable:
    """Adapt a pattern sampler into a count-vector sampler over the boxes."""

    def draw(gen: np.random.Generator) -> np.ndarray:
        p = sampler(gen)
        return np.array([count_in(p, b) for b in boxes], dtype=float)

    return draw


def compare_on_boxes(
    sampler_x: Callable,
    sampler_y: Callable,
    boxes: Sequence[Box],
    suite: Sequence[TestFunction],
    n_reps: int,
    stream: RngStream,
    **kwargs,
) -> OrderReport:
    """compare_vectors on the count vectors of pairwise-disjoint boxes, from
    point-pattern samplers."""
    if not boxes_disjoint(boxes):
        raise ValueError("boxes must be pairwise disjoint")
    return compare_vectors(
        batched(counts_on_boxes(sampler_x, boxes)),
        batched(counts_on_boxes(sampler_y, boxes)),
        suite,
        n_reps,
        stream,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# Lower-orthant comparison

def lo_compare(
    draw_u1: Callable,
    draw_u2: Callable,
    thresholds: np.ndarray,
    n_reps: int,
    stream: RngStream,
) -> dict:
    """Test the claim U1 <= U2 in lower-orthant order:
    P(U1 <= t) >= P(U2 <= t) jointly at every threshold vector t.

    draw_u1 and draw_u2 are batch draws, as in compare_vectors.  Returns
    {"verdict", "per_threshold": [{"t", "cdf_1", "cdf_2", "stderr"}, ...]}."""
    thresholds = np.atleast_2d(np.asarray(thresholds, dtype=float))
    if not np.all(np.isfinite(thresholds)):
        raise ValueError("lower-orthant thresholds must be finite")

    def below(u: np.ndarray) -> np.ndarray:
        # (size, thresholds) per axis, ANDed over the axes
        out = u[:, 0, None] <= thresholds[:, 0]
        for k in range(1, thresholds.shape[1]):
            out &= u[:, k, None] <= thresholds[:, k]
        return out

    mom_1, mom_2 = replicate((draw_u1, draw_u2), below, n_reps, stream)
    p1, p2 = mom_1.mean, mom_2.mean
    se = np.sqrt(p1 * (1 - p1) / n_reps + p2 * (1 - p2) / n_reps)
    return {
        "verdict": decide(_z_scores(p1 - p2, se)),
        "per_threshold": [
            {"t": t.tolist(), "cdf_1": float(c1), "cdf_2": float(c2), "stderr": float(e)}
            for t, c1, c2, e in zip(thresholds, p1, p2, se)
        ],
    }


# ---------------------------------------------------------------------------
# Exact convex-order oracles for discrete laws: each returns its report record,
# a dict whose "verdict" is "pass" or "fail"

def oracle_verdict(passed: bool) -> str:
    """The verdict string of an exact oracle."""
    return "pass" if passed else "fail"


def _stop_loss(values: np.ndarray, probs: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    return np.maximum(values[None, :] - t_grid[:, None], 0.0) @ probs


def cx_compare_exact(
    pmf_x: tuple[np.ndarray, np.ndarray], pmf_y: tuple[np.ndarray, np.ndarray]
) -> dict:
    """Exact stop-loss check of X <= Y in cx order (requires equal means), at
    tolerance ORACLE_TOL: {"verdict", "max_violation", "mean_x", "mean_y"}.

    The t grid is every support point of both pmfs plus midpoints, which is
    sufficient for piecewise-linear stop-loss transforms.
    """
    vx, px = (np.asarray(a, dtype=float) for a in pmf_x)
    vy, py = (np.asarray(a, dtype=float) for a in pmf_y)
    for p in (px, py):
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("pmf not normalized within 1e-12")
    # duplicate support points give equal stop-loss values, so the max over a
    # sorted grid with repeats equals the max over the distinct points (and,
    # unlike np.unique, np.sort does not import numpy.ma in scenario time)
    support = np.sort(np.concatenate([vx, vy]))
    t_grid = np.concatenate([support, (support[:-1] + support[1:]) / 2.0])
    viol = float(np.max(_stop_loss(vx, px, t_grid) - _stop_loss(vy, py, t_grid)))
    mean_x = float(vx @ px)
    mean_y = float(vy @ py)
    return {
        "verdict": oracle_verdict(viol <= ORACLE_TOL and abs(mean_x - mean_y) <= ORACLE_TOL),
        "max_violation": max(viol, 0.0),
        "mean_x": mean_x,
        "mean_y": mean_y,
    }


def oracle_poisson_scaling(a: float, c: float) -> dict:
    """Exact check that Poisson(c a) <= c * Poisson(a) in convex order (c >= 1)."""
    if a <= 0 or c < 1:
        raise ValueError("need a > 0 and c >= 1")
    px, _ = poisson_pmf_tail(c * a)
    py, _ = poisson_pmf_tail(a)
    return cx_compare_exact((np.arange(px.size), px), (c * np.arange(py.size), py))


def _poisson_binomial_pmf(probs: np.ndarray) -> np.ndarray:
    pmf = np.array([1.0])
    for p in probs:
        nxt = np.zeros(pmf.size + 1)
        nxt[:-1] += pmf * (1.0 - p)
        nxt[1:] += pmf * p
        pmf = nxt
    return pmf


def oracle_ginibre_radii(b: float) -> dict:
    """Exact check that the count sum_k Bern(P(Poisson(b) >= k)) of the
    stacked-radii construction is convex-smaller than Poisson(b); both means b.
    The cx_compare_exact record plus mean_structured and mean_poisson, which
    must both be b for a pass."""
    if b <= 0:
        raise ValueError("b must be positive")
    py, tail = poisson_pmf_tail(b)
    pmf_x = _poisson_binomial_pmf(tail[1:])  # Bern(P(N_b >= k)), k = 1..m
    cx = cx_compare_exact((np.arange(pmf_x.size), pmf_x), (np.arange(py.size), py))
    mean_x, mean_y = cx["mean_x"], cx["mean_y"]
    passed = cx["verdict"] == "pass" and abs(mean_x - b) <= ORACLE_TOL and abs(mean_y - b) <= ORACLE_TOL
    return dict(cx, verdict=oracle_verdict(passed), mean_structured=mean_x, mean_poisson=mean_y)


def oracle_ising_exact(
    n_sites: int,
    mu1: float,
    mu2: float,
    p_plus: float,
    suite: Sequence[TestFunction],
) -> dict:
    """Exact enumeration check that the i.i.d.-spin lattice intensity field is
    larger than its constant mean field for every dcx suite function:
    f(mean, ..., mean) <= E f(values at the sites) within ORACLE_TOL, each
    site in its own lattice cell.  {"verdict", "worst_violation", "n_functions"}."""
    if mu2 > mu1:
        raise ValueError("need mu2 <= mu1")
    if n_sites > 12:
        raise ValueError("at most 12 sites can be enumerated")
    configs = np.array(list(itertools.product([0, 1], repeat=n_sites)), dtype=float)
    weights = np.prod(np.where(configs == 1, p_plus, 1.0 - p_plus), axis=1)
    values = np.where(configs == 1, mu1, mu2)
    mean_field = np.full((1, n_sites), mu1 * p_plus + mu2 * (1.0 - p_plus))
    worst = 0.0
    for f in suite:
        ef = float(weights @ f(values))
        f0 = float(f(mean_field)[0])
        worst = min(worst, ef - f0)
    return {
        "verdict": oracle_verdict(worst >= -ORACLE_TOL),
        "worst_violation": worst,
        "n_functions": len(suite),
    }
