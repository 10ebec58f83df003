"""Checks of the reports ``dcxsim run`` writes, against values the benchmark
computes itself: closed forms, exact enumeration and quadrature, never a
stored copy of earlier output.

Every Monte-Carlo check yields a p-value under the hypothesis that the
program is correct.  A run passes when every p-value is at least ALPHA / m,
with m the number of such checks in the run (Bonferroni), so a correct
program that draws its random numbers differently fails a run with
probability at most ALPHA (up to the normal approximations noted below).
Exact oracle checks are deterministic and use the oracles' own 1e-9.

The scenario parameters the closed forms use are the defaults of
``dcxsim.scenarios`` unless ``workloads.py`` sets them; they are restated
here (``*_DEFAULTS``) so that a changed default fails a check instead of
silently changing what is compared.

Print every reference value with
    python3 bench/checks.py [--seed N]
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats as sps

from workloads import PPCLUSTER_PAIRS, WORKLOADS

ALPHA = 1e-5  # family-wise false-failure probability of one run
ORACLE_TOL = 1e-9

ISING_DEFAULTS = {"mu1": 2.0, "mu2": 0.0, "p_plus": 0.5, "side": 4.0}
SINR_DEFAULTS = {
    "lam": 5.0, "T": 1.0, "beta": 4.0, "noise": 0.01,
    "tx": [[0.3, 0.3], [0.7, 0.7]], "rx": [[0.3, 0.35], [0.7, 0.75]],
}
COVERAGE_DEFAULTS = {"lam": 20.0, "r": 0.1}
LO_DEFAULTS = {
    "lam": 20.0, "beta": 4.0, "queries": [[0.25, 0.25], [0.75, 0.75]],
    "grid": [0.1, 0.3, 0.5, 0.7, 0.9],
}
LEVY_DEFAULTS = {"atoms_per_box": 4, "x_shape": 2.0, "x_scale": 0.5, "y_shape": 1.0, "y_scale": 1.0}
MARKED_DEFAULTS = {"lam": 10.0, "box_volume": 0.25, "mark_mean": 1.0}
PPCLUSTER_DEFAULTS = {"lam": 20.0, "sigma": 0.1}
PALM_DEFAULTS = {"lam": 5.0, "box_volume": 1.0}
RIPLEY_DEFAULTS = {"r_grid": [0.02, 0.05, 0.1, 0.15]}
GINIBRE_B = [0.5, 1.0, 2.0, 5.0]
SCALING_AC = [(a, c) for a in (0.5, 1.0, 2.0) for c in (1.5, 2.0, 3.0)]


# ---------------------------------------------------------------------------
# Closed forms

def torus_dist(a, b) -> np.ndarray:
    """Distances on the unit torus between the rows of a (..., 2) and b (2,)."""
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    d = np.minimum(d, 1.0 - d)
    return np.sqrt(np.sum(d**2, axis=-1))


def sinr_poisson_success(p: dict = SINR_DEFAULTS, grid: int = 2048) -> float:
    """Joint success probability of the links with Poisson interferers and
    Rayleigh (unit exponential) fading, from the Poisson Laplace functional:

        P = exp(-T W sum_i 1/g_ii) * prod_{i != j} 1/(1 + T g_ji / g_ii)
            * exp(-lam * int_torus 1 - prod_i 1/(1 + T g(|x - y_i|) / g_ii) dx)

    with g(r) = (1 + r)^-beta.  The integral is a midpoint rule on a
    grid x grid lattice of the unit torus.
    """
    tx, rx = np.asarray(p["tx"], float), np.asarray(p["rx"], float)
    g = lambda r: (1.0 + r) ** (-p["beta"])
    gii = np.array([g(torus_dist(tx[i], rx[i])) for i in range(len(rx))])
    t = p["T"]
    out = math.exp(-t * p["noise"] * float(np.sum(1.0 / gii)))
    for i in range(len(rx)):
        for j in range(len(tx)):
            if i != j:
                out /= 1.0 + t * g(torus_dist(tx[j], rx[i])) / gii[i]
    u = (np.arange(grid) + 0.5) / grid
    pts = np.stack(np.meshgrid(u, u, indexing="ij"), axis=-1)
    v = np.ones((grid, grid))
    for i in range(len(rx)):
        v /= 1.0 + t * g(torus_dist(pts, rx[i])) / gii[i]
    return out * math.exp(-p["lam"] * float(np.mean(1.0 - v)))


def _arc_union(c1, h1, c2, h2) -> np.ndarray:
    """Length of the union of two arcs (centre c, half-width h; h < 0 is
    empty) on the circle of length 1."""
    full = (h1 >= 0.5) | (h2 >= 0.5)
    a1, a2 = np.clip(h1, 0.0, 0.5), np.clip(h2, 0.0, 0.5)
    d = np.abs(c1 - c2) % 1.0
    d = np.minimum(d, 1.0 - d)

    def overlap(delta):
        return np.maximum(0.0, np.minimum(a1, delta + a2) - np.maximum(-a1, delta - a2))

    both = (h1 >= 0) & (h2 >= 0)
    ov = np.where(both, overlap(d) + overlap(d - 1.0), 0.0)
    return np.where(full, 1.0, np.minimum(1.0, 2 * a1 + 2 * a2 - ov))


def torus_disc_union_area(c1, r1, c2, r2, nx: int = 200_000) -> float:
    """Area of the union of two discs on the unit torus (torus distance),
    integrated over x by the midpoint rule; the y-sections are exact arcs."""
    x = (np.arange(nx) + 0.5) / nx

    def half_width(c, r):
        dx = np.abs(x - c[0])
        dx = np.minimum(dx, 1.0 - dx)
        return np.where(dx < r, np.sqrt(np.maximum(r * r - dx * dx, 0.0)), -1.0)

    return float(np.mean(_arc_union(c1[1], half_width(c1, r1), c2[1], half_width(c2, r2))))


def lo_poisson_cdf(p: dict = LO_DEFAULTS) -> tuple[np.ndarray, np.ndarray]:
    """P(U(y1) <= t1, U(y2) <= t2) for the extremal shot noise of a Poisson
    pattern with g(r) = (1 + r)^-beta: no point closer than r(t) = t^(-1/beta) - 1
    to the queries, i.e. exp(-lam |union of the two torus discs|)."""
    grid = np.asarray(p["grid"], float)
    thresholds = np.array([[a, b] for a in grid for b in grid])
    radius = thresholds ** (-1.0 / p["beta"]) - 1.0
    q1, q2 = p["queries"]
    areas = np.array([torus_disc_union_area(q1, r[0], q2, r[1]) for r in radius])
    return thresholds, np.exp(-p["lam"] * areas)


def coverage_poisson(p: dict = COVERAGE_DEFAULTS) -> dict:
    """The coverage count at a point is Poisson(mu), mu = lam pi r^2 (r < 1/2)."""
    mu = p["lam"] * math.pi * p["r"] ** 2
    m4 = mu**4 + 6 * mu**3 + 7 * mu**2 + mu  # E V^4 of a Poisson(mu) count
    return {
        "mu": mu,
        "p_cover": 1.0 - math.exp(-mu),
        "mean_count": mu,
        "second_moment": mu * (1.0 + mu),
        "var_second_moment": m4 - (mu * (1.0 + mu)) ** 2,
    }


def ppcluster_cumulants(c: float, p: dict = PPCLUSTER_DEFAULTS) -> tuple[float, float]:
    """Second and fourth cumulants of the cluster intensity
    (1/c) sum over Poisson(c lam) parents of a Gaussian density k:
    kappa_m = lam c^(1-m) int k^m, with int k^m = (2 pi sigma^2)^(1-m) / m."""
    s2 = 2 * math.pi * p["sigma"] ** 2
    k2 = p["lam"] / c * (1.0 / s2) / 2.0
    k4 = p["lam"] * c**-3 * s2**-3 / 4.0
    return k2, k4


class _Suite:
    """Exact moments of dcx suite functions under independent Poisson box counts."""

    def __init__(self, mean: float, n_boxes: int, kmax: int = 24):
        k = np.arange(kmax + 1)
        pmf = sps.poisson.pmf(k, mean)
        grids = np.meshgrid(*([k] * n_boxes), indexing="ij")
        self.x = np.stack([g.ravel() for g in grids], axis=1).astype(float)
        w = np.ones(self.x.shape[0])
        for g in grids:
            w *= pmf[g.ravel()]
        self.w = w

    @staticmethod
    def evaluate(f, x: np.ndarray) -> np.ndarray:
        if f.family == "pair_product":
            i, j = int(f.theta[0]), int(f.theta[1])
            return x[:, i] * x[:, j]
        u = x @ f.theta
        if f.phi == "exp":
            return np.exp(np.minimum(u - f.shift, 90.0))
        return np.maximum(u - f.t, 0.0) ** f.p

    def moments(self, f) -> tuple[float, float]:
        v = self.evaluate(f, self.x)
        m = float(self.w @ v)
        return m, float(self.w @ v**2) - m * m


def ising_suite(seed: int, scenario_index: int, suite_size: int):
    """The suite ising-vs-poisson evaluates, rebuilt from its documented seed
    derivation (make_stream(seed, k).split(10**6), scale lam_bar |B|)."""
    from dcxsim.geometry import make_stream
    from dcxsim.ordering import make_suite

    d = ISING_DEFAULTS
    lam_bar = d["mu1"] * d["p_plus"] + d["mu2"] * (1.0 - d["p_plus"])
    box = (d["side"] / 2) ** 2
    stream = make_stream(seed, scenario_index).split(10**6)
    return make_suite("dcx", 4, suite_size, stream, scale=np.full(4, lam_bar * box)), lam_bar * box


# ---------------------------------------------------------------------------
# p-values

def p_normal(x: float, mu: float, se: float) -> float:
    """Two-sided normal p-value of x against mu."""
    if se <= 0:
        return 1.0 if x == mu else 0.0
    return float(2 * sps.norm.sf(abs(x - mu) / se))


def p_at_least(x: float, bound: float, se: float) -> float:
    """One-sided p-value of the claim x >= bound (small when x is far below)."""
    if se <= 0:
        return 1.0 if x >= bound else 0.0
    return float(sps.norm.cdf((x - bound) / se))


def p_count(k: float, dist) -> float:
    """Two-sided exact p-value of an observed count under a discrete law."""
    k = int(round(k))
    return float(min(1.0, 2 * min(dist.cdf(k), dist.sf(k - 1))))


def p_continuous(x: float, dist) -> float:
    return float(min(1.0, 2 * min(dist.cdf(x), dist.sf(x))))


@dataclass
class Check:
    scenario: str
    name: str
    pvalue: float | None = None  # Monte-Carlo check
    passed: bool | None = None  # exact check

    def ok(self, level: float) -> bool:
        if self.pvalue is None:
            return bool(self.passed)
        return self.pvalue >= level


class Checker:
    def __init__(self, reports_dir: Path, entries: list[dict], seed: int):
        self.dir = Path(reports_dir)
        self.entries = entries
        self.seed = seed
        self.checks: list[Check] = []
        self.verdicts: dict[str, str] = {}

    def mc(self, sid, name, p):
        self.checks.append(Check(sid, name, pvalue=float(p)))

    def exact(self, sid, name, ok):
        self.checks.append(Check(sid, name, passed=bool(ok)))

    def run(self) -> "Checker":
        for k, entry in enumerate(self.entries):
            sid = entry["id"]
            path = self.dir / f"{sid}.json"
            if not path.is_file():
                self.exact(sid, "report written", False)
                continue
            report = json.loads(path.read_text())
            self.verdicts[sid] = report["verdict"]
            self.exact(sid, "scenario id", report["scenario_id"] == sid)
            rows = list(csv.DictReader((self.dir / f"{sid}.csv").open()))
            getattr(self, "_" + sid.replace("-", "_"))(sid, k, entry, report, rows)
        return self

    def level(self) -> float:
        m = sum(c.pvalue is not None for c in self.checks)
        return ALPHA / max(m, 1)

    def failures(self) -> list[Check]:
        lvl = self.level()
        return [c for c in self.checks if not c.ok(lvl)]

    # -- boxcount ----------------------------------------------------------
    def _ising_vs_poisson(self, sid, k, entry, report, rows):
        n = entry["n_reps"]
        suite, box_mean = ising_suite(self.seed, k, entry["suite_size"])
        recs = report["per_function"]
        self.exact(sid, "suite reconstructed", len(recs) == len(suite) and all(
            r["id"] == f.fid and r["family"] == f.describe() for r, f in zip(recs, suite)
        ))
        exact = _Suite(box_mean, 4)
        for r, f in zip(recs, suite):
            m, var = exact.moments(f)
            self.mc(sid, f"E f{f.fid}(Poisson counts)", p_normal(r["mean_x"], m, math.sqrt(var / n)))
            self.mc(sid, f"f{f.fid} not reversed", p_at_least(r["z"], 0.0, 1.0))
        for i, mx in enumerate(report["mean_equality"]["mean_x"]):
            self.mc(sid, f"Poisson box {i} mean", p_count(mx * n, sps.poisson(box_mean * n)))
        for i, z in enumerate(report["mean_equality"]["z"]):
            self.mc(sid, f"box {i} means equal", p_normal(z, 0.0, 1.0))
        z_sep = sps.norm.isf(ALPHA / len(recs))
        self.exact(sid, "Cox side separated", max(r["z"] for r in recs) > z_sep)

    def _ops_preservation(self, sid, k, entry, report, rows):
        ops = {r["operation"]: r for r in rows}
        self.exact(sid, "three operations", sorted(ops) == [
            "displace_shift", "superpose_poisson", "thin_iid_half"])
        for name, r in ops.items():
            # smallest of suite_size Welch z-scores; Bonferroni within the suite
            p = min(1.0, entry["suite_size"] * sps.norm.cdf(float(r["min_z"])))
            self.mc(sid, f"{name} keeps the order", p)

    # -- interference ------------------------------------------------------
    def _sinr_compare(self, sid, k, entry, report, rows):
        n = entry["n_reps"]
        d = report["details"]
        p = sinr_poisson_success()
        self.mc(sid, "Rayleigh estimate vs Laplace functional",
                p_normal(d["p_poisson"], p, d["stderr_poisson"]))
        self.mc(sid, "indicator estimate vs Laplace functional",
                p_count(d["p_poisson_indicator"] * n, sps.binom(n, p)))
        self.mc(sid, "clustered interferers succeed at least as often",
                p_at_least(d["p_thomas"], p, d["stderr_thomas"]))

    def _coverage_compare(self, sid, k, entry, report, rows):
        n = entry["n_reps"]
        ref = coverage_poisson()
        po, th = report["details"]["poisson"], report["details"]["thomas"]
        self.exact(sid, "analytic coverage",
                   abs(report["details"]["poisson_coverage_analytic"] - ref["p_cover"]) <= 1e-12)
        self.mc(sid, "Poisson coverage", p_count(po["p_cover"][0] * n, sps.binom(n, ref["p_cover"])))
        self.mc(sid, "Poisson mean count", p_count(po["mean_count"][0] * n, sps.poisson(ref["mu"] * n)))
        self.mc(sid, "Poisson second moment", p_normal(
            po["second_moment"][0], ref["second_moment"], math.sqrt(ref["var_second_moment"] / n)))
        self.mc(sid, "Thomas mean count", p_normal(
            th["mean_count"][0], ref["mean_count"], th["mean_count_stderr"][0]))
        self.mc(sid, "Thomas coverage not above Poisson", p_at_least(
            ref["p_cover"], th["p_cover"][0], th["p_cover_stderr"][0]))
        self.mc(sid, "Thomas second moment not below Poisson", p_at_least(
            th["second_moment"][0], ref["second_moment"], th["second_moment_stderr"][0]))

    def _lo_extremal(self, sid, k, entry, report, rows):
        n = entry["n_reps"]
        thresholds, cdf = lo_poisson_cdf()
        per = report["details"]["per_threshold"]
        self.exact(sid, "threshold grid", len(per) == len(cdf) and all(
            np.allclose(r["t"], t) for r, t in zip(per, thresholds)))
        for r, p in zip(per, cdf):
            t = r["t"]
            self.mc(sid, f"Poisson CDF at {t}", p_count(r["cdf_2"] * n, sps.binom(n, p)))
            # clustered field has more empty space: its CDF is not below Poisson's
            self.mc(sid, f"Thomas CDF at {t}", float(sps.binom(n, p).cdf(round(r["cdf_1"] * n))))

    # -- measures ----------------------------------------------------------
    def _suite_not_reversed(self, sid, recs):
        for r in recs:
            self.mc(sid, f"f{r['id']} not reversed", p_at_least(r["z"], 0.0, 1.0))

    def _levy_grid(self, sid, k, entry, report, rows):
        n, p = entry["n_reps"], LEVY_DEFAULTS
        me = report["mean_equality"]
        for side, shape, scale in (("x", p["x_shape"], p["x_scale"]), ("y", p["y_shape"], p["y_scale"])):
            law = sps.gamma(shape * p["atoms_per_box"] * n, scale=scale)
            for i, m in enumerate(me[f"mean_{side}"]):
                self.mc(sid, f"box {i} mass mean ({side})", p_continuous(m * n, law))
        self._suite_not_reversed(sid, report["per_function"])

    def _marked_basis(self, sid, k, entry, report, rows):
        n, p = entry["n_reps"], MARKED_DEFAULTS
        mean = p["lam"] * p["box_volume"] * p["mark_mean"]
        var_marked = p["lam"] * p["box_volume"] * 2 * p["mark_mean"] ** 2  # lam|B| E Z^2
        me = report["mean_equality"]
        for i, m in enumerate(me["mean_x"]):
            self.mc(sid, f"box {i} mass mean (constant marks)", p_count(m * n, sps.poisson(mean * n)))
        for i, m in enumerate(me["mean_y"]):
            self.mc(sid, f"box {i} mass mean (random marks)", p_normal(m, mean, math.sqrt(var_marked / n)))
        self._suite_not_reversed(sid, report["per_function"])

    def _ppcluster_family(self, sid, k, entry, report, rows):
        n = entry["n_reps"]
        pairs = report["details"]["pairs"]
        self.exact(sid, "c pairs", [tuple(p["c_pair"]) for p in pairs] == PPCLUSTER_PAIRS)
        rel_var = {}
        for pair in pairs:
            c_hi, c_lo = pair["c_pair"]
            for c, v in ((c_hi, pair["var_hi"]), (c_lo, pair["var_lo"])):
                k2, k4 = ppcluster_cumulants(c)
                se = math.sqrt((k4 + 2 * k2 * k2) / n)
                rel_var[c] = (se / k2) ** 2
                self.mc(sid, f"variance at c={c}", p_normal(v, k2, se))
            ratio_se = (c_lo / c_hi) * math.sqrt(rel_var[c_hi] + rel_var[c_lo])
            self.mc(sid, f"variance ratio {c_hi}/{c_lo}", p_normal(pair["var_ratio"], c_lo / c_hi, ratio_se))
            self.exact(sid, f"expected ratio {c_hi}/{c_lo}", abs(pair["expected_ratio"] - c_lo / c_hi) <= 1e-12)
        self._suite_not_reversed(sid, report["per_function"])

    def _palm_poisson_check(self, sid, k, entry, report, rows):
        p = PALM_DEFAULTS
        d = report["details"]
        expected = p["lam"] * p["box_volume"] + 1.0
        self.exact(sid, "expected lam|A| + 1", abs(d["expected"] - expected) <= 1e-12)
        self.mc(sid, "size-biased mean", p_normal(d["estimate"], expected, d["stderr"]))

    def _ripley_poisson(self, sid, k, entry, report, rows):
        d = report["details"]
        r = np.asarray(RIPLEY_DEFAULTS["r_grid"])
        self.exact(sid, "r grid", len(d["k_hat"]) == r.size)
        for ri, kh, se in zip(r, d["k_hat"], d["stderr"]):
            self.mc(sid, f"K({ri}) vs pi r^2", p_normal(kh, math.pi * ri * ri, se))

    def _ginibre_oracle(self, sid, k, entry, report, rows):
        per = report["details"]["per_b"]
        self.exact(sid, "b values", [p["b"] for p in per] == GINIBRE_B)
        for p in per:
            b = p["b"]
            self.exact(sid, f"b={b} pass", p["verdict"] == "pass" and p["max_violation"] <= ORACLE_TOL)
            self.exact(sid, f"b={b} means", abs(p["mean_structured"] - b) <= ORACLE_TOL
                       and abs(p["mean_poisson"] - b) <= ORACLE_TOL)

    def _oracle_poisson_scaling(self, sid, k, entry, report, rows):
        per = report["details"]["per_pair"]
        self.exact(sid, "(a, c) pairs", [(p["a"], p["c"]) for p in per] == SCALING_AC)
        for p in per:
            a, c = p["a"], p["c"]
            self.exact(sid, f"a={a} c={c} pass", p["verdict"] == "pass" and p["max_violation"] <= ORACLE_TOL)
            self.exact(sid, f"a={a} c={c} means", abs(p["mean_x"] - c * a) <= ORACLE_TOL
                       and abs(p["mean_y"] - c * a) <= ORACLE_TOL)


def main() -> None:
    import argparse
    import sys

    ap = argparse.ArgumentParser(description="Print the closed-form reference values.")
    ap.add_argument("--seed", type=int, default=1, help="config seed of the ising suite")
    args = ap.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    print("sinr-compare p_poisson (Laplace functional):")
    for grid in (512, 1024, 2048):
        print(f"  midpoint grid {grid}^2: {sinr_poisson_success(grid=grid):.10f}")
    cov = coverage_poisson()
    print("coverage-compare, Poisson germs: " + ", ".join(f"{k} {v:.10f}" for k, v in cov.items()))
    print("lo-extremal Poisson CDF exp(-lam |D1 u D2|):")
    for t, p in zip(*lo_poisson_cdf()):
        print(f"  t={t.tolist()}: {p:.6e}")
    print("ppcluster-family variances kappa_2 and ratios c_lo/c_hi:")
    for c_hi, c_lo in PPCLUSTER_PAIRS:
        print(f"  c={c_hi}: {ppcluster_cumulants(c_hi)[0]:.6f}  c={c_lo}: "
              f"{ppcluster_cumulants(c_lo)[0]:.6f}  ratio {c_lo / c_hi}")
    print(f"palm-poisson-check lam|A| + 1 = {PALM_DEFAULTS['lam'] * PALM_DEFAULTS['box_volume'] + 1}")
    print("ripley-poisson pi r^2: " + ", ".join(f"{math.pi * r * r:.8f}" for r in RIPLEY_DEFAULTS["r_grid"]))
    m = MARKED_DEFAULTS
    print(f"box-mass means: levy-grid 16/4 * 1 = 4, marked-basis lam|B| E Z = "
          f"{m['lam'] * m['box_volume'] * m['mark_mean']}")
    entry = WORKLOADS["boxcount"][0]
    suite, box_mean = ising_suite(args.seed, 0, entry["suite_size"])
    exact = _Suite(box_mean, 4)
    print(f"ising-vs-poisson suite at seed {args.seed}, E f under independent Poisson({box_mean}) counts:")
    for f in suite:
        mean, var = exact.moments(f)
        print(f"  f{f.fid:<3d} {f.describe():18s} E f = {mean:.10g}  Var f = {var:.10g}")


if __name__ == "__main__":
    main()
