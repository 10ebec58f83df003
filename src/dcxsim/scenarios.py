"""Preset experiment scenarios wiring samplers, comparison harnesses and
estimators together; each runner returns a verdict plus plot-ready tables."""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import processes, wireless
from .distributions import ClusterKernel, MassDistribution, constant, exponential
from .geometry import TORUS, Box, RngStream, Window, _in_window
from .ops import thin_counts
from .ordering import (
    CONSISTENT,
    Z_CRIT,
    _z_scores,
    bonferroni_z,
    compare_vectors,
    decide,
    lo_compare,
    make_suite,
    oracle_ginibre_radii,
    oracle_poisson_scaling,
    oracle_verdict,
    worst,
)
from .shotnoise import ResponseKernel, ragged_sn
from .stats import mixed_palm_estimate, ripley_k


@dataclass
class ScenarioResult:
    """A scenario's verdict and report parts; ``rows`` is its CSV, one dict per
    row keyed by column in column order."""

    verdict: str
    details: dict
    rows: list[dict]
    per_function: list = field(default_factory=list)
    mean_equality: Optional[dict] = None
    scenario_id: str = ""  # set by run_scenario


def _quadrant_boxes(w: Window) -> list[Box]:
    """2^d congruent half-open boxes partitioning the window."""
    mids = (w.lows + w.highs) / 2.0
    boxes = []
    for mask in range(2**w.dim):
        lo = np.where([(mask >> k) & 1 for k in range(w.dim)], mids, w.lows)
        hi = np.where([(mask >> k) & 1 for k in range(w.dim)], w.highs, mids)
        boxes.append(Box(lo, hi))
    return boxes


def _suite_compare(p: dict, draws, scale, suite_stream, stream, z_crit: float = Z_CRIT):
    """compare_vectors of the two batch draws on a dcx suite of p["suite_size"]
    functions calibrated to ``scale``, the mean of the compared vectors."""
    suite = make_suite("dcx", len(scale), int(p["suite_size"]), suite_stream, scale=scale)
    return compare_vectors(*draws, suite, int(p["n_reps"]), stream, z_crit=z_crit)


def _order_result(report, details: dict) -> ScenarioResult:
    """The result of a scenario decided by one suite comparison: the records
    are its per_function entries and, one per suite function, its CSV rows."""
    return ScenarioResult(
        report.verdict, details, report.records, report.records, report.mean_equality
    )


def _box_count_samplers(p: dict, w: Window, boxes, translate=0.0) -> tuple:
    """lam_bar and the batch count samplers of the homogeneous Poisson process
    and the spin-lattice Cox process of equal intensity lam_bar on the boxes,
    both translated by ``translate``."""
    mu1, mu2, p_plus = float(p["mu1"]), float(p["mu2"]), float(p["p_plus"])
    cells = int(p["cells_per_axis"])
    lam_bar = mu1 * p_plus + mu2 * (1.0 - p_plus)
    return (
        lam_bar,
        processes.make_poisson_counts(lam_bar, w, boxes, translate),
        processes.make_ising_cox_counts(
            mu1, mu2, p_plus, w, [cells] * w.dim, boxes, translate=translate
        ),
    )


def _ops_arms(p: dict, w: Window, boxes) -> dict:
    """Per operation of ops-preservation, the batch count samplers of the
    operated Poisson and spin-lattice Cox processes, and the closed-form mean
    of their box counts, which calibrates the operation's suite.

    Counts are operated on directly: independent thinning is binomial thinning
    of the counts, superposing a unit Poisson process adds independent
    Poisson(|B|) counts, and a translation by t counts the original process on
    the pre-images B - t.
    """
    shift = np.asarray(p["shift"], dtype=float)
    if shift.shape != (w.dim,):
        raise ValueError(f"shift must have {w.dim} coordinates, one per window axis")
    lam_bar, poisson, cox = _box_count_samplers(p, w, boxes)
    unit = processes.make_poisson_counts(1.0, w, boxes)
    thinned = lambda base: lambda gen, size: thin_counts(base(gen, size), 0.5, gen)
    superposed = lambda base: lambda gen, size: base(gen, size) + unit(gen, size)
    mean = np.array([lam_bar * b.volume for b in boxes])
    return {
        "thin_iid_half": ((thinned(poisson), thinned(cox)), 0.5 * mean),
        "displace_shift": (_box_count_samplers(p, w, boxes, shift)[1:], mean),
        "superpose_poisson": ((superposed(poisson), superposed(cox)), mean + w.volume / len(boxes)),
    }


def _interferer_samplers(p: dict, w: Window) -> tuple:
    """Batch samplers of the Poisson and the Thomas process of total intensity lam."""
    lam, cluster_size = float(p["lam"]), float(p["cluster_size"])
    if not cluster_size > 0:
        raise ValueError("cluster_size must be positive")
    return (
        processes.make_poisson_batch(lam, w),
        processes.make_thomas_batch(lam / cluster_size, cluster_size, float(p["sigma"]), w),
    )


# ---------------------------------------------------------------------------
# Scenario runners: each reads the merged parameters of run_scenario

def run_ising_vs_poisson(p: dict, stream: RngStream) -> ScenarioResult:
    w = Window(**p["window"])
    boxes = _quadrant_boxes(w)
    lam_bar, *draws = _box_count_samplers(p, w, boxes)
    scale = np.array([lam_bar * b.volume for b in boxes])
    report = _suite_compare(p, draws, scale, stream.split(10**6), stream)
    n_separated = int(sum(r["z"] > 3.0 for r in report.records))
    return _order_result(report, {"lam_bar": lam_bar, "n_strictly_separated": n_separated})


def run_ppcluster_family(p: dict, stream: RngStream) -> ScenarioResult:
    lam = float(p["lam"])
    pairs = p["c_pairs"]
    w = Window(**p["window"])
    kernel = ClusterKernel(p["sigma"])
    queries = _in_window(p["queries"], w, "query")

    results, per_function, rows = [], [], []
    z_crit = bonferroni_z(Z_CRIT, len(pairs))  # one scenario rate, split over the pairs
    for k, (c_hi, c_lo) in enumerate(pairs):
        # larger c is the less variable (dcx-smaller) member of the family
        draws = [
            processes.make_ppcluster_intensity_at(c, lam, kernel, w, queries) for c in (c_hi, c_lo)
        ]
        rep = _suite_compare(
            p, draws, np.full(queries.shape[0], lam), stream.split(10**6 + k),
            stream.split(2 * k), z_crit,
        )
        per_function.extend(dict(r, c_pair=[c_hi, c_lo]) for r in rep.records)
        # intensity variance at the first query, from the compared draws
        var_hi, var_lo = float(rep.var_x[0]), float(rep.var_y[0])
        summary = {"verdict": rep.verdict, "var_hi": var_hi, "var_lo": var_lo,
                 "var_ratio": var_hi / var_lo, "expected_ratio": c_lo / c_hi}
        results.append(dict(summary, c_pair=[c_hi, c_lo], mean_equality=rep.mean_equality))
        rows.append({"c_hi": c_hi, "c_lo": c_lo, **summary})
    return ScenarioResult(
        worst(r["verdict"] for r in results), {"pairs": results}, rows, per_function
    )


def _sinr_layout(p: dict, w: Window) -> wireless.LinkLayout:
    # unit power and unit-mean fading: success sees only noise / (power * fading mean)
    return wireless.LinkLayout(
        w,
        np.asarray(p["emitters"], dtype=float),
        np.asarray(p["receivers"], dtype=float),
        float(p["T"]),
        ResponseKernel("power_law", (float(p["beta"]),)),
        exponential(1.0),
        float(p["noise"]),
    )


def run_sinr_compare(p: dict, stream: RngStream) -> ScenarioResult:
    n_reps = int(p["n_reps"])
    w = Window(**p["window"])
    layout = _sinr_layout(p, w)
    poisson, thomas = _interferer_samplers(p, w)
    p_po, se_po = wireless.sinr_success_rayleigh(
        layout, poisson, n_reps, stream.split(0)
    )
    p_th, se_th = wireless.sinr_success_rayleigh(
        layout, thomas, n_reps, stream.split(1)
    )
    p_ind, se_ind = wireless.sinr_success(
        layout, poisson, n_reps, stream.split(2)
    )
    z_agree = float(_z_scores(p_po - p_ind, np.hypot(se_po, se_ind)))
    sep = float(np.hypot(se_po, se_th))
    # one family: the estimators agree, and clustered interferers leave more free space
    verdict = decide([z_agree, -z_agree, _z_scores(p_th - p_po, sep)])
    # the agreement rows at the family's size (an inf row never fires)
    estimators_agree = decide([z_agree, -z_agree, np.inf]) == CONSISTENT
    details = {
        "p_poisson": p_po, "stderr_poisson": se_po,
        "p_thomas": p_th, "stderr_thomas": se_th,
        "p_poisson_indicator": p_ind, "stderr_poisson_indicator": se_ind,
        "estimators_agree": estimators_agree,
        "ci_separated": bool(p_th - p_po > 3.0 * sep),
    }
    rows = [
        {"interferers": germs, "estimator": how, "p_success": p_s, "stderr": se}
        for germs, how, p_s, se in (
            ("poisson", "rayleigh", p_po, se_po),
            ("thomas", "rayleigh", p_th, se_th),
            ("poisson", "indicator", p_ind, se_ind),
        )
    ]
    return ScenarioResult(verdict, details, rows)


def run_coverage_compare(p: dict, stream: RngStream) -> ScenarioResult:
    lam = float(p["lam"])
    r = float(p["r"])
    n_reps = int(p["n_reps"])
    w = Window(**p["window"])
    queries = _in_window(p["queries"], w, "query")
    poisson, thomas = _interferer_samplers(p, w)
    rep_po = wireless.boolean_coverage(poisson, r, queries, n_reps, stream.split(0))
    rep_th = wireless.boolean_coverage(thomas, r, queries, n_reps, stream.split(1))
    # one family of claims per query: coverage lower for the clustered germs,
    # first moments equal, second moments higher for the clustered germs
    z = {
        k: _z_scores(rep_th[k] - rep_po[k], np.hypot(rep_po[k + "_stderr"], rep_th[k + "_stderr"]))
        for k in ("p_cover", "mean_count", "second_moment")
    }
    verdict = decide([-z["p_cover"], z["mean_count"], -z["mean_count"], z["second_moment"]])
    # one minus the Poisson void probability exp(-lam |ball of radius r|) in d dimensions,
    # None unless no query's ball overlaps itself round a torus or leaves a plain window
    d = w.dim
    if w.topology == TORUS:
        balls_fit = 2 * r <= np.min(w.lengths)
    else:
        balls_fit = np.all((queries - r >= w.lows) & (queries + r <= w.highs))
    analytic = 1.0 - float(np.exp(-lam * np.pi ** (d / 2) / math.gamma(d / 2 + 1) * r**d))
    analytic, cell = (analytic, analytic) if balls_fit else (None, "")
    details = {
        "poisson": {k: v.tolist() for k, v in rep_po.items()},
        "thomas": {k: v.tolist() for k, v in rep_th.items()},
        "poisson_coverage_analytic": analytic,
    }
    rows = [
        {"germs": germs, "query": i, "p_cover": float(rep["p_cover"][i]),
         "stderr": float(rep["p_cover_stderr"][i]), "mean_count": float(rep["mean_count"][i]),
         "second_moment": float(rep["second_moment"][i]), "analytic": extra}
        for i in range(queries.shape[0])
        for germs, rep, extra in (("poisson", rep_po, cell), ("thomas", rep_th, ""))
    ]
    return ScenarioResult(verdict, details, rows)


def run_palm_poisson_check(p: dict, stream: RngStream) -> ScenarioResult:
    lam = float(p["lam"])
    w = Window(**p["window"])
    box_a = Box(p["box_lows"], p["box_highs"])
    # weight and statistic are both the count N(A)
    counts = processes.make_poisson_counts(lam, w, [box_a])
    est, se = mixed_palm_estimate(
        lambda gen, size: np.repeat(counts(gen, size), 2, axis=1), int(p["n_reps"]),
        stream.split(0),
    )
    expected = lam * box_a.volume + 1.0
    z = float(_z_scores(est - expected, se))
    details = {"estimate": est, "stderr": se, "expected": expected}
    return ScenarioResult(decide([z, -z]), details, [details])


def _oracle_result(records: list[dict], details: dict, columns: list) -> ScenarioResult:
    """The result of an exact-oracle scenario: "pass" iff every record passes,
    one CSV row of the ``columns`` keys per record."""
    return ScenarioResult(
        oracle_verdict(all(r["verdict"] == "pass" for r in records)), details,
        [{k: r[k] for k in columns} for r in records],
    )


def run_ginibre_oracle(p: dict, stream: RngStream) -> ScenarioResult:
    records = [dict(oracle_ginibre_radii(float(b)), b=float(b)) for b in p["b_values"]]
    return _oracle_result(
        records, {"per_b": records}, ["b", "max_violation", "mean_structured", "mean_poisson"]
    )


def run_oracle_poisson_scaling(p: dict, stream: RngStream) -> ScenarioResult:
    records = [
        dict(oracle_poisson_scaling(float(a), float(c)), a=float(a), c=float(c))
        for a in p["a_values"] for c in p["c_values"]
    ]
    violation = max((r["max_violation"] for r in records), default=0.0)
    return _oracle_result(
        records, {"per_pair": records, "violation": violation},
        ["a", "c", "max_violation", "mean_x", "mean_y"],
    )


def run_lo_extremal(p: dict, stream: RngStream) -> ScenarioResult:
    w = Window(**p["window"])
    queries = _in_window(p["queries"], w, "query")
    # the thresholds are (t1, t2) pairs, one level per query
    if len(queries) != 2:
        raise ValueError("scenario parameter 'queries' must hold exactly 2 points")
    h = ResponseKernel("power_law", (float(p["beta"]),))
    poisson, thomas = _interferer_samplers(p, w)
    extremal = lambda sampler: lambda gen, size: ragged_sn(
        sampler(gen, size), queries, h.value, "max"
    )
    grid_1d = np.asarray(p["threshold_grid"], dtype=float)
    thresholds = np.array([[t1, t2] for t1 in grid_1d for t2 in grid_1d])
    # the clustered field has more uncovered space: claim U_thomas <= U_poisson (lo)
    rep = lo_compare(extremal(thomas), extremal(poisson), thresholds, int(p["n_reps"]), stream)
    rows = [
        {"t1": r["t"][0], "t2": r["t"][1], "cdf_thomas": r["cdf_1"], "cdf_poisson": r["cdf_2"],
         "stderr": r["stderr"]}
        for r in rep["per_threshold"]
    ]
    return ScenarioResult(rep["verdict"], rep, rows)


def run_levy_grid(p: dict, stream: RngStream) -> ScenarioResult:
    spacing = float(p["lattice_spacing"])
    w = Window(**p["window"])
    boxes = _quadrant_boxes(w)
    # equal-mean masses: a sum of two Exp(1/2) is convex-smaller than one Exp(1)
    masses = (MassDistribution("sum_of_exponentials", (0.5, 0.5)), exponential(1.0))
    draws = [processes.make_levy_grid_masses(spacing, m, w, boxes) for m in masses]
    # atoms counted per box: volume / spacing^d is off where spacing does not divide the window
    locs = processes.lattice_points(spacing, w)
    atoms = np.array([np.count_nonzero(b.contains(locs)) for b in boxes], dtype=float)
    # an empty box has mass 0 on both sides: its suite functions and gate read z = 0
    if not atoms.all():
        raise ValueError(f"lattice_spacing {spacing:g} leaves a box without a lattice atom")
    rep = _suite_compare(p, draws, atoms, stream.split(10**6), stream)
    return _order_result(rep, {"atoms_per_box": float(atoms.mean())})


def run_marked_basis(p: dict, stream: RngStream) -> ScenarioResult:
    lam = float(p["lam"])
    mark_mean = float(p["mark_mean"])
    if not mark_mean > 0:
        raise ValueError("mark_mean must be positive")
    w = Window(**p["window"])
    boxes = _quadrant_boxes(w)
    # Poisson atoms carrying the mean mark E Z vs i.i.d. exponential marks Z
    marks = (constant(mark_mean), exponential(mark_mean))
    draws = [processes.make_marked_poisson_masses(lam, m, w, boxes) for m in marks]
    scale = np.array([lam * mark_mean * b.volume for b in boxes])
    rep = _suite_compare(p, draws, scale, stream.split(10**6), stream)
    return _order_result(rep, {})


def run_ops_preservation(p: dict, stream: RngStream) -> ScenarioResult:
    w = Window(**p["window"])
    boxes = _quadrant_boxes(w)
    arms = _ops_arms(p, w, boxes)
    rows, verdicts = [], {}
    z_crit = bonferroni_z(Z_CRIT, len(arms))  # one scenario rate, split over the ops
    for op_idx, (name, (draws, scale)) in enumerate(arms.items()):
        rep = _suite_compare(
            p, draws, scale, stream.split(10**6 + op_idx), stream.split(op_idx), z_crit
        )
        verdicts[name] = rep.verdict
        min_z = min(r["z"] for r in rep.records)
        rows.append({"operation": name, "verdict": rep.verdict, "min_z": min_z})
    return ScenarioResult(worst(verdicts.values()), {"per_op": verdicts}, rows)


def run_ripley_poisson(p: dict, stream: RngStream) -> ScenarioResult:
    lam = float(p["lam"])
    r_grid = np.asarray(p["r_grid"], dtype=float)
    w = Window(**p["window"])
    if w.dim != 2:
        raise ValueError("the window must be 2-d: the reference pi r^2 is the planar K")
    # pi r^2 is the torus K only while the ball of radius r does not wrap
    r_max = float(np.min(w.highs - w.lows)) / 2.0
    if not np.all((r_grid >= 0) & (r_grid <= r_max)):
        raise ValueError(f"r_grid values must lie in [0, {r_max:g}], half the shortest window side")
    k_hat, se = ripley_k(
        processes.make_poisson_batch(lam, w), r_grid, lam, int(p["n_reps"]), stream.split(0)
    )
    ref = np.pi * r_grid**2
    z = _z_scores(k_hat - ref, se)
    details = {"k_hat": k_hat.tolist(), "stderr": se.tolist(), "reference": ref.tolist()}
    rows = [
        {"r": r, "k_hat": k, "stderr": s, "pi_r_squared": pi_r2}
        for r, k, s, pi_r2 in zip(r_grid.tolist(), *details.values())
    ]
    return ScenarioResult(decide(np.concatenate([z, -z])), details, rows)


# Defaults shared by scenarios: the spin-lattice Cox process, the Thomas
# interferers or germs (children per parent, Gaussian spread), and the
# windows: the unit square, 2 x 2 and 4 x 4, each a torus
_SPINS = {"mu1": 2.0, "mu2": 0.0, "p_plus": 0.5, "cells_per_axis": 32}
_THOMAS = {"cluster_size": 5.0, "sigma": 0.05}
_UNIT_SQUARE = {"lows": [0.0, 0.0], "highs": [1.0, 1.0], "topology": TORUS}
_SQUARE_2 = {"lows": [0.0, 0.0], "highs": [2.0, 2.0], "topology": TORUS}
_SQUARE_4 = {"lows": [0.0, 0.0], "highs": [4.0, 4.0], "topology": TORUS}

# id -> (description, runner, defaults).  The defaults are every parameter the
# runner reads, its window included, as plain config values; check_params
# rejects any other key.
SCENARIOS: dict[str, tuple[str, Callable, dict]] = {
    "ising-vs-poisson": (
        "dcx comparison of box counts: homogeneous Poisson vs the spin-lattice Cox process",
        run_ising_vs_poisson,
        {"n_reps": 20_000, "suite_size": 100, "window": _SQUARE_4, **_SPINS},
    ),
    "ppcluster-family": (
        "cluster-intensity family: dcx-decreasing in the parent-splitting parameter c",
        run_ppcluster_family,
        {"lam": 20.0, "sigma": 0.1, "n_reps": 20_000, "suite_size": 40,
         "c_pairs": [[4.0, 1.0], [2.0, 0.5]], "window": _UNIT_SQUARE,
         "queries": [[0.2, 0.2], [0.5, 0.5], [0.8, 0.6]]},
    ),
    "sinr-compare": (
        "joint SINR success probability: Poisson vs clustered interferers",
        run_sinr_compare,
        {"lam": 5.0, "n_reps": 20_000, "window": _UNIT_SQUARE, "T": 1.0, "beta": 4.0, "noise": 0.01,
         "emitters": [[0.3, 0.3], [0.7, 0.7]], "receivers": [[0.3, 0.35], [0.7, 0.75]],
         **_THOMAS},
    ),
    "coverage-compare": (
        "Boolean-model coverage: Poisson vs clustered germs at equal intensity",
        run_coverage_compare,
        {"lam": 20.0, "r": 0.1, "n_reps": 20_000, "window": _UNIT_SQUARE, "queries": [[0.5, 0.5]],
         **_THOMAS},
    ),
    "palm-poisson-check": (
        "reweighted-law identity: box-count expectation lam|A| + 1 under the size-biased law",
        run_palm_poisson_check,
        {"lam": 5.0, "n_reps": 20_000, "window": _SQUARE_2, "box_lows": [0.0, 0.0],
         "box_highs": [1.0, 1.0]},
    ),
    "ginibre-oracle": (
        "exact convex-order oracle for the stacked-radii count vs a Poisson count",
        run_ginibre_oracle,
        {"b_values": [0.5, 1.0, 2.0, 5.0]},
    ),
    "oracle-poisson-scaling": (
        "exact convex-order oracle: Poisson(c a) vs c * Poisson(a)",
        run_oracle_poisson_scaling,
        {"a_values": [0.5, 1.0, 2.0], "c_values": [1.5, 2.0, 3.0]},
    ),
    "lo-extremal": (
        "lower-orthant comparison of extremal shot-noise fields, clustered vs Poisson",
        run_lo_extremal,
        {"lam": 20.0, "beta": 4.0, "n_reps": 20_000, "window": _UNIT_SQUARE,
         "queries": [[0.25, 0.25], [0.75, 0.75]],
         "threshold_grid": np.linspace(0.1, 0.9, 5).tolist(), **_THOMAS},
    ),
    "levy-grid": (
        "lattice measures with i.i.d. masses: convex-ordered masses give dcx-ordered boxes",
        run_levy_grid,
        {"lattice_spacing": 1.0, "n_reps": 20_000, "suite_size": 60, "window": _SQUARE_4},
    ),
    "marked-basis": (
        "Poisson atoms with constant masses vs i.i.d. random marks, dcx on box masses",
        run_marked_basis,
        {"lam": 10.0, "mark_mean": 1.0, "n_reps": 20_000, "suite_size": 60, "window": _UNIT_SQUARE},
    ),
    "ops-preservation": (
        "thinning, displacement and superposition applied to an ordered pair keep the verdict",
        run_ops_preservation,
        {"n_reps": 10_000, "suite_size": 30, "window": _SQUARE_4, "shift": [0.35, 0.15], **_SPINS},
    ),
    "ripley-poisson": (
        "Ripley K baseline on the torus: homogeneous Poisson against pi r^2",
        run_ripley_poisson,
        {"lam": 50.0, "n_reps": 1000, "r_grid": [0.02, 0.05, 0.1, 0.15], "window": _UNIT_SQUARE},
    ),
}


def is_int(value) -> bool:
    """An integer that is not a bool (YAML ``true`` loads as a bool, and bool
    is a subclass of int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _leaves(value) -> list:
    """The entries of a scalar or of a list nested to any depth."""
    if isinstance(value, list):
        return [x for v in value for x in _leaves(v)]
    return [value]


def _check(where: str, defaults: dict, params: dict, prefix: str = "") -> None:
    """Raise ValueError, naming the key by its dotted path, for a key of
    ``params`` not in ``defaults``, a value that is not a mapping where the
    default is one (its keys are checked in turn), an empty list where the
    default is a non-empty list, a value that is not a string where the
    default is one, a value that is not an integer where the default is
    one, and a value that is not an integer or a finite float where the
    default holds floats (as a scalar or in a nested list; a bool or a
    string such as "nan" is neither)."""
    unknown = sorted(prefix + str(k) for k in set(params) - set(defaults))
    if unknown:
        raise ValueError(f"unknown key(s) for {where}: {', '.join(unknown)}")
    for key, value in params.items():
        default, name = defaults[key], prefix + key
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ValueError(f"scenario parameter {name!r} must be a mapping")
            _check(where, default, value, name + ".")
        if isinstance(default, list) and default and isinstance(value, list) and not value:
            raise ValueError(f"scenario parameter {name!r} must be a non-empty list")
        if isinstance(default, str) and not isinstance(value, str):
            raise ValueError(f"scenario parameter {name!r} must be a string")
        if is_int(default) and not is_int(value):
            raise ValueError(f"scenario parameter {name!r} must be an integer")
        if any(isinstance(x, float) for x in _leaves(default)) and not all(
            is_int(x) or (isinstance(x, float) and math.isfinite(x)) for x in _leaves(value)
        ):
            raise ValueError(f"scenario parameter {name!r} must be a finite number")


def _merged(defaults: dict, params: dict) -> dict:
    """The defaults overridden by ``params``; a mapping default (the window)
    is overridden key by key."""
    return {
        k: {**d, **params.get(k, {})} if isinstance(d, dict) else params.get(k, d)
        for k, d in defaults.items()
    }


def check_params(scenario_id: str, params) -> None:
    """_check's rule on the mapping ``params`` against the scenario's
    SCENARIOS defaults, window keys and values included; then the merged
    window must be one that ``Window`` accepts."""
    defaults = SCENARIOS[scenario_id][2]
    _check(f"scenario {scenario_id}", defaults, params)
    if "window" in defaults:
        try:
            Window(**_merged(defaults, params)["window"])
        except ValueError as exc:
            raise ValueError(f"scenario parameter 'window': {exc}") from exc


def run_scenario(scenario_id: str, params: dict, stream: RngStream) -> ScenarioResult:
    """Run a scenario on its SCENARIOS defaults overridden by ``params``."""
    if scenario_id not in SCENARIOS:
        raise KeyError(f"unknown scenario {scenario_id!r}")
    check_params(scenario_id, params)
    _, runner, defaults = SCENARIOS[scenario_id]
    return replace(runner(_merged(defaults, params), stream), scenario_id=scenario_id)
