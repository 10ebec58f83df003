"""Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL line (visible with pytest -s or in captured output)."""
import importlib
import json
import sys
import time

import numpy as np
import pytest
import yaml

from dcxsim.distributions import ClusterKernel, exponential
from dcxsim.geometry import Box, make_stream, make_window
from dcxsim import processes, wireless
from dcxsim.ordering import (
    CONSISTENT,
    VIOLATION,
    compare_vectors,
    lo_compare,
    make_suite,
    oracle_ginibre_radii,
    oracle_ising_exact,
    oracle_poisson_scaling,
    replicate,
)
from dcxsim.scenarios import SCENARIOS, _quadrant_boxes, run_scenario
from dcxsim.shotnoise import ResponseKernel, ragged_sn
from dcxsim.stats import mixed_palm_estimate, ripley_k

SEED = 20260823
W1 = make_window([0.0, 0.0], [1.0, 1.0])


def _report(num: int, ok: bool, desc: str) -> bool:
    print(f"acceptance criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


def test_criterion_01_poisson_scaling_oracle():
    t0 = time.perf_counter()
    ok = True
    for a in (0.5, 1.0, 2.0):
        for c in (1.5, 2.0, 3.0):
            rep = oracle_poisson_scaling(a, c)
            ok = ok and rep["verdict"] == "pass" and rep["max_violation"] <= 1e-9
            ok = ok and abs(rep["mean_x"] - rep["mean_y"]) <= 1e-9
    runtime = time.perf_counter() - t0
    ok = ok and runtime < 1.0
    assert _report(1, ok, f"exact scaled-Poisson convex-order oracle ({runtime:.2f}s)")


def test_criterion_02_ginibre_oracle():
    t0 = time.perf_counter()
    ok = True
    for b in (0.5, 1.0, 2.0, 5.0):
        rep = oracle_ginibre_radii(b)
        ok = ok and rep["verdict"] == "pass" and rep["max_violation"] <= 1e-9
        ok = ok and abs(rep["mean_structured"] - b) <= 1e-9
        ok = ok and abs(rep["mean_poisson"] - b) <= 1e-9
    runtime = time.perf_counter() - t0
    ok = ok and runtime < 5.0
    assert _report(2, ok, f"exact stacked-radii vs Poisson oracle ({runtime:.2f}s)")


def test_criterion_03_ising_enumeration_oracle():
    t0 = time.perf_counter()
    stream = make_stream(SEED, 3)
    ok = True
    for k in (2, 4, 8):
        for i, (mu1, mu2, p_plus) in enumerate([(2.0, 0.0, 0.5), (3.0, 1.0, 0.3)]):
            lam_bar = mu1 * p_plus + mu2 * (1 - p_plus)
            suite = make_suite(
                "dcx", k, 50, stream.split(10 * k + i), scale=np.full(k, lam_bar)
            )
            rep = oracle_ising_exact(k, mu1, mu2, p_plus, suite)
            ok = ok and rep["verdict"] == "pass"
    runtime = time.perf_counter() - t0
    ok = ok and runtime < 10.0
    assert _report(3, ok, f"exact spin-lattice enumeration oracle ({runtime:.2f}s)")


def test_criterion_04_palm_identity():
    t0 = time.perf_counter()
    lam = 5.0
    w = make_window([0, 0], [2, 2])
    # the weight int 1_A dN and the statistic are both the count N(A)
    counts = processes.make_poisson_counts(lam, w, [Box([0, 0], [1, 1])])
    est, se = mixed_palm_estimate(
        lambda gen, size: np.repeat(counts(gen, size), 2, axis=1), 100_000, make_stream(SEED, 4)
    )
    runtime = time.perf_counter() - t0
    ok = abs(est - 6.0) <= 3 * se and runtime < 30.0
    assert _report(4, ok, f"size-biased box count = 6.0 ({est:.4f} +- {se:.4f}, {runtime:.1f}s)")


def test_criterion_05_ripley_baseline_and_excess():
    stream = make_stream(SEED, 5)
    lam = 50.0
    r_grid = np.array([0.02, 0.05, 0.1, 0.15])
    k_hat, se = ripley_k(processes.make_poisson_batch(lam, W1), r_grid, lam, 10_000, stream.split(0))
    ref = np.pi * r_grid**2
    ok = bool(np.all(np.abs(k_hat - ref) <= 3 * se))
    thomas = processes.make_thomas_batch(10.0, 5.0, 0.05, W1)
    k_t, se_t = ripley_k(thomas, np.array([0.05]), lam, 2000, stream.split(1))
    excess = float(k_t[0] - np.pi * 0.05**2)
    ok = ok and excess > 3 * float(se_t[0])
    assert _report(5, ok, f"Ripley K: Poisson within 3 sigma, clustered excess {excess:.4f}")


def _ising_pair(mu1=2.0, mu2=0.0, p_plus=0.5, cells=32):
    # box counts drawn at count level, with the law of field -> points -> count_in
    w = make_window([0, 0], [4, 4])
    lam_bar = mu1 * p_plus + mu2 * (1 - p_plus)
    boxes = _quadrant_boxes(w)
    draw_po = processes.make_poisson_counts(lam_bar, w, boxes)
    draw_is = processes.make_ising_cox_counts(mu1, mu2, p_plus, w, [cells, cells], boxes)
    return boxes, draw_po, draw_is, lam_bar


def test_criterion_06_box_count_dcx_comparison():
    boxes, draw_po, draw_is, lam_bar = _ising_pair()
    stream = make_stream(SEED, 6)
    scale = np.array([lam_bar * b.volume for b in boxes])
    suite = make_suite("dcx", 4, 100, stream.split(10**6), scale=scale)
    fwd = compare_vectors(draw_po, draw_is, suite, 100_000, stream.split(0))
    n_sep = sum(r["z"] > 3 for r in fwd.records)
    rev = compare_vectors(draw_is, draw_po, suite, 100_000, stream.split(1))
    ok = (
        fwd.verdict == CONSISTENT
        and fwd.mean_equality["passed"]
        and n_sep >= 10
        and rev.verdict == VIOLATION
    )
    assert _report(
        6, ok, f"box-count dcx: {fwd.verdict}, {n_sep}/100 separated, reversed {rev.verdict}"
    )


def test_criterion_07_cluster_intensity_family():
    lam, sigma = 20.0, 0.1
    kernel = ClusterKernel(sigma)
    queries = np.array([[0.2, 0.2], [0.5, 0.5], [0.8, 0.6]])
    stream = make_stream(SEED, 7)
    n_reps = 100_000

    def draw_at(c):
        return processes.make_ppcluster_intensity_at(c, lam, kernel, W1, queries)

    ok = True
    for k, (c_hi, c_lo) in enumerate([(4.0, 1.0), (2.0, 0.5)]):
        suite = make_suite("dcx", 3, 40, stream.split(10**6 + k), scale=np.full(3, lam))
        rep = compare_vectors(draw_at(c_hi), draw_at(c_lo), suite, n_reps, stream.split(k))
        ok = ok and rep.verdict == CONSISTENT
    variances = {}
    for c in (4.0, 1.0, 2.0, 0.5):
        sub = stream.split(10**6 + 100 + round(10 * c))
        # only the first query's variance is needed; the parents drawn from
        # each substream do not depend on the queries
        first = processes.make_ppcluster_intensity_at(c, lam, kernel, W1, queries[:1])
        (mom,) = replicate((first,), lambda v: v, n_reps, sub)
        variances[c] = float(mom.var[0])
    for c_hi, c_lo in [(4.0, 1.0), (2.0, 0.5)]:
        ratio = variances[c_hi] / variances[c_lo]
        ok = ok and abs(ratio - c_lo / c_hi) <= 0.1 * (c_lo / c_hi)
    assert _report(7, ok, "cluster-intensity family dcx-decreasing in c, 1/c variances")


def test_criterion_08_extremal_lower_orthant():
    lam = 20.0
    h = ResponseKernel("power_law", (4.0,))
    queries = np.array([[0.25, 0.25], [0.75, 0.75]])
    poisson = processes.make_poisson_batch(lam, W1)
    thomas = processes.make_thomas_batch(4.0, 5.0, 0.05, W1)
    # ragged_sn hands the response squared distances
    root = lambda s: h.value(np.sqrt(s))
    draw_po = lambda gen, size: ragged_sn(poisson(gen, size), queries, root, "max")
    draw_th = lambda gen, size: ragged_sn(thomas(gen, size), queries, root, "max")
    grid = np.linspace(0.1, 0.9, 5)
    thresholds = np.array([[a, b] for a in grid for b in grid])
    rep = lo_compare(draw_th, draw_po, thresholds, 20_000, make_stream(SEED, 8))
    ok = rep["verdict"] == CONSISTENT
    assert _report(8, ok, f"extremal-field lower-orthant order over 25 thresholds: {rep['verdict']}")


def test_criterion_09_sinr_comparison():
    layout = wireless.LinkLayout(
        W1,
        np.array([[0.3, 0.3], [0.7, 0.7]]),
        np.array([[0.3, 0.35], [0.7, 0.75]]),
        1.0,
        ResponseKernel("power_law", (4.0,)),
        exponential(1.0),
        0.01,
    )
    lam = 5.0
    poisson = processes.make_poisson_batch(lam, W1)
    thomas = processes.make_thomas_batch(1.0, 5.0, 0.05, W1)
    stream = make_stream(SEED, 9)
    n_reps = 50_000
    p_po, se_po = wireless.sinr_success_rayleigh(layout, poisson, n_reps, stream.split(0))
    p_th, se_th = wireless.sinr_success_rayleigh(layout, thomas, n_reps, stream.split(1))
    p_ind, se_ind = wireless.sinr_success(layout, poisson, n_reps, stream.split(2))
    separated = p_th - p_po > 3 * float(np.hypot(se_po, se_th))
    agree = abs(p_po - p_ind) <= 3 * float(np.hypot(se_po, se_ind))
    ok = separated and agree
    assert _report(
        9, ok, f"SINR success: clustered {p_th:.3f} > Poisson {p_po:.3f}, estimators agree"
    )


def test_criterion_10_boolean_coverage():
    lam, r = 20.0, 0.1
    queries = np.array([[0.5, 0.5]])
    poisson = processes.make_poisson_batch(lam, W1)
    thomas = processes.make_thomas_batch(4.0, 5.0, 0.05, W1)
    stream = make_stream(SEED, 10)
    n_reps = 50_000
    rep_po = wireless.boolean_coverage(poisson, r, queries, n_reps, stream.split(0))
    rep_th = wireless.boolean_coverage(thomas, r, queries, n_reps, stream.split(1))
    se_cov = float(np.hypot(rep_po["p_cover_stderr"][0], rep_th["p_cover_stderr"][0]))
    se_m1 = float(np.hypot(rep_po["mean_count_stderr"][0], rep_th["mean_count_stderr"][0]))
    se_m2 = float(np.hypot(rep_po["second_moment_stderr"][0], rep_th["second_moment_stderr"][0]))
    analytic = 1.0 - np.exp(-lam * np.pi * r**2)
    ok = (
        rep_po["p_cover"][0] - rep_th["p_cover"][0] > 3 * se_cov
        and abs(rep_po["mean_count"][0] - rep_th["mean_count"][0]) <= 3 * se_m1
        and rep_th["second_moment"][0] - rep_po["second_moment"][0] > 3 * se_m2
        and abs(rep_po["p_cover"][0] - analytic) <= 3 * float(rep_po["p_cover_stderr"][0])
    )
    assert _report(
        10, ok,
        f"coverage: Poisson {rep_po['p_cover'][0]:.3f} > clustered {rep_th['p_cover'][0]:.3f}, "
        f"first moments equal, second moments ordered",
    )


def test_criterion_11_operation_preservation():
    res = run_scenario(
        "ops-preservation", {"n_reps": 10_000, "suite_size": 30}, make_stream(SEED, 11)
    )
    ok = res.verdict == CONSISTENT and all(
        v == CONSISTENT for v in res.details["per_op"].values()
    )
    assert _report(11, ok, f"thin/displace/superpose keep the verdict: {res.details['per_op']}")


FAST_PARAMS = {
    "ising-vs-poisson": {"n_reps": 1000, "suite_size": 10},
    "ppcluster-family": {"n_reps": 1000, "suite_size": 6},
    "sinr-compare": {"n_reps": 1000},
    "coverage-compare": {"n_reps": 1000},
    "palm-poisson-check": {"n_reps": 1000},
    "ginibre-oracle": {},
    "oracle-poisson-scaling": {},
    "lo-extremal": {"n_reps": 1000},
    "levy-grid": {"n_reps": 1000, "suite_size": 6},
    "marked-basis": {"n_reps": 1000, "suite_size": 6},
    "ops-preservation": {"n_reps": 1000, "suite_size": 6},
    "ripley-poisson": {"n_reps": 200},
}


def test_criterion_12_determinism_across_worker_counts(tmp_path, invoke):
    outputs = {}
    for workers in (1, 8):
        out_dir = tmp_path / f"w{workers}"
        cfg = {
            "seed": SEED,
            "output_dir": str(out_dir),
            "workers": workers,
            "scenarios": [dict(FAST_PARAMS[sid], id=sid) for sid in SCENARIOS],
        }
        cfg_path = tmp_path / f"cfg{workers}.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        code, output = invoke(["run", str(cfg_path)])
        assert code in (0, 1), output
        outputs[workers] = out_dir
    ok = True
    for sid in SCENARIOS:
        csv1 = (outputs[1] / f"{sid}.csv").read_bytes()
        csv8 = (outputs[8] / f"{sid}.csv").read_bytes()
        ok = ok and csv1 == csv8
        j1 = json.loads((outputs[1] / f"{sid}.json").read_text())
        j8 = json.loads((outputs[8] / f"{sid}.json").read_text())
        j1.pop("runtime_seconds")
        j8.pop("runtime_seconds")
        ok = ok and json.dumps(j1, sort_keys=True) == json.dumps(j8, sort_keys=True)
    assert _report(12, ok, "byte-identical reports at 1 and 8 worker threads, all scenarios")


# the per-realization reference path: the law tests compare the batch samplers
# against it, and no scenario may call it
REFERENCE_PATH = {
    "geometry": ["count_in", "mass_in"],
    "processes": [
        "sample_poisson", "sample_cox", "sample_mixed_poisson", "sample_ising_field",
        "sample_levy_grid_basis", "sample_marked_poisson_basis", "sample_ppcluster_intensity",
        "ppcluster_intensity_at", "sample_ppcluster", "make_lgcp_sampler", "sample_gnscp",
        "make_thomas_sampler", "sample_ginibre_radii",
    ],
    "ops": ["displace", "mark_iid", "thin_iid", "thin_split", "superpose"],
    "shotnoise": ["additive_sn", "extremal_sn", "_atoms_of"],
    "stats": ["coverage_field", "integrate_weight"],
    "ordering": ["batched", "counts_on_boxes", "compare_on_boxes"],
}


def test_scenarios_never_reach_the_reference_path(monkeypatch):
    reached = []

    def trap(name):
        def raiser(*args, **kwargs):
            reached.append(name)
            raise AssertionError(f"a scenario called the reference function {name}")
        return raiser

    dcxsim_modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "dcxsim"]
    for modname, names in REFERENCE_PATH.items():
        for name in names:
            func = getattr(importlib.import_module(f"dcxsim.{modname}"), name)
            # every binding, as ``from .geometry import count_in`` makes its own
            for mod in dcxsim_modules:
                for attr, val in list(vars(mod).items()):
                    if val is func:
                        monkeypatch.setattr(mod, attr, trap(f"{modname}.{name}"))
    for k, sid in enumerate(SCENARIOS):
        run_scenario(sid, FAST_PARAMS[sid], make_stream(SEED, k))
    assert reached == []


def test_ppcluster_reports_each_pair_mean_gate():
    # each c pair carries its own mean-equality gate, one z per query
    params = FAST_PARAMS["ppcluster-family"]
    res = run_scenario("ppcluster-family", params, make_stream(SEED, 1))
    assert res.mean_equality is None
    assert len(res.details["pairs"]) == 2
    for pair in res.details["pairs"]:
        gate = pair["mean_equality"]
        assert len(gate["z"]) == 3 and isinstance(gate["passed"], bool)
