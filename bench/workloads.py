"""The benchmark's three workloads: which scenarios each runs, at what size,
and how many realisations that draws.

Every workload runs through ``dcxsim run`` at ``workers: 1``.  Parameters not
listed here are the scenario defaults in ``dcxsim.scenarios``; the checks in
``checks.py`` restate the defaults they depend on, so a changed default shows
up as a failed check rather than as a silently different workload.
"""
from __future__ import annotations

# Scenario entries in run order.  The config's master seed is the benchmark's
# --seed; scenario k then draws from make_stream(seed, k), as the CLI does.
WORKLOADS: dict[str, list[dict]] = {
    # point samplers -> count_in on four boxes -> dcx suite
    "boxcount": [
        {"id": "ising-vs-poisson", "n_reps": 4000, "suite_size": 60},
        {"id": "ops-preservation", "n_reps": 1600, "suite_size": 24},
    ],
    # Thomas / Poisson interferers -> distances to receivers -> wireless engines
    "interference": [
        {"id": "sinr-compare", "n_reps": 4000},
        {"id": "coverage-compare", "n_reps": 5000},
        {"id": "lo-extremal", "n_reps": 6000},
    ],
    # cheap random measures, serial loops, n x n distances and exact oracles
    "measures": [
        {"id": "levy-grid", "n_reps": 4000, "suite_size": 40},
        {"id": "marked-basis", "n_reps": 4000, "suite_size": 40},
        {"id": "ppcluster-family", "n_reps": 2500, "suite_size": 24},
        {"id": "palm-poisson-check", "n_reps": 12000},
        {"id": "ripley-poisson", "n_reps": 1500},
        {"id": "ginibre-oracle"},
        {"id": "oracle-poisson-scaling"},
    ],
}

# Default c pairs of ppcluster-family; the variance loop draws n_reps once
# per distinct c.
PPCLUSTER_PAIRS = [(4.0, 1.0), (2.0, 0.5)]


def scenario_reps(entry: dict) -> int:
    """Realisations one scenario draws: every engine call's n_reps, each
    compared side counted once.  The exact oracles draw none."""
    sid = entry["id"]
    n = int(entry.get("n_reps", 0))
    if sid in ("ising-vs-poisson", "coverage-compare", "lo-extremal", "levy-grid", "marked-basis"):
        return 2 * n
    if sid == "ops-preservation":
        return 3 * 2 * n
    if sid == "sinr-compare":
        return 3 * n
    if sid == "ppcluster-family":
        distinct_c = {c for pair in PPCLUSTER_PAIRS for c in pair}
        return len(PPCLUSTER_PAIRS) * 2 * n + len(distinct_c) * n
    if sid in ("palm-poisson-check", "ripley-poisson"):
        return n
    return 0


def workload_reps(name: str) -> int:
    return sum(scenario_reps(e) for e in WORKLOADS[name])


def make_config(name: str, seed: int, output_dir: str, workers: int = 1) -> dict:
    """The config the CLI receives; it depends on nothing but its arguments."""
    return {
        "seed": int(seed),
        "output_dir": output_dir,
        "workers": int(workers),
        "scenarios": [dict(e) for e in WORKLOADS[name]],
    }
