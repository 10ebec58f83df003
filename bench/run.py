#!/usr/bin/env python3
"""End-to-end benchmark of ``dcxsim run``.

Usage (from the root of a checkout):
    python3 bench/run.py --workload {boxcount,interference,measures} \
        --seed N --seconds S --trace {0,1}

With --trace 0 the workload's config is run through the CLI in a fresh child
process, round after round, until S seconds have passed (at least
MIN_ROUNDS rounds, and no round that would end after RUN_BUDGET_S); the
end-to-end metrics are medians over the rounds.
With --trace 1 each round is three children: an untimed-layer reference
run, the same config at two workers (for the thread pool), and a run with
every layer wrapped (tracer.py) under ``-X importtime``; the per-layer
metrics are medians over those rounds.

Either way the reports of the last round are checked against closed forms
(checks.py), every round's CSV reports must be byte-identical to the first
round's, and the last line printed is the JSON result.  Host CPU steal
over the run, read from /proc/stat, is printed before it as a diagnostic.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, make_config, workload_reps  # noqa: E402

MIN_ROUNDS = 3  # untraced rounds per run; a traced run makes at least one
CHILD_TIMEOUT_S = 150.0
RUN_BUDGET_S = 150.0  # no round starts that would likely end later; leaves time for the checks
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
OK_EXIT = (0, 1)  # 1: the CLI ran every scenario and one verdict was VIOLATION


def cpu_times() -> list[int]:
    with open("/proc/stat") as fh:
        return [int(v) for v in fh.readline().split()[1:9]]


def steal_between(a: list[int], b: list[int]) -> dict:
    d = [y - x for x, y in zip(a, b)]
    total = sum(d)
    busy = total - d[3] - d[4]
    return {
        "steal_pct_of_host": 100.0 * d[7] / total if total else 0.0,
        "steal_pct_of_busy": 100.0 * d[7] / busy if busy else 0.0,
    }


def run_child(root: Path, out: Path, mode: str, config: Path, importtime: bool = False) -> dict:
    """One ``dcxsim run`` in its own interpreter (child.py), timed from outside."""
    timing = out / f"timing-{mode}.json"
    stderr_path = out / f"stderr-{mode}.txt"
    timing.unlink(missing_ok=True)
    cmd = [sys.executable, "-I"] + (["-X", "importtime"] if importtime else [])
    cmd += [str(BENCH / "child.py"), mode, str(config), str(timing)]
    env = dict(os.environ, **{k: "1" for k in THREAD_ENV})
    with open(out / f"stdout-{mode}.txt", "wb") as so, open(stderr_path, "wb") as se:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=so, stderr=se)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            # wait4, unlike Popen.wait, returns the child's own peak RSS
            _, status, rusage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t_exit = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    result = {
        "exit_code": proc.returncode,
        "wall_s": t_exit - t_spawn,
        "peak_rss_mb": rusage.ru_maxrss / 1024.0,
    }
    if timing.is_file():
        t = json.loads(timing.read_text())
        spans = [s for s in t["trace"]["spans"] if s["layer"] == "scenario"]
        result.update(
            trace=t["trace"],
            rss_after_import_mb=t["rss_after_import_kb"] / 1024.0,
            scenario_spans=len(spans),
            scenario_s=sum(s["end"] - s["start"] for s in spans),
            setup_s=(spans[0]["start"] - t_spawn) if spans else None,
        )
    if importtime:
        result["imports"] = parse_importtime(stderr_path.read_text(errors="replace"))
    return result


def parse_importtime(text: str) -> dict:
    """Sum the self times -X importtime reports for the dcxsim.cli import."""
    total = scipy = 0.0
    inside = False
    for line in text.splitlines():
        if line.startswith("bench: importing dcxsim.cli"):
            inside = True
            continue
        if line.startswith("bench: imported dcxsim.cli"):
            break
        if not inside or not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        self_us = int(parts[0])
        name = parts[2].strip()
        total += self_us
        if name == "scipy" or name.startswith("scipy."):
            scipy += self_us
    return {"import_s": total / 1e6, "scipy_s": scipy / 1e6}


def report_files(reports: Path) -> dict[str, bytes]:
    # the JSON reports carry runtime_seconds, so only the CSVs must match byte for byte
    return {p.name: p.read_bytes() for p in sorted(reports.glob("*.csv"))}


def median(values):
    return statistics.median(values) if values else float("nan")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "dcxsim" / "cli.py").is_file():
        print(f"bench: no dcxsim sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    out = BENCH / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    reports = out / "reports"
    reports.mkdir(parents=True)
    n_scen = len(WORKLOADS[args.workload])
    reps = workload_reps(args.workload)

    def write_config(name: str, workers: int) -> Path:
        path = out / name
        # JSON is YAML, so the CLI's loader reads it unchanged
        path.write_text(json.dumps(make_config(args.workload, args.seed, str(reports), workers)))
        return path

    cfg1 = write_config("config.yaml", 1)
    cfg2 = write_config("config-w2.yaml", 2)
    if args.trace:
        kinds = [("pool", cfg1, False), ("trace", cfg1, True), ("pool2", cfg2, False)]
    else:
        kinds = [("plain", cfg1, False)]

    # compile dcxsim's bytecode and warm the file cache; not measured
    subprocess.run([sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {str(root / 'src')!r}); "
                    "import dcxsim.cli"], cwd=root, check=True)

    rounds: list[dict] = []
    attempted = failed = 0
    first_csv = None
    same_bytes = True
    cpu0 = cpu_times()
    t_start = time.perf_counter()
    min_rounds = 1 if args.trace else MIN_ROUNDS
    while True:
        t_round = time.perf_counter()
        rnd = {}
        for kind, cfg, importtime in kinds:
            shutil.rmtree(reports, ignore_errors=True)
            reports.mkdir()
            mode = "pool" if kind == "pool2" else kind
            res = run_child(root, out, mode, cfg, importtime)
            written = {p.stem for p in reports.glob("*.json")}
            attempted += n_scen
            bad = res["exit_code"] not in OK_EXIT or res.get("scenario_spans") != n_scen
            n_failed = n_scen - sum(e["id"] in written for e in WORKLOADS[args.workload])
            failed += max(n_failed, n_scen if bad else 0)
            csv_now = report_files(reports)
            if first_csv is None:
                first_csv = csv_now
            same_bytes = same_bytes and csv_now == first_csv
            rnd[kind] = res
        rounds.append(rnd)
        elapsed, last = time.perf_counter() - t_start, time.perf_counter() - t_round
        if len(rounds) >= min_rounds and elapsed >= args.seconds:
            break
        if elapsed + last > RUN_BUDGET_S:
            break
    measured_s = time.perf_counter() - t_start
    steal = steal_between(cpu0, cpu_times())

    sys.path.insert(0, str(root / "src"))  # the checks rebuild one suite with dcxsim
    import checks

    checker = checks.Checker(reports, WORKLOADS[args.workload], args.seed).run()
    failures = checker.failures()
    correct = failed == 0 and same_bytes and not failures

    if args.trace:
        metrics = per_layer_metrics(rounds, reps, reports)
    else:
        metrics = end_to_end_metrics(rounds, reps)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "measured_s": measured_s, "reps": reps, "steal": steal,
        "verdicts": checker.verdicts, "checks": len(checker.checks),
        "check_level": checker.level(), "failed_checks": [c.__dict__ for c in failures],
        "reports_identical_across_rounds": same_bytes, "metrics": metrics,
        "per_round": [{k: {kk: vv for kk, vv in v.items() if kk != "trace"} for k, v in r.items()}
                      for r in rounds],
    }
    (out / f"run-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (out / "trace.json").write_text(json.dumps(rounds[-1]["trace"]["trace"], indent=1))

    print(f"bench: {args.workload} seed {args.seed}: {len(rounds)} rounds in {measured_s:.1f} s, "
          f"{reps} realisations per round")
    print(f"bench: host steal {steal['steal_pct_of_host']:.1f}% of host CPU, "
          f"{steal['steal_pct_of_busy']:.1f}% of busy CPU over the run")
    print(f"bench: verdicts {json.dumps(checker.verdicts)}")
    print(f"bench: {len(checker.checks)} output checks at level {checker.level():.2e}, "
          f"{len(failures)} failed; CSV reports identical across rounds: {same_bytes}")
    for c in failures:
        print(f"bench: FAILED CHECK {c.scenario}: {c.name} (p={c.pvalue})")
    if args.trace and metrics["trace.layer_share_pct"]["value"] < 95.0:
        print("bench: warning: layers cover less than 95% of scenario time")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def m(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(rounds: list[dict], reps: int) -> dict:
    runs = [r["plain"] for r in rounds]
    return {
        "wall_s": m(median([r["wall_s"] for r in runs]), "s"),
        "setup_s": m(median([r["setup_s"] for r in runs if r.get("setup_s") is not None]), "s"),
        "reps_per_s": m(median([reps / r["scenario_s"] for r in runs if r.get("scenario_s")]), "1/s"),
        "peak_rss_mb": m(median([r["peak_rss_mb"] for r in runs]), "MB"),
    }


def per_layer_metrics(rounds: list[dict], reps: int, reports: Path) -> dict:
    def med(fn):
        return median([fn(r) for r in rounds])

    def layer(r, name):
        return r["trace"]["trace"]["self_s"].get(name, 0.0)

    def pool_s(r):
        return sum(v["total_s"] for v in r["trace"]["per_function"].values() if v["layer"] == "pool")

    us = lambda name: med(lambda r: 1e6 * layer(r, name) / reps)
    calls = lambda name: med(lambda r: r["trace"]["trace"]["calls"].get(name, 0))
    report_bytes = sum(p.stat().st_size for p in reports.iterdir() if p.suffix in (".json", ".csv"))
    return {
        "import.s": m(med(lambda r: r["trace"]["imports"]["import_s"]), "s"),
        "import.scipy_s": m(med(lambda r: r["trace"]["imports"]["scipy_s"]), "s"),
        "rss.after_import_mb": m(med(lambda r: r["pool"]["rss_after_import_mb"]), "MB"),
        "sample.us_per_rep": m(us("sample"), "us"),
        "sample.calls": m(calls("sample"), "count"),
        "reduce.us_per_rep": m(us("reduce"), "us"),
        "reduce.calls": m(calls("reduce"), "count"),
        "suite.us_per_rep": m(us("suite"), "us"),
        "suite.evals": m(med(lambda r: r["trace"]["trace"]["suite_evals"]), "count"),
        "engine.us_per_rep": m(us("engine"), "us"),
        "engine.chunks": m(med(lambda r: r["trace"]["trace"]["chunks"]), "count"),
        "report.ms": m(med(lambda r: 1e3 * layer(r, "report")), "ms"),
        "report.bytes": m(report_bytes, "B"),
        "pool.w1_s": m(med(lambda r: pool_s(r["pool"])), "s"),
        "pool.w2_s": m(med(lambda r: pool_s(r["pool2"])), "s"),
        "trace.overhead_s": m(med(lambda r: r["trace"]["wall_s"] - r["pool"]["wall_s"]), "s"),
        "trace.layer_share_pct": m(med(lambda r: 100.0 * (
            1.0 - layer(r, "scenario") / r["trace"]["scenario_s"])), "%"),
    }


if __name__ == "__main__":
    sys.exit(main())
