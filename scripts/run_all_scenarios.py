#!/usr/bin/env python3
"""Run every registered scenario at moderate replication counts and write the
JSON/CSV reports to a chosen directory.

Usage:
    python scripts/run_all_scenarios.py --seed 7 --out reports
"""
import argparse
import sys
import tempfile
from pathlib import Path

import yaml
from click.testing import CliRunner

from dcxsim.cli import main as cli_main
from dcxsim.scenarios import SCENARIOS

MODERATE = {
    "ising-vs-poisson": {"n_reps": 20_000, "suite_size": 60},
    "ppcluster-family": {"n_reps": 20_000, "suite_size": 24},
    "sinr-compare": {"n_reps": 20_000},
    "coverage-compare": {"n_reps": 20_000},
    "palm-poisson-check": {"n_reps": 50_000},
    "ginibre-oracle": {},
    "oracle-poisson-scaling": {},
    "lo-extremal": {"n_reps": 20_000},
    "levy-grid": {"n_reps": 20_000, "suite_size": 40},
    "marked-basis": {"n_reps": 20_000, "suite_size": 40},
    "ops-preservation": {"n_reps": 10_000, "suite_size": 24},
    "ripley-poisson": {"n_reps": 2000},
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", type=str, default="reports")
    args = ap.parse_args()

    cfg = {
        "seed": args.seed,
        "output_dir": args.out,
        "scenarios": [dict(MODERATE[sid], id=sid) for sid in SCENARIOS],
    }
    with tempfile.NamedTemporaryFile("w", suffix=".yaml", delete=False) as fh:
        yaml.safe_dump(cfg, fh)
        cfg_path = fh.name
    result = CliRunner().invoke(cli_main, ["run", cfg_path], catch_exceptions=False)
    sys.stdout.write(result.output)
    Path(cfg_path).unlink()
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
