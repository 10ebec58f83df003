"""The scripts under ``scripts/`` run end to end at small sizes."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# script -> (--reps, CSV header, data rows)
SCRIPTS = {
    "ripley_curves.py": (5, "r,k_poisson,stderr_poisson,k_thomas,stderr_thomas,pi_r_squared", 20),
    "sinr_vs_threshold.py": (50, "threshold,p_poisson,stderr_poisson,p_thomas,stderr_thomas", 9),
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_writes_csv(script, tmp_path):
    reps, header, n_rows = SCRIPTS[script]
    out = tmp_path / "out.csv"
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--reps", str(reps), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + n_rows
    assert all(len(line.split(",")) == len(header.split(",")) for line in lines[1:])
