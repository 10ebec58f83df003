"""What ``dcxsim run`` does to glibc's heap thresholds, and the working set of
one chunk, checked in fresh interpreters, since the setting holds for the rest
of a process."""
import json
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GLIBC = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"


def _fresh(code: str, cwd: Path) -> subprocess.CompletedProcess:
    prelude = f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}]\n"
    return subprocess.run(
        [sys.executable, "-c", prelude + code], cwd=cwd, capture_output=True, text=True, timeout=120
    )


def _config(tmp_path: Path, name: str, scenarios: list) -> Path:
    out = tmp_path / name
    cfg = tmp_path / f"{name}.yaml"
    cfg.write_text(json.dumps({"seed": 3, "output_dir": str(out), "scenarios": scenarios}))
    return cfg


@pytest.mark.skipif(not GLIBC, reason="needs glibc's mallopt")
def test_run_keeps_freed_chunk_memory_in_the_process(tmp_path):
    # without the thresholds every 2000-replication chunk unmaps its arrays
    # and faults them in again: over 1,300 minor faults for this scenario
    cfg = _config(tmp_path, "reports", [{"id": "coverage-compare", "n_reps": 4000}])
    out = _fresh(
        "import resource\n"
        "from dcxsim import cli\n"
        "from dcxsim.geometry import make_stream\n"
        "from dcxsim.scenarios import run_scenario\n"
        "try:\n"
        f"    cli.main(['run', {str(cfg)!r}])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "run_scenario('coverage-compare', {'n_reps': 4000}, make_stream(1, 0))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n",
        tmp_path,
    )
    assert out.returncode == 0, out.stderr
    faults = int(out.stdout.splitlines()[-1])
    assert faults < 200


def test_heap_setting_changes_no_report_byte_and_fails_quietly(tmp_path):
    # the arrays land at other heap addresses with the setting; no rounding
    # in numpy's loops may depend on that, and a C library that cannot be
    # loaded leaves the run as it was, with nothing on stderr
    scenarios = [
        {"id": "coverage-compare", "n_reps": 4000},
        {"id": "sinr-compare", "n_reps": 4000},
        {"id": "ising-vs-poisson", "n_reps": 4000, "suite_size": 8},
    ]
    csvs = []
    for name, patch in (("as-is", ""), ("no-libc", "ctypes.CDLL = refuse\n")):
        cfg = _config(tmp_path, name, scenarios)
        out = _fresh(
            "import ctypes\n"
            "def refuse(*args, **kwargs):\n"
            "    raise OSError('no C library')\n"
            + patch
            + "from dcxsim import cli\n"
            f"cli.main(['run', {str(cfg)!r}])\n",
            tmp_path,
        )
        assert out.returncode == 0, out.stderr
        assert out.stderr == ""
        csvs.append({p.name: p.read_bytes() for p in sorted((tmp_path / name).glob("*.csv"))})
    assert len(csvs[0]) == len(scenarios)
    assert csvs[0] == csvs[1]


def _traced_peak(tmp_path: Path, scenario_id: str, params: dict) -> int:
    """tracemalloc's peak over a second run of the scenario in a fresh
    interpreter: the first run loads every module and fills every cache."""
    out = _fresh(
        "import tracemalloc\n"
        "from dcxsim.geometry import make_stream\n"
        "from dcxsim.scenarios import run_scenario\n"
        f"run = lambda: run_scenario({scenario_id!r}, {params!r}, make_stream(1, 0))\n"
        "run()\n"
        "tracemalloc.start()\n"
        "run()\n"
        "print(tracemalloc.get_traced_memory()[1])\n",
        tmp_path,
    )
    assert out.returncode == 0, out.stderr
    return int(out.stdout.splitlines()[-1])


def test_extremal_chunk_working_set(tmp_path):
    # one chunk of 2000 replications per side: the nearest squared distance
    # per replication, per-parent Thomas counts and a wrap that copies the
    # children once keep the traced peak near 1.55 MiB (2.46 MiB when every
    # point had its own response value and replication index)
    assert _traced_peak(tmp_path, "lo-extremal", {"n_reps": 2000}) < 2.0 * 2**20


def test_cluster_intensity_chunk_working_set(tmp_path):
    # at lam 200 a chunk of 2000 replications has about 1.6 million parents
    # at c = 4: drawn and reduced one block of replications at a time, the
    # traced peak stays near 1 MiB (25.2 MiB when the chunk's parents were
    # drawn as one array)
    assert _traced_peak(tmp_path, "ppcluster-family", {"n_reps": 2000, "lam": 200.0}) < 2.0 * 2**20


def test_suite_chunk_working_set(tmp_path):
    # a suite chunk holds one (size, suite + boxes) rows array, written in
    # place by compare_vectors and centred in place by Moments.of: a traced
    # peak near 1.2 MiB (2.06 MiB with a stacked copy and a centred copy)
    peak = _traced_peak(tmp_path, "ising-vs-poisson", {"n_reps": 2000, "suite_size": 60})
    assert peak < 1.5 * 2**20
