"""What ``import dcxsim.cli`` loads, checked in a fresh interpreter."""
import subprocess
import sys
from pathlib import Path

from test_acceptance import FAST_PARAMS

ROOT = Path(__file__).resolve().parents[1]


def _fresh(code: str) -> subprocess.CompletedProcess:
    prelude = f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'bench')!r}]\n"
    return subprocess.run(
        [sys.executable, "-c", prelude + code], capture_output=True, text=True, timeout=120
    )


def test_cli_import_skips_slow_scipy_modules():
    # importing any of scipy costs more than the rest of the start-up, and
    # the program needs none of it on its way to the first scenario; the
    # command line is argparse, so click is not loaded either
    out = _fresh(
        "import dcxsim.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'click')))\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_scenarios_load_no_module_after_cli_import():
    # a module first loaded inside a scenario is start-up cost booked as
    # scenario time; every one belongs in the import of dcxsim.cli
    out = _fresh(
        "import dcxsim.cli\n"
        "from dcxsim.geometry import make_stream\n"
        "from dcxsim.scenarios import SCENARIOS, run_scenario\n"
        f"params = {FAST_PARAMS!r}\n"
        "before = set(sys.modules)\n"
        "for k, sid in enumerate(SCENARIOS):\n"
        "    run_scenario(sid, params[sid], make_stream(1, k))\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_benchmark_tracer_layers_resolve_after_cli_import():
    # bench/tracer.py wraps these functions by name once dcxsim.cli is
    # imported; a renamed or no longer imported one fails every traced run
    out = _fresh(
        "import dcxsim.cli, tracer\n"
        "for targets in tracer.LAYERS.values():\n"
        "    for modname, qualname in targets:\n"
        "        tracer._resolve(modname, qualname)\n"
    )
    assert out.returncode == 0, out.stderr
