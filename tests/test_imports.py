"""What ``import dcxsim.cli`` loads, checked in a fresh interpreter."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _fresh(code: str) -> subprocess.CompletedProcess:
    prelude = f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'bench')!r}]\n"
    return subprocess.run(
        [sys.executable, "-c", prelude + code], capture_output=True, text=True, timeout=120
    )


def test_cli_import_skips_slow_scipy_modules():
    # scipy.stats and scipy.integrate take most of the import time; the
    # program needs neither on its way to the first scenario
    out = _fresh(
        "import dcxsim.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
        "(['scipy', 'stats'], ['scipy', 'integrate'])))\n"
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
