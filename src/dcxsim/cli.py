"""Configuration-driven experiment runner.

Config files are YAML with these top-level keys and no others:
  seed        integer master seed in [0, 2**64)
  output_dir  directory for the emitted reports
  workers     optional positive integer, accepted for existing configs; it has
              no effect, since scenarios run their replications serially
  scenarios   list of {id: <scenario id>, ...scenario parameters...}; at any
              depth, window keys and values included, a key not in the
              scenario's SCENARIOS defaults, a value that nests lists
              otherwise than its default (a list for a scalar, an empty
              list), and a value that is not a mapping, a string, an integer
              or a finite number where the default is one (or holds floats: a
              bool, "nan", a NaN window bound) is refused

Each scenario produces <output_dir>/<id>.json and <output_dir>/<id>.csv, so
an id listed twice is refused too.

One rule decides exit 2: a value that the loader or a scenario's build
refuses exits 2 before any scenario runs.  The loader builds every entry
(scenarios.build_scenario): a build reads every parameter and makes the
window, the samplers, the suites and every check, but draws no replication.
The run loop then calls run_scenario once per scenario, which builds it
again and runs its step.  A build costs a few ms, and building again keeps
run_scenario, the span the benchmark times per scenario, the one call that
makes a scenario's result.  An error raised while a built scenario runs is
a runtime failure (exit 3).  Reports are written only after the last
scenario has run, so a run that exits 2 or 3 writes no report.
Exit codes: 0 clean, 1 a verdict was VIOLATION/fail, 2 configuration error
(usage errors included: no command, an unknown command, or run without
CONFIG_PATH), 3 runtime failure. An interrupt (Ctrl-C) propagates as
KeyboardInterrupt, so it never exits 1.

`run` first raises glibc's mmap and trim thresholds (keep_freed_memory), so the
next chunk reuses freed chunk arrays; no report byte depends on it. The setting
is process-wide: tests that call main in-process keep it, which is harmless.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import sys
import time
from pathlib import Path

import yaml

from .geometry import make_stream
from .ordering import VIOLATION, oracle_verdict
from .scenarios import SCENARIOS, ScenarioResult, build_scenario, is_int, run_scenario

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_BAD_VERDICTS = (VIOLATION, oracle_verdict(False))

# mallopt(3) parameters and the values set by keep_freed_memory
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 << 20  # glibc's largest on 64-bit
TRIM_THRESHOLD_BYTES = 64 << 20


class ConfigError(Exception):
    pass


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _load_config(config_path: str) -> dict:
    path = Path(config_path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {config_path}")
    try:
        cfg = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"config does not parse as YAML: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    unknown = sorted(str(k) for k in set(cfg) - {"seed", "output_dir", "workers", "scenarios"})
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    for key in ("seed", "output_dir", "scenarios"):
        if key not in cfg:
            raise ConfigError(f"missing required config key: {key}")
    if not is_int(cfg["seed"]) or not 0 <= cfg["seed"] < 2**64:
        raise ConfigError("config key 'seed' must be an integer in [0, 2**64)")
    if not isinstance(cfg["output_dir"], str):
        raise ConfigError("config key 'output_dir' must be a string")
    if not isinstance(cfg["scenarios"], list) or not cfg["scenarios"]:
        raise ConfigError("config key 'scenarios' must be a non-empty list")
    workers = cfg.get("workers", 1)
    if not is_int(workers) or workers < 1:
        raise ConfigError("config key 'workers' must be a positive integer")
    seen = set()
    for k, entry in enumerate(cfg["scenarios"]):
        if not isinstance(entry, dict) or "id" not in entry:
            raise ConfigError("each scenario entry must be a mapping with an 'id' key")
        sid = entry["id"]
        params = {key: v for key, v in entry.items() if key != "id"}
        try:
            build_scenario(sid, params, make_stream(cfg["seed"], k))
        except Exception as exc:  # noqa: BLE001 - whatever a build refuses is a config error
            raise ConfigError(f"scenario {sid}: {exc}") from exc
        if sid in seen:
            raise ConfigError(f"scenario id listed twice: {sid}")
        seen.add(sid)
    return cfg


def _write_reports(out_dir: Path, result: ScenarioResult, seed: int, params: dict, runtime: float):
    report = {
        "scenario_id": result.scenario_id,
        "seed": seed,
        "params_echo": params,
        "verdict": result.verdict,
        "per_function": result.per_function,
        "mean_equality": result.mean_equality,
        "details": result.details,
        "runtime_seconds": runtime,
    }
    (out_dir / f"{result.scenario_id}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    lines = [",".join(result.rows[0])]
    for row in result.rows:
        lines.append(",".join(_fmt(v) for v in row.values()))
    (out_dir / f"{result.scenario_id}.csv").write_text("\n".join(lines) + "\n")


def keep_freed_memory() -> None:
    """Keep freed chunk-sized arrays (up to 32 MiB) in glibc's heap.

    By default glibc maps such blocks with mmap, unmaps them on free and trims
    the heap top, so every chunk faults the same pages in again. Setting
    either threshold turns off glibc's dynamic threshold, so the trim
    threshold is set only once the mmap one took. A silent no-op wherever the
    C library cannot be loaded (TypeError from CDLL(None) on Windows) or has
    no mallopt (AttributeError on macOS and the BSDs).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        if mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1:
            mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)
    except (OSError, AttributeError, TypeError):
        pass


def run_cmd(config_path: str) -> int:
    """Run the scenarios named in CONFIG_PATH and write JSON/CSV reports."""
    keep_freed_memory()
    try:
        cfg = _load_config(config_path)
        out_dir = Path(cfg["output_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    seed = cfg["seed"]
    finished = []
    for k, entry in enumerate(cfg["scenarios"]):
        params = {key: v for key, v in entry.items() if key != "id"}
        sid = entry["id"]
        t0 = time.perf_counter()
        try:
            result = run_scenario(sid, params, make_stream(seed, k))
        except Exception as exc:  # noqa: BLE001 - every scenario built at load, so exit 3
            print(f"runtime failure in scenario {sid}: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        runtime = time.perf_counter() - t0
        print(f"{sid}: {result.verdict} ({runtime:.2f}s)", flush=True)
        finished.append((result, params, runtime))

    try:
        for result, params, runtime in finished:
            _write_reports(out_dir, result, seed, params, runtime)
    except OSError as exc:
        print(f"configuration error: cannot write reports: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    any_bad = any(result.verdict in _BAD_VERDICTS for result, _, _ in finished)
    return EXIT_VIOLATION if any_bad else EXIT_OK


def list_scenarios_cmd() -> int:
    """Print the scenario ids with one-line descriptions."""
    width = max(len(sid) for sid in SCENARIOS)
    for sid, (desc, _, _) in SCENARIOS.items():
        print(f"{sid.ljust(width)}  {desc}")
    return EXIT_OK


def main(args=None, prog_name=None):
    """Stochastic-order simulation experiments for spatial processes."""
    parser = argparse.ArgumentParser(prog=prog_name, description=main.__doc__)
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    run = commands.add_parser("run", help=run_cmd.__doc__, description=run_cmd.__doc__)
    run.add_argument("config_path", metavar="CONFIG_PATH")
    commands.add_parser("list-scenarios", help=list_scenarios_cmd.__doc__)
    ns = parser.parse_args(args)
    sys.exit(run_cmd(ns.config_path) if ns.command == "run" else list_scenarios_cmd())


if __name__ == "__main__":
    main()
