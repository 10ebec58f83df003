import json
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
import yaml

from dcxsim.cli import ConfigError, _load_config, main
from dcxsim.geometry import NumericalError, make_stream
from dcxsim import ordering
from dcxsim.scenarios import SCENARIOS, build_scenario, run_scenario

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

FAST_PARAMS = {
    "ising-vs-poisson": {"n_reps": 400, "suite_size": 8},
    "ppcluster-family": {"n_reps": 400, "suite_size": 6},
    "sinr-compare": {"n_reps": 400},
    "coverage-compare": {"n_reps": 400},
    "palm-poisson-check": {"n_reps": 400},
    "ginibre-oracle": {"b_values": [1.0]},
    "oracle-poisson-scaling": {"a_values": [1.0], "c_values": [2.0]},
    "lo-extremal": {"n_reps": 400},
    "levy-grid": {"n_reps": 400, "suite_size": 6},
    "marked-basis": {"n_reps": 400, "suite_size": 6},
    "ops-preservation": {"n_reps": 400, "suite_size": 6},
    "ripley-poisson": {"n_reps": 50},
}


_RECORD = {"id", "family", "mean_x", "mean_y", "diff", "stderr", "z"}
_RECORD_HEADER = "id,family,mean_x,mean_y,diff,stderr,z"
_COVERAGE = {k + s for k in ("p_cover", "mean_count", "second_moment") for s in ("", "_stderr")}
_CX = {"verdict", "max_violation", "mean_x", "mean_y"}

# scenario id -> (CSV header, details keys each with the key set of its dict
# or of every entry of its list of dicts (None for a plain value), the keys of
# every per_function entry)
REPORT_SCHEMA = {
    "ising-vs-poisson": (
        _RECORD_HEADER, {"lam_bar": None, "n_strictly_separated": None}, _RECORD,
    ),
    "ppcluster-family": (
        "c_hi,c_lo,verdict,var_hi,var_lo,var_ratio,expected_ratio",
        {"pairs": {"c_pair", "verdict", "var_hi", "var_lo", "var_ratio", "expected_ratio",
                   "mean_equality"}},
        _RECORD | {"c_pair"},
    ),
    "sinr-compare": (
        "interferers,estimator,p_success,stderr",
        dict.fromkeys(["p_poisson", "stderr_poisson", "p_thomas", "stderr_thomas",
                       "p_poisson_indicator", "stderr_poisson_indicator", "estimators_agree",
                       "ci_separated"]),
        None,
    ),
    "coverage-compare": (
        "germs,query,p_cover,stderr,mean_count,second_moment,analytic",
        {"poisson": _COVERAGE, "thomas": _COVERAGE, "poisson_coverage_analytic": None},
        None,
    ),
    "palm-poisson-check": (
        "estimate,stderr,expected", {"estimate": None, "stderr": None, "expected": None}, None,
    ),
    "ginibre-oracle": (
        "b,max_violation,mean_structured,mean_poisson",
        {"per_b": _CX | {"b", "mean_structured", "mean_poisson"}},
        None,
    ),
    "oracle-poisson-scaling": (
        "a,c,max_violation,mean_x,mean_y", {"per_pair": _CX | {"a", "c"}, "violation": None}, None,
    ),
    "lo-extremal": (
        "t1,t2,cdf_thomas,cdf_poisson,stderr",
        {"verdict": None, "per_threshold": {"t", "cdf_1", "cdf_2", "stderr"}},
        None,
    ),
    "levy-grid": (_RECORD_HEADER, {"atoms_per_box": None}, _RECORD),
    "marked-basis": (_RECORD_HEADER, {}, _RECORD),
    "ops-preservation": (
        "operation,verdict,min_z",
        {"per_op": {"thin_iid_half", "displace_shift", "superpose_poisson"}},
        None,
    ),
    "ripley-poisson": (
        "r,k_hat,stderr,pi_r_squared", {"k_hat": None, "stderr": None, "reference": None}, None,
    ),
}


def _key_shape(value):
    """The key set of a dict, or the one key set of every dict in a list of
    dicts; None for any other value."""
    if isinstance(value, dict):
        return set(value)
    if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
        shapes = [set(v) for v in value]
        assert all(shape == shapes[0] for shape in shapes), shapes
        return shapes[0]
    return None


def _write_config(tmp_path, scenarios, seed=7, extra=None):
    cfg = {"seed": seed, "output_dir": str(tmp_path / "out"), "scenarios": scenarios}
    if extra:
        cfg.update(extra)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def test_list_scenarios_contains_all_ids(invoke):
    code, output = invoke(["list-scenarios"])
    assert code == 0
    for sid in SCENARIOS:
        assert sid in output
    # stable ordering
    _, again = invoke(["list-scenarios"])
    assert again == output


def test_command_line_contract(invoke, capsys):
    # the calls the shell and the benchmark make: bench/child.py calls main
    # with these keywords and reads the code of the SystemExit it raises
    with pytest.raises(SystemExit) as exc:
        main(args=["list-scenarios"], prog_name="dcxsim")
    assert exc.value.code == 0
    listed = capsys.readouterr().out
    assert all(sid in listed for sid in SCENARIOS)
    # usage errors exit 2, the code of a configuration error
    for argv in ([], ["no-such-command"], ["run"]):
        assert invoke(argv)[0] == 2, argv
    assert invoke(["--help"])[0] == 0


def test_missing_config_key_is_config_error(tmp_path, invoke):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({"seed": 1, "scenarios": [{"id": "ripley-poisson"}]}))
    code, output = invoke(["run", str(path)])
    assert code == 2
    assert "output_dir" in output


def test_unknown_scenario_is_config_error(tmp_path, invoke):
    # a list or a mapping is no id: it raised TypeError (unhashable) and exited 1
    for sid, shown in (("nonexistent-scenario", "nonexistent-scenario"), ([1, 2], "[1, 2]"),
                       ({"a": 1}, "{'a': 1}")):
        path = _write_config(tmp_path, [{"id": sid}])
        code, output = invoke(["run", str(path)])
        assert code == 2, sid
        assert shown in output


def test_unparseable_config(tmp_path, invoke):
    path = tmp_path / "broken.yaml"
    path.write_text("seed: [unclosed\n")
    code, _ = invoke(["run", str(path)])
    assert code == 2


def test_non_integer_seed(tmp_path, invoke):
    # YAML true loads as a bool, an int subclass; it is no seed or worker count
    for key, value in (("seed", "abc"), ("seed", True), ("workers", True)):
        path = _write_config(tmp_path, [{"id": "ripley-poisson"}], extra={key: value})
        code, output = invoke(["run", str(path)])
        assert code == 2, (key, value)
        assert key in output


def test_seed_outside_stream_range_is_config_error(tmp_path, invoke):
    # streams take seeds in [0, 2**64): -1 wrote the reports of 2**64 - 1
    for seed in (-1, 2**64):
        path = _write_config(tmp_path, [{"id": "oracle-poisson-scaling"}], seed=seed)
        code, output = invoke(["run", str(path)])
        assert code == 2, seed
        assert "seed" in output
        assert not (tmp_path / "out").exists()
    path = _write_config(tmp_path, [{"id": "oracle-poisson-scaling"}], seed=2**64 - 1)
    assert invoke(["run", str(path)])[0] == 0


def test_non_string_output_dir_is_config_error(tmp_path, invoke):
    path = _write_config(tmp_path, [{"id": "ripley-poisson"}], extra={"output_dir": 5})
    code, output = invoke(["run", str(path)])
    assert code == 2
    assert "output_dir" in output


def test_invalid_parameter_is_config_error(tmp_path, invoke):
    # each bad entry follows a good scenario: every entry is built when the
    # config loads, so the good one neither prints its verdict line nor
    # leaves its reports behind
    for entry in (
        {"id": "oracle-poisson-scaling", "a_values": [-1.0]},
        {"id": "levy-grid", "window": "abc"},
        {"id": "levy-grid", "lattice_spacing": 0},
        {"id": "ripley-poisson", "n_rep": 10},
        {"id": "ripley-poisson", "window": {"low": [0, 0], "highs": [2, 2]}},
        {"id": "ising-vs-poisson", "z_crit": 1.0},
        {"id": "palm-poisson-check", "box_highs": [3, 3]},
        {"id": "ppcluster-family", "n_reps": 400, "sigma": 0},
        {"id": "ppcluster-family", "n_reps": 400, "sigma": -0.1},
        {"id": "sinr-compare", "n_reps": 400, "noise": -0.5},
        {"id": "coverage-compare", "n_reps": 400, "r": -0.1},
        {"id": "sinr-compare", "n_reps": 400, "cluster_size": 0},
        {"id": "coverage-compare", "n_reps": 400, "cluster_size": 0},
        {"id": "lo-extremal", "n_reps": 400, "cluster_size": 0},
        # pi r^2 is the torus K only for 0 <= r <= half the shortest window side
        {"id": "ripley-poisson", "n_reps": 50, "r_grid": [0.6]},
        {"id": "ripley-poisson", "n_reps": 50, "r_grid": [-0.1, 0.05]},
        # an empty list compares nothing, and a count must be an integer
        {"id": "ginibre-oracle", "b_values": []},
        {"id": "oracle-poisson-scaling", "a_values": []},
        {"id": "ppcluster-family", "n_reps": 400, "c_pairs": []},
        {"id": "ripley-poisson", "n_reps": 50, "r_grid": []},
        {"id": "coverage-compare", "n_reps": 400, "queries": []},
        {"id": "lo-extremal", "n_reps": 400, "queries": []},
        {"id": "palm-poisson-check", "n_reps": 2.5},
        {"id": "levy-grid", "n_reps": 400, "suite_size": True},
        # points and queries of another dimension than the window's
        {"id": "coverage-compare", "n_reps": 400, "queries": [[0.5, 0.5, 0.5]]},
        {"id": "coverage-compare", "n_reps": 400, "queries": [[0.5]]},
        {"id": "lo-extremal", "n_reps": 400, "queries": [[0.25, 0.25, 9.0], [0.75, 0.75, 9.0]]},
        {"id": "ops-preservation", "n_reps": 400, "suite_size": 6, "shift": [0.3]},
        {"id": "marked-basis", "n_reps": 400, "suite_size": 6, "mark_mean": 0},
        # points outside the window: a torus distance from [2.7, 0.7] took the
        # gap to the wrap image [0.7, 0.7] and ran as if the emitter sat there
        {"id": "sinr-compare", "n_reps": 400, "emitters": [[0.3, 0.3], [2.7, 0.7]]},
        {"id": "sinr-compare", "n_reps": 400, "receivers": [[0.3, -0.35], [0.7, 0.75]]},
        {"id": "coverage-compare", "n_reps": 400, "queries": [[1.5, 0.5]]},
        {"id": "ppcluster-family", "n_reps": 400, "queries": [[0.2, 0.2], [0.5, 1.25]]},
        {"id": "lo-extremal", "n_reps": 400, "queries": [[0.25, 0.25], [-0.25, 0.75]]},
        # kernel, mass-law and threshold values that are not positive or finite
        {"id": "sinr-compare", "n_reps": 400, "beta": 0},
        {"id": "lo-extremal", "n_reps": 400, "beta": 0},
        {"id": "lo-extremal", "n_reps": 400, "beta": -2},
        {"id": "marked-basis", "n_reps": 400, "suite_size": 6, "mark_mean": float("inf")},
        {"id": "lo-extremal", "n_reps": 400, "threshold_grid": [float("nan")]},
        # a float that is not finite where the default holds floats
        {"id": "sinr-compare", "n_reps": 400, "T": float("nan")},
        {"id": "sinr-compare", "n_reps": 400, "T": float("inf")},
        {"id": "sinr-compare", "n_reps": 400, "noise": float("inf")},
        {"id": "coverage-compare", "n_reps": 400, "r": float("inf")},
        {"id": "coverage-compare", "n_reps": 400, "queries": [[float("nan"), 0.5]]},
        {"id": "ppcluster-family", "n_reps": 400, "queries": [[float("nan"), 0.5]]},
        {"id": "lo-extremal", "n_reps": 400, "queries": [[float("nan"), 0.25], [0.75, 0.75]]},
        # a string or a bool where the default holds floats: "nan" is no number,
        # and YAML true would run as 1.0
        {"id": "sinr-compare", "n_reps": 400, "T": "nan"},
        {"id": "ising-vs-poisson", "n_reps": 400, "suite_size": 6, "mu1": True},
        # pi r^2 is the planar K
        {"id": "ripley-poisson", "n_reps": 50, "window": {"lows": [0.0], "highs": [1.0]}},
        {"id": "ripley-poisson", "n_reps": 50, "window": {"lows": [0, 0, 0], "highs": [1, 1, 1]}},
        # no lattice atom in any box: every count was 0 and the verdict vacuous
        {"id": "levy-grid", "n_reps": 400, "suite_size": 6, "lattice_spacing": 100.0},
        # one atom in one box of the 4 x 4 window: the three empty boxes' suite
        # functions read mean 0, stderr 0 and z 0, and the verdict was CONSISTENT
        {"id": "levy-grid", "n_reps": 400, "suite_size": 6, "lattice_spacing": 5.0},
        # refused by the build, before any draw: a plain window (ripley_k itself
        # refuses it only in its chunk loop), no intensity, an empty suite, one
        # replication, and a direct link with zero path gain
        {"id": "ripley-poisson", "n_reps": 50, "window": {"topology": "plain"}},
        {"id": "ripley-poisson", "n_reps": 50, "lam": 0},
        {"id": "levy-grid", "n_reps": 400, "suite_size": 0},
        {"id": "marked-basis", "n_reps": 1},
        # the second link is 70.7 long, past the power law's truncation radius 30.6
        {"id": "sinr-compare", "n_reps": 400, "window": {"highs": [100.0, 100.0]},
         "emitters": [[1, 1], [10, 10]], "receivers": [[1, 1.05], [60, 60]]},
    ):
        # after itself, an oracle-poisson-scaling entry would be a repeated id
        first = "oracle-poisson-scaling"
        if entry["id"] == first:
            first = "ginibre-oracle"
        path = _write_config(tmp_path, [{"id": first}, entry])
        code, output = invoke(["run", str(path)])
        assert code == 2, entry
        assert not any(line.startswith(f"{first}:") for line in output.splitlines()), output
        assert not list((tmp_path / "out").glob("*")), entry
    # a non-string topology, and a window that Window refuses, are refused
    # with an error that names the topology
    for entry in (
        {"id": "ripley-poisson", "window": {"topology": 5}},
        {"id": "ripley-poisson", "window": {"topology": "klein"}},
    ):
        path = _write_config(tmp_path, [{"id": "oracle-poisson-scaling"}, entry])
        code, output = invoke(["run", str(path)])
        assert code == 2, entry
        assert "topology" in output, output
        assert "oracle-poisson-scaling:" not in output, output
        assert not list((tmp_path / "out").glob("*")), entry


def test_unknown_key_is_rejected_before_any_scenario_runs(tmp_path, invoke):
    for name, (first, bad, key) in enumerate((
        ("ginibre-oracle", {"id": "ripley-poisson", "n_rep": 10}, "n_rep"),
        ("oracle-poisson-scaling", {"id": "ripley-poisson", "window": {"low": [0, 0]}}, "low"),
        # sinr-compare has one noise knob: success depends on noise, power and
        # fading mean only through noise / (power * fading mean)
        ("ginibre-oracle", {"id": "sinr-compare", "power": float("inf")}, "power"),
        ("ginibre-oracle", {"id": "sinr-compare", "fading_mean": 0}, "fading_mean"),
    )):
        (tmp_path / str(name)).mkdir()
        path = _write_config(tmp_path / str(name), [{"id": first}, bad])
        code, output = invoke(["run", str(path)])
        assert code == 2
        assert key in output
        assert not list((tmp_path / str(name) / "out").glob("*"))


def test_window_values_are_checked_before_any_scenario_runs(tmp_path, invoke):
    # window keys fall under the rule of every other key: a NaN bound ran the
    # scenarios before it and failed only when its own window was built
    for name, (window, path_name) in enumerate((
        ({"lows": [float("nan"), 0.0]}, "window.lows"),
        ({"highs": [1.0, float("inf")]}, "window.highs"),
        ({"lows": []}, "window.lows"),
        ({"low": [0.0, 0.0]}, "window.low"),
        ("abc", "window"),
    )):
        (tmp_path / str(name)).mkdir()
        entry = {"id": "ripley-poisson", "n_reps": 50, "window": window}
        path = _write_config(tmp_path / str(name), [{"id": "oracle-poisson-scaling"}, entry])
        code, output = invoke(["run", str(path)])
        assert code == 2, window
        assert path_name in output, output
        assert "oracle-poisson-scaling:" not in output, output
        assert not (tmp_path / str(name) / "out").exists()


def test_list_nesting_is_checked_before_any_scenario_runs(tmp_path, invoke):
    # a list where the default is a scalar, a scalar where it is a list, and
    # a pair where it is a list of pairs ran the scenarios before them and
    # then failed inside Python or numpy without naming the key
    for name, (entry, key) in enumerate((
        ({"id": "palm-poisson-check", "lam": [5.0]}, "lam"),
        ({"id": "ginibre-oracle", "b_values": 0.5}, "b_values"),
        ({"id": "ppcluster-family", "c_pairs": [4.0, 1.0]}, "c_pairs"),
        ({"id": "lo-extremal", "threshold_grid": 0.5}, "threshold_grid"),
        ({"id": "ops-preservation", "shift": [[0.35, 0.15]]}, "shift"),
    )):
        (tmp_path / str(name)).mkdir()
        path = _write_config(tmp_path / str(name), [{"id": "oracle-poisson-scaling"}, entry])
        code, output = invoke(["run", str(path)])
        assert code == 2, entry
        assert key in output, output
        assert "oracle-poisson-scaling:" not in output, output
        assert not (tmp_path / str(name) / "out").exists()


def test_lo_extremal_needs_exactly_two_queries(tmp_path, invoke):
    # its thresholds are (t1, t2) pairs: one query ran on a one-point field,
    # three failed inside numpy without naming the parameter
    for name, queries in enumerate(([[0.5, 0.5]], [[0.2, 0.2], [0.5, 0.5], [0.8, 0.8]])):
        (tmp_path / str(name)).mkdir()
        entry = {"id": "lo-extremal", "n_reps": 400, "queries": queries}
        path = _write_config(tmp_path / str(name), [{"id": "oracle-poisson-scaling"}, entry])
        code, output = invoke(["run", str(path)])
        assert code == 2, queries
        assert "queries" in output
        assert "oracle-poisson-scaling:" not in output, output
        assert not list((tmp_path / str(name) / "out").glob("*"))


def test_unknown_top_level_key_is_a_config_error(tmp_path, invoke):
    # misspelt top-level keys must not run the config on its defaults
    path = _write_config(tmp_path, [{"id": "oracle-poisson-scaling"}], extra={"worker": 4, "sede": 9})
    code, output = invoke(["run", str(path)])
    assert code == 2
    assert "sede, worker" in output
    assert not (tmp_path / "out").exists()


def test_repeated_scenario_id_is_a_config_error(tmp_path, invoke):
    # both entries write palm-poisson-check.json/.csv: the second overwrote the first
    entries = [
        {"id": "palm-poisson-check", "n_reps": 200},
        {"id": "oracle-poisson-scaling"},
        {"id": "palm-poisson-check", "n_reps": 300},
    ]
    path = _write_config(tmp_path, entries)
    with pytest.raises(ConfigError, match="palm-poisson-check"):
        _load_config(str(path))
    code, output = invoke(["run", str(path)])
    assert code == 2
    assert "palm-poisson-check" in output
    assert not (tmp_path / "out").exists()


def test_run_scenario_rejects_unknown_keys():
    # a misspelt key must not run the scenario on its defaults
    with pytest.raises(ValueError, match="n_rep"):
        run_scenario("ripley-poisson", {"n_rep": 10}, make_stream(7))


class _RecordingParams(dict):
    """A parameter mapping that records the dotted path of every key a runner
    looks up, in it and in the mappings nested in it ("window.lows", say);
    unpacking it with ** looks up every key."""

    def __init__(self, params, read=None, prefix=""):
        self.read = set() if read is None else read
        self.prefix = prefix
        super().__init__({
            k: _RecordingParams(v, self.read, f"{prefix}{k}.") if isinstance(v, dict) else v
            for k, v in params.items()
        })

    def get(self, key, default=None):
        self.read.add(self.prefix + key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(self.prefix + key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(self.prefix + key)
        return super().__contains__(key)

    def __iter__(self):
        # a dict subclass that keeps dict's __iter__ is unpacked without
        # __getitem__, so ** would read unseen
        return super().__iter__()


def _paths(defaults: dict, prefix="") -> set:
    """The dotted path of every key of ``defaults`` and of its nested mappings."""
    return {
        p for k, v in defaults.items()
        for p in {prefix + k} | (_paths(v, f"{prefix}{k}.") if isinstance(v, dict) else set())
    }


@pytest.mark.parametrize("sid", sorted(SCENARIOS))
def test_declared_keys_are_the_keys_read(sid):
    # the runner reads every default, and nothing else, from the merged
    # mapping; window keys included, so no runner keeps a default of its own
    _, runner, defaults = SCENARIOS[sid]
    params = _RecordingParams({**defaults, **FAST_PARAMS[sid]})
    runner(params, make_stream(7))
    assert params.read == _paths(defaults)


def test_a_build_draws_no_replication(monkeypatch):
    # a build makes every check and sampler and leaves the chunks to its step,
    # which gives run_scenario's result record for record
    def no_chunks(worker, n_chunks):
        raise AssertionError("a build ran the chunk loop")

    with monkeypatch.context() as m:
        m.setattr(ordering, "_run_chunks", no_chunks)
        steps = [
            build_scenario(sid, FAST_PARAMS[sid], make_stream(7, k))
            for k, sid in enumerate(SCENARIOS)
        ]
    for k, (sid, step) in enumerate(zip(SCENARIOS, steps)):
        got, want = step(), run_scenario(sid, FAST_PARAMS[sid], make_stream(7, k))
        assert json.dumps(asdict(got), sort_keys=True) == json.dumps(asdict(want), sort_keys=True)


@pytest.mark.parametrize("sid", sorted(SCENARIOS))
def test_defaults_written_into_the_config_change_no_report(sid, tmp_path, invoke):
    # every default is a plain config value: spelled out in YAML, it gives the
    # reports of the run that leaves the keys out
    reports = []
    for name, entry in (("implicit", {}), ("explicit", SCENARIOS[sid][2])):
        (tmp_path / name).mkdir()
        path = _write_config(tmp_path / name, [dict(entry, **FAST_PARAMS[sid], id=sid)])
        code, output = invoke(["run", str(path)])
        assert code in (0, 1), output
        out = tmp_path / name / "out"
        report = json.loads((out / f"{sid}.json").read_text())
        for key in ("params_echo", "runtime_seconds"):
            report.pop(key)
        reports.append((report, (out / f"{sid}.csv").read_bytes()))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.yaml")))
def test_shipped_configs_load(config):
    cfg = _load_config(str(CONFIGS / config))
    if config == "all_scenarios.yaml":
        assert [e["id"] for e in cfg["scenarios"]] == list(SCENARIOS)


@pytest.mark.parametrize(
    "sid, n_reps",
    [("marked-basis", 1), ("palm-poisson-check", 1), ("ripley-poisson", 1), ("sinr-compare", 0)],
)
def test_too_few_replications_is_config_error(sid, n_reps, tmp_path, invoke):
    path = _write_config(tmp_path, [{"id": sid, "n_reps": n_reps}])
    code, output = invoke(["run", str(path)])
    assert code == 2, output
    for report in (tmp_path / "out").glob("*"):
        assert "NaN" not in report.read_text()


@pytest.mark.parametrize("sid", sorted(SCENARIOS))
def test_every_scenario_round_trips(sid, tmp_path, invoke):
    path = _write_config(tmp_path, [dict(FAST_PARAMS[sid], id=sid)])
    code, output = invoke(["run", str(path)])
    assert code in (0, 1), output
    report = json.loads((tmp_path / "out" / f"{sid}.json").read_text())
    for key in ("scenario_id", "seed", "params_echo", "verdict", "per_function",
                "mean_equality", "runtime_seconds"):
        assert key in report
    assert report["scenario_id"] == sid
    header, details, per_function = REPORT_SCHEMA[sid]
    lines = (tmp_path / "out" / f"{sid}.csv").read_text().splitlines()
    assert lines[0] == header
    assert all(len(line.split(",")) == len(header.split(",")) for line in lines[1:])
    assert {k: _key_shape(v) for k, v in report["details"].items()} == details
    if per_function is None:
        assert report["per_function"] == []
    else:
        assert report["per_function"]
        for entry in report["per_function"]:
            assert set(entry) == per_function


def test_csv_floats_have_12_significant_digits(tmp_path, invoke):
    path = _write_config(tmp_path, [dict(FAST_PARAMS["palm-poisson-check"], id="palm-poisson-check")])
    assert invoke(["run", str(path)])[0] == 0
    lines = (tmp_path / "out" / "palm-poisson-check.csv").read_text().splitlines()
    value = lines[1].split(",")[0]
    digits = re.sub(r"[^0-9]", "", value.split("e")[0])
    assert len(digits.lstrip("0")) >= 11  # 12 significant digits requested


def test_exit_one_on_violation(tmp_path, monkeypatch, invoke):
    import dcxsim.cli as cli_mod
    from dcxsim.scenarios import ScenarioResult

    def fake_run(sid, params, stream):
        return ScenarioResult("VIOLATION", {}, [{"x": 1.0}], scenario_id=sid)

    monkeypatch.setattr(cli_mod, "run_scenario", fake_run)
    path = _write_config(tmp_path, [{"id": "ripley-poisson"}])
    code, _ = invoke(["run", str(path)])
    assert code == 1


@pytest.mark.parametrize("error", [np.linalg.LinAlgError, NumericalError])
def test_exit_three_on_runtime_failure(tmp_path, monkeypatch, error, invoke):
    import dcxsim.cli as cli_mod

    def boom(sid, params, stream):
        if sid == "ripley-poisson":
            raise error("synthetic numeric failure")
        return run_scenario(sid, params, stream)

    # the failure comes second: the first scenario's reports must not be written
    monkeypatch.setattr(cli_mod, "run_scenario", boom)
    path = _write_config(tmp_path, [{"id": "oracle-poisson-scaling"}, {"id": "ripley-poisson"}])
    code, _ = invoke(["run", str(path)])
    assert code == 3
    assert not list((tmp_path / "out").glob("*"))


def test_interrupt_propagates_and_writes_no_report(tmp_path, monkeypatch):
    # exit 1 means a VIOLATION verdict: Ctrl-C must reach the shell as an
    # interrupt, and the finished first scenario must leave no report
    import dcxsim.cli as cli_mod

    def interrupted(sid, params, stream):
        if sid == "ripley-poisson":
            raise KeyboardInterrupt
        return run_scenario(sid, params, stream)

    monkeypatch.setattr(cli_mod, "run_scenario", interrupted)
    path = _write_config(tmp_path, [{"id": "oracle-poisson-scaling"}, {"id": "ripley-poisson"}])
    with pytest.raises(KeyboardInterrupt):
        main(["run", str(path)])
    assert not list((tmp_path / "out").glob("*"))
