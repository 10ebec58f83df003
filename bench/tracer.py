"""Layer timing from outside the program.

``Tracer.install`` replaces public functions of the dcxsim modules with thin
wrappers that time each call.  A module that did ``from .geometry import
count_in`` holds its own binding, so every binding of the same function object
in every loaded dcxsim module is replaced.  The program's files are not
changed.

A layer's self time is the time its spans cover minus the part their child
spans cover.  Fine-grained spans (one per sampler or reducer call) are only
summed, so memory stays flat however many replications run; scenario and
report spans are kept whole.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

# layer -> [(module, qualified name)] of the public functions wrapped for it
LAYERS: dict[str, list[tuple[str, str]]] = {
    "sample": [
        ("dcxsim.processes", "sample_poisson"),
        ("dcxsim.processes", "sample_cox"),
        ("dcxsim.processes", "sample_mixed_poisson"),
        ("dcxsim.processes", "sample_ising_field"),
        ("dcxsim.processes", "sample_levy_grid_basis"),
        ("dcxsim.processes", "sample_marked_poisson_basis"),
        ("dcxsim.processes", "sample_ppcluster_intensity"),
        ("dcxsim.processes", "ppcluster_intensity_at"),
        ("dcxsim.processes", "sample_ppcluster"),
        ("dcxsim.processes", "make_lgcp_sampler"),
        ("dcxsim.processes", "sample_gnscp"),
        ("dcxsim.processes", "make_thomas_sampler"),
        ("dcxsim.processes", "sample_ginibre_radii"),
        ("dcxsim.ops", "displace"),
        ("dcxsim.ops", "mark_iid"),
        ("dcxsim.ops", "thin_iid"),
        ("dcxsim.ops", "thin_split"),
        ("dcxsim.ops", "superpose"),
    ],
    "reduce": [
        ("dcxsim.geometry", "count_in"),
        ("dcxsim.geometry", "mass_in"),
        ("dcxsim.geometry", "pairwise_distances"),
        ("dcxsim.shotnoise", "additive_sn"),
        ("dcxsim.shotnoise", "extremal_sn"),
        ("dcxsim.shotnoise", "ResponseKernel.value"),
        ("dcxsim.stats", "coverage_field"),
        ("dcxsim.stats", "integrate_weight"),
    ],
    "suite": [
        ("dcxsim.ordering", "TestFunction.__call__"),
        ("dcxsim.ordering", "make_suite"),
    ],
    "engine": [
        ("dcxsim.ordering", "compare_vectors"),
        ("dcxsim.ordering", "compare_on_boxes"),
        ("dcxsim.ordering", "lo_compare"),
        ("dcxsim.ordering", "_run_chunks"),
        ("dcxsim.ordering", "oracle_poisson_scaling"),
        ("dcxsim.ordering", "oracle_ginibre_radii"),
        ("dcxsim.wireless", "sinr_success"),
        ("dcxsim.wireless", "sinr_success_rayleigh"),
        ("dcxsim.wireless", "boolean_coverage"),
        ("dcxsim.stats", "mixed_palm_estimate"),
        ("dcxsim.stats", "ripley_k"),
    ],
    "scenario": [("dcxsim.cli", "run_scenario")],
    "report": [("dcxsim.cli", "_write_reports")],
}

# spans of these layers are kept one by one; the others are only summed
KEEP_SPANS = ("scenario", "report")


def _resolve(modname: str, qualname: str):
    obj = sys.modules[modname]
    owner = None
    for part in qualname.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, qualname.split(".")[-1], obj


def _rebind(func, wrapper) -> None:
    """Point every dcxsim module attribute that is `func` at `wrapper`."""
    for name, mod in list(sys.modules.items()):
        if not (name == "dcxsim" or name.startswith("dcxsim.")) or mod is None:
            continue
        for attr, val in list(vars(mod).items()):
            if val is func:
                setattr(mod, attr, wrapper)


class Tracer:
    """Self time and call counts per layer, plus whole scenario/report spans."""

    def __init__(self, layers=None):
        self.layers = LAYERS if layers is None else layers
        self.clock = time.perf_counter
        self._stack: list[float] = []  # child time covered, per open span
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.per_function: dict[str, list] = {}
        self.spans: list[dict] = []
        self.suite_evals = 0
        self.chunks = 0

    def install(self) -> None:
        """Wrap every listed function of the loaded dcxsim modules."""
        for layer, targets in self.layers.items():
            for modname, qualname in targets:
                owner, attr, func = _resolve(modname, qualname)
                wrapper = self._wrap(func, layer, f"{modname}.{qualname}")
                if isinstance(owner, type):
                    setattr(owner, attr, wrapper)
                else:
                    _rebind(func, wrapper)

    def _wrap(self, func, layer: str, name: str):
        stack = self._stack
        clock = self.clock
        self_s = self.self_s
        calls = self.calls
        stats = self.per_function.setdefault(name, [layer, 0, 0.0, 0.0])
        keep = layer in KEEP_SPANS
        spans = self.spans
        is_suite_call = name.endswith("TestFunction.__call__")
        is_chunks = name.endswith("_run_chunks")

        def wrapper(*args, **kwargs):
            if is_suite_call:
                self.suite_evals += len(args[1]) if hasattr(args[1], "__len__") else 1
            elif is_chunks:
                self.chunks += args[1]
            stack.append(0.0)
            t0 = clock()
            try:
                return func(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                self_s[layer] += dt - child
                calls[layer] += 1
                stats[1] += 1
                stats[2] += dt
                stats[3] += dt - child
                if keep:
                    label = args[0] if layer == "scenario" else args[1].scenario_id
                    spans.append({"layer": layer, "name": label, "start": t0, "end": t0 + dt})

        return wrapper

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "suite_evals": self.suite_evals,
            "chunks": self.chunks,
            "per_function": {
                k: {"layer": v[0], "calls": v[1], "total_s": v[2], "self_s": v[3]}
                for k, v in self.per_function.items()
            },
            "spans": self.spans,
        }
