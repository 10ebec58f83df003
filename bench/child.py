"""One run of ``dcxsim run <config>`` as a user would start it, plus timing.

Usage (from the checkout root; run.py starts it):
    python3 -I [-X importtime] bench/child.py MODE CONFIG TIMING_OUT

MODE is ``plain`` (only scenario start/end are timed, for the end-to-end
metrics), ``pool`` (adds the chunk thread pool) or ``trace`` (every layer in
tracer.LAYERS).  The interpreter runs isolated (-I), so dcxsim can only come
from the checkout's own src/ directory; that is checked before anything runs.
"""
import json
import os
import resource
import sys
import time

MODE, CONFIG, TIMING_OUT = sys.argv[1:4]
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
sys.path.insert(0, SRC)
sys.path.insert(1, BENCH_DIR)

sys.stderr.write("bench: importing dcxsim.cli\n")
sys.stderr.flush()
t_import = time.perf_counter()
from dcxsim import cli  # noqa: E402

t_imported = time.perf_counter()
sys.stderr.write("bench: imported dcxsim.cli\n")
sys.stderr.flush()
if not os.path.abspath(cli.__file__).startswith(os.path.join(SRC, "dcxsim") + os.sep):
    sys.stderr.write(f"bench: dcxsim imported from {cli.__file__}, not from {SRC}\n")
    sys.exit(4)
rss_after_import_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

from tracer import LAYERS, Tracer  # noqa: E402

if MODE == "trace":
    layers = LAYERS
elif MODE == "pool":
    layers = {"scenario": LAYERS["scenario"], "pool": [("dcxsim.ordering", "_run_chunks")]}
else:
    layers = {"scenario": LAYERS["scenario"]}
tracer = Tracer(layers)
tracer.install()

exit_code = 0
try:
    cli.main(args=["run", CONFIG], prog_name="dcxsim")
except SystemExit as exc:
    exit_code = exc.code if isinstance(exc.code, int) else 1
t_done = time.perf_counter()

with open(TIMING_OUT, "w") as fh:
    json.dump(
        {
            "exit_code": exit_code,
            "t_import": t_import,
            "t_imported": t_imported,
            "t_done": t_done,
            "rss_after_import_kb": rss_after_import_kb,
            "trace": tracer.summary(),
        },
        fh,
    )
sys.exit(exit_code)
