"""Set-up of one workload in a fresh interpreter: import glitchsim, then
build the config, scenario and context.  Prints ``{"import_s": ...}``.

Usage: python3 bench/setup_probe.py <workload> <seed>
"""

import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

t0 = perf_counter()
import glitchsim  # noqa: E402,F401
import_s = perf_counter() - t0

import workloads  # noqa: E402

workloads.set_up(sys.argv[1], int(sys.argv[2]))
print(json.dumps({"import_s": import_s}))
