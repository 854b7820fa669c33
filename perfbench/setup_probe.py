"""Time one workload set-up in a fresh interpreter and print it as JSON.

Usage: python3 perfbench/setup_probe.py <workload>

The clock starts before ``import qubitflow`` and stops when the workload is
ready for its first operation: the import of qubitflow and its CLI, config
builds and Gram contexts.  ``run.py`` starts several of these in turn.
"""

import sys
import time

T0 = time.perf_counter()

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import qubitflow  # noqa: E402,F401
import qubitflow.cli  # noqa: E402,F401

T_IMPORT = time.perf_counter()

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](workdir=None).setup()
T_READY = time.perf_counter()

import json  # noqa: E402

print(json.dumps({"import_s": T_IMPORT - T0, "setup_s": T_READY - T0, "module": qubitflow.__file__}))
