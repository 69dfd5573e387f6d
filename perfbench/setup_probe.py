"""One set-up in a fresh interpreter: import singext from ./src, then
build the workload's models and solve their R.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints {"import_s": ..., "build_s": ...}; the benchmark's own modules
are imported between the two timed steps and are in neither.
"""

import time

start = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import singext  # noqa: E402,F401

import_s = time.perf_counter() - start

import json  # noqa: E402

sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402

start = time.perf_counter()
workloads.build_models(sys.argv[1], int(sys.argv[2]))
build_s = time.perf_counter() - start
print(json.dumps({"import_s": import_s, "build_s": build_s}))
