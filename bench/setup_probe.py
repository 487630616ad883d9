"""Time one cold set-up of simpson3; print it and the Python loop's time.

    python3 bench/setup_probe.py SRC_DIR [MODULE ...]

Set-up is ``import simpson3``, building the catalog, and importing the
modules a workload loads lazily (the scipy parts).  The benchmark runs this
in fresh processes so that every sample starts cold.  The second number is
the Python reference loop's time around the set-up: the geometric mean of
its median of three runs right before and right after.
"""

import importlib
import statistics
import sys
import time

from calibration import python_loop

before = statistics.median(python_loop() for _ in range(3))
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import simpson3  # noqa: E402

simpson3.get_catalog()
for module in sys.argv[2:]:
    importlib.import_module(module)
setup_s = time.perf_counter() - start
after = statistics.median(python_loop() for _ in range(3))

print(setup_s, (before * after) ** 0.5)
