"""One set-up sample: import traplab from SRC and build every registered scenario.

Usage: python3 perfbench/setup_probe.py SRC
Prints the seconds taken, measured inside this fresh interpreter, then the
seconds of the small reference kernel run right after it (see calibration.py).
"""

import os
import sys
import time

start = time.perf_counter()
src = os.path.abspath(sys.argv[1])
sys.path.insert(0, src)
import traplab  # noqa: E402
from traplab.scenarios import build_scenario, scenario_names  # noqa: E402

if not os.path.abspath(traplab.__file__).startswith(src + os.sep):
    sys.exit(f"traplab was imported from {traplab.__file__}, not from {src}")
for name in scenario_names():
    build_scenario(name)
setup_s = time.perf_counter() - start

import calibration  # noqa: E402  (after the timed part: its matrix is not set-up)

calibration.SMALL.seconds()  # warm-up
print(repr(setup_s), repr(calibration.SMALL.seconds()))
