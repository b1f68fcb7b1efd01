"""Import paircodes and build every code of a workload, then exit.

run.py times this script in fresh interpreters for ``setup_s``:

    python3 certbench/build_codes.py WORKLOAD SEED
"""

import signal
import sys
from pathlib import Path

# run.py waits without a timeout, so that its clock reads the exit at
# once instead of polling for it; this bounds a hung build instead
signal.alarm(60)
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

for item in workloads.make_items(sys.argv[1], int(sys.argv[2])):
    item.build()
