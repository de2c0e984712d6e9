"""Set-up probe, run as its own process by ``run.py``.

Usage: python3 perfbench/probe_setup.py WORKLOAD

Prints the seconds from the start of this script until the workload is
ready: ``glspaths`` (with its CLI) imported from this checkout and every
context of the workload loaded through the CLI's loader, which parses the
matrix file and builds the weight context.  Interpreter start-up comes
before the clock starts and is not counted.
"""

import sys
import time

import guard
from workloads import WORKLOADS

start = time.perf_counter()
glspaths = guard.import_glspaths()
for path, bases in WORKLOADS[sys.argv[1]].contexts:
    glspaths.cli.load_context(path, True, bases)
print(repr(time.perf_counter() - start))
