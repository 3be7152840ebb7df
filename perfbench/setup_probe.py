"""One set-up measurement, run as a fresh process by run.py.

Reads the workload's problem dicts as JSON on stdin, imports ltivp (found
through PYTHONPATH, which run.py points at the checkout's src/), parses every
problem with `parse_problem`, and prints the CLOCK_MONOTONIC time at which it
was ready together with the file ltivp was imported from.  run.py subtracts
the time at which it started this process.
"""

import json
import sys
import time

problems = json.load(sys.stdin)

import ltivp  # noqa: E402
from ltivp.problemfile import parse_problem  # noqa: E402

for data in problems:
    parse_problem(data)
print(json.dumps({"ready": time.clock_gettime(time.CLOCK_MONOTONIC), "ltivp": ltivp.__file__}))
