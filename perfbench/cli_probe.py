"""Traced stand-in for `python -m ltivp.cli SUBCOMMAND FILE`.

usage: cli_probe.py OUT.json SUBCOMMAND FILE

Runs the CLI's `main` in this fresh interpreter and writes to OUT.json the
time taken by `import ltivp.cli`, by each `load_problem` call (wrapped where
the CLI looks it up) and by `main`.  Standard output is the CLI's own.
"""

import json
import sys
import time

out_path, argv = sys.argv[1], sys.argv[2:]
t0 = time.perf_counter()
import ltivp.cli as cli  # noqa: E402

import_s = time.perf_counter() - t0
loads = []
load_problem = getattr(cli, "load_problem", None)
if load_problem is not None:

    def timed_load_problem(path):
        t = time.perf_counter()
        try:
            return load_problem(path)
        finally:
            loads.append(time.perf_counter() - t)

    cli.load_problem = timed_load_problem
t1 = time.perf_counter()
rc = cli.main(argv)
main_s = time.perf_counter() - t1
sys.stdout.flush()
with open(out_path, "w") as fh:
    json.dump({"import_s": import_s, "main_s": main_s, "load_s": loads if load_problem else None}, fh)
sys.exit(rc)
