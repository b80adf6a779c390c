"""Stand-in for the console-script entry point in the traced cli workload.

Runs ``cayley_potts.cli.main`` exactly as ``run()`` does, and records when
the interpreter reached this script, how long importing the CLI took and
how long ``main`` ran.  The record is written to stderr after everything
else, on one line prefixed ``PERFBENCH ``, so stdout stays byte-for-byte
what the entry point prints.
"""

import json
import sys
import time

started = time.monotonic()
t0 = time.perf_counter()
from cayley_potts import cli  # noqa: E402  (the import is what is timed)

t1 = time.perf_counter()
code = cli.main(sys.argv[1:])
t2 = time.perf_counter()
sys.stdout.flush()
sys.stderr.write("PERFBENCH " + json.dumps({
    "sub": sys.argv[1] if len(sys.argv) > 1 else "",
    "started": started, "import_s": t1 - t0, "main_s": t2 - t1}) + "\n")
raise SystemExit(code)
