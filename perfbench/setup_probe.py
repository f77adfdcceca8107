"""Set-up probe: what a fresh interpreter pays before its first request.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Imports the package and its CLI, loads the request pool and builds the
seeded stream, then prints one "ready" line.  run.py times it from spawn to
that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports shifted_kschur and its CLI)

pool = workloads.load_pool(sys.argv[1])["requests"]
first = pool[workloads.pass_order(len(pool), int(sys.argv[2]), 0)[0]]
print("ready", first["id"], flush=True)
