"""Cold set-up of one workload, timed inside a fresh interpreter.

    python3 bench/setup_probe.py CONFIG.json

Prints the seconds taken to import errbounds from the checkout's ``src/``,
parse the config and finish ``make_case`` for each of its cases.
"""
import time

start = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import errbounds  # noqa: E402

config = errbounds.parse_config(Path(sys.argv[1]).read_text())
for cs in config.cases:
    errbounds.make_case(cs.kind, cs.domain(), cs.solution, f_factor=cs.f_scale)
print(time.perf_counter() - start)
