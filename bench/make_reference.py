"""Regenerate ``reference.json``: the totals of every record that any
benchmark seed can produce, one entry per record key.

    python3 bench/make_reference.py

Run it only at a commit whose results are trusted; the benchmark compares
every later pass against these values.
"""
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402


def main():
    reference = {}
    for name, (_, pool, per_pass) in workloads.WORKLOADS.items():
        totals = {}
        seeds = list(range(pool))
        for i in range(0, pool, per_pass):
            with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
                cfg = Path(tmp) / "config.json"
                cfg.write_text(json.dumps(
                    workloads.config_doc(name, seeds[i:i + per_pass])))
                p = workloads.Pass(name, cfg, Path(tmp) / "out")
                if p.run() != 0:
                    raise SystemExit(f"{name}: a reference pass failed")
                records = p.records()
            own = workloads.reference_totals(records)
            failing = workloads.failed_records(records, own, 1e-8, 1e-9)
            if failing:
                raise SystemExit(f"{name}: failing records {failing}")
            totals.update(own)
        reference[name] = dict(sorted(totals.items()))
        print(f"{name}: {len(totals)} records", file=sys.stderr)
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
