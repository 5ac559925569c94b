#!/usr/bin/env python3
"""Run every workload once and print the end-to-end metrics, one row each.

    python3 perfbench/table.py --seed 1 --seconds 35

Each workload runs in its own process (``run.py``), so ``peak_rss_mb`` is
per workload.  Percentiles carry their sample count; ``failed_frac``,
``refused_frac`` and ``ill_conditioned_frac`` come from the run record.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORK  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COLUMNS = ("verdicts_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb", "setup_s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    args = parser.parse_args(argv)

    rows = []
    for workload in WORKLOADS:
        subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                        "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--trace", "0"], check=True, stdout=subprocess.DEVNULL)
        path = WORK / f"result-{workload}-seed{args.seed}-trace0.json"
        rows.append(json.loads(path.read_text(encoding="utf-8")))

    units = rows[0]["metrics"]
    header = ["workload"] + [f"{c} [{units[c]['unit']}]" for c in COLUMNS] \
        + ["failed_frac", "refused_frac", "ill_conditioned_frac", "correct"]
    print(" | ".join(header))
    for row in rows:
        cells = [row["workload"]]
        for column in COLUMNS:
            value = f"{row['metrics'][column]['value']:.4g}"
            if column.startswith("latency_"):
                value += f" (n={row['latency_samples']})"
            cells.append(value)
        # bridge never calls diagnose, so it has no ill_conditioned verdicts
        ill = "n/a" if row["workload"] == "bridge" else f"{row['ill_conditioned_frac']:.4f}"
        cells += [f"{row['failed_frac']:.4f}", f"{row['refused_frac']:.4f}", ill,
                  str(row["correct"])]
        print(" | ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
