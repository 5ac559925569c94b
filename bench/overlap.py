"""Wall time of the root bridge and of ``diagnose`` at full spectral overlap,
for a parent and a change, written to a BENCH_*.json.

    python3 bench/overlap.py --parent REF [--change REF] --out BENCH_name.json
                             [--sizes 8,12,16] [--rounds 6] [--repeat 15]

At full overlap (``b = a``) every eigenvalue is shared, so the pair's shared
block is the whole n^2 x n^2 operator: the case no benchmark workload
reaches, where the least-squares work is largest.  For
each size n the pair is ``a = b = matrix_with_eigenvalues(rng, eigs)`` with
``eigs = random_sector_eigenvalues(rng, n)`` and ``c = rhs_in_range(rng, a,
a)``, drawn from ``default_rng(n)``; both sides draw the same data from
their own ``sylvcert.instances``.  Four operations are timed:

* ``bridge``: ``prepare(a, a, c)`` and ``solve_unipotent_quadratic`` on it;
* ``diagnose``: ``diagnose(a, a, c)``;
* ``diagnose_bridge``: ``diagnose(a, a, c)``, then ``unipotent_bridge_check``
  on its verdict (``sylvcert diagnose --bridge``);
* ``roots``: ``prepare(a, a, c)``, ``solve_unipotent_quadratic`` and
  ``solve_uv_report`` on it (``sylvcert roots``).

Both refs are exported from git (``git archive``, as ``bench/ab.py`` does)
into a temporary directory, removed when the run ends.  Each round runs one
fresh interpreter per side, one BLAS thread each; even rounds run the parent
first, odd rounds the change.  A round records, per size and operation, the
best of ``--repeat`` timed calls after one untimed call.  The summary gives
each side's median and range of those round bests, in milliseconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from ab import export

OPERATIONS = ("bridge", "diagnose", "diagnose_bridge", "roots")

# run by each side's interpreter on its own sources; prints one JSON object
CHILD = """
import json, sys, time
import numpy as np
from sylvcert.instances import matrix_with_eigenvalues, random_sector_eigenvalues, rhs_in_range
from sylvcert.roots import solve_unipotent_quadratic, unipotent_bridge_check
from sylvcert.singular import diagnose, prepare, solve_uv_report

sizes, repeat = json.loads(sys.argv[1]), int(sys.argv[2])


def best(call):
    call()
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return min(times) * 1e3


def roots_command(a, c):
    p = prepare(a, a, c)
    solve_unipotent_quadratic(p)
    solve_uv_report(p)


out = {}
for n in sizes:
    rng = np.random.default_rng(n)
    a = matrix_with_eigenvalues(rng, random_sector_eigenvalues(rng, n))
    c = rhs_in_range(rng, a, a)
    out[str(n)] = {
        "bridge": best(lambda: solve_unipotent_quadratic(prepare(a, a, c))),
        "diagnose": best(lambda: diagnose(a, a, c)),
        "diagnose_bridge": best(lambda: unipotent_bridge_check(diagnose(a, a, c))),
        "roots": best(lambda: roots_command(a, c)),
        "status": diagnose(a, a, c).status.value,
        "q_values": len(solve_unipotent_quadratic(prepare(a, a, c)).q_values),
    }
print(json.dumps(out))
"""


def measure(checkout: Path, sizes: list, repeat: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    print(f"{checkout.name}: sizes {sizes}", flush=True)
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(sizes), str(repeat)],
                          cwd=checkout, env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def summarize(rounds: list, sizes: list) -> dict:
    summary = {}
    for n in map(str, sizes):
        entry = {}
        for side in ("parent", "change"):
            first = rounds[0][side][n]
            entry[side] = {"status": first["status"], "q_values": first["q_values"]}
            for operation in OPERATIONS:
                values = [r[side][n][operation] for r in rounds]
                entry[side][operation] = {"median_ms": round(float(np.median(values)), 3),
                                          "min_ms": round(min(values), 3),
                                          "max_ms": round(max(values), 3)}
        summary[n] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--out", required=True)
    parser.add_argument("--sizes", default="8,12,16")
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--repeat", type=int, default=15)
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]

    work = Path(tempfile.mkdtemp(prefix="sylvcert-overlap-"))
    try:
        shas = {"parent": export(args.parent, work / "parent"),
                "change": export(args.change, work / "change")}
        rounds = []
        for index in range(args.rounds):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            rounds.append({side: measure(work / side, sizes, args.repeat) for side in order})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "script": "bench/overlap.py", "parent": shas["parent"], "change": shas["change"],
        "sizes": sizes, "rounds_run": args.rounds, "repeat": args.repeat,
        "blas_threads": 1, "cpus": os.cpu_count(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "summary": summarize(rounds, sizes), "rounds": rounds,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for n, entry in record["summary"].items():
        for operation in OPERATIONS:
            print(f"n=m={n} {operation}: parent {entry['parent'][operation]['median_ms']} ms, "
                  f"change {entry['change'][operation]['median_ms']} ms (median of round bests)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
