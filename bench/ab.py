"""Alternating parent/change pairs of perfbench/run.py, written to a BENCH_*.json.

    python3 bench/ab.py --parent REF [--change REF] --out BENCH_name.json [--note TEXT]

Both refs are exported from git (``git archive``) into a temporary directory,
so each side runs its own committed sources and its own committed perfbench,
and the repository itself is left untouched; the directory is removed when
the run ends.  For every seed in SEEDS, and every workload of the change's
BENCHMARK.json within it, one pair runs the two sides one after the other
for the benchmark's ``run_seconds``; even pairs run the parent first, odd
pairs the change.  Then each side makes one traced run (``--trace 1``) on
TRACED_SEED.

The summary gives, per end-to-end metric of BENCHMARK.json (read from the
change), each side's median and quartiles (numpy linear percentiles), the
pairs the change wins (ties count for neither), the ratio of the medians,
the change's relative worsening against the metric's bound, whether the
medians differ by more than the parent's interquartile range, and whether
the rule for claiming a gain is met (``gain_rule_met``): the change wins at
least nine tenths of the pairs and its median is further from the parent's
than the parent's interquartile range.

A perfbench run that exits non-zero ends the measurement: the file still
gets every pair and traced run made before it, the failing run is named
under ``failed_run`` (side, workload, seed, trace, exit code), only a
workload with a pair for every seed gets a summary, and the script exits 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PAIR_KEYS = ("correct", "attempted", "failed")
SEEDS = range(411, 421)
TRACED_SEED = 101


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(ref: str, directory: Path) -> str:
    """Extract the tree of ``ref`` into ``directory``; returns its full sha."""
    sha = git("rev-parse", "--verify", f"{ref}^{{commit}}")
    directory.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive, check=True)
    return sha


class RunFailed(Exception):
    """A perfbench run exited non-zero; its one argument names the run."""


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``checkout``; returns the record it wrote."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    print(f"{checkout.name}: {' '.join(command[1:])}", flush=True)
    code = subprocess.run(command, cwd=checkout, stdout=subprocess.DEVNULL).returncode
    if code != 0:
        raise RunFailed({"side": checkout.name, "workload": workload, "seed": seed,
                         "trace": trace, "exit_code": code})
    result = checkout / ".perfbench_work" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(result.read_text(encoding="utf-8"))


def pair_entry(record: dict, metrics: list) -> dict:
    entry = {name: round(record["metrics"][name]["value"], 6) for name in metrics}
    entry.update({key: record[key] for key in PAIR_KEYS})
    return entry


def spread(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 6), "q1": round(float(q1), 6),
            "q3": round(float(q3), 6), "iqr": round(float(q3 - q1), 6)}


def summarize(pairs: list, end_to_end: list) -> dict:
    summary = {}
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        sides = {"parent": spread(parent), "change": spread(change)}
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        ratio = sides["change"]["median"] / sides["parent"]["median"]
        apart = abs(sides["change"]["median"] - sides["parent"]["median"]) > sides["parent"]["iqr"]
        summary[name] = {
            **sides,
            "change_wins": f"{wins}/{len(pairs)}",
            "median_ratio_change_over_parent": round(ratio, 4),
            "relative_worsening": round(1.0 - ratio if higher else ratio - 1.0, 4),
            "bound": metric["bound"],
            "medians_differ_by_more_than_parent_iqr": apart,
            "gain_rule_met": 10 * wins >= 9 * len(pairs) and apart,
        }
    summary["failed_total"] = {side: sum(pair[side]["failed"] for pair in pairs)
                               for side in ("parent", "change")}
    summary["all_correct"] = all(pair[side]["correct"] for pair in pairs
                                 for side in ("parent", "change"))
    return summary


def traced_entry(record: dict, sha: str) -> dict:
    return {"git_sha": sha,
            "metrics": {k: round(v["value"], 6) for k, v in record["metrics"].items()},
            "named_times_ms": record["named_times"], "per_function": record["per_function"],
            "failed": record["failed"], "verdict_mismatches": record["verdict_mismatches"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--change", default="HEAD", help="git ref of the change (HEAD)")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_*.json to write")
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)

    workdir = Path(tempfile.mkdtemp(prefix="sylvcert-ab-"))
    try:
        doc = measure(workdir, args.parent, args.change)
    finally:
        shutil.rmtree(workdir)
    doc["note"] = args.note
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    if doc["failed_run"] is not None:
        print(f"failed run: {doc['failed_run']}", file=sys.stderr)
        return 1
    return 0


def measure(workdir: Path, parent: str, change: str) -> dict:
    """The pairs, summaries and traced runs of the two refs, exported into
    ``workdir``."""
    checkouts = {"parent": workdir / "parent", "change": workdir / "change"}
    shas = {side: export(ref, checkouts[side])
            for side, ref in (("parent", parent), ("change", change))}
    benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [metric["name"] for metric in benchmark["end_to_end"]]
    seconds = benchmark["run_seconds"]

    pairs = {workload["name"]: [] for workload in benchmark["workloads"]}
    traced = {}
    environment = failed_run = None
    try:
        for index, seed in enumerate(SEEDS):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            for workload in pairs:
                records = {side: run(checkouts[side], workload, seed, seconds, 0)
                           for side in order}
                environment = records["change"]["environment"]
                pairs[workload].append({"seed": seed, "first": order[0],
                                        **{side: pair_entry(records[side], names)
                                           for side in ("parent", "change")}})
        for workload in pairs:
            traced[workload] = {
                side: traced_entry(run(checkouts[side], workload, TRACED_SEED, seconds, 1),
                                   shas[side])
                for side in ("parent", "change")}
    except RunFailed as exc:
        # keep what was measured before it
        failed_run = exc.args[0]
    workloads = {}
    for workload, runs in pairs.items():
        entry = workloads[workload] = {"pairs": runs}
        if len(runs) == len(SEEDS):  # a cut-short workload gets no summary
            entry["summary"] = summarize(runs, benchmark["end_to_end"])
            for name in names:
                s = entry["summary"][name]
                print(f"{workload:<12} {name:<16} parent {s['parent']['median']:>10.4g} "
                      f"change {s['change']['median']:>10.4g} wins {s['change_wins']} "
                      f"worsening {s['relative_worsening']:+.4f} (bound {s['bound']}) "
                      f"gain rule {'met' if s['gain_rule_met'] else 'not met'}")
        if workload in traced:
            entry[f"traced_seed{TRACED_SEED}"] = traced[workload]

    return {
        "what": (f"{len(SEEDS)} alternating parent/change pairs of perfbench/run.py per "
                 f"workload, --seconds {seconds:g} --trace 0, one seed per pair "
                 f"({SEEDS[0]}-{SEEDS[-1]}; even pairs run the parent first); then one traced "
                 f"run per side, seed {TRACED_SEED}, --trace 1. summary gives each side's "
                 "median and quartiles (numpy linear percentiles) over the seeds, the pairs "
                 "the change wins, and the change's relative worsening against the "
                 "benchmark's bound"
                 + ("" if failed_run is None else
                    f"; cut short by failed_run: a workload with fewer than {len(SEEDS)} "
                    "pairs gets no summary")),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                   "--trace 0",
        "parent_sha": shas["parent"],
        "change_sha": shas["change"],
        "workloads": workloads,
        "environment": environment,
        "failed_run": failed_run,
    }

if __name__ == "__main__":
    sys.exit(main())
