#!/usr/bin/env python3
"""sylvcert benchmark: time to a correct, certified verdict.

    python3 perfbench/run.py --workload one_cluster --seed 1 --seconds 35 --trace 0

Run from any directory; sylvcert is imported from ``src/`` next to this
directory and nowhere else, so a tree without the sources exits non-zero.

A run sets up ``SETUP_ROUNDS`` times (fresh-interpreter import, instance
generation, problem files, one warm-up operation) and reports the median as
``setup_s``.  It then times whole passes over the generated set, one caller
in a closed loop, and starts no pass that would end after ``--seconds``.
Every operation is judged by the checks in ``workloads.py``.  An instance's
latency is its fastest pass: the host is shared, and a neighbour slows whole
stretches of a run by up to 1.7x, while nothing makes an operation faster
than it is.  ``verdicts_per_s`` is instances over the sum of those latencies
and the latency percentiles are taken over them.

``failed`` in the result counts operations that raised, gave a wrong answer
or ended with neither a verdict nor a declared refusal; refusals the program
declares (CLI exit 4, ``ill_conditioned``, a failed ``checks`` entry) are
counted apart and reported as ``refused_frac``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half with every cross-module call of sylvcert wrapped in a
span (``tracing.py``), checks that both halves give identical verdicts, and
reports the per-layer metrics; times and calls are per operation, flag and
error counts per pass over the generated set, and the tracing overhead is the
drop of traced against untraced verdicts per second.

The last line of stdout is the JSON result.  The full record (environment,
sample counts, failures, and with tracing the per-module table and the spans
of one pass) goes to ``.perfbench_work/`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_ROUNDS = 5

# per-operation times named by the per-module metrics that are zero on some
# workload; they are printed and recorded, not part of the JSON result
NAMED_TIMES = (
    ("singular.solve_uv_report_self_ms", "self_s", "singular.solve_uv_report"),
    ("singular.particular_solution_ms", "inclusive_s", "singular.particular_solution"),
    ("oracle.oracle_solve_ms", "inclusive_s", "oracle.oracle_solve"),
    ("io.load_problem_ms", "inclusive_s", "io.load_problem"),
    ("io.verdict_to_dict_ms", "inclusive_s", "io.verdict_to_dict"),
    ("io.serialize_report_ms", "inclusive_s", "io.serialize_report"),
    ("cli.self_ms", "module_self_s", "cli"),
    ("roots.homogeneous_nullspaces_ms", "inclusive_s", "roots.homogeneous_nullspaces"),
    ("roots.solve_unipotent_quadratic_self_ms", "self_s", "roots.solve_unipotent_quadratic"),
    ("roots.block_roots_ms", "inclusive_s", "roots.block_roots"),
    ("numerics.principal_sqrt_ms", "inclusive_s", "numerics.principal_sqrt"),
    ("blockalg.block_mul_ms", "inclusive_s", "blockalg.block_mul"),
    ("blockalg.block_inverse_ms", "inclusive_s", "blockalg.block_inverse"),
)


def import_sylvcert():
    if not (SRC / "sylvcert" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sylvcert sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import sylvcert
    import sylvcert.cli
    import sylvcert.instances
    if Path(sylvcert.__file__).resolve().parent != SRC / "sylvcert":
        sys.exit(f"perfbench: imported sylvcert from {sylvcert.__file__}, not {SRC}")
    return sylvcert


def child_import_seconds() -> float:
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import sylvcert, sylvcert.cli; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


class Phase:
    """Latencies and outcomes of consecutive whole passes."""

    def __init__(self):
        self.latencies: list = []      # one list per pass, in instance order
        self.passes = 0
        self.keys: list = []           # verdict keys, one list per pass
        self.failed = 0
        self.wrong = 0
        self.refused = 0
        self.ill_conditioned = 0
        self.found = Counter()         # unipotent search on in-range bridge ops
        self.failures = Counter()

    @property
    def attempted(self) -> int:
        return sum(len(p) for p in self.latencies)

    @property
    def instance_latencies(self) -> np.ndarray:
        return np.array(self.latencies).min(axis=0)

    @property
    def verdicts_per_s(self) -> float:
        per_instance = self.instance_latencies
        return len(per_instance) / float(per_instance.sum())

    def record(self, outcome: workloads.Outcome) -> None:
        self.failed += outcome.failed
        self.wrong += outcome.wrong
        self.refused += outcome.refused
        self.ill_conditioned += outcome.ill_conditioned
        if outcome.unipotent_found is not None:
            self.found[outcome.unipotent_found] += 1
        for note in outcome.notes:
            self.failures[note] += 1


def run_passes(instances, op, check, seconds: float, tracer=None) -> Phase:
    phase = Phase()
    start = last = time.perf_counter()
    # a pass is assumed to take as long as the one before it
    while phase.passes == 0 or 2 * time.perf_counter() - last - start <= seconds:
        last = time.perf_counter()
        keys, latencies = [], []
        for inst in instances:
            error = result = None
            with tracer.operation() if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    result = op(inst)
                except Exception as exc:  # counted as a failed operation
                    error = exc
                t1 = time.perf_counter()
            latencies.append(t1 - t0)
            if error is None:
                outcome = check(inst, result)
            else:
                outcome = workloads.Outcome(key=("raised", type(error).__name__), failed=True,
                                            notes=[f"raised {type(error).__name__}"])
            phase.record(outcome)
            keys.append(outcome.key)
        phase.keys.append(keys)
        phase.latencies.append(latencies)
        phase.passes += 1
    return phase


def setup(workload, seed, sylvcert, op, check, workdir):
    """SETUP_ROUNDS full set-ups; the instances of the last one are used."""
    totals, generate_s, prints = [], [], set()
    for _ in range(SETUP_ROUNDS):
        import_s = child_import_seconds()
        t0 = time.perf_counter()
        instances = workloads.generate(workload, seed, sylvcert.instances)
        t1 = time.perf_counter()
        if workload == "cli_small":
            workloads.write_problem_files(instances, workdir)
        run_passes(instances[:1], op, check, 0.0)
        t2 = time.perf_counter()
        totals.append(import_s + t2 - t0)
        generate_s.append(t1 - t0)
        prints.add(hash(workloads.fingerprint(instances)))
    return instances, statistics.median(totals), statistics.median(generate_s), len(prints) == 1


def end_to_end(phase: Phase, setup_s: float) -> dict:
    per_instance = phase.instance_latencies
    return {
        "verdicts_per_s": (phase.verdicts_per_s, "1/s"),
        "latency_p50_ms": (float(np.percentile(per_instance, 50)) * 1e3, "ms"),
        "latency_p90_ms": (float(np.percentile(per_instance, 90)) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(tracer, untraced: Phase, traced: Phase, generate_s: float):
    """(metrics for the JSON result, extra named times, full per-module table)."""
    s = tracer.summary()
    ops, passes = tracer.ops, traced.passes

    def ms(kind, key):
        return 1e3 * s[kind].get(key, 0.0) / ops

    def calls(key):
        return s["calls"].get(key, 0) / ops

    shapes = tracer.lstsq_shapes
    in_range = traced.found[True] + traced.found[False]
    metrics = {
        "numerics.lstsq_solve_ms": (ms("inclusive_s", "numerics.lstsq_solve"), "ms"),
        "numerics.lstsq_solve.calls": (calls("numerics.lstsq_solve"), "count"),
        "numerics.lstsq_solve.unknowns": (sum(c for _, _, c in shapes) / ops, "count"),
        "numerics.lstsq_solve.gflop": (sum(tracing.svd_gflop(r, c) for _, r, c in shapes) / ops,
                                       "GFLOP"),
        "numerics.lstsq_solve.operator_mb": (max((r * c * 16 for _, r, c in shapes), default=0)
                                             / 1e6, "MB"),
        "numerics.eigenvalues_ms": (ms("inclusive_s", "numerics.eigenvalues"), "ms"),
        "regular.companion_solve_direct_ms": (ms("inclusive_s", "regular.companion_solve_direct"),
                                              "ms"),
        "regular.companion_solve_direct.calls": (calls("regular.companion_solve_direct"), "count"),
        "regular.compute_offset_ms": (ms("inclusive_s", "regular.compute_offset"), "ms"),
        "gate.prepare_self_ms": (ms("self_s", "singular.prepare"), "ms"),
        "singular.marginal.count": (tracer.uv_flags["marginal"] / passes, "count"),
        "singular.near_cutoff.count": (tracer.uv_flags["near_cutoff"] / passes, "count"),
        "oracle.oracle_solve.calls": (calls("oracle.oracle_solve"), "count"),
        "blockalg.block_mul.calls": (calls("blockalg.block_mul"), "count"),
        "io.report_kb": (tracer.report_bytes / 1024.0 / ops, "KiB"),
        "roots.unipotent_found_frac": (traced.found[True] / in_range if in_range else 0.0,
                                       "ratio"),
        "instances.generate_s": (generate_s, "s"),
        "trace.overhead_frac": (1.0 - traced.verdicts_per_s / untraced.verdicts_per_s, "ratio"),
    }
    for module in ("gate", "numerics", "regular", "singular"):
        metrics[f"{module}.self_ms"] = (ms("module_self_s", module), "ms")
    for module in tracing.MODULES:
        metrics[f"{module}.errors"] = (tracer.errors[module] / passes, "count")
    named = {name: (ms(kind, key), "ms") for name, kind, key in NAMED_TIMES}
    table = {name: {"calls_per_op": calls(name), "inclusive_ms": ms("inclusive_s", name),
                    "self_ms": ms("self_s", name)}
             for name in sorted(s["calls"])}
    table.update({f"{m}.self_ms": ms("module_self_s", m) for m in sorted(s["module_self_s"])})
    return metrics, named, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sylvcert = import_sylvcert()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    with open(os.devnull, "w") as devnull:
        try:
            op, check = workloads.operation(args.workload, sylvcert, devnull)
            instances, setup_s, generate_s, same_inputs = setup(
                args.workload, args.seed, sylvcert, op, check, workdir)
            record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "environment": environment(),
                      "instances": len(instances)}
            if args.trace:
                untraced = run_passes(instances, op, check, args.seconds / 2)
                tracer = tracing.Tracer()
                with tracer.installed():
                    phase = run_passes(instances, op, check, args.seconds / 2, tracer)
                phases = (untraced, phase)
            else:
                phase = run_passes(instances, op, check, args.seconds)
                phases = (phase,)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    # every pass, traced or not, must reproduce the first pass's verdicts
    reference = phases[0].keys[0]
    mismatches = sum(k != r for p in phases for keys in p.keys for k, r in zip(keys, reference))
    if args.trace:
        metrics, named, table = per_layer(tracer, untraced, phase, generate_s)
        metrics["trace.verdict_mismatches"] = (float(mismatches), "count")
        first_pass = [span for span in tracer.spans if span[4] < len(instances)]
        record.update(named_times=named, per_function=table, spans_first_pass=first_pass)
    else:
        metrics = end_to_end(phase, setup_s)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    wrong = sum(p.wrong for p in phases)
    refused = sum(p.refused for p in phases)
    ill = sum(p.ill_conditioned for p in phases)
    if args.trace:
        metrics["refused_frac"] = (refused / attempted, "ratio")
    correct = wrong == 0 and mismatches == 0 and same_inputs
    failures = sum((p.failures for p in phases), Counter())
    record.update(
        correct=correct, attempted=attempted, failed=failed, wrong=wrong,
        failed_frac=failed / attempted, refused_frac=refused / attempted,
        ill_conditioned_frac=ill / attempted,
        verdict_mismatches=mismatches, same_inputs_each_setup=same_inputs,
        passes=[p.passes for p in phases],
        latency_samples=f"{len(instances)} instances x {phase.passes} passes",
        failures=dict(failures),
        latency_ms_by_pass=[[round(t * 1e3, 4) for t in p] for p in phase.latencies],
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")

    print(f"environment: {json.dumps(record['environment'])}")
    print(f"{args.workload} seed={args.seed} passes={record['passes']} attempted={attempted} "
          f"failed={failed} (failed_frac={failed / attempted:.4f}) wrong={wrong} "
          f"refused={refused} (refused_frac={refused / attempted:.4f}, "
          f"ill_conditioned_frac={ill / attempted:.4f}) "
          f"verdict_mismatches={mismatches}")
    for note, count in sorted(failures.items()):
        print(f"  failed or refused: {note} x{count}")
    for name, (value, unit) in metrics.items():
        samples = f"  (n={record['latency_samples']})" if name.startswith("latency_") else ""
        print(f"  {name:<40} {value:>14.6g} {unit}{samples}")
    if args.trace:
        for name, (value, unit) in named.items():
            if value:
                print(f"  {name:<40} {value:>14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
