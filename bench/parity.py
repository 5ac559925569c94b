"""Verdict parity of two commits on the benchmark's instances and the corpus.

    python3 bench/parity.py --parent REF [--change REF] [--seeds 101-110]

Both refs are exported from git (``git archive``, as ``bench/ab.py`` does)
into a temporary directory, removed when the run ends.  Each side runs in
its own interpreter on its own sources and its own ``perfbench/workloads.py``
and records, for every seed and every operation:

* ``one_cluster``: ``diagnose(a, b, c)``, the operation the workload times;
* ``cli_small``: ``diagnose(a, b, c, with_oracle=True)``;
* ``bridge``: the workload's operation (prepare, both intertwiner bases, the
  homogeneous equivalence, the unipotent root search).

A diagnose record holds the status, the refusing gate, the gate's sector and
intersection answers, each check's status and the cluster sizes; a bridge
record holds the gate's answers, the cluster sizes, the workload check's
outcome key, flags and notes, the number of quadratic solutions, the
search's notes, and SHA-256 digests of the search's branch roots, of its q
values and of its solutions Y.  The digest of Y is taken of ``Y + 0.0``,
which maps -0.0 to +0.0: a zero's sign no report prints may change, any
other bit of a root-search result is compared on every operation.  The
digested arrays themselves are kept in a compressed ``parity.npz`` beside
each side's ``parity.json``, so a digest mismatch can be sized.

Then each side runs the CLI in process, with ``-o``, on one shared copy of
the files, so both name the same paths on stdout:

* every file of the change's ``corpus`` through ``diagnose``, ``diagnose
  --oracle --quadrature --bridge``, ``homogeneous`` and ``roots``;
* the corpus directory through ``batch`` and ``batch --oracle``;
* the first seed's ``cli_small`` problem files, as perfbench writes them,
  through ``diagnose --oracle``.

A CLI record holds the exit code (or the exception that escaped), stdout,
stderr and the report text without its ``generated_at`` line.

Records are compared field by field, CLI records byte for byte, after
checking that both sides drew the same instances.  The script prints every
mismatch (for text, its first differing line; for a digest whose arrays have
the same shape on both sides, the relative change ||new - old|| / ||old||
of the arrays), the largest relative change of a diagnose certificate
residual (the residuals are rounding-level numbers, so only their size is
reported) and of each digested bridge array, and exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from ab import export

WORKLOADS = ("one_cluster", "cli_small", "bridge")
# the arrays of a bridge record that are digested, each kept in parity.npz
BRIDGE_ARRAYS = ("base_roots", "q_values", "y_solutions")
# the runs of each corpus file, and of the corpus directory
FILE_RUNS = (("diagnose",), ("diagnose", "--oracle", "--quadrature", "--bridge"),
             ("homogeneous",), ("roots",))
DIRECTORY_RUNS = (("batch",), ("batch", "--oracle"))


def _gate(p) -> list:
    return [p.gate.in_sector_a, p.gate.in_sector_b, p.gate.spectra_intersect]


def _cluster_sizes(p) -> list:
    # a cluster's first two entries are its sizes, or the masks that count them
    return [int(np.sum(k)) for k in p.cluster[:2]]


def _diagnose_record(sylvcert, inst, with_oracle: bool) -> dict:
    verdict = sylvcert.diagnose(inst.a, inst.b, inst.c, with_oracle=with_oracle)
    return {"status": verdict.status.value, "refused_at": verdict.ill_conditioned_gate,
            "gate": _gate(verdict.problem),
            "checks": {name: entry["status"] for name, entry in verdict.checks.items()},
            "cluster_sizes": None if verdict.cluster_sizes is None
            else list(verdict.cluster_sizes),
            "certificate_residual": float(verdict.certificate_residual)}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for x in arrays:
        h.update(np.ascontiguousarray(x).tobytes())
    return h.hexdigest()


def _bridge_record(sylvcert, workloads, inst) -> tuple:
    """The record of one bridge operation, and the arrays it digests."""
    p = sylvcert.prepare(inst.a, inst.b, inst.c)
    x_basis, y_basis = sylvcert.homogeneous_nullspaces(p)
    triple = sylvcert.homogeneous_equivalence(p)
    quad = sylvcert.solve_unipotent_quadratic(p)
    outcome = workloads.check_bridge(inst, (p, x_basis, y_basis, triple, quad.q_values))
    arrays = dict(zip(BRIDGE_ARRAYS, (
        quad.base_roots,
        np.array(quad.q_values, dtype=np.complex128).reshape(-1, p.n, p.m),
        quad.y_solutions + 0.0)))
    record = {"gate": _gate(p), "cluster_sizes": _cluster_sizes(p),
              "outcome": [repr(outcome.key), outcome.failed, outcome.refused, outcome.notes],
              "y_solutions": len(quad.y_solutions), "notes": quad.notes,
              **{f"{name}_sha256": _digest(x) for name, x in arrays.items()}}
    return record, arrays


def _cli_record(main, argv: list, report: Path) -> dict:
    """One in-process CLI run writing its report to ``report``."""
    report.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main([*argv, "-o", str(report)])
        except Exception as exc:  # a traceback at either side is a result to compare
            code = f"raised {type(exc).__name__}: {exc}"
    text = report.read_text(encoding="utf-8") if report.exists() else None
    if text is not None:
        text = "".join(line for line in text.splitlines(keepends=True)
                       if not line.startswith('  "generated_at": '))
    return {"exit_code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "report": text}


def record(checkout: str, seeds: list, files: str, out: str) -> None:
    """Run in a child interpreter whose path leads with ``checkout``'s
    ``src`` and ``perfbench``: write that side's records to ``out``.  The
    CLI runs read and write under ``files``, which holds the corpus."""
    import sylvcert
    import sylvcert.cli
    import sylvcert.instances
    import workloads

    if not Path(sylvcert.__file__).resolve().is_relative_to(Path(checkout).resolve()):
        sys.exit(f"parity: imported sylvcert from {sylvcert.__file__}, not {checkout}")
    doc = {"instances": {}, "operations": {}, "cli": {}}
    arrays = {}
    for workload in WORKLOADS:
        for seed in seeds:
            instances = workloads.generate(workload, seed, sylvcert.instances)
            key = f"{workload}/{seed}"
            doc["instances"][key] = hashlib.sha256(workloads.fingerprint(instances)).hexdigest()
            for index, inst in enumerate(instances):
                operation = f"{key}/{index:03d}"
                if workload == "bridge":
                    doc["operations"][operation], digested = _bridge_record(
                        sylvcert, workloads, inst)
                    arrays.update({f"{operation}/{name}": x for name, x in digested.items()})
                else:
                    doc["operations"][operation] = _diagnose_record(
                        sylvcert, inst, with_oracle=workload == "cli_small")
    np.savez_compressed(Path(out).with_suffix(".npz"), **arrays)
    files = Path(files)
    corpus, report = files / "corpus", files / "report.json"
    runs = [[*argv, str(path)] for path in sorted(corpus.glob("*.json")) for argv in FILE_RUNS]
    runs += [[*argv, str(corpus)] for argv in DIRECTORY_RUNS]
    # both sides write the same bytes here: the instances are compared too
    cli_small = workloads.generate("cli_small", seeds[0], sylvcert.instances)
    workloads.write_problem_files(cli_small, files / "cli_small")
    runs += [["diagnose", str(inst.path), "--oracle"] for inst in cli_small]
    for argv in runs:
        key = " ".join(argv).replace(f"{files}/", "")
        doc["cli"][key] = _cli_record(sylvcert.cli.main, argv, report)
    Path(out).write_text(json.dumps(doc), encoding="utf-8")


def run_side(checkout: Path, seeds: list, files: Path) -> tuple:
    """That side's records, and its digested bridge arrays by operation and
    name."""
    out = checkout / "parity.json"
    path = [str(checkout / "src"), str(checkout / "perfbench")]
    code = (f"import sys; sys.path[:0] = {path!r}; "
            f"sys.path.append({str(Path(__file__).resolve().parent)!r}); import parity; "
            f"parity.record({str(checkout)!r}, {seeds!r}, {str(files)!r}, {str(out)!r})")
    print(f"{checkout.name}: recording seeds {seeds[0]}-{seeds[-1]}", flush=True)
    subprocess.run([sys.executable, "-c", code], cwd=checkout, check=True)
    with np.load(out.with_suffix(".npz")) as saved:
        arrays = {name: saved[name] for name in saved.files}
    return json.loads(out.read_text(encoding="utf-8")), arrays


def _difference(old, new) -> str:
    """The two values, or for two texts their first differing line."""
    if isinstance(old, str) and isinstance(new, str):
        old_lines, new_lines = old.splitlines(), new.splitlines()
        line = next((i for i, pair in enumerate(zip(old_lines, new_lines))
                     if pair[0] != pair[1]), min(len(old_lines), len(new_lines)))
        old, new = old_lines[line:line + 1], new_lines[line:line + 1]
        return f"line {line + 1}: parent {old!r}, change {new!r}"
    return f"parent {old!r}, change {new!r}"


def _sized(key: str, field: str, old_arrays: dict, new_arrays: dict) -> tuple:
    """For the digest ``field`` of bridge operation ``key``: the relative
    change of its arrays, or None when their shapes differ, and the text
    that says so."""
    name = f"{key}/{field.removesuffix('_sha256')}"
    old, new = old_arrays[name], new_arrays[name]
    if old.shape != new.shape:
        return None, f"; shapes {old.shape} and {new.shape} differ"
    relative = float(np.linalg.norm(new - old) / max(np.linalg.norm(old), 1e-300))
    return relative, f"; relative change {relative:.3g}"


def compare(parent: dict, change: dict, parent_arrays: dict, change_arrays: dict) -> tuple:
    """(mismatches, {what: (largest relative change, the operation it was
    seen on)}) for the certificate residual and each digested bridge
    array."""
    mismatches = [f"instances {key}: the sides drew different instances"
                  for key in sorted(parent["instances"].keys() | change["instances"].keys())
                  if parent["instances"].get(key) != change["instances"].get(key)]
    drifts = {what: (0.0, None) for what in
              ("a certificate residual", *(f"bridge {name}" for name in BRIDGE_ARRAYS))}
    for section in ("operations", "cli"):
        for key in sorted(parent[section].keys() | change[section].keys()):
            old, new = parent[section].get(key), change[section].get(key)
            if old is None or new is None:
                side = "change" if old is None else "parent"
                mismatches.append(f"{section} {key}: only on the {side}")
                continue
            old, new = dict(old), dict(new)
            r_old = old.pop("certificate_residual", None)
            r_new = new.pop("certificate_residual", None)
            for field in sorted(old.keys() | new.keys()):
                if old.get(field) != new.get(field):
                    line = f"{section} {key} {field}: " + _difference(old.get(field),
                                                                     new.get(field))
                    if field.endswith("_sha256"):
                        relative, text = _sized(key, field, parent_arrays, change_arrays)
                        line += text
                        what = f"bridge {field.removesuffix('_sha256')}"
                        if relative is not None and relative > drifts[what][0]:
                            drifts[what] = relative, key
                    mismatches.append(line)
            if r_old is not None and r_new is not None and r_old != r_new:
                relative = abs(r_new - r_old) / max(abs(r_old), 1e-300)
                if relative > drifts["a certificate residual"][0]:
                    drifts["a certificate residual"] = relative, key
    return mismatches, drifts


def parse_seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--change", default="HEAD", help="git ref of the change (HEAD)")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("101-110"),
                        help="seed range FIRST-LAST of the workloads (101-110)")
    args = parser.parse_args(argv)

    workdir = Path(tempfile.mkdtemp(prefix="sylvcert-parity-"))
    try:
        refs = {"parent": args.parent, "change": args.change}
        for side, ref in refs.items():
            print(f"{side}: {ref} = {export(ref, workdir / side)}")
        files = workdir / "files"
        shutil.copytree(workdir / "change" / "corpus", files / "corpus")
        sides = {side: run_side(workdir / side, args.seeds, files) for side in refs}
    finally:
        shutil.rmtree(workdir)
    (parent, parent_arrays), (change, change_arrays) = sides["parent"], sides["change"]
    mismatches, drifts = compare(parent, change, parent_arrays, change_arrays)
    for line in mismatches:
        print(f"MISMATCH {line}")
    print(f"{len(change['operations'])} operations and {len(change['cli'])} CLI runs "
          f"compared: {len(mismatches)} mismatches")
    for what, (drift, where) in drifts.items():
        print(f"largest relative change of {what}: {drift:.3g}"
              + (f" ({where})" if where else ""))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
