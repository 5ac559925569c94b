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
outcome key, flags and notes, the number of quadratic solutions and the
search's notes.  The 8 corpus files then run through ``sylvcert diagnose
--oracle --quadrature --bridge``, recording the exit code, the status, each
check's status and every key path of the report.

Records are compared field by field, after checking that both sides drew
the same instances.  The script prints every mismatch and the largest
relative change of a diagnose certificate residual (the residuals are
rounding-level numbers, so only their size is reported), and exits 1 on any
mismatch.
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
CORPUS_FLAGS = ("--oracle", "--quadrature", "--bridge")


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


def _bridge_record(sylvcert, workloads, inst) -> dict:
    p = sylvcert.prepare(inst.a, inst.b, inst.c)
    x_basis, y_basis = sylvcert.homogeneous_nullspaces(p)
    triple = sylvcert.homogeneous_equivalence(p)
    quad = sylvcert.solve_unipotent_quadratic(p)
    outcome = workloads.check_bridge(inst, (p, x_basis, y_basis, triple, quad.q_values))
    return {"gate": _gate(p), "cluster_sizes": _cluster_sizes(p),
            "outcome": [repr(outcome.key), outcome.failed, outcome.refused, outcome.notes],
            "y_solutions": len(quad.y_solutions), "notes": quad.notes}


def _key_paths(doc, prefix: str = "") -> list:
    if not isinstance(doc, dict):
        return [prefix]
    return [path for key, value in doc.items() for path in _key_paths(value, f"{prefix}/{key}")]


def record(checkout: str, seeds: list, out: str) -> None:
    """Run in a child interpreter whose path leads with ``checkout``'s
    ``src`` and ``perfbench``: write that side's records to ``out``."""
    import sylvcert
    import sylvcert.cli
    import sylvcert.instances
    import workloads

    if not Path(sylvcert.__file__).resolve().is_relative_to(Path(checkout).resolve()):
        sys.exit(f"parity: imported sylvcert from {sylvcert.__file__}, not {checkout}")
    doc = {"instances": {}, "operations": {}, "corpus": {}}
    for workload in WORKLOADS:
        for seed in seeds:
            instances = workloads.generate(workload, seed, sylvcert.instances)
            key = f"{workload}/{seed}"
            doc["instances"][key] = hashlib.sha256(workloads.fingerprint(instances)).hexdigest()
            for index, inst in enumerate(instances):
                doc["operations"][f"{key}/{index:03d}"] = (
                    _bridge_record(sylvcert, workloads, inst) if workload == "bridge" else
                    _diagnose_record(sylvcert, inst, with_oracle=workload == "cli_small"))
    with tempfile.TemporaryDirectory() as scratch:
        report = Path(scratch) / "report.json"
        for path in sorted((Path(checkout) / "corpus").glob("*.json")):
            report.unlink(missing_ok=True)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = sylvcert.cli.main(["diagnose", str(path), *CORPUS_FLAGS,
                                          "-o", str(report)])
            entry = {"exit_code": code}
            if report.exists():
                report_doc = json.loads(report.read_text(encoding="utf-8"))
                entry.update(status=report_doc["verdict"]["status"],
                             checks={name: check["status"]
                                     for name, check in report_doc["checks"].items()},
                             keys=_key_paths(report_doc))
            doc["corpus"][path.name] = entry
    Path(out).write_text(json.dumps(doc), encoding="utf-8")


def run_side(checkout: Path, seeds: list) -> dict:
    out = checkout / "parity.json"
    path = [str(checkout / "src"), str(checkout / "perfbench")]
    code = (f"import sys; sys.path[:0] = {path!r}; "
            f"sys.path.append({str(Path(__file__).resolve().parent)!r}); import parity; "
            f"parity.record({str(checkout)!r}, {seeds!r}, {str(out)!r})")
    print(f"{checkout.name}: recording seeds {seeds[0]}-{seeds[-1]}", flush=True)
    subprocess.run([sys.executable, "-c", code], cwd=checkout, check=True)
    return json.loads(out.read_text(encoding="utf-8"))


def compare(parent: dict, change: dict) -> tuple:
    """(mismatches, largest relative certificate-residual change, the
    operation it was seen on)."""
    mismatches = [f"instances {key}: the sides drew different instances"
                  for key in sorted(parent["instances"].keys() | change["instances"].keys())
                  if parent["instances"].get(key) != change["instances"].get(key)]
    drift, where = 0.0, None
    for section in ("operations", "corpus"):
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
                    mismatches.append(f"{section} {key} {field}: parent {old.get(field)!r}, "
                                      f"change {new.get(field)!r}")
            if r_old is not None and r_new is not None and r_old != r_new:
                relative = abs(r_new - r_old) / max(abs(r_old), 1e-300)
                if relative > drift:
                    drift, where = relative, key
    return mismatches, drift, where


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
        sides = {}
        for side, ref in (("parent", args.parent), ("change", args.change)):
            sha = export(ref, workdir / side)
            print(f"{side}: {ref} = {sha}")
            sides[side] = run_side(workdir / side, args.seeds)
    finally:
        shutil.rmtree(workdir)
    mismatches, drift, where = compare(sides["parent"], sides["change"])
    for line in mismatches:
        print(f"MISMATCH {line}")
    print(f"{len(sides['change']['operations'])} operations and "
          f"{len(sides['change']['corpus'])} corpus files compared: "
          f"{len(mismatches)} mismatches")
    print(f"largest relative change of a certificate residual: {drift:.3g}"
          + (f" ({where})" if where else ""))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
