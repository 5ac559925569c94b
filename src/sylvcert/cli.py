"""Command-line surface.

Subcommands:

* ``diagnose FILE``     solvability verdict with a certified solution
* ``homogeneous FILE``  nullspaces of a x = x b / b y = y a and the
  three-way equivalence report
* ``roots FILE``        block square roots, quadratic-equation solutions and
  unipotent certificates
* ``batch DIR``         one verdict row per problem file in a directory

Every subcommand runs through one pipeline.  :func:`main` checks a given
``--alpha`` and ``--tol``, loads the problem file with the alpha and tol it
is decided at (:func:`_load`: a flag overrides the file option) and calls
the subcommand's ``cmd_*``, which only computes and returns the JSON report,
the summary lines and the exit code.  ``main`` alone writes the report to
``--output``, prints the summary to stdout and maps each error to an exit
code and one ``error:`` line on stderr; ``batch`` maps the error of a file
the same way, into that file's row, and goes on to the next file.

Exit codes: ``diagnose`` 0 solvable, 1 unsolvable, 2 ill-conditioned;
``homogeneous`` and ``roots`` 0; ``batch`` 3 when any row errored, else 0.
On every subcommand: 3 for a path that cannot be read or written, a file
that is no valid problem, or an ``--alpha`` or ``--tol`` out of its file
option's range (checked before any file is read); 4 for an internal fault,
an arithmetic one (``OverflowError``, ``ZeroDivisionError``) included.
Without a verdict the exit code is never 1.

The argument parser is built once per process, on the first :func:`main`
call, and reused: ``parse_args`` keeps no state between calls.  That saves
its build (about 1 ms) only where one process calls ``main(argv)`` many
times, as a program driving the CLI from Python does (the test suite and the
``cli_small`` bench workload are two); the ``sylvcert`` console script calls
``main`` once per process and builds the parser once either way.
"""

from __future__ import annotations

import argparse
import functools
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import io as sio
from .errors import SchemaError, SylvcertError
from .numerics import frob
from .roots import (homogeneous_equivalence, homogeneous_nullspaces,
                    solve_unipotent_quadratic, unipotent_bridge_check)
from .singular import (VerdictStatus, check_entry, diagnose, prepare,
                       solution_from_u, solve_uv_report, unipotent_identity_residual)

EXIT_SOLVABLE = 0
EXIT_UNSOLVABLE = 1
EXIT_ILL_CONDITIONED = 2
EXIT_BAD_INPUT = 3
EXIT_INTERNAL = 4

_STATUS_EXIT = {
    VerdictStatus.SOLVABLE: EXIT_SOLVABLE,
    VerdictStatus.UNSOLVABLE: EXIT_UNSOLVABLE,
    VerdictStatus.ILL_CONDITIONED: EXIT_ILL_CONDITIONED,
}


_FLAGS = {
    "--oracle": {"action": "store_true",
                 "help": "attach the brute-force Kronecker cross-check"},
    "--quadrature": {"action": "store_true",
                     "help": "validate the companion solution via the integral representation"},
    "--bridge": {"action": "store_true",
                 "help": "cross-check the verdict against the unipotent root search"},
    "--seed": {"type": int, "default": None, "help": "seed recorded in the report environment"},
}

# (name, positional argument, help, the flags it reads besides --alpha, --tol and -o)
_SUBCOMMANDS = (
    ("diagnose", "file", "decide solvability and certify a solution",
     ("--oracle", "--quadrature", "--bridge", "--seed")),
    ("homogeneous", "file", "nullspace report for the homogeneous equations", ("--seed",)),
    ("roots", "file", "block square roots and unipotent certificates", ("--seed",)),
    ("batch", "directory", "verdicts for every problem file in a directory", ("--oracle",)),
)

# the homogeneous report's names of the three sides of homogeneous_equivalence
_EQUIVALENCES = ("nonzero_intertwiner", "nonprimary_root", "nontrivial_commutant")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sylvcert",
        description="Solvability verdicts and certified particular solutions "
                    "for the matrix equation a x - x b = c.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, positional, help_text, flags in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument(positional, type=Path)
        p.add_argument("--alpha", type=float, default=None,
                       help="sector half-angle in (0, pi/2); default pi/4 or the file option")
        p.add_argument("--tol", type=float, default=None,
                       help="relative decision tolerance; default 1e-8 or the file option")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--output", "-o", type=Path, default=None,
                       help="write the full JSON report to this path")
    return parser


def _load(args, path) -> tuple:
    """(problem spec, alpha, tol) of the problem file at ``path``: a given
    ``--alpha`` or ``--tol`` overrides the file option."""
    spec = sio.load_problem(path)
    alpha = args.alpha if args.alpha is not None else spec.alpha
    return spec, alpha, args.tol if args.tol is not None else spec.tol


def _environment(problem, tol: float, seed) -> dict:
    return {"alpha": problem.alpha, "shift_lambda": problem.lambda_shift, "tol": tol,
            "seed": seed}


def cmd_diagnose(args, spec, alpha: float, tol: float) -> tuple:
    verdict = diagnose(spec.a, spec.b, spec.c, alpha=alpha, tol=tol,
                       with_oracle=args.oracle,
                       with_quadrature=args.quadrature or spec.method == "quadrature")
    if args.bridge:
        verdict.checks["unipotent_bridge"] = unipotent_bridge_check(verdict, tol)
    lam = verdict.problem.lambda_shift
    lines = [f"{args.file}: {verdict.status.value} "
             f"(residual {verdict.certificate_residual:.3e}, "
             f"threshold {verdict.certificate_threshold:.3e}, shift {lam:g})"]
    if verdict.oracle_agreement is not None:
        lines.append(f"  oracle agreement: {verdict.oracle_agreement}")
    quadrature = verdict.checks["integral_representation"]
    if quadrature["status"] != "skipped":
        lines.append(f"  integral-representation gap: {quadrature['residual']:.3e}")
    return sio.verdict_to_dict(verdict, tol, seed=args.seed), lines, _STATUS_EXIT[verdict.status]


def cmd_homogeneous(args, spec, alpha: float, tol: float) -> tuple:
    problem = prepare(spec.a, spec.b, spec.c, alpha=alpha)
    x_basis, y_basis = homogeneous_nullspaces(problem)
    equivalences, equivalence_status = None, "skipped"
    if problem.gate.spectra_intersect:
        triple = homogeneous_equivalence(problem, tol)
        equivalences = dict(zip(_EQUIVALENCES, triple))
        equivalence_status = "pass" if len(set(triple)) == 1 else "fail"
    doc = {
        "schema_version": sio.SCHEMA_VERSION,
        "nullity": len(x_basis),
        "adjoint_nullity": len(y_basis),
        "basis_samples": [sio.matrix_to_pairs(v) for v in x_basis[:3]],
        "adjoint_basis_samples": [sio.matrix_to_pairs(v) for v in y_basis[:3]],
        "equivalences": equivalences,
        "checks": {"three_way_equivalence": check_entry(equivalence_status)},
        "environment": _environment(problem, tol, args.seed),
    }
    found = " (regular pair)" if equivalences is None else f", equivalences {equivalences}"
    line = f"{args.file}: nullity {len(x_basis)}, adjoint nullity {len(y_basis)}{found}"
    return doc, [line], 0


def cmd_roots(args, spec, alpha: float, tol: float) -> tuple:
    problem = prepare(spec.a, spec.b, spec.c, alpha=alpha)
    quad = solve_unipotent_quadratic(problem, tol=tol)
    rep = solve_uv_report(problem, tol)

    unipotent = []
    for q in quad.q_values:
        identity_residual, _ = unipotent_identity_residual(q, problem, tol)
        # q = v - u, so u = (u + v - q) / 2
        x = solution_from_u(problem, 0.5 * (problem.pair_sum - q))
        unipotent.append({
            "q": sio.matrix_to_pairs(q),
            "identity_residual": identity_residual,
            "derived_solution_residual": float(frob(problem.a @ x - x @ problem.b - problem.c)),
        })
    witness_agreement = None
    if rep.witness is not None and quad.q_values:
        witness_agreement = bool(rep.witness.residuals["unipotent_identity"]
                                 <= rep.witness.thresholds["unipotent_identity"])
    notes = quad.notes if quad.q_values else quad.notes + [
        "no unipotent solution in the enumerated root family; "
        "the two-equation system verdict is authoritative"]
    n = problem.n
    doc = {
        "schema_version": sio.SCHEMA_VERSION,
        "base_roots": [
            {"branch": i,
             "square_residual": float(frob(br @ br - quad.base)),
             "blocks": {
                 "a11": sio.matrix_to_pairs(br[:n, :n]), "a12": sio.matrix_to_pairs(br[:n, n:]),
                 "a21": sio.matrix_to_pairs(br[n:, :n]), "a22": sio.matrix_to_pairs(br[n:, n:])}}
            for i, br in enumerate(quad.base_roots)],
        "y_solution_count": len(quad.y_solutions),
        "unipotent": unipotent,
        "system_witness_consistent": witness_agreement,
        "notes": notes,
        "environment": _environment(problem, tol, args.seed),
    }
    return doc, [f"{args.file}: {len(quad.base_roots)} base roots, "
                 f"{len(quad.y_solutions)} quadratic solutions, "
                 f"{len(quad.q_values)} unipotent"], 0


def _batch_verdict(args, path):
    spec, alpha, tol = _load(args, path)
    return diagnose(spec.a, spec.b, spec.c, alpha=alpha, tol=tol, with_oracle=args.oracle)


def cmd_batch(args, attempt) -> tuple:
    """The batch report; ``attempt`` is :func:`main`'s error mapping, by
    which a file that fails becomes its row's ``error``."""
    directory = args.directory
    if not directory.is_dir():
        raise SchemaError(f"{directory}: not a directory")
    rows, lines, agreements = [], [], []
    for path in sorted(directory.glob("*.json")):
        row = {"file": path.name, "status": None, "certificate_residual": None,
               "oracle_agreement": None, "error": None}
        verdict, error = attempt(_batch_verdict, args, path)
        if error is not None:
            row["error"] = error[1]
            lines.append(f"{path.name:<32} ERROR  {error[1]}")
        else:
            row["status"] = verdict.status.value
            row["certificate_residual"] = float(verdict.certificate_residual)
            row["oracle_agreement"] = agreement = verdict.oracle_agreement
            if agreement is not None:
                agreements.append(agreement)
            lines.append(f"{path.name:<32} {row['status']:<16} "
                         f"residual={row['certificate_residual']:.3e}"
                         + ("" if agreement is None
                            else f"  oracle={'ok' if agreement else 'MISMATCH'}"))
        rows.append(row)
    rate = (sum(agreements) / len(agreements)) if agreements else None
    if rate is not None:
        lines.append(f"oracle agreement rate: {rate:.1%} over {len(agreements)} decided rows")
    doc = {"schema_version": sio.SCHEMA_VERSION, "rows": rows, "oracle_agreement_rate": rate}
    return doc, lines, EXIT_BAD_INPUT if any(row["error"] is not None for row in rows) else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    def attempt(step, *params) -> tuple:
        """(step(*params), None), or (None, (exit code, message)) for an
        error the CLI reports; any other exception is a fault and raises."""
        try:
            return step(*params), None
        except (SchemaError, OSError) as exc:
            return None, (EXIT_BAD_INPUT, str(exc))
        except (SylvcertError, ArithmeticError) as exc:
            # an arithmetic fault's message is terse: it also names its type
            kind = f"{type(exc).__name__}: " if isinstance(exc, ArithmeticError) else ""
            return None, (EXIT_INTERNAL, f"{kind}{exc}")

    def run() -> tuple:
        for name in ("alpha", "tol"):
            if getattr(args, name) is not None:
                sio.check_option(name, getattr(args, name), f"--{name}")
        if args.command == "batch":
            doc, lines, code = cmd_batch(args, attempt)
        else:
            handler = {"diagnose": cmd_diagnose, "homogeneous": cmd_homogeneous,
                       "roots": cmd_roots}[args.command]
            doc, lines, code = handler(args, *_load(args, args.file))
        if args.output:
            # every report ends with the one field no comparison reads,
            # stamped here alone
            doc["generated_at"] = datetime.now(timezone.utc).isoformat()
            try:
                args.output.write_text(sio.serialize_report(doc), encoding="utf-8")
            except OSError as exc:
                # the problem was decided; only its report is lost
                raise OSError(f"{args.output}: cannot write the report: "
                              f"{exc.strerror or exc}") from exc
        return lines, code

    outcome, error = attempt(run)
    if error is not None:
        print(f"error: {error[1]}", file=sys.stderr)
        return error[0]
    lines, code = outcome
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
