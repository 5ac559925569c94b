"""Command-line surface.

Subcommands:

* ``diagnose FILE``     solvability verdict with a certified solution
* ``homogeneous FILE``  nullspaces of a x = x b / b y = y a and the
  three-way equivalence report
* ``roots FILE``        block square roots, quadratic-equation solutions and
  unipotent certificates
* ``batch DIR``         one verdict row per problem file in a directory

Exit codes for ``diagnose``: 0 solvable, 1 unsolvable, 2 ill-conditioned,
3 file/schema errors, 4 internal errors.  ``batch`` exits 3 when any row
errored, 0 otherwise; an ``--alpha`` or ``--tol`` out of its file option's
range exits 3 on every subcommand, before any file is read.  Human-readable
summaries go to stdout, diagnostics to stderr; JSON reports go to ``--output``.

The argument parser is built once per process, on the first :func:`main`
call, and reused: ``parse_args`` keeps no state between calls.  That saves
its build (about 1 ms) only where one process calls ``main(argv)`` many
times, as a program driving the CLI from Python does (the test suite and the
``cli_small`` bench workload are two); the ``sylvcert`` console script calls
``main`` once per process and builds the parser once either way.  An
arithmetic fault (``OverflowError``, ``ZeroDivisionError``) is no verdict:
it exits 4 like any internal error, and marks its ``batch`` row as an error.
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


def _effective(args, spec) -> tuple:
    alpha = args.alpha if args.alpha is not None else spec.alpha
    tol = args.tol if args.tol is not None else spec.tol
    return alpha, tol


def _error_text(exc: Exception) -> str:
    """An error's message; an arithmetic fault, whose message is terse, also
    names its type."""
    return f"{type(exc).__name__}: {exc}" if isinstance(exc, ArithmeticError) else str(exc)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def cmd_diagnose(args) -> int:
    spec = sio.load_problem(args.file)
    alpha, tol = _effective(args, spec)
    verdict = diagnose(spec.a, spec.b, spec.c, alpha=alpha, tol=tol,
                       with_oracle=args.oracle,
                       with_quadrature=args.quadrature or spec.method == "quadrature")
    if args.bridge:
        verdict.checks["unipotent_bridge"] = unipotent_bridge_check(verdict, tol)
    doc = sio.verdict_to_dict(verdict, tol, seed=args.seed, timestamp=_now())
    if args.output:
        args.output.write_text(sio.serialize_report(doc), encoding="utf-8")
    lam = verdict.problem.lambda_shift
    print(f"{args.file}: {verdict.status.value} "
          f"(residual {verdict.certificate_residual:.3e}, "
          f"threshold {verdict.certificate_threshold:.3e}, shift {lam:g})")
    if verdict.oracle_agreement is not None:
        print(f"  oracle agreement: {verdict.oracle_agreement}")
    quadrature = verdict.checks["integral_representation"]
    if quadrature["status"] != "skipped":
        print(f"  integral-representation gap: {quadrature['residual']:.3e}")
    return _STATUS_EXIT[verdict.status]


def cmd_homogeneous(args) -> int:
    spec = sio.load_problem(args.file)
    alpha, tol = _effective(args, spec)
    problem = prepare(spec.a, spec.b, spec.c, alpha=alpha)
    x_basis, y_basis = homogeneous_nullspaces(problem)
    if problem.gate.spectra_intersect:
        triple = homogeneous_equivalence(problem, tol)
        equivalences = {
            "nonzero_intertwiner": triple[0],
            "nonprimary_root": triple[1],
            "nontrivial_commutant": triple[2],
        }
        equivalence_status = "pass" if len(set(triple)) == 1 else "fail"
    else:
        equivalences = None
        equivalence_status = "skipped"
    doc = {
        "schema_version": sio.SCHEMA_VERSION,
        "nullity": len(x_basis),
        "adjoint_nullity": len(y_basis),
        "basis_samples": [sio.matrix_to_pairs(v) for v in x_basis[:3]],
        "adjoint_basis_samples": [sio.matrix_to_pairs(v) for v in y_basis[:3]],
        "equivalences": equivalences,
        "checks": {"three_way_equivalence": check_entry(equivalence_status)},
        "environment": {
            "alpha": problem.alpha,
            "shift_lambda": problem.lambda_shift,
            "tol": tol,
            "seed": args.seed,
        },
        "generated_at": _now(),
    }
    if args.output:
        args.output.write_text(sio.serialize_report(doc), encoding="utf-8")
    print(f"{args.file}: nullity {len(x_basis)}, adjoint nullity {len(y_basis)}"
          + (f", equivalences {equivalences}" if equivalences is not None else " (regular pair)"))
    return 0


def cmd_roots(args) -> int:
    spec = sio.load_problem(args.file)
    alpha, tol = _effective(args, spec)
    problem = prepare(spec.a, spec.b, spec.c, alpha=alpha)
    quad = solve_unipotent_quadratic(problem, tol=tol)
    rep = solve_uv_report(problem, tol)
    a, b, c = problem.a, problem.b, problem.c

    unipotent = []
    for q in quad.q_values:
        identity_residual, _ = unipotent_identity_residual(q, problem, tol)
        # q = v - u, so u = (u + v - q) / 2
        x = solution_from_u(problem, 0.5 * (problem.pair_sum - q))
        unipotent.append({
            "q": sio.matrix_to_pairs(q),
            "identity_residual": identity_residual,
            "derived_solution_residual": float(frob(a @ x - x @ b - c)),
        })
    witness_agreement = None
    if rep.witness is not None and quad.q_values:
        witness_agreement = bool(rep.witness.residuals["unipotent_identity"]
                                 <= rep.witness.thresholds["unipotent_identity"])
    note = None
    if not quad.q_values:
        note = ("no unipotent solution in the enumerated root family; "
                "the two-equation system verdict is authoritative")
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
        "notes": quad.notes + ([note] if note else []),
        "environment": {
            "alpha": problem.alpha,
            "shift_lambda": problem.lambda_shift,
            "tol": tol,
            "seed": args.seed,
        },
        "generated_at": _now(),
    }
    if args.output:
        args.output.write_text(sio.serialize_report(doc), encoding="utf-8")
    print(f"{args.file}: {len(quad.base_roots)} base roots, "
          f"{len(quad.y_solutions)} quadratic solutions, "
          f"{len(quad.q_values)} unipotent")
    return 0


def cmd_batch(args) -> int:
    directory = args.directory
    if not directory.is_dir():
        raise SchemaError(f"{directory}: not a directory")
    rows = []
    agreements = []
    any_error = False
    for path in sorted(directory.glob("*.json")):
        row = {"file": path.name, "status": None, "certificate_residual": None,
               "oracle_agreement": None, "error": None}
        try:
            spec = sio.load_problem(path)
            alpha, tol = _effective(args, spec)
            verdict = diagnose(spec.a, spec.b, spec.c, alpha=alpha, tol=tol,
                               with_oracle=args.oracle)
            row["status"] = verdict.status.value
            row["certificate_residual"] = float(verdict.certificate_residual)
            row["oracle_agreement"] = verdict.oracle_agreement
            if verdict.oracle_agreement is not None:
                agreements.append(verdict.oracle_agreement)
        except (SylvcertError, ArithmeticError) as exc:
            row["error"] = _error_text(exc)
            any_error = True
        rows.append(row)

    rate = (sum(agreements) / len(agreements)) if agreements else None
    doc = {
        "schema_version": sio.SCHEMA_VERSION,
        "rows": rows,
        "oracle_agreement_rate": rate,
        "generated_at": _now(),
    }
    if args.output:
        args.output.write_text(sio.serialize_report(doc), encoding="utf-8")
    for row in rows:
        if row["error"] is not None:
            print(f"{row['file']:<32} ERROR  {row['error']}")
        else:
            agreement = "" if row["oracle_agreement"] is None \
                else f"  oracle={'ok' if row['oracle_agreement'] else 'MISMATCH'}"
            print(f"{row['file']:<32} {row['status']:<16} "
                  f"residual={row['certificate_residual']:.3e}{agreement}")
    if rate is not None:
        print(f"oracle agreement rate: {rate:.1%} over {len(agreements)} decided rows")
    return EXIT_BAD_INPUT if any_error else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "diagnose": cmd_diagnose,
        "homogeneous": cmd_homogeneous,
        "roots": cmd_roots,
        "batch": cmd_batch,
    }
    try:
        for name in ("alpha", "tol"):
            if getattr(args, name) is not None:
                sio.check_option(name, getattr(args, name), f"--{name}")
        return handlers[args.command](args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (SylvcertError, ArithmeticError) as exc:
        print(f"error: {_error_text(exc)}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
