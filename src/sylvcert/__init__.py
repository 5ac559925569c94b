"""Solvability verdicts and certified particular solutions for the matrix
equation a x - x b = c, covering the singular case where the spectra of a
and b intersect."""

from .blockalg import commutes_with_diag_pair
from .errors import (BranchCutError, ConvergenceError, DimensionError, GateError,
                     InversionError, NumericError, ParameterError,
                     PreconditionError, SchemaError, SylvcertError, WitnessError)
from .gate import GateReport, choose_shift, sector_contains, shared_eigenvalues
from .numerics import (LstsqResult, as_complex_matrix, kron_vec_operator, lstsq_solve,
                       mat_exp, unvec, vec)
from .oracle import OracleResult, build_operator, oracle_solve
from .regular import RegularSolveResult, companion_solve_quadrature, compute_offset
from .roots import (QuadraticSolveResult, RootCandidate, block_roots,
                    homogeneous_equivalence, homogeneous_nullspaces,
                    similarity_root_from_intertwiner, solve_unipotent_quadratic)
from .singular import (SylvesterPair, SylvesterProblem, UVSystemReport, UVWitness,
                       Verdict, VerdictStatus, diagnose, particular_solution, prepare,
                       solve_uv_report, sylvester_kernel)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
