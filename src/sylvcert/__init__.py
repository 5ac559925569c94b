"""Solvability verdicts and certified particular solutions for the matrix
equation a x - x b = c, covering the singular case where the spectra of a
and b intersect."""

from .blockalg import (CommutantMembership, classify_triangular_commutant,
                       commutes_with_diag_pair)
from .errors import (BranchCutError, ConvergenceError, DimensionError, GateError,
                     InversionError, NumericError, ParameterError,
                     PreconditionError, SchemaError, SylvcertError, WitnessError)
from .gate import GateReport, choose_shift, sector_contains, shared_eigenvalues
from .numerics import (LstsqResult, SpectrumReport, as_complex_matrix, eigenvalues,
                       kron_vec_operator, lstsq_solve, mat_exp, principal_sqrt,
                       solve_left, solve_right, unvec, vec)
from .oracle import OracleResult, build_operator, oracle_solve
from .regular import (RegularSolveResult, companion_solve_direct,
                      companion_solve_quadrature, compute_offset,
                      solve_generalized_regular)
from .roots import (QuadraticSolveResult, RootCandidate, block_roots,
                    homogeneous_equivalence, homogeneous_nullspaces,
                    similarity_root_from_intertwiner, solve_unipotent_quadratic,
                    verify_unipotent_identity)
from .singular import (SylvesterProblem, UVSystemReport, UVWitness, Verdict,
                       VerdictStatus, commutator_identity_verdict,
                       complete_intertwined_pair, diagnose, particular_solution,
                       prepare, reduced_singular_routes, solve_uv_report,
                       solve_uv_system, sylvester_kernel, verify_commutant_identity)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
