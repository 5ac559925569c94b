"""Problem and report file formats.

Matrices are serialized as nested arrays of two-element [re, im] pairs (no
complex-literal dialects), UTF-8 JSON, with dictionary keys emitted in a
fixed order so reports diff cleanly.  Every pass/fail entry in a report names
the residual and the threshold that decided it.  A report that
``cli.main`` writes ends with a ``generated_at`` timestamp, which it alone
stamps and which is the only field excluded from determinism comparisons.

Reports are written by this module's own writer in one pass: its bytes are
those of ``json.dumps(doc, indent=2, ensure_ascii=True)``, with json's own
scalar text, except that a non-finite float is written as the string "inf",
"-inf" or "nan".  Each [re, im] pair of finite floats takes one format call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import SchemaError
from .gate import DEFAULT_ALPHA
from .numerics import RANK_CUTOFF_FACTOR
from .singular import DEFAULT_TOL, SylvesterProblem, UVWitness, Verdict

SCHEMA_VERSION = "1"
KNOWN_SCHEMA_VERSIONS = ("1",)
METHODS = ("direct", "quadrature")

DEFAULT_OPTIONS = {"alpha": DEFAULT_ALPHA, "tol": DEFAULT_TOL, "method": "direct"}
# the open interval each numeric option must lie in, and its text
OPTION_RANGES = {"alpha": (0.0, math.pi / 2, "(0, pi/2)"), "tol": (0.0, 1.0, "(0, 1)")}


def matrix_to_pairs(m: np.ndarray) -> list:
    m = np.atleast_2d(np.asarray(m, dtype=np.complex128))
    # the float view of a C-ordered complex array interleaves re and im
    return np.ascontiguousarray(m).view(np.float64).reshape(*m.shape, 2).tolist()


def pairs_to_matrix(data, name: str) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise SchemaError(f"field {name!r} must be a non-empty array of rows")
    width = None
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or not row:
            raise SchemaError(f"{name}[{i}] must be a non-empty array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(f"{name} is not rectangular: row {i} has length "
                              f"{len(row)}, expected {width}")
        entries = []
        for j, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2:
                raise SchemaError(f"{name}[{i}][{j}] must be a [re, im] pair of numbers")
            re, im = entry
            # bool is a subclass of int, but JSON true and false are no numbers
            if (not isinstance(re, (int, float)) or not isinstance(im, (int, float))
                    or type(re) is bool or type(im) is bool):
                raise SchemaError(f"{name}[{i}][{j}] must be a [re, im] pair of numbers")
            try:
                re, im = float(re), float(im)
            except OverflowError:
                raise SchemaError(f"{name}[{i}][{j}] is too large for a float") from None
            if not (math.isfinite(re) and math.isfinite(im)):
                raise SchemaError(f"{name}[{i}][{j}] is not finite")
            entries.append(complex(re, im))
        rows.append(entries)
    return np.array(rows, dtype=np.complex128)


@dataclass
class ProblemSpec:
    """Parsed contents of a problem file."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    alpha: float
    tol: float
    method: str


def parse_problem_text(text: str, source: str = "<string>") -> ProblemSpec:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{source}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise SchemaError(f"{source}: top level must be an object")
    version = raw.get("schema_version")
    if version not in KNOWN_SCHEMA_VERSIONS:
        raise SchemaError(f"{source}: unrecognized schema_version {version!r}")
    for key in ("a", "b", "c"):
        if key not in raw:
            raise SchemaError(f"{source}: missing required field {key!r}")
    a = pairs_to_matrix(raw["a"], "a")
    b = pairs_to_matrix(raw["b"], "b")
    c = pairs_to_matrix(raw["c"], "c")
    if a.shape[0] != a.shape[1]:
        raise SchemaError(f"{source}: a must be square, got {a.shape[0]}x{a.shape[1]}")
    if b.shape[0] != b.shape[1]:
        raise SchemaError(f"{source}: b must be square, got {b.shape[0]}x{b.shape[1]}")
    if c.shape != (a.shape[0], b.shape[0]):
        raise SchemaError(
            f"{source}: c must be {a.shape[0]}x{b.shape[0]}, got {c.shape[0]}x{c.shape[1]}")

    options = raw.get("options", {})
    if not isinstance(options, dict):
        raise SchemaError(f"{source}: options must be an object")
    alpha, tol = (check_option(name, options.get(name, DEFAULT_OPTIONS[name]),
                               f"{source}: options.{name}") for name in ("alpha", "tol"))
    method = options.get("method", DEFAULT_OPTIONS["method"])
    if method not in METHODS:
        raise SchemaError(f"{source}: options.method must be one of {METHODS}")
    return ProblemSpec(a=a, b=b, c=c, alpha=alpha, tol=tol, method=str(method))


def check_option(name: str, value, label: str) -> float:
    """``value`` of the option ``name`` as a float; :class:`SchemaError`
    "``label`` must lie in ..." when it is no number inside its interval."""
    low, high, interval = OPTION_RANGES[name]
    # an int compares with a float exactly, so one too large for a float
    # fails the range test instead of overflowing
    if not isinstance(value, (int, float)) or type(value) is bool \
            or not low < value < high:
        raise SchemaError(f"{label} must lie in {interval}")
    return float(value)


def load_problem(path) -> ProblemSpec:
    """The problem file at ``path``; :class:`SchemaError` naming the path
    when it cannot be read or is not UTF-8 text."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    return parse_problem_text(text, source=str(path))


def problem_to_dict(a, b, c, alpha: float | None = None, tol: float | None = None,
                    method: str | None = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "a": matrix_to_pairs(a),
        "b": matrix_to_pairs(b),
        "c": matrix_to_pairs(c),
    }
    options = {}
    if alpha is not None:
        options["alpha"] = float(alpha)
    if tol is not None:
        options["tol"] = float(tol)
    if method is not None:
        options["method"] = str(method)
    if options:
        doc["options"] = options
    return doc


def _write(value, chunks: list, newline: str) -> None:
    """Append the JSON text of ``value`` to ``chunks``, in json's type order
    and with json's scalar text; ``newline`` is the line break and indent of
    the line ``value`` starts on."""
    if isinstance(value, str):
        chunks.append(encode_basestring_ascii(value))
    elif value is None:
        chunks.append("null")
    elif value is True:
        chunks.append("true")
    elif value is False:
        chunks.append("false")
    elif isinstance(value, int):
        chunks.append(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        chunks.append(text if -math.inf < value < math.inf else f'"{text}"')
    elif isinstance(value, (list, tuple)):
        if not value:
            chunks.append("[]")
            return
        inner, deeper = newline + "  ", newline + "    "
        separator = "[" + inner
        for item in value:
            chunks.append(separator)
            separator = "," + inner
            # a [re, im] pair of finite floats in one format, without a call
            if type(item) is list and len(item) == 2:
                re, im = item
                if type(re) is float is type(im) and -math.inf < re < math.inf \
                        and -math.inf < im < math.inf:
                    chunks.append("[%s%r,%s%r%s]" % (deeper, re, deeper, im, inner))
                    continue
            _write(item, chunks, inner)
        chunks.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            chunks.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():  # a key that is no str raises TypeError
            chunks.append(separator + encode_basestring_ascii(key) + ": ")
            _write(item, chunks, inner)
            separator = "," + inner
        chunks.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def serialize_report(doc: dict) -> str:
    """The report as the bytes of ``json.dumps(doc, indent=2,
    ensure_ascii=True)`` plus a trailing newline, except that a non-finite
    float (a residual that overflowed) is written as the string "inf",
    "-inf" or "nan".  Keys must be strings; any other key, or a value json
    cannot encode, raises TypeError."""
    chunks: list = []
    _write(doc, chunks, "\n")
    chunks.append("\n")
    return "".join(chunks)


def parse_report(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"malformed report JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _witness_to_dict(w: UVWitness, p: SylvesterProblem) -> dict:
    return {
        "u": matrix_to_pairs(w.u),
        "v": matrix_to_pairs(w.v),
        "companion": matrix_to_pairs(p.companion),
        "offset": matrix_to_pairs(p.offset),
        "q": matrix_to_pairs(w.q),
        "uv_norm": float(w.uv_norm),
        "residuals": {key: float(value) for key, value in sorted(w.residuals.items())},
    }


def environment_dict(verdict: Verdict, tol: float, seed: int | None) -> dict:
    return {
        "tolerances": {
            "tol": float(tol),
            "rank_cutoff_factor": RANK_CUTOFF_FACTOR,
            "intersection_tolerance": verdict.problem.gate.intersection_tolerance,
        },
        "shift_lambda": float(verdict.problem.lambda_shift),
        "alpha": float(verdict.problem.alpha),
        "seed": seed,
    }


def verdict_to_dict(verdict: Verdict, tol: float, seed: int | None = None) -> dict:
    p = verdict.problem
    gate = p.gate
    doc = {
        "schema_version": SCHEMA_VERSION,
        "verdict": {
            "status": verdict.status.value,
            "certificate_residual": float(verdict.certificate_residual),
            "certificate_threshold": float(verdict.certificate_threshold),
            "system_residual": float(verdict.system_residual),
            "system_threshold": float(verdict.system_threshold),
            "oracle_agreement": verdict.oracle_agreement,
            "solution": None if verdict.solution is None else matrix_to_pairs(verdict.solution),
            "solution_norm": None if verdict.solution_norm is None else float(verdict.solution_norm),
            "ill_conditioned_gate": verdict.ill_conditioned_gate,
        },
        "witness": None if verdict.witness is None else _witness_to_dict(verdict.witness, p),
        "gate": {
            "in_sector_a": gate.in_sector_a,
            "in_sector_b": gate.in_sector_b,
            "spectra_intersect": gate.spectra_intersect,
            "intersection_tolerance": gate.intersection_tolerance,
            "suggested_lambda": p.lambda_shift,
            "cluster_sizes": None if verdict.cluster_sizes is None else list(verdict.cluster_sizes),
            "cluster_tolerance": None if verdict.cluster_sizes is None
            else gate.intersection_tolerance,
        },
        "environment": environment_dict(verdict, tol, seed),
        "checks": verdict.checks,
    }
    return doc
