import json
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from sylvcert import cli, singular
from sylvcert.cli import main
from sylvcert.errors import SchemaError, WitnessError
from sylvcert.instances import regular_pair, rhs_in_range, shared_jordan_pair
from sylvcert.oracle import ORACLE_MAX_UNKNOWNS
from sylvcert.roots import solve_unipotent_quadratic, unipotent_bridge_check
from sylvcert.io import (load_problem, matrix_to_pairs, pairs_to_matrix, parse_problem_text,
                         parse_report, problem_to_dict, serialize_report)
from sylvcert.singular import diagnose, unipotent_identity_residual

from conftest import shared_cluster_pair

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def write_problem(path, a, b, c, **options):
    doc = problem_to_dict(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex),
                          np.asarray(c, dtype=complex), **options)
    path.write_text(serialize_report(doc), encoding="utf-8")
    return path


def overflowing_problem(path):
    """A solvable 3x3 shared-Jordan problem scaled by 1e150: the cubic
    threshold (||a|| + ||b||)^3 of the witness overflows a float."""
    rng = np.random.default_rng(0)
    a, b = shared_jordan_pair(rng, 3, 3)
    return write_problem(path, 1e150 * a, 1e150 * b, 1e150 * rhs_in_range(rng, a, b))


def stripped(text):
    doc = parse_report(text)
    doc.pop("generated_at", None)
    return serialize_report(doc)


class TestMatrixCodec:
    def test_round_trip_exact(self, rng):
        m = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        recovered = pairs_to_matrix(matrix_to_pairs(m), "m")
        assert np.array_equal(recovered, m)

    def test_round_trip_through_json_bits(self, rng):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        text = json.dumps(matrix_to_pairs(m))
        recovered = pairs_to_matrix(json.loads(text), "m")
        assert np.array_equal(recovered, m)

    def test_ragged_rejected(self):
        with pytest.raises(SchemaError):
            pairs_to_matrix([[[1, 0]], [[1, 0], [2, 0]]], "m")

    def test_bad_pair_rejected(self):
        with pytest.raises(SchemaError):
            pairs_to_matrix([[[1, 0, 0]]], "m")
        with pytest.raises(SchemaError):
            pairs_to_matrix([[[1]]], "m")


class TestProblemParsing:
    def test_defaults_applied(self):
        text = json.dumps({"schema_version": "1", "a": [[[2, 0]]], "b": [[[1, 0]]],
                           "c": [[[3, 0]]]})
        spec = parse_problem_text(text)
        assert spec.alpha == pytest.approx(np.pi / 4)
        assert spec.tol == 1e-8
        assert spec.method == "direct"

    def test_malformed_json_reports_line_and_column(self):
        with pytest.raises(SchemaError) as excinfo:
            parse_problem_text('{"schema_version": "1",\n  "a": [[[1,0]],\n}')
        message = str(excinfo.value)
        assert "line" in message and "column" in message

    def test_unknown_schema_version(self):
        with pytest.raises(SchemaError):
            parse_problem_text(json.dumps({"schema_version": "99", "a": [], "b": [], "c": []}))

    def test_dimension_mismatch_rejected(self):
        doc = {"schema_version": "1", "a": [[[1, 0]]], "b": [[[1, 0]]],
               "c": [[[1, 0]], [[0, 0]]]}
        with pytest.raises(SchemaError):
            parse_problem_text(json.dumps(doc))

    def test_non_square_rejected(self):
        doc = {"schema_version": "1", "a": [[[1, 0], [0, 0]]], "b": [[[1, 0]]],
               "c": [[[1, 0]]]}
        with pytest.raises(SchemaError):
            parse_problem_text(json.dumps(doc))

    def test_bad_method_rejected(self):
        doc = {"schema_version": "1", "a": [[[1, 0]]], "b": [[[1, 0]]], "c": [[[1, 0]]],
               "options": {"method": "magic"}}
        with pytest.raises(SchemaError):
            parse_problem_text(json.dumps(doc))


class TestDiagnoseCommand:
    def test_solvable_exit_zero(self, tmp_path, capsys):
        problem = write_problem(tmp_path / "p.json", [[2]], [[1]], [[3]])
        out = tmp_path / "verdict.json"
        code = main(["diagnose", str(problem), "--oracle", "-o", str(out)])
        assert code == 0
        doc = parse_report(out.read_text())
        assert doc["verdict"]["status"] == "solvable"
        assert doc["verdict"]["oracle_agreement"] is True
        np.testing.assert_allclose(
            pairs_to_matrix(doc["verdict"]["solution"], "x"), [[3.0]], atol=1e-9)
        assert "solvable" in capsys.readouterr().out

    def test_unsolvable_exit_one(self, tmp_path):
        problem = write_problem(tmp_path / "p.json", [[1]], [[1]], [[1]])
        assert main(["diagnose", str(problem)]) == 1

    def test_every_decided_check_names_residual_and_threshold(self, tmp_path):
        problem = write_problem(tmp_path / "p.json", [[1, 1], [0, 1]], [[1]], [[1], [0]])
        out = tmp_path / "verdict.json"
        code = main(["diagnose", str(problem), "--oracle", "--quadrature", "--bridge",
                     "-o", str(out)])
        assert code == 0
        doc = parse_report(out.read_text())
        for name, entry in doc["checks"].items():
            assert entry["status"] in ("pass", "fail", "skipped")
            if entry["status"] == "pass" and name != "unipotent_bridge":
                assert entry["residual"] is not None
                assert entry["threshold"] is not None
        assert doc["checks"]["oracle_cross_check"]["status"] == "pass"
        assert doc["checks"]["integral_representation"]["status"] == "pass"
        assert doc["checks"]["unipotent_bridge"]["status"] == "pass"

    def test_unipotent_bridge_pairs_residual_and_threshold_of_one_q(self, tmp_path):
        a, b, c = [[1, 1], [0, 1]], [[1]], [[1], [0]]
        problem = write_problem(tmp_path / "p.json", a, b, c)
        out = tmp_path / "verdict.json"
        assert main(["diagnose", str(problem), "--bridge", "-o", str(out)]) == 0
        entry = parse_report(out.read_text())["checks"]["unipotent_bridge"]
        p = singular.prepare(a, b, c)
        quad = solve_unipotent_quadratic(p)
        pairs = [unipotent_identity_residual(q, p, quad.offset) for q in quad.q_values]
        assert len(pairs) >= 2
        assert (entry["residual"], entry["threshold"]) in pairs
        assert entry["residual"] <= entry["threshold"]

    def test_checks_carry_the_thresholds_the_library_applied(self, tmp_path):
        a, b, c = [[1, 1], [0, 1]], [[1]], [[1], [0]]
        problem = write_problem(tmp_path / "p.json", a, b, c)
        out = tmp_path / "verdict.json"
        assert main(["diagnose", str(problem), "-o", str(out)]) == 0
        checks = parse_report(out.read_text())["checks"]
        witness = diagnose(a, b, c).witness
        formulas = checks["solution_formulas_agree"]
        assert formulas["residual"] == witness.residuals["solution_formula_gap"]
        assert formulas["threshold"] == witness.thresholds["solution_formula_gap"]
        cascade = checks["identity_cascade"]
        assert cascade["status"] == "pass"
        assert any(cascade["residual"] == witness.residuals[key]
                   and cascade["threshold"] == witness.thresholds[key]
                   for key in ("av_ub", "au_vb", "u_plus_v", "cubic"))

    def test_gate_reports_shared_cluster(self, tmp_path):
        problem = write_problem(tmp_path / "p.json", [[1, 1], [0, 1]], [[1]], [[1], [0]])
        out = tmp_path / "verdict.json"
        assert main(["diagnose", str(problem), "-o", str(out)]) == 0
        doc = parse_report(out.read_text())
        assert doc["gate"]["cluster_sizes"] == [2, 1]
        assert doc["gate"]["cluster_tolerance"] > 0
        assert doc["verdict"]["ill_conditioned_gate"] is None

    def test_failed_witness_gate_exits_ill_conditioned(self, tmp_path, monkeypatch):
        # a witness that fails its own gate is a refusal (exit 2), not an
        # internal error (exit 4), and the report names the gate
        def failing(w, p, tol=singular.DEFAULT_TOL):
            raise WitnessError("forced", gate="solution_certificate")

        monkeypatch.setattr(singular, "particular_solution", failing)
        problem = write_problem(tmp_path / "p.json", [[1, 1], [0, 1]], [[1]], [[1], [0]])
        out = tmp_path / "verdict.json"
        assert main(["diagnose", str(problem), "--oracle", "-o", str(out)]) == 2
        doc = parse_report(out.read_text())
        assert doc["verdict"]["status"] == "ill_conditioned"
        assert doc["verdict"]["ill_conditioned_gate"] == "solution_certificate"

    def test_oracle_above_cap_skipped_with_note(self, tmp_path, rng, monkeypatch):
        n, m = 65, 64
        assert n * m > ORACLE_MAX_UNKNOWNS
        a, b = regular_pair(rng, n, m)
        c = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        monkeypatch.setattr(singular, "oracle_solve",
                            lambda *args, **kwargs: pytest.fail("dense oracle above its cap"))
        problem = write_problem(tmp_path / "p.json", a, b, c)
        out = tmp_path / "verdict.json"
        assert main(["diagnose", str(problem), "--oracle", "-o", str(out)]) == 0
        entry = parse_report(out.read_text())["checks"]["oracle_cross_check"]
        assert entry["status"] == "skipped"
        assert str(ORACLE_MAX_UNKNOWNS) in entry["note"]

    def test_quadrature_method_in_file_reports_its_check(self, tmp_path):
        # the file's method runs the quadrature without --quadrature, and the
        # check it decided must not read "skipped"
        problem = write_problem(tmp_path / "p.json", [[1, 1], [0, 1]], [[1]], [[1], [0]],
                                method="quadrature")
        out = tmp_path / "verdict.json"
        assert main(["diagnose", str(problem), "-o", str(out)]) == 0
        entry = parse_report(out.read_text())["checks"]["integral_representation"]
        assert entry["status"] == "pass"
        assert entry["residual"] <= entry["threshold"]

    def test_quadrature_on_zero_rhs_says_why_it_was_skipped(self, tmp_path):
        out = tmp_path / "verdict.json"
        problem = CORPUS / "scalar_singular_homogeneous.json"
        assert main(["diagnose", str(problem), "--quadrature", "-o", str(out)]) == 0
        entry = parse_report(out.read_text())["checks"]["integral_representation"]
        assert entry["status"] == "skipped"
        assert "companion solution is zero" in entry["note"]
        assert "note" not in diagnose([[1]], [[1]], [[0]]).checks["integral_representation"]

    def test_refused_verdict_explains_skipped_cross_checks(self, tmp_path):
        problem = write_problem(tmp_path / "p.json", [[1.0]], [[1.0 + 1e-12]], [[1.0]])
        out = tmp_path / "verdict.json"
        assert main(["diagnose", str(problem), "--oracle", "--bridge", "-o", str(out)]) == 2
        doc = parse_report(out.read_text())
        gate = doc["verdict"]["ill_conditioned_gate"]
        for name in ("oracle_cross_check", "unipotent_bridge"):
            entry = doc["checks"][name]
            assert entry["status"] == "skipped"
            assert "ill_conditioned" in entry["note"] and gate in entry["note"]

    def test_malformed_file_exit_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["diagnose", str(bad)]) == 3
        assert "line" in capsys.readouterr().err

    def test_missing_file_exit_three(self, tmp_path):
        assert main(["diagnose", str(tmp_path / "absent.json")]) == 3

    def test_determinism_byte_identical_modulo_timestamp(self, tmp_path):
        problem = write_problem(tmp_path / "p.json", [[1, 1], [0, 1]], [[1]], [[1], [0]])
        out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
        assert main(["diagnose", str(problem), "--oracle", "-o", str(out1)]) == 0
        assert main(["diagnose", str(problem), "--oracle", "-o", str(out2)]) == 0
        assert stripped(out1.read_text()) == stripped(out2.read_text())

    def test_verdict_round_trip(self, tmp_path):
        problem = write_problem(tmp_path / "p.json", [[2]], [[1]], [[3]])
        out = tmp_path / "v.json"
        main(["diagnose", str(problem), "-o", str(out)])
        text = out.read_text()
        doc = parse_report(text)
        assert serialize_report(doc) == text

    def test_arithmetic_fault_exits_internal_not_unsolvable(self, tmp_path, capsys):
        # equilibrating at the entry of diagnose will turn this into a verdict
        problem = overflowing_problem(tmp_path / "big.json")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["diagnose", str(problem)]) == 4
        assert caught == []
        err = capsys.readouterr().err
        # the overflowing residuals fail closed without a numpy warning
        assert err.startswith("error: OverflowError") and err.count("\n") == 1

    def test_parser_reused_without_leaking_flags(self, tmp_path):
        problem = write_problem(tmp_path / "p.json", [[2]], [[1]], [[3]])
        out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
        main(["diagnose", str(problem)])  # the parser exists before the counted calls
        before = cli._build_parser.cache_info()
        assert main(["diagnose", str(problem), "--oracle", "--seed", "42", "-o", str(out1)]) == 0
        assert main(["diagnose", str(problem), "-o", str(out2)]) == 0
        first, second = parse_report(out1.read_text()), parse_report(out2.read_text())
        assert first["checks"]["oracle_cross_check"]["status"] == "pass"
        assert first["environment"]["seed"] == 42
        assert second["checks"]["oracle_cross_check"]["status"] == "skipped"
        assert second["environment"]["seed"] is None
        with pytest.raises(SystemExit) as excinfo:
            main(["diagnose", str(problem), "--no-such-flag"])
        assert excinfo.value.code == 2
        assert main(["diagnose", str(write_problem(tmp_path / "u.json", [[1]], [[1]], [[1]]))]) == 1
        after = cli._build_parser.cache_info()
        # each of the four calls took the parser from the cache; none built one
        assert (after.hits - before.hits, after.misses - before.misses) == (4, 0)

    def test_seed_recorded(self, tmp_path):
        problem = write_problem(tmp_path / "p.json", [[2]], [[1]], [[3]])
        out = tmp_path / "v.json"
        main(["diagnose", str(problem), "--seed", "42", "-o", str(out)])
        assert parse_report(out.read_text())["environment"]["seed"] == 42


class TestFlagsPerSubcommand:
    @pytest.mark.parametrize("command, flag", [
        ("homogeneous", "--oracle"), ("homogeneous", "--quadrature"), ("homogeneous", "--bridge"),
        ("roots", "--oracle"), ("roots", "--quadrature"), ("roots", "--bridge"),
        ("batch", "--quadrature"), ("batch", "--bridge"), ("batch", "--seed=1"),
    ])
    def test_flag_the_subcommand_does_not_read_is_rejected(self, tmp_path, command, flag):
        problem = write_problem(tmp_path / "p.json", [[2]], [[1]], [[3]])
        target = tmp_path if command == "batch" else problem
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(target), flag])
        assert excinfo.value.code == 2


class TestHomogeneousCommand:
    def test_regular_pair_nullity_zero(self, tmp_path, capsys):
        problem = write_problem(tmp_path / "p.json", [[2]], [[1]], [[0]])
        out = tmp_path / "h.json"
        assert main(["homogeneous", str(problem), "-o", str(out)]) == 0
        doc = parse_report(out.read_text())
        assert doc["nullity"] == 0
        assert doc["equivalences"] is None
        assert doc["checks"]["three_way_equivalence"]["status"] == "skipped"

    def test_scalar_singular_equivalences(self, tmp_path):
        problem = write_problem(tmp_path / "p.json", [[1]], [[1]], [[0]])
        out = tmp_path / "h.json"
        assert main(["homogeneous", str(problem), "-o", str(out)]) == 0
        doc = parse_report(out.read_text())
        assert doc["nullity"] == 1
        assert all(doc["equivalences"].values())
        assert doc["checks"]["three_way_equivalence"]["status"] == "pass"

    @pytest.mark.parametrize("k", [3, 4])
    def test_shared_jordan_block_equivalences(self, tmp_path, capsys, k):
        a, b = shared_cluster_pair(np.random.default_rng([k, 0]), k, None, k + 1, k)
        problem = write_problem(tmp_path / "p.json", a, b, np.zeros((k + 1, k)))
        out = tmp_path / "h.json"
        assert main(["homogeneous", str(problem), "-o", str(out)]) == 0
        doc = parse_report(out.read_text())
        assert doc["nullity"] == doc["adjoint_nullity"] == k
        assert doc["equivalences"] == {"nonzero_intertwiner": True, "nonprimary_root": True,
                                       "nontrivial_commutant": True}
        assert doc["checks"]["three_way_equivalence"]["status"] == "pass"
        assert "(regular pair)" not in capsys.readouterr().out

    def test_diag_pair_basis(self, tmp_path):
        problem = write_problem(tmp_path / "p.json", [[1, 0], [0, 2]], [[2]], [[0], [0]])
        out = tmp_path / "h.json"
        assert main(["homogeneous", str(problem), "-o", str(out)]) == 0
        doc = parse_report(out.read_text())
        assert doc["nullity"] == 1
        basis = pairs_to_matrix(doc["basis_samples"][0], "basis")
        np.testing.assert_allclose(basis, [[0.0], [1.0]], atol=1e-12)


class TestRootsCommand:
    def test_zero_rhs_identity_solution(self, tmp_path):
        problem = write_problem(tmp_path / "p.json", [[2]], [[1]], [[0]])
        out = tmp_path / "r.json"
        assert main(["roots", str(problem), "-o", str(out)]) == 0
        doc = parse_report(out.read_text())
        assert len(doc["base_roots"]) == 4
        assert any(np.allclose(pairs_to_matrix(entry["q"], "q"), 0.0, atol=1e-10)
                   for entry in doc["unipotent"])

    def test_scalar_solvable_q_value(self, tmp_path):
        problem = write_problem(tmp_path / "p.json", [[2]], [[1]], [[3]])
        out = tmp_path / "r.json"
        assert main(["roots", str(problem), "-o", str(out)]) == 0
        doc = parse_report(out.read_text())
        q = pairs_to_matrix(doc["unipotent"][0]["q"], "q")
        np.testing.assert_allclose(q, [[-2.5]], atol=1e-9)
        assert doc["unipotent"][0]["derived_solution_residual"] <= 1e-8
        assert doc["system_witness_consistent"] is True

    def test_unsolvable_reports_caveat(self, tmp_path):
        problem = write_problem(tmp_path / "p.json", [[1]], [[1]], [[1]])
        out = tmp_path / "r.json"
        assert main(["roots", str(problem), "-o", str(out)]) == 0
        doc = parse_report(out.read_text())
        assert doc["unipotent"] == []
        assert any("enumerated root family" in note for note in doc["notes"])


class TestBatchCommand:
    def test_corpus_full_oracle_agreement(self, tmp_path):
        write_problem(tmp_path / "a_regular.json", [[2]], [[1]], [[3]])
        write_problem(tmp_path / "b_unsolvable.json", [[1]], [[1]], [[1]])
        write_problem(tmp_path / "c_jordan.json", [[1, 1], [0, 1]], [[1]], [[1], [0]])
        out = tmp_path / "batch.json"
        assert main(["batch", str(tmp_path), "--oracle", "-o", str(out)]) == 0
        doc = parse_report(out.read_text())
        assert doc["oracle_agreement_rate"] == 1.0
        assert [row["file"] for row in doc["rows"]] == sorted(row["file"] for row in doc["rows"])

    def test_empty_directory(self, tmp_path, capsys):
        out = tmp_path / "batch.json"
        assert main(["batch", str(tmp_path), "-o", str(out)]) == 0
        doc = parse_report(out.read_text())
        assert doc["rows"] == []

    def test_malformed_row_isolated(self, tmp_path):
        write_problem(tmp_path / "good.json", [[2]], [[1]], [[3]])
        (tmp_path / "broken.json").write_text("{oops", encoding="utf-8")
        out = tmp_path / "batch.json"
        assert main(["batch", str(tmp_path), "-o", str(out)]) == 3
        doc = parse_report(out.read_text())
        by_name = {row["file"]: row for row in doc["rows"]}
        assert by_name["broken.json"]["error"] is not None
        assert by_name["good.json"]["status"] == "solvable"


    def test_arithmetic_fault_row_isolated(self, tmp_path, capsys):
        write_problem(tmp_path / "good.json", [[2]], [[1]], [[3]])
        overflowing_problem(tmp_path / "big.json")
        out = tmp_path / "batch.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["batch", str(tmp_path), "-o", str(out)]) == 3
        assert caught == []
        # the fault is the row's error on stdout; nothing reaches stderr
        assert capsys.readouterr().err == ""
        by_name = {row["file"]: row for row in parse_report(out.read_text())["rows"]}
        assert by_name["big.json"]["error"].startswith("OverflowError")
        assert by_name["good.json"]["status"] == "solvable"


class TestBundledCorpus:
    def test_full_oracle_agreement(self, tmp_path):
        assert CORPUS.is_dir()
        out = tmp_path / "batch.json"
        assert main(["batch", str(CORPUS), "--oracle", "-o", str(out)]) == 0
        doc = parse_report(out.read_text())
        assert len(doc["rows"]) >= 8
        assert all(row["error"] is None for row in doc["rows"])
        assert doc["oracle_agreement_rate"] == 1.0

    @pytest.mark.parametrize("flags", [[], ["--oracle", "--quadrature", "--bridge"]])
    def test_report_checks_are_the_verdict_checks(self, tmp_path, flags):
        # the CLI writes diagnose's map out, adding only the requested bridge entry
        paths = sorted(CORPUS.glob("*.json"))
        assert len(paths) >= 8
        for path in paths:
            out = tmp_path / f"{path.stem}.out.json"
            main(["diagnose", str(path), *flags, "-o", str(out)])
            spec = load_problem(path)
            verdict = diagnose(spec.a, spec.b, spec.c, alpha=spec.alpha, tol=spec.tol,
                               with_oracle="--oracle" in flags,
                               with_quadrature="--quadrature" in flags
                               or spec.method == "quadrature")
            expected = dict(verdict.checks)
            if "--bridge" in flags:
                expected["unipotent_bridge"] = unipotent_bridge_check(verdict, spec.tol)
            assert parse_report(out.read_text())["checks"] == expected, path.name


class TestConsoleEntryPoint:
    def test_module_invocation_exit_codes(self, tmp_path):
        problem = write_problem(tmp_path / "p.json", [[1]], [[1]], [[1]])
        completed = subprocess.run(
            [sys.executable, "-m", "sylvcert.cli", "diagnose", str(problem)],
            capture_output=True, text=True)
        assert completed.returncode == 1
        assert "unsolvable" in completed.stdout
