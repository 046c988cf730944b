"""CLI subcommands, exit codes, and file round-trips."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainedbell import (
    ConditionalDistribution,
    qm_chained_distribution,
    read_json_file,
)
from chainedbell import chained, cli, hvm
from chainedbell.cli import main


def module_env():
    """Environment for a ``python -m chainedbell`` child that imports the
    same package as the tests, whether or not it is installed."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    payload = json.loads(out) if out.strip() else None
    return code, payload


class TestQm:
    def test_chsh_value(self, capsys):
        code, payload = run_cli(capsys, "qm", "2")
        assert code == 0
        assert payload["chain_value"] == pytest.approx(2 - math.sqrt(2), abs=1e-9)
        assert len(payload["terms"]) == 4
        assert payload["distribution"]["parties"] == 2

    def test_large_chain_approaches_asymptote(self, capsys):
        code, payload = run_cli(capsys, "qm", "100")
        assert code == 0
        asymptote = math.pi**2 / 800
        assert abs(payload["chain_value"] - asymptote) / asymptote < 1e-4

    def test_zero_visibility_scores_n(self, capsys):
        # Uniform noise has chain value N: every one of the 2N terms is 1/2.
        code, payload = run_cli(capsys, "qm", "2", "--visibility", "0")
        assert code == 0
        assert payload["chain_value"] == pytest.approx(2.0, abs=1e-12)

    def test_small_n_is_usage_error(self, capsys):
        code, payload = run_cli(capsys, "qm", "1")
        assert code == 2
        assert "error" in payload

    def test_out_file_round_trips(self, capsys, tmp_path):
        out = tmp_path / "qm.json"
        code, payload = run_cli(capsys, "qm", "3", "--out", str(out))
        assert code == 0
        assert read_json_file(out) == qm_chained_distribution(3)


class TestCheck:
    def test_quantum_export_passes(self, capsys, tmp_path):
        out = tmp_path / "qm.json"
        run_cli(capsys, "qm", "4", "--out", str(out))
        code, payload = run_cli(capsys, "check", str(out))
        assert code == 0
        assert payload["nonsignaling"]["passed"] is True
        assert payload["nonsignaling"]["max_violation"] < 1e-12

    def test_signaling_table_exits_one(self, capsys, tmp_path):
        table = np.zeros((2, 2, 2, 2))
        for a in range(2):
            for b in range(2):
                table[a, b, b, 0] = 1.0
        dist = ConditionalDistribution((2, 2), (2, 2), table)
        path = tmp_path / "sig.json"
        path.write_text(json.dumps(dist.to_dict()))
        code, payload = run_cli(capsys, "check", str(path))
        assert code == 1
        assert payload["nonsignaling"]["max_violation"] == pytest.approx(1.0)

    @pytest.mark.parametrize("locality", [[], ["--locality-bound"]])
    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
    def test_bad_tolerance_is_usage_error(self, capsys, tmp_path, tol, locality):
        # NaN and -1 once failed every table (exit 1, and NaN printed bare
        # NaN); inf passed every table.
        out = tmp_path / "qm.json"
        run_cli(capsys, "qm", "3", "--out", str(out))
        code, stdout = run_in_process(["check", str(out), f"--tol={tol}", *locality])
        assert code == 2
        assert one_document(stdout) == {"error": "--tol must be finite and non-negative"}

    @pytest.mark.parametrize("locality", [[], ["--locality-bound"]])
    def test_zero_tolerance_is_allowed(self, capsys, tmp_path, locality):
        out = tmp_path / "det.json"
        table = np.zeros((2, 2, 2, 2))
        table[:, :, 0, 0] = 1.0  # both sides always answer 0: exactly non-signaling
        out.write_text(json.dumps(ConditionalDistribution((2, 2), (2, 2), table).to_dict()))
        code, payload = run_cli(capsys, "check", str(out), "--tol", "0", *locality)
        assert code == 0
        assert payload["nonsignaling"] == {"max_violation": 0.0, "passed": True, "tol": 0.0}

    def test_malformed_json_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, payload = run_cli(capsys, "check", str(path))
        assert code == 2

    def test_locality_bound_on_deterministic_export(self, capsys, tmp_path):
        # A local deterministic table with an appended trivial hidden party
        # satisfies the bound: marginal distances 1/2 against chain value 1.
        from chainedbell import DeterministicStrategy

        dist = DeterministicStrategy((0, 0), (0, 0)).distribution()
        path = tmp_path / "det.json"
        path.write_text(json.dumps(dist.to_dict()))
        code, payload = run_cli(capsys, "check", str(path), "--locality-bound")
        assert code == 0
        assert payload["locality_bound"]["passed"] is True
        assert payload["locality_bound"]["lhs_x"] == pytest.approx([0.5, 0.5])
        assert payload["locality_bound"]["bound"] == pytest.approx(0.5)

    def test_locality_bound_on_three_party_export(self, capsys, tmp_path):
        from chainedbell import hidden_joint_form, induced_distribution, leggett_model

        p3 = hidden_joint_form(induced_distribution(leggett_model(2, [[0, 0, 1], [1, 0, 0]])))
        path = tmp_path / "model3.json"
        path.write_text(json.dumps(p3.to_dict()))
        code, payload = run_cli(capsys, "check", str(path), "--locality-bound")
        assert code == 0
        assert payload["locality_bound"]["passed"] is True
        assert len(payload["locality_bound"]["lhs_x"]) == 2


class TestFalsify:
    def test_uniform_inplane_leggett_falsified(self, capsys, tmp_path):
        path = tmp_path / "leggett.json"
        path.write_text(json.dumps({"type": "leggett", "n": 2, "grid": 360}))
        code, payload = run_cli(capsys, "falsify", str(path), "--n", "2")
        assert code == 1
        assert payload["falsified"] is True
        assert payload["max_distance"] == pytest.approx(1 / math.pi, abs=1e-4)
        assert payload["bound"] == pytest.approx((2 - math.sqrt(2)) / 2, abs=1e-12)

    def test_orthogonal_leggett_consistent(self, capsys, tmp_path):
        path = tmp_path / "orth.json"
        path.write_text(
            json.dumps({"type": "leggett", "n": 2, "vectors": [[0, 1, 0], [0, -1, 0]]})
        )
        code, payload = run_cli(capsys, "falsify", str(path), "--n", "2")
        assert code == 0
        assert payload["falsified"] is False
        assert payload["max_distance"] < 1e-9

    def test_nonlocal_model_consistent(self, capsys, tmp_path):
        path = tmp_path / "nl.json"
        path.write_text(json.dumps({"type": "nonlocal_qm", "n": 2}))
        code, payload = run_cli(capsys, "falsify", str(path), "--n", "2")
        assert code == 0
        assert payload["max_distance"] < 1e-9

    def test_local_deterministic_model_falsified(self, capsys, tmp_path):
        path = tmp_path / "det.json"
        path.write_text(
            json.dumps(
                {
                    "type": "local_deterministic",
                    "n": 2,
                    "alice_tables": [[0, 1], [1, 0]],
                    "bob_tables": [[0, 0]],
                }
            )
        )
        code, payload = run_cli(capsys, "falsify", str(path), "--n", "2")
        assert code == 1
        assert payload["max_distance"] == pytest.approx(0.5, abs=1e-12)

    def test_monte_carlo_mode_reports_seed(self, capsys, tmp_path):
        path = tmp_path / "det.json"
        path.write_text(
            json.dumps(
                {
                    "type": "local_deterministic",
                    "n": 2,
                    "alice_tables": [[0, 1], [1, 0]],
                    "bob_tables": [[0, 0]],
                }
            )
        )
        code, payload = run_cli(
            capsys, "falsify", str(path), "--n", "2", "--shots", "20000", "--seed", "9"
        )
        assert payload["mode"] == "monte_carlo"
        assert payload["seed"] == 9
        assert payload["max_distance"] == pytest.approx(0.5, abs=0.05)

    @pytest.mark.parametrize("field", ["n_u", "n_v"])
    @pytest.mark.parametrize("shots", [[], ["--shots", "100", "--seed", "1"]])
    def test_empty_hidden_alphabet_is_usage_error(self, capsys, tmp_path, field, shots):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"type": "nonlocal_qm", "n": 2, field: 0}))
        code, payload = run_cli(capsys, "falsify", str(path), "--n", "2", *shots)
        assert code == 2
        assert "at least 1" in payload["error"]

    def test_shape_mismatch_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "nl.json"
        path.write_text(json.dumps({"type": "nonlocal_qm", "n": 3}))
        code, payload = run_cli(capsys, "falsify", str(path), "--n", "2")
        assert code == 2

    def test_exact_leggett_reads_uv_weights(self, capsys, tmp_path):
        # All of Alice's weight sits on the in-plane vector; exact mode must
        # see it as the model and Monte-Carlo routes do.
        path = tmp_path / "uv.json"
        path.write_text(json.dumps({
            "type": "leggett", "n": 2, "vectors": [[0, 0, 1], [0, 1, 0]],
            "uv_weights": [[0.5, 0.5], [0, 0]],
        }))
        code, exact = run_cli(capsys, "falsify", str(path), "--n", "2")
        assert code == 1
        assert exact["mode"] == "exact"
        assert exact["max_distance"] == pytest.approx(0.5, abs=1e-12)
        code, sampled = run_cli(
            capsys, "falsify", str(path), "--n", "2", "--shots", "200000", "--seed", "3"
        )
        assert code == 1
        assert sampled["max_distance"] == pytest.approx(0.5, abs=1e-2)

    def test_uv_weights_shape_mismatch_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "uv.json"
        path.write_text(json.dumps({
            "type": "leggett", "n": 2, "vectors": [[0, 0, 1], [0, 1, 0]],
            "uv_weights": [[1.0]],
        }))
        code, payload = run_cli(capsys, "falsify", str(path), "--n", "2")
        assert code == 2
        assert "uv_weights" in payload["error"]

    @pytest.mark.parametrize("shots", [[], ["--shots", "100", "--seed", "1"]])
    def test_leggett_chain_length_mismatch_is_usage_error(self, capsys, tmp_path, shots):
        path = tmp_path / "n3.json"
        path.write_text(json.dumps({"type": "leggett", "n": 3, "vectors": [[0, 0, 1]]}))
        code, payload = run_cli(capsys, "falsify", str(path), "--n", "2", *shots)
        assert code == 2
        assert "does not match --n" in payload["error"]

    @pytest.mark.parametrize("shots", [[], ["--shots", "100", "--seed", "1"]])
    def test_negative_uv_weight_is_usage_error(self, capsys, tmp_path, shots):
        # Row sums (0, 1) are valid Alice weights; the -1 entry is not.
        path = tmp_path / "neg.json"
        path.write_text(json.dumps({
            "type": "leggett", "n": 2, "vectors": [[0, 0, 1], [1, 0, 0]],
            "uv_weights": [[1, -1], [0, 1]],
        }))
        code, payload = run_cli(capsys, "falsify", str(path), "--n", "2", *shots)
        assert code == 2
        assert "non-negative" in payload["error"]

    @pytest.mark.parametrize("shots", [[], ["--shots", "100", "--seed", "1"]])
    @pytest.mark.parametrize("document", [[1, 2], "leggett", 3, None])
    def test_non_object_document_is_usage_error(self, capsys, tmp_path, document, shots):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(document))
        code, payload = run_cli(capsys, "falsify", str(path), "--n", "2", *shots)
        assert code == 2
        assert "JSON object" in payload["error"]


class TestHostileDocuments:
    """Inputs that once got a verdict or a traceback; every mode that reads
    the document must call them a usage error (exit 2)."""

    MODES = {
        "falsify": ("falsify", "{}", "--n", "2"),
        "falsify_shots": ("falsify", "{}", "--n", "2", "--shots", "1000", "--seed", "1"),
        "experiment": ("experiment", "--source", "{}", "--n", "2", "--shots", "1000",
                       "--seed", "1"),
    }
    NAN, INF = float("nan"), float("inf")
    NON_FINITE = {
        "u_weights": {"type": "local_deterministic", "n": 2,
                      "alice_tables": [[0, 0], [1, 1]], "bob_tables": [[0, 0]],
                      "u_weights": [NAN, 1], "v_weights": [1]},
        # 0 * inf in the u_weights x v_weights product would warn.
        "v_weights": {"type": "local_deterministic", "n": 2,
                      "alice_tables": [[0, 0], [1, 1], [0, 1]],
                      "bob_tables": [[0, 0], [1, 1], [1, 0]],
                      "u_weights": [0.0, 0.0, 1.0], "v_weights": [INF, 1 / 3, 1 / 3]},
        "uv_weights": {"type": "local_deterministic", "n": 2,
                       "alice_tables": [[0, 0], [1, 1]], "bob_tables": [[0, 0]],
                       "uv_weights": [[NAN], [1]]},
        "vectors": {"type": "leggett", "n": 2, "vectors": [[NAN, 0, 0], [0, 0, 1]]},
        "weights": {"type": "leggett", "n": 2, "vectors": [[1, 0, 0], [0, 0, 1]],
                    "weights": [NAN, 1]},
        "visibility": {"type": "nonlocal_qm", "n": 2, "visibility": NAN},
    }

    def run_mode(self, capsys, mode, path):
        return run_cli(capsys, *(arg.format(path) for arg in self.MODES[mode]))

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize("field", list(NON_FINITE))
    def test_non_finite_model_input_is_usage_error(self, capsys, tmp_path, mode, field):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(self.NON_FINITE[field]))  # writes a bare NaN
        code, payload = self.run_mode(capsys, mode, path)
        assert code == 2
        assert "finite" in payload["error"] or "visibility" in payload["error"]

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize(
        "document, error",
        [
            ('{"type": "nonlocal_qm", "n": 1e400}', "finite integer"),
            ('{"type": "local_deterministic", "n": 2, "alice_tables": [[1e400, 0]],'
             ' "bob_tables": [[0, 0]]}', "bits"),
            ('{"type": "local_deterministic", "n": 2, "alice_tables": [[0, 0]],'
             ' "bob_tables": [[1000000000000000000000000000000, 0]]}', "bits"),
        ],
        ids=["n", "table_infinity", "table_big_int"],
    )
    def test_integer_overflow_is_usage_error(self, capsys, tmp_path, mode, document, error):
        # int() raises OverflowError, an ArithmeticError that would
        # otherwise exit 3; table entries that large are not bits.
        path = tmp_path / "big.json"
        path.write_text(document)
        code, payload = self.run_mode(capsys, mode, path)
        assert code == 2
        assert error in payload["error"]

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize(
        "document, field",
        [
            ({"type": "local_deterministic", "n": 2, "alice_tables": [["1", True]],
              "bob_tables": [[0, 0]]}, "alice_tables"),
            ({"type": "local_deterministic", "n": 2, "alice_tables": [[0, 1]],
              "bob_tables": [[0, True]]}, "bob_tables"),
            ({"type": "nonlocal_qm", "n": "2", "n_u": 3}, "n"),
            ({"type": "nonlocal_qm", "n": True}, "n"),
            ({"type": "nonlocal_qm", "n": 2, "n_u": "3"}, "n_u"),
            ({"type": "leggett", "n": 2, "grid": " 4 "}, "grid"),
            ({"type": "nonlocal_qm", "n": 2, "visibility": "0.9"}, "visibility"),
            ({"type": "leggett", "n": 2, "vectors": [[0, 0, 1], [1, 0, "0"]]}, "vectors"),
        ],
        ids=["alice_tables", "bob_tables", "n_string", "n_bool", "n_u", "grid",
             "visibility", "vectors"],
    )
    def test_strings_and_booleans_are_usage_errors(self, capsys, tmp_path, mode, document,
                                                   field):
        # NumPy and int() read "1", " 4 " and true as numbers: the first
        # document was once falsified (exit 1), the others got a verdict.
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(document))
        code, payload = self.run_mode(capsys, mode, path)
        assert code == 2
        assert payload["error"].startswith(f"{field} must be numeric, got ")

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize("entry", [0.5, 1.5, -0.25])
    def test_fractional_strategy_output_is_usage_error(self, capsys, tmp_path, mode, entry):
        # An int64 cast once made 0.5 the bit 0 and 1.5 the bit 1: a verdict.
        path = tmp_path / "frac.json"
        path.write_text(json.dumps({"type": "local_deterministic", "n": 2,
                                    "alice_tables": [[entry, 1]], "bob_tables": [[0, 1]]}))
        code, payload = self.run_mode(capsys, mode, path)
        assert code == 2
        assert payload == {"error": "strategy outputs must be bits"}

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize("kind", ["leggett", "local_deterministic", "nonlocal_qm"])
    def test_huge_chain_length_is_rejected_before_any_table(self, capsys, tmp_path,
                                                            monkeypatch, mode, kind):
        # The document's n is compared with --n first: a model of N = 10**12
        # was once built (or its chained angles listed) before the check.
        def build(*args):
            raise AssertionError("a model was built")

        monkeypatch.setattr(hvm, "_model_of_kind", build)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"type": kind, "n": 10**12}))
        code, payload = self.run_mode(capsys, mode, path)
        assert code == 2
        assert payload == {"error": "model chain length does not match --n"}

    @pytest.mark.parametrize("mode", [*MODES, "check"])
    @pytest.mark.parametrize("opener", ["[", '{"a": '])
    def test_deep_nesting_is_usage_error(self, capsys, tmp_path, mode, opener):
        path = tmp_path / "deep.json"
        path.write_text(opener * 100_000)
        if mode == "check":
            code, payload = run_cli(capsys, "check", str(path))
        else:
            code, payload = self.run_mode(capsys, mode, path)
        assert code == 2
        assert "nested too deeply" in payload["error"]

    def test_infinite_table_size_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text(
            '{"parties": 2, "outputs": [2, 2], "inputs": [1e400, 2], "table": []}'
        )
        code, payload = run_cli(capsys, "check", str(path))
        assert code == 2
        assert "malformed distribution document" in payload["error"]

    @pytest.mark.parametrize("mode", list(MODES))
    def test_empty_v_vectors_is_usage_error(self, capsys, tmp_path, mode):
        # Bob's uniform weights were 1 / len(v_vectors), a division by zero.
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"type": "leggett", "n": 2, "grid": 4,
                                    "weights": [0.25, 0.25, 0.25, 0.25], "v_vectors": []}))
        code, payload = self.run_mode(capsys, mode, path)
        assert code == 2
        assert "v_vectors must be a non-empty" in payload["error"]

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize(
        "given, missing", [("u_weights", "v_weights"), ("v_weights", "u_weights")]
    )
    def test_one_side_weights_alone_is_usage_error(self, capsys, tmp_path, mode, given, missing):
        # A lone v_weights was once dropped without a word, and a lone
        # u_weights failed with the bare message "'v_weights'".
        doc = {"type": "local_deterministic", "n": 2,
               "alice_tables": [[0, 0]], "bob_tables": [[0, 0], [1, 1]],
               given: [1] if given == "u_weights" else [1, 0]}
        path = tmp_path / "lone.json"
        path.write_text(json.dumps(doc))
        code, payload = self.run_mode(capsys, mode, path)
        assert code == 2
        assert payload["error"].startswith(f"{missing} is missing")

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize(
        "weights, error",
        [
            ({"u_weights": [1], "v_weights": [1]}, "u_weights must have length 2"),
            ({"u_weights": [0.5, 0.5], "v_weights": [0.5, 0.5]}, "v_weights must have length 1"),
        ],
        ids=["u_weights", "v_weights"],
    )
    def test_side_weights_length_is_named(self, capsys, tmp_path, mode, weights, error):
        # These were reported as "uv_weights must have shape (2, 1)", a
        # field the document does not have.
        doc = {"type": "local_deterministic", "n": 2,
               "alice_tables": [[0, 0], [1, 1]], "bob_tables": [[0, 0]], **weights}
        path = tmp_path / "length.json"
        path.write_text(json.dumps(doc))
        code, payload = self.run_mode(capsys, mode, path)
        assert code == 2
        assert payload == {"error": error}

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize(
        "document, field",
        [
            ({"type": "nonlocal_qm"}, "n"),
            ({"type": "leggett", "grid": 4}, "n"),
            ({"type": "local_deterministic", "n": 2, "bob_tables": [[0, 0]]},
             "alice_tables"),
            ({"type": "local_deterministic", "n": 2, "alice_tables": [[0, 0]]},
             "bob_tables"),
            ({"type": "custom_table", "n": 2}, "distribution"),
        ],
        ids=["nonlocal_qm", "leggett", "alice_tables", "bob_tables", "custom_table"],
    )
    def test_missing_field_is_named(self, capsys, tmp_path, mode, document, field):
        # These once failed with the bare KeyError text, e.g. "'n'".
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(document))
        code, payload = self.run_mode(capsys, mode, path)
        assert code == 2
        assert payload == {"error": f"{field} is missing from the model document"}

    def test_both_side_weights_are_read(self, capsys, tmp_path):
        # Bob always plays table [0, 0]: every chain term but the wrap one
        # is 0, so the chain value is 1 (uniform over both tables: 2).
        doc = {"type": "local_deterministic", "n": 2,
               "alice_tables": [[0, 0]], "bob_tables": [[0, 0], [1, 1]],
               "u_weights": [1], "v_weights": [1, 0]}
        path = tmp_path / "both.json"
        path.write_text(json.dumps(doc))
        code, payload = self.run_mode(capsys, "experiment", path)
        assert code == 0
        assert payload["reference_chain_value"] == 1.0

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize(
        "document, field",
        [
            ({"type": "nonlocal_qm", "n": 2.7}, "n"),
            ({"type": "local_deterministic", "n": 2.5, "alice_tables": [[0, 0]],
              "bob_tables": [[0, 0]]}, "n"),
            ({"type": "leggett", "n": 2, "grid": 12.5}, "grid"),
            ({"type": "nonlocal_qm", "n": 2, "n_u": 1.5}, "n_u"),
            ({"type": "nonlocal_qm", "n": 2, "n_v": 2.5}, "n_v"),
        ],
        ids=["n", "n_local_deterministic", "grid", "n_u", "n_v"],
    )
    def test_fractional_size_is_usage_error(self, capsys, tmp_path, mode, document, field):
        # int() truncated these: "n": 2.7 was analysed as N = 2 (exit 0).
        path = tmp_path / "frac.json"
        path.write_text(json.dumps(document))
        code, payload = self.run_mode(capsys, mode, path)
        assert code == 2
        assert payload == {"error": f"{field} must be an integer, got {document[field]!r}"}

    @pytest.mark.parametrize("mode", list(MODES))
    def test_integral_float_size_is_read(self, capsys, tmp_path, mode):
        path = tmp_path / "two.json"
        path.write_text(json.dumps({"type": "nonlocal_qm", "n": 2.0, "n_u": 3.0}))
        code, _ = self.run_mode(capsys, mode, path)
        assert code == 0

    @pytest.mark.parametrize("mode", list(MODES))
    def test_nan_uv_weight_is_named_non_finite(self, capsys, tmp_path, mode):
        # The NaN entry was reported as "uv_weights must be non-negative".
        path = tmp_path / "nan_uv.json"
        path.write_text(json.dumps({
            "type": "leggett", "n": 2, "vectors": [[0, 0, 1], [1, 0, 0]],
            "uv_weights": [[self.NAN, 0], [0, 1]],
        }))
        code, payload = self.run_mode(capsys, mode, path)
        assert code == 2
        assert payload == {"error": "uv_weights must be finite"}

    @pytest.mark.parametrize("mode", ["falsify", "falsify_shots"])
    def test_falsify_reads_the_model_file_once(self, capsys, tmp_path, monkeypatch, mode):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"type": "nonlocal_qm", "n": 2}))
        reads = []
        load = cli._load_json
        monkeypatch.setattr(cli, "_load_json", lambda p: reads.append(p) or load(p))
        monkeypatch.setattr(cli, "model_from_json_file", None)
        code, _ = self.run_mode(capsys, mode, path)
        assert code == 0
        assert reads == [path]


class TestScan:
    def test_rows_and_values(self, capsys, tmp_path):
        out = tmp_path / "scan.csv"
        code, payload = run_cli(capsys, "scan", "--n-max", "12", "--out", str(out))
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 11
        values = [float(r["chain_value"]) for r in rows]
        assert values[0] == pytest.approx(2 - math.sqrt(2), abs=1e-12)
        assert all(a > b for a, b in zip(values, values[1:]))  # decreasing at v=1
        assert float(rows[0]["locality_bound"]) == pytest.approx(values[0] / 2)

    def test_noisy_scan_has_interior_minimum(self, capsys, tmp_path):
        out = tmp_path / "scan.csv"
        code, _ = run_cli(
            capsys, "scan", "--n-max", "100", "--visibility", "0.99", "--out", str(out)
        )
        assert code == 0
        with open(out) as fh:
            values = [float(r["chain_value"]) for r in csv.DictReader(fh)]
        best = values.index(min(values))
        assert 0 < best < len(values) - 1

    @pytest.mark.parametrize("args", [["--visibility", "-1"], ["--visibility", "nan"]])
    def test_bad_visibility_leaves_no_file(self, capsys, tmp_path, args):
        out = tmp_path / "scan.csv"
        code, payload = run_cli(capsys, "scan", "--n-max", "5", *args, "--out", str(out))
        assert code == 2
        assert "visibility" in payload["error"]
        assert not out.exists()

    def test_small_n_max_is_usage_error(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "scan", "--n-max", "1", "--out", str(tmp_path / "x.csv"))
        assert code == 2


class TestGoldenScan:
    """sha256 of the CSV files that ``scan --out`` wrote through
    ``csv.writer``; the one-pass writer must reproduce them byte for byte."""

    @pytest.mark.parametrize(
        "n_max, visibility, file_sha256",
        [
            ("2", None, "51ffb16c22bece2e5d6b80fe5c1758ca2d2b18e35a60889bf430e9412a229c04"),
            ("2", "0.93", "dd9956213f80c64e30f88314260de972c789ed70fd4e93399f11cefc23b4ba16"),
            ("2", "0.0", "98e9f3ed8f0cc7d30457306fa1856b3530c86163843d8e824458c8f63dda8895"),
            ("5", None, "cf59aa81bbf988c56d6c01f9bca636894a5c9b293cd47039e5dcf89c88ce2001"),
            ("5", "0.93", "4c3ada8d20f7fd9ee4bcdc3c880f1ce7a0fb4c871e6186a338135657d540691b"),
            ("5", "0.0", "3bf069078353346c1619e3dee3650a21c28b27f04c508f818f553c3429b02705"),
            ("100", None, "77988b9638b01329e66be5f451274bc03dfa83f13c7d236dc440d42c403c5379"),
            ("100", "0.93", "6811250ff2b67a7ea92c76944ee506f00fe8decd2579517134a43c19d55ec0e1"),
            ("100", "0.0", "afc4e1ae8c32fd099e40a3b61ae57b3b6a4b9d0f195b347cf1a523012bfbd8a3"),
            ("5000", None, "5e376ae8cb3f6f14a328bff1482897cf7b14a4616776db35bb0ce1fb076100e4"),
            ("5000", "0.93", "9f88c8aef42f05c010b373362990b28c527b906b5fc7917b071d9a5a29e2ded3"),
            ("5000", "0.0", "367535cae7f1cb2ab528de115333dccaa06a612dd545c051a944f8d52a29d947"),
        ],
    )
    def test_out_file(self, capsys, tmp_path, n_max, visibility, file_sha256):
        out = tmp_path / "scan.csv"
        extra = [] if visibility is None else ["--visibility", visibility]
        code, payload = run_cli(capsys, "scan", "--n-max", n_max, *extra, "--out", str(out))
        assert code == 0
        assert payload["rows"] == int(n_max) - 1
        assert hashlib.sha256(out.read_bytes()).hexdigest() == file_sha256


class TestExperiment:
    def test_qm_pipeline(self, capsys, tmp_path):
        out = tmp_path / "shots.csv"
        code, payload = run_cli(
            capsys,
            "experiment", "--source", "qm", "--n", "2", "--shots", "20000",
            "--seed", "5", "--confidence", "0.99", "--out", str(out),
        )
        assert code == 0
        truth = 2 - math.sqrt(2)
        assert abs(payload["report"]["point_estimate"] - truth) < 0.05
        assert payload["report"]["upper_bound"] >= payload["report"]["point_estimate"]
        assert payload["max_locality_bound"] == pytest.approx(
            payload["report"]["upper_bound"] / 2
        )
        assert payload["reference_chain_value"] == pytest.approx(truth, abs=1e-9)
        with open(out) as fh:
            assert sum(1 for _ in fh) == 20001  # header plus one row per shot

    def test_model_source_writes_annotated_csv(self, capsys, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(
            json.dumps(
                {
                    "type": "local_deterministic",
                    "n": 2,
                    "alice_tables": [[0, 0]],
                    "bob_tables": [[0, 0]],
                }
            )
        )
        out = tmp_path / "shots.csv"
        code, payload = run_cli(
            capsys,
            "experiment", "--source", str(model), "--n", "2", "--shots", "500",
            "--seed", "3", "--out", str(out),
        )
        assert code == 0
        assert payload["report"]["point_estimate"] == pytest.approx(1.0, abs=1e-12)
        assert payload["reference_chain_value"] == 1.0
        with open(out) as fh:
            assert fh.readline().strip() == "a,b,x,y,u,v"

    def test_zero_shots_is_usage_error(self, capsys):
        code, _ = run_cli(
            capsys, "experiment", "--source", "qm", "--n", "2", "--shots", "0", "--seed", "1"
        )
        assert code == 2

    def test_missing_pair_is_numerical_failure(self, capsys):
        code, payload = run_cli(
            capsys, "experiment", "--source", "qm", "--n", "6", "--shots", "4", "--seed", "1"
        )
        assert code == 3
        assert "never sampled" in payload["error"]

    def test_seed_derived_and_echoed_when_absent(self, capsys):
        code, payload = run_cli(
            capsys, "experiment", "--source", "qm", "--n", "2", "--shots", "100"
        )
        assert code == 0
        assert isinstance(payload["seed"], int)

    def test_same_seed_same_report(self, capsys):
        args = ("experiment", "--source", "qm", "--n", "2", "--shots", "5000", "--seed", "77")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second


    @pytest.mark.parametrize(
        "rows",
        ["2,0,0,1\r\n", "0,0,1,1\r\n-1,1,0,1\r\n", "0,1,0,1\r\n0,0.5,0,1\r\n"],
        ids=["a_equals_n", "negative_a", "non_integer_cell"],
    )
    def test_malformed_shot_csv_is_usage_error(self, capsys, tmp_path, monkeypatch, rows):
        # Replace the CSV the run writes with a hand-written one, so the
        # read-back and fold see it.
        def write_by_hand(blocks, path):
            path.write_text("a,b,x,y\r\n" + rows, newline="")
            return rows.count("\n")

        monkeypatch.setattr(cli, "write_shots_csv", write_by_hand)
        code, payload = run_cli(
            capsys,
            "experiment", "--source", "qm", "--n", "2", "--shots", "100",
            "--seed", "1", "--out", str(tmp_path / "shots.csv"),
        )
        assert code == 2
        assert payload["error"]


class TestGoldenStreams:
    """Values recorded from the per-shot implementation; the same seed must
    keep giving the same shots, estimates and CSV bytes."""

    NONLOCAL_QM = {"type": "nonlocal_qm", "n": 2, "visibility": 0.9, "n_u": 3, "n_v": 3}

    @pytest.mark.parametrize(
        "source, args, report, csv_sha256",
        [
            (
                "qm",
                ("--n", "3", "--shots", "100000", "--seed", "7", "--visibility", "0.9"),
                (0.6630852727871007, 0.7702566760968744, 10972),
                "1b260744fca4ddc4ce109b08985e2f10b231827db53bc1454cefafaa523aa568",
            ),
            (
                "model",
                ("--n", "2", "--shots", "100000", "--seed", "11"),
                (0.7224179087868057, 0.7686685497244454, 24909),
                "794a90bd35874e2b8d9f25325f89ab8bf51a7afe87be4481cf82f49f76564eb7",
            ),
        ],
        ids=["qm", "nonlocal_qm"],
    )
    def test_experiment(self, capsys, tmp_path, source, args, report, csv_sha256):
        if source == "model":
            source = tmp_path / "model.json"
            source.write_text(json.dumps(self.NONLOCAL_QM))
        out = tmp_path / "shots.csv"
        payloads = []
        for extra in ((), ("--out", str(out))):
            code, payload = run_cli(capsys, "experiment", "--source", str(source), *args, *extra)
            assert code == 0
            got = payload["report"]
            assert (got["point_estimate"], got["upper_bound"], got["shots_per_pair"]) == report
            payloads.append(payload)
        payloads[1].pop("out")
        assert payloads[0] == payloads[1]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha256

    @pytest.mark.parametrize(
        "model, args, distances, stat_tolerance",
        [
            (
                NONLOCAL_QM,
                ("--shots", "20000", "--seed", "5"),
                [[0, 0.00312500000000001], [1, 0.005075000000000027]],
                0.0336846185194316,
            ),
            (
                {"type": "leggett", "n": 2, "grid": 360},
                ("--shots", "3000", "--seed", "4"),
                [[0, 0.3228333333333333], [1, 0.33066666666666666]],
                12.674054173894437,
            ),
        ],
        ids=["nonlocal_qm", "leggett_grid_360"],
    )
    def test_falsify_monte_carlo(self, capsys, tmp_path, model, args, distances, stat_tolerance):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        code, payload = run_cli(capsys, "falsify", str(path), "--n", "2", *args)
        assert code == 0
        assert payload == {
            "n": 2,
            "model_type": model["type"],
            "seed": int(args[-1]),
            "mode": "monte_carlo",
            "shots_per_pair": int(args[1]),
            "per_setting_distance": distances,
            "bound": 0.2928932188134525,
            "max_distance": distances[1][1],
            "falsified": False,
            "stat_tolerance": stat_tolerance,
        }

    @pytest.mark.parametrize(
        "model, args, report, csv_sha256",
        [
            (
                {
                    "type": "local_deterministic", "n": 3,
                    "alice_tables": [[0, 1, 1], [1, 0, 0], [0, 0, 1], [1, 1, 1]],
                    "bob_tables": [[0, 1, 0], [1, 1, 0], [0, 0, 0]],
                    "u_weights": [0.1, 0.2, 0.3, 0.4], "v_weights": [0.5, 0.25, 0.25],
                },
                ("--n", "3", "--shots", "50000", "--seed", "13"),
                (3.0840746681988076, 3.235518589752653, 5509, 3.100000000000001),
                "242f8f73edfac130ad4c14d724fd3638715f844598f44ebc16c7e034693d0cd7",
            ),
            (
                # 4 * 24 * 24 = 2304 outcomes: chunks of 1736 rows, six of them.
                {"type": "leggett", "n": 2, "grid": 24},
                ("--n", "2", "--shots", "10000", "--seed", "17"),
                (1.9952584651570247, 2.1415190966524595, 2479, 1.9999999999999993),
                "e1c688863e8eb1a016c1519f8d6a6ae2639b5d7088f162f631989a0cd3575818",
            ),
        ],
        ids=["local_deterministic", "leggett_grid_24"],
    )
    def test_experiment_wide_alphabet(self, capsys, tmp_path, model, args, report, csv_sha256):
        source = tmp_path / "model.json"
        source.write_text(json.dumps(model))
        out = tmp_path / "shots.csv"
        code, payload = run_cli(capsys, "experiment", "--source", str(source), *args,
                                "--out", str(out))
        assert code == 0
        got = payload["report"]
        assert (got["point_estimate"], got["upper_bound"], got["shots_per_pair"],
                payload["reference_chain_value"]) == report
        assert payload["max_locality_bound"] == 0.5 * report[1]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha256


class TestBruteforceAndLp:
    def test_bruteforce(self, capsys):
        code, payload = run_cli(capsys, "bruteforce", "--n", "3")
        assert code == 0
        assert payload["min_value"] == 1.0
        assert len(payload["witness"]["alice_map"]) == 3

    def test_lp_respects_lower_bound(self, capsys, tmp_path):
        out = tmp_path / "argmin.json"
        code, payload = run_cli(
            capsys, "lp", "--n", "2", "--delta", "0.25", "--out", str(out)
        )
        assert code == 0
        assert payload["min_value"] >= 0.5 - 1e-9
        assert payload["gap"] == pytest.approx(payload["min_value"] - 0.5, abs=1e-15)
        argmin = read_json_file(out)
        assert argmin.input_sizes == (2, 2)

    def test_lp_domain_error(self, capsys):
        code, _ = run_cli(capsys, "lp", "--n", "2", "--delta", "0.7")
        assert code == 2
        code, payload = run_cli(capsys, "lp", "--n", "101", "--delta", "0.3")
        assert code == 2
        assert "2 <= N <= 100" in payload["error"]


class TestGoldenBruteforce:
    """Full stdout of ``bruteforce --n k`` recorded from the broadcast
    implementation, as sha256 of the bytes; the witness tie-break (first
    row-major minimum) is part of the contract."""

    @pytest.mark.parametrize(
        "n, stdout_sha256",
        [
            (2, "ca7be129d377c3968d5de9df2ac2aeb7c655a0fd6b55ea4bddc7432089304b70"),
            (3, "b82a980706f8a8597f7bf9b79a7a7d8ebf11f477c6d40fcb15f2ab8d83bf156c"),
            (4, "5d864e0bb2525635abd36509a404f4521812b7dd621dd32fb967508db7f0346f"),
            (5, "71442bd214634262edc476e4fd048e4ca5e6452cbb9771367e51a41dcf3818f9"),
            (6, "6950abb228ecb9c3c1ad32f2ce7cf76ab94ccd6c0c4a87b17bbeb604fbd601cb"),
            (7, "81f3265aa7444dd46d3bc88bad26f6604de6b3b160098c7b338efdda30ec901a"),
            (8, "ba251b26720f82167d94d1f906aa56ad7f78e5031c00c092108a6c55a81dc4c4"),
            (9, "5693600da824780851cd64f5aac204ad53f7e59d51f3b328e702dcf8cf3e1c14"),
            (10, "e5c0a5c51055166e7c4508f274de7ec12a19bf50d17d58f872f8100b737a49fb"),
        ],
    )
    def test_stdout(self, capsys, n, stdout_sha256):
        code = main(["bruteforce", "--n", str(n)])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out) == {
            "n": n,
            "min_value": 1.0,
            "witness": {"alice_map": [0] * n, "bob_map": [0] * n},
        }
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha256


class TestGoldenLp:
    """Values of the certified closed-form optimum: ``min_value`` is
    ``2*delta`` bit for bit, so the gap is exactly 0."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize(
        "delta, min_value", [("0.1", 0.2), ("0.3", 0.6), ("0.4567", 0.9134)]
    )
    def test_values(self, capsys, n, delta, min_value):
        code, payload = run_cli(capsys, "lp", "--n", str(n), "--delta", delta)
        assert code == 0
        assert payload["min_value"] == min_value == 2.0 * float(delta)
        assert payload["gap"] == 0.0
        assert payload["branch_values"] == [min_value, min_value]

    def test_dual_certificate_at_n_2(self, capsys):
        # Rows: 4 pair normalisations, 4 marginal equalities, the bias row.
        code, payload = run_cli(capsys, "lp", "--n", "2", "--delta", "0.3")
        assert code == 0
        assert payload["dual_certificate"] == [
            [0, 0, 0, -1, -1, 1, 1, 1, 2],
            [-2, 0, 0, 1, 1, -1, -1, -1, 2],
        ]

    @pytest.mark.parametrize(
        "delta, table",
        [
            (
                "0.3",
                [0.8, 0.0, 0.0, 0.2,
                 0.6, 0.2, 0.2, 0.0,
                 0.8, 0.0, 0.0, 0.2,
                 0.8, 0.0, 0.0, 0.2],
            ),
            (
                "0.4567",
                [0.9567, 0.0, 0.0, 0.043300000000000005,
                 0.9134, 0.043300000000000005, 0.043300000000000005, 0.0,
                 0.9567, 0.0, 0.0, 0.043300000000000005,
                 0.9567, 0.0, 0.0, 0.043300000000000005],
            ),
        ],
    )
    def test_argmin_at_n_2(self, capsys, delta, table):
        code, payload = run_cli(capsys, "lp", "--n", "2", "--delta", delta)
        assert code == 0
        assert payload["argmin"] == {
            "parties": 2, "outputs": [2, 2], "inputs": [2, 2], "table": table,
        }


class TestGoldenFiles:
    """sha256 of the table files that ``qm --out`` and ``lp --out`` wrote
    when every entry was formatted by ``json.dumps``; the memoised writer
    must reproduce them byte for byte."""

    @pytest.mark.parametrize(
        "argv, file_sha256",
        [
            (("qm", "2"), "32a9a6155fa6eeb8e5fb2b84b71f85fde131a1daaa014e47dd39d86837615d14"),
            (("qm", "2", "--visibility", "0.93"),
             "f0aecb395e9bd3a6248875078146fe7b54ef1023f143c5565ab00f00ae76dbc5"),
            (("qm", "23"), "9a5d4b3544c73b89663f643e630153af666ed44a5e7dbab1b47599f34ca7d040"),
            (("qm", "23", "--visibility", "0.93"),
             "8e0aee8d1f9a3e49f361889cbd38014502e21fd8f1dc23d3b27cd5bd92849361"),
            (("qm", "101"), "20f28ca0603e8f0d816326bf84f5680b7362b0205db7995b4c9921f83219993c"),
            (("qm", "101", "--visibility", "0.93"),
             "aa8d97bbcbe58b474c3376974b2341dedbd7b03483cade0f15b21e0d8b780edd"),
            (("qm", "200"), "496d44e3fe870b4607b49d480061cc3098cc965dc0b3bd87bba10dea3c34f1fc"),
            (("qm", "200", "--visibility", "0.93"),
             "3ee95e57f5a37a6a2b3ec3946ba33b8b8fea4c17146d697879b6cdfa1dd3daa1"),
            (("lp", "--n", "3", "--delta", "0.2"),
             "a86c7a5845cb67c0408e1cbac0ef074fd0d73016c11429f59b0cdc3e86dda084"),
        ],
        ids=lambda v: "-".join(v) if isinstance(v, tuple) else None,
    )
    def test_out_file(self, capsys, tmp_path, argv, file_sha256):
        out = tmp_path / "table.json"
        code, payload = run_cli(capsys, *argv, "--out", str(out))
        assert code == 0
        assert payload["out"] == str(out)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == file_sha256


class TestGoldenFalsify:
    """Exit code and sha256 of the full stdout of ``falsify`` on fixed model
    documents, recorded when ``locality_measure`` looped over the settings
    one at a time; measuring them all in one pass must keep every byte."""

    ZERO_ROWS_UV = [[0.1, 0.0, 0.2, 0.05], [0.0] * 4, [0.15, 0.1, 0.0, 0.4], [0.0] * 4]

    @pytest.mark.parametrize(
        "document, args, code, stdout_sha256",
        [
            ({"type": "leggett", "n": 50, "grid": 3600}, (), 1,
             "51148b93cacd65d8f5adafa58db5b972e7a2973f99b4f2f44ab7a5e06e6790ab"),
            ({"type": "leggett", "n": 50, "grid": 720}, (), 1,
             "cf6d32d558d95a27761ab770e59f9d083b4df351e48385f11bf166ebed9ef28a"),
            ({"type": "leggett", "n": 30, "grid": 1200}, (), 1,
             "02f1edcfb43ea9917b428030e87043d312eb28d0ffab36fd6352247aba4935c1"),
            ({"type": "leggett", "n": 4, "vectors": [[0, 1, 0], [0, -1, 0]]}, (), 0,
             "5bd3b1a725069fb12f61da8f1d97fb2a40ae6140c1da8cf86e276dd071a8c82f"),
            ({"type": "leggett", "n": 3,
              "vectors": [[0, 0, 1], [1, 0, 0], [0, 1, 0], [0.6, 0.8, 0]],
              "uv_weights": ZERO_ROWS_UV}, (), 0,
             "5427b378356a2fdfb619dfdf8566420f079c781e1bff3be5aa14bdf03fb2fd0c"),
            ({"type": "nonlocal_qm", "n": 3, "visibility": 0.8, "n_u": 2, "n_v": 3}, (), 0,
             "d3be187797249c7249f2f2df354972a11d25bf4bcbc47599be87319357973986"),
            ({"type": "local_deterministic", "n": 3,
              "alice_tables": [[0, 1, 1], [1, 0, 0], [0, 0, 1]],
              "bob_tables": [[1, 0, 1], [0, 0, 0]],
              "u_weights": [0.5, 0.0, 0.5], "v_weights": [0.25, 0.75]}, (), 1,
             "30ed79c19fec662160de03b250bfc4a9c999f5db2f41bdb14052d64d22069f1c"),
            ({"type": "custom_table", "n": 3}, (), 0,
             "8236158134f13399819fe5f658296b9893ecd41533f2c8f4e8a7254fd4e72c5c"),
            ({"type": "leggett", "n": 2, "grid": 360}, ("--shots", "2000", "--seed", "3"), 0,
             "c2b81e381e4241b47fc5220138a2f7982f7df989629af6dcd8e6e2d776512781"),
            ({"type": "nonlocal_qm", "n": 2, "n_u": 4, "n_v": 4},
             ("--shots", "5000", "--seed", "9"), 0,
             "102f8c26fe03d67a6052419e820b1dae09fc39a14576c33280ee978e91660b27"),
        ],
        ids=["leggett_grid_3600_n50", "leggett_grid_720_n50", "leggett_grid_1200_n30",
             "leggett_orthogonal", "leggett_zero_weight_rows", "nonlocal_qm",
             "local_deterministic", "custom_table", "shots_leggett_grid_360",
             "shots_nonlocal_qm_4x4"],
    )
    def test_stdout(self, capsys, tmp_path, document, args, code, stdout_sha256):
        if document["type"] == "custom_table":
            document = {**document, "distribution": qm_chained_distribution(3).to_dict()}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(document))
        got = main(["falsify", str(path), "--n", str(document["n"]), *args])
        out = capsys.readouterr().out
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, stdout_sha256)


class TestGoldenCheck:
    """Exit code and sha256 of the full stdout of ``check`` and ``check
    --locality-bound``, recorded when the non-signaling check visited every
    context pair and summed its marginals with ``table.sum``, and the
    locality bound built two distributions per setting.  Pruning the pairs,
    adding output planes and measuring every setting in one pass must keep
    every byte: ``max_violation``, ``lhs_x`` and ``lhs_y`` included."""

    @staticmethod
    def write_table(name, path):
        """Write the named input table to ``path``."""
        from chainedbell import (
            DeterministicStrategy, hidden_joint_form, induced_distribution,
            inplane_grid, leggett_model,
        )

        if name.startswith("qm_"):
            n, *noisy = name[3:].split("_v")
            argv = ["qm", n, "--out", str(path)]
            if noisy:
                argv += ["--visibility", "0.9"]
            assert main(argv) == 0
            return
        if name == "deterministic":
            dist = DeterministicStrategy((0, 0), (0, 0)).distribution()
        elif name == "signaling":  # Alice's output copies Bob's input
            table = np.zeros((2, 2, 2, 2))
            for b in range(2):
                table[:, b, b, 0] = 1.0
            dist = ConditionalDistribution((2, 2), (2, 2), table)
        else:  # three-party Leggett exports; the hidden output has 4, 9 or 100 values
            vectors = {
                "leggett3": [[0, 0, 1], [1, 0, 0]],
                "leggett3_wide": [[0, 0, 1], [1, 0, 0], [0.6, 0, 0.8]],
                "leggett3_grid": inplane_grid(10),
            }[name]
            n = 3 if name == "leggett3_wide" else 2
            dist = hidden_joint_form(induced_distribution(leggett_model(n, vectors)))
        path.write_text(json.dumps(dist.to_dict()))

    @pytest.mark.parametrize(
        "name, locality, code, stdout_sha256",
        [
            ("qm_2", False, 0,
             "f61e1e2662fad5193a3cbc4bfb4d92b3d9209b0a3e55513460e64da4fc5dcb54"),
            ("qm_2", True, 0,
             "7a6fcd284e72911a8b0149a72d7485c3f0f03bb004dc7f7695d9af3382c4ebbf"),
            ("qm_2_v09", False, 0,
             "f61e1e2662fad5193a3cbc4bfb4d92b3d9209b0a3e55513460e64da4fc5dcb54"),
            ("qm_2_v09", True, 0,
             "83e55ac1033c0b3980c746e2f01f88da6bc732dc804a95907dd4084d44b1aff6"),
            ("qm_3", False, 0,
             "6169a647fefd5dc7afdcbbab9f8560865e138b0df174217cb2edd53f6a9ffdae"),
            ("qm_3", True, 0,
             "023eed0ed4cc3c46eb8a0455f7809c1208c7fc55b79efc74bd50a043be95d9e0"),
            ("qm_3_v09", False, 0,
             "f8958588ee65c1cee66e701c43a418ff0741029a3fe779e34530c3ea2f49325b"),
            ("qm_3_v09", True, 0,
             "6eee4d244318e6d115718907ea5919f9cd5d7406423cd3c959ea13e458f3b9d5"),
            ("qm_24", False, 0,
             "ac0c6bcef9049b4fb9560b49db4d112c63888d2a0ea52730846b67895afca52f"),
            ("qm_24", True, 0,
             "a865ce49579b4aa63bda80ece9f6d566ef0d11a25d7ff6defa586f8bc1fc2494"),
            ("qm_24_v09", False, 0,
             "ac0c6bcef9049b4fb9560b49db4d112c63888d2a0ea52730846b67895afca52f"),
            ("qm_24_v09", True, 0,
             "113760cf2c8ae003d0470b72204255ffc9c65d17215b70e006f134de2be29c87"),
            ("qm_100", False, 0,
             "bf3bf5b7173c4b9e9388c78e7c47027a09270031a0a98b4f8afd0144d1da271d"),
            ("qm_100", True, 0,
             "e44d13f64ab031cd3a805e3ac43d1490082ca43d9f8f552aba032d88a3a2245b"),
            ("qm_100_v09", False, 0,
             "bf3bf5b7173c4b9e9388c78e7c47027a09270031a0a98b4f8afd0144d1da271d"),
            ("qm_100_v09", True, 0,
             "8c24984b6f523481bfd7406f8398147fe9f9d1773d5a59826bc959dfa08e0c11"),
            ("qm_200_v09", False, 0,
             "fa645876070bf29f9a964c69cc3963ae46a7d7a3cc662734f42f7f69767585d7"),
            ("deterministic", False, 0,
             "a1ede72274aa1ea6fc962adc6f85b85d92f9c527c52cbdc97e3cebd57d7ecdbe"),
            ("deterministic", True, 0,
             "e32f814e04b2bcce52b14def99f1d8f041b0441f9c7b196b086da216b69a73ab"),
            ("leggett3", False, 0,
             "a1ede72274aa1ea6fc962adc6f85b85d92f9c527c52cbdc97e3cebd57d7ecdbe"),
            ("leggett3", True, 0,
             "3207be2d5804ec71945a697516f625be2239e794272ac1ab75cf91a6a9c03577"),
            ("leggett3_wide", False, 0,
             "62c3f5c7c2f07de74754581c5b18c494fe37a8a735af1dbc00f259fa034db12c"),
            ("leggett3_wide", True, 0,
             "bde803c21d4f36ac91621bd2c5002771e0693ca3f9b92fc4253173185915575e"),
            ("leggett3_grid", False, 0,
             "f61e1e2662fad5193a3cbc4bfb4d92b3d9209b0a3e55513460e64da4fc5dcb54"),
            ("leggett3_grid", True, 0,
             "f15d79811472b891d5c30d0acb497cc98501f46f101b9519fd5ef8748fd79e53"),
            ("signaling", False, 1,
             "5b57618b40851c7d3c5d64e8df118071a1956fa7ca94d469f99b8d04d85e71da"),
            ("signaling", True, 1,
             "a3fbd4c5a829c8584996f1fd07486c0f4ceb84eb30a79b52510befd8bdfea4bf"),
        ],
    )
    def test_stdout(self, capsys, tmp_path, name, locality, code, stdout_sha256):
        path = tmp_path / "table.json"
        self.write_table(name, path)
        capsys.readouterr()
        got = main(["check", str(path)] + (["--locality-bound"] if locality else []))
        out = capsys.readouterr().out
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, stdout_sha256)


class TestHarness:
    def test_usage_error_exit_code(self, capsys):
        assert main(["qm"]) == 2  # missing argument
        capsys.readouterr()

    def test_parser_is_built_once(self, capsys):
        main(["qm", "2"])
        before = cli.build_parser.cache_info()
        for _ in range(10):
            assert main(["bruteforce", "--n", "2"]) == 0
        after = cli.build_parser.cache_info()
        capsys.readouterr()
        assert after.misses == before.misses == 1
        assert after.hits == before.hits + 10

    def test_shared_parser_keeps_no_option_between_calls(self, capsys):
        code, payload = run_cli(capsys, "qm", "3", "--visibility", "0.5")
        assert (code, payload["visibility"]) == (0, 0.5)
        code, payload = run_cli(capsys, "qm", "3")
        assert (code, payload["visibility"]) == (0, 1.0)
        assert payload["chain_value"] == pytest.approx(6 * math.sin(math.pi / 12) ** 2)

    @pytest.mark.parametrize(
        "argv, code", [(["qm", "--bogus"], 2), (["lp"], 2), (["--help"], 0), (["qm", "-h"], 0)]
    )
    def test_exit_from_parser_leaves_next_call_correct(self, capsys, argv, code):
        assert main(argv) == code
        capsys.readouterr()
        again, payload = run_cli(capsys, "lp", "--n", "2", "--delta", "0.1")
        assert again == 0
        assert (payload["n"], payload["delta"]) == (2, 0.1)
        assert "out" not in payload and "argmin" in payload

    def test_failed_identity_check_is_numerical_failure(self, capsys, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise AssertionError("distance identity violated: 0.1 vs 0.2")

        monkeypatch.setattr(cli, "assert_nonsignaling", broken)
        path = tmp_path / "qm.json"
        assert main(["qm", "2", "--out", str(path)]) == 0
        capsys.readouterr()
        code, payload = run_cli(capsys, "check", str(path))
        assert code == 3
        assert payload == {"error": "distance identity violated: 0.1 vs 0.2"}

    def test_out_of_memory_is_numerical_failure(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 38.6 GiB")

        monkeypatch.setattr(cli, "lp_min_chain_given_bias", exhausted)
        code, payload = run_cli(capsys, "lp", "--n", "2", "--delta", "0.1")
        assert code == 3
        assert payload == {"error": "out of memory: Unable to allocate 38.6 GiB"}

    def test_closed_stdout_exits_two_without_traceback(self):
        # The payload (about 360 kB) is far larger than a pipe buffer, so
        # writing it fails once the reader has gone.
        proc = subprocess.Popen(
            [sys.executable, "-m", "chainedbell", "qm", "60"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=module_env(),
        )
        try:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            _, stderr = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 2
        assert stderr == b""

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "chainedbell", "qm", "2"],
            capture_output=True,
            text=True,
            env=module_env(),
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["chain_value"] == pytest.approx(2 - math.sqrt(2), abs=1e-9)


class TestUsageErrorsAreJson:
    """An argument the parser rejects prints one JSON error on stdout and
    nothing on stderr, and exits 2, like every other usage error."""

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["check", "t.json", "--tol", "-inf"],
             "chainedbell check: argument --tol: expected one argument"),
            (["falsify", "m.json"],
             "chainedbell falsify: the following arguments are required: --n"),
            (["experiment", "--source", "qm", "--n", "2"],
             "chainedbell experiment: the following arguments are required: --shots"),
            (["qm", "two"], "chainedbell qm: argument n: invalid int value: 'two'"),
            (["qm", "2", "--extra"], "chainedbell: unrecognized arguments: --extra"),
            ([], "chainedbell: the following arguments are required: command"),
        ],
    )
    def test_parser_error(self, capsys, argv, error):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert one_document(out) == {"error": error}
        assert err == ""

    def test_unknown_subcommand(self, capsys):
        code = main(["bogus"])
        out, err = capsys.readouterr()
        assert code == 2
        assert one_document(out)["error"].startswith(
            "chainedbell: argument command: invalid choice: 'bogus'"
        )
        assert err == ""

    @pytest.mark.parametrize("argv", [["--help"], ["falsify", "-h"]])
    def test_help_still_exits_zero(self, capsys, argv):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: chainedbell")
        assert err == ""

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "chainedbell", "falsify", "m.json"],
            capture_output=True, text=True, env=module_env(),
        )
        assert proc.returncode == 2
        assert proc.stderr == ""
        assert "--n" in one_document(proc.stdout)["error"]


class TestCertificateFailure:
    """A closed-form point that fails its check is a numerical failure:
    exit 3 and one JSON error, with no solver to fall back on."""

    def raise_surplus(x):
        x[-1] += 1e-9  # breaks the bias row by 1e-9

    def raise_bias_dual(y):
        y[-1] += 1  # A^T y then exceeds c on a cell of pair 0

    def lower_bias_dual(y):
        y[-1] -= 1  # still dual feasible, but b . y = delta - 1/2

    @pytest.mark.parametrize(
        "builder, tweak, error",
        [
            ("_chain_pair_primal", raise_surplus,
             "LP certificate: primal point infeasible (least entry 0, residual 1e-09)"),
            ("_chain_pair_dual", raise_bias_dual,
             "LP certificate: dual point infeasible (A^T y - c = 1)"),
            ("_chain_pair_dual", lower_bias_dual,
             "LP certificate: duality gap 0.6 above 1e-12"),
        ],
        ids=["primal", "dual", "gap"],
    )
    def test_failed_check_is_numerical_failure(self, capsys, monkeypatch, builder, tweak, error):
        build = getattr(chained, builder)

        def wrong(*args):
            point = build(*args)
            tweak(point)
            return point

        monkeypatch.setattr(chained, builder, wrong)
        code = main(["lp", "--n", "2", "--delta", "0.1"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == ""
        assert json.loads(captured.out) == {"error": error}


class TestCrossCheckFailure:
    """A per-setting locality distance whose two forms disagree (average
    and joint in ``falsify``, half-L1 and excess in ``check
    --locality-bound``) is a numerical failure, whichever setting it is
    on: exit 3 and one JSON error, with no traceback."""

    @pytest.mark.parametrize("shifted", [0, 3])
    def test_failed_cross_check_is_numerical_failure(self, capsys, tmp_path, monkeypatch,
                                                     shifted):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"type": "leggett", "n": 4, "grid": 12}))
        fsum, calls = math.fsum, []

        def shifting_fsum(values):
            calls.append(None)
            return fsum(values) + (1e-6 if len(calls) - 1 == shifted else 0.0)

        monkeypatch.setattr(hvm.math, "fsum", shifting_fsum)
        code = main(["falsify", str(path), "--n", "4"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == ""
        payload = one_document(captured.out)
        assert list(payload) == ["error"]
        assert payload["error"].startswith("average-form distance ")
        assert len(calls) == 4

    def test_failed_locality_bound_cross_check_is_numerical_failure(self, capsys, tmp_path,
                                                                     monkeypatch):
        # Every half-L1 distance then misses its excess form by more than
        # the identity tolerance.
        path = tmp_path / "qm.json"
        assert main(["qm", "3", "--out", str(path)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(hvm, "IDENTITY_TOL", -1.0)
        code = main(["check", str(path), "--locality-bound"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == ""
        payload = one_document(captured.out)
        assert list(payload) == ["error"]
        assert payload["error"].startswith("distance identity violated: ")


# -- exit 1 is a verdict ---------------------------------------------------

NAN, INF = float("nan"), float("inf")
# Hidden unit vectors in the plane, orthogonal to it and off both, and
# vectors no model may take.
UNIT_VECTORS = [[0, 0, 1], [1, 0, 0], [0, 0, -1], [0, 1, 0], [0, -1, 0],
                [0.6, 0.8, 0], [0.48, 0.6, 0.64]]
BAD_VECTORS = [[1, 1, 0], [0, 0, 0], [NAN, 0, 1]]


def rarely(draw) -> bool:
    """True one time in eight (a middle value: Hypothesis favours the ends)."""
    return draw(st.integers(1, 8)) == 5


def vector_lists(draw, max_size):
    vectors = draw(st.lists(st.sampled_from(UNIT_VECTORS), min_size=1, max_size=max_size))
    if rarely(draw):
        vectors = draw(st.sampled_from([[], vectors + [draw(st.sampled_from(BAD_VECTORS))]]))
    return vectors


def weight_list(draw, size):
    """Weights of the given length, now and then off."""
    k = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    weights = [c / sum(k) for c in k] if sum(k) else [1.0 / size] * size
    if rarely(draw):
        weights = draw(st.sampled_from([weights[1:], weights + [0.5], [-0.25] + weights,
                                        [NAN] + weights[1:], [INF] + weights[1:]]))
    return weights


@st.composite
def model_documents(draw, n):
    if rarely(draw):
        return draw(st.sampled_from([[], "leggett", None]))
    doc = {"type": draw(st.sampled_from(["leggett", "local_deterministic", "nonlocal_qm",
                                         "custom_table"] * 3 + ["telepathy"]))}
    doc["n"] = draw(st.sampled_from([n] * 7 + [n + 1]))
    if rarely(draw):
        del doc["n"]
    if doc["type"] == "leggett":
        if draw(st.booleans()):
            doc["vectors"] = vector_lists(draw, 4)
            k = len(doc["vectors"])
        else:
            k = doc["grid"] = draw(st.integers(1, 6))
        if draw(st.integers(0, 3)) == 0:
            doc["v_vectors"] = vector_lists(draw, 3)
        if draw(st.booleans()):
            doc["weights"] = weight_list(draw, max(k, 1))
        if draw(st.integers(0, 3)) == 0:
            kv = len(doc.get("v_vectors", [None] * k))
            flat = weight_list(draw, max(k * kv, 1))
            doc["uv_weights"] = [flat[i * kv:(i + 1) * kv] for i in range(k)]
    elif doc["type"] == "local_deterministic":
        for tables in ("alice_tables", "bob_tables"):
            rows = draw(st.lists(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n),
                                 min_size=1, max_size=3))
            if rarely(draw):
                rows[0][0] = draw(st.sampled_from([2, -1, 0.5]))
            doc[tables] = rows
        nu, nv = len(doc["alice_tables"]), len(doc["bob_tables"])
        fields = draw(st.sampled_from([(), (), ("u_weights", "v_weights"), ("uv_weights",),
                                       ("u_weights",), ("v_weights",)]))
        if "u_weights" in fields:
            doc["u_weights"] = weight_list(draw, nu)
        if "v_weights" in fields:
            doc["v_weights"] = weight_list(draw, nv)
        if "uv_weights" in fields:
            flat = weight_list(draw, nu * nv)
            doc["uv_weights"] = [flat[i * nv:(i + 1) * nv] for i in range(nu)]
    elif doc["type"] == "nonlocal_qm":
        doc["visibility"] = draw(st.sampled_from([1.0, 0.7, 0.0, 1.0, 0.7, 0.0, -0.1, NAN]))
        doc["n_u"] = draw(st.sampled_from([1, 2, 3, 0]))
    elif doc["type"] == "custom_table":
        doc["distribution"] = draw(distribution_documents(n, parties=2))
    return doc


@st.composite
def distribution_documents(draw, n, parties=None):
    """Two- or three-party tables with N chain settings: non-signaling
    (quantum, product or local deterministic chain outcomes with a hidden
    party that reads only its own input), nearly or plainly signaling, or
    malformed."""
    parties = parties or draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_c, o_z = (1, 1) if parties == 2 else (draw(st.integers(1, 2)), draw(st.integers(1, 3)))
    form = draw(st.sampled_from(["quantum", "product", "deterministic", "signaling"]))
    if form == "quantum":
        v = draw(st.sampled_from([1.0, 0.5, 0.0]))
        xy = v * qm_chained_distribution(n).table + (1 - v) * 0.25
    elif form == "product":
        ma, mb = rng.random((n, 2)), rng.random((n, 2))
        ma /= ma.sum(axis=1, keepdims=True)
        mb /= mb.sum(axis=1, keepdims=True)
        xy = ma[:, None, :, None] * mb[None, :, None, :]
    elif form == "deterministic":
        f, g = rng.integers(0, 2, size=n), rng.integers(0, 2, size=n)
        xy = np.zeros((n, n, 2, 2))
        xy[np.arange(n)[:, None], np.arange(n)[None, :], f[:, None], g[None, :]] = 1.0
    else:
        xy = rng.random((n, n, 2, 2))
        xy /= xy.sum(axis=(2, 3), keepdims=True)
    # The hidden party answers its input c with z = c mod o_z or at random.
    z = np.zeros((n_c, o_z))
    if draw(st.booleans()):
        z[np.arange(n_c), np.arange(n_c) % o_z] = 1.0
    else:
        z = rng.random((n_c, o_z))
        z /= z.sum(axis=1, keepdims=True)
    table = xy[:, :, None, :, :, None] * z[None, None, :, None, None, :]
    # Move some of Alice's mass at one context: she signals by that much.
    eps = draw(st.sampled_from([0.0, 0.0, 1e-10, 1e-8, 0.1]))
    eps = min(eps, table[0, 0, 0, 0, 0, 0])
    table[0, 0, 0, 0, 0, 0] -= eps
    table[0, 0, 0, 1, 0, 0] += eps
    doc = {"parties": parties, "outputs": [2, 2] + [o_z] * (parties - 2),
           "inputs": [n, n] + [n_c] * (parties - 2), "table": table.ravel().tolist()}
    if rarely(draw):
        doc["table"] = draw(st.sampled_from([doc["table"][1:], [-1.0] + doc["table"][1:]]))
    return doc


# Bytes that are not a JSON document, or not UTF-8: truncated, doubled or
# bare documents, byte-order marks, invalid UTF-8 sequences and JSON
# values of every type.
RAW_DOCUMENTS = st.sampled_from([
    b"", b" ", b"{", b'{"type": "leggett", "n": 2', b"{}{}", b"nul", b"NaN", b"1", b"-0",
    b"[]", b'"leggett"', b"true", b"null", b"1e400", b"\xef\xbb\xbf{}", b"\xff\xfe{\x00}\x00",
    b"\x80", b'{"type": "\xc3"}', b'{"type": "leggett", "n": 2, "grid": 4}\xff',
    b"\x00" * 8, b'{"parties": 2}', b'{"type": "custom_table", "n": 2, "distribution": 7}',
])


def run_in_process(argv):
    """Exit code and stdout of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def one_document(stdout):
    """The single JSON document a run printed (json.loads rejects a second)."""
    assert stdout.endswith("\n")
    payload = json.loads(stdout)
    assert isinstance(payload, dict)
    return payload


class TestExitCodeMeansVerdict:
    """Exit 1 is a verdict and nothing else: a falsified model, a failed
    non-signaling check or a failed locality bound; an error is 2 or 3."""

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(2, 3), st.booleans())
    def test_falsify(self, tmp_path_factory, data, n, shots):
        doc = data.draw(model_documents(n))
        path = tmp_path_factory.mktemp("falsify") / "model.json"
        path.write_text(json.dumps(doc))
        argv = ["falsify", str(path), "--n", str(n)]
        argv += ["--shots", "64", "--seed", "5"] if shots else []
        code, stdout = run_in_process(argv)
        payload = one_document(stdout)
        assert code in (0, 1, 2, 3)
        if code in (2, 3):
            assert list(payload) == ["error"]
        else:
            assert (code == 1) == (payload["falsified"] is True)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(2, 3))
    def test_experiment_on_a_model(self, tmp_path_factory, data, n):
        doc = data.draw(model_documents(n))
        path = tmp_path_factory.mktemp("experiment") / "model.json"
        path.write_text(json.dumps(doc))
        code, stdout = run_in_process(
            ["experiment", "--source", str(path), "--n", str(n), "--shots", "64", "--seed", "5"]
        )
        payload = one_document(stdout)
        assert code in (0, 2, 3)
        if code:
            assert list(payload) == ["error"]
        else:
            assert (payload["shots"], payload["seed"]) == (64, 5)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.binary(max_size=64), RAW_DOCUMENTS), st.sampled_from(
        [["falsify", "--n", "2"], ["falsify", "--n", "2", "--shots", "8", "--seed", "1"],
         ["check"], ["check", "--locality-bound"]]))
    def test_raw_bytes(self, tmp_path_factory, raw, argv):
        path = tmp_path_factory.mktemp("raw") / "input.json"
        path.write_bytes(raw)
        code, stdout = run_in_process([argv[0], str(path), *argv[1:]])
        assert code in (2, 3)
        assert list(one_document(stdout)) == ["error"]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 3).flatmap(distribution_documents), st.booleans())
    def test_check(self, tmp_path_factory, doc, locality_bound):
        path = tmp_path_factory.mktemp("check") / "dist.json"
        path.write_text(json.dumps(doc))
        argv = ["check", str(path)] + (["--locality-bound"] if locality_bound else [])
        code, stdout = run_in_process(argv)
        payload = one_document(stdout)
        assert code in (0, 1, 2, 3)
        if code in (2, 3):
            assert list(payload) == ["error"]
            return
        failed = payload["nonsignaling"]["passed"] is False
        if locality_bound:
            failed |= payload["locality_bound"]["passed"] is False
            assert payload["locality_bound"]["applicable"] == payload["nonsignaling"]["passed"]
        assert (code == 1) == failed
