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
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainedbell import (
    ConditionalDistribution,
    evaluate_chain,
    mix_with_noise,
    qm_chained_distribution,
    read_json_file,
    simulate_shots,
)
from chainedbell import chained, cli, hvm
from chainedbell.cli import main
from lemmas import plain_write_shots_csv


def module_env():
    """Environment for a ``python -m chainedbell`` child that imports the
    same package as the tests, whether or not it is installed."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def _reject_constant(name):
    raise ValueError(f"stdout holds {name}, which strict (RFC 8259) JSON does not allow")


def strict_loads(text):
    """``json.loads`` that rejects ``NaN``, ``Infinity`` and ``-Infinity``."""
    return json.loads(text, parse_constant=_reject_constant)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    payload = strict_loads(out) if out.strip() else None
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

    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    def test_small_n_is_usage_error(self, capsys, n):
        code, payload = run_cli(capsys, "qm", n)
        assert code == 2
        assert payload == {"error": "chain parameter must be at least 2"}

    def test_out_file_round_trips(self, capsys, tmp_path):
        out = tmp_path / "qm.json"
        code, payload = run_cli(capsys, "qm", "3", "--out", str(out))
        assert code == 0
        assert read_json_file(out) == qm_chained_distribution(3)


class TestStdoutTable:
    """``qm`` and ``lp`` without ``--out`` splice the table text of
    ``_json_float_list`` into the dumped payload; stdout stays
    ``json.dumps(payload, indent=2)`` of the payload with the table as a
    list, byte for byte."""

    @pytest.mark.parametrize("argv", [
        ["qm", "2"], ["qm", "3", "--visibility", "0"], ["qm", "10", "--visibility", "0.93"],
        ["qm", "30"], ["qm", "100", "--visibility", "0.5"],
        ["lp", "--n", "2", "--delta", "0"], ["lp", "--n", "3", "--delta", "0.2"],
        ["lp", "--n", "10", "--delta", "0.5"],
    ])
    def test_stdout_is_indented_json_dumps(self, capsys, argv):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        assert out == json.dumps(strict_loads(out), indent=2) + "\n"

    @pytest.mark.parametrize("n, visibility", [(2, None), (7, 0.93), (30, 0.0)])
    def test_qm_payload(self, n, visibility):
        payload, _ = cli.cmd_qm(SimpleNamespace(n=n, visibility=visibility, out=None))
        table = payload["distribution"]
        reference = {**payload, "distribution": table.to_dict()}
        assert cli._payload_text(payload) == json.dumps(reference, indent=2)

    @pytest.mark.parametrize("n, delta", [(2, 0.0), (3, 0.2), (10, 0.5)])
    def test_lp_payload_with_zeros(self, n, delta):
        payload, _ = cli.cmd_lp(SimpleNamespace(n=n, delta=delta, out=None))
        table = payload["argmin"]
        assert (table.table == 0.0).any()
        reference = {**payload, "argmin": table.to_dict()}
        assert cli._payload_text(payload) == json.dumps(reference, indent=2)

    def test_signed_zeros_keep_their_text(self):
        table = ConditionalDistribution(
            (1, 2), (2, 2), np.array([1.0, 0.0, -0.0, 0.0, -0.0, 0.5, 0.5, 0.0]).reshape(1, 2, 2, 2))
        payload = {"n": 2, "argmin": table, "after": [0.0, -0.0]}
        text = cli._payload_text(payload)
        assert text == json.dumps({**payload, "argmin": table.to_dict()}, indent=2)
        assert '"table": [\n      1.0,\n      0.0,\n      -0.0,' in text


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
        # The bound does not apply; it once printed a bare NaN, which
        # strict JSON does not allow.
        code, payload = run_cli(capsys, "check", str(path), "--locality-bound")
        assert code == 1
        assert payload["locality_bound"] == {"applicable": False, "ns_violation": 1.0,
                                             "lhs_x": [], "lhs_y": [], "bound": None,
                                             "passed": None}

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
        # A local deterministic table, read as one with a trivial hidden
        # party, satisfies the bound: marginal distances 1/2 against chain value 1.
        from lemmas import strategy_distribution

        from chainedbell import DeterministicStrategy

        dist = strategy_distribution(DeterministicStrategy((0, 0), (0, 0)))
        path = tmp_path / "det.json"
        path.write_text(json.dumps(dist.to_dict()))
        code, payload = run_cli(capsys, "check", str(path), "--locality-bound")
        assert code == 0
        assert payload["locality_bound"]["passed"] is True
        assert payload["locality_bound"]["lhs_x"] == pytest.approx([0.5, 0.5])
        assert payload["locality_bound"]["bound"] == pytest.approx(0.5)

    def test_locality_bound_on_three_party_export(self, capsys, tmp_path):
        from lemmas import hidden_joint_form, induced_distribution

        from chainedbell import leggett_model

        p3 = hidden_joint_form(induced_distribution(leggett_model(2, [[0, 0, 1], [1, 0, 0]])))
        path = tmp_path / "model3.json"
        path.write_text(json.dumps(p3.to_dict()))
        code, payload = run_cli(capsys, "check", str(path), "--locality-bound")
        assert code == 0
        assert payload["locality_bound"]["passed"] is True
        assert len(payload["locality_bound"]["lhs_x"]) == 2

    @pytest.mark.parametrize("parties", [2, 3])
    def test_product_table_gets_one_verdict_at_zero_tolerance(self, capsys, tmp_path, parties):
        # P(x|a)·P(y|b) with each row built as (p, 1 - p): some slices sum
        # to 1 only up to rounding.  A one-valued hidden party, appended to
        # a two-party table or given in a three-party one, once carried
        # that rounding into the non-signaling check: --locality-bound
        # exited 1 (ns_violation 1.1e-16) where the plain check passed.
        ma = np.array([(p, 1 - p) for p in (0.4, 0.8)])
        mb = np.array([(p, 1 - p) for p in (0.3, 0.3)])
        table = ma[:, None, :, None] * mb[None, :, None, :]
        if parties == 3:
            table = table[:, :, None, :, :, None]
        trivial = [1] * (parties - 2)
        path = tmp_path / "product.json"
        path.write_text(json.dumps({"parties": parties, "outputs": [2, 2] + trivial,
                                    "inputs": [2, 2] + trivial, "table": table.ravel().tolist()}))
        for locality in ([], ["--locality-bound"]):
            code, payload = run_cli(capsys, "check", str(path), "--tol", "0", *locality)
            assert code == 0
            assert payload["nonsignaling"] == {"max_violation": 0.0, "passed": True, "tol": 0.0}
        bound = payload["locality_bound"]
        assert bound["applicable"] is bound["passed"] is True
        assert bound["ns_violation"] == payload["nonsignaling"]["max_violation"]

    @pytest.mark.parametrize("kind", ["two_party", "three_party", "signaling"])
    def test_one_nonsignaling_pass_per_check(self, capsys, tmp_path, monkeypatch, kind):
        # --locality-bound reads its non-signaling report from the bound's
        # own test: one pass over the table, with or without the flag, and
        # the same report either way.
        from lemmas import hidden_joint_form, induced_distribution

        from chainedbell import assert_nonsignaling, leggett_model

        if kind == "two_party":
            dist = mix_with_noise(qm_chained_distribution(3), 0.93)
        elif kind == "three_party":
            dist = hidden_joint_form(induced_distribution(leggett_model(2, [[0, 0, 1], [1, 0, 0]])))
        else:
            table = np.zeros((2, 2, 2, 2))
            for a in range(2):
                for b in range(2):
                    table[a, b, b, 0] = 1.0
            dist = ConditionalDistribution((2, 2), (2, 2), table)
        path = tmp_path / "table.json"
        path.write_text(json.dumps(dist.to_dict()))
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return assert_nonsignaling(*args, **kwargs)

        for module in (cli, hvm):
            monkeypatch.setattr(module, "assert_nonsignaling", counted)
        reports = []
        for locality in ([], ["--locality-bound"]):
            calls.clear()
            code, payload = run_cli(capsys, "check", str(path), *locality)
            assert len(calls) == 1
            assert code == (1 if kind == "signaling" else 0)
            reports.append(payload["nonsignaling"])
        assert reports[0] == reports[1]
        bound = payload["locality_bound"]
        assert bound["ns_violation"] == reports[0]["max_violation"]
        assert bound["applicable"] is (kind != "signaling")
        if kind == "signaling":
            assert bound["bound"] is None and bound["passed"] is None

    def test_five_party_table_names_the_bound_it_cannot_read(self, capsys, tmp_path):
        # With the flag, the locality bound reads the table first, so its
        # party rule is the one reported.
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"parties": 5, "outputs": [2] * 5, "inputs": [1] * 5,
                                    "table": [1 / 32] * 32}))
        code, payload = run_cli(capsys, "check", str(path))
        assert code == 2
        assert payload == {"error": "non-signaling check supports at most 4 parties"}
        code, payload = run_cli(capsys, "check", str(path), "--locality-bound")
        assert code == 2
        assert payload == {"error": "locality bound needs a 2- or 3-party table"}

    @pytest.mark.parametrize("document, error", [
        ({"parties": 1, "outputs": [2], "inputs": [2], "table": [0.5] * 4},
         "locality bound needs a 2- or 3-party table"),
        ({"parties": 4, "outputs": [2, 2, 1, 1], "inputs": [2, 2, 1, 1], "table": [0.25] * 16},
         "locality bound needs a 2- or 3-party table"),
        ({"parties": 2, "outputs": [3, 2], "inputs": [2, 2], "table": [1 / 6] * 24},
         "chain parties must have binary outcomes"),
        ({"parties": 2, "outputs": [2, 2], "inputs": [2, 3], "table": [0.25] * 24},
         "chain parties must share N >= 2 settings"),
        ({"parties": 3, "outputs": [2, 2, 1], "inputs": [1, 1, 2], "table": [0.25] * 8},
         "chain parties must share N >= 2 settings"),
    ], ids=["one_party", "four_parties", "ternary_outcome", "inputs_2_3", "inputs_1_1"])
    def test_table_the_bound_cannot_read_is_usage_error(self, capsys, tmp_path, document,
                                                        error):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(document))
        code, payload = run_cli(capsys, "check", str(path))
        assert code == 0  # the non-signaling check reads any table
        code, payload = run_cli(capsys, "check", str(path), "--locality-bound")
        assert code == 2
        assert payload == {"error": error}

    @pytest.mark.parametrize("document, error", [
        ({"parties": 0, "outputs": [], "inputs": [], "table": [1.0]},
         "need one input and one output alphabet per party"),
        ({"parties": 2, "outputs": [2, 0], "inputs": [2, 2], "table": []},
         "alphabet sizes must be >= 1"),
        ({"parties": 3, "outputs": [2, 2], "inputs": [2, 2], "table": [0.25] * 16},
         "party count does not match the size lists"),
    ], ids=["no_party", "empty_alphabet", "party_count"])
    @pytest.mark.parametrize("locality", [[], ["--locality-bound"]])
    def test_malformed_document_is_usage_error(self, capsys, tmp_path, document, error,
                                               locality):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(document))
        code, payload = run_cli(capsys, "check", str(path), *locality)
        assert code == 2
        assert payload == {"error": error}


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

    @pytest.mark.parametrize("n, shots", [(2, 2**62), (8, 2**60), (2, 2**63 - 1)])
    def test_shot_count_beyond_int64_is_usage_error(self, capsys, tmp_path, n, shots):
        # shots * N counts one setting's draws, which must fit in int64;
        # beyond it the multinomial once failed with exit 3.
        path = tmp_path / "leggett.json"
        path.write_text(json.dumps({"type": "leggett", "n": n, "grid": 8}))
        code, payload = run_cli(
            capsys, "falsify", str(path), "--n", str(n), "--shots", str(shots), "--seed", "1"
        )
        assert code == 2
        assert payload == {"error": f"--shots must be at most {(2**63 - 1) // n} at --n {n}"}

    def test_largest_shot_count_is_drawn(self, capsys, tmp_path):
        path = tmp_path / "leggett.json"
        path.write_text(json.dumps({"type": "leggett", "n": 2, "grid": 8}))
        shots = (2**63 - 1) // 2
        code, payload = run_cli(
            capsys, "falsify", str(path), "--n", "2", "--shots", str(shots), "--seed", "1"
        )
        assert code in (0, 1)
        assert payload["shots_per_pair"] == shots

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

    @pytest.mark.parametrize("shots", ["0", "-5"])
    def test_non_positive_shot_count_is_usage_error(self, capsys, tmp_path, shots):
        path = tmp_path / "leggett.json"
        path.write_text(json.dumps({"type": "leggett", "n": 2, "grid": 8}))
        code, payload = run_cli(capsys, "falsify", str(path), "--n", "2", "--shots", shots,
                                "--seed", "1")
        assert code == 2
        assert payload == {"error": "shots must be at least 1"}

    @pytest.mark.parametrize("document, error", [
        ({"type": "leggett", "n": 2, "grid": 8}, "model chain length does not match --n"),
        ({"type": "leggett", "n": 1, "grid": 8}, "chain parameter must be at least 2"),
        ({"type": "nonlocal_qm", "n": 1}, "chain parameter must be at least 2"),
        ({"type": "local_deterministic", "n": 1, "alice_tables": [[0]], "bob_tables": [[1]]},
         "chain parameter must be at least 2"),
        ({"type": "custom_table", "distribution": {
            "parties": 2, "outputs": [2, 2], "inputs": [1, 1], "table": [0.25] * 4}},
         "chain parameter must be at least 2"),
    ], ids=["leggett_n_2", "leggett_n_1", "nonlocal_qm", "local_deterministic", "custom_table"])
    @pytest.mark.parametrize("shots", [[], ["--shots", "100", "--seed", "1"]])
    def test_chain_length_one_is_usage_error(self, capsys, tmp_path, document, error, shots):
        # The model reader checks the chain length; the CLI checks it no
        # second time.
        path = tmp_path / "model.json"
        path.write_text(json.dumps(document))
        code, payload = run_cli(capsys, "falsify", str(path), "--n", "1", *shots)
        assert code == 2
        assert payload == {"error": error}

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

    @pytest.mark.parametrize(
        "argv",
        [
            ("falsify", "{}", "--n", "2"),
            ("falsify", "{}", "--n", "2", "--shots", "100", "--seed", "1"),
            ("experiment", "--source", "{}", "--n", "2", "--shots", "10", "--seed", "1"),
        ],
        ids=["falsify", "falsify_shots", "experiment"],
    )
    @pytest.mark.parametrize("document", [[1, 2], "leggett", 3, None])
    def test_non_object_document_is_usage_error(self, capsys, tmp_path, document, argv):
        # experiment --source once said the document "needs a 'type' field".
        path = tmp_path / "m.json"
        path.write_text(json.dumps(document))
        code, payload = run_cli(capsys, *(arg.format(path) for arg in argv))
        assert code == 2
        assert payload == {"error": "model document must be a JSON object"}


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

    @pytest.mark.parametrize("mode", ["check"] + list(MODES))
    @pytest.mark.parametrize(
        "field, value",
        [
            ("parties", "2"),
            ("outputs", [2, "2"]),
            ("inputs", [True, 2]),
            ("table", ["0.25"] * 16),
            ("table", [True, 0, 0, 0] * 4),
        ],
        ids=["parties", "outputs", "inputs", "table_string", "table_bool"],
    )
    def test_strings_and_booleans_in_a_table_are_usage_errors(self, capsys, tmp_path, mode,
                                                              field, value):
        # A distribution document read "2", "0.25" and true as numbers:
        # check passed such tables (exit 0) and falsify gave them verdicts.
        table = {"parties": 2, "outputs": [2, 2], "inputs": [2, 2],
                 "table": [0.25] * 16, field: value}
        path = tmp_path / "typed.json"
        if mode == "check":
            path.write_text(json.dumps(table))
            code, payload = run_cli(capsys, "check", str(path))
        else:
            path.write_text(json.dumps({"type": "custom_table", "distribution": table}))
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

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize(
        "document, field",
        [
            ({"type": "leggett", "n": 10_000_000, "grid": 360}, "n"),
            ({"type": "leggett", "n": 2, "grid": 1_000_000_000}, "grid"),
            ({"type": "leggett", "n": 2, "grid": 5000, "uv_weights": [[1.0]]}, "uv_weights"),
            ({"type": "nonlocal_qm", "n": 2, "n_u": 10**12}, "n_u"),
            ({"type": "nonlocal_qm", "n": 2000}, "n"),
            ({"type": "local_deterministic", "n": 10**9, "alice_tables": [[0]],
              "bob_tables": [[1]]}, "n"),
        ],
        ids=["leggett_n", "grid", "uv_weights", "n_u", "nonlocal_table", "local_deterministic_n"],
    )
    def test_oversized_model_is_rejected_before_any_array(self, capsys, tmp_path, mode, document,
                                                          field):
        # With a matching --n, these documents once built their angle lists,
        # grids and responses until NumPy or the machine refused.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(document))
        argv = [arg.format(path) for arg in self.MODES[mode]]
        argv[argv.index("--n") + 1] = str(document["n"])
        tracemalloc.start()
        try:
            code, payload = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert payload["error"].startswith(f"model document too large: {field} asks for ")
        assert str(hvm.MAX_MODEL_ENTRIES) in payload["error"]
        assert peak < 2**20

    def test_model_at_the_size_budget_is_built(self, capsys, tmp_path):
        # N * (n_u + n_v) + grid = 2 * 2 * 1_999_999 + 1_999_999 < 10**7.
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"type": "leggett", "n": 2, "grid": 1_999_999}))
        code, payload = run_cli(capsys, "falsify", str(path), "--n", "2")
        assert code == 1 and payload["mode"] == "exact"

    # Documents at a small budget, and the numbers they ask for in all:
    # N * (n_u + n_v), plus grid, uv_weights (n_u * n_v), n_u and n_v, and
    # a nonlocal_qm table's 4 * N**2.
    AT_BUDGET = {
        "leggett_grid": ({"type": "leggett", "n": 3, "grid": 7}, 3 * 14 + 7),
        "leggett_uv_weights": ({"type": "leggett", "n": 2, "vectors": [[0, 0, 1]] * 2,
                                "v_vectors": [[1, 0, 0]] * 3, "uv_weights": [[1 / 6] * 3] * 2},
                               2 * 5 + 6),
        "local_deterministic": ({"type": "local_deterministic", "n": 3,
                                 "alice_tables": [[0, 1, 1], [1, 0, 0]],
                                 "bob_tables": [[0, 0, 0], [1, 1, 0], [0, 1, 0]]}, 3 * 5),
        "nonlocal_qm": ({"type": "nonlocal_qm", "n": 3, "n_u": 2, "n_v": 5},
                        4 * 9 + 3 * 7 + 7),
    }

    def run_at_budget(self, capsys, tmp_path, monkeypatch, mode, document, budget):
        monkeypatch.setattr(hvm, "MAX_MODEL_ENTRIES", budget)
        path = tmp_path / "sized.json"
        path.write_text(json.dumps(document))
        argv = [arg.format(path) for arg in self.MODES[mode]]
        argv[argv.index("--n") + 1] = str(document["n"])
        return run_cli(capsys, *argv)

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize("name", list(AT_BUDGET))
    def test_model_exactly_at_the_budget_is_built(self, capsys, tmp_path, monkeypatch, mode,
                                                  name):
        document, total = self.AT_BUDGET[name]
        code, payload = self.run_at_budget(capsys, tmp_path, monkeypatch, mode, document, total)
        assert code in (0, 1) and "error" not in payload

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize("name", list(AT_BUDGET))
    def test_model_one_entry_over_the_budget_is_rejected(self, capsys, tmp_path, monkeypatch,
                                                         mode, name):
        document, total = self.AT_BUDGET[name]
        code, payload = self.run_at_budget(capsys, tmp_path, monkeypatch, mode, document,
                                           total - 1)
        assert code == 2
        assert payload == {"error": f"model document too large: n asks for {total} numbers, "
                                    f"above {total - 1}"}

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize(
        "name, field, size, then",
        [("leggett_grid", "grid", 7, ("n", 49)),
         ("leggett_uv_weights", "uv_weights", 6, ("n", 16)),
         ("nonlocal_qm", "n_u", 2, ("n_v", 5)), ("nonlocal_qm", "n_v", 5, ("n", 64))],
    )
    def test_each_size_field_is_held_to_the_budget(self, capsys, tmp_path, monkeypatch, mode,
                                                   name, field, size, then):
        # One entry over, the field is named; at the budget it passes, and
        # the next field in the order checked, ``then``, is named instead.
        document, _ = self.AT_BUDGET[name]
        for budget, (named, asked) in ((size - 1, (field, size)), (size, then)):
            code, payload = self.run_at_budget(capsys, tmp_path, monkeypatch, mode, document,
                                               budget)
            assert code == 2
            assert payload == {"error": f"model document too large: {named} asks for "
                                        f"{asked} numbers, above {budget}"}

    # A table the model cannot take: 3 parties, unequal inputs, one setting.
    BAD_TABLES = {
        "three_parties": ({"parties": 3, "outputs": [2, 2, 2], "inputs": [2, 2, 2],
                           "table": [0.125] * 64},
                          "table must have shape (N, N, 2, 2), got (2, 2, 2, 2, 2, 2)"),
        "inputs_2_3": ({"parties": 2, "outputs": [2, 2], "inputs": [2, 3],
                        "table": [0.25] * 24},
                       "table must have shape (N, N, 2, 2), got (2, 3, 2, 2)"),
        "inputs_1_1": ({"parties": 2, "outputs": [2, 2], "inputs": [1, 1],
                        "table": [0.25] * 4}, "chain parameter must be at least 2"),
    }

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize("name", list(BAD_TABLES))
    def test_custom_table_of_another_shape_is_usage_error(self, capsys, tmp_path, mode, name):
        table, error = self.BAD_TABLES[name]
        path = tmp_path / "shape.json"
        path.write_text(json.dumps({"type": "custom_table", "distribution": table}))
        code, payload = self.run_mode(capsys, mode, path)
        assert code == 2
        assert payload == {"error": error}

    # Documents that a model constructor rejects after the reader has sized them.
    BAD_MODELS = {
        "weights_sum": ({"type": "leggett", "n": 2, "vectors": [[1, 0, 0], [0, 0, 1]],
                         "weights": [0.2, 0.2]}, "weights must sum to 1, got 0.4"),
        "grid_0": ({"type": "leggett", "n": 2, "grid": 0}, "need at least one grid point"),
        "grid_negative": ({"type": "leggett", "n": 2, "grid": -3},
                          "need at least one grid point"),
        "strategy_length": ({"type": "local_deterministic", "n": 2, "alice_tables": [[0, 1, 0]],
                             "bob_tables": [[0, 0]]}, "strategy tables must have shape (k, N)"),
        "custom_table_without_n": ({"type": "custom_table",
                                    "distribution": qm_chained_distribution(3).to_dict()},
                                   "model chain length does not match --n"),
    }

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize("name", list(BAD_MODELS))
    def test_model_a_constructor_rejects_is_usage_error(self, capsys, tmp_path, mode, name):
        document, error = self.BAD_MODELS[name]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(document))
        code, payload = self.run_mode(capsys, mode, path)
        assert code == 2
        assert payload == {"error": error}

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize(
        "n, error",
        [(2, "model chain length does not match --n"),
         (3, "distribution has 2 settings per side, but the model document's n is 3")],
        ids=["n_2", "n_3"],
    )
    def test_custom_table_reads_its_own_n(self, capsys, tmp_path, mode, n, error):
        # The document's n was ignored: --n 2 got a verdict, and --n 3, the
        # length the document states, was the one rejected.
        path = tmp_path / "custom.json"
        path.write_text(json.dumps({"type": "custom_table", "n": 3,
                                    "distribution": qm_chained_distribution(2).to_dict()}))
        argv = [arg.format(path) for arg in self.MODES[mode]]
        argv[argv.index("--n") + 1] = str(n)
        code, payload = run_cli(capsys, *argv)
        assert code == 2
        assert payload == {"error": error}

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
        "document, field",
        [
            ({"type": "leggett", "n": 2, "grid": 2, "uv_weights": [[0.5, 0], [0, 0.5]],
              "weights": [-7]}, "weights"),
            ({"type": "local_deterministic", "n": 2, "alice_tables": [[0, 0]],
              "bob_tables": [[0, 0]], "uv_weights": [[1]], "u_weights": [-3, 9]}, "u_weights"),
            ({"type": "local_deterministic", "n": 2, "alice_tables": [[0, 0]],
              "bob_tables": [[0, 0]], "uv_weights": [[1]], "u_weights": [1],
              "v_weights": [1]}, "u_weights"),
        ],
        ids=["leggett_weights", "lone_u_weights", "both_side_weights"],
    )
    def test_weights_next_to_uv_weights_are_usage_error(self, capsys, tmp_path, mode,
                                                        document, field):
        # uv_weights weigh both sides, so another weight field was ignored,
        # however malformed; a lone u_weights also slipped past its rule.
        path = tmp_path / "both.json"
        path.write_text(json.dumps(document))
        code, payload = self.run_mode(capsys, mode, path)
        assert code == 2
        assert payload == {"error": f"{field} cannot go with uv_weights, which weigh both sides"}

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

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize(
        "document, field",
        [
            ({"type": "leggett", "n": 2, "grid": 360, "weigths": [1]}, "weigths"),
            ({"type": "nonlocal_qm", "n": 2, "n_u": 2, "u_weights": [1, 0]}, "u_weights"),
            ({"type": "local_deterministic", "n": 2, "alice_tables": [[0, 0]],
              "bob_tables": [[0, 0]], "weights": [1]}, "weights"),
            ({"type": "custom_table", "distribution": qm_chained_distribution(2).to_dict(),
              "visibility": 0.5}, "visibility"),
        ],
        ids=["leggett_misspelt", "nonlocal_qm_weights", "local_deterministic", "custom_table"],
    )
    def test_unread_field_is_named(self, capsys, tmp_path, mode, document, field):
        # The type does not read these: the misspelt Leggett weights were
        # taken as uniform (exit 1) and the nonlocal_qm document got a
        # verdict (exit 0).
        path = tmp_path / "unread.json"
        path.write_text(json.dumps(document))
        code, payload = self.run_mode(capsys, mode, path)
        assert code == 2
        assert payload == {
            "error": f"{field} is not a field of a {document['type']} model document"}

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize("vectors", [5, None], ids=["number", "null"])
    def test_unsized_vectors_with_weights_are_named(self, capsys, tmp_path, mode, vectors):
        # The weights were shaped by len() of the vectors: "len() of
        # unsized object".
        path = tmp_path / "vectors.json"
        path.write_text(json.dumps({"type": "leggett", "n": 2, "vectors": vectors,
                                    "weights": [1]}))
        code, payload = self.run_mode(capsys, mode, path)
        assert code == 2
        assert payload == {"error": "u_vectors must be a non-empty (k, 3) array of vectors"}

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
            ({"type": "custom_table", "n": 2.5,
              "distribution": qm_chained_distribution(2).to_dict()}, "n"),
        ],
        ids=["n", "n_local_deterministic", "grid", "n_u", "n_v", "n_custom_table"],
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

    @pytest.mark.parametrize("n_max", [2, 5000])
    @pytest.mark.parametrize("visibility", ["0", "0.5", "1"])
    def test_rows_are_the_percent_r_rows(self, capsys, tmp_path, n_max, visibility):
        # The rows as "%d,%r,%r,%r" formatted them, one row at a time.
        out = tmp_path / "scan.csv"
        code, _ = run_cli(capsys, "scan", "--n-max", str(n_max), "--visibility", visibility,
                          "--out", str(out))
        assert code == 0
        v = float(visibility)
        rows = ["n,chain_value,locality_bound,qm_asymptote\r\n"]
        for n in range(2, n_max + 1):
            value = chained.noisy_chain_closed_form(n, v)
            rows.append("%d,%r,%r,%r\r\n" % (n, value, 0.5 * value, math.pi**2 / (8.0 * n)))
        assert out.read_bytes() == "".join(rows).encode()


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

    @pytest.mark.parametrize("n, visibility", [(2, 0.903258), (2, 1.0), (3, 0.85), (7, 0.93)])
    def test_model_reference_is_the_wrapped_table_chain_value(self, capsys, tmp_path, n,
                                                              visibility):
        # With trivial hidden variables the model's kernels are the noisy
        # quantum table.  Dividing every kernel by its sum once moved the
        # reference a few ulps (0.7226002860780029 for 0.7226002860780026).
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"type": "nonlocal_qm", "n": n, "visibility": visibility}))
        code, payload = run_cli(
            capsys, "experiment", "--source", str(model), "--n", str(n), "--shots", "2000",
            "--seed", "1",
        )
        assert code == 0
        table = qm_chained_distribution(n)
        if visibility != 1.0:
            table = mix_with_noise(table, visibility)
        assert payload["reference_chain_value"] == evaluate_chain(table, n).value

    @pytest.mark.parametrize(
        "argv, limit_mb",
        [
            (("experiment", "--source", "{}", "--n", "2", "--shots", "2000", "--seed", "3"), 72),
            (("falsify", "{}", "--n", "2", "--shots", "20000", "--seed", "3"), 54),
        ],
        ids=["experiment", "falsify_shots"],
    )
    def test_wide_model_peak_memory(self, capsys, tmp_path, argv, limit_mb):
        # The grid-360 Leggett model's joint has 2 M entries (16 MB).  Built
        # once, from kernels that are not copied to be clamped and divided,
        # the runs peak at about 64 and 45 MB; with the joint built twice
        # and the kernels copied twice they peaked at about 80 and 64 MB.
        model = tmp_path / "leggett.json"
        model.write_text(json.dumps({"type": "leggett", "n": 2, "grid": 360}))
        tracemalloc.start()
        try:
            code, _ = run_cli(capsys, *(arg.format(model) for arg in argv))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < limit_mb * 2**20

    @pytest.mark.parametrize(
        "argv",
        [
            ("experiment", "--source", "{}", "--n", "6", "--shots", "2000", "--seed", "3"),
            ("falsify", "{}", "--n", "6", "--shots", "2000", "--seed", "3"),
        ],
        ids=["experiment", "falsify_shots"],
    )
    def test_wide_model_memory_does_not_grow_with_setting_pairs(self, capsys, tmp_path, argv):
        # The grid-360 Leggett model at N = 6.  Through its dense
        # (N, N, n_u, n_v, 2, 2) kernels these runs peaked at 449 and
        # 412 MB; the per-side responses are 35 kB.
        model = tmp_path / "leggett.json"
        model.write_text(json.dumps({"type": "leggett", "n": 6, "grid": 360}))
        tracemalloc.start()
        try:
            code, _ = run_cli(capsys, *(arg.format(model) for arg in argv))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 40 * 2**20

    def test_wide_model_at_n_100(self, capsys, tmp_path):
        # The dense kernels of this model would take 41 GB.  Its outcomes
        # are uniform and independent, so each chain term is 1/2.
        model = tmp_path / "leggett.json"
        model.write_text(json.dumps({"type": "leggett", "n": 100, "grid": 360}))
        tracemalloc.start()
        try:
            code, payload = run_cli(capsys, "experiment", "--source", str(model), "--n", "100",
                                    "--shots", "200000", "--seed", "3")
            assert code == 0
            assert payload["reference_chain_value"] == pytest.approx(100.0, abs=1e-9)
            assert payload["report"]["point_estimate"] == pytest.approx(100.0, abs=5.0)
            code, payload = run_cli(capsys, "falsify", str(model), "--n", "100")
            assert (code, payload["falsified"]) == (1, True)
            assert payload["max_distance"] == pytest.approx(1 / math.pi, abs=1e-4)
            code, payload = run_cli(capsys, "falsify", str(model), "--n", "100",
                                    "--shots", "2000", "--seed", "3")
            # Its tolerance grows with the 720 cells (ROADMAP item 1b).
            assert code in (0, 1) and payload["mode"] == "monte_carlo"
            assert payload["max_distance"] == pytest.approx(1 / math.pi, abs=0.02)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    def test_zero_shots_is_usage_error(self, capsys, tmp_path):
        # The library raises this error before the stream is written.
        out = tmp_path / "shots.csv"
        code, payload = run_cli(capsys, "experiment", "--source", "qm", "--n", "2",
                                "--shots", "0", "--seed", "1", "--out", str(out))
        assert code == 2
        assert payload == {"error": "shots must be at least 1"}
        assert not out.exists()

    @pytest.mark.parametrize("shots, model", [("-5", False), ("0", True), ("-5", True)],
                             ids=["qm_negative", "model_zero", "model_negative"])
    def test_non_positive_shots_write_no_file(self, capsys, tmp_path, shots, model):
        source = "qm"
        if model:
            source = str(tmp_path / "model.json")
            Path(source).write_text(json.dumps({"type": "nonlocal_qm", "n": 2}))
        out = tmp_path / "shots.csv"
        code, payload = run_cli(capsys, "experiment", "--source", source, "--n", "2",
                                "--shots", shots, "--seed", "1", "--out", str(out))
        assert code == 2
        assert payload == {"error": "shots must be at least 1"}
        assert not out.exists()

    def test_first_bad_argument_the_library_meets_is_reported(self, capsys):
        # The table is built before the shot count is checked.
        code, payload = run_cli(capsys, "experiment", "--source", "qm", "--n", "1",
                                "--shots", "0", "--seed", "1")
        assert code == 2
        assert payload == {"error": "chain parameter must be at least 2"}

    @pytest.mark.parametrize("confidence", ["0", "1", "1.5", "-0.5", "nan"])
    def test_confidence_off_the_open_unit_interval_is_usage_error(self, capsys, confidence):
        code, payload = run_cli(capsys, "experiment", "--source", "qm", "--n", "2",
                                "--shots", "100", "--seed", "1", "--confidence", confidence)
        assert code == 2
        assert payload == {"error": "confidence must lie in (0, 1)"}

    def test_visibility_with_a_model_source_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"type": "nonlocal_qm", "n": 2}))
        code, payload = run_cli(capsys, "experiment", "--source", str(path), "--n", "2",
                                "--shots", "100", "--seed", "1", "--visibility", "0.9")
        assert code == 2
        assert payload == {"error": "--visibility applies only to the qm source"}

    @pytest.mark.parametrize("document, error", [
        (None, "chain parameter must be at least 2"),
        ({"type": "nonlocal_qm", "n": 2}, "model chain length does not match --n"),
        ({"type": "nonlocal_qm", "n": 1}, "chain parameter must be at least 2"),
    ], ids=["qm", "model_n_2", "model_n_1"])
    def test_chain_length_one_is_usage_error(self, capsys, tmp_path, document, error):
        source = "qm"
        if document is not None:
            source = str(tmp_path / "model.json")
            Path(source).write_text(json.dumps(document))
        code, payload = run_cli(capsys, "experiment", "--source", source, "--n", "1",
                                "--shots", "100", "--seed", "1")
        assert code == 2
        assert payload == {"error": error}

    @pytest.mark.parametrize("out", [False, True], ids=["in_memory", "out"])
    def test_shot_count_beyond_int64_is_usage_error(self, capsys, tmp_path, out):
        # The per-shot sampler once ran on until it was killed.
        extra = ("--out", str(tmp_path / "shots.csv")) if out else ()
        code, payload = run_cli(capsys, "experiment", "--source", "qm", "--n", "2",
                                "--shots", str(2**63), "--seed", "1", *extra)
        assert code == 2
        assert payload == {"error": f"--shots must be at most {2**63 - 1}"}
        assert not (tmp_path / "shots.csv").exists()

    def test_largest_shot_count_is_drawn(self, capsys):
        code, payload = run_cli(capsys, "experiment", "--source", "qm", "--n", "3",
                                "--shots", str(2**63 - 1), "--seed", "1")
        assert code == 0
        report = payload["report"]
        assert payload["shots"] == 2**63 - 1
        assert report["upper_bound"] >= report["point_estimate"]
        assert report["point_estimate"] == pytest.approx(payload["reference_chain_value"],
                                                         abs=1e-6)

    def test_missing_pair_is_numerical_failure(self, capsys, tmp_path):
        # With --out the estimate runs before the CSV is written, so the
        # failed run leaves no file (writing first left 45 bytes behind).
        out = tmp_path / "shots.csv"
        for extra in ((), ("--out", str(out))):
            code, payload = run_cli(capsys, "experiment", "--source", "qm", "--n", "6",
                                    "--shots", "4", "--seed", "1", *extra)
            assert code == 3
            assert "never sampled" in payload["error"]
            assert not out.exists()

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


class TestGoldenStreams:
    """Values recorded from the counts sampler; the same seed must keep
    giving the same counts, estimates and CSV bytes, with and without
    ``--out``."""

    NONLOCAL_QM = {"type": "nonlocal_qm", "n": 2, "visibility": 0.9, "n_u": 3, "n_v": 3}
    # One document for each kind of model the sampler tells apart, after
    # test_experiment.MODEL_SOURCES; a custom table stands in for a table
    # with weighted hidden alphabets, which no document describes.
    MODEL_KINDS = {
        "nonlocal_qm": NONLOCAL_QM,
        "local_deterministic": {"type": "local_deterministic", "n": 3,
                                "alice_tables": [[0, 1, 1], [1, 0, 0]],
                                "bob_tables": [[0, 0, 1]]},
        "leggett_24": {"type": "leggett", "n": 2, "grid": 24},
        "leggett_weighted": {"type": "leggett", "n": 3,
                             "vectors": [[1, 0, 0], [0, 0, 1], [0, 1, 0], [-1, 0, 0],
                                         [0, 0, -1], [0, -1, 0]],
                             "v_vectors": [[0, 0, 1], [1, 0, 0], [0, 0, -1], [0, 1, 0]],
                             "weights": [0.1, 0.0, 0.2, 0.3, 0.15, 0.25]},
        "leggett_uv": {"type": "leggett", "n": 2,
                       "vectors": [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
                       "uv_weights": [[0.1, 0.2, 0.0], [0.3, 0.0, 0.1], [0.05, 0.05, 0.2]]},
        "deterministic_uv": {"type": "local_deterministic", "n": 2,
                             "alice_tables": [[0, 1], [1, 1], [0, 0]],
                             "bob_tables": [[1, 0], [0, 0]],
                             "uv_weights": [[0.2, 0.1], [0.0, 0.3], [0.25, 0.15]]},
        "custom_table": {"type": "custom_table", "distribution": mix_with_noise(
            qm_chained_distribution(3), 0.8).to_dict()},
    }

    @pytest.mark.parametrize("kind", ["qm", "nonlocal_qm_4", "deterministic_uv", "leggett_24",
                                      "custom_table"])
    def test_two_block_csv_is_the_reference_bytes(self, capsys, tmp_path, kind):
        # 70 000 shots stream as a full block and a 4464-row tail block.
        n, shots, seed = (3 if kind == "custom_table" else 2), 70_000, 41
        if kind == "qm":
            source, extra = "qm", ("--visibility", "0.9")
            drawn = mix_with_noise(qm_chained_distribution(n), 0.9)
        else:
            doc = self.MODEL_KINDS.get(kind, {**self.NONLOCAL_QM, "n_u": 4, "n_v": 4})
            source, extra = tmp_path / "model.json", ()
            source.write_text(json.dumps(doc))
            drawn = hvm.model_from_json_file(source, n)
        out, ref = tmp_path / "shots.csv", tmp_path / "reference.csv"
        code, _ = run_cli(capsys, "experiment", "--source", str(source), "--n", str(n),
                          "--shots", str(shots), "--seed", str(seed), *extra, "--out", str(out))
        assert code == 0
        assert plain_write_shots_csv(simulate_shots(drawn, n, shots, seed), ref) == shots
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize(
        "source, args, report, csv_sha256",
        [
            (
                "qm",
                ("--n", "3", "--shots", "100000", "--seed", "7", "--visibility", "0.9"),
                # was (0.6630852727871007, 0.7702566760968744, 10972),
                # CSV 1b260744fca4ddc4...
                (0.6575521528605375, 0.7647077587240324, 10956),
                "295a43e86d17e07182960f384e8a98ec637ebc6ca1e647281c6c952f40d2c35e",
            ),
            (
                "nonlocal_qm",
                ("--n", "2", "--shots", "100000", "--seed", "11"),
                # was (0.7309188277430609, 0.7771693238007212, 24901),
                # CSV 632c50e32b3b9537...
                (0.7397904925304086, 0.7860416420664926, 24748),
                "b9c7633f9a9617cea9d5fdbab7b4e2637a49e69818cc667c63665d91190d8e3c",
            ),
            (
                "local_deterministic",
                ("--n", "3", "--shots", "30000", "--seed", "13"),
                (3.013067586467985, 3.2087030889193766, 3289),
                "95f8cfd00f1fe9c93e986a0200f2097daedf063166bc8392609b8e29123c8a15",
            ),
            (
                "leggett_24",
                ("--n", "2", "--shots", "20000", "--seed", "17"),
                (1.9892274832210572, 2.0926473094953812, 4969),
                "b2dc31e3a5c101b244517e6d5ad398a13ef4a0991641b22e624bb417af9aa215",
            ),
            (
                "leggett_weighted",
                ("--n", "3", "--shots", "30000", "--seed", "19"),
                (3.062241054074728, 3.258483936868974, 3283),
                "93b7c90d13f0a152d656a66e1c18249c00f8299f76025ad55d5c4c123c6b0e6b",
            ),
            (
                "leggett_uv",
                ("--n", "2", "--shots", "20000", "--seed", "23"),
                (1.9113229076122198, 2.014742105304106, 4982),
                "0e1ea35d795e568add7724b1c0c7852179c13ee09859bfea5697c28538b7dfe0",
            ),
            (
                "deterministic_uv",
                ("--n", "2", "--shots", "20000", "--seed", "29"),
                (2.6747338401552776, 2.778155818877432, 4943),
                "e08576c643f4ad047fd32897aaba905a7ee6d2b1d7f5509133383d5af0ac62e4",
            ),
            (
                "custom_table",
                ("--n", "3", "--shots", "30000", "--seed", "31"),
                (0.9585664144755583, 1.1541634776586525, 3200),
                "7be34d3f7d6e93f6b36c659d3a074c81fe08070357a6653db5136457fc3142b2",
            ),
        ],
        ids=["qm", "nonlocal_qm", "local_deterministic", "leggett_24", "leggett_weighted",
             "leggett_uv", "deterministic_uv", "custom_table"],
    )
    def test_experiment(self, capsys, tmp_path, source, args, report, csv_sha256):
        if source != "qm":
            path = tmp_path / "model.json"
            path.write_text(json.dumps(self.MODEL_KINDS[source]))
            source = path
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
                # Re-pinned when counts were drawn per setting as one
                # multinomial: [[0, 0.00312500000000001], [1, 0.005075000000000027]].
                [[0, 0.006450000000000023], [1, 0.004800000000000002]],
                0.0336846185194316,
            ),
            (
                {"type": "leggett", "n": 2, "grid": 360},
                ("--shots", "3000", "--seed", "4"),
                # Was [[0, 0.3228333333333333], [1, 0.33066666666666666]].
                [[0, 0.32266666666666666], [1, 0.32816666666666666]],
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
            "max_distance": max(d for _, d in distances),
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
                # was (3.0914685867852656, 3.242912508339111, 5509, 3.1),
                # CSV 0b0b64b5e315f35a...
                (3.120860866960469, 3.2724022069437604, 5495, 3.1),
                "06a02647f0a732f86a420fd00308866a9bb2656292d3ff4a61df88016f99f3d1",
            ),
            (
                {"type": "leggett", "n": 2, "grid": 24},
                ("--n", "2", "--shots", "10000", "--seed", "17"),
                # was (1.9901921921188255, 2.1364918384501315, 2407, 2.0),
                # CSV 72b6708da10ceb65...
                (2.009281273248054, 2.1555408830598384, 2480, 2.0),
                "6e6a96d3ad3f570fc9df4382dc6b9a85991d5012f586627bfaf5ace7b3bf276a",
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
    @pytest.mark.parametrize("n", [3, 11, 100])
    def test_bruteforce(self, capsys, n):
        code, payload = run_cli(capsys, "bruteforce", "--n", str(n))
        assert code == 0
        assert payload["min_value"] == 1.0
        assert payload["witness"] == {"alice_map": [0] * n, "bob_map": [0] * n}

    def test_bruteforce_domain_error(self, capsys):
        code, payload = run_cli(capsys, "bruteforce", "--n", "101")
        assert code == 2
        assert "2 <= N <= 100" in payload["error"]

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
        assert strict_loads(out) == {
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
            # The two Monte-Carlo cases were re-pinned when counts were drawn
            # per setting as one multinomial (c2b81e38..., 102f8c26...).
            ({"type": "leggett", "n": 2, "grid": 360}, ("--shots", "2000", "--seed", "3"), 0,
             "885d5070bbcc45820b359a8901eeeed917669d42a0001a4c4a18be1ad20d2287"),
            ({"type": "nonlocal_qm", "n": 2, "n_u": 4, "n_v": 4},
             ("--shots", "5000", "--seed", "9"), 0,
             "8429d9f4ccc01b87d439df1bf63ae08af9f4c6c8e32d67dce48b899bfbcf4ef9"),
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
    every byte: ``max_violation``, ``lhs_x`` and ``lhs_y`` included.

    The ``--locality-bound`` hashes marked "was" were re-pinned when both
    sides came to be measured by ``locality_measure``'s kernel, each
    setting against its own hidden marginal rather than the (0, 0) one:
    qm entries that read a rounding residue (5.6e-17 to 2.2e-16) read 0.0,
    and four Leggett entries moved by one ulp.  Exit codes, ``passed``,
    ``bound`` and ``ns_violation`` kept their bits.

    The other four "was" hashes were re-pinned when ``check
    --locality-bound`` came to measure a two-party table as given, with
    no one-valued hidden party appended.  In ``qm_2``, ``qm_100`` and
    ``qm_100_v09`` only ``ns_violation`` moved, to ``max_violation``
    (1.1e-16 -> 5.6e-17, 6.7e-16 -> 5.0e-16, 5.6e-16 -> 5.0e-16); in
    ``signaling`` the inapplicable ``bound`` reads null, not NaN, which
    strict JSON does not allow."""

    @staticmethod
    def write_table(name, path):
        """Write the named input table to ``path``."""
        from lemmas import hidden_joint_form, induced_distribution, strategy_distribution

        from chainedbell import DeterministicStrategy, inplane_grid, leggett_model

        if name.startswith("qm_"):
            n, *noisy = name[3:].split("_v")
            argv = ["qm", n, "--out", str(path)]
            if noisy:
                argv += ["--visibility", "0.9"]
            assert main(argv) == 0
            return
        if name == "deterministic":
            dist = strategy_distribution(DeterministicStrategy((0, 0), (0, 0)))
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
            # was f17b8dcbac8b0e06115497e3a2a36ee0fe3ea335d3e2e214f07dba245fbae34c
            ("qm_2", True, 0,
             "4e8a71a24e01136570f59dcf0275ec8f425e123abbb0e5b713ea230aeec6c8e5"),
            ("qm_2_v09", False, 0,
             "f61e1e2662fad5193a3cbc4bfb4d92b3d9209b0a3e55513460e64da4fc5dcb54"),
            # was 83e55ac1033c0b3980c746e2f01f88da6bc732dc804a95907dd4084d44b1aff6
            ("qm_2_v09", True, 0,
             "10491f704dcec2a695f4044e6d17a1b5fd962ddb54ad33b90943014f03d32540"),
            ("qm_3", False, 0,
             "6169a647fefd5dc7afdcbbab9f8560865e138b0df174217cb2edd53f6a9ffdae"),
            # was 023eed0ed4cc3c46eb8a0455f7809c1208c7fc55b79efc74bd50a043be95d9e0
            ("qm_3", True, 0,
             "185bc4fdcfc934ad63debc66cecbc13ddb650f6ab3ca4c7b11e9e123503e72bf"),
            ("qm_3_v09", False, 0,
             "f8958588ee65c1cee66e701c43a418ff0741029a3fe779e34530c3ea2f49325b"),
            # was 6eee4d244318e6d115718907ea5919f9cd5d7406423cd3c959ea13e458f3b9d5
            ("qm_3_v09", True, 0,
             "edcbacfc84473c0f21c4608cd2fd57b18ab17f7b83d7c12898dc5e9095d4712b"),
            ("qm_24", False, 0,
             "ac0c6bcef9049b4fb9560b49db4d112c63888d2a0ea52730846b67895afca52f"),
            # was a865ce49579b4aa63bda80ece9f6d566ef0d11a25d7ff6defa586f8bc1fc2494
            ("qm_24", True, 0,
             "58cfe1b9f1eef5f3c3e4a3d518052013eb10335c4560b163f12d3f722444a6e0"),
            ("qm_24_v09", False, 0,
             "ac0c6bcef9049b4fb9560b49db4d112c63888d2a0ea52730846b67895afca52f"),
            # was 113760cf2c8ae003d0470b72204255ffc9c65d17215b70e006f134de2be29c87
            ("qm_24_v09", True, 0,
             "a7c0d9074f7e9d47ad27f1fcabd0c484579e48d7f226c24ee35527ac4a2213e4"),
            ("qm_100", False, 0,
             "bf3bf5b7173c4b9e9388c78e7c47027a09270031a0a98b4f8afd0144d1da271d"),
            # was 172a9b12a380c66fe79a1ff2790c0a14f1131d13e4a823c1b28ad56218fd58f5
            ("qm_100", True, 0,
             "c0af30ebb64f8ad29cb6800a5896001fa2e1560e349cb7c0908f81505d7f3a3a"),
            ("qm_100_v09", False, 0,
             "bf3bf5b7173c4b9e9388c78e7c47027a09270031a0a98b4f8afd0144d1da271d"),
            # was 344126ddf486b12dcd9f829b3974180fc0f40dd38d71aefb60e31d8cf5cccb6d
            ("qm_100_v09", True, 0,
             "f395390160c636b789bf53a9a4f9b57ef63f887e568399787769b0990f3ffd6e"),
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
            # was bde803c21d4f36ac91621bd2c5002771e0693ca3f9b92fc4253173185915575e
            ("leggett3_wide", True, 0,
             "311fbf9bab05ae6cce41b245582618b50322e79c7e4ce45def88b54be9b70ec8"),
            # Re-pinned when model kernels took the table's per-slice rule:
            # a kernel is divided by its sum only when it drifts above 1e-12.
            # max_violation 5.551115123125783e-17 -> 1.1102230246251565e-16,
            # lhs_y[0] 0.31962266107498316 -> 0.3196226610749831.
            ("leggett3_grid", False, 0,
             "62c3f5c7c2f07de74754581c5b18c494fe37a8a735af1dbc00f259fa034db12c"),
            # was e65d259c0650d67c77c1d0290db6f066a8348188a6036f5528897e15eeb83604
            ("leggett3_grid", True, 0,
             "33b52391f8ae47f8f960570cd82fadd7191610a648a26715ec1becb45272c062"),
            ("signaling", False, 1,
             "5b57618b40851c7d3c5d64e8df118071a1956fa7ca94d469f99b8d04d85e71da"),
            # was a3fbd4c5a829c8584996f1fd07486c0f4ceb84eb30a79b52510befd8bdfea4bf
            ("signaling", True, 1,
             "672e1044d8d0fb054e26e5209ec6b90c2e6e7f48faafb1adba16e00a398347c7"),
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

    def test_closed_stdout_points_the_descriptor_at_devnull(self, monkeypatch, tmp_path):
        # The path of the test above, run in process: the print raises
        # BrokenPipeError, and main points the stdout descriptor at
        # devnull, so that the exit flush cannot raise again.
        with open(tmp_path / "stdout", "w") as held:
            class ClosedPipe:
                def write(self, text):
                    raise BrokenPipeError(32, "Broken pipe")

                def flush(self):
                    pass

                def fileno(self):
                    return held.fileno()

            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            assert main(["bruteforce", "--n", "2"]) == 2
            assert os.path.samestat(os.fstat(held.fileno()), os.stat(os.devnull))
            # Each call closes the devnull descriptor it opened.
            if not os.path.isdir("/proc/self/fd"):
                pytest.skip("no /proc/self/fd to count open descriptors")
            before = len(os.listdir("/proc/self/fd"))
            for _ in range(5):
                assert main(["bruteforce", "--n", "2"]) == 2
            assert len(os.listdir("/proc/self/fd")) == before

    def test_strict_loads_rejects_every_non_standard_constant(self):
        for text in ('{"bound": NaN}', "[Infinity]", "-Infinity"):
            with pytest.raises(ValueError, match="strict"):
                strict_loads(text)

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "chainedbell", "qm", "2"],
            capture_output=True,
            text=True,
            env=module_env(),
        )
        assert proc.returncode == 0
        payload = strict_loads(proc.stdout)
        assert payload["chain_value"] == pytest.approx(2 - math.sqrt(2), abs=1e-9)


class TestUsageErrorsAreJson:
    """An argument the parser rejects, or a negative ``--seed``, prints one
    JSON error on stdout, naming the argument, and nothing on stderr, and
    exits 2, like every other usage error."""

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

    @pytest.mark.parametrize("seed", ["1", "-1"])
    def test_exact_falsify_rejects_a_seed(self, capsys, tmp_path, seed):
        # Exact mode draws nothing, so a seed there is a usage error, not
        # an ignored flag.
        model = tmp_path / "m.json"
        model.write_text('{"type": "leggett", "n": 2, "grid": 4}')
        code = main(["falsify", str(model), "--n", "2", "--seed", seed])
        out, err = capsys.readouterr()
        assert code == 2
        assert one_document(out) == {"error": "--seed applies only with --shots"}
        assert err == ""

    @pytest.mark.parametrize("command", ["falsify", "experiment"])
    def test_negative_seed_names_the_flag(self, capsys, tmp_path, command):
        # NumPy's own text, "expected non-negative integer", names no flag.
        model = tmp_path / "m.json"
        model.write_text('{"type": "leggett", "n": 2, "grid": 4}')
        argv = {"falsify": ["falsify", str(model), "--n", "2", "--shots", "10"],
                "experiment": ["experiment", "--source", "qm", "--n", "2", "--shots", "10"]}
        code = main(argv[command] + ["--seed", "-1"])
        out, err = capsys.readouterr()
        assert code == 2
        assert one_document(out) == {"error": "--seed must be a non-negative integer, got -1"}
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
        assert strict_loads(captured.out) == {"error": error}

    def test_failed_witness_check_is_numerical_failure(self, capsys, monkeypatch):
        # With the two kinds of chain term swapped, the all-zeros witness
        # scores on every differ term instead of on the wrap term.
        cells = chained._TERM_CELLS
        monkeypatch.setattr(
            chained, "_TERM_CELLS", {"differ": cells["match"], "match": cells["differ"]}
        )
        code = main(["bruteforce", "--n", "3"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == ""
        assert strict_loads(captured.out) == {
            "error": "classical minimum: the all-zeros witness scores 5, not 1"
        }


class TestCrossCheckFailure:
    """A per-setting locality distance whose two forms disagree (the
    average form and the joint form, or the joint form's half-L1 and
    excess sums) is a numerical failure in ``falsify`` and in ``check
    --locality-bound`` alike, whichever setting it is on: exit 3 and one
    JSON error, with no traceback."""

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

    @pytest.mark.parametrize("shifted", [0, 4])
    def test_failed_locality_bound_average_form_is_numerical_failure(
            self, capsys, tmp_path, monkeypatch, shifted):
        # One of the six settings (Alice's three, then Bob's) has its
        # average form pushed 1e-6 off its joint form; hvm's fsum alone,
        # as the chain value sums with fsum too.
        path = tmp_path / "qm.json"
        assert main(["qm", "3", "--out", str(path)]) == 0
        capsys.readouterr()
        calls = []

        def shifting_fsum(values):
            calls.append(None)
            return math.fsum(values) + (1e-6 if len(calls) - 1 == shifted else 0.0)

        monkeypatch.setattr(hvm, "math", SimpleNamespace(**{**vars(math), "fsum": shifting_fsum}))
        code = main(["check", str(path), "--locality-bound"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == ""
        payload = one_document(captured.out)
        assert list(payload) == ["error"]
        assert payload["error"].startswith("average-form distance ")
        assert len(calls) == 6


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
    """The single strict JSON document a run printed (json.loads rejects a
    second, and ``strict_loads`` a NaN or an infinity)."""
    assert stdout.endswith("\n")
    payload = strict_loads(stdout)
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
    @given(st.integers(2, 3).flatmap(distribution_documents), st.booleans(), st.booleans())
    def test_check(self, tmp_path_factory, doc, locality_bound, exact):
        # At --tol 0 too: the bound's non-signaling check is the plain one.
        path = tmp_path_factory.mktemp("check") / "dist.json"
        path.write_text(json.dumps(doc))
        argv = ["check", str(path)] + (["--locality-bound"] if locality_bound else [])
        argv += ["--tol", "0"] if exact else []
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
            assert (payload["locality_bound"]["ns_violation"]
                    == payload["nonsignaling"]["max_violation"])
        assert (code == 1) == failed
