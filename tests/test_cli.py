import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from random_matrices import random_density

from gentleleak import leakage
from gentleleak.cli import main, tradeoff_csv
from gentleleak.linalg import matrix_to_json
from gentleleak.measurements import povm_to_json, projective_povm
from gentleleak.states import (
    CqEnsemble,
    bb84_ensemble,
    ensemble_to_json,
    pure_state,
)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


@pytest.fixture
def bb84_file(tmp_path):
    path = tmp_path / "bb84.json"
    path.write_text(json.dumps(ensemble_to_json(bb84_ensemble())))
    return str(path)


@pytest.fixture
def zpovm_file(tmp_path):
    path = tmp_path / "zpovm.json"
    path.write_text(json.dumps(povm_to_json(projective_povm(np.eye(2)))))
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestLeakageCommand:
    def test_bb84(self, bb84_file, capsys):
        code, out = run_cli(["leakage", bb84_file], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["bits"] == pytest.approx(1.0, abs=1e-3)
        assert doc["achieving_povm"] is not None

    def test_commuting_ensemble(self, tmp_path, capsys):
        e = CqEnsemble(
            np.array([0.5, 0.5]),
            (np.diag([1.0, 0.0]), np.diag([0.25, 0.75])),
        )
        path = tmp_path / "commuting.json"
        path.write_text(json.dumps(ensemble_to_json(e)))
        code, out = run_cli(["leakage", str(path)], capsys)
        doc = json.loads(out)
        assert code == 0
        assert doc["upper_bits"] - doc["bits"] <= 1e-12
        assert doc["bits"] == pytest.approx(0.80735, abs=1e-5)

    def test_identical_states(self, tmp_path, capsys):
        e = CqEnsemble(np.array([0.5, 0.5]), (pure_state([1, 0]), pure_state([1, 0])))
        path = tmp_path / "ident.json"
        path.write_text(json.dumps(ensemble_to_json(e)))
        code, out = run_cli(["leakage", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["bits"] == 0.0

    def test_reports_certified_interval(self, bb84_file, capsys):
        code, out = run_cli(["leakage", bb84_file], capsys)
        doc = json.loads(out)
        assert code == 0
        assert doc["bits"] <= doc["upper_bits"] <= doc["bits"] + 1e-12
        assert doc["iterations"] >= 1

    def test_budget_exhaustion_exits_4(self, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(9)
        states = tuple(random_density(3, rng) for _ in range(4))
        path = tmp_path / "qutrit.json"
        path.write_text(json.dumps(ensemble_to_json(CqEnsemble(np.full(4, 0.25), states))))
        monkeypatch.setattr(leakage, "MAX_ITERS", 1)
        code, _ = run_cli(["leakage", str(path)], capsys)
        assert code == 4

    def test_starts_and_evals_are_gone(self, bb84_file, capsys):
        with pytest.raises(SystemExit):
            main(["leakage", bb84_file, "--starts", "2"])

    def test_seed_only_on_monte_carlo_commands(self, bb84_file, capsys):
        # nothing but simulate and tradeoff draws random numbers
        with pytest.raises(SystemExit):
            main(["leakage", bb84_file, "--seed", "1"])

    def test_missing_file_is_input_error(self, capsys):
        code, _ = run_cli(["leakage", "/no/such/file.json"], capsys)
        assert code == 2

    def test_schema_violation_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"labels": ["a"], "probs": [1.0], "states": [{"dim": 2}]}))
        code, _ = run_cli(["leakage", str(bad)], capsys)
        assert code == 2

    def test_directory_input_is_input_error(self, tmp_path, capsys):
        assert main(["leakage", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path}: cannot read")


ONE_BY_ONE = {"dim": 1, "entries": [[[1.0, 0.0]]]}
BOOL_CELL = {"dim": 1, "entries": [[[True, False]]]}


def one_state_ensemble(matrix=ONE_BY_ONE, prob=1.0):
    return {"labels": ["a"], "probs": [prob], "states": [matrix]}


class TestMalformedJson:
    """Each malformed document exits 2 with an error line, not a traceback."""

    @pytest.mark.parametrize(
        "ensemble, povm",
        [
            pytest.param(one_state_ensemble({"dim": 1, "entries": 5}), None, id="entries-number"),
            pytest.param(one_state_ensemble({"dim": 1, "entries": [5]}), None, id="row-number"),
            pytest.param(
                one_state_ensemble({"dim": 1, "entries": [[{"re": 1}]]}), None, id="cell-object"
            ),
            pytest.param(
                one_state_ensemble({"dim": True, "entries": [[[1, 0]]]}), None, id="dim-bool"
            ),
            pytest.param(one_state_ensemble(prob=True), None, id="prob-bool"),
            pytest.param(one_state_ensemble(BOOL_CELL), None, id="cell-bool"),
            pytest.param(
                one_state_ensemble({"dim": 1, "entries": [[[10**400, 0]]]}), None, id="cell-big-int"
            ),
            pytest.param(one_state_ensemble(), {"elements": [BOOL_CELL]}, id="povm-cell-bool"),
            pytest.param(
                one_state_ensemble(), {"labels": 5, "elements": [ONE_BY_ONE]}, id="povm-labels"
            ),
        ],
    )
    def test_exits_2(self, ensemble, povm, tmp_path, capsys):
        path = tmp_path / "ensemble.json"
        path.write_text(json.dumps(ensemble))
        argv = ["leakage", str(path)]
        if povm is not None:
            povm_path = tmp_path / "povm.json"
            povm_path.write_text(json.dumps(povm))
            argv = ["certify", str(path), str(povm_path), "--alpha", "0.1", "--delta", "0.1"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "block, where",
        [("elements", "element 0"), ("implementation", "implementation: operator 0")],
    )
    def test_non_finite_povm_cell_names_file_and_matrix(self, block, where, bb84_file, tmp_path,
                                                        capsys):
        doc = povm_to_json(projective_povm(np.eye(2)))
        doc[block][0]["entries"][0][0] = [float("nan"), 0.0]
        path = tmp_path / "povm.json"
        path.write_text(json.dumps(doc))  # NaN as a JSON literal
        argv = ["certify", bb84_file, str(path), "--alpha", "0.1", "--delta", "0.1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: {where}: matrix has non-finite entries\n"
        )

    @pytest.mark.parametrize("command", ["leakage", "certify"])
    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param('{"labels": ', "invalid JSON at line 1: Expecting value", id="truncated"),
            pytest.param(None, "input file not found", id="missing"),
            pytest.param(b"\xff\xfe{}", "input file is not UTF-8 text", id="not-utf8"),
        ],
    )
    def test_unreadable_file_is_named_once(self, command, text, message, bb84_file, tmp_path,
                                           capsys):
        path = tmp_path / "input.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        elif text is not None:
            path.write_text(text)
        argv = ["leakage", str(path)]
        if command == "certify":
            argv = ["certify", bb84_file, str(path), "--alpha", "0.1", "--delta", "0.1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            pytest.param(
                "leakage", {"labels": ["a"], "states": [ONE_BY_ONE]},
                "ensemble document needs a 'probs' list", id="no-probs",
            ),
            pytest.param(
                "certify", {"elements": []}, "'elements' must be a non-empty list",
                id="no-elements",
            ),
            pytest.param(
                "certify",
                {"elements": [matrix_to_json(np.diag([1.5, 1.0])),
                              matrix_to_json(np.diag([-0.5, 0.0]))]},
                "element 1: element is not PSD: min eigenvalue -5.000e-01",
                id="element-not-psd",
            ),
            pytest.param(
                "certify",
                {"elements": [matrix_to_json(np.eye(2)),
                              matrix_to_json(np.array([[0.5, 0.3], [0.0, 0.5]]))]},
                "element 1: matrix is not Hermitian: max asymmetry 3.000e-01 > 1.000e-10",
                id="element-not-hermitian",
            ),
            pytest.param(
                "certify",
                {**povm_to_json(projective_povm(np.eye(2)).povm),
                 "implementation": [matrix_to_json(np.eye(2))]},
                "'implementation' must list one operator per element",
                id="implementation-length",
            ),
        ],
    )
    def test_schema_violation_names_it(self, command, doc, message, bb84_file, tmp_path,
                                       capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = ["leakage", str(path)]
        if command == "certify":
            argv = ["certify", bb84_file, str(path), "--alpha", "0.1", "--delta", "0.1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_probability_sum_prints_a_plain_number(self, tmp_path, capsys):
        doc = ensemble_to_json(bb84_ensemble())
        doc["probs"] = [0.25, 0.25, 0.25, 0.5]
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps(doc))
        assert main(["leakage", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: probabilities sum to 1.25, expected 1\n"
        )


class TestLowerBoundCommand:
    def test_anchor_row(self, bb84_file, capsys):
        code, out = run_cli(["lower-bound", bb84_file, "--alpha", "0.1"], capsys)
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "alpha,p1,p2,lower_bits"
        alpha, p1, p2, bits = (float(x) for x in row.split(","))
        assert (alpha, p1) == (0.1, 0.2)
        assert p2 == pytest.approx(0.305573, abs=1e-6)
        assert bits == pytest.approx(0.7608, abs=5e-4)

    def test_alpha_endpoints(self, bb84_file, capsys):
        code, out = run_cli(["lower-bound", bb84_file, "--alpha", "0", "1"], capsys)
        rows = out.strip().splitlines()[1:]
        assert float(rows[0].split(",")[3]) == 0.0
        assert float(rows[1].split(",")[3]) == pytest.approx(1.0, abs=1e-6)

    def test_trine_saturates_at_one_bit(self, tmp_path, capsys):
        angles = 2.0 * np.pi * np.arange(3) / 3.0
        e = CqEnsemble(np.full(3, 1 / 3), tuple(pure_state([np.cos(a), np.sin(a)]) for a in angles))
        path = tmp_path / "trine.json"
        path.write_text(json.dumps(ensemble_to_json(e)))
        code, out = run_cli(["lower-bound", str(path), "--alpha", "1"], capsys)
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[3] == "1.000000"

    def test_qutrit_alpha_zero_leaks_nothing(self, tmp_path, capsys):
        plus = pure_state([1, 1, 0])
        e = CqEnsemble(np.full(4, 0.25), tuple(pure_state(k) for k in np.eye(3)) + (plus,))
        path = tmp_path / "qutrit.json"
        path.write_text(json.dumps(ensemble_to_json(e)))
        code, out = run_cli(["lower-bound", str(path), "--alpha", "0"], capsys)
        assert code == 0
        assert out.strip().splitlines()[1] == "0.000000,0.000000,1.000000,0.000000"

    def test_bad_alpha_is_input_error(self, bb84_file, capsys):
        code, _ = run_cli(["lower-bound", bb84_file, "--alpha", "1.5"], capsys)
        assert code == 2

    def test_six_state_region_value_lies_above_the_channel_value(self, tmp_path, capsys):
        # the d = 2 curve is the paper's region value; on the six-state encoding it exceeds
        # the certified channel value S(alpha) = log2(1 + sqrt(6 alpha (1 - 3 alpha / 2)))
        kets = [[1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j]]
        e = CqEnsemble(np.full(6, 1 / 6), tuple(pure_state(k) for k in kets))
        path = tmp_path / "six.json"
        path.write_text(json.dumps(ensemble_to_json(e)))
        code, out = run_cli(["lower-bound", str(path), "--alpha", "0.02", "0.05"], capsys)
        assert code == 0
        rows = [row.split(",") for row in out.strip().splitlines()[1:]]
        assert [row[3] for row in rows] == ["0.443607", "0.615845"]
        for alpha, bits in ((0.02, 0.443607), (0.05, 0.615845)):
            assert bits > np.log2(1.0 + np.sqrt(6.0 * alpha * (1.0 - 1.5 * alpha)))


class TestFigure2Command:
    def test_grid_shape(self, bb84_file, capsys):
        code, out = run_cli(["figure2", bb84_file, "--grid", "101"], capsys)
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 101
        bits = [float(r.split(",")[3]) for r in rows]
        assert all(b2 >= b1 - 1e-9 for b1, b2 in zip(bits, bits[1:]))
        assert bits[0] == 0.0
        assert all(abs(b - 1.0) <= 1e-3 for a, b in zip(np.linspace(0, 1, 101), bits) if a >= 0.5)

    def test_bb84_curve_closed_form(self, bb84_file, capsys):
        # p1 = min(2 alpha, 1) for BB84 and p2 = (1 - sqrt p1)^2 on the qubit boundary
        code, out = run_cli(["figure2", bb84_file, "--grid", "101"], capsys)
        assert code == 0
        expected = []
        for alpha in np.linspace(0.0, 1.0, 101):
            p1 = min(2.0 * alpha, 1.0)
            p2 = (1.0 - np.sqrt(p1)) ** 2
            expected.append(f"{alpha:.6f},{p1:.6f},{p2:.6f},{np.log2(2.0 - p2):.6f}")
        assert out.strip().splitlines()[1:] == expected

    def test_grid_of_one_point_is_input_error(self, bb84_file, capsys):
        assert main(["figure2", bb84_file, "--grid", "1"]) == 2
        assert capsys.readouterr().err == "error: --grid needs at least 2 points\n"

    def test_byte_identical_reruns(self, bb84_file, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run_cli(["figure2", bb84_file, "--grid", "31", "--out", str(out1)], capsys)[0] == 0
        assert run_cli(["figure2", bb84_file, "--grid", "31", "--out", str(out2)], capsys)[0] == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestCertifyCommand:
    def test_identity_povm_certifies(self, bb84_file, tmp_path, capsys):
        from gentleleak.measurements import Povm, PovmImplementation

        impl = PovmImplementation(Povm((np.eye(2, dtype=complex),)), (np.eye(2, dtype=complex),))
        path = tmp_path / "ident_povm.json"
        path.write_text(json.dumps(povm_to_json(impl)))
        code, out = run_cli(
            ["certify", bb84_file, str(path), "--alpha", "0.0", "--delta", "0.0"], capsys
        )
        assert code == 0
        assert json.loads(out)["certified"] is True

    def test_z_basis_fails_at_half(self, bb84_file, zpovm_file, capsys):
        code, out = run_cli(
            ["certify", bb84_file, zpovm_file, "--alpha", "0.5", "--delta", "0.1"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["certified"] is False
        assert doc["worst_disturbance"] == pytest.approx(1 / np.sqrt(2), abs=1e-9)

    def test_gentle_construction_certifies(self, bb84_file, tmp_path, capsys):
        from gentleleak.measurements import GentlenessSpec, max_certified_epsilon, gentle_povm
        from gentleleak.simulate import default_gentle_probe
        from gentleleak.states import bb84_ensemble

        probe = default_gentle_probe()
        cal = max_certified_epsilon(probe, GentlenessSpec(0.1, 0.05), bb84_ensemble())
        impl = gentle_povm(probe, cal.epsilon)
        path = tmp_path / "gentle.json"
        path.write_text(json.dumps(povm_to_json(impl)))
        code, out = run_cli(
            ["certify", bb84_file, str(path), "--alpha", "0.1", "--delta", "0.05"], capsys
        )
        assert code == 0
        assert json.loads(out)["certified"] is True

    def test_missing_implementation_is_precondition_error(self, bb84_file, tmp_path, capsys):
        doc = povm_to_json(projective_povm(np.eye(2)).povm)
        path = tmp_path / "noimpl.json"
        path.write_text(json.dumps(doc))
        code, _ = run_cli(
            ["certify", bb84_file, str(path), "--alpha", "0.5", "--delta", "0.1"], capsys
        )
        assert code == 3

    def test_operator_of_another_dimension_is_input_error(self, bb84_file, tmp_path, capsys):
        doc = povm_to_json(projective_povm(np.eye(2)))
        doc["implementation"][1] = matrix_to_json(np.eye(3))
        path = tmp_path / "wrong_dim.json"
        path.write_text(json.dumps(doc))
        argv = ["certify", bb84_file, str(path), "--alpha", "0.5", "--delta", "0.1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: implementation: operator 1 has dimension 3, expected 2\n"
        )


class TestDepolarizeCommand:
    def test_full_noise_kills_leakage(self, bb84_file, capsys):
        code, out = run_cli(["depolarize", bb84_file, "--p", "1.0"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][0]["bits"] == 0.0
        assert doc["rows"][0]["upper_bits"] - doc["rows"][0]["bits"] <= 1e-12

    def test_bad_p_is_input_error(self, bb84_file, capsys):
        code, _ = run_cli(["depolarize", bb84_file, "--p", "2.0"], capsys)
        assert code == 2


class TestSimulateCommand:
    def test_w1_qber(self, capsys):
        code, out = run_cli(
            ["simulate", "--strategy", "w1", "--rounds", "100000", "--seed", "7"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["qber"] - 0.25) <= 0.005
        assert doc["eve_leakage_bits"] == pytest.approx(1.0, abs=1e-12)

    def test_none_strategy(self, capsys):
        code, out = run_cli(["simulate", "--strategy", "none", "--rounds", "1000"], capsys)
        assert json.loads(out)["qber"] == 0.0

    def test_gentle_strategy_flag(self, capsys):
        code, out = run_cli(
            ["simulate", "--strategy", "gentle", "--epsilon", "0.05", "--rounds", "1000"], capsys
        )
        assert code == 0
        assert json.loads(out)["strategy"]["epsilon"] == 0.05

    def test_epsilon_takes_one_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--strategy", "gentle", "--epsilon", "0.01", "0.09"])
        assert exc.value.code == 2

    def test_epsilon_needs_gentle_strategy(self, capsys):
        code, out = run_cli(["simulate", "--strategy", "w1", "--epsilon", "0.05"], capsys)
        assert code == 2
        assert out == ""

    def test_out_in_missing_directory_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert main(["simulate", "--strategy", "w1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}")
        assert not out.parent.exists()

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_out_file_mode_follows_the_umask(self, umask, tmp_path, capsys):
        out = tmp_path / "x.json"
        old = os.umask(umask)
        try:
            code, _ = run_cli(["simulate", "--strategy", "none", "--rounds", "1000",
                               "--out", str(out)], capsys)
        finally:
            os.umask(old)
        assert code == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]

    def test_out_on_a_directory_leaves_no_temp_file(self, tmp_path, capsys):
        code, _ = run_cli(["simulate", "--strategy", "w1", "--out", str(tmp_path)], capsys)
        assert code == 2
        assert list(tmp_path.parent.glob(f"{tmp_path.name}*.tmp")) == []

    def test_out_steps_past_a_taken_temp_name(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        taken = tmp_path / f"x.json.{os.getpid()}.0.tmp"
        taken.write_text("taken")
        code, _ = run_cli(["simulate", "--strategy", "none", "--rounds", "1000",
                           "--out", str(out)], capsys)
        assert code == 0
        assert json.loads(out.read_text())["rounds"] == 1000
        assert taken.read_text() == "taken"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json", taken.name]

    def test_json_keys(self, capsys):
        code, out = run_cli(["simulate", "--strategy", "gentle", "--rounds", "1000"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == [
            "rounds", "qber", "eve_leakage_bits", "mean_disturbance", "ci95", "strategy", "seed"
        ]
        assert doc["strategy"] == {"kind": "gentle", "epsilon": 0.05}

    def test_deterministic_reports(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["simulate", "--strategy", "w2", "--rounds", "20000", "--seed", "5"]
        run_cli([*args, "--out", str(a)], capsys)
        run_cli([*args, "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()


class TestTradeoffCommand:
    def test_csv_format(self, capsys):
        code, out = run_cli(
            ["tradeoff", "--epsilon", "0.0", "0.05", "0.1", "--rounds", "2000"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "epsilon,qber,leakage_bits,mean_disturbance"
        assert len(lines) == 4
        assert [float(l.split(",")[0]) for l in lines[1:]] == [0.0, 0.05, 0.1]

    def test_epsilon_over_cap_is_input_error(self, capsys):
        code, _ = run_cli(["tradeoff", "--epsilon", "0.3", "--rounds", "100"], capsys)
        assert code == 2

    def test_epsilon_needs_a_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tradeoff", "--epsilon", "--rounds", "100"])
        assert exc.value.code == 2

    def test_csv_format_is_pinned(self):
        row = {"epsilon": 0.05, "qber": 0.00123456789, "leakage_bits": 0.1,
               "mean_disturbance": 1 / 3}
        assert tradeoff_csv([row]) == (
            "epsilon,qber,leakage_bits,mean_disturbance\n0.050000,0.001235,0.100000,0.333333\n"
        )


class TestOutOfRangeValues:
    """The library's range checks reach the CLI as exit 2 and an error line naming the value."""

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["lower-bound", "BB84", "--alpha", "-0.1"], "-0.1"),
            (["lower-bound", "BB84", "--alpha", "1.5"], "1.5"),
            (["lower-bound", "BB84", "--alpha", "nan"], "nan"),
            (["depolarize", "BB84", "--p", "-1"], "-1.0"),
            (["depolarize", "BB84", "--p", "0.5", "2"], "2.0"),
            (["tradeoff", "--epsilon", "0.2"], "0.2"),
            (["tradeoff", "--epsilon", "0.05", "nan"], "nan"),
            (["simulate", "--strategy", "gentle", "--epsilon", "0.2"], "0.2"),
        ],
    )
    def test_exits_2_naming_the_value(self, argv, bad, bb84_file, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [bb84_file if a == "BB84" else a for a in argv]
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert f"got {bad}" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestIntervalCommand:
    def test_bb84(self, bb84_file, capsys):
        code, out = run_cli(
            ["interval", bb84_file, "--alpha", "0.1", "--delta", "0.05"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lower_bits"] >= 0.7608 - 5e-4
        assert doc["upper_bits"] >= doc["lower_bits"]

    INTERVAL_KEYS = ["lower_bits", "upper_bits", "lower_witness", "alpha", "delta", "cloning",
                     "meta"]

    def test_json_keys(self, bb84_file, capsys):
        code, out = run_cli(["interval", bb84_file, "--alpha", "0.1", "--delta", "0.05"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == self.INTERVAL_KEYS
        assert list(doc["cloning"]) == [
            "alpha", "p2_star", "lower_bits", "feasible", "p1_cap", "q_bits", "slack"
        ]

    def test_json_keys_when_saturated(self, bb84_file, capsys):
        code, out = run_cli(["interval", bb84_file, "--alpha", "1", "--delta", "0"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == self.INTERVAL_KEYS
        assert doc["cloning"] is None

    def test_one_dimensional_ensemble_is_zero(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        doc = {"labels": ["a", "b"], "probs": [0.5, 0.5], "states": [ONE_BY_ONE, ONE_BY_ONE]}
        path.write_text(json.dumps(doc))
        code, out = run_cli(["interval", str(path), "--alpha", "0.1", "--delta", "0.05"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert (doc["lower_bits"], doc["upper_bits"]) == (0.0, 0.0)

    @pytest.mark.parametrize("command", ["interval", "certify"])
    def test_alpha_takes_one_value(self, command, bb84_file, zpovm_file, capsys):
        files = [bb84_file] if command == "interval" else [bb84_file, zpovm_file]
        with pytest.raises(SystemExit) as exc:
            main([command, *files, "--alpha", "0.1", "0.2", "--delta", "0.05"])
        assert exc.value.code == 2
        assert run_cli([command, *files, "--alpha=0.1", "--delta", "0.05"], capsys)[0] == 0


class TestSharedParser:
    """main builds its parser once; no call may see the options of the one before."""

    def test_tradeoff_grid_resets(self, capsys):
        assert run_cli(["tradeoff", "--epsilon", "0.02", "--rounds", "100"], capsys)[0] == 0
        code, out = run_cli(["tradeoff", "--rounds", "100"], capsys)
        assert code == 0
        eps = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
        assert eps == [0.0, 0.02, 0.04, 0.06, 0.08, 0.1]

    def test_simulate_epsilon_resets(self, capsys):
        argv = ["simulate", "--strategy", "gentle", "--epsilon", "0.02", "--rounds", "100"]
        assert run_cli(argv, capsys)[0] == 0
        code, out = run_cli(["simulate", "--strategy", "w1", "--rounds", "100"], capsys)
        assert code == 0
        assert json.loads(out)["strategy"] == {"kind": "w1"}

    def test_certify_mode_resets(self, bb84_file, zpovm_file, capsys):
        argv = ["certify", bb84_file, zpovm_file, "--alpha", "0.5", "--delta", "0.1"]
        code, out = run_cli([*argv, "--mode", "average-state"], capsys)
        assert code == 0 and json.loads(out)["mode"] == "average-state"
        code, out = run_cli(argv, capsys)
        assert code == 0 and json.loads(out)["mode"] == "per-state"


def module_env() -> dict:
    """The environment of a child that imports the package these tests import."""
    src = str(Path(leakage.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_module(*argv, timeout):
    """python -m gentleleak in a child that imports the package these tests import."""
    return subprocess.run(
        [sys.executable, "-m", "gentleleak", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=module_env(),
    )


class TestSubprocessEntryPoint:
    def test_module_invocation(self, bb84_file):
        proc = run_module("lower-bound", bb84_file, "--alpha", "0.1", timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "alpha,p1,p2,lower_bits"

    def test_leakage_matches_main(self, bb84_file, capsys):
        proc = run_module("leakage", bb84_file, timeout=120)
        assert proc.returncode == 0
        assert main(["leakage", bb84_file]) == 0
        assert proc.stdout == capsys.readouterr().out

    def test_exit_code_for_bad_input(self):
        proc = run_module("leakage", "/no/file.json", timeout=60)
        assert proc.returncode == 2

    def test_closed_stdout_exits_1_quietly(self, bb84_file):
        # the reader goes away before the output is written, as in `gentleleak ... | true`
        proc = subprocess.Popen([sys.executable, "-m", "gentleleak", "leakage", bb84_file],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=module_env())
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (1, b"")
