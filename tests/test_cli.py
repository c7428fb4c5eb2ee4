"""CLI behavior: JSON reports, exit codes, determinism, file round-trips."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from mesq import cli
from mesq import jsonio as io
from mesq.core import NumericalError, ProductOperator, ghz_state, pauli, psd_sqrt


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def report_of(argv, capsys):
    code, out = run_cli(argv, capsys)
    return code, json.loads(out)


class TestBasicCommands:
    def test_majorize_true(self, capsys):
        code, rep = report_of(["majorize", "--y", "1,0", "--x", "0.5,0.5"], capsys)
        assert code == 0 and rep["result"]["majorizes"] is True

    def test_majorize_false_still_exits_zero(self, capsys):
        code, rep = report_of(["majorize", "--y", "0.5,0.5", "--x", "1,0"], capsys)
        assert code == 0 and rep["result"]["majorizes"] is False

    def test_nielsen(self, capsys):
        code, rep = report_of(["nielsen", "--psi", "0.5,0.5", "--phi", "0.7,0.3"], capsys)
        assert code == 0 and rep["result"]["relation"] == "ForwardOnly"

    def test_malformed_vector_is_input_error(self, capsys):
        code, rep = report_of(["majorize", "--y", "1,0", "--x", "0.5,0.5,0.5"], capsys)
        assert code == 2 and rep["error"]

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["no-such-command"])
        assert exc.value.code == 2


class TestStateCommands:
    def test_mes3_gen_then_check_round_trip(self, tmp_path, capsys):
        out_file = str(tmp_path / "state.json")
        code, rep = report_of(
            ["mes3-gen", "--a", "0.6", "--beta", "0.7", "--betaprime", "-1.1",
             "--out", out_file], capsys,
        )
        assert code == 0
        written = io.load_json(out_file)
        assert written == rep["result"]["state"]
        code, rep = report_of(["mes3-check", "--state", out_file], capsys)
        assert code == 0 and rep["result"]["in_mes3"] is True
        code, rep = report_of(["classify3", "--state", out_file], capsys)
        assert code == 0 and rep["result"]["class"] in ("GhzClass", "WClass")
        code, rep = report_of(["stdform3", "--state", out_file], capsys)
        assert code == 0 and rep["result"]["reconstruction_fidelity"] >= 1 - 1e-9

    def test_state_file_round_trip_is_lossless(self, tmp_path, capsys):
        out_file = str(tmp_path / "phi3.json")
        code, rep = report_of(["rep-build", "--out", out_file], capsys)
        assert code == 0
        state = io.state_from_obj(io.load_json(out_file))
        rebuilt = io.state_from_obj(json.loads(json.dumps(io.state_to_obj(state))))
        np.testing.assert_allclose(rebuilt.amplitudes, state.amplitudes, atol=1e-15)

    def test_missing_file_is_input_error(self, capsys):
        code, rep = report_of(["classify3", "--state", "/nonexistent.json"], capsys)
        assert code == 2 and "cannot read" in rep["error"]


class TestFourQubitCommands:
    def test_mes4_status(self, tmp_path, capsys):
        op_file = str(tmp_path / "id4.json")
        io.dump_json(op_file, io.operator_to_obj(ProductOperator.identity(4)))
        code, rep = report_of(
            ["mes4-check", "--params", "2,0+1i,0.5,1+1i", "--operator", op_file,
             "--mode", "status"], capsys,
        )
        assert code == 0 and rep["result"]["status"] == "non_isolated_in_mes"

    def test_seed4_rejects_wrong_count(self, capsys):
        code, rep = report_of(["seed4", "--params", "1,2,3"], capsys)
        assert code == 2

    def test_synth4q(self, tmp_path, capsys):
        h1 = psd_sqrt(0.5 * np.eye(2) + 0.2 * pauli("x") + 0.1 * pauli("z"))
        op_file = str(tmp_path / "h.json")
        io.dump_json(op_file, io.operator_to_obj(ProductOperator.single(4, 1, h1)))
        proto_file = str(tmp_path / "proto.json")
        code, rep = report_of(
            ["synth4q", "--params", "2,0+1i,0.5,1+1i", "--operator", op_file,
             "--out", proto_file], capsys,
        )
        assert code == 0
        assert rep["result"]["num_outcomes"] == 4
        assert min(rep["result"]["branch_fidelities"]) >= 1 - 1e-9
        proto = io.load_json(proto_file)
        assert proto["acting_party"] == 1 and len(proto["kraus"]) == 4

    def test_synth4q_unreachable_is_input_error(self, tmp_path, capsys):
        op_file = str(tmp_path / "id4.json")
        io.dump_json(op_file, io.operator_to_obj(ProductOperator.identity(4)))
        code, rep = report_of(
            ["synth4q", "--params", "2,0+1i,0.5,1+1i", "--operator", op_file], capsys
        )
        assert code == 2 and "not reachable" in rep["error"]


class TestSepCommands:
    @pytest.fixture()
    def twirl_files(self, tmp_path):
        h1 = psd_sqrt(0.5 * np.eye(2) + 0.2 * pauli("x") + 0.15 * pauli("y") + 0.1 * pauli("z"))
        h_file = str(tmp_path / "h.json")
        g_file = str(tmp_path / "g.json")
        s_file = str(tmp_path / "syms.json")
        io.dump_json(h_file, io.operator_to_obj(ProductOperator.single(4, 1, h1)))
        io.dump_json(g_file, io.operator_to_obj(ProductOperator.identity(4)))
        syms = [ProductOperator.identity(4)] + [
            ProductOperator.pauli_string(w * 4) for w in "xyz"
        ]
        io.dump_json(s_file, io.operators_to_obj(syms))
        return g_file, h_file, s_file

    def test_solve_then_verify_then_build(self, twirl_files, tmp_path, capsys):
        g_file, h_file, s_file = twirl_files
        code, rep = report_of(
            ["sep-solve", "--g", g_file, "--h", h_file, "--symmetries", s_file], capsys
        )
        assert code == 0 and rep["result"]["feasible"] is True
        np.testing.assert_allclose(rep["result"]["weights"], [0.25] * 4, atol=1e-9)

        code, rep = report_of(
            ["sep-verify", "--g", g_file, "--h", h_file, "--symmetries", s_file,
             "--weights", "0.25,0.25,0.25,0.25"], capsys,
        )
        assert code == 0 and rep["result"]["satisfied"] is True

        povm_file = str(tmp_path / "povm.json")
        code, rep = report_of(
            ["povm-build", "--g", g_file, "--h", h_file, "--symmetries", s_file,
             "--weights", "0.25,0.25,0.25,0.25", "--out", povm_file], capsys,
        )
        assert code == 0 and rep["result"]["completeness_residual"] < 1e-9

        # operator files round-trip losslessly
        povm = io.operators_from_obj(io.load_json(povm_file))
        rebuilt = io.operators_from_obj(json.loads(json.dumps(io.operators_to_obj(povm))))
        for a, b in zip(povm, rebuilt):
            for fa, fb in zip(a.factors, b.factors):
                np.testing.assert_allclose(fa, fb, atol=1e-15)

    def test_bad_weights_exit_numerical(self, twirl_files, capsys):
        g_file, h_file, s_file = twirl_files
        code, rep = report_of(
            ["povm-build", "--g", g_file, "--h", h_file, "--symmetries", s_file,
             "--weights", "0.4,0.2,0.2,0.2"], capsys,
        )
        assert code == 3 and "residual" in rep["error"]

    def test_convert_verify(self, twirl_files, tmp_path, capsys):
        from mesq import fourqubit as fq
        from mesq import sep as sep_mod
        from mesq.core import apply_product

        g_file, h_file, s_file = twirl_files
        h = io.operator_from_obj(io.load_json(h_file))
        syms = io.operators_from_obj(io.load_json(s_file))
        params = fq.GabcdParams(2, 1j, 0.5, 1 + 1j)
        seed = fq.seed_state(params)
        target, _ = apply_product(h, seed)
        p, r = sep_mod.solve_sep_weights(
            sep_mod.positive_part(ProductOperator.identity(4)), sep_mod.positive_part(h), syms
        )
        povm = sep_mod.build_povm(h, ProductOperator.identity(4), syms, p, r)
        povm_file = str(tmp_path / "povm.json")
        src_file = str(tmp_path / "src.json")
        tgt_file = str(tmp_path / "tgt.json")
        io.dump_json(povm_file, io.operators_to_obj(povm))
        io.dump_json(src_file, io.state_to_obj(seed))
        io.dump_json(tgt_file, io.state_to_obj(target))
        code, rep = report_of(
            ["convert-verify", "--povm", povm_file, "--source", src_file,
             "--target", tgt_file], capsys,
        )
        assert code == 0 and rep["result"]["deterministic"] is True


class TestRepCommands:
    def test_rep_verify_passes(self, capsys):
        code, rep = report_of(
            ["rep-verify", "--alpha4", "0", "--alpha5", "0", "--alpha6", "0"], capsys
        )
        assert code == 0
        assert rep["result"]["all_pass"] is True
        assert len(rep["result"]["branches"]) == 8

    def test_rep_sim_forced(self, capsys):
        code, rep = report_of(
            ["rep-sim", "--alpha4", "0.3", "--alpha5", "1.1", "--alpha6", "-0.7",
             "--outcomes", "101"], capsys,
        )
        assert code == 0
        r = rep["result"]
        assert (r["k6"], r["k5"], r["k4"]) == (1, 0, 1)
        assert r["fidelity_to_target"] >= 1 - 1e-10

    def test_rep_sim_bad_outcomes(self, capsys):
        code, rep = report_of(
            ["rep-sim", "--alpha4", "0", "--alpha5", "0", "--alpha6", "0",
             "--outcomes", "21"], capsys,
        )
        assert code == 2

    def test_mixed_prep(self, tmp_path, capsys):
        ens_file = str(tmp_path / "ens.json")
        io.dump_json(
            ens_file,
            {
                "entries": [
                    {"weight": 0.5, "alpha4": 0.0, "alpha5": 0.0, "alpha6": 0.0,
                     "post_lu": None},
                    {"weight": 0.5, "alpha4": 0.0, "alpha5": 0.0, "alpha6": 0.0,
                     "post_lu": io.operator_to_obj(ProductOperator.single(3, 1, pauli("z")))},
                ]
            },
        )
        code, rep = report_of(["mixed-prep", "--ensemble", ens_file, "--seed", "7"], capsys)
        assert code == 0
        assert rep["result"]["density_trace"] == pytest.approx(1.0, abs=1e-12)
        eigs = sorted(rep["result"]["density_eigenvalues"])[::-1]
        np.testing.assert_allclose(eigs[:2], [0.5, 0.5], atol=1e-12)


class TestDeterminism:
    def test_in_process_reports_identical(self, capsys):
        argv = ["rep-sim", "--alpha4", "0.3", "--alpha5", "1.1", "--alpha6", "-0.7",
                "--seed", "9"]
        _, first = run_cli(argv, capsys)
        _, second = run_cli(argv, capsys)
        assert first == second

    def test_subprocess_reports_identical(self):
        argv = [sys.executable, "-m", "mesq.cli", "rep-sim", "--alpha4", "0.2",
                "--alpha5", "0.4", "--alpha6", "0.6", "--seed", "3"]
        # the child does not inherit pytest's pythonpath setting, so put src first
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        runs = [
            subprocess.run(argv, capture_output=True, text=True, env=env).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1] and runs[0].strip()


SEP_FILES = ["--g", "{id4}", "--h", "{id4}", "--symmetries", "{syms}"]


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["majorize", "--y", "abc", "--x", "1,0"], 2),
        (["classify3", "--state", "{bad_amps}"], 2),
        (["mes4-check", "--params", "2,0+1i,0.5,1+1i", "--operator", "{bad_factors}"], 2),
        (["mes3-gen", "--a", "0.6", "--beta", "0.7", "--betaprime", "-1.1",
          "--out", "{tmp}/missing/x.json"], 2),
        (["povm-build", *SEP_FILES, "--weights", "0.5,0.5,0.5,0.5"], 2),
        (["povm-build", *SEP_FILES, "--weights", "0.25,0.25,0.25,0.25", "--r", "-1"], 2),
        (["mes3-check", "--state", "{ghz}"], 3),
    ],
)
def test_exit_codes(argv, expected, tmp_path, monkeypatch, capsys):
    syms = [ProductOperator.identity(4)] + [ProductOperator.pauli_string(w * 4) for w in "xyz"]
    contents = {
        "id4": io.operator_to_obj(ProductOperator.identity(4)),
        "syms": io.operators_to_obj(syms),
        "ghz": io.state_to_obj(ghz_state()),
        "bad_amps": {"n": 3, "amps": 5},
        "bad_factors": {"factors": 5},
    }
    files = {"tmp": str(tmp_path)}
    for name, obj in contents.items():
        files[name] = str(tmp_path / f"{name}.json")
        io.dump_json(files[name], obj)

    def fail_numerically(*args, **kwargs):
        raise NumericalError("forced numerical failure")

    # only the mes3-check row reaches the forced failure
    monkeypatch.setattr(cli.tri, "in_mes3", fail_numerically)
    code, rep = report_of([a.format(**files) for a in argv], capsys)
    assert code == expected and rep["error"]


@pytest.mark.parametrize(
    "reader,obj",
    [
        (io.state_from_obj, {"n": 3, "amps": 5}),
        (io.state_from_obj, {"n": None, "amps": []}),
        (io.state_from_obj, {"n": 1, "amps": [[[1], 0], [0, 0]]}),
        (io.operator_from_obj, {"factors": 5}),
        (io.operator_from_obj, {"factors": [5]}),
        (io.operator_from_obj, {"factors": [[5, 6], [7, 8]]}),
        (io.operators_from_obj, {"operators": 5}),
        (io.matrix_from_obj, None),
    ],
)
def test_readers_reject_malformed_structure(reader, obj):
    with pytest.raises(ValueError):
        reader(obj)


class TestComplexParsing:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("2", 2 + 0j),
            ("0.5", 0.5 + 0j),
            ("-1.5", -1.5 + 0j),
            ("0+1i", 1j),
            ("1+1i", 1 + 1j),
            ("2-0.5i", 2 - 0.5j),
            ("i", 1j),
            ("-i", -1j),
            ("3i", 3j),
            ("1e-2+2e-3i", 0.01 + 0.002j),
        ],
    )
    def test_accepts(self, text, value):
        assert io.parse_complex(text) == pytest.approx(value)

    @pytest.mark.parametrize("text", ["", "abc", "1+2", "++1i", "1i2"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            io.parse_complex(text)
