"""The reports of the criterion-10 CLI commands, pinned in tests/data/cli_golden.json.

Strings, bools, ints and nulls must match exactly, floats within 1e-12, and
every command must keep its exit code. Fixture file paths are stored as
``{name}`` placeholders. Rewrite the golden file only when a report is meant
to change: ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
import json
import math
import pathlib
import tempfile

import pytest
from test_acceptance import _cli_fixture_files

from mesq import cli

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.json"
FLOAT_ATOL = 1e-12

COMMANDS = [
    ["majorize", "--y", "1,0", "--x", "0.5,0.5"],
    ["nielsen", "--psi", "0.5,0.5", "--phi", "0.7,0.3"],
    ["classify3", "--state", "{state3}"],
    ["stdform3", "--state", "{state3}"],
    ["mes3-check", "--state", "{state3}"],
    ["mes3-gen", "--a", "0.6", "--beta", "0.7", "--betaprime", "-1.1"],
    ["seed4", "--params", "2,0+1i,0.5,1+1i"],
    ["mes4-check", "--params", "2,0+1i,0.5,1+1i", "--operator", "{id4}", "--mode", "status"],
    ["sep-verify", "--g", "{id4}", "--h", "{h4}", "--symmetries", "{syms}",
     "--weights", "0.25,0.25,0.25,0.25"],
    ["sep-solve", "--g", "{id4}", "--h", "{h4}", "--symmetries", "{syms}"],
    ["povm-build", "--g", "{id4}", "--h", "{h4}", "--symmetries", "{syms}",
     "--weights", "0.25,0.25,0.25,0.25"],
    ["convert-verify", "--povm", "{povm}", "--source", "{source}", "--target", "{target}"],
    ["synth4q", "--params", "2,0+1i,0.5,1+1i", "--operator", "{h4}"],
    ["rep-build"],
    ["rep-sim", "--alpha4", "0.3", "--alpha5", "1.1", "--alpha6", "-0.7", "--seed", "5"],
    ["rep-verify", "--alpha4", "0.3", "--alpha5", "1.1", "--alpha6", "-0.7"],
    ["mixed-prep", "--ensemble", "{ensemble}", "--seed", "5"],
]


def _run(argv, files, read_stdout):
    """Exit code and parsed report, with fixture paths put back as placeholders."""
    code = cli.main([a.format(**files) for a in argv])
    text = read_stdout()
    for name, path in files.items():
        text = text.replace(path, "{" + name + "}")
    return code, json.loads(text)


def _assert_matches(got, want, where):
    assert type(got) is type(want), f"{where}: {got!r} is not of the type of {want!r}"
    if isinstance(want, float):
        assert got == want or math.isclose(got, want, rel_tol=0.0, abs_tol=FLOAT_ATOL), (
            f"{where}: {got!r} differs from {want!r} by more than {FLOAT_ATOL}")
    elif isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys {list(got)} != {list(want)}"
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{i}]")
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_report_matches_golden(argv, tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text())[argv[0]]
    code, report = _run(argv, _cli_fixture_files(tmp_path), lambda: capsys.readouterr().out)
    assert code == golden["exit_code"]
    _assert_matches(report, golden["report"], argv[0])


if __name__ == "__main__":
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        files = _cli_fixture_files(pathlib.Path(tmp))
        for argv in COMMANDS:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code, report = _run(argv, files, buffer.getvalue)
            golden[argv[0]] = {"exit_code": code, "report": report}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
