import csv
import io
import json
import math
from dataclasses import replace

import pytest

from fockherald import InputCoefficients, protocols
from fockherald.cli import main
from fockherald.protocols import run_teleport

G2_CLOSED = (3 - math.sqrt(2)) / 7
G1_CLOSED = (21 - 7 * math.sqrt(2)) / (9 + 4 * math.sqrt(2))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_params_nls(capsys):
    code, out, _ = run_cli(capsys, "params", "nls")
    assert code == 0
    data = json.loads(out)
    assert data["gamma1"] == pytest.approx(G1_CLOSED, abs=1e-14)
    assert data["gamma2"] == pytest.approx(G2_CLOSED, abs=1e-14)
    assert data["residual"] < 1e-12


def test_params_teleport(capsys):
    code, out, _ = run_cli(capsys, "params", "teleport", "--gamma2", "0.1")
    assert code == 0
    assert json.loads(out)["gamma1"] == pytest.approx(0.15625)


def test_params_teleport_out_of_range(capsys):
    code, _, err = run_cli(capsys, "params", "teleport", "--gamma2", "0.6")
    assert code == 2
    assert json.loads(err)["error"] == "gamma2 must lie in (0, 0.5), got 0.6"


def test_run_nls_auto_params(capsys):
    # with no gammas given, run nls solves them
    code, out, _ = run_cli(capsys, "run", "nls", "--c0", "1", "--c1", "1", "--c2", "1")
    assert code == 0
    data = json.loads(out)
    assert data["fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert abs(data["success_probability"] - 0.042517) < 1e-5


def test_run_teleport_qubit(capsys):
    code, out, _ = run_cli(
        capsys, "run", "teleport-qubit", "--c0", "1", "--c1", "0",
        "--gamma2", "0.1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert data["paper_claimed_probability"] == pytest.approx(
        2 * data["success_probability"], rel=1e-9
    )


@pytest.mark.parametrize("protocol, coeffs", [
    ("teleport-qubit", ("--c0", "0.6", "--c1", "0.8")),
    ("teleport-qutrit", ("--c0", "0.6", "--c1", "0.48", "--c2", "0.64")),
])
def test_run_teleport_dispatches_through_the_table(capsys, protocol, coeffs):
    code, out, _ = run_cli(capsys, "run", protocol, "--gamma2", "0.2", *coeffs)
    assert code == 0
    cs = InputCoefficients(*(float(x) for x in coeffs[1::2]))
    assert out == run_teleport(protocol, cs, 0.2).to_json() + "\n"


def test_run_nls_explicit_gammas(capsys):
    code, out, _ = run_cli(
        capsys,
        "run", "nls", "--c0", "1", "--c1", "0", "--c2", "0",
        "--gamma1", "0", "--gamma2", "0.2",
    )
    assert code == 0
    data = json.loads(out)
    # gamma1=0 leaves a bare two-mode squeezer; (1,1) herald weight on vacuum
    assert data["success_probability"] == pytest.approx(0.8 * 0.2, abs=1e-10)


def test_run_complex_coefficients(capsys):
    code, out, _ = run_cli(
        capsys,
        "run", "teleport-qubit", "--c0", "0.6", "--c1-im", "0.8",
        "--gamma2", "0.05",
    )
    assert code == 0
    assert json.loads(out)["fidelity"] == pytest.approx(1.0, abs=1e-9)


def test_run_conflicting_coefficient_flags(capsys):
    # --cN is the real part: the --cN-re aliases and --auto-params are gone
    for extra in (["--c0-re", "1"], ["--c1-re", "1"], ["--c2-re", "1"], ["--auto-params"]):
        with pytest.raises(SystemExit) as exc:
            main(["run", "teleport-qubit", "--c0", "1", "--gamma2", "0.05", *extra])
        assert exc.value.code == 2
        assert extra[0] in capsys.readouterr().err


def test_run_pretty_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "run", "nls", "--c0", "1", "--c1", "1", "--c2", "1", "--format", "pretty",
    )
    assert code == 0
    assert "success probability" in out
    assert "top output terms:" in out


def test_run_output_deterministic(capsys):
    argv = ["run", "teleport-qutrit", "--c0", "1", "--c1", "1", "--c2", "1",
            "--gamma2", "0.05"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_env_cutoff_override(capsys, monkeypatch):
    # only --cutoff sets the cutoff: the environment does not override the herald cutoff
    monkeypatch.setenv("FOCKHERALD_CUTOFF", "12")
    argv = ["run", "teleport-qubit", "--c0", "1", "--c1", "1", "--gamma2", "0.05"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["output_state"]["cutoff"] == 1
    code, out, _ = run_cli(capsys, *argv, "--cutoff", "12")
    assert code == 0
    assert json.loads(out)["output_state"]["cutoff"] == 12


def test_env_cutoff_invalid(capsys, monkeypatch):
    # the CLI reads no environment variable, so no value there is an error
    monkeypatch.setenv("FOCKHERALD_CUTOFF", "zero")
    code, out, err = run_cli(
        capsys, "run", "teleport-qubit", "--c0", "1", "--c1", "1",
        "--gamma2", "0.05",
    )
    assert code == 0 and err == ""
    assert json.loads(out)["output_state"]["cutoff"] == 1


@pytest.mark.parametrize("argv, message", [
    (["params", "teleport"], "params teleport requires --gamma2"),
    (["run", "teleport-qubit", "--c0", "1"], "teleport-qubit requires --gamma2"),
    (["run", "teleport-qutrit", "--gamma2", "0.1", "--gamma1", "0.2"],
     "teleport-qutrit derives gamma1 from the constraint"),
    (["run", "nls", "--gamma2", "0.2"], "nls needs both --gamma1 and --gamma2, or neither"),
    (["sweep", "teleport-qubit", "--start", "0.1", "--stop", "0.2", "--points", "0"],
     "--points must be >= 1"),
    (["sweep", "teleport-qubit", "--start", "0", "--stop", "0.2", "--log"],
     "log grid requires positive bounds"),
    (["sweep", "teleport-qubit", "--start", "0.1", "--stop", "-0.2", "--log"],
     "log grid requires positive bounds"),
    (["oracle-check", "--gamma", "1.5"], "gamma must lie in [0, 1), got 1.5"),
])
def test_invalid_input_exits_2_with_one_message(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": message}


def test_constrained_fidelity_below_contract_exits_3(capsys, monkeypatch):
    real = protocols.run_teleport
    monkeypatch.setattr(protocols, "run_teleport", lambda *a: replace(real(*a), fidelity=0.5))
    code, out, err = run_cli(capsys, "run", "teleport-qubit", "--c0", "1", "--gamma2", "0.1")
    assert code == 3
    assert json.loads(out)["fidelity"] == 0.5
    assert json.loads(err) == {"error": "fidelity 0.5 below contract"}


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "nls", "--cutoff", "0"],
        ["sweep", "teleport-qubit", "--start", "0.1", "--stop", "0.2",
         "--points", "2", "--cutoff", "0"],
    ],
)
def test_cutoff_zero_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "--cutoff" in json.loads(err)["error"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["run", "not-a-protocol"])
    assert exc.value.code == 2


def test_valid_call_after_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "teleport-qubit", "--points", "3"])  # --start missing
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "params", "teleport", "--gamma2", "0.1")
    assert code == 0
    assert json.loads(out)["gamma1"] == pytest.approx(0.15625)


def test_sweep_csv_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "teleport-qubit", "--start", "0.01", "--stop", "0.3",
        "--points", "5",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["gamma2", "gamma1", "probability", "fidelity",
                       "leaked_norm", "error"]
    assert len(rows) == 6


def test_sweep_single_point_matches_run(capsys):
    _, sweep_out, _ = run_cli(
        capsys,
        "sweep", "teleport-qubit", "--start", "0.1", "--stop", "0.1",
        "--points", "1",
    )
    row = list(csv.DictReader(io.StringIO(sweep_out)))[0]
    c = 1 / math.sqrt(2)
    _, run_out, _ = run_cli(
        capsys, "run", "teleport-qubit", "--c0", str(c), "--c1", str(c),
        "--gamma2", "0.1",
    )
    data = json.loads(run_out)
    assert float(row["probability"]) == pytest.approx(
        data["success_probability"], abs=1e-12
    )


def test_sweep_invalid_point_flagged_not_fatal(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "teleport-qubit", "--start", "0.4", "--stop", "0.5",
        "--points", "2",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(r["error"] for r in rows)


def test_oracle_check_passes(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--gamma", "0.04",
                           "--cutoff", "12")
    assert code == 0
    assert json.loads(out)["max_amplitude_deviation"] < 1e-9


def test_oracle_check_zero_gamma(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--gamma", "0")
    assert code == 0
    assert json.loads(out)["max_amplitude_deviation"] == 0.0


def test_oracle_check_strong_coupling(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--gamma", "0.757359",
                           "--cutoff", "12")
    assert code == 0
    assert json.loads(out)["max_amplitude_deviation"] < 1e-9


def test_oracle_check_cutoff_limit(capsys):
    code, _, err = run_cli(capsys, "oracle-check", "--gamma", "0.1",
                           "--cutoff", "20")
    assert code == 2
