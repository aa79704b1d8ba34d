import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qteleport
from qteleport.cli import build_parser, main, parse_state, parse_theta
from qteleport.jsonio import matrix_to_pairs
from qteleport.states import density_from_bloch


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# grammar


def test_parse_theta_forms():
    assert parse_theta("pi/4") == np.pi / 4
    assert parse_theta("3pi/16") == 3 * np.pi / 16
    assert parse_theta("pi") == np.pi
    assert parse_theta("0.5") == 0.5


def test_parse_state_bloch_and_ket():
    rho = parse_state("0,0,0.5", dim=2)
    assert np.allclose(rho, density_from_bloch([0, 0, 0.5]))
    rho = parse_state("0.70710678118654752:0,0:0.70710678118654752", dim=2)
    assert abs(rho[0, 1] + 0.5j) < 1e-10  # chi0 * conj(chi1) = -i/2


def test_parse_state_matrix_rows():
    rho = parse_state("0.5:0,0:0;0:0,0.5:0", dim=2)
    assert np.allclose(rho, np.eye(2) / 2)


def test_parse_state_file(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(matrix_to_pairs(np.eye(2) / 2)))
    rho = parse_state(f"@{path}", dim=2)
    assert np.allclose(rho, np.eye(2) / 2)


# ---------------------------------------------------------------------------
# decompose


def test_decompose_worked_example(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--bloch1", "0,0,0.5", "--bloch2", "0.5,0,0")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["lambda1"] - 0.3110177634953864) < 1e-10
    assert abs(doc["lambda2"] - 0.6889822365046135) < 1e-10
    assert doc["reconstruction_residual_1"] < 1e-10


def test_decompose_pure_inputs_boundary(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--bloch1", "0,0,1", "--bloch2", "1,0,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["boundary"] is True
    lams = sorted([doc["lambda1"], doc["lambda2"]])
    assert abs(lams[0]) < 1e-9 and abs(lams[1] - 1) < 1e-9


def test_decompose_commuting_exits_2_with_diagnostic(capsys):
    code, out, err = run_cli(capsys, "decompose", "--bloch1", "0,0,0.2", "--bloch2", "0,0,0.7")
    assert code == 2
    assert "commutator norm" in err


# ---------------------------------------------------------------------------
# teleport / entangle / dilate


def test_teleport_default_is_exact(capsys):
    code, out, _ = run_cli(capsys, "teleport", "--input", "0,0,0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] is True


def test_teleport_partial_channel_plus(capsys):
    code, out, _ = run_cli(capsys, "teleport", "--input",
                           "0.70710678118654752:0,0.70710678118654752:0",
                           "--channel-angle", "pi/8")
    doc = json.loads(out)
    assert abs(doc["fidelity"] - (1 + np.sin(np.pi / 4)) / 2) < 1e-9


def test_teleport_classical_protocol(capsys):
    code, out, _ = run_cli(capsys, "teleport", "--input", "0,0,0.5",
                           "--protocol", "classical", "--channel-pair", "1:0,0:0,0:0,0:0")
    doc = json.loads(out)
    assert doc["exact"] is True


def test_entangle_angle_report(capsys):
    code, out, _ = run_cli(capsys, "entangle", "--angle", "pi/8")
    doc = json.loads(out)
    assert abs(doc["concurrence"] - np.sin(np.pi / 4)) < 1e-9
    assert doc["is_maximal"] is False
    code, out, _ = run_cli(capsys, "entangle", "--angle", "pi/4")
    assert json.loads(out)["is_maximal"] is True


def test_dilate_bbcjpw(capsys):
    code, out, _ = run_cli(capsys, "dilate", "--protocol", "bbcjpw", "--probes", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["env_dim"] == 4
    assert doc["unitarity_residual"] < 1e-9
    assert doc["kraus_match_residual"] < 1e-9


# ---------------------------------------------------------------------------
# verify


def test_verify_linearity_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "linearity", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert all(c["pass"] for c in doc["checks"])
    assert all(set(c) == {"check", "residual", "threshold", "pass"} for c in doc["checks"])


def test_verify_dilation_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "dilation", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert max(c["residual"] for c in doc["checks"]) < 1e-9


def test_verify_deterministic_bytes(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--suite", "linearity", "--seed", "7")
    _, out2, _ = run_cli(capsys, "verify", "--suite", "linearity", "--seed", "7")
    assert out1 == out2


def test_verify_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("QTELEPORT_SEED", "55")
    _, out_env, _ = run_cli(capsys, "verify", "--suite", "linearity")
    monkeypatch.delenv("QTELEPORT_SEED")
    _, out_flag, _ = run_cli(capsys, "verify", "--suite", "linearity", "--seed", "55")
    assert json.loads(out_env)["seed"] == 55
    assert out_env == out_flag


# ---------------------------------------------------------------------------
# sweep (tiny configurations to stay fast)


def test_sweep_json_shape_and_verdicts(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--thetas", "pi/8,pi/4", "--starts", "1",
                           "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    assert [r["theta"] for r in doc["rows"]] == [np.pi / 8, np.pi / 4]
    assert doc["rows"][0]["is_maximal"] is False
    assert doc["rows"][1]["is_maximal"] is True
    assert doc["rows"][1]["best_min_fidelity"] >= 1 - 1e-9


def test_sweep_csv_format(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--thetas", "pi/4", "--starts", "1",
                           "--seed", "0", "--output-format", "csv")
    lines = out.strip().split("\n")
    assert lines[0] == "theta,channel_entropy,best_min_fidelity,starts,evaluations,is_maximal"
    assert lines[1].endswith(",true")


def test_sweep_byte_identical_reruns(capsys, tmp_path):
    args = ["sweep", "--thetas", "pi/8", "--starts", "2", "--seed", "0",
            "--output-format", "csv"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_sweep_rejects_theta_zero(capsys):
    code, _, err = run_cli(capsys, "sweep", "--thetas", "0,pi/4", "--starts", "1")
    assert code == 2
    assert "theta" in err


def test_sweep_checks_tol_maximal_before_sweeping(capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran before --tol-maximal was checked")

    monkeypatch.setattr("qteleport.cli.sweep_channel_angle", no_sweep)
    code, _, err = run_cli(capsys, "sweep", "--thetas", "pi/4", "--starts", "1",
                           "--tol-maximal", "5")
    assert code == 2
    assert "tol must lie in (0, 0.1)" in err


def test_sweep_writes_output_file(capsys, tmp_path):
    path = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "sweep", "--thetas", "pi/4", "--starts", "1",
                           "--seed", "0", "--output-format", "csv", "-o", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("theta,")


# ---------------------------------------------------------------------------
# exit codes and flag handling


def test_unknown_flag_is_hard_error(capsys):
    code, _, err = run_cli(capsys, "entangle", "--angle", "pi/4", "--no-such-flag", "1")
    assert code == 2


def test_unknown_subcommand_errors(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def test_bad_state_grammar_exits_2(capsys):
    code, _, err = run_cli(capsys, "teleport", "--input", "not-a-state")
    assert code == 2
    assert "error" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "entangle", "--state", "@/no/such/file.json")
    assert code == 2



_TELEPORT_FILE = ["teleport", "--input", "0,0,1", "--protocol"]


@pytest.mark.parametrize(
    "argv, env_seed, json_doc",
    [
        (["teleport", "--input", "0,0,1", "--channel-angle", "pi/0"], None, None),
        (["verify", "--suite", "linearity"], "abc", None),
        (_TELEPORT_FILE, None, {"alice_dim": 4, "bob_dim": 4}),
        (_TELEPORT_FILE, None,
         {"alice_dim": 4, "bob_dim": 4, "pairs": [{"a": matrix_to_pairs(np.eye(4))}]}),
        (_TELEPORT_FILE, None, {"alice_dim": 4, "bob_dim": 4, "pairs": [{"a": [], "b": []}]}),
        (["dilate", "--probes", "-3"], None, None),
        (["sweep", "--thetas", "pi/8", "--starts", "1", "--chi1", "1,0", "--chi2", "0,1"],
         None, None),
        (["entangle", "--angle", "0.1", "--tol-maximal", "5"], None, None),
        (["sweep", "--thetas", "pi/4", "--starts", "1", "--tol-maximal", "5"], None, None),
        (["sweep", "--thetas", "pi/8", "--starts", "1", "--chi1", "nan,0",
          "--output-format", "csv"], None, None),
        (["teleport", "--input"], None, {"a": 1}),
        (_TELEPORT_FILE, None, {"alice_dim": 4, "bob_dim": 4, "pairs": [{"a": 5, "b": 5}]}),
        (["teleport", "--input", "0,0,1", "--channel-angle", "inf"], None, None),
        (["entangle", "--angle", "inf"], None, None),
        (["teleport", "--input", "1,0,0", "--protocol", "classical", "--channel-angle", "0.3",
          "--tol-exact", "0.6"], None, None),
        (["teleport", "--input", "1,0,0", "--tol-exact", "nan"], None, None),
        (["teleport", "--input", "0,0,1", "--channel-angle", "pi/8",
          "--channel-pair", "1:0,0:0,0:0,0:0"], None, None),
        (["entangle", "--state", "1,0,0,0", "--angle", "pi/4"], None, None),
        (["decompose", "--bloch1", "0,0,0.5", "--bloch2", "0.5,0,0",
          "--rho1", "1,0", "--rho2", "0,1"], None, None),
        (["teleport", "--input", "0,0,1", "--basis", "1,0;0,1"], None, None),
        (["dilate", "--basis", "1,0;0,1"], None, None),
    ],
    ids=["angle-pi-over-0", "env-seed-not-int", "protocol-no-pairs", "protocol-pair-no-b",
         "protocol-pair-not-matrix", "negative-probes", "sweep-orthogonal-pair",
         "entangle-tol-maximal-out-of-range", "sweep-tol-maximal-out-of-range",
         "sweep-nan-ket", "input-file-json-object", "protocol-pair-factor-number",
         "teleport-angle-inf", "entangle-angle-inf", "tol-exact-out-of-range", "tol-exact-nan",
         "channel-angle-and-pair", "entangle-state-and-angle", "decompose-bloch-and-rho",
         "teleport-basis-without-classical", "dilate-basis-without-classical"],
)
def test_malformed_input_exits_2_without_traceback(
    capsys, monkeypatch, tmp_path, argv, env_seed, json_doc
):
    if env_seed is not None:
        monkeypatch.setenv("QTELEPORT_SEED", env_seed)
    if json_doc is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(json_doc))
        argv = [*argv, f"@{path}"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "Warning" not in err
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--bloch1", "0,0,0.5", "--bloch2", "0.5,0,0"],
        ["teleport", "--input", "0,0,1"],
        ["entangle", "--angle", "pi/8"],
    ],
    ids=["decompose", "teleport", "entangle"],
)
def test_unseeded_subcommands_ignore_env_seed(capsys, monkeypatch, argv):
    monkeypatch.setenv("QTELEPORT_SEED", "abc")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == ""
    json.loads(out)
    with pytest.raises(SystemExit):
        build_parser().parse_args([*argv, "--seed", "1"])


def test_cli_import_loads_no_scipy():
    # the package runs on numpy alone; a fresh interpreter shows what it loads
    src = str(Path(qteleport.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, qteleport.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
