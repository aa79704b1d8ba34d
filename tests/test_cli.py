import hashlib
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


@pytest.mark.parametrize(
    "argv",
    [["entangle", "--state", "0.5:0,0.5:0,0.5:0,0.5:0"], ["entangle", "--angle", "0"]],
    ids=["plus-plus", "angle-0"],
)
def test_entangle_product_state_entropy_is_plain_zero(capsys, argv):
    # Schmidt coefficients rounded to 1 + eps must not print -6.4e-16 or -0
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert '"entropy": 0,' in out


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


# sha256 of the stdout of `sweep --thetas pi/8,pi/4 --starts 1 --seed 0`,
# as JSON and as CSV
_SWEEP_SHA256 = {
    "json": "354f4baa76595564cdf522bb4598d3681d612453a88f54b1f94562a357cc224c",
    "csv": "b46c194968569331086d998420e84c0ecde890b30ba873970fcbfbe5c7d2759b",
}


def test_sweep_json_shape_and_verdicts(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--thetas", "pi/8,pi/4", "--starts", "1",
                           "--seed", "0")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _SWEEP_SHA256["json"]
    doc = json.loads(out)
    assert [r["theta"] for r in doc["rows"]] == [np.pi / 8, np.pi / 4]
    assert doc["rows"][0]["is_maximal"] is False
    assert doc["rows"][1]["is_maximal"] is True
    assert doc["rows"][1]["best_min_fidelity"] >= 1 - 1e-9


def test_sweep_csv_format(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--thetas", "pi/8,pi/4", "--starts", "1",
                           "--seed", "0", "--output-format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _SWEEP_SHA256["csv"]
    lines = out.strip().split("\n")
    assert lines[0] == "theta,channel_entropy,best_min_fidelity,starts,evaluations,is_maximal"
    fields = [line.split(",") for line in lines[1:]]
    assert [len(f) for f in fields] == [6, 6]
    assert [float(f[0]) for f in fields] == [np.pi / 8, np.pi / 4]
    assert [int(f[3]) for f in fields] == [1, 1]
    assert [f[5] for f in fields] == ["false", "true"]


# sha256 of the stdout of kernel-heavy subcommands, run at one BLAS thread:
# `verify`'s dilation residuals change in their last digits with the count
_STDOUT_SHA256 = {
    "teleport-default": (["teleport", "--input", "0,0,0.5"],
                         "81f9a58be990ba1df7f9d53cfb2e6fb1ef8460fce665196eab8762d90e888e10"),
    "teleport-mixed-pi-8": (["teleport", "--input", "0.3,-0.2,0.4", "--channel-angle", "pi/8"],
                            "a5cd9a93668c95a4af63efadc51fafa5ede690378dfcba5e556fac2d9b6eb107"),
    "dilate-bbcjpw": (["dilate", "--protocol", "bbcjpw", "--seed", "0"],
                      "6ecc76b0a2c45c7a02fbd101c9518e673f95f68ec5af452026409e332015b5c5"),
    "verify-all": (["verify", "--suite", "all", "--seed", "0"],
                   "831f9775fd4e3fdb979a59db2fea47c9e180b3b1971f8a97ab2ec9781b721513"),
    # lowest eigenvalue -1e-10 + 5e-13: inside the clamp threshold, but too
    # close to it for the closed-form qubit check, so the general check accepts
    "teleport-matrix-near-clamp": (
        ["teleport", "--input", "1.0000000000995:0,0:0;0:0,-0.0000000000995:0"],
        "198f3e574ba7860360475bd385f2c66d547fbdceabe2d7eeec589ec5eda573e0"),
}


@pytest.mark.parametrize("name", list(_STDOUT_SHA256))
def test_stdout_is_pinned(name):
    argv, digest = _STDOUT_SHA256[name]
    src = str(Path(qteleport.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "QTELEPORT_SEED"}
    env.update(PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "qteleport.cli", *argv], env=env,
                          capture_output=True, check=False)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == digest


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


@pytest.mark.parametrize(
    "matrix, line",
    [
        ("0.5:0,0.1:0;0:0,0.5:0", "error: density matrix is not Hermitian within 1e-10"),
        ("1.000000001:0,0:0;0:0,-0.000000001:0",
         "error: eigenvalue -1.000e-09 below the -1e-10 clamp threshold"),
        ("0.6:0,0:0;0:0,0.6:0", "error: density matrix trace 1.2 is not 1 within 1e-10"),
        ("2.5:0,0:0;0:0,-1.5:0", "error: matrix has an entry of magnitude above 2"),
        ("nan:0,0:0;0:0,0.5:0", "error: matrix has non-finite entries"),
        ("0.5:0,0:0;0:0,0.5:nan", "error: matrix has non-finite entries"),
    ],
    ids=["non-hermitian", "eigenvalue-below-clamp", "trace-not-one", "entry-above-2",
         "nan-real-part", "nan-imaginary-part"],
)
def test_rejected_qubit_matrix_error_line(capsys, matrix, line):
    code, out, err = run_cli(capsys, "teleport", "--input", matrix)
    assert (code, out, err) == (2, "", line + "\n")



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
        (["teleport", "--input", "1e200:0,1e200:0"], None, None),
        (["decompose", "--bloch1", "1e200,1e200,0", "--bloch2", "1,0,0"], None, None),
        (["teleport", "--input", "1e200:0,1e200:0;0:0,0:0"], None, None),
        (_TELEPORT_FILE, None, {"alice_dim": None, "bob_dim": 4, "pairs": []}),
        (_TELEPORT_FILE, None, {"alice_dim": [4], "bob_dim": 4, "pairs": []}),
        (_TELEPORT_FILE, None, '{"alice_dim": 1e400, "bob_dim": 4, "pairs": []}'),
        (_TELEPORT_FILE, None, {"alice_dim": 4, "bob_dim": 4, "pairs": 5}),
        # two pure states 2.9e-8 apart: rounding merges their chord's sphere points
        (["decompose", "--bloch1=0.8103474193131788,-0.17710262590261314,0.5585442864365102",
          "--bloch2=0.81034740613072,-0.1771026139498519,0.5585443093518577"], None, None),
        (_TELEPORT_FILE, None, {"alice_dim": 4, "bob_dim": 4, "pairs": [
            {"a": matrix_to_pairs(1e200 * np.eye(4)), "b": matrix_to_pairs(np.eye(4))}]}),
        # the first array of 10**15 starts needs petabytes, beyond any 47-bit
        # address space, so its allocation fails at once
        (["sweep", "--thetas", "pi/4", "--starts", str(10**15)], None, None),
    ],
    ids=["angle-pi-over-0", "env-seed-not-int", "protocol-no-pairs", "protocol-pair-no-b",
         "protocol-pair-not-matrix", "negative-probes", "sweep-orthogonal-pair",
         "entangle-tol-maximal-out-of-range", "sweep-tol-maximal-out-of-range",
         "sweep-nan-ket", "input-file-json-object", "protocol-pair-factor-number",
         "teleport-angle-inf", "entangle-angle-inf", "tol-exact-out-of-range", "tol-exact-nan",
         "channel-angle-and-pair", "entangle-state-and-angle", "decompose-bloch-and-rho",
         "teleport-basis-without-classical", "dilate-basis-without-classical",
         "ket-entry-overflow", "bloch-entry-overflow", "matrix-entry-overflow",
         "protocol-dim-null", "protocol-dim-list", "protocol-dim-overflow",
         "protocol-pairs-number", "decompose-coincident-pure", "protocol-factor-overflow",
         "sweep-starts-unallocatable"],
)
def test_malformed_input_exits_2_without_traceback(
    capsys, monkeypatch, tmp_path, argv, env_seed, json_doc
):
    if env_seed is not None:
        monkeypatch.setenv("QTELEPORT_SEED", env_seed)
    if json_doc is not None:
        path = tmp_path / "input.json"
        # a string is written as it stands, for JSON that json.dumps cannot emit
        path.write_text(json_doc if isinstance(json_doc, str) else json.dumps(json_doc))
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
