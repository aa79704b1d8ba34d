"""Command-line surface: decompose, teleport, entangle, verify, sweep, dilate.

Every invocation is deterministic given its flags and seed; floats are
emitted with 17 significant digits so reports are byte-reproducible and
parse back losslessly. Exit codes: 0 success, 1 verification failure,
2 usage or input error.

State grammar:
  Bloch triple   x,y,z                e.g.  0,0,0.5
  ket            re:im,re:im,...      e.g.  0.7071:0,0:0.7071
  matrix         rows ; entries ,     e.g.  1:0,0:0;0:0,0:0
  file           @path                JSON with [re, im] entry pairs

verify, sweep and dilate take --seed; its default comes from the
QTELEPORT_SEED environment variable when set, else 0.
"""

import argparse
import json
import os
import re
import sys

import numpy as np

from . import jsonio
from .channels import (
    angle_channel,
    entangled_pair_ket,
    protocol_from_json,
    resource_channel,
)
from .entanglement import (
    DEFAULT_MAXIMAL_TOL,
    check_tol,
    entanglement_report,
    is_maximally_entangled,
)
from .errors import CommutingInputError
from .linalg import frobenius
from .states import (
    check_density_matrix,
    check_pure_state,
    density_from_bloch,
    extreme_decomposition,
    pure_density,
)
from .suites import dilation_residuals, run_suite
from .teleport import TOL_EXACT, bbcjpw_protocol, classical_commuting_protocol, run_teleport
from .optimize import sweep_channel_angle

ENV_SEED = "QTELEPORT_SEED"


# ---------------------------------------------------------------------------
# input grammar


def parse_theta(token: str) -> float:
    token = token.strip().lower()
    m = re.fullmatch(r"([0-9.]*)\s*pi\s*(?:/\s*([0-9.]+))?", token)
    if m:
        num = float(m.group(1)) if m.group(1) else 1.0
        den = float(m.group(2)) if m.group(2) else 1.0
        if den == 0.0:
            raise ValueError(f"angle {token!r} divides by zero")
        theta = num * np.pi / den
    else:
        theta = float(token)
    if not np.isfinite(theta):
        raise ValueError(f"angle {token!r} is not finite")
    return theta


def _parse_amplitude(token: str) -> complex:
    token = token.strip()
    if ":" in token:
        re_part, im_part = token.split(":", 1)
        return complex(float(re_part), float(im_part))
    return complex(float(token), 0.0)


def parse_ket(text: str, dim: int | None = None) -> np.ndarray:
    vec = np.array([_parse_amplitude(t) for t in text.split(",")], dtype=complex)
    return check_pure_state(vec, dim=dim)


def _load_json_state(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    expected = f"{path}: expected a JSON ket or matrix of [re, im] pairs"
    try:
        arr = np.asarray(doc, dtype=float)
    except (TypeError, ValueError) as exc:  # an object, a string, ragged rows
        raise ValueError(expected) from exc
    if arr.ndim == 2 and arr.shape[1] == 2:  # ket: list of [re, im]
        return arr[:, 0] + 1j * arr[:, 1]
    if arr.ndim == 3 and arr.shape[2] == 2:  # matrix: rows of [re, im]
        return jsonio.matrix_from_pairs(doc)
    raise ValueError(expected)


def parse_state(text: str, dim: int) -> np.ndarray:
    """Any state spec -> a validated density matrix of the given dimension."""
    if text.startswith("@"):
        raw = _load_json_state(text[1:])
    elif ";" in text:
        raw = np.array(
            [[_parse_amplitude(t) for t in row.split(",")] for row in text.split(";")],
            dtype=complex,
        )
    else:
        parts = text.split(",")
        if dim == 2 and len(parts) == 3 and ":" not in text:
            return density_from_bloch([float(t) for t in parts])
        raw = np.array([_parse_amplitude(t) for t in parts], dtype=complex)
    if raw.ndim == 1:
        return pure_density(check_pure_state(raw, dim=dim))
    return check_density_matrix(raw, dim=dim)


def parse_protocol(spec: str, basis: str | None):
    if basis is not None and spec != "classical":
        raise ValueError("--basis applies only to --protocol classical")
    if spec == "bbcjpw":
        return bbcjpw_protocol()
    if spec == "classical":
        basis = basis or "1,0;0,1"
        kets = [parse_ket(part, dim=2) for part in basis.split(";")]
        if len(kets) != 2:
            raise ValueError("classical protocol basis needs exactly two kets")
        return classical_commuting_protocol(tuple(kets))
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            return protocol_from_json(fh.read())
    raise ValueError(f"unknown protocol {spec!r}; use bbcjpw, classical, or @file")


# ---------------------------------------------------------------------------
# output helpers


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc: dict, path: str | None) -> None:
    _emit(jsonio.dumps(doc) + "\n", path)


# ---------------------------------------------------------------------------
# subcommands


def cmd_decompose(args) -> int:
    bloch, rho = (args.bloch1, args.bloch2), (args.rho1, args.rho2)
    given = [pair for pair in (bloch, rho) if pair != (None, None)]
    if len(given) != 1 or None in given[0]:
        raise ValueError("decompose needs --bloch1 and --bloch2, or --rho1 and --rho2, not both")
    if given[0] is bloch:
        rho1, rho2 = (density_from_bloch([float(t) for t in b.split(",")]) for b in bloch)
    else:
        rho1, rho2 = (parse_state(r, dim=2) for r in rho)
    dec = extreme_decomposition(rho1, rho2)
    doc = {
        "psi": [jsonio.complex_pair(z) for z in dec.psi],
        "phi": [jsonio.complex_pair(z) for z in dec.phi],
        "lambda1": dec.lam1,
        "lambda2": dec.lam2,
        "overlap": dec.overlap(),
        "boundary": dec.boundary,
        "reconstruction_residual_1": frobenius(dec.reconstruct(1) - rho1),
        "reconstruction_residual_2": frobenius(dec.reconstruct(2) - rho2),
    }
    _emit_json(doc, args.output)
    return 0


def cmd_teleport(args) -> int:
    check_tol(args.tol_exact)
    rho_in = parse_state(args.input, dim=2)
    if args.channel_pair is not None:
        channel = resource_channel(parse_state(args.channel_pair, dim=4))
    else:
        channel = angle_channel(parse_theta(args.channel_angle))
    protocol = parse_protocol(args.protocol, args.basis)
    outcome = run_teleport(rho_in, channel, protocol, rho_in)
    doc = {
        "fidelity": outcome.fidelity,
        "exact": bool(outcome.fidelity >= 1.0 - args.tol_exact),
        "tol_exact": args.tol_exact,
        "output": jsonio.matrix_to_pairs(outcome.output),
    }
    _emit_json(doc, args.output)
    return 0


def cmd_entangle(args) -> int:
    if args.angle is not None:
        rho = pure_density(entangled_pair_ket(parse_theta(args.angle)))
    else:
        rho = parse_state(args.state, dim=4)
    report = entanglement_report(rho, tol=args.tol_maximal)
    doc = {
        "entropy": report.entropy,
        "concurrence": report.concurrence,
        "eof": report.eof,
        "fef": report.fef,
        "is_maximal": report.is_maximal,
        "tol_maximal": args.tol_maximal,
    }
    _emit_json(doc, args.output)
    return 0


def cmd_verify(args) -> int:
    checks = run_suite(args.suite, args.seed)
    doc = {
        "suite": args.suite,
        "seed": args.seed,
        "checks": [
            {
                "check": c.check,
                "residual": c.residual,
                "threshold": c.threshold,
                "pass": c.passed,
            }
            for c in checks
        ],
        "pass": all(c.passed for c in checks),
    }
    _emit_json(doc, args.output)
    return 0 if doc["pass"] else 1


def cmd_sweep(args) -> int:
    thetas = [parse_theta(t) for t in args.thetas.split(",")]
    chi1 = parse_ket(args.chi1, dim=2)
    chi2 = parse_ket(args.chi2, dim=2)
    check_tol(args.tol_maximal)
    rows = sweep_channel_angle(thetas, chi1, chi2, starts=args.starts, seed=args.seed)
    records = []
    for row in rows:
        record = {key: getattr(row, key) for key in
                  ("theta", "channel_entropy", "best_min_fidelity", "starts", "evaluations")}
        resource = pure_density(entangled_pair_ket(row.theta))
        record["is_maximal"] = is_maximally_entangled(resource, tol=args.tol_maximal)
        records.append(record)
    if args.output_format == "csv":
        lines = [",".join(records[0])]  # the header; a sweep has at least one angle
        lines.extend(",".join(jsonio.dumps(v) for v in record.values()) for record in records)
        _emit("\n".join(lines) + "\n", args.output)
    else:
        doc = {
            "chi1": [jsonio.complex_pair(z) for z in chi1],
            "chi2": [jsonio.complex_pair(z) for z in chi2],
            "starts": args.starts,
            "seed": args.seed,
            "tol_maximal": args.tol_maximal,
            "rows": records,
        }
        _emit_json(doc, args.output)
    return 0


def cmd_dilate(args) -> int:
    protocol = parse_protocol(args.protocol, args.basis)
    rng = np.random.default_rng(args.seed)
    dil, unitarity, worst = dilation_residuals(protocol, args.probes, rng)
    doc = {
        "n_pairs": len(protocol),
        "env_dim": dil.env_dim,
        "completeness_residual": protocol.completeness_residual,
        "unitarity_residual": unitarity,
        "kraus_match_residual": worst,
        "probes": args.probes,
        "seed": args.seed,
    }
    _emit_json(doc, args.output)
    return 0


# ---------------------------------------------------------------------------
# parser


def _seed(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer seed (from --seed or ${ENV_SEED})"
        ) from None


def _non_negative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qteleport",
        description="Teleportation protocol verification and entanglement sweeps.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, seeded: bool):
        if seeded:
            # argparse converts a string default only for the chosen
            # subcommand, so the others never read the environment variable
            p.add_argument("--seed", type=_seed, default=os.environ.get(ENV_SEED, "0"),
                           help=f"RNG seed (default: ${ENV_SEED} or 0)")
        p.add_argument("-o", "--output", default=None, help="write output to a file")

    p = sub.add_parser("decompose", help="two-state chord decomposition of a qubit pair")
    p.add_argument("--bloch1", help="Bloch triple for the first state")
    p.add_argument("--bloch2", help="Bloch triple for the second state")
    p.add_argument("--rho1", help="first state (ket, matrix, or @file)")
    p.add_argument("--rho2", help="second state (ket, matrix, or @file)")
    add_common(p, seeded=False)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("teleport", help="run one teleportation and report fidelity")
    p.add_argument("--input", required=True, help="qubit to send (bloch, ket, matrix, @file)")
    channel = p.add_mutually_exclusive_group()
    channel.add_argument("--channel-angle", default="pi/4", help="resource angle (default pi/4)")
    channel.add_argument("--channel-pair", default=None,
                         help="explicit A:B resource state instead of an angle")
    p.add_argument("--protocol", default="bbcjpw", help="bbcjpw, classical, or @file")
    p.add_argument("--basis", default=None, help="measurement basis for the classical protocol")
    p.add_argument("--tol-exact", type=float, default=TOL_EXACT)
    add_common(p, seeded=False)
    p.set_defaults(func=cmd_teleport)

    p = sub.add_parser("entangle", help="entanglement measures of a two-qubit state")
    resource = p.add_mutually_exclusive_group(required=True)
    resource.add_argument("--state", help="two-qubit state (ket, matrix, or @file)")
    resource.add_argument("--angle", help="shortcut: cos/sin resource at this angle")
    p.add_argument("--tol-maximal", type=float, default=DEFAULT_MAXIMAL_TOL)
    add_common(p, seeded=False)
    p.set_defaults(func=cmd_entangle)

    p = sub.add_parser("verify", help="run a seeded verification suite")
    p.add_argument("--suite", required=True,
                   choices=["linearity", "extreme-reduction", "dilation", "all"])
    add_common(p, seeded=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="fidelity sweep against channel entanglement")
    p.add_argument("--thetas", default="pi/16,pi/8,3pi/16,pi/4",
                   help="comma list of angles in (0, pi/4]")
    p.add_argument("--chi1", default="1,0", help="first ket of the fixed pair")
    p.add_argument("--chi2", default="0.70710678118654752:0,0.70710678118654752:0",
                   help="second ket of the fixed pair")
    p.add_argument("--starts", type=int, default=32)
    p.add_argument("--tol-maximal", type=float, default=DEFAULT_MAXIMAL_TOL)
    p.add_argument("--output-format", choices=["json", "csv"], default="json")
    add_common(p, seeded=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("dilate", help="dilation facts for a protocol")
    p.add_argument("--protocol", default="bbcjpw", help="bbcjpw, classical, or @file")
    p.add_argument("--basis", default=None, help="measurement basis for the classical protocol")
    p.add_argument("--probes", type=_non_negative_int, default=10)
    add_common(p, seeded=True)
    p.set_defaults(func=cmd_dilate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except CommutingInputError as exc:
        print(f"error: {exc} (commutator norm {exc.commutator_norm:.17g})", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
