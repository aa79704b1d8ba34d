"""End-to-end acceptance suite.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them
all). Reference numbers marked "frozen" were computed before trusting the
optimizer, by independent means: closed forms worked out by hand, index-
summation oracles, and a multistart reference search driven through
scipy's simplex/Powell implementations with the winner re-scored through
the general density-matrix path (scripts/compute_sweep_reference.py).
"""

import time

import numpy as np
import pytest

from qteleport.channels import angle_channel, entangled_pair_ket
from qteleport.entanglement import concurrence, is_maximally_entangled
from qteleport.linalg import frobenius, partial_trace
from qteleport.optimize import sweep_channel_angle
from qteleport.states import (
    commutator_norm,
    density_from_bloch,
    extreme_decomposition,
    haar_random_pure,
    pure_density,
    random_unitary,
)
from qteleport.suites import dilation_suite, extreme_reduction_suite, linearity_suite
from qteleport.teleport import (
    average_fidelity,
    bbcjpw_protocol,
    classical_commuting_protocol,
    product_channel,
    run_teleport,
)

from oracles import chord_sphere_points, haar_average_fidelity, random_bloch_in_ball

BELL = angle_channel(np.pi / 4)
KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)

SWEEP_GRID = (np.pi / 16, np.pi / 8, 3 * np.pi / 16, np.pi / 4)

# Frozen reference optima for the sweep grid (pair |0>, |+>): the best
# values certified across the reference searches (scripts/
# compute_sweep_reference.py, several seeds and start counts, plus scipy
# polish), each reproduced through the general density-matrix path by an
# explicit protocol. Lower bounds of the family optimum.
SWEEP_REFERENCE = {
    np.pi / 16: 0.975315,
    np.pi / 8: 0.994300,
    3 * np.pi / 16: 0.999458,
}

_sweep_cache = {}


def run_acceptance_sweep():
    """Run the criterion-6 sweep once and share it across tests."""
    if "rows" not in _sweep_cache:
        t0 = time.perf_counter()
        rows = sweep_channel_angle(list(SWEEP_GRID), KET0, PLUS, starts=32, seed=0)
        _sweep_cache["rows"] = rows
        _sweep_cache["runtime"] = time.perf_counter() - t0
    return _sweep_cache["rows"], _sweep_cache["runtime"]


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


def test_c1_exact_teleportation_baseline():
    """1000 Haar pure + 100 random mixed qubits, all exact, under 10 s."""
    t0 = time.perf_counter()
    protocol = bbcjpw_protocol()
    worst = 1.0
    for seed in np.random.SeedSequence(101).spawn(1000):
        rho = pure_density(haar_random_pure(2, seed))
        worst = min(worst, run_teleport(rho, BELL, protocol, rho).fidelity)
    rng = np.random.default_rng(102)
    for _ in range(100):
        rho = density_from_bloch(random_bloch_in_ball(rng))
        worst = min(worst, run_teleport(rho, BELL, protocol, rho).fidelity)
    elapsed = time.perf_counter() - t0
    passed = worst >= 1 - 1e-9 and elapsed < 10.0
    report("1", passed, f"worst fidelity {worst:.3e} from 1, runtime {elapsed:.1f}s")
    assert worst >= 1 - 1e-9
    assert elapsed < 10.0


def test_c2_superposition_propagation():
    """100 non-orthogonal pairs x 20 superpositions, all exact."""
    checks = {c.check: c for c in linearity_suite(seed=201, specs_per_run=20)}
    worst = checks["superpositions_teleported_exactly"].residual
    passed = worst <= 1e-9
    report("2", passed, f"2000 superpositions, worst 1 - fidelity {worst:.3e}")
    assert passed
    assert checks["endpoint_states_teleported_exactly"].residual <= 1e-9


def test_c3_extreme_decomposition():
    """1000 noncommuting pairs: reconstruction, overlap bounds, covariance;
    worked example against the quadratic oracle at 1e-12."""
    rng = np.random.default_rng(301)
    worst_recon = 0.0
    done = 0
    while done < 1000:
        r1, r2 = random_bloch_in_ball(rng), random_bloch_in_ball(rng)
        rho1, rho2 = density_from_bloch(r1), density_from_bloch(r2)
        if commutator_norm(rho1, rho2) <= 1e-4 or np.linalg.norm(r1 - r2) < 1e-6:
            continue
        dec = extreme_decomposition(rho1, rho2)
        worst_recon = max(worst_recon,
                          frobenius(dec.reconstruct(1) - rho1),
                          frobenius(dec.reconstruct(2) - rho2))
        assert 1e-10 < dec.overlap() < 1 - 1e-10
        assert abs(dec.lam1 - dec.lam2) > 0
        done += 1
    assert worst_recon < 1e-10

    # unitary covariance on a subsample
    worst_cov = 0.0
    for _ in range(100):
        while True:
            r1, r2 = random_bloch_in_ball(rng), random_bloch_in_ball(rng)
            rho1, rho2 = density_from_bloch(r1), density_from_bloch(r2)
            if commutator_norm(rho1, rho2) > 1e-3:
                break
        u = random_unitary(2, rng)
        dec = extreme_decomposition(rho1, rho2)
        rot = extreme_decomposition(u @ rho1 @ u.conj().T, u @ rho2 @ u.conj().T)
        worst_cov = max(worst_cov,
                        abs(rot.lam1 - dec.lam1), abs(rot.lam2 - dec.lam2),
                        abs(abs(np.vdot(rot.psi, u @ dec.psi)) - 1),
                        abs(abs(np.vdot(rot.phi, u @ dec.phi)) - 1))
    assert worst_cov < 1e-9

    # worked example: Bloch (0,0,0.5) and (0.5,0,0), chord x-roots (1 +- sqrt 7)/4
    r1, r2 = np.array([0, 0, 0.5]), np.array([0.5, 0, 0])
    dec = extreme_decomposition(density_from_bloch(r1), density_from_bloch(r2))
    far, near = chord_sphere_points(r1, r2)
    example_err = max(
        abs(far[0] - (1 + np.sqrt(7)) / 4),
        abs(near[0] - (1 - np.sqrt(7)) / 4),
        abs(dec.lam1 - (7 - np.sqrt(7)) / 14),
        abs(dec.lam2 - (7 + np.sqrt(7)) / 14),
    )
    passed = worst_recon < 1e-10 and worst_cov < 1e-9 and example_err < 1e-12
    report("3", passed,
           f"recon {worst_recon:.2e}, covariance {worst_cov:.2e}, example {example_err:.2e}")
    assert example_err < 1e-12


def test_c4_extreme_reduction_implication():
    """Across >= 50 protocol/channel configs the implication never fails."""
    checks = extreme_reduction_suite(seed=401)
    counterexamples = next(c for c in checks if "counterexample" in c.check)
    passed = counterexamples.residual == 0.0
    report("4", passed, f"{int(counterexamples.residual)} counterexamples over the matrix")
    assert passed


def test_c5_dilation_soundness():
    """50 random protocols: unitarity and Kraus equality on 10 probes each."""
    checks = {c.check: c for c in dilation_suite(seed=501)}
    worst_unitary = checks["dilation_unitarity_residual"].residual
    worst_channel = checks["dilation_reproduces_kraus_map"].residual
    passed = worst_unitary < 1e-9 and worst_channel < 1e-9
    report("5", passed, f"unitarity {worst_unitary:.2e}, channel match {worst_channel:.2e}")
    assert worst_unitary < 1e-9
    assert worst_channel < 1e-9


def test_c6_theorem_signature_sweep():
    """Grid sweep: exact only at the maximal angle, matching the frozen
    reference optima; never near-exact on a non-maximal channel."""
    rows, runtime = run_acceptance_sweep()
    verdicts = {}
    for row in rows:
        resource = pure_density(entangled_pair_ket(row.theta))
        verdicts[row.theta] = is_maximally_entangled(resource, 1e-6)

    top = rows[-1]
    assert abs(top.theta - np.pi / 4) < 1e-12
    assert top.best_min_fidelity >= 1 - 1e-6
    assert verdicts[top.theta] is True

    details = []
    ok = top.best_min_fidelity >= 1 - 1e-6 and verdicts[top.theta]
    for row in rows[:-1]:
        assert verdicts[row.theta] is False
        # no run on a non-maximal channel may look exact
        assert row.best_min_fidelity < 1 - 1e-6
        reference = SWEEP_REFERENCE[row.theta]
        assert abs(row.best_min_fidelity - reference) <= 5e-3
        details.append(f"{row.theta:.3f}:{row.best_min_fidelity:.6f}(ref {reference:.6f})")
        ok = ok and abs(row.best_min_fidelity - reference) <= 5e-3
    # monotone in the resource angle
    fidelities = [row.best_min_fidelity for row in rows]
    assert all(b >= a - 1e-12 for a, b in zip(fidelities, fidelities[1:]))
    ok = ok and runtime < 300.0
    report("6", ok, f"{', '.join(details)}, runtime {runtime:.0f}s")
    assert runtime < 300.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the one-round measurement+correction family genuinely achieves a "
        "worst-case fidelity of about 0.99928 at resource angle 3*pi/16 "
        "(reference search: 0.999458, reproduced through the general "
        "density-matrix path), so the 1e-3 margin asserted here cannot "
        "hold on that row; the family only drops below 1-1e-3 for thinner "
        "resources"
    ),
)
def test_c6_submaximal_rows_stay_below_one_minus_1e3():
    """Every non-maximal row under 1 - 1e-3, as stated."""
    rows, _ = run_acceptance_sweep()
    margins = {row.theta: row.best_min_fidelity for row in rows[:-1]}
    ok = all(f < 1 - 1e-3 for f in margins.values())
    report("6b", ok, ", ".join(f"{t:.3f}:{f:.6f}" for t, f in margins.items()))
    for theta, fidelity in margins.items():
        assert fidelity < 1 - 1e-3, (
            f"theta={theta}: best_min_fidelity {fidelity:.6f} is not below 0.999"
        )


def test_c7_commuting_sufficiency_contrast():
    """Classical protocol: exact on basis-diagonal states over a
    zero-concurrence channel; 0.5 on |+>."""
    protocol = classical_commuting_protocol((KET0, KET1))
    channel = product_channel()
    pair_marginal = partial_trace(channel, [4, 2], keep={0})
    c = concurrence(pair_marginal)
    assert c < 1e-12

    rng = np.random.default_rng(701)
    worst = 1.0
    for _ in range(50):
        rho = density_from_bloch([0, 0, rng.uniform(-1, 1)])
        worst = min(worst, run_teleport(rho, channel, protocol, rho).fidelity)
    plus_out = run_teleport(pure_density(PLUS), channel, protocol, pure_density(PLUS))
    passed = worst >= 1 - 1e-9 and abs(plus_out.fidelity - 0.5) <= 1e-9
    report("7", passed,
           f"diag worst {worst:.12f}, |+> fidelity {plus_out.fidelity:.12f}, concurrence {c:.1e}")
    assert worst >= 1 - 1e-9
    assert abs(plus_out.fidelity - 0.5) <= 1e-9


def test_c8_haar_average_fidelity_oracle():
    """Monte Carlo Haar average within 0.01 of (2 + sin 2 theta)/3."""
    protocol = bbcjpw_protocol()
    details = []
    ok = True
    for theta in (np.pi / 16, np.pi / 8, np.pi / 4):
        got = average_fidelity(protocol, angle_channel(theta), samples=10_000, seed=801)
        want = haar_average_fidelity(theta)
        details.append(f"{theta:.3f}:{got:.4f}/{want:.4f}")
        ok = ok and abs(got - want) < 0.01
        assert abs(got - want) < 0.01
    report("8", ok, ", ".join(details))
