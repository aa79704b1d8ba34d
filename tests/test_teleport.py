import hashlib

import numpy as np
import pytest

from qteleport.channels import (
    angle_channel,
    apply_protocol,
    protocol_to_json,
    resource_channel,
    teleported_output,
)
from qteleport.entanglement import concurrence
from qteleport.errors import CommutingInputError
from qteleport.linalg import frobenius, partial_trace
from qteleport.states import (
    density_from_bloch,
    haar_random_pure,
    pure_density,
    random_unitary,
    state_fidelity,
)
from qteleport.teleport import (
    BELL_CORRECTIONS,
    average_fidelity,
    bbcjpw_protocol,
    bell_states,
    classical_commuting_protocol,
    extreme_reduction_check,
    linearity_check,
    normalized_superposition,
    product_channel,
    receiver_factor,
    run_teleport,
    superposition_state,
)

from oracles import bloch_of, haar_average_fidelity

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)
BELL = angle_channel(np.pi / 4)


# ---------------------------------------------------------------------------
# the standard protocol


def test_bbcjpw_teleports_ket0_exactly():
    out = run_teleport(pure_density(KET0), BELL, bbcjpw_protocol(), pure_density(KET0))
    assert out.exact and out.fidelity >= 1 - 1e-10


def test_bbcjpw_teleports_haar_states_exactly():
    p = bbcjpw_protocol()
    for seed in range(25):
        chi = haar_random_pure(2, seed)
        rho = pure_density(chi)
        out = run_teleport(rho, BELL, p, rho)
        assert out.fidelity >= 1 - 1e-10


def test_bbcjpw_teleports_mixed_states_exactly():
    p = bbcjpw_protocol()
    rho = density_from_bloch([0, 0, 0.5])
    out = run_teleport(rho, BELL, p, rho)
    assert out.exact
    assert np.allclose(out.output, rho, atol=1e-10)


def test_bbcjpw_over_product_channel_decoheres():
    out = run_teleport(pure_density(PLUS), product_channel(), bbcjpw_protocol(),
                       pure_density(PLUS))
    assert np.allclose(out.output, np.eye(2) / 2, atol=1e-10)
    assert abs(out.fidelity - 0.5) < 1e-10


def test_bbcjpw_partial_channel_equatorial_fidelity():
    # equatorial inputs over the cos/sin resource come out at (1 + sin 2t)/2
    for theta in (np.pi / 16, np.pi / 8, 3 * np.pi / 16):
        out = run_teleport(pure_density(PLUS), angle_channel(theta), bbcjpw_protocol(),
                           pure_density(PLUS))
        assert abs(out.fidelity - (1 + np.sin(2 * theta)) / 2) < 1e-10


def test_bbcjpw_pure_fidelity_closed_form_on_the_grid():
    # the cos/sin resource shrinks the Bloch x and y components by sin 2t, so
    # a pure input (x, y, z) comes out at fidelity 1 - (1 - sin 2t)(x^2 + y^2)/2
    p = bbcjpw_protocol()
    for theta in (np.pi / 16, np.pi / 8, 3 * np.pi / 16, np.pi / 4):
        channel = angle_channel(theta)
        for seed in range(16):
            rho = pure_density(haar_random_pure(2, seed))
            x, y, _ = bloch_of(rho)
            out = run_teleport(rho, channel, p, rho)
            assert type(out.fidelity) is float
            assert abs(out.fidelity - (1 - (1 - np.sin(2 * theta)) * (x * x + y * y) / 2)) < 1e-12


def test_bell_corrections_pair_correctly():
    # every Bell outcome of the measurement must map back to the input
    p = bbcjpw_protocol()
    chi = haar_random_pure(2, 7)
    joint = np.kron(pure_density(chi), BELL)
    for (proj, corr) in p.pairs:
        k = np.kron(proj, corr)
        branch = k @ joint @ k.conj().T
        prob = np.trace(branch).real
        assert abs(prob - 0.25) < 1e-10
        reduced = teleported_output(branch / prob)
        assert frobenius(reduced - pure_density(chi)) < 1e-9


def test_receiver_factor_is_swap_then_correction_bit_for_bit():
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    rng = np.random.default_rng(11)
    us = np.array([random_unitary(2, rng) for _ in range(12)] + list(BELL_CORRECTIONS))
    expected = np.array([np.kron(np.eye(2), u) @ swap for u in us])
    assert receiver_factor(us).tobytes() == expected.tobytes()
    assert receiver_factor(us.reshape(2, 8, 2, 2)).tobytes() == expected.tobytes()
    assert receiver_factor(us[-1]).tobytes() == expected[-1].tobytes()


def test_bbcjpw_protocol_json_is_pinned():
    text = protocol_to_json(bbcjpw_protocol())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6a03f2ed2fcb8d03ae1c4d29ce3e8b51958a7101c326ff90ee711e3d9cac9fd1"
    )
    # SIGMA_Y's -1j carries a -0.0 real part; no receiver factor may keep it
    for _, b in bbcjpw_protocol().pairs:
        assert not np.signbit(b.view(float)[b.view(float) == 0.0]).any()


# ---------------------------------------------------------------------------
# the classical protocol


def test_classical_exact_on_diagonal_mixed():
    p = classical_commuting_protocol((KET0, KET1))
    rho = np.diag([0.75, 0.25]).astype(complex)
    out = run_teleport(rho, product_channel(), p, rho)
    assert out.exact
    assert np.allclose(out.output, rho, atol=1e-10)


def test_classical_dephases_plus():
    p = classical_commuting_protocol((KET0, KET1))
    out = run_teleport(pure_density(PLUS), product_channel(), p, pure_density(PLUS))
    assert abs(out.fidelity - 0.5) < 1e-9
    assert np.allclose(out.output, np.eye(2) / 2, atol=1e-10)


def test_classical_exact_on_measured_basis_eigenstate():
    p = classical_commuting_protocol((PLUS, MINUS))
    out = run_teleport(pure_density(PLUS), product_channel(), p, pure_density(PLUS))
    assert out.exact


def test_classical_channel_is_unentangled():
    pair = partial_trace(product_channel(), [4, 2], keep={0})
    assert concurrence(pair) < 1e-12


def test_classical_rejects_non_orthonormal_basis():
    with pytest.raises(ValueError):
        classical_commuting_protocol((KET0, PLUS))


def test_classical_never_exceeds_one_and_hits_one_on_diagonal():
    p = classical_commuting_protocol((KET0, KET1))
    rng = np.random.default_rng(71)
    for _ in range(20):
        z = rng.uniform(-1, 1)
        rho = density_from_bloch([0, 0, z])
        out = run_teleport(rho, product_channel(), p, rho)
        assert out.fidelity <= 1 + 1e-10
        assert out.fidelity >= 1 - 1e-9


# ---------------------------------------------------------------------------
# superposition propagation


def test_superposition_requires_unit_norm():
    with pytest.raises(ValueError):
        superposition_state(KET0, PLUS, 1.0, 1.0)


def test_normalized_superposition_builds_unit_states():
    rng = np.random.default_rng(72)
    for _ in range(20):
        raw = rng.normal(size=4)
        a1, a2 = normalized_superposition(KET0, PLUS, raw[0] + 1j * raw[1],
                                          raw[2] + 1j * raw[3])
        chi = superposition_state(KET0, PLUS, a1, a2)
        assert abs(np.linalg.norm(chi) - 1) < 1e-12


def test_linearity_all_superpositions_exact_over_bell():
    rng = np.random.default_rng(73)
    specs = []
    for _ in range(20):
        raw = rng.normal(size=4)
        specs.append(normalized_superposition(KET0, PLUS, raw[0] + 1j * raw[1],
                                              raw[2] + 1j * raw[3]))
    outcomes = linearity_check(bbcjpw_protocol(), BELL, KET0, PLUS, specs)
    assert all(o.exact for o in outcomes)


def test_linearity_trivial_spec_reproduces_endpoint():
    outcomes = linearity_check(bbcjpw_protocol(), BELL, KET0, PLUS, [(1.0, 0.0)])
    direct = run_teleport(pure_density(KET0), BELL, bbcjpw_protocol(), pure_density(KET0))
    assert abs(outcomes[0].fidelity - direct.fidelity) < 1e-12


def test_linearity_fails_over_partial_channel():
    channel = angle_channel(np.pi / 8)
    rng = np.random.default_rng(74)
    specs = []
    for _ in range(20):
        raw = rng.normal(size=4)
        specs.append(normalized_superposition(KET0, PLUS, raw[0] + 1j * raw[1],
                                              raw[2] + 1j * raw[3]))
    outcomes = linearity_check(bbcjpw_protocol(), channel, KET0, PLUS, specs)
    assert any(o.fidelity < 1 - 1e-3 for o in outcomes)


def test_linearity_rejects_orthogonal_inputs():
    with pytest.raises(ValueError):
        linearity_check(bbcjpw_protocol(), BELL, KET0, KET1, [(1.0, 0.0)])


def test_linearity_rejects_unnormalized_spec():
    with pytest.raises(ValueError):
        linearity_check(bbcjpw_protocol(), BELL, KET0, PLUS, [(0.9, 0.9)])


# ---------------------------------------------------------------------------
# extreme-state reduction


def test_extreme_reduction_bell_channel_all_exact():
    report = extreme_reduction_check(
        bbcjpw_protocol(), BELL,
        density_from_bloch([0, 0, 0.5]), density_from_bloch([0.5, 0, 0]),
    )
    assert report.outcome_rho1.exact and report.outcome_rho2.exact
    assert report.outcome_psi.exact and report.outcome_phi.exact
    assert report.implication_holds


def test_extreme_reduction_classical_vacuous():
    p = classical_commuting_protocol((KET0, KET1))
    report = extreme_reduction_check(
        p, product_channel(),
        density_from_bloch([0, 0, 0.5]), density_from_bloch([0.5, 0, 0]),
    )
    assert report.outcome_rho1.exact          # diagonal state goes through
    assert not report.outcome_rho2.exact      # x-polarized state dephases
    assert report.implication_holds           # vacuously


def test_extreme_reduction_rejects_commuting():
    with pytest.raises(CommutingInputError):
        extreme_reduction_check(
            bbcjpw_protocol(), BELL,
            np.diag([0.6, 0.4]).astype(complex), np.diag([0.8, 0.2]).astype(complex),
        )


def test_protocol_map_is_convex_linear():
    p = bbcjpw_protocol()
    channel = angle_channel(np.pi / 8)
    rho1 = density_from_bloch([0.2, -0.3, 0.4])
    rho2 = density_from_bloch([-0.5, 0.1, 0.2])
    lam = 0.37
    mix = lam * rho1 + (1 - lam) * rho2
    out_mix = teleported_output(apply_protocol(mix, channel, p))
    out1 = teleported_output(apply_protocol(rho1, channel, p))
    out2 = teleported_output(apply_protocol(rho2, channel, p))
    assert frobenius(out_mix - lam * out1 - (1 - lam) * out2) < 1e-10


# ---------------------------------------------------------------------------
# average fidelity


def test_average_fidelity_bell_channel_is_one():
    avg = average_fidelity(bbcjpw_protocol(), BELL, samples=500, seed=3)
    assert avg >= 1 - 1e-9


def test_average_fidelity_product_channel_two_thirds():
    avg = average_fidelity(bbcjpw_protocol(), product_channel(), samples=10_000, seed=4)
    assert abs(avg - 2 / 3) < 0.01


def test_average_fidelity_matches_closed_form_across_angles():
    for theta in (np.pi / 16, np.pi / 8, np.pi / 4):
        avg = average_fidelity(bbcjpw_protocol(), angle_channel(theta),
                               samples=10_000, seed=5)
        assert abs(avg - haar_average_fidelity(theta)) < 0.01


def test_average_fidelity_deterministic():
    a = average_fidelity(bbcjpw_protocol(), BELL, samples=50, seed=11)
    b = average_fidelity(bbcjpw_protocol(), BELL, samples=50, seed=11)
    assert a == b
