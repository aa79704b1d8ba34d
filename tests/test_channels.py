import json

import numpy as np
import pytest

from qteleport.channels import (
    LocalKrausProtocol,
    angle_channel,
    apply_kraus,
    apply_protocol,
    dilate,
    entangled_pair_ket,
    protocol_from_json,
    protocol_to_json,
    purify,
    random_local_protocol,
    resource_channel,
    teleported_output,
)
from qteleport.errors import DimensionError, IncompleteProtocolError
from qteleport.linalg import dagger, frobenius, kron, partial_trace
from qteleport.states import (
    SIGMA_X,
    SIGMA_Z,
    haar_random_pure,
    pure_density,
    random_density_matrix,
)
from qteleport.teleport import bbcjpw_protocol, classical_commuting_protocol, product_channel

from oracles import kraus_loop, lifted_dilation_apply

I2 = np.eye(2, dtype=complex)


def identity_protocol():
    return LocalKrausProtocol(pairs=((np.eye(4, dtype=complex), np.eye(4, dtype=complex)),),
                              alice_dim=4, bob_dim=4)


# ---------------------------------------------------------------------------
# completeness


def test_completeness_identity_pair():
    p = LocalKrausProtocol(pairs=((I2, I2),), alice_dim=2, bob_dim=2)
    assert p.completeness_residual == 0.0


def test_completeness_bbcjpw():
    assert bbcjpw_protocol().completeness_residual <= 1e-12


def test_completeness_direct_summation():
    p = bbcjpw_protocol()
    total = np.zeros((16, 16), dtype=complex)
    for a, b in p.pairs:
        k = kron(a, b)
        total += dagger(k) @ k
    assert frobenius(total - np.eye(16)) <= 1e-12


def test_completeness_deliberately_incomplete():
    p = LocalKrausProtocol(pairs=((I2 / 2, I2),), alice_dim=2, bob_dim=2)
    # sum is I/4 (x) I, so the residual is 0.75 * sqrt(dim)
    assert abs(p.completeness_residual - 0.75 * 2.0) < 1e-12


# ---------------------------------------------------------------------------
# apply_protocol / teleported_output


def test_apply_identity_protocol_is_tensor():
    rho_in = random_density_matrix(2, 31)
    channel = angle_channel(np.pi / 4)
    joint = apply_protocol(rho_in, channel, identity_protocol())
    assert np.allclose(joint, kron(rho_in, channel), atol=1e-12)


def test_apply_preserves_trace_and_positivity():
    rng = np.random.default_rng(32)
    channel = resource_channel(random_density_matrix(4, rng))
    p = random_local_protocol(rng, alice_dim=4, bob_dim=4, n_pairs=3)
    rho_in = random_density_matrix(2, rng)
    joint = apply_protocol(rho_in, channel, p)
    assert abs(np.trace(joint).real - 1.0) < 1e-10
    assert np.linalg.eigvalsh((joint + dagger(joint)) / 2).min() > -1e-10


def test_apply_bbcjpw_recovers_input_on_particle_2():
    chi = haar_random_pure(2, 33)
    joint = apply_protocol(pure_density(chi), angle_channel(np.pi / 4), bbcjpw_protocol())
    out = teleported_output(joint)
    assert frobenius(out - pure_density(chi)) < 1e-10


def test_apply_kraus_equals_per_operator_loop_bit_for_bit():
    rng = np.random.default_rng(36)
    basis = (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex))
    cases = [(bbcjpw_protocol(), angle_channel(np.pi / 8)),
             (classical_commuting_protocol(basis), product_channel())]
    for dims in ((2, 2), (2, 4), (4, 4)):
        for n_pairs in range(1, 6):
            p = random_local_protocol(rng, *dims, n_pairs=n_pairs)
            cases.append((p, None))
    for p, channel in cases:
        d = p.alice_dim * p.bob_dim
        inputs = [random_density_matrix(d, rng) for _ in range(3)]
        if channel is not None:  # the protocol's own (1, A, B, 2) states as well
            inputs += [kron(random_density_matrix(2, rng), channel),
                       kron(pure_density(haar_random_pure(2, rng)), channel)]
        for rho in inputs:
            assert apply_kraus(p, rho).tobytes() == kraus_loop(p.kraus, rho).tobytes()


def test_apply_rejects_incomplete_protocol():
    p = LocalKrausProtocol(
        pairs=((np.eye(4, dtype=complex) * 0.9, np.eye(4, dtype=complex)),),
        alice_dim=4, bob_dim=4,
    )
    with pytest.raises(IncompleteProtocolError):
        apply_protocol(random_density_matrix(2, 1), angle_channel(np.pi / 4), p)


def test_non_finite_protocol_is_incomplete():
    # A NaN entry makes the completeness residual NaN, which must not pass
    # the tolerance comparison.
    pairs = [(a.copy(), b) for a, b in bbcjpw_protocol().pairs]
    pairs[0][0][1, 2] = np.nan
    p = LocalKrausProtocol(pairs=tuple(pairs), alice_dim=4, bob_dim=4)
    assert np.isnan(p.completeness_residual)
    with pytest.raises(IncompleteProtocolError):
        apply_protocol(random_density_matrix(2, 1), angle_channel(np.pi / 4), p)
    with pytest.raises(IncompleteProtocolError):
        dilate(p)


def test_teleported_output_product_state():
    rng = np.random.default_rng(34)
    parts = [random_density_matrix(2, rng) for _ in range(4)]
    joint = kron(kron(parts[0], parts[1]), kron(parts[2], parts[3]))
    assert np.allclose(teleported_output(joint), parts[3], atol=1e-12)


def test_teleported_output_maximally_mixed():
    assert np.allclose(teleported_output(np.eye(16, dtype=complex) / 16), I2 / 2)


def test_teleported_output_rejects_wrong_dim():
    with pytest.raises(DimensionError):
        teleported_output(np.eye(8, dtype=complex) / 8)


# ---------------------------------------------------------------------------
# purification


def test_purify_pure_state_trivial_ancilla():
    v = haar_random_pure(4, 40)
    pur = purify(pure_density(v))
    assert pur.ancilla_dim == 1
    assert abs(abs(np.vdot(pur.psi, v)) - 1) < 1e-10


def test_purify_maximally_mixed_qubit():
    pur = purify(I2 / 2)
    assert pur.ancilla_dim == 2
    # spectral form: sum_k |e_k>|k> / sqrt(2) for some orthonormal e_k
    m = pur.psi.reshape(2, 2)
    coeffs = np.linalg.svd(m, compute_uv=False)
    assert np.allclose(coeffs, [1 / np.sqrt(2)] * 2, atol=1e-10)


def test_purify_rank3_round_trip():
    rho = random_density_matrix(4, 41, rank=3)
    pur = purify(rho)
    assert pur.ancilla_dim == 3
    assert frobenius(pur.reduce() - rho) < 1e-10


def test_purify_round_trip_many():
    rng = np.random.default_rng(42)
    for dim in (2, 4, 8):
        for _ in range(34):
            rho = random_density_matrix(dim, rng, rank=int(rng.integers(1, dim + 1)))
            pur = purify(rho)
            assert frobenius(pur.reduce() - rho) < 1e-10


# ---------------------------------------------------------------------------
# dilation


def test_dilate_identity_pair():
    p = LocalKrausProtocol(pairs=((I2, I2),), alice_dim=2, bob_dim=2)
    dil = dilate(p)
    assert dil.env_dim == 1
    assert np.allclose(dil.u, np.eye(4))


def test_dilate_bbcjpw():
    dil = dilate(bbcjpw_protocol())
    assert dil.env_dim == 4
    eye = np.eye(64)
    assert frobenius(dagger(dil.u) @ dil.u - eye) < 1e-10
    rho = random_density_matrix(16, 50)
    assert frobenius(dil.apply(rho) - apply_kraus(bbcjpw_protocol(), rho)) < 1e-10


def test_dilate_two_pair_protocol():
    p = LocalKrausProtocol(
        pairs=((SIGMA_X / np.sqrt(2), I2), (SIGMA_Z / np.sqrt(2), I2)),
        alice_dim=2, bob_dim=2,
    )
    dil = dilate(p)
    assert dil.env_dim == 2
    rho = random_density_matrix(4, 51)
    direct = (kron(SIGMA_X, I2) @ rho @ kron(SIGMA_X, I2)
              + kron(SIGMA_Z, I2) @ rho @ kron(SIGMA_Z, I2)) / 2
    assert frobenius(dil.apply(rho) - direct) < 1e-10


def test_dilate_env_rounds_to_power_of_two():
    p = random_local_protocol(52, n_pairs=3)
    assert dilate(p).env_dim == 4
    p = random_local_protocol(53, n_pairs=5)
    assert dilate(p).env_dim == 8


def test_dilate_matches_kraus_dozens():
    rng = np.random.default_rng(54)
    for _ in range(10):
        n_pairs = int(rng.integers(1, 6))
        p = random_local_protocol(rng, n_pairs=n_pairs)
        dil = dilate(p)
        eye = np.eye(dil.u.shape[0])
        assert frobenius(dagger(dil.u) @ dil.u - eye) < 1e-9
        for _ in range(3):
            rho = random_density_matrix(4, rng)
            assert frobenius(dil.apply(rho) - apply_kraus(p, rho)) < 1e-9


def test_dilation_apply_equals_lifted_conjugation_bit_for_bit():
    # rho (x) |0><0|_E meets only the |0>_E columns of u, so conjugating by
    # those columns alone must give the lifted product's every bit
    rng = np.random.default_rng(56)
    protocols = [bbcjpw_protocol(), classical_commuting_protocol(np.eye(2, dtype=complex))]
    for n_pairs in range(1, 6):
        for dims in ((2, 2), (2, 4), (4, 2), (4, 4)):
            protocols.append(random_local_protocol(rng, *dims, n_pairs=n_pairs))
    for p in protocols:
        dil = dilate(p)
        for _ in range(2):
            rho = random_density_matrix(p.alice_dim * p.bob_dim, rng)
            assert dil.apply(rho).tobytes() == lifted_dilation_apply(dil, rho).tobytes()


def test_dilate_rejects_incomplete():
    p = LocalKrausProtocol(pairs=((I2 / 2, I2),), alice_dim=2, bob_dim=2)
    with pytest.raises(IncompleteProtocolError):
        dilate(p)


# ---------------------------------------------------------------------------
# channel constructors and serialization


def test_resource_channel_embeds_particle_two():
    ket = entangled_pair_ket(np.pi / 8)
    ch = resource_channel(ket)
    assert ch.shape == (8, 8)
    marginal = partial_trace(ch, [4, 2], keep={1})
    assert np.allclose(marginal, np.diag([1.0, 0.0]), atol=1e-12)
    pair = partial_trace(ch, [4, 2], keep={0})
    assert np.allclose(pair, np.outer(ket, ket.conj()), atol=1e-12)


def test_protocol_json_round_trip_exact():
    rng = np.random.default_rng(60)
    for _ in range(5):
        p = random_local_protocol(rng, n_pairs=int(rng.integers(1, 5)))
        text = protocol_to_json(p)
        q = protocol_from_json(text)
        assert q.alice_dim == p.alice_dim and q.bob_dim == p.bob_dim
        assert len(q) == len(p)
        for (a1, b1), (a2, b2) in zip(p.pairs, q.pairs):
            assert np.array_equal(a1, a2), "sender operators must round-trip bit-exactly"
            assert np.array_equal(b1, b2), "receiver operators must round-trip bit-exactly"


def test_protocol_json_round_trip_bbcjpw():
    p = bbcjpw_protocol()
    q = protocol_from_json(protocol_to_json(p))
    for (a1, b1), (a2, b2) in zip(p.pairs, q.pairs):
        assert np.array_equal(a1, a2)
        assert np.array_equal(b1, b2)


@pytest.mark.parametrize("dim", [2.5, True, "2"])
def test_protocol_json_dims_must_be_integers(dim):
    text = protocol_to_json(random_local_protocol(61))  # alice_dim 2
    text = text.replace('"alice_dim": 2', f'"alice_dim": {json.dumps(dim)}')
    with pytest.raises(ValueError, match="field 'alice_dim' is not an integer"):
        protocol_from_json(text)


def test_protocol_data_is_read_only_copies():
    a = np.eye(2, dtype=complex)
    p = LocalKrausProtocol(pairs=((a, a),), alice_dim=2, bob_dim=2)
    assert a.flags.writeable
    with pytest.raises(ValueError):
        p.pairs[0][0][0, 0] = 2.0
    with pytest.raises(ValueError):
        p.kraus[0, 0, 0] = 2.0
    assert p.kraus.shape == (1, 4, 4)
