"""Concrete teleportation protocols and the two propagation checks.

Protocols here follow the package register order (1, A, B, 2): the sender
measures particles (1, A), the receiver holds (B, 2) and the state must
surface at particle 2. Resource channels keep particle 2 in |0>, so every
receiver correction first routes B into 2 with a swap and then applies a
single-qubit unitary to 2 (the receiver factor acts on B and 2 jointly,
with the identity left on B).

`linearity_check` makes executable the fact that a protocol teleporting
two non-orthogonal pure states exactly also teleports every unit-norm
superposition of them. `extreme_reduction_check` does the same for the
mixed-pair statement: exactness on a noncommuting pair forces exactness on
the two shared chord states, because the protocol map is linear and the
mixing weights differ.
"""

from dataclasses import dataclass

import numpy as np

from .channels import (
    LocalKrausProtocol,
    apply_kraus,
    apply_protocol,
    require_teleport_protocol,
    resource_channel,
    teleported_output,
)
from .linalg import kron
from .states import (
    check_density_matrix,
    check_nonorthogonal_pair,
    check_pure_state,
    _gaussian_draw,
    extreme_decomposition,
    ExtremeDecomposition,
    pure_density,
    qubit_fidelity,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
)

TOL_EXACT = 1e-9

_ID2 = np.eye(2, dtype=complex)


def bell_states() -> list[np.ndarray]:
    """The Bell basis, ordered (phi+, phi-, psi+, psi-)."""
    s = 1.0 / np.sqrt(2.0)
    return [
        np.array([s, 0, 0, s], dtype=complex),
        np.array([s, 0, 0, -s], dtype=complex),
        np.array([0, s, s, 0], dtype=complex),
        np.array([0, s, -s, 0], dtype=complex),
    ]


# Correction paired with each Bell outcome, applied to particle 2 after the
# B->2 routing swap.
BELL_CORRECTIONS = (_ID2, SIGMA_Z, SIGMA_X, SIGMA_Y)


def receiver_factor(correction) -> np.ndarray:
    """Receiver operator on (B, 2): route B into 2, then correct 2.

    This is kron(I, U) @ SWAP, built by placement: U fills rows 0-1 at
    columns 0, 2 and rows 2-3 at columns 1, 3. Takes one 2x2 U or a stack
    of shape (..., 2, 2).
    """
    u = np.asarray(correction, dtype=np.complex128) + 0.0  # -0.0 (as in -1j) -> 0.0
    out = np.zeros(u.shape[:-2] + (4, 4), dtype=np.complex128)
    out[..., 0:2, 0::2] = u
    out[..., 2:4, 1::2] = u
    return out


def bbcjpw_protocol() -> LocalKrausProtocol:
    """Bell measurement on (1, A) with the matching Pauli correction on 2."""
    pairs = tuple(
        (np.outer(ket, ket.conj()), b)
        for ket, b in zip(bell_states(), receiver_factor(np.array(BELL_CORRECTIONS)))
    )
    return LocalKrausProtocol(pairs=pairs, alice_dim=4, bob_dim=4)


def classical_commuting_protocol(basis) -> LocalKrausProtocol:
    """Measure-and-reprepare in a fixed qubit basis; needs no entanglement.

    The sender collapses particle 1 onto each basis state, and the receiver
    rebuilds that basis state on particle 2 from its |0> initialization.
    States diagonal in the basis come through exactly; coherences between
    the basis states are erased.
    """
    b0 = check_pure_state(basis[0], dim=2)
    b1 = check_pure_state(basis[1], dim=2)
    if abs(np.vdot(b0, b1)) > 1e-10:
        raise ValueError(
            f"basis is not orthonormal (|<b0|b1>| = {abs(np.vdot(b0, b1)):.3e})"
        )
    ket0 = np.array([1.0, 0.0], dtype=complex)
    pairs = []
    for b, other in ((b0, b1), (b1, b0)):
        collapse = np.outer(ket0, b.conj())          # particle 1
        prepare = np.column_stack([b, other])        # unitary sending |0> -> |b> on 2
        pairs.append((kron(collapse, _ID2), kron(_ID2, prepare)))
    return LocalKrausProtocol(pairs=tuple(pairs), alice_dim=4, bob_dim=4)


def product_channel() -> np.ndarray:
    """Channel state |000> on (A, B, 2): no correlations at all."""
    ket = np.zeros(4, dtype=complex)
    ket[0] = 1.0
    return resource_channel(ket)


@dataclass(frozen=True)
class TeleportOutcome:
    """Particle-2 marginal after a run, with its fidelity to the target."""

    output: np.ndarray
    fidelity: float
    exact: bool


def run_teleport(input_rho, channel_rho, p: LocalKrausProtocol, intended) -> TeleportOutcome:
    """Apply the protocol and score the particle-2 marginal against ``intended``."""
    joint = apply_protocol(input_rho, channel_rho, p)
    return _score(joint, check_density_matrix(intended, dim=2))


def _score(joint, intended) -> TeleportOutcome:
    """Score the particle-2 marginal of a protocol output; inputs already checked."""
    output = teleported_output(joint)
    fidelity = qubit_fidelity(intended, output)
    return TeleportOutcome(output=output, fidelity=fidelity, exact=fidelity >= 1.0 - TOL_EXACT)


def _teleport_each(p: LocalKrausProtocol, channel_rho, states) -> list[TeleportOutcome]:
    """Teleport each already-checked qubit state through ``p`` and score it
    against itself; the channel and protocol are checked once, first."""
    rho_ch = check_density_matrix(channel_rho, dim=8)
    require_teleport_protocol(p)
    return [_score(apply_kraus(p, kron(rho, rho_ch)), rho) for rho in states]


def superposition_state(chi1, chi2, a1: complex, a2: complex) -> np.ndarray:
    """a1|chi1> + a2|chi2>, which must already be unit norm."""
    v1 = check_pure_state(chi1, dim=2)
    v2 = check_pure_state(chi2, dim=2)
    chi = a1 * v1 + a2 * v2
    norm = float(np.linalg.norm(chi))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(
            f"superposition coefficients give norm {norm:.12g}, not 1; "
            "rescale them for this state pair first"
        )
    return chi


def normalized_superposition(chi1, chi2, a1: complex, a2: complex) -> tuple[complex, complex]:
    """Rescale raw coefficients so a1|chi1> + a2|chi2> is unit norm."""
    v1 = check_pure_state(chi1, dim=2)
    v2 = check_pure_state(chi2, dim=2)
    norm = np.linalg.norm(a1 * v1 + a2 * v2)
    if norm < 1e-12:
        raise ValueError("coefficients cancel the two states; no state to build")
    return a1 / norm, a2 / norm


def linearity_check(
    p: LocalKrausProtocol, channel_rho, chi1, chi2, specs
) -> list[TeleportOutcome]:
    """Teleport every listed superposition of a non-orthogonal state pair.

    Each spec is an (a1, a2) coefficient pair that must give a unit-norm
    combination. If the protocol/channel pair is exact on chi1 and chi2 and
    on all superpositions, linearity has nothing to hide; any inexact
    superposition outcome exhibits the failure directly.
    """
    v1, v2 = check_nonorthogonal_pair(chi1, chi2)
    return _teleport_each(
        p, channel_rho, (pure_density(superposition_state(v1, v2, a1, a2)) for a1, a2 in specs)
    )


@dataclass(frozen=True)
class ExtremeReductionReport:
    """Fidelities for a noncommuting pair and its two chord states."""

    decomposition: ExtremeDecomposition
    outcome_rho1: TeleportOutcome
    outcome_rho2: TeleportOutcome
    outcome_psi: TeleportOutcome
    outcome_phi: TeleportOutcome
    implication_holds: bool


def extreme_reduction_check(
    p: LocalKrausProtocol, channel_rho, rho1, rho2
) -> ExtremeReductionReport:
    """Run the pair and its chord states; check the exactness implication.

    The implication (exact on rho1 and rho2) => (exact on psi and phi) must
    hold for every linear protocol because the two decomposition weights
    differ; a counterexample would mean the implementation is broken.
    """
    m1 = check_density_matrix(rho1, dim=2)
    m2 = check_density_matrix(rho2, dim=2)
    dec = extreme_decomposition(m1, m2)
    o1, o2, opsi, ophi = _teleport_each(
        p, channel_rho, (m1, m2, pure_density(dec.psi), pure_density(dec.phi))
    )
    premise = o1.exact and o2.exact
    conclusion = opsi.exact and ophi.exact
    return ExtremeReductionReport(
        decomposition=dec,
        outcome_rho1=o1,
        outcome_rho2=o2,
        outcome_psi=opsi,
        outcome_phi=ophi,
        implication_holds=(not premise) or conclusion,
    )


def average_fidelity(p: LocalKrausProtocol, channel_rho, samples: int, seed) -> float:
    """Mean fidelity over Haar-random pure inputs, deterministic per seed.

    Sample k is drawn as ``haar_random_pure(2, s_k)`` draws, s_k the k-th
    spawn of the seed sequence, so the result does not depend on
    evaluation order. The draws are normalized in one array operation and
    their phases are not fixed: the score of chi is a sandwich in which chi
    and conj(chi) each appear twice, so a global phase e^{ia} contributes
    e^{ia} e^{-ia} e^{ia} e^{-ia} = 1 and moves the score by rounding only
    (about 1e-16).

    The Kraus map and the partial trace are linear in the input, so the map
    is fixed by the four outputs L_ab of the basis operators |a><b|: the
    input chi teleports to exactly sum_ab chi_a conj(chi_b) L_ab, and its
    fidelity is the sandwich of that matrix between conj(chi) and chi.
    Running each sample through the 16x16 state would sum the same
    products in another order, so the two agree up to rounding (about
    1e-16), while the Kraus operators run four times per call instead of
    once per sample.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rho_ch = check_density_matrix(channel_rho, dim=8)
    require_teleport_protocol(p)
    images = np.array([
        [teleported_output(apply_kraus(p, kron(np.outer(_ID2[a], _ID2[b]), rho_ch)))
         for b in range(2)]
        for a in range(2)
    ])
    draws = np.array([_gaussian_draw(2, child)
                      for child in np.random.SeedSequence(seed).spawn(samples)])
    chis = draws / np.linalg.norm(draws, axis=1, keepdims=True)
    bras = chis.conj()
    scores = np.einsum("sa,sb,abcd,sc,sd->s", chis, bras, images, bras, chis)
    return float(np.mean(scores.real))
