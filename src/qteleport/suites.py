"""Seeded verification suites behind the `verify` command.

Each suite runs a batch of randomized configurations and reduces them to a
few named checks with worst-case residuals, so a report stays readable
while still covering the full batch. Identical seeds give identical
reports.
"""

from dataclasses import dataclass

import numpy as np

from .channels import (
    angle_channel,
    apply_kraus,
    dilate,
    random_local_protocol,
    resource_channel,
)
from .linalg import dagger, frobenius
from .optimize import decode_protocol
from .states import (
    commutator_norm,
    density_from_bloch,
    haar_random_pure,
    random_density_matrix,
)
from .teleport import (
    TOL_EXACT,
    bbcjpw_protocol,
    bell_states,
    classical_commuting_protocol,
    extreme_reduction_check,
    linearity_check,
    normalized_superposition,
    product_channel,
)

SUITE_NAMES = ("linearity", "extreme-reduction", "dilation")


@dataclass(frozen=True)
class CheckResult:
    check: str
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.threshold


def random_nonorthogonal_pair(rng: np.random.Generator):
    """Two Haar qubits, redrawn until clearly non-orthogonal."""
    while True:
        chi1 = haar_random_pure(2, rng)
        chi2 = haar_random_pure(2, rng)
        if abs(np.vdot(chi1, chi2)) > 1e-3:
            return chi1, chi2


def random_noncommuting_pair(rng: np.random.Generator):
    """Two Bloch-ball qubits, redrawn until clearly noncommuting."""
    while True:
        r1 = rng.uniform(-1.0, 1.0, 3)
        r2 = rng.uniform(-1.0, 1.0, 3)
        if np.linalg.norm(r1) >= 1.0 or np.linalg.norm(r2) >= 1.0:
            continue
        rho1 = density_from_bloch(r1)
        rho2 = density_from_bloch(r2)
        if commutator_norm(rho1, rho2) > 1e-4:
            return rho1, rho2


def linearity_suite(seed, specs_per_run: int = 1) -> list[CheckResult]:
    """Superpositions of exactly-teleported pairs stay exact, over 100 random pairs."""
    rng = np.random.default_rng([seed, 0x11])
    channel = angle_channel(np.pi / 4)
    protocol = bbcjpw_protocol()
    worst_endpoint = 0.0
    worst_superposition = 0.0
    for _ in range(100):
        chi1, chi2 = random_nonorthogonal_pair(rng)
        specs = []
        for _ in range(specs_per_run):
            raw = rng.normal(size=4)
            specs.append(
                normalized_superposition(
                    chi1, chi2, raw[0] + 1j * raw[1], raw[2] + 1j * raw[3]
                )
            )
        outcomes = linearity_check(protocol, channel, chi1, chi2, [(1.0, 0.0), (0.0, 1.0), *specs])
        worst_endpoint = max(worst_endpoint, *(1.0 - o.fidelity for o in outcomes[:2]))
        worst_superposition = max(worst_superposition, *(1.0 - o.fidelity for o in outcomes[2:]))
    return [
        CheckResult("endpoint_states_teleported_exactly", worst_endpoint, TOL_EXACT),
        CheckResult("superpositions_teleported_exactly", worst_superposition, TOL_EXACT),
    ]


def _matrix_protocols(rng: np.random.Generator):
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
    ket0 = np.array([1.0, 0.0], dtype=complex)
    ket1 = np.array([0.0, 1.0], dtype=complex)
    protocols = [
        bbcjpw_protocol(),
        classical_commuting_protocol((ket0, ket1)),
        classical_commuting_protocol((plus, minus)),
    ]
    for _ in range(3):
        protocols.append(decode_protocol(rng.uniform(-np.pi, np.pi, 28)))
    return protocols


def _matrix_channels(rng: np.random.Generator):
    channels = [
        angle_channel(np.pi / 4),
        angle_channel(np.pi / 8),
        angle_channel(np.pi / 16),
        product_channel(),
    ]
    eye4 = np.eye(4, dtype=complex) / 4.0
    bell = bell_states()[0]
    for p in (0.3, 0.7):
        mixed = p * np.outer(bell, bell.conj()) + (1 - p) * eye4
        channels.append(resource_channel(mixed))
    for _ in range(3):
        channels.append(resource_channel(random_density_matrix(4, rng)))
    return channels


def extreme_reduction_suite(seed) -> list[CheckResult]:
    """The exactness implication over 6 protocols x 9 channels."""
    rng = np.random.default_rng([seed, 0x22])
    protocols = _matrix_protocols(rng)
    channels = _matrix_channels(rng)
    counterexamples = 0
    worst_reconstruction = 0.0
    for protocol in protocols:
        for channel in channels:
            rho1, rho2 = random_noncommuting_pair(rng)
            report = extreme_reduction_check(protocol, channel, rho1, rho2)
            if not report.implication_holds:
                counterexamples += 1
            dec = report.decomposition
            worst_reconstruction = max(
                worst_reconstruction,
                float(np.abs(dec.reconstruct(1) - rho1).max()),
                float(np.abs(dec.reconstruct(2) - rho2).max()),
            )
    return [
        CheckResult("exactness_implication_counterexamples", float(counterexamples), 0.0),
        CheckResult("decomposition_reconstruction_residual", worst_reconstruction, 1e-10),
    ]


def dilation_residuals(protocol, probes: int, rng: np.random.Generator):
    """Dilate a protocol; return the dilation, its unitarity residual and the
    worst Frobenius gap to `apply_kraus` over ``probes`` random states."""
    dil = dilate(protocol)
    unitarity = frobenius(dagger(dil.u) @ dil.u - np.eye(dil.u.shape[0]))
    worst = 0.0
    for _ in range(probes):
        rho = random_density_matrix(protocol.alice_dim * protocol.bob_dim, rng)
        worst = max(worst, frobenius(dil.apply(rho) - apply_kraus(protocol, rho)))
    return dil, unitarity, worst


def dilation_suite(seed) -> list[CheckResult]:
    """Dilations of 50 random protocols are unitary and match the Kraus map on 10 states each."""
    rng = np.random.default_rng([seed, 0x33])
    worst_unitarity = 0.0
    worst_channel = 0.0
    for _ in range(50):
        alice_dim = int(rng.choice([2, 2, 4]))
        bob_dim = int(rng.choice([2, 2, 4]))
        n_pairs = int(rng.integers(1, 6))
        protocol = random_local_protocol(rng, alice_dim, bob_dim, n_pairs)
        _, unitarity, channel = dilation_residuals(protocol, 10, rng)
        worst_unitarity = max(worst_unitarity, unitarity)
        worst_channel = max(worst_channel, channel)
    return [
        CheckResult("dilation_unitarity_residual", worst_unitarity, 1e-9),
        CheckResult("dilation_reproduces_kraus_map", worst_channel, 1e-9),
    ]


def run_suite(name: str, seed) -> list[CheckResult]:
    if name == "linearity":
        return linearity_suite(seed)
    if name == "extreme-reduction":
        return extreme_reduction_suite(seed)
    if name == "dilation":
        return dilation_suite(seed)
    if name == "all":
        out = []
        for n in SUITE_NAMES:
            out.extend(run_suite(n, seed))
        return out
    raise ValueError(f"unknown suite {name!r}")
