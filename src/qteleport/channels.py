"""Local protocols as Kraus pairs, channel purification, and unitary dilation.

A one-shot local protocol between two parties is a finite family of
operator pairs (A_i, B_i), A_i acting on the sender's factor and B_i on
the receiver's, applied as

    rho -> sum_i (A_i (x) B_i) rho (A_i (x) B_i)^dagger

subject to the trace-preservation condition
sum_i (A_i^dagger A_i) (x) (B_i^dagger B_i) = I.

A protocol computes its joint operators A_i (x) B_i and its completeness
residual once, when it is built; applying or checking it reuses both.
`apply_kraus` is the one place the sum over Kraus operators is taken.

Register convention used throughout the package: (1, A, B, 2, M, E) with
particle 1 the input, A held by the sender, B and 2 by the receiver, M a
purifying ancilla and E a dilating environment. Resource channels live on
A (x) B (x) 2 with particle 2 initialized to |0>.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .errors import DimensionError, IncompleteProtocolError
from .linalg import dagger, eig_hermitian, frobenius, kron, partial_trace
from .states import check_density_matrix, check_pure_state, fix_phase, random_unitary

COMPLETENESS_TOL = 1e-9


def _frozen(m) -> np.ndarray:
    """Read-only complex128 copy."""
    m = np.array(m, dtype=np.complex128)
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class LocalKrausProtocol:
    """Ordered Kraus pairs (A_i, B_i) with the factor dimensions pinned.

    The pairs are stored as read-only copies. ``kraus`` stacks the joint
    operators A_i (x) B_i into one read-only array and
    ``completeness_residual`` is the Frobenius distance of
    sum_i (A_i^dagger A_i) (x) (B_i^dagger B_i) from I; both are computed
    here, once.
    """

    pairs: tuple
    alice_dim: int
    bob_dim: int
    kraus: np.ndarray = field(init=False, compare=False, repr=False)
    completeness_residual: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        pairs = tuple((_frozen(a), _frozen(b)) for a, b in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if not pairs:
            raise DimensionError("protocol needs at least one Kraus pair")
        a0, b0 = pairs[0]
        for a, b in pairs:
            if a.ndim != 2 or b.ndim != 2:
                raise DimensionError("Kraus pair factors must be matrices")
            if a.shape[1] != self.alice_dim:
                raise DimensionError(
                    f"sender operator has {a.shape[1]} columns, expected {self.alice_dim}"
                )
            if b.shape[1] != self.bob_dim:
                raise DimensionError(
                    f"receiver operator has {b.shape[1]} columns, expected {self.bob_dim}"
                )
            if a.shape != a0.shape or b.shape != b0.shape:
                raise DimensionError("all Kraus pairs must share the same shapes")
        # overflow leaves a non-finite residual, which require_complete rejects
        with np.errstate(over="ignore", invalid="ignore"):
            object.__setattr__(self, "kraus", _frozen(np.stack([kron(a, b) for a, b in pairs])))
            total = np.zeros((self.alice_dim * self.bob_dim,) * 2, dtype=np.complex128)
            for a, b in pairs:
                total += kron(dagger(a) @ a, dagger(b) @ b)
            residual = frobenius(total - np.eye(total.shape[0]))
        object.__setattr__(self, "completeness_residual", residual)

    def __len__(self) -> int:
        return len(self.pairs)


def require_complete(p: LocalKrausProtocol) -> None:
    residual = p.completeness_residual
    if not residual <= COMPLETENESS_TOL:  # a NaN residual fails too
        raise IncompleteProtocolError(
            f"Kraus pairs do not resolve the identity "
            f"(residual {residual:.3e} > {COMPLETENESS_TOL:.0e})",
            residual=residual,
        )


def require_teleport_protocol(p: LocalKrausProtocol) -> None:
    """Reject protocols that are incomplete or do not act on (1, A) and (B, 2)."""
    if p.alice_dim != 4 or p.bob_dim != 4:
        raise DimensionError(
            f"teleportation protocols act on (1,A) and (B,2); got factor dims "
            f"{p.alice_dim} and {p.bob_dim}, expected 4 and 4"
        )
    require_complete(p)


def apply_kraus(p: LocalKrausProtocol, rho) -> np.ndarray:
    """Kraus action sum_i K_i rho K_i^dagger with K_i = A_i (x) B_i.

    Unchecked: callers validate ``rho`` and the protocol first.

    The terms come from one stacked product and are summed left to right
    from +0.0, so every bit matches the per-operator loop
    ``out = zeros; out += k @ rho @ k^dagger``.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    terms = p.kraus @ rho @ p.kraus.conj().transpose(0, 2, 1)
    out = terms[0] + 0.0  # 0.0 + -0.0 is +0.0, as in the loop's zero start
    for term in terms[1:]:
        out += term
    return out


def entangled_pair_ket(theta: float) -> np.ndarray:
    """cos(theta)|00> + sin(theta)|11> on the A:B pair."""
    ket = np.zeros(4, dtype=np.complex128)
    ket[0] = np.cos(theta)
    ket[3] = np.sin(theta)
    return ket


def resource_channel(pair_state) -> np.ndarray:
    """Embed an A:B resource as a channel state on A (x) B (x) 2.

    ``pair_state`` is a 4-dim ket or 4x4 density matrix on A:B; particle 2
    starts in |0>.
    """
    m = np.asarray(pair_state, dtype=np.complex128)
    if m.ndim == 1:
        m = np.outer(check_pure_state(m, dim=4), m.conj())
    else:
        m = check_density_matrix(m, dim=4)
    ground = np.zeros((2, 2), dtype=np.complex128)
    ground[0, 0] = 1.0
    return kron(m, ground)


def angle_channel(theta: float) -> np.ndarray:
    """Channel state for the cos/sin resource at a given Schmidt angle."""
    return resource_channel(entangled_pair_ket(theta))


def apply_protocol(input_rho, channel_rho, p: LocalKrausProtocol) -> np.ndarray:
    """Run the Kraus-pair map on (input particle 1) (x) (channel on A,B,2).

    The sender factor of the protocol acts on particles (1, A), the
    receiver factor on (B, 2), so the joint operators are exactly
    A_i (x) B_i in the (1, A, B, 2) register order. Trace is preserved.
    """
    rho_in = check_density_matrix(input_rho, dim=2)
    rho_ch = check_density_matrix(channel_rho, dim=8)
    require_teleport_protocol(p)
    return apply_kraus(p, kron(rho_in, rho_ch))


def teleported_output(joint) -> np.ndarray:
    """Reduce a (1, A, B, 2) state to the particle-2 marginal."""
    m = np.asarray(joint, dtype=np.complex128)
    if m.shape != (16, 16):
        raise DimensionError(f"expected a 4-qubit state of dim 16, got {m.shape}")
    return partial_trace(m, [2, 2, 2, 2], keep={3})


@dataclass(frozen=True)
class Purification:
    """Pure state on system (x) M whose M-marginal trace recovers the input."""

    psi: np.ndarray
    ancilla_dim: int

    def reduce(self) -> np.ndarray:
        """Trace out M, recovering the original density matrix."""
        rho = np.outer(self.psi, self.psi.conj())
        return partial_trace(rho, [self.psi.size // self.ancilla_dim, self.ancilla_dim], keep={0})


def purify(rho) -> Purification:
    """Spectral purification: sum_k sqrt(l_k) |e_k> (x) |k>_M.

    The ancilla dimension is the number of eigenvalues above 1e-12, so pure
    inputs get a trivial one-dimensional ancilla.
    """
    m = check_density_matrix(rho)
    vals, vecs = eig_hermitian(m)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    rank = max(1, int(np.sum(vals > 1e-12)))
    d = m.shape[0]
    psi = np.zeros(d * rank, dtype=np.complex128)
    for k in range(rank):
        psi[k::rank] = np.sqrt(max(vals[k], 0.0)) * vecs[:, k]
    psi = fix_phase(psi / np.linalg.norm(psi))
    return Purification(psi=psi, ancilla_dim=rank)


@dataclass(frozen=True)
class Dilation:
    """Unitary realization of a Kraus map on system (x) environment.

    On the slice where the environment starts in |0>, u acts as
    |x> (x) |0>_E -> sum_i (K_i |x>) (x) |i>_E; the remaining columns are a
    deterministic orthonormal completion and never see valid inputs.
    """

    u: np.ndarray
    env_dim: int

    def apply(self, rho) -> np.ndarray:
        """Conjugate (rho (x) |0><0|_E) by u and trace out the environment."""
        rho = np.asarray(rho, dtype=np.complex128)
        d = self.u.shape[0] // self.env_dim
        if rho.shape != (d, d):
            raise DimensionError(f"expected a system state of dim {d}, got {rho.shape}")
        env0 = np.zeros((self.env_dim, self.env_dim), dtype=np.complex128)
        env0[0, 0] = 1.0
        lifted = self.u @ kron(rho, env0) @ dagger(self.u)
        return partial_trace(lifted, [d, self.env_dim], keep={0})


def dilate(p: LocalKrausProtocol) -> Dilation:
    """Build the environment unitary whose |0>_E slice carries the protocol.

    The environment dimension is the smallest power of two holding one
    orthonormal flag state per Kraus pair; completeness makes the
    constructed columns orthonormal, and the trailing columns of a complete
    QR factorization of those columns fill in the rest deterministically.
    """
    require_complete(p)
    kraus = p.kraus
    n, d = len(kraus), p.alice_dim * p.bob_dim
    if kraus.shape[1:] != (d, d):
        raise DimensionError("dilation needs square joint Kraus operators")
    env = 1 << (n - 1).bit_length()  # smallest power of two >= n
    total = d * env

    # Column x*env carries |x> (x) |0>_E: entry r*env + i is K_i[r, x], the
    # i-th Kraus image tagged with the environment flag |i>.
    images = np.zeros((d, env, d), dtype=np.complex128)
    images[:, :n, :] = kraus.transpose(1, 0, 2)
    u = np.zeros((total, total), dtype=np.complex128)
    u[:, ::env] = images.reshape(total, d)
    # The last total - d columns of Q span the complement of those d columns.
    q, _ = np.linalg.qr(u[:, ::env], mode="complete")
    u[:, np.arange(total) % env != 0] = q[:, d:]
    return Dilation(u=u, env_dim=env)


def random_local_protocol(
    seed, alice_dim: int = 2, bob_dim: int = 2, n_pairs: int = 4
) -> LocalKrausProtocol:
    """Random valid protocol: a Kraus set on one side, unitaries on the other.

    Slicing a Haar-random isometry gives operators with
    sum_i K_i^dagger K_i = I, and pairing them with unitaries on the other
    factor keeps the joint completeness condition exact. A coin flip
    decides which party gets the Kraus set.
    """
    rng = np.random.default_rng(seed)

    def kraus_set(dim):
        g = rng.normal(size=(dim * n_pairs, dim)) + 1j * rng.normal(size=(dim * n_pairs, dim))
        isometry, _ = np.linalg.qr(g)
        return [isometry[i * dim : (i + 1) * dim, :] for i in range(n_pairs)]

    def unitaries(dim):
        return [random_unitary(dim, rng) for _ in range(n_pairs)]

    if rng.random() < 0.5:
        pairs = tuple(zip(kraus_set(alice_dim), unitaries(bob_dim)))
    else:
        pairs = tuple(zip(unitaries(alice_dim), kraus_set(bob_dim)))
    return LocalKrausProtocol(pairs=pairs, alice_dim=alice_dim, bob_dim=bob_dim)


def protocol_to_json(p: LocalKrausProtocol) -> str:
    """Serialize with [re, im] entry pairs; round-trips doubles exactly."""
    doc = {
        "alice_dim": p.alice_dim,
        "bob_dim": p.bob_dim,
        "pairs": [
            {"a": jsonio.matrix_to_pairs(a), "b": jsonio.matrix_to_pairs(b)}
            for a, b in p.pairs
        ],
    }
    return jsonio.dumps(doc)


def protocol_from_json(text: str) -> LocalKrausProtocol:
    """Parse `protocol_to_json` output; a missing or mistyped field raises
    ValueError naming it. The dims must be JSON integers and ``pairs`` a list."""
    doc = json.loads(text)

    def get(obj, key, where):
        if not isinstance(obj, dict) or key not in obj:
            raise ValueError(f"protocol JSON: {where} has no {key!r} field")
        return obj[key]

    def factor(entry, key, where):
        rows = get(entry, key, where)
        try:
            return jsonio.matrix_from_pairs(rows)
        except (TypeError, ValueError) as exc:  # a number, short or long pairs
            raise ValueError(
                f"protocol JSON: {where} field {key!r} is not rows of [re, im] pairs"
            ) from exc

    def typed(key, kind, what):
        value = get(doc, key, "document")
        if not isinstance(value, kind) or isinstance(value, bool):  # bool is an int
            raise ValueError(f"protocol JSON: document field {key!r} is not {what}")
        return value

    pairs = tuple(
        tuple(factor(entry, key, f"pair {i}") for key in "ab")
        for i, entry in enumerate(typed("pairs", list, "a list"))
    )
    dims = {key: typed(key, int, "an integer") for key in ("alice_dim", "bob_dim")}
    return LocalKrausProtocol(pairs=pairs, **dims)
