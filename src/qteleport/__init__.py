"""Toolkit for checking what entanglement exact qubit teleportation needs.

Density-matrix simulation of local Kraus-pair protocols, purification and
unitary dilation, Bloch-chord decomposition of noncommuting qubit pairs,
two-qubit entanglement measures, and a derivative-free fidelity sweep over
channel entanglement.
"""

from .channels import (
    Dilation,
    LocalKrausProtocol,
    Purification,
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
from .entanglement import (
    EntanglementReport,
    SchmidtDecomposition,
    binary_entropy,
    concurrence,
    entanglement_of_formation,
    entanglement_report,
    entropy_of_entanglement,
    fully_entangled_fraction,
    is_maximally_entangled,
    schmidt,
)
from .errors import (
    CommutingInputError,
    DegenerateInputError,
    DimensionError,
    IncompleteProtocolError,
    NonHermitianError,
    NotPositiveError,
)
from .linalg import (
    HermitianEigen,
    dagger,
    eig_hermitian,
    frobenius,
    kron,
    partial_trace,
    psd_sqrt,
)
from .optimize import (
    OptResult,
    SweepRow,
    bbcjpw_equivalent_params,
    decode_protocol,
    nelder_mead,
    pair_objective,
    sweep_channel_angle,
    sweep_to_csv,
)
from .states import (
    ExtremeDecomposition,
    bloch_from_density,
    commutator_norm,
    density_from_bloch,
    extreme_decomposition,
    haar_random_pure,
    pure_density,
    random_density_matrix,
    random_unitary,
    state_fidelity,
)
from .teleport import (
    ExtremeReductionReport,
    TeleportOutcome,
    average_fidelity,
    bbcjpw_protocol,
    bell_states,
    classical_commuting_protocol,
    extreme_reduction_check,
    linearity_check,
    product_channel,
    run_teleport,
)

__version__ = "0.1.0"
