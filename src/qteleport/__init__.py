"""Toolkit for checking what entanglement exact qubit teleportation needs.

Density-matrix simulation of local Kraus-pair protocols, purification and
unitary dilation, Bloch-chord decomposition of noncommuting qubit pairs,
two-qubit entanglement measures, and a derivative-free fidelity sweep over
channel entanglement. Each name is imported from its module, e.g.
``from qteleport.teleport import run_teleport``.
"""

__version__ = "0.1.0"
