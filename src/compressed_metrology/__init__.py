"""Compressed quantum-metrology simulator for the transverse-field Ising chain.

Submodules
----------
ising      closed-form observable curves, their derivatives, variances and QFI
matchgate  SO(2N) rotation check and the rank-one <B> on the rotation
adiabatic  Trotter schedules and the compressed rotation product
circuit    gate-level (m+2)-qubit realization of the compressed protocol
dense      brute-force state-vector oracle (small N)
metrology  error propagation, scaling fits, moment estimation of g
cli        batch front-end (sweep / scaling / compare / estimate / dump / oracle)
"""

__version__ = "0.1.0"
