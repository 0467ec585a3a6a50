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

from .adiabatic import TrotterSchedule, adiabatic_rotation, build_schedule, trotter_error_bound
from .circuit import (
    CompressedRegister,
    Gate,
    GateProgram,
    count_ym,
    decompose_shift,
    dump_program,
    expectation_b_gate,
    full_program,
    initial_state,
    measure_ym,
    parse_program,
    run_circuit,
    sample_ym,
)
from .ising import (
    IsingParams,
    expected_b,
    expected_b_derivative,
    expected_m,
    expected_m_derivative,
    variance_b,
    variance_m,
)
from .matchgate import expectation_quadratic, observable_b_coefficients
from .metrology import (
    GEstimate,
    PrecisionPoint,
    ScalingFit,
    cramer_rao,
    error_propagation,
    estimate_counts,
    estimate_g,
    fit_power_law,
    fit_scaling,
    invert_expected_b,
    precision_b,
    precision_m,
)

__version__ = "0.1.0"
