"""Test-side helpers the package itself does not use.

``program_permutation`` and ``program_unitary`` give the exact basis map and
the dense matrix of a gate program, through the gate interpreter;
``mode_data`` bundles one fermion mode's closed-form quantities;
``sequential_reference`` is the two-qubit sequential scheme's bound that the
compressed protocol is compared with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from compressed_metrology import ising
from compressed_metrology.circuit import CompressedRegister, GateProgram, apply_program
from compressed_metrology.ising import IsingParams


def program_permutation(program: GateProgram, n_qubits: int) -> np.ndarray:
    """Exact basis permutation of an X/CX-only program: index -> image."""
    img = np.arange(1 << n_qubits, dtype=np.int64)
    for gate in program.gates:
        if gate.kind not in ("X", "CX"):
            raise ValueError(f"{gate.kind} is not a permutation gate")
        bit = 1 << (n_qubits - 1 - gate.qubits[0])
        if gate.kind == "X":
            img ^= bit
        else:
            mask = 0
            for c in gate.controls:
                mask |= 1 << (n_qubits - 1 - c)
            hot = (img & mask) == mask
            img[hot] ^= bit
    return img


def program_unitary(program: GateProgram, n_qubits: int) -> np.ndarray:
    """Dense matrix of a program (small registers only)."""
    dim = 1 << n_qubits
    mat = np.empty((dim, dim), dtype=complex)
    for col in range(dim):
        reg = CompressedRegister(m=n_qubits - 2, amplitudes=np.zeros(dim, dtype=complex))
        reg.amplitudes[col] = 1.0
        apply_program(reg, program)
        mat[:, col] = reg.amplitudes
    return mat


@dataclass(frozen=True)
class ModeData:
    """Momentum, Bogoliubov angle and quasiparticle energy of one fermion mode."""

    mode_index: int
    xi: float
    cos_theta: float
    sin_theta: float
    energy: float
    singular: bool = False


def is_singular_mode(params: IsingParams, j: int) -> bool:
    """The gap-closing mode, where ``bogoliubov_angle`` falls back to (1, 0)."""
    return ising._radicand(params.g, ising.mode_xi(params.n_spins, j)) < ising.SINGULAR_RADICAND


def mode_data(params: IsingParams, j: int) -> ModeData:
    cos_t, sin_t = ising.bogoliubov_angle(params, j)
    return ModeData(
        mode_index=j,
        xi=ising.mode_xi(params.n_spins, j),
        cos_theta=cos_t,
        sin_theta=sin_t,
        energy=ising.mode_energy(params, j),
        singular=is_singular_mode(params, j),
    )


def sequential_reference(total_time: float, shots: int = 1) -> dict[str, float]:
    """Two-qubit sequential-scheme reference bound on delta J^2.

    Two conventions circulate for the repetition scaling of this bound,
    (nu T)^-2 and the single-pass Heisenberg form 1/(nu T^2); both are
    returned, labeled, with neither adjudicated.
    """
    if total_time <= 0.0 or shots < 1:
        raise ValueError("need positive time and at least one shot")
    return {
        "nu_t_inverse_squared": 1.0 / (shots * total_time) ** 2,
        "per_shot_t_squared": 1.0 / (shots * total_time**2),
    }
