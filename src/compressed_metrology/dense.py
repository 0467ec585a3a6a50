# Brute-force 2^N state-vector reference for the transverse-field Ising chain.
#
# Conventions (fixed here once, inherited by every other module):
#   Spin Hamiltonian:  H = -J * sum_j X_j X_{j+1}  -  B * sum_j Z_j
#   with the wrapped bond X_N = Ztilde X_0, Ztilde = prod_j Z_j.  After the
#   Jordan-Wigner map this boundary makes the fermion couplings strictly
#   periodic, so momenta are 2*pi*j/N with no parity-dependent twist.
#   Majoranas:  x_{2j} = Z..Z X_j,  x_{2j+1} = Z..Z Y_j
#   Fermions:   c_j = (x_{2j} + i x_{2j+1})/2, which annihilate |0..0>.
#   Parity:     Ztilde = (-1)^(number of fermions); |0..0> is in the +1 sector.
#
# Everything here is deliberately dense and small (N <= 12 operators,
# N <= 10 evolution): this module is the oracle, not the product path.

from __future__ import annotations

import functools

import numpy as np

from .adiabatic import TrotterSchedule
from .ising import IsingParams

_MAX_OPERATOR_SPINS = 12
_MAX_EVOLVE_SPINS = 10
# Step phases exponentiated at once in trotter_evolve: 256 kB of complex entries.
_PHASE_CHUNK_ENTRIES = 1 << 14

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def _check_operator_size(n_spins: int) -> None:
    if n_spins > _MAX_OPERATOR_SPINS:
        raise ValueError(f"dense operators capped at N={_MAX_OPERATOR_SPINS}, got {n_spins}")


def pauli_string(n_spins: int, ops: dict[int, str]) -> np.ndarray:
    """Dense operator for a Pauli string, ``ops`` mapping site -> 'X'|'Y'|'Z'."""
    _check_operator_size(n_spins)
    out = np.ones((1, 1), dtype=complex)
    for site in range(n_spins):
        out = np.kron(out, _PAULI[ops.get(site, "I")])
    return out


def majoranas(n_spins: int) -> list[np.ndarray]:
    """The 2N Majorana generators x_0 .. x_{2N-1} as dense matrices.

    Site 0 is the leading bit of a basis index, as in ``pauli_string``.  Both
    x_{2j} = Z..Z X_j and x_{2j+1} = Z..Z Y_j flip site j's bit; the Z string
    gives the sign (-1)^(1-bits on sites 0..j-1), and Y_j a further +i on a
    cleared bit and -i on a set one.
    """
    _check_operator_size(n_spins)
    dim = 1 << n_spins
    cols = np.arange(dim)
    counts = popcounts(n_spins)
    out = []
    for j in range(n_spins):
        bit = 1 << (n_spins - 1 - j)
        string = 1.0 - 2.0 * (counts[cols & (dim - 2 * bit)] % 2)
        for entries in (string, 1j * string * np.where(cols & bit, -1.0, 1.0)):
            op = np.zeros((dim, dim), dtype=complex)
            op[cols ^ bit, cols] = entries
            out.append(op)
    return out


def popcounts(n_spins: int) -> np.ndarray:
    """Number of 1-bits (fermions / down spins) per computational basis index."""
    idx = np.arange(1 << n_spins, dtype=np.uint64)
    counts = np.zeros(idx.shape, dtype=np.int64)
    while idx.any():
        counts += (idx & 1).astype(np.int64)
        idx >>= 1
    return counts


def parity_diag(n_spins: int) -> np.ndarray:
    """Diagonal of Ztilde = prod_j Z_j: +1 on even-fermion-number states."""
    return np.where(popcounts(n_spins) % 2 == 0, 1.0, -1.0)


@functools.lru_cache(maxsize=None)
def _bond_sum(n_spins: int) -> np.ndarray:
    """sum_j X_j X_{j+1} with the wrapped bond, as a read-only real matrix built once per N.

    Every bond string is real with entries 0 and +-1, so the sum is exact.
    The operator cap and power-of-two sizes leave at most N = 2, 4 and 8
    cached (0.5 MB).
    """
    boundary = {0: "Y", n_spins - 1: "Y"} | {k: "Z" for k in range(1, n_spins - 1)}
    strings = [{j: "X", j + 1: "X"} for j in range(n_spins - 1)] + [boundary]
    bonds = np.zeros((1 << n_spins, 1 << n_spins))
    for ops in strings:
        bonds += pauli_string(n_spins, ops).real
    bonds.setflags(write=False)
    return bonds


def build_hamiltonian(params: IsingParams) -> np.ndarray:
    """Dense H(J, B) including the Jordan-Wigner wrapped bond.

    The j = N-1 bond is X_{N-1} (Ztilde X_0), which reduces to the string
    Y_0 Z_1 .. Z_{N-2} Y_{N-1}; for N = 2 it is Y_0 Y_1.  Subtracting from a
    zero matrix keeps every zero entry +0.0, so the result has the bits of
    subtracting the bond strings one by one.
    """
    n = params.n_spins
    _check_operator_size(n)
    dim = 1 << n
    ham = np.zeros((dim, dim), dtype=complex)
    ham -= params.coupling_j * _bond_sum(n)
    field = params.field_b * (popcounts(n) * (-2.0) + n)
    ham.flat[:: dim + 1] -= field
    return ham


def sector_eigh(params: IsingParams, parity: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of H restricted to a Ztilde parity sector.

    Projecting before solving avoids any ambiguity from the even/odd level
    crossing at g = 1.  Returns (eigenvalues, eigenvectors embedded in the
    full 2^N space, one per column), both sorted ascending.
    """
    if parity not in (+1, -1):
        raise ValueError("parity must be +1 or -1")
    ham = build_hamiltonian(params)
    keep = np.flatnonzero(parity_diag(params.n_spins) == parity)
    evals, sector_vecs = np.linalg.eigh(ham[np.ix_(keep, keep)])
    vecs = np.zeros((ham.shape[0], keep.size), dtype=complex)
    vecs[keep, :] = sector_vecs
    return evals, vecs


def even_ground(params: IsingParams) -> tuple[float, np.ndarray, float]:
    """(energy, state, QFI w.r.t. g) of the lowest even-parity level, from one solve.

    This is the branch the adiabatic evolution from |0..0> tracks; for g < 1
    it is *not* the global ground state (that one is odd).  Phase convention:
    the largest-magnitude amplitude of the state is made real positive.  The
    QFI is the exact sum over the even-sector spectrum,
    F = 4 sum_{n>0} |<n| dH/dg |0>|^2 / (E_n - E_0)^2, with dH/dg = -J sum_j Z_j
    diagonal at fixed J; each eigenvalue is halved before the gap is taken,
    so no gap overflows at the largest fields the Hamiltonian holds.
    """
    evals, vecs = sector_eigh(params, +1)
    if evals.size > 1 and evals[1] - evals[0] < 1e-10:
        raise RuntimeError(
            f"even-sector ground state degenerate within 1e-10 at g={params.g}"
        )
    state = vecs[:, 0]
    pivot = int(np.argmax(np.abs(state)))
    state = state * (np.abs(state[pivot]) / state[pivot])
    state = state / np.linalg.norm(state)
    n = params.n_spins
    dh_dg = -params.coupling_j * (n - 2.0 * popcounts(n))
    overlaps = vecs[:, 1:].conj().T @ (dh_dg * state)
    half_gaps = 0.5 * evals[1:] - 0.5 * evals[0]
    return float(evals[0]), state, float(np.sum((np.abs(overlaps) / half_gaps) ** 2))


def ground_state_even(params: IsingParams) -> np.ndarray:
    """The state of ``even_ground``."""
    return even_ground(params)[1]


def qfi_pure(params: IsingParams) -> float:
    """The quantum Fisher information w.r.t. g of ``even_ground``."""
    return even_ground(params)[2]


def observable_b_dense(n_spins: int) -> np.ndarray:
    """Occupation of the first Fourier fermion mode, b_1^dag b_1, as a dense matrix.

    The mode phase is e^{+i 2 pi k / N}, the convention of
    ``matchgate.observable_b_coefficients``; the opposite sign labels the
    mirror mode N-1, which has the identical expectation on every
    reflection-symmetric state considered here (ground branch and the
    Trotter-evolved vacuum).
    """
    _check_operator_size(n_spins)
    xs = majoranas(n_spins)
    dim = 1 << n_spins
    b1 = np.zeros((dim, dim), dtype=complex)
    for k in range(n_spins):
        ck = 0.5 * (xs[2 * k] + 1j * xs[2 * k + 1])
        b1 += np.exp(2j * np.pi * k / n_spins) * ck
    b1 /= np.sqrt(n_spins)
    return b1.conj().T @ b1


def observable_m_dense(n_spins: int) -> np.ndarray:
    """Average magnetization M = (1/N) sum_j Z_j (diagonal)."""
    _check_operator_size(n_spins)
    diag = (n_spins - 2.0 * popcounts(n_spins)) / n_spins
    return np.diag(diag.astype(complex))


def expectation(state: np.ndarray, op: np.ndarray) -> float:
    if state.shape[0] != op.shape[0]:
        raise ValueError("state/operator dimension mismatch")
    val = np.vdot(state, op @ state)
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expectation of a non-Hermitian operator (imag {val.imag:.2e})")
    return float(val.real)


def variance(state: np.ndarray, op: np.ndarray) -> float:
    applied = op @ state
    mean = np.vdot(state, applied)
    var = float(np.vdot(applied, applied).real - abs(mean) ** 2)
    if var < -1e-12:
        raise ValueError(f"negative variance {var:.2e}")
    return var


def trotter_evolve(params: IsingParams, schedule: TrotterSchedule) -> np.ndarray:
    """Apply the digital-adiabatic product to |0..0>.

    Step l applies U0 = exp(i B Delta H0) first, then U1 = exp(i J (l/L) Delta H1),
    for l = 0 .. L in that order, the same convention as the compressed product.
    Both layers commute with Ztilde, so the state stays in the even sector of
    |0..0>.  There it is carried in the eigenbasis of H1, where U0 is the
    matrix K = V^dag diag(u0) V formed once and a step is one half-size
    product psi <- phases_l * (K psi); the step phases are exponentiated a
    chunk of steps at a time.  The output has the bits of the per-step
    sector loop kept in the test suite and exact zeros on the odd sector.
    At N = 8 a step takes 10-13 us, against 41-43 us for the two full-space
    2^N products it replaces (in process, 2-core Intel Xeon host).
    """
    n = params.n_spins
    if n > _MAX_EVOLVE_SPINS:
        raise ValueError(f"dense evolution capped at N={_MAX_EVOLVE_SPINS}, got {n}")
    # H1 = +sum XX; its even-sector eigenvectors, embedded in the 2^N space.
    w1, v1 = sector_eigh(IsingParams(n, field_b=0.0, coupling_j=-1.0), +1)
    # H0 = sum_j Z_j is diagonal.
    u0 = np.exp(1j * params.field_b * schedule.delta * (n - 2.0 * popcounts(n)))
    k0 = v1.conj().T @ (u0[:, None] * v1)
    state = v1[0].conj()  # |0..0> in H1's eigenbasis
    angles = 1j * params.coupling_j * schedule.taus() / 2.0
    chunk = max(1, _PHASE_CHUNK_ENTRIES // w1.size)
    for lo in range(0, schedule.steps + 1, chunk):
        for phases in np.exp(angles[lo:lo + chunk, None] * w1):
            state = phases * (k0 @ state)
    return v1 @ state
