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
# Everything here is deliberately dense and small (N <= 12): this module is
# the oracle, not the product path.  On the even sector the wrapped bond is
# +J X_{N-1} X_0, and the twisted shift (site j -> j+1, then Z on site 0)
# commutes with H and fixes |0..0>.  The branch grown from |0..0>, which
# ising's closed forms describe, is solved and evolved in the even states the
# shift fixes, through one real eigh (_symmetric_eigh).
#
# What depends on N alone (popcounts, parity_diag, symmetric_basis,
# observable_b_dense and the bond sum's eigenpairs) is built once per process
# per N and returned read-only, so repeated oracle points at one N share it;
# the largest the CLI can hold is b_1^dag b_1 at N = 8, 1 MB (compare and
# oracle cap N at 8).

from __future__ import annotations

from functools import lru_cache, wraps

import numpy as np

from .adiabatic import TrotterSchedule
from .ising import IsingParams

_MAX_OPERATOR_SPINS = 12
# Step phases exponentiated at once in trotter_evolve: 256 kB of complex entries.
_PHASE_CHUNK_ENTRIES = 1 << 14


def _check_operator_size(n_spins: int) -> None:
    if n_spins > _MAX_OPERATOR_SPINS:
        raise ValueError(f"dense operators capped at N={_MAX_OPERATOR_SPINS}, got {n_spins}")


def _per_size(build):
    """``build``, cached by N, with its arrays made read-only."""
    @lru_cache(maxsize=None)
    @wraps(build)
    def built(n_spins: int):
        out = build(n_spins)
        for arr in out if isinstance(out, tuple) else (out,):
            arr.flags.writeable = False
        return out

    return built


@_per_size
def popcounts(n_spins: int) -> np.ndarray:
    """Number of 1-bits (fermions / down spins) per computational basis index."""
    idx = np.arange(1 << n_spins, dtype=np.uint64)
    counts = np.zeros(idx.shape, dtype=np.int64)
    while idx.any():
        counts += (idx & 1).astype(np.int64)
        idx >>= 1
    return counts


@_per_size
def parity_diag(n_spins: int) -> np.ndarray:
    """Diagonal of Ztilde = prod_j Z_j: +1 on even-fermion-number states."""
    return np.where(popcounts(n_spins) % 2 == 0, 1.0, -1.0)


def build_hamiltonian(params: IsingParams) -> np.ndarray:
    """Dense H(J, B) including the Jordan-Wigner wrapped bond, written as signed bit flips.

    Bond X_j X_{j+1} flips the bits of sites j and j+1 (site 0 leads an
    index), so -J goes into entry (col ^ mask, col) of every column.  The
    wrapped bond X_{N-1} (Ztilde X_0) is Y_0 Z_1 .. Z_{N-2} Y_{N-1}
    = -Ztilde X_0 X_{N-1}: it flips sites 0 and N-1 with the sign +J Ztilde(col),
    and at N = 2 it lands on the X_0 X_1 entries.  Every entry is real, and
    every update is +-J on a zero matrix, so the result has the bits of the
    real part of subtracting the Pauli bond strings one by one.
    """
    n = params.n_spins
    _check_operator_size(n)
    dim = 1 << n
    cols, coupling = np.arange(dim), params.coupling_j
    ham = np.zeros((dim, dim))
    for j in range(n - 1):
        ham[cols ^ (3 << (n - 2 - j)), cols] -= coupling
    ham[cols ^ (1 | 1 << (n - 1)), cols] += coupling * parity_diag(n)
    field = params.field_b * (popcounts(n) * (-2.0) + n)
    ham.flat[:: dim + 1] -= field
    return ham


def _symmetric_eigh(params: IsingParams) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues ascending, eigenvectors embedded in the 2^N space as columns) of H
    on the span of ``symmetric_basis``, from one real eigh."""
    basis = symmetric_basis(params.n_spins)
    evals, vecs = np.linalg.eigh(basis.T @ (build_hamiltonian(params) @ basis))
    return evals, basis @ vecs


@_per_size
def _bond_eigh(n_spins: int) -> tuple[np.ndarray, np.ndarray]:
    """``_symmetric_eigh`` of the bond sum H1 = +sum XX (B = 0, J = -1)."""
    return _symmetric_eigh(IsingParams(n_spins, field_b=0.0, coupling_j=-1.0))


def even_ground(params: IsingParams) -> tuple[float, np.ndarray, float]:
    """(energy, real state, QFI w.r.t. g) of the branch grown from |0..0>, from one solve.

    The branch is the lowest level of the even states fixed by the twisted
    shift, where ``trotter_evolve`` runs; for g < 1 it is not the global
    ground state (that one is odd), for g < 0 not the lowest even level.
    Sign convention: the largest-magnitude amplitude is positive.  The QFI is
    the exact sum over the subspace's spectrum,
    F = 4 sum_{n>0} |<n| dH/dg |0>|^2 / (E_n - E_0)^2, with dH/dg = -J sum_j Z_j
    diagonal and shift-invariant; each eigenvalue is halved before the gap is
    taken, so no gap overflows at the largest fields the Hamiltonian holds.
    A gap below 1e-10 max(1, |E_0|) raises: at N = 8 that is g <= -1e5, where
    the gap closes like 1/|g|.
    """
    evals, vecs = _symmetric_eigh(params)
    if evals.size > 1 and evals[1] - evals[0] < 1e-10 * max(1.0, abs(evals[0])):
        raise RuntimeError(
            f"symmetric even-subspace ground state degenerate within "
            f"1e-10*max(1, |E0|) at B={params.field_b}, J={params.coupling_j}"
        )
    state = vecs[:, 0]
    state = state * np.sign(state[np.argmax(np.abs(state))])
    n = params.n_spins
    dh_dg = -params.coupling_j * (n - 2.0 * popcounts(n))
    overlaps = vecs[:, 1:].T @ (dh_dg * state)
    half_gaps = 0.5 * evals[1:] - 0.5 * evals[0]
    return float(evals[0]), state, float(np.sum((overlaps / half_gaps) ** 2))


def ground_state_even(params: IsingParams) -> np.ndarray:
    """The state of ``even_ground``."""
    return even_ground(params)[1]


def qfi_pure(params: IsingParams) -> float:
    """The quantum Fisher information w.r.t. g of ``even_ground``."""
    return even_ground(params)[2]


@_per_size
def observable_b_dense(n_spins: int) -> np.ndarray:
    """Occupation of the first Fourier fermion mode, b_1^dag b_1, as a dense matrix.

    b_1 = sum_k e^{+i 2 pi k / N} (x_{2k} + i x_{2k+1}) / (2 sqrt(N)), the phase
    convention of ``matchgate.observable_b_coefficients``; the mirror mode N-1
    has the same expectation on the reflection-symmetric states used here.
    Term k flips site k's bit (site 0 leads an index) with the sign
    (-1)^(1-bits on sites 0..k-1) of the Z string, times +i on a cleared bit
    and -i on a set one in x_{2k+1} = Z..Z Y_k; it is written into its entries
    with the operations of the dense Majorana sum, so b_1 has that sum's bits.
    """
    _check_operator_size(n_spins)
    dim = 1 << n_spins
    cols, counts = np.arange(dim), popcounts(n_spins)
    b1 = np.zeros((dim, dim), dtype=complex)
    for k in range(n_spins):
        bit = 1 << (n_spins - 1 - k)
        string = 1.0 - 2.0 * (counts[cols & (dim - 2 * bit)] % 2)
        x_odd = 1j * string * np.where(cols & bit, -1.0, 1.0)
        b1[cols ^ bit, cols] += np.exp(2j * np.pi * k / n_spins) * (0.5 * (string + 1j * x_odd))
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


@_per_size
def symmetric_basis(n_spins: int) -> np.ndarray:
    """Orthonormal real columns spanning the even states fixed by the twisted shift.

    The twisted shift maps |s> to (-1)^(s & 1) |(s >> 1) | ((s & 1) << (N-1))>:
    site j moves to site j+1 (site 0 leads an index) and Z acts on the new
    site 0.  Its N-th power is Ztilde, +1 on the even sector.  Each column is
    sum_{m<N} shift^m |r>, normalized, for r the smallest index of one orbit;
    orbits whose signs cancel are dropped.  The sums are exact integers, so a
    norm is either 0 or at least 1.  Column 0 is |0..0>.
    """
    _check_operator_size(n_spins)
    start = np.flatnonzero(parity_diag(n_spins) > 0)
    cols = np.arange(start.size)
    sums = np.zeros((1 << n_spins, start.size))
    states, signs, lowest = start.copy(), np.ones(start.size), start.copy()
    for _ in range(n_spins):
        sums[states, cols] += signs
        signs = np.where(states & 1, -signs, signs)
        states = (states >> 1) | ((states & 1) << (n_spins - 1))
        np.minimum(lowest, states, out=lowest)
    norms = np.sqrt(np.sum(sums * sums, axis=0))
    keep = (lowest == start) & (norms > 0.0)
    return sums[:, keep] / norms[keep]


def trotter_evolve(params: IsingParams, schedule: TrotterSchedule) -> np.ndarray:
    """Apply the digital-adiabatic product to |0..0>.

    Step l applies U0 = exp(i B Delta H0) first, then U1 = exp(i J (l/L) Delta H1),
    for l = 0 .. L in that order, the same convention as the compressed product.
    Both layers commute with Ztilde and the twisted shift, so the state stays
    in the span of ``symmetric_basis``, which holds |0..0> (16 of the even
    sector's 128 states at N = 8).  There it is carried in the eigenbasis V of
    H1 (``_bond_eigh``, solved once per N), where U0 is the matrix
    K = V^T diag(u0) V formed once and a step is one small product
    psi <- phases_l * (K psi); the step angles tau and their phases are formed
    a chunk of steps at a time.  The output has the
    bits of the per-step reduced loop kept in the test suite and exact zeros
    on the odd sector.
    """
    n = params.n_spins
    # H1's eigenvectors in the symmetric subspace, embedded in the 2^N space.
    w1, v1 = _bond_eigh(n)
    # H0 = sum_j Z_j is diagonal.
    u0 = np.exp(1j * params.field_b * schedule.delta * (n - 2.0 * popcounts(n)))
    k0 = v1.T @ (u0[:, None] * v1)
    state = v1[0]  # |0..0> in H1's eigenbasis
    chunk = max(1, _PHASE_CHUNK_ENTRIES // w1.size)
    for lo in range(0, schedule.steps + 1, chunk):
        taus = schedule.taus(lo, min(lo + chunk, schedule.steps + 1))
        for phases in np.exp(1j * params.coupling_j * taus[:, None] / 2.0 * w1):
            state = phases * (k0 @ state)
    return v1 @ state
