"""Plain 2N x 2N forms of the Trotter rotations: the test-side oracle of ``adiabatic``.

``direct_rotation`` multiplies the step rotations one at a time in real
arithmetic, the product ``adiabatic.adiabatic_rotation`` evaluates per
momentum.  The generators and per-step rotations pin the conventions against
the dense spin-space oracle and the gate program.  ``su2_tree`` and
``half_spectrum_products`` are the per-momentum product in its plain,
allocating form (a new array per operation), one step at a time.  The
buffered ``adiabatic._momentum_products`` at q = 2 pi k / N, k = 0..N/2,
must equal it bit for bit where it too takes one step per block (N <= 32),
and to 1e-11 where it takes blocks of m > 1 steps through FFTs.
``gather_rotation`` is the back-transform from those products as an index
gather through an N x N offset table, which ``adiabatic_rotation``'s strided
view must equal byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from compressed_metrology import adiabatic
from compressed_metrology.adiabatic import TrotterSchedule
from compressed_metrology.ising import IsingParams
from support import tau


def shift_matrix(dim: int) -> np.ndarray:
    """Cyclic shift A = sum_j |j+1><j| + |0><2N-1| on ``dim`` labels."""
    if dim < 2:
        raise ValueError("shift needs dim >= 2")
    return np.roll(np.eye(dim), 1, axis=0)


def h0_generator(n_spins: int) -> np.ndarray:
    """Field generator h0 = (1/2) blockdiag([[0, 1], [-1, 0]]) of shape 2N x 2N."""
    if n_spins < 1:
        raise ValueError("n_spins must be >= 1")
    h0 = np.zeros((2 * n_spins, 2 * n_spins))
    even = np.arange(0, 2 * n_spins, 2)
    h0[even, even + 1] = 0.5
    h0[even + 1, even] = -0.5
    return h0


def h1_generator(n_spins: int) -> np.ndarray:
    """Interaction generator h1 = A h0 A^T (one-site shift of every cell)."""
    return np.roll(h0_generator(n_spins), (1, 1), axis=(0, 1))


def block_rotation(n_spins: int, angle: float) -> np.ndarray:
    """blockdiag of N planar rotations [[c, s], [-s, c]] = exp(2*angle*h0)."""
    rot = np.zeros((2 * n_spins, 2 * n_spins))
    even = np.arange(0, 2 * n_spins, 2)
    c, s = math.cos(angle), math.sin(angle)
    rot[even, even] = c
    rot[even + 1, even + 1] = c
    rot[even, even + 1] = s
    rot[even + 1, even] = -s
    return rot


def r0_rotation(field_b: float, schedule: TrotterSchedule, n_spins: int) -> np.ndarray:
    """Per-step field rotation R0 = exp(4 B Delta h0): planar angle 2 B Delta per cell."""
    return block_rotation(n_spins, 2.0 * field_b * schedule.delta)


def r1_rotation(coupling_j: float, l: int, schedule: TrotterSchedule, n_spins: int) -> np.ndarray:
    """Per-step interaction rotation R1 = A exp(2 J tau(l) h0) A^T; identity at l = 0."""
    return np.roll(block_rotation(n_spins, coupling_j * tau(schedule, l)), (1, 1), axis=(0, 1))


def mix_even_rows(mat: np.ndarray, c: float, s: float) -> np.ndarray:
    out = np.empty_like(mat)
    even, odd = mat[0::2], mat[1::2]
    out[0::2] = c * even + s * odd
    out[1::2] = -s * even + c * odd
    return out


def direct_rotation(
    params: IsingParams, schedule: TrotterSchedule, shifted: bool = True
) -> np.ndarray:
    """prod_{l=0..L} R1(J, l) R0(B), one step at a time, step l = 0 applied first.

    ``shifted=False`` replaces h1 by h0 (commuting layers), which collapses the
    product to a single block rotation: a check of the ordering conventions.
    """
    n = params.n_spins
    rot = np.eye(2 * n)
    cb = math.cos(2.0 * params.field_b * schedule.delta)
    sb = math.sin(2.0 * params.field_b * schedule.delta)
    for l in range(schedule.steps + 1):
        rot = mix_even_rows(rot, cb, sb)
        phi = params.coupling_j * tau(schedule, l)
        if shifted:
            rot = np.roll(mix_even_rows(np.roll(rot, -1, axis=0), math.cos(phi), math.sin(phi)), 1, axis=0)
        else:
            rot = mix_even_rows(rot, math.cos(phi), math.sin(phi))
    return rot


def su2_tree(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ordered product over axis 0 of SU(2) blocks [[a, -conj(b)], [b, conj(a)]].

    Pairwise (tree) reduction, highest index ending up leftmost; odd leftovers
    are folded in at the end of each level.
    """
    while a.shape[0] > 1:
        if a.shape[0] % 2:
            ta, tb = a[-1:], b[-1:]
            a, b = a[:-1], b[:-1]
        else:
            ta = None
        a2, a1, b2, b1 = a[1::2], a[0::2], b[1::2], b[0::2]
        a = a2 * a1 - np.conj(b2) * b1
        b = b2 * a1 + np.conj(a2) * b1
        if ta is not None:
            a = np.concatenate([a, ta])
            b = np.concatenate([b, tb])
    return a[0], b[0]


def half_spectrum_products(
    params: IsingParams, schedule: TrotterSchedule
) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) of the per-momentum products at k = 0..N/2, chunked as ``adiabatic`` chunks them."""
    n, steps = params.n_spins, schedule.steps
    q = 2.0 * np.pi * np.arange(n // 2 + 1) / n
    beta = 2.0 * params.field_b * schedule.delta
    cb, sb = math.cos(beta), math.sin(beta)
    phase_up = np.exp(1j * q)

    acc_a = np.ones(q.size, dtype=complex)
    acc_b = np.zeros(q.size, dtype=complex)
    chunk = adiabatic._chunk_blocks(q.size, 1)
    for start in range(0, steps + 1, chunk):
        if steps:
            taus = 2.0 * np.arange(start, min(start + chunk, steps + 1)) * schedule.delta / steps
        else:
            taus = np.zeros(1)
        phi = params.coupling_j * taus
        c, s = np.cos(phi)[:, None], np.sin(phi)[:, None]
        step_a = c * cb + (s * sb) * phase_up.conj()[None, :]
        step_b = (s * cb) * phase_up[None, :] - c * sb
        ch_a, ch_b = su2_tree(step_a, step_b)
        acc_a, acc_b = ch_a * acc_a - np.conj(ch_b) * acc_b, ch_b * acc_a + np.conj(ch_a) * acc_b
        norm = np.sqrt(np.abs(acc_a) ** 2 + np.abs(acc_b) ** 2)
        acc_a /= norm
        acc_b /= norm
    return acc_a, acc_b


def gather_rotation(acc_a: np.ndarray, acc_b: np.ndarray) -> np.ndarray:
    """The 2N x 2N rotation from the half-spectrum products (a, b) at k = 0..N/2.

    R[2j+a, 2l+b] = cells[(j - l) mod N, a, b] for cells the inverse FFT of the
    2x2 blocks over all N momenta, read through an explicit offset table.
    """
    half = acc_a.size
    n = 2 * (half - 1)
    blocks = np.empty((n, 2, 2), dtype=complex)
    blocks[:half, 0, 0] = acc_a
    blocks[:half, 0, 1] = -np.conj(acc_b)
    blocks[:half, 1, 0] = acc_b
    blocks[:half, 1, 1] = np.conj(acc_a)
    blocks[half:] = np.conj(blocks[half - 2:0:-1])
    cells = np.fft.ifft(blocks, axis=0)
    offset = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return cells.real[offset].transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)
