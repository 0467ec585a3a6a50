"""Digital-adiabatic schedule and the compressed SO(2N) rotation product.

The N-spin Trotterized adiabatic evolution U = prod_{l=0..L} U0(B) U1(J, l)
compresses to the 2N x 2N real rotation

    R(B, J) = prod_{l=0..L} R1(J, l) R0(B),        applied l = 0 first,
    R0(B)   = exp(4 B Delta h0),                   h0 = (1/2) 1_N (x) iY,
    R1(J,l) = exp(2 J tau(l) h1),                  h1 = A h0 A^T,

where A is the cyclic shift on the 2N Majorana labels, Delta = T/(L+1) and
tau(l) = 2 l Delta / L (so sum_l tau(l) = T, the physical interaction time).
Within a step R0 acts first; both conventions and the overall exponent signs
are pinned against the dense spin-space oracle.

Both Trotter layers are translation covariant under shifting Majorana cells,
so the whole product block-diagonalizes per momentum into 2x2 unitaries, and
momentum N - k is the conjugate of momentum k.  ``adiabatic_rotation``
multiplies the steps of momenta 0..N/2 in cache-sized chunks and undoes the
Fourier transform with one inverse FFT over the 2x2 blocks; this is the only
product path, written through ``out=`` buffers allocated once per call.
``momentum_b`` runs the same product at the one momentum 2 pi / N that the
protocol's <B> lives in.  The test suite keeps the step-by-step product of the
2N x 2N rotations and the allocating per-momentum product, which this one
equals bit for bit, as oracles.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .ising import IsingParams

# (step, mode) entries per chunk of the streamed product: each complex step
# array is 1 MB whatever N and L are, so a chunk's tree stays in cache.
_CHUNK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class TrotterSchedule:
    """Total time T and step count L; Delta = T/(L+1), tau(l) = 2 l Delta / L."""

    total_time: float
    steps: int

    def __post_init__(self) -> None:
        if self.total_time <= 0.0:
            raise ValueError(f"total_time must be positive, got {self.total_time}")
        if self.steps < 0:
            raise ValueError(f"steps must be nonnegative, got {self.steps}")

    @property
    def delta(self) -> float:
        return self.total_time / (self.steps + 1)

    def taus(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """tau(l) for l = start..stop-1, by default 0..L; tau(0) = 0, also at L = 0."""
        stop = self.steps + 1 if stop is None else stop
        return 2.0 * np.arange(start, stop) * self.delta / max(self.steps, 1)


def build_schedule(
    n_spins: int,
    total_time: float | None = None,
    steps: int | None = None,
    *,
    step_cap: int = 10**6,
    error_budget: float | None = None,
) -> TrotterSchedule:
    """Schedule with desk-scale defaults T = 10 N^2 and L = min(N^5, step_cap).

    The asymptotically sufficient choice L ~ N^5 is infeasible beyond toy
    sizes, hence the cap; when ``error_budget`` is given, a warning is raised
    if the Trotter proxy L Delta^2 exceeds it so the bias is never silent.
    A proxy that is not finite raises ValueError, before any warning.
    """
    if total_time is None:
        total_time = 10.0 * n_spins**2
    if steps is None:
        steps = min(n_spins**5, step_cap)
    if total_time <= 0.0 or steps <= 0:
        raise ValueError(
            f"schedule needs positive total_time and steps, got T={total_time}, L={steps}")
    schedule = TrotterSchedule(total_time=float(total_time), steps=int(steps))
    proxy = trotter_error_bound(schedule)
    if math.isinf(proxy):
        raise ValueError(f"the Trotter proxy L*Delta^2 is not finite at N={n_spins}, "
                         f"T={schedule.total_time}, L={schedule.steps}")
    if error_budget is not None and proxy > error_budget:
        warnings.warn(
            f"Trotter proxy L*Delta^2 = {proxy:.3g} exceeds "
            f"the error budget {error_budget:.3g}; increase L or lower T",
            stacklevel=2,
        )
    return schedule


def trotter_error_bound(schedule: TrotterSchedule) -> float:
    """The discretization-error proxy L * Delta^2 (a comparable scale, not a bound constant).

    It is inf where it leaves the float range.
    """
    try:
        return schedule.steps * schedule.delta**2
    except OverflowError:  # Delta^2 alone; a product past the range is inf already
        return math.inf


def _su2_tree(
    a: np.ndarray, b: np.ndarray, half_a: np.ndarray, half_b: np.ndarray, scratch: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ordered product over axis 0 of SU(2) blocks [[a, -conj(b)], [b, conj(a)]].

    Pairwise (tree) reduction: one vectorized pass per level, highest index
    ending up leftmost.  Odd leftovers are folded in at the end of each level.
    Level 1 writes into ``half_a``/``half_b`` (ceil(rows/2) rows), later levels
    ping-pong between those and the overwritten ``a``/``b``, and ``scratch``
    holds one operand; the ufuncs and operands are those of the plain
    a2 a1 - conj(b2) b1, b2 a1 + conj(a2) b1, so the bits are too.
    """
    src_a, src_b, dst_a, dst_b = a, b, half_a, half_b
    while src_a.shape[0] > 1:
        rows = src_a.shape[0]
        half = rows // 2
        a2, a1 = src_a[1:2 * half:2], src_a[0:2 * half:2]
        b2, b1 = src_b[1:2 * half:2], src_b[0:2 * half:2]
        out_a, out_b, tmp = dst_a[:half], dst_b[:half], scratch[:half]
        # A multiply never writes over its own input: numpy takes another
        # (non-FMA) loop for that, which changes the last bit.
        np.multiply(a2, a1, out=out_a)
        np.multiply(np.conjugate(b2, out=tmp), b1, out=out_b)
        np.subtract(out_a, out_b, out=out_a)
        np.multiply(np.conjugate(a2, out=tmp), b1, out=out_b)
        np.add(np.multiply(b2, a1, out=tmp), out_b, out=out_b)
        if rows % 2:
            dst_a[half], dst_b[half] = src_a[-1], src_b[-1]
            half += 1
        src_a, src_b, dst_a, dst_b = dst_a[:half], dst_b[:half], src_a, src_b
    return src_a[0], src_b[0]


def _momentum_products(
    params: IsingParams, schedule: TrotterSchedule, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) of the ordered SU(2) products [[a, -conj(b)], [b, conj(a)]] at each momentum q.

    Momentum q sees the step Ghat_odd(q, phi_l) Ghat_even(beta).  The steps
    are streamed in chunks of about _CHUNK_ENTRIES (step, mode) entries, each
    reduced by a pairwise tree and folded into the running product.  The step
    arrays and the tree's level buffers are allocated once per call.
    """
    steps = schedule.steps
    beta = 2.0 * params.field_b * schedule.delta
    cb, sb = math.cos(beta), math.sin(beta)
    phase_up = np.exp(1j * q)
    phase_down = phase_up.conj()

    acc_a = np.ones(q.size, dtype=complex)
    acc_b = np.zeros(q.size, dtype=complex)
    chunk = max(1, _CHUNK_ENTRIES // q.size)
    rows = min(chunk, steps + 1)
    step_a, step_b = (np.empty((rows, q.size), dtype=complex) for _ in range(2))
    half_a, half_b, scratch = (np.empty(((rows + 1) // 2, q.size), dtype=complex)
                               for _ in range(3))
    for start in range(0, steps + 1, chunk):
        phi = params.coupling_j * schedule.taus(start, min(start + chunk, steps + 1))
        c, s = np.cos(phi)[:, None], np.sin(phi)[:, None]
        # step = G_odd(q, phi) @ G_even(beta) in (a, b) components:
        # a = c cb + (s sb) conj(e^{iq}),  b = (s cb) e^{iq} - c sb
        ch_a, ch_b = step_a[:phi.size], step_b[:phi.size]
        np.add(c * cb, np.multiply(s * sb, phase_down, out=ch_a), out=ch_a)
        np.subtract(np.multiply(s * cb, phase_up, out=ch_b), c * sb, out=ch_b)
        ch_a, ch_b = _su2_tree(ch_a, ch_b, half_a, half_b, scratch)
        acc_a, acc_b = ch_a * acc_a - np.conj(ch_b) * acc_b, ch_b * acc_a + np.conj(ch_a) * acc_b
        # The (a, b) form is exactly unitary iff |a|^2 + |b|^2 = 1, so a cheap
        # renormalization per chunk stops roundoff drift over ~1e8 factors.
        norm = np.sqrt(np.abs(acc_a) ** 2 + np.abs(acc_b) ** 2)
        acc_a /= norm
        acc_b /= norm
    return acc_a, acc_b


def momentum_b(params: IsingParams, schedule: TrotterSchedule) -> float:
    """<B> of the protocol from the one SU(2) product U at q = 2 pi / N, in O(L) at any N.

    The probe state |Phi> is a k = 1 plane wave and both Trotter layers are
    cell-circulant, so R^T|Phi> stays in the two-dimensional k = 1 sector:
    this is the circuit restricted to that subspace, not an approximation.
    With U = [[a, -conj(b)], [b, conj(a)]] and chi = (1, i)/sqrt(2),
    <B> = (1 - <chi|U^dag Y U|chi>)/2 = (1 - Re(a^2 + b^2))/2.
    """
    a, b = _momentum_products(params, schedule, np.array([2.0 * np.pi / params.n_spins]))
    return float(0.5 * (1.0 - (a[0] * a[0] + b[0] * b[0]).real))


def adiabatic_rotation(params: IsingParams, schedule: TrotterSchedule) -> np.ndarray:
    """Ordered product prod_{l=0..L} R1(J, l) R0(B), step l = 0 applied first.

    Evaluated per momentum (half spectrum) and transformed back to the real
    2N x 2N rotation.
    """
    n = params.n_spins
    # (a, b) of the per-momentum products at q_k = 2 pi k / N, k = 0..N/2
    acc_a, acc_b = _momentum_products(params, schedule, 2.0 * np.pi * np.arange(n // 2 + 1) / n)
    half = acc_a.size
    blocks = np.empty((n, 2, 2), dtype=complex)
    blocks[:half, 0, 0] = acc_a
    blocks[:half, 0, 1] = -np.conj(acc_b)
    blocks[:half, 1, 0] = acc_b
    blocks[:half, 1, 1] = np.conj(acc_a)
    # Real step angles: momentum N - k (q -> -q) is the conjugate of momentum k.
    blocks[half:] = np.conj(blocks[half - 2:0:-1])

    # Back-transform: R[2j+a, 2l+b] = (1/N) sum_k e^{i q_k (j - l)} blocks[k, a, b]
    # is block circulant, so it is the inverse FFT of the blocks read at (j - l) mod N.
    cells = np.fft.ifft(blocks, axis=0)
    if np.abs(cells.imag).max() > 1e-10:
        raise AssertionError("momentum reconstruction produced a non-real rotation")
    offset = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return cells.real[offset].transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)
