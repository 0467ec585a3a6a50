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
multiplies the steps of momenta 0..N/2 and undoes the Fourier transform with
one inverse FFT over the 2x2 blocks; the result is block circulant, and one
copy of a strided view of those N cells lays it out, so the back-transform
holds its output and O(N) more.  ``momentum_b`` runs the same product at the
one momentum 2 pi / N that the protocol's <B> lives in.

The product takes the steps in blocks of m.  A step at z = e^{iq} has
a = c cb + s sb z^-1 and b = s cb z - c sb, so the product of m steps is a
Laurent polynomial in z with real coefficients: powers -m..m-1 in a and
-m+1..m in b, 2m each.  Its values at m + 1 points of the 2m-point grid
e^{i pi j / m} fix it; one inverse real FFT of size 2m gives the
coefficients and one real FFT of length N their values at all N/2 + 1
momenta.  That costs m + 1 + (N/2 + 1)/m entries per step instead of
N/2 + 1, plus the FFTs; timed, the cheapest m is the largest power of two
with m^2 <= N + 2, 8 at N = 64 and 32 at N = 1024.  The FFTs move the last
bits, so one momentum and N <= 32, where that m is below 8, keep m = 1: each
step evaluated at q, the bits of the plain product.  Block values are streamed in chunks of about
_CHUNK_ENTRIES entries of the wider of a block's two rows, its N/2 + 1
momenta or its m (m + 1) grid values, through ``out=`` buffers allocated
once per call, so the product's working set, about 2.5 MB, grows with
neither N nor L; a chunk is stored so that each level of its pairwise tree
reads contiguous halves.
The test suite keeps the step-by-step product of the 2N x 2N rotations, the
allocating per-momentum product (equal bit for bit where m = 1), the
offset-table gather of the back-transform (equal byte for byte) and an
extended-precision product as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ising import IsingParams

# Entries of a block's wider row per chunk of the streamed product: each
# complex buffer is 512 KB whatever N and L are.  With the tree's three
# half-size buffers and the blocks' FFT rows a chunk's working set is about
# 2.5 MB (tracemalloc peak 2.3-2.7 MiB per call at N = 64..2048), near a 2 MB L2.
_CHUNK_ENTRIES = 1 << 15

# The default step: L + 1 = ceil(T / TROTTER_STEP) keeps Delta = T/(L+1) at or
# under it, which bounds the Trotter error whatever L is (Kovalsky et al.,
# PRL 131, 060602 (2023)).
TROTTER_STEP = 0.1


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
        if self.steps >= 2**53:  # tau(l) reads l as a float, exact up to 2^53
            raise ValueError(f"L + 1 must be at most 2^53, got L={self.steps}")

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
    step_cap: int | None = None,
) -> TrotterSchedule:
    """Schedule with defaults T = 10 N^2 and the fewest L >= 1 with Delta <= TROTTER_STEP.

    ``step_cap``, if given, bounds that default L.  A default L + 1 over 2^53
    and a Trotter proxy L Delta^2 that is not finite raise ValueError.
    """
    if total_time is None:
        total_time = 10.0 * n_spins**2
    if steps is None:
        fewest = total_time / TROTTER_STEP
        if fewest > 2**53:
            raise ValueError(f"the default schedule at N={n_spins}, T={float(total_time)} "
                             f"needs L + 1 = {fewest:.4g} steps, more than 2^53")
        steps = max(math.ceil(fewest), 2) - 1
        if step_cap is not None:
            steps = min(steps, step_cap)
    if total_time <= 0.0 or steps <= 0:
        raise ValueError(
            f"schedule needs positive total_time and steps, got T={total_time}, L={steps}")
    schedule = TrotterSchedule(total_time=float(total_time), steps=int(steps))
    if math.isinf(steps * schedule.delta * schedule.delta):
        raise ValueError(f"the Trotter proxy L*Delta^2 is not finite at N={n_spins}, "
                         f"T={schedule.total_time}, L={schedule.steps}")
    return schedule


def _tree_layout(rows: int) -> np.ndarray:
    """Storage order of a chunk's steps under which each ``_su2_tree`` level reads two halves.

    P(1) = [0]; for rows = 2h + r and sigma = P(h + r)[:h], the order of the
    level's h pair products, P(rows) = [2 sigma, 2 sigma + 1] (+ [rows - 1] if r).
    """
    if rows == 1:
        return np.zeros(1, dtype=np.intp)
    half, odd = divmod(rows, 2)
    sigma = _tree_layout(half + odd)[:half]
    return np.concatenate([2 * sigma, 2 * sigma + 1, np.arange(rows - odd, rows)])


def _su2_tree(
    a: np.ndarray, b: np.ndarray, half_a: np.ndarray, half_b: np.ndarray, scratch: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ordered product over axis 0 of SU(2) blocks [[a, -conj(b)], [b, conj(a)]].

    Pairwise (tree) reduction of steps stored in ``_tree_layout`` order: each
    level multiplies its odd steps (second half) onto its even ones (first
    half), the highest step ending up leftmost, and an odd leftover stays last.
    Level 1 writes into ``half_a``/``half_b`` (ceil(rows/2) rows), later levels
    ping-pong between those and the overwritten ``a``/``b``, and ``scratch``
    holds one operand; the ufuncs and operands are those of the plain
    a2 a1 - conj(b2) b1, b2 a1 + conj(a2) b1, so the bits are too.
    """
    src_a, src_b, dst_a, dst_b = a, b, half_a, half_b
    while src_a.shape[0] > 1:
        rows = src_a.shape[0]
        half = rows // 2
        a2, a1 = src_a[half:2 * half], src_a[:half]
        b2, b1 = src_b[half:2 * half], src_b[:half]
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


def _block_size(modes: int) -> int:
    """Steps per block of the product at ``modes`` momenta: 1, or a power of two m >= 8.

    A block costs m + 1 grid entries and modes / m momentum entries per step,
    plus four real FFTs per block, two of length N.  Timed at L = 30000 and
    N = 64..4096, the cheapest power of two is the largest m with
    m^2 <= 2 modes.  Where that is below 8, for one momentum and N <= 32,
    the product keeps m = 1 and with it the bits of the plain product.
    """
    m = 1
    while (2 * m) ** 2 <= 2 * modes:
        m *= 2
    return m if m >= 8 else 1


def _block_width(modes: int, m: int) -> int:
    """Entries per block of a chunk's wider row: its values at the ``modes`` momenta
    or, for m > 1, the m (m + 1) grid values of its steps."""
    return modes if m == 1 else max(modes, m * (m + 1))


def _chunk_blocks(modes: int, m: int) -> int:
    """Blocks per chunk of the streamed product: _CHUNK_ENTRIES entries of its wider row."""
    return max(1, _CHUNK_ENTRIES // _block_width(modes, m))


def _steps(
    c: np.ndarray, s: np.ndarray, cb: float, sb: float, z: np.ndarray,
    out_a: np.ndarray, out_b: np.ndarray
) -> None:
    """(a, b) of the steps G_odd(q, phi) @ G_even(beta) at z = e^{iq}, c, s = cos, sin phi:
    a = c cb + (s sb) conj(z),  b = (s cb) z - c sb."""
    np.add(c * cb, np.multiply(s * sb, z.conj(), out=out_a), out=out_a)
    np.subtract(np.multiply(s * cb, z, out=out_b), c * sb, out=out_b)


def _interpolate(
    grid: np.ndarray, top: int, coef: np.ndarray, wrap: np.ndarray, out: np.ndarray
) -> None:
    """Write into ``out`` the values at z = e^{i q_k}, q_k = 2 pi k / N, k = 0..N/2, of real
    Laurent polynomials with powers top - 2m + 1..top, top = m - 1 or m.

    Row r of ``grid`` holds polynomial r at z_j = e^{i pi j / m}, j = 0..m:
    with real coefficients the other m - 1 points of the 2m-point grid are
    their conjugates, so these fix it.  An inverse real FFT of size 2m gives
    the coefficients, index t holding power -t mod 2m.  Placed at index
    -power mod N of ``wrap`` (2m <= N, so none collide), a real FFT of
    length N sums them into the values.  ``wrap`` has N columns and is zero
    outside -m..m mod N; its entries m and -m are the ones the two windows
    do not share, and are cleared here.
    """
    rows, m, n = grid.shape[0], grid.shape[1] - 1, wrap.shape[1]
    head = 2 * m - top  # powers 0, -1, .., 1 - head sit at indices 0..head-1
    np.fft.irfft(grid, n=2 * m, axis=-1, out=coef[:rows])
    wrap[:rows, m] = wrap[:rows, n - m] = 0.0
    wrap[:rows, :head] = coef[:rows, :head]
    wrap[:rows, n - 2 * m + head:] = coef[:rows, head:]
    np.fft.rfft(wrap[:rows], axis=-1, out=out)


def _block_values(
    phi: np.ndarray, pad: np.ndarray, cb: float, sb: float, grid: np.ndarray,
    out: tuple[np.ndarray, np.ndarray], flat: list[np.ndarray], coef: np.ndarray,
    wrap: np.ndarray
) -> None:
    """Write (a, b) at q_k = 2 pi k / N, k = 0..N/2, of each block of steps into ``out``.

    ``phi`` (m, blocks) holds the blocks' angles, rows in ``_tree_layout(m)``
    order; the last block's rows ``pad`` are identity steps (a = 1, b = 0).
    Each block's product is a Laurent polynomial in z with real coefficients,
    of powers -m..m-1 in a and -m+1..m in b: its pairwise tree runs on the
    grid z_j = e^{i pi j / m}, j = 0..m, and ``_interpolate`` takes it to the
    momenta.  The grid steps and their tree are views of the leading entries
    of ``flat``, the chunk's five buffers, sized by ``_block_width`` for the
    wider of a block's rows; ``out`` views the first two, but a's values are
    read before ``out[0]`` is written, and b's never sit in it.
    """
    m, count = phi.shape
    size = m * count * (m + 1)
    work = [buf[:size].reshape(m, count, m + 1) for buf in flat[:2]]
    halves = [buf[:size // 2].reshape(m // 2, count, m + 1) for buf in flat[2:]]
    _steps(np.cos(phi)[:, :, None], np.sin(phi)[:, :, None], cb, sb, grid, *work)
    work[0][pad, -1] = 1.0
    work[1][pad, -1] = 0.0
    for values, top, dest in zip(_su2_tree(*work, *halves), (m - 1, m), out):
        _interpolate(values, top, coef, wrap, dest)


def _momentum_products(
    params: IsingParams, schedule: TrotterSchedule, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) of the ordered SU(2) products [[a, -conj(b)], [b, conj(a)]] at each momentum q.

    q is one momentum or the half spectrum q_k = 2 pi k / N, k = 0..N/2.
    Momentum q sees the step Ghat_odd(q, phi_l) Ghat_even(beta).  The steps
    are taken in blocks of m = ``_block_size(q.size)``: with m = 1 a block's
    value is its step at q, with m > 1 it comes from ``_block_values``.  The
    block values are streamed in chunks of ``_chunk_blocks`` blocks, each
    reduced by a pairwise tree and folded into the running product.  The
    buffers and the tree's layout are made once per call.
    """
    n, steps, modes = params.n_spins, schedule.steps, q.size
    m = _block_size(modes)
    beta = 2.0 * params.field_b * schedule.delta
    cb, sb = math.cos(beta), math.sin(beta)
    # the steps' z = e^{iq}, or a block's grid z_j = e^{i pi j / m}, j = 0..m
    z = np.exp(1j * q) if m == 1 else np.exp(1j * np.pi * np.arange(m + 1) / m)

    acc_a = np.ones(modes, dtype=complex)
    acc_b = np.zeros(modes, dtype=complex)
    chunk = _chunk_blocks(modes, m)
    blocks = -(-(steps + 1) // m)
    rows = min(chunk, blocks)
    # Flat buffers as wide as a chunk's wider row; the chunk's (block, momentum)
    # entries and its blocks' grid values are views of their leading entries.
    width = _block_width(modes, m)
    flat = [np.empty(rows * width, dtype=complex) for _ in range(2)]
    flat += [np.empty((rows + 1) // 2 * width, dtype=complex) for _ in range(3)]
    step_a, step_b = (buf[:rows * modes].reshape(rows, modes) for buf in flat[:2])
    tree = [buf[:(rows + 1) // 2 * modes].reshape(-1, modes) for buf in flat[2:]]
    layout = _tree_layout(rows)
    if m > 1:
        inner = _tree_layout(m)
        coef, wrap = np.empty((rows, 2 * m)), np.zeros((rows, n))
    for first in range(0, blocks, chunk):
        count = min(chunk, blocks - first)
        if count < rows:  # the short last chunk
            layout = _tree_layout(count)
        start, stop = first * m, min((first + count) * m, steps + 1)
        ch_a, ch_b = step_a[:count], step_b[:count]
        if m == 1:
            phi = params.coupling_j * schedule.taus(start, stop)[layout]
            _steps(np.cos(phi)[:, None], np.sin(phi)[:, None], cb, sb, z, ch_a, ch_b)
        else:
            phi = np.zeros(count * m)
            phi[:stop - start] = params.coupling_j * schedule.taus(start, stop)
            # _tree_layout keeps the last block last; its rows past stop are padding
            pad = np.flatnonzero(inner >= stop - start - (count - 1) * m)
            _block_values(phi.reshape(count, m)[layout][:, inner].T, pad, cb, sb, z,
                          (ch_a, ch_b), flat, coef, wrap)
        ch_a, ch_b = _su2_tree(ch_a, ch_b, *tree)
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

    Evaluated per momentum (half spectrum, in blocks of steps from N = 64 on)
    and transformed back to the real 2N x 2N rotation.
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
    # Row j reads cells[j], cells[j - 1], ..: window j of the doubled-up cells,
    # reversed, so a strided view and one copy build R without an index table.
    cells = np.fft.ifft(blocks, axis=0)
    if np.abs(cells.imag).max() > 1e-10:
        raise AssertionError("momentum reconstruction produced a non-real rotation")
    ext = np.concatenate([cells.real[1:], cells.real])  # ext[t] = cells[(t - n + 1) mod n]
    view = np.lib.stride_tricks.sliding_window_view(ext, n, axis=0)
    return view[:, :, :, ::-1].transpose(0, 1, 3, 2).reshape(2 * n, 2 * n)
