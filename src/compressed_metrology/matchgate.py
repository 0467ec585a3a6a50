"""Matchgate compression engine on the 2N Majorana labels.

A product of nearest-neighbour matchgates U = exp(-iH), H = i sum h_{jk} x_j x_k
with h real antisymmetric, acts on the generators as U^dag x_j U = sum_k R_{jk} x_k
with R = exp(4h) in SO(2N).  The only observable evaluated on R is a single
mode's occupation c^dag c with c = sum_l a_l x_l, a rank-one quadratic form.
In U|0..0>, whose vacuum covariance is S = 1_N (x) iY, it needs w = R^T a only:

    <c^dag c> = |a|^2 + i conj(w)^T S w = |a|^2 - 2 Im sum_j conj(w_{2j}) w_{2j+1}.
"""

from __future__ import annotations

import numpy as np

# assert_rotation's bounds on max|R R^T - 1| and on |log det R|.
_ORTHO_TOL = 1e-10
_DET_TOL = 1e-8


def _check_even_square(mat: np.ndarray, name: str) -> int:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2:
        raise ValueError(f"{name} must be square with even dimension, got {mat.shape}")
    return mat.shape[0]


def assert_rotation(rot: np.ndarray) -> None:
    """Raise unless rot is special orthogonal within _ORTHO_TOL and _DET_TOL."""
    dim = _check_even_square(rot, "rotation")
    defect = np.abs(rot @ rot.T - np.eye(dim)).max()
    if defect >= _ORTHO_TOL:
        raise ValueError(f"orthogonality defect {defect:.3e} >= {_ORTHO_TOL:.1e}")
    sign, logdet = np.linalg.slogdet(rot)
    if sign <= 0 or abs(logdet) > _DET_TOL:
        raise ValueError(f"determinant not +1 (sign {sign}, |log det| {abs(logdet):.3e})")


def expectation_quadratic(rot: np.ndarray, mode: np.ndarray) -> float:
    """<c^dag c> for c = sum_l mode_l x_l in the evolved vacuum, real by construction.

    R^T acts on the real and imaginary parts of ``mode`` separately, so the
    real R is never cast to complex.
    """
    dim = _check_even_square(rot, "rotation")
    mode = np.asarray(mode, dtype=complex)
    if mode.shape != (dim,):
        raise ValueError(f"dimension mismatch: rotation {dim}, mode {mode.shape}")
    w = rot.T @ mode.real + 1j * (rot.T @ mode.imag)
    return float(np.vdot(mode, mode).real - 2.0 * np.vdot(w[0::2], w[1::2]).imag)


def observable_b_coefficients(n_spins: int) -> np.ndarray:
    """Majorana coefficients a of the k=1 Fourier mode b_1 = sum_l a_l x_l.

    a_{2j} = exp(i 2 pi j/N)/(2 sqrt N) and a_{2j+1} = i a_{2j}, so that
    |a|^2 = 1/2 and b_1^dag b_1 has the coefficients conj(a_l) a_m.
    """
    if n_spins < 4 or n_spins & (n_spins - 1):
        raise ValueError(f"need N a power of two >= 4, got {n_spins}")
    phases = np.exp(2j * np.pi * np.arange(n_spins) / n_spins) / (2.0 * np.sqrt(n_spins))
    mode = np.empty(2 * n_spins, dtype=complex)
    mode[0::2] = phases
    mode[1::2] = 1j * phases
    return mode
