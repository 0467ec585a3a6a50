"""Matchgate compression engine on the 2N Majorana labels.

A product of nearest-neighbour matchgates U = exp(-iH), H = i sum h_{jk} x_j x_k
with h real antisymmetric, acts on the generators as U^dag x_j U = sum_k R_{jk} x_k
with R = exp(4h) in SO(2N).  Expectations of quadratic observables in U|0..0>
then reduce to the vacuum covariance S = 1_N (x) iY:

    <0..0| U^dag (sum_{lm} b_{lm} x_l x_m) U |0..0> = sum_{lm} b_{lm} Gamma_{lm},
    Gamma = I + i R S R^T.
"""

from __future__ import annotations

import numpy as np


def _check_even_square(mat: np.ndarray, name: str) -> int:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2:
        raise ValueError(f"{name} must be square with even dimension, got {mat.shape}")
    return mat.shape[0]


# Rows per block of the Hermiticity check.
_HERMITIAN_BLOCK = 64


class QuadraticObservable:
    """Coefficient matrix b of a Hermitian quadratic form sum_{lm} b_{lm} x_l x_m."""

    def __init__(self, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=complex)
        dim = _check_even_square(coeffs, "coeffs")
        # b == b^dag within atol, elementwise as np.allclose tests it, one row
        # block against the matching columns at a time: no full-size copies.
        for lo in range(0, dim, _HERMITIAN_BLOCK):
            block = slice(lo, lo + _HERMITIAN_BLOCK)
            if not np.allclose(coeffs[block], coeffs[:, block].conj().T, atol=1e-12):
                raise ValueError("coefficient matrix must be Hermitian")
        self.coeffs = coeffs

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]


def assert_rotation(rot: np.ndarray, *, ortho_tol: float = 1e-10, det_tol: float = 1e-8) -> None:
    """Raise unless rot is special orthogonal within the stated tolerances."""
    dim = _check_even_square(rot, "rotation")
    defect = np.abs(rot @ rot.T - np.eye(dim)).max()
    if defect >= ortho_tol:
        raise ValueError(f"orthogonality defect {defect:.3e} >= {ortho_tol:.1e}")
    sign, logdet = np.linalg.slogdet(rot)
    if sign <= 0 or abs(logdet) > det_tol:
        raise ValueError(f"determinant not +1 (sign {sign}, |log det| {abs(logdet):.3e})")


def expectation_quadratic(rot: np.ndarray, obs: QuadraticObservable) -> float:
    """Re sum_{jk} b_{jk} Gamma_{jk}; the imaginary part must vanish (Hermitian b).

    Gamma = 1 + i K with K = (W - W^T)/2 real, W = R S R^T, and K_jj = 0, so
    b_jk Gamma_jk is -Im(b_jk) K_jk + i Re(b_jk) K_jk off the diagonal and
    b_jj on it.  Those products are written straight into one complex array,
    without forming Gamma, and summed as the elementwise product b * Gamma
    would be: the result has the same bits.
    """
    dim = _check_even_square(rot, "rotation")
    if dim != obs.dim:
        raise ValueError(f"dimension mismatch: rotation {dim}, observable {obs.dim}")
    shuffled = np.empty_like(rot)
    shuffled[:, 0::2] = -rot[:, 1::2]
    shuffled[:, 1::2] = rot[:, 0::2]
    gram = shuffled @ rot.T
    # K overwrites ``shuffled`` and W is dropped before ``terms`` exists, for peak memory.
    kern = np.subtract(gram, gram.T, out=shuffled)
    kern *= 0.5
    del gram
    terms = np.empty_like(obs.coeffs)
    np.negative(np.multiply(obs.coeffs.imag, kern, out=terms.real), out=terms.real)
    np.multiply(obs.coeffs.real, kern, out=terms.imag)
    terms.flat[::dim + 1] = np.diagonal(obs.coeffs)
    value = complex(np.sum(terms))
    if abs(value.imag) > 1e-10:
        raise AssertionError(f"quadratic expectation has imaginary part {value.imag:.3e}")
    return value.real


def observable_b_coefficients(n_spins: int) -> QuadraticObservable:
    """Majorana coefficients of the k=1 Fourier-mode occupation b_1^dag b_1.

    b_{2j,2k} = b_{2j+1,2k+1} = p_{jk}, b_{2j,2k+1} = i p_{jk},
    b_{2j+1,2k} = -i p_{jk} with p_{jk} = exp(i 2 pi (k-j)/N)/(4N).  The
    (2j+1, 2k+1) sector is required for Hermiticity and for the dense
    reconstruction to reproduce b_1^dag b_1 (and for the correct trace 1/2).
    """
    if n_spins < 4 or n_spins & (n_spins - 1):
        raise ValueError(f"need N a power of two >= 4, got {n_spins}")
    idx = np.arange(n_spins)
    phases = np.exp(2j * np.pi * (idx[None, :] - idx[:, None]) / n_spins) / (4.0 * n_spins)
    coeffs = np.empty((2 * n_spins, 2 * n_spins), dtype=complex)
    coeffs[0::2, 0::2] = phases
    coeffs[1::2, 1::2] = phases
    coeffs[0::2, 1::2] = 1j * phases
    coeffs[1::2, 0::2] = -1j * phases
    return QuadraticObservable(coeffs)
