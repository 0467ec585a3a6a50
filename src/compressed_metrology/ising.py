"""Closed-form results for the transverse-field Ising chain.

Model:  H = -J sum_j X_j X_{j+1} - B sum_j Z_j  on N spins, with the
Jordan-Wigner wrapped bond X_N = Ztilde X_0 so that fermion momenta are
xi_j = 2*pi*j/N.  Everything below refers to the even-parity ground-state
branch, i.e. the state adiabatic evolution from |0..0> actually prepares:
the unpaired modes j = 0 and j = N/2 stay empty for every g, which keeps
these curves smooth across the transition at g = B/J = 1.

All curves are functions of g alone.  Mode-sum accumulations use math.fsum
(exactly rounded, so results are platform independent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def check_curve_size(n_spins: int) -> None:
    # The compression stack needs N = 2^m, but the closed forms only need the
    # momentum grid to contain the modes 0, 1 and N/2: any even N >= 4 works.
    if n_spins < 4 or n_spins % 2:
        raise ValueError(f"mode-1 observables need even N >= 4, got {n_spins}")


@dataclass(frozen=True)
class IsingParams:
    """Chain size N, transverse field B and coupling J of one chain.

    The closed-form curves below take g = B/J as their argument instead.
    """

    n_spins: int
    field_b: float
    coupling_j: float

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.n_spins) or self.n_spins < 2:
            raise ValueError(f"n_spins must be a power of two >= 2, got {self.n_spins}")
        if not (math.isfinite(self.field_b) and math.isfinite(self.coupling_j)):
            raise ValueError("couplings must be finite")


def mode_xi(n_spins: int, j: int) -> float:
    return 2.0 * math.pi * j / n_spins


def _radicand(g: float, xi: float) -> float:
    # 1 + g^2 - 2 g cos(xi), written to avoid the cancellation at g ~ 1,
    # xi ~ 0 (the naive form loses ~half the digits for N ~ 2^20).
    return (1.0 - g) ** 2 + 4.0 * g * math.sin(0.5 * xi) ** 2


def _modes(g: float, n_spins: int):
    """(sin xi_j, cos xi_j, r_j^2) of the paired modes j = 1..N/2-1 in turn; checks N first."""
    check_curve_size(n_spins)
    for j in range(1, n_spins // 2):
        xi = mode_xi(n_spins, j)
        yield math.sin(xi), math.cos(xi), _radicand(g, xi)


# ---------------------------------------------------------------------------
# Fourier-mode occupation  B = b_1^dag b_1
# ---------------------------------------------------------------------------

def expected_b(g: float, n_spins: int) -> float:
    """Ground-state occupation of the k=1 Fourier mode, (1 - cos theta_1)/2."""
    _, c, r2 = next(_modes(g, n_spins))
    return 0.5 * (1.0 + (c - g) / math.sqrt(r2))


def expected_b_derivative(g: float, n_spins: int) -> float:
    """d<B>/dg = -sin^2(xi_1) / (2 r^3); strictly negative, ~ -N/(4 pi) at g=1."""
    s, _, r2 = next(_modes(g, n_spins))
    return -s ** 2 / (2.0 * r2 ** 1.5)


def variance_b(g: float, n_spins: int) -> float:
    """Var B = sin^2(xi_1) / (4 r^2); equals <B>(1 - <B>) since B is a projector."""
    s, _, r2 = next(_modes(g, n_spins))
    return s ** 2 / (4.0 * r2)


# ---------------------------------------------------------------------------
# Average magnetization  M = (1/N) sum_j Z_j
# ---------------------------------------------------------------------------

def expected_m(g: float, n_spins: int) -> float:
    """<M> = (2/N) [1 + sum_{j=1}^{N/2-1} (g - cos xi_j)/r_j] on the even branch."""
    total = math.fsum((g - c) / math.sqrt(r2) for _, c, r2 in _modes(g, n_spins))
    return 2.0 / n_spins * (1.0 + total)


def expected_m_derivative(g: float, n_spins: int) -> float:
    """d<M>/dg = (2/N) sum_j sin^2(xi_j)/r_j^3; positive.

    At g = 1 it grows like (ln N + gamma + ln(2/pi) - 1)/pi, with gamma the
    Euler-Mascheroni constant (to 4 digits for N >= 2^8).
    """
    total = math.fsum(s ** 2 / r2 ** 1.5 for s, _, r2 in _modes(g, n_spins))
    return 2.0 / n_spins * total


def variance_m(g: float, n_spins: int) -> float:
    """Var M = (4/N^2) sum_{j=1}^{N/2-1} sin^2(xi_j)/r_j^2 on the even branch.

    M = 1 - 2 n/N for n fermions; each pair (j, -j) holds 0 or 2 of them, a
    number of variance sin^2(theta_j) = sin^2(xi_j)/r_j^2, and the unpaired
    modes stay empty.  A closed form with a leading 1 inside the sum, 4/N^2
    above this, is sometimes quoted: it does not vanish in the product state
    g -> infinity, and the dense oracle rules it out (3x the exact value at
    N = 4, g = 1).
    """
    total = math.fsum(s ** 2 / r2 for s, _, r2 in _modes(g, n_spins))
    return 4.0 / n_spins**2 * total


# ---------------------------------------------------------------------------
# Quantum Fisher information
# ---------------------------------------------------------------------------

def qfi(g: float, n_spins: int) -> float:
    """QFI of the even-branch ground state w.r.t. g: sum_{j=1}^{N/2-1} sin^2(xi_j)/r_j^4.

    Each paired mode is a two-level state rotated by its Bogoliubov angle, and
    contributes (d theta_j/dg)^2 = sin^2(xi_j)/r_j^4; the unpaired modes stay
    empty.  ``dense.qfi_pure`` is its oracle.
    """
    return math.fsum(s ** 2 / r2 ** 2 for s, _, r2 in _modes(g, n_spins))
