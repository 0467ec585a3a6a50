"""Precision layer: error propagation, scaling fits, and moment estimation of g.

The estimator is calibration-curve inversion of the shot mean (method of
moments): its asymptotic variance is exactly the error-propagation ratio
Var[A] / (nu |d<A>/dg|^2), which is what the scaling statements quantify.
A shot mean is fixed by its count of +1 outcomes, so ``estimate_counts``
inverts the curve once per distinct count over a batch of repetitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import ising

# Bisection on the calibration curve stops once its bracket on g is this narrow.
_BISECTION_TOL = 1e-12


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class GEstimate:
    g_hat: float
    clamped: bool


def error_propagation(variance: float, derivative: float) -> float:
    """delta g^2 = Var[A] / |d<A>/dg|^2 for one shot; it must be finite.

    Past |g| ~ 1e51 a nonzero derivative squares to 0, or to a subnormal
    that the ratio overflows.
    """
    if variance < 0.0:
        raise ValueError("variance must be nonnegative")
    square = derivative**2
    if not (square and math.isfinite(variance / square)):
        raise ValueError(f"g is not identifiable from this observable here: delta g^2 = "
                         f"{variance:.3g} / ({derivative:.3g})^2 is not finite")
    return variance / square


def precision_b(g: float, n_spins: int, shots: int = 1) -> float:
    """delta g^2 over ``shots`` shots of the Fourier-mode occupation."""
    return error_propagation(ising.variance_b(g, n_spins),
                             ising.expected_b_derivative(g, n_spins)) / shots


def precision_m(g: float, n_spins: int, shots: int = 1) -> float:
    """Same for the magnetization, which loses the 1/N^2 Heisenberg scaling.

    At g = 1, delta_g^2 -> pi^2/(N ln^2 N) (see ``ising.expected_m_derivative``).
    """
    return error_propagation(ising.variance_m(g, n_spins),
                             ising.expected_m_derivative(g, n_spins)) / shots


def fit_power_law(sizes: Sequence[int], values: Sequence[float]) -> ScalingFit:
    """Least-squares fit of log(values) against log(sizes)."""
    if len(sizes) < 2 or len(set(sizes)) != len(sizes):
        raise ValueError("need at least two distinct sizes")
    if len(sizes) != len(values):
        raise ValueError("sizes and values must pair up")
    x = np.log([float(n) for n in sizes])
    y = np.log(np.asarray(values, dtype=float))
    if np.ptp(x) == 0.0:
        raise ValueError("degenerate fit: all sizes equal")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - y.mean()
    ss_tot = float(total @ total)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - float(resid @ resid) / ss_tot
    return ScalingFit(float(slope), float(intercept), r_squared)


def magnetization_flatness(g: float, n_list: Sequence[int]) -> float:
    """Midrange deviation of delta_g^2 * N * ln^2 N for M over ``n_list``.

    At g = 1 the product tends to pi^2, so its spread over a window of sizes
    measures how closely M follows the 1/(N ln^2 N) law there.
    """
    flat = [precision_m(g, n) * n * math.log(n) ** 2 for n in n_list]
    mid = 0.5 * (max(flat) + min(flat))
    return (max(flat) - mid) / mid


def invert_expected_b(b_value: float, n_spins: int,
                      window: tuple[float, float] = (0.5, 1.5)) -> tuple[float, bool]:
    """Solve <B>(g, N) = b_value for g on the window by bisection.

    The curve is strictly decreasing in g, so the root is unique; values
    outside the attainable range are clamped to the nearer window edge.
    Returns (g, clamped).
    """
    lo, hi = window
    if not lo < hi:
        raise ValueError("empty search window")
    if b_value >= ising.expected_b(lo, n_spins):
        return lo, b_value > ising.expected_b(lo, n_spins)
    if b_value <= ising.expected_b(hi, n_spins):
        return hi, b_value < ising.expected_b(hi, n_spins)
    a, b = lo, hi
    while b - a > _BISECTION_TOL:
        mid = 0.5 * (a + b)
        if ising.expected_b(mid, n_spins) > b_value:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b), False


def _b_hat(count: int, shots: int) -> float:
    """(1 - mean)/2 for ``count`` +1 outcomes among ``shots`` +-1 samples; the +-1 sum
    2 count - shots is an exact integer, so these are the bits of the shot mean's."""
    return 0.5 * (1.0 - float(2 * count - shots) / shots)


def estimate_counts(counts: Sequence[int] | np.ndarray, shots: int, n_spins: int,
                    window: tuple[float, float] = (0.5, 1.5)) -> tuple[np.ndarray, np.ndarray]:
    """``estimate_g``'s (g_hat, clamped) per repetition from its count of +1 outcomes,
    inverting the calibration curve once per distinct count."""
    counts = np.asarray(counts, dtype=np.int64).tolist()
    if shots < 1 or not all(0 <= k <= shots for k in counts):
        raise ValueError(f"counts must lie in [0, shots] with shots >= 1, got shots={shots}")
    inverted = {k: invert_expected_b(_b_hat(k, shots), n_spins, window) for k in set(counts)}
    return (np.array([inverted[k][0] for k in counts], dtype=float),
            np.array([inverted[k][1] for k in counts], dtype=bool))


def estimate_g(samples: Sequence[int] | np.ndarray, n_spins: int,
               window: tuple[float, float] = (0.5, 1.5)) -> GEstimate:
    """Invert the calibration curve g -> <B>(g, N) at the shot mean.

    Samples are +-1 outcomes of Y on the probe, so the occupation estimate is
    b_hat = (1 - mean)/2.  A mean outside the attainable range is clamped to
    the nearer window edge and flagged.
    """
    samples = np.asarray(samples)
    if samples.size == 0:
        raise ValueError("need at least one sample")
    if not np.all(np.abs(samples) == 1):
        raise ValueError("samples must be +-1 valued")
    b_hat = _b_hat(int(np.count_nonzero(samples == 1)), int(samples.size))
    g_hat, clamped = invert_expected_b(b_hat, n_spins, window)
    return GEstimate(g_hat=g_hat, clamped=clamped)


def cramer_rao(qfi: float, shots: int = 1) -> float:
    """Quantum Cramer-Rao lower bound 1/(nu * QFI) on delta g^2."""
    if qfi <= 0.0:
        raise ValueError("QFI must be positive")
    if shots < 1:
        raise ValueError("need at least one shot")
    return 1.0 / (shots * qfi)
