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


@dataclass(frozen=True)
class PrecisionPoint:
    n_spins: int
    g: float
    variance: float
    derivative: float
    delta_g_sq: float
    shots: int


@dataclass(frozen=True)
class ScalingFit:
    observable: str
    n_values: tuple[int, ...]
    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class GEstimate:
    g_hat: float
    std_error: float
    b_hat: float
    shots: int
    clamped: bool


def error_propagation(variance: float, derivative: float) -> float:
    """delta g^2 = Var[A] / |d<A>/dg|^2 for one shot."""
    if derivative == 0.0:
        raise ValueError("zero derivative: g is not identifiable from this observable here")
    if variance < 0.0:
        raise ValueError("variance must be nonnegative")
    return variance / derivative**2


def precision_b(g: float, n_spins: int, shots: int = 1) -> PrecisionPoint:
    """Single-shot-divided precision of the Fourier-mode occupation estimator."""
    var = ising.variance_b(g, n_spins)
    deriv = ising.expected_b_derivative(g, n_spins)
    return PrecisionPoint(n_spins, g, var, deriv, error_propagation(var, deriv) / shots, shots)


def precision_m(g: float, n_spins: int, shots: int = 1) -> PrecisionPoint:
    """Same for the magnetization, which loses the 1/N^2 Heisenberg scaling.

    At g = 1, delta_g^2 -> pi^2/(N ln^2 N) (see ``ising.expected_m_derivative``).
    """
    var = ising.variance_m(g, n_spins)
    deriv = ising.expected_m_derivative(g, n_spins)
    return PrecisionPoint(n_spins, g, var, deriv, error_propagation(var, deriv) / shots, shots)


def fit_power_law(sizes: Sequence[int], values: Sequence[float],
                  observable: str = "synthetic") -> ScalingFit:
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
    return ScalingFit(observable, tuple(int(n) for n in sizes),
                      float(slope), float(intercept), r_squared)


def fit_scaling(observable: str, g: float, n_list: Sequence[int], shots: int = 1) -> ScalingFit:
    """Slope of log delta-g^2 against log N for one of the two observables."""
    if observable not in ("B", "M"):
        raise ValueError("observable must be 'B' or 'M'")
    point = precision_b if observable == "B" else precision_m
    values = [point(g, n, shots).delta_g_sq for n in n_list]
    return fit_power_law(n_list, values, observable=observable)


def magnetization_flatness(g: float, n_list: Sequence[int]) -> float:
    """Midrange deviation of delta_g^2 * N * ln^2 N for M over ``n_list``.

    At g = 1 the product tends to pi^2, so its spread over a window of sizes
    measures how closely M follows the 1/(N ln^2 N) law there.
    """
    flat = [precision_m(g, n).delta_g_sq * n * math.log(n) ** 2 for n in n_list]
    mid = 0.5 * (max(flat) + min(flat))
    return (max(flat) - mid) / mid


def invert_expected_b(
    b_value: float,
    n_spins: int,
    window: tuple[float, float] = (0.5, 1.5),
    tol: float = 1e-12,
) -> tuple[float, bool]:
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
    while b - a > tol:
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


def estimate_counts(
    counts: Sequence[int] | np.ndarray,
    shots: int,
    n_spins: int,
    window: tuple[float, float] = (0.5, 1.5),
    tol: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray]:
    """``estimate_g``'s (g_hat, clamped) per repetition from its count of +1 outcomes,
    inverting the calibration curve once per distinct count."""
    counts = np.asarray(counts, dtype=np.int64).tolist()
    if shots < 1 or not all(0 <= k <= shots for k in counts):
        raise ValueError(f"counts must lie in [0, shots] with shots >= 1, got shots={shots}")
    inverted = {k: invert_expected_b(_b_hat(k, shots), n_spins, window, tol) for k in set(counts)}
    return (np.array([inverted[k][0] for k in counts], dtype=float),
            np.array([inverted[k][1] for k in counts], dtype=bool))


def estimate_g(
    samples: Sequence[int] | np.ndarray,
    n_spins: int,
    window: tuple[float, float] = (0.5, 1.5),
    tol: float = 1e-12,
) -> GEstimate:
    """Invert the calibration curve g -> <B>(g, N) at the shot mean.

    Samples are +-1 outcomes of Y on the probe, so the occupation estimate is
    b_hat = (1 - mean)/2.  A mean outside the attainable range is clamped to
    the nearer window edge and flagged.  The reported standard error is the
    plug-in error-propagation value.
    """
    samples = np.asarray(samples)
    if samples.size == 0:
        raise ValueError("need at least one sample")
    if not np.all(np.abs(samples) == 1):
        raise ValueError("samples must be +-1 valued")
    shots = int(samples.size)
    b_hat = _b_hat(int(np.count_nonzero(samples == 1)), shots)
    g_hat, clamped = invert_expected_b(b_hat, n_spins, window, tol)
    deriv = ising.expected_b_derivative(g_hat, n_spins)
    std_error = math.sqrt(max(b_hat * (1.0 - b_hat), 0.0) / shots) / abs(deriv)
    return GEstimate(g_hat=g_hat, std_error=std_error, b_hat=b_hat,
                     shots=shots, clamped=clamped)


def cramer_rao(qfi: float, shots: int = 1) -> float:
    """Quantum Cramer-Rao lower bound 1/(nu * QFI) on delta g^2."""
    if qfi <= 0.0:
        raise ValueError("QFI must be positive")
    if shots < 1:
        raise ValueError("need at least one shot")
    return 1.0 / (shots * qfi)
