"""Precision layer: error propagation, scaling fits, and moment estimation of g.

The estimator is calibration-curve inversion of the shot mean (method of
moments): its asymptotic variance is exactly the error-propagation ratio
Var[A] / (nu |d<A>/dg|^2), which is what the scaling statements quantify.
A shot mean is fixed by its count of +1 outcomes, and <B>(g) has a
closed-form inverse, so ``estimate_counts`` turns a whole batch of
repetitions' counts into estimates with a few array operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import ising

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


def precision_m(g: float, n_spins: int) -> float:
    """One-shot delta g^2 of the magnetization, which loses the 1/N^2 Heisenberg scaling.

    At g = 1, delta_g^2 -> pi^2/(N ln^2 N) (see ``ising.expected_m_derivative``).
    """
    return error_propagation(ising.variance_m(g, n_spins),
                             ising.expected_m_derivative(g, n_spins))


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


def magnetization_flatness(sizes: Sequence[int], delta_g_sq: Sequence[float]) -> float:
    """Midrange deviation of delta_g^2 * N * ln^2 N, M's one-shot ``delta_g_sq`` at ``sizes``.

    At g = 1 the product tends to pi^2, so its spread over a window of sizes
    measures how closely M follows the 1/(N ln^2 N) law there.
    """
    flat = [value * n * math.log(n) ** 2 for n, value in zip(sizes, delta_g_sq, strict=True)]
    mid = 0.5 * (max(flat) + min(flat))
    return (max(flat) - mid) / mid


def invert_expected_b(b_values, n_spins: int,
                      window: tuple[float, float] = (0.5, 1.5)) -> tuple[np.ndarray, np.ndarray]:
    """Solve <B>(g, N) = b for g on the window, elementwise, in closed form.

    With y = 2b - 1 = (cos xi - g)/r and r^2 = (g - cos xi)^2 + sin^2 xi at
    xi = 2 pi/N, g = cos xi - y sin xi / sqrt((1 - y)(1 + y)).  The curve is
    strictly decreasing in g, so the root is unique; values outside the
    attainable range are clamped to the nearer window edge and flagged.
    Returns (g, clamped) arrays of the shape of ``b_values``.
    """
    lo, hi = window
    if not lo < hi:
        raise ValueError("empty search window")
    b = np.asarray(b_values, dtype=float)
    b_lo, b_hi = ising.expected_b(lo, n_spins), ising.expected_b(hi, n_spins)
    xi = ising.mode_xi(n_spins, 1)
    y = 2.0 * b - 1.0
    with np.errstate(divide="ignore"):  # y = +-1 only reaches the clamped branches
        g = math.cos(xi) - y * math.sin(xi) / np.sqrt((1.0 - y) * (1.0 + y))
    g_hat = np.where(b >= b_lo, lo, np.where(b <= b_hi, hi, np.clip(g, lo, hi)))
    return g_hat, np.where(b >= b_lo, b > b_lo, b < b_hi)


def _b_hat(counts, shots: int) -> np.ndarray:
    """(1 - mean)/2 for ``counts`` +1 outcomes among ``shots`` +-1 samples; for
    shots <= 2**53 the +-1 sum 2 count - shots is exact, so this is the shot mean's."""
    return 0.5 * (1.0 - (2 * np.asarray(counts, dtype=np.int64) - shots) / shots)


def estimate_counts(counts: Sequence[int] | np.ndarray, shots: int, n_spins: int,
                    window: tuple[float, float] = (0.5, 1.5)) -> tuple[np.ndarray, np.ndarray]:
    """``estimate_g``'s (g_hat, clamped) per repetition from its count of +1 outcomes."""
    counts = np.asarray(counts, dtype=np.int64)
    if shots < 1 or not np.all((counts >= 0) & (counts <= shots)):
        raise ValueError(f"counts must lie in [0, shots] with shots >= 1, got shots={shots}")
    return invert_expected_b(_b_hat(counts, shots), n_spins, window)


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
    b_hat = _b_hat(np.count_nonzero(samples == 1), samples.size)
    g_hat, clamped = invert_expected_b(b_hat, n_spins, window)
    return GEstimate(g_hat=float(g_hat), clamped=bool(clamped))


def cramer_rao(qfi: float, shots: int = 1) -> float:
    """Quantum Cramer-Rao lower bound 1/(nu * QFI) on delta g^2."""
    if qfi <= 0.0:
        raise ValueError("QFI must be positive")
    if shots < 1:
        raise ValueError("need at least one shot")
    return 1.0 / (shots * qfi)
