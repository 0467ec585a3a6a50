"""Error propagation, scaling fits, calibration-curve estimation."""

import itertools
import math

import numpy as np
import pytest

from compressed_metrology import dense, ising
from compressed_metrology.ising import IsingParams
from compressed_metrology.metrology import (
    cramer_rao,
    error_propagation,
    estimate_counts,
    estimate_g,
    fit_power_law,
    invert_expected_b,
    precision_b,
    precision_m,
)
from support import bisect_expected_b, sequential_reference


class TestErrorPropagation:
    def test_heisenberg_asymptote_arithmetic(self):
        # Var -> 1/4 and derivative -> -N/(4 pi) combine to 4 pi^2 / N^2.
        val = error_propagation(0.25, -100.0 / (4.0 * math.pi))
        assert val == pytest.approx(4.0 * math.pi**2 / 100.0**2, rel=1e-12)
        assert val == pytest.approx(3.947841760435743e-3, rel=1e-12)

    def test_trivial_cases(self):
        assert error_propagation(0.0, 2.0) == 0.0
        assert error_propagation(0.37, 1.0) == 0.37

    def test_zero_derivative(self):
        with pytest.raises(ValueError, match="identifiable"):
            error_propagation(0.5, 0.0)

    @pytest.mark.parametrize("variance,derivative", [
        (2.5e-121, -5e-181),  # the square underflows to 0: <B> at N=4, g=1e60
        (0.0625, 5e-157),     # the square is subnormal and the ratio overflows
    ])
    def test_nonfinite_ratio(self, variance, derivative):
        with pytest.raises(ValueError, match="is not finite"):
            error_propagation(variance, derivative)

    def test_closed_forms_past_the_float_range(self):
        with pytest.raises(ValueError, match="identifiable"):
            precision_b(1e60, 4)
        with pytest.raises(ValueError, match="identifiable"):
            precision_m(1e54, 8)
        assert math.isfinite(precision_b(1e51, 8192)) and math.isfinite(precision_m(1e51, 8))


class TestPrecisionPoints:
    def test_point_consistency(self):
        var, deriv = ising.variance_b(1.0, 16), ising.expected_b_derivative(1.0, 16)
        assert precision_b(1.0, 16, shots=10) == pytest.approx(var / deriv**2 / 10, rel=1e-14)

    def test_shot_scaling_exact(self):
        assert precision_b(0.9, 64, shots=100) == precision_b(0.9, 64) / 100.0

    def test_heisenberg_band(self):
        # N^2-scaled uncertainty of the mode observable stays pinned near 4 pi^2.
        vals = [precision_b(1.0, n) * n**2 for n in (32, 64, 256, 1024)]
        assert all(39.0 < v < 40.5 for v in vals)

    def test_magnetization_log_drift(self):
        # delta-g^2 * N log N for M drifts like 1/log N (the product with
        # log^2 N is what actually flattens); both behaviours are pinned here.
        vals = [precision_m(1.0, n) * n * math.log(n) for n in (256, 1024, 8192)]
        assert vals[0] > vals[1] > vals[2]
        flat = [v * math.log(n) for v, n in zip(vals, (256, 1024, 8192))]
        assert max(flat) / min(flat) < 1.16


class TestFitScaling:
    def test_synthetic_power_law_exact(self):
        sizes = [8, 16, 32, 64, 128]
        fit = fit_power_law(sizes, [3.7 / n**2 for n in sizes])
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_rescaling_invariance(self):
        sizes = [16, 64, 256, 1024]
        vals = [precision_b(1.0, n) for n in sizes]
        base = fit_power_law(sizes, vals)
        scaled = fit_power_law(sizes, [100.0 * v for v in vals])
        assert scaled.slope == pytest.approx(base.slope, abs=1e-12)
        assert scaled.intercept == pytest.approx(base.intercept + math.log(100.0), abs=1e-12)

    @staticmethod
    def fit(point, sizes):
        return fit_power_law(sizes, [point(1.0, n) for n in sizes])

    def test_mode_observable_is_heisenberg(self):
        fit = self.fit(precision_b, [2**k for k in range(3, 11)])
        assert -2.1 <= fit.slope <= -1.9
        assert fit.r_squared > 0.999

    def test_magnetization_is_suboptimal(self):
        sizes = [2**k for k in range(8, 14)]
        fit = self.fit(precision_m, sizes)
        assert -1.35 <= fit.slope <= -1.0
        # strictly worse than the mode observable
        assert fit.slope > self.fit(precision_b, sizes).slope

    def test_degenerate_fits_rejected(self):
        with pytest.raises(ValueError):
            self.fit(precision_b, [64])
        with pytest.raises(ValueError):
            self.fit(precision_b, [64, 64])
        with pytest.raises(ValueError):
            fit_power_law([8, 16], [1.0])


class TestEstimateG:
    @pytest.mark.parametrize("n_spins", [16, 64])
    @pytest.mark.parametrize("g_star", [0.9, 1.0, 1.1])
    def test_exact_inversion(self, n_spins, g_star):
        g_hat, clamped = invert_expected_b(ising.expected_b(g_star, n_spins), n_spins)
        assert not clamped
        assert g_hat == pytest.approx(g_star, abs=1e-10)

    @pytest.mark.parametrize("n_spins", [4, 256])
    def test_window_edges(self, n_spins):
        # <B> at an edge maps to that edge unflagged and one ulp beyond it is
        # clamped; one ulp inside, the closed form's roundoff can land past the
        # edge, and the estimate stays on the window.
        for lo in np.linspace(0.6, 1.4, 9):
            lo, hi = window = (float(lo), float(lo) + 0.1)
            for edge, outward, inward in ((lo, 1.0, 0.0), (hi, 0.0, 1.0)):
                b_edge = ising.expected_b(edge, n_spins)
                for b in (b_edge, np.nextafter(b_edge, outward)):
                    g_hat, clamped = invert_expected_b(b, n_spins, window)
                    assert (g_hat, clamped) == bisect_expected_b(b, n_spins, window)
                    assert g_hat == edge and clamped == (b != b_edge)
                g_hat, clamped = invert_expected_b(np.nextafter(b_edge, inward), n_spins, window)
                assert lo <= g_hat <= hi and not clamped
                assert g_hat == pytest.approx(edge, abs=1e-12)

    def test_estimate_from_samples(self):
        # mean -1/2 -> b_hat = 3/4, realizable with +-1 shots
        samples = np.array([1, -1, -1, -1])
        est = estimate_g(samples, 16, window=(0.0, 3.0))
        assert ising.expected_b(est.g_hat, 16) == pytest.approx(0.75, abs=1e-10)
        assert not est.clamped

    def test_clamping_flag(self):
        est = estimate_g(np.ones(8, dtype=int), 16, window=(0.9, 1.1))
        assert est.clamped and est.g_hat == 1.1  # mean +1 -> b_hat = 0, beyond window
        est = estimate_g(-np.ones(8, dtype=int), 16, window=(0.9, 1.1))
        assert est.clamped and est.g_hat == 0.9

    def test_input_validation(self):
        with pytest.raises(ValueError):
            estimate_g(np.array([]), 16)
        with pytest.raises(ValueError):
            estimate_g(np.array([1, 0, -1]), 16)
        with pytest.raises(ValueError):
            estimate_g(np.array([1, -1]), 16, window=(1.5, 0.5))

    def test_monte_carlo_matches_prediction(self):
        # Moment estimator from synthetic shots of the analytic distribution;
        # fixed seed keeps the run deterministic.
        n_spins, g_star, shots, reps = 64, 1.0, 10_000, 200
        rng = np.random.default_rng(321)
        p_plus = 0.5 * (1.0 + (1.0 - 2.0 * ising.expected_b(g_star, n_spins)))
        errors = []
        for _ in range(reps):
            mean = 2.0 * rng.binomial(shots, p_plus) / shots - 1.0
            g_hat, _ = invert_expected_b(0.5 * (1.0 - mean), n_spins)
            errors.append(g_hat - g_star)
        errors = np.asarray(errors)
        mse = float(np.mean(errors**2))
        predicted = precision_b(g_star, n_spins, shots)
        assert predicted / 2.0 <= mse <= 2.0 * predicted
        # unbiased within 3 standard errors of the Monte-Carlo mean
        assert abs(errors.mean()) < 3.0 * errors.std() / math.sqrt(reps)

    def test_rmse_halves_with_quadruple_shots(self):
        n_spins, g_star, reps = 64, 1.0, 400
        rng = np.random.default_rng(77)
        p_plus = 0.5 * (1.0 + (1.0 - 2.0 * ising.expected_b(g_star, n_spins)))

        def rmse(shots):
            errs = []
            for _ in range(reps):
                mean = 2.0 * rng.binomial(shots, p_plus) / shots - 1.0
                g_hat, _ = invert_expected_b(0.5 * (1.0 - mean), n_spins)
                errs.append((g_hat - g_star) ** 2)
            return math.sqrt(np.mean(errs))

        ratio = rmse(2_000) / rmse(8_000)
        assert 1.7 < ratio < 2.3


SIZES = (4, 8, 16, 256, 2**20)
SHOTS = (1, 7, 2000)
# The default window, and a narrow one off its center; at N = 2^20 the second
# lies in the curve's flat tail, so every count there is clamped.
WINDOWS = ((0.5, 1.5), (1.05, 1.1))


def shot_mean_b_hat(count: int, shots: int) -> float:
    return 0.5 * (1.0 - float(2 * count - shots) / shots)


class TestEstimateCounts:
    """The closed-form inversion of every count against the bisection oracle."""

    @pytest.mark.parametrize("n_spins", SIZES)
    @pytest.mark.parametrize("shots", SHOTS)
    @pytest.mark.parametrize("window", WINDOWS)
    def test_closed_form_matches_bisection(self, n_spins, shots, window):
        g_hat, clamped = estimate_counts(np.arange(shots + 1), shots, n_spins, window=window)
        oracle = [bisect_expected_b(shot_mean_b_hat(k, shots), n_spins, window)
                  for k in range(shots + 1)]
        assert np.max(np.abs(g_hat - [g for g, _ in oracle])) <= 1e-12
        assert clamped.tolist() == [flag for _, flag in oracle]

    def test_equals_per_count_estimate(self):
        for n_spins, shots, window in itertools.product(SIZES, SHOTS, WINDOWS):
            g_hat, clamped = estimate_counts(np.arange(shots + 1), shots, n_spins, window=window)
            expected = [estimate_g(np.repeat([1, -1], [k, shots - k]), n_spins, window=window)
                        for k in range(shots + 1)]
            assert g_hat.tolist() == [est.g_hat for est in expected]
            assert clamped.tolist() == [est.clamped for est in expected]

    def test_float_samples_give_the_same_estimate(self):
        ints = np.array([1, -1, 1, 1, -1, 1, 1])
        assert estimate_g(ints, 16) == estimate_g(ints.astype(float), 16)
        g_hat, clamped = estimate_counts([5], 7, 16)
        assert (g_hat[0], clamped[0]) == (estimate_g(ints, 16).g_hat, False)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            estimate_counts([3], 2, 16)
        with pytest.raises(ValueError):
            estimate_counts([-1], 2, 16)
        with pytest.raises(ValueError):
            estimate_counts([0], 0, 16)
        with pytest.raises(ValueError):
            estimate_counts([1], 2, 16, window=(1.5, 0.5))


def mode_one_qfi(g: float, n_spins: int) -> float:
    """F_1 = sin^2(xi_1)/r_1^4, the k=1 term of ``ising.qfi``."""
    xi = ising.mode_xi(n_spins, 1)
    return math.sin(xi) ** 2 / ising._radicand(g, xi) ** 2


class TestBounds:
    def test_cramer_rao_arithmetic(self):
        assert cramer_rao(4.0) == 0.25
        assert cramer_rao(4.0, shots=100) == 0.25 / 100.0
        with pytest.raises(ValueError):
            cramer_rao(0.0)
        with pytest.raises(ValueError):
            cramer_rao(1.0, shots=0)

    def test_bound_against_dense_qfi(self):
        qfi = dense.qfi_pure(IsingParams(4, field_b=1.0, coupling_j=1.0))
        bound = cramer_rao(qfi)
        dg2 = precision_b(1.0, 4)
        assert bound <= dg2 * (1.0 + 1e-9)
        assert bound == pytest.approx(dg2, rel=1e-6)  # saturated at the single pair

    @pytest.mark.parametrize("g,n_spins", [(1.0, 8), (1.0, 64), (0.9, 64), (1.1, 1024)])
    def test_mode_one_readout_is_its_own_cramer_rao_bound(self, g, n_spins):
        # precision_b is 1/F_1, with F_1 = sin^2(xi_1)/r_1^4 the k=1 term of the QFI
        assert precision_b(g, n_spins, 1) * mode_one_qfi(g, n_spins) == pytest.approx(
            1.0, abs=1e-15)

    def test_mode_one_share_of_the_qfi(self):
        # F/F_1 = sum_j sin^2(xi_j)/sin^2(xi_1) (r_1/r_j)^4 tends to sum 1/j^2 = pi^2/6 at g = 1
        ratio = ising.qfi(1.0, 8192) / mode_one_qfi(1.0, 8192)
        assert ratio == pytest.approx(math.pi**2 / 6.0, abs=1e-3)

    def test_sequential_reference(self):
        both = sequential_reference(1.0, shots=1)
        assert both["nu_t_inverse_squared"] == 1.0 and both["per_shot_t_squared"] == 1.0
        assert sequential_reference(10.0)["nu_t_inverse_squared"] == pytest.approx(0.01)
        four = sequential_reference(10.0, shots=4)
        assert four["nu_t_inverse_squared"] == pytest.approx(1.0 / 1600.0)
        assert four["per_shot_t_squared"] == pytest.approx(1.0 / 400.0)
        with pytest.raises(ValueError):
            sequential_reference(0.0)
