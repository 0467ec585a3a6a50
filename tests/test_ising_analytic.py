"""Closed-form curves: frozen values, finite-difference oracles, dense equivalence.

Expected numbers were computed independently before being frozen here: dense
even-sector diagonalization at N in {4, 8}, central finite differences for
the derivatives, and direct limits for the trivial cases.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compressed_metrology import dense, ising
from compressed_metrology.ising import IsingParams
from support import bogoliubov_angle, is_singular_mode, mode_data, mode_energy, ratio_g


def central_diff(fn, x, step=1e-6):
    return (fn(x + step) - fn(x - step)) / (2.0 * step)


class TestParams:
    def test_g_ratio(self):
        assert ratio_g(IsingParams(4, field_b=3.0, coupling_j=2.0)) == 1.5

    def test_g_needs_coupling(self):
        with pytest.raises(ValueError, match="J = 0"):
            ratio_g(IsingParams(4, field_b=1.0, coupling_j=0.0))

    @pytest.mark.parametrize("bad", [0, 3, 6, 12, -4])
    def test_size_validation(self, bad):
        with pytest.raises(ValueError):
            IsingParams(bad, field_b=1.0, coupling_j=1.0)

    def test_dense_oracle_size_allowed(self):
        # N=2 is legal for the dense-oracle spectrum checks even though the
        # mode-1 curves need N >= 4.
        IsingParams(2, field_b=1.0, coupling_j=1.0)
        with pytest.raises(ValueError):
            ising.expected_b(1.0, 2)


class TestBogoliubovAngle:
    def test_zero_field(self):
        p = IsingParams(8, field_b=0.0, coupling_j=1.0)
        for j in range(8):
            xi = ising.mode_xi(8, j)
            cos_t, sin_t = bogoliubov_angle(p, j)
            assert cos_t == pytest.approx(-math.cos(xi), abs=1e-15)
            assert sin_t == pytest.approx(-math.sin(xi), abs=1e-15)

    def test_critical_pi_mode(self):
        p = IsingParams(8, field_b=1.0, coupling_j=1.0)
        assert bogoliubov_angle(p, 4) == pytest.approx((1.0, 0.0), abs=1e-15)

    def test_critical_mode_one_against_dense(self):
        # cos theta_1 = 1 - 2 <b_1^dag b_1> on the even ground state.
        p = IsingParams(8, field_b=1.0, coupling_j=1.0)
        cos_t, _ = bogoliubov_angle(p, 1)
        assert cos_t == pytest.approx(0.3826834323650898, abs=1e-12)
        gs = dense.ground_state_even(p)
        occ = dense.expectation(gs, dense.observable_b_dense(8))
        assert cos_t == pytest.approx(1.0 - 2.0 * occ, abs=1e-9)

    def test_singular_point_convention(self):
        p = IsingParams(4, field_b=1.0, coupling_j=1.0)
        assert is_singular_mode(p, 0)
        assert not is_singular_mode(p, 1)
        assert bogoliubov_angle(p, 0) == (1.0, 0.0)
        assert mode_data(p, 0).singular

    def test_mode_data_bundle(self):
        p = IsingParams(8, field_b=2.0, coupling_j=1.0)
        data = mode_data(p, 3)
        assert data.mode_index == 3
        assert data.xi == pytest.approx(3.0 * math.pi / 4.0)
        assert (data.cos_theta, data.sin_theta) == bogoliubov_angle(p, 3)
        assert data.energy == mode_energy(p, 3)
        assert not data.singular

    @settings(max_examples=80, deadline=None)
    @given(
        g=st.floats(0.0, 5.0).filter(lambda g: abs(g - 1.0) > 1e-6),
        m=st.integers(2, 6),
        j=st.integers(0, 63),
    )
    def test_angle_normalization(self, g, m, j):
        n = 2**m
        p = IsingParams(n, field_b=g, coupling_j=1.0)
        cos_t, sin_t = bogoliubov_angle(p, j % n)
        assert abs(cos_t**2 + sin_t**2 - 1.0) < 1e-12


class TestModeEnergy:
    def test_gap_closes_at_transition(self):
        assert mode_energy(IsingParams(4, 1.0, 1.0), 0) == 0.0

    def test_zero_field_flat(self):
        p = IsingParams(8, field_b=0.0, coupling_j=1.0)
        assert all(mode_energy(p, j) == pytest.approx(2.0) for j in range(8))

    def test_paramagnetic_value(self):
        # j=1 at N=4: xi = pi/2, 2 sqrt(1 + 4) = 2 sqrt 5
        val = mode_energy(IsingParams(4, field_b=2.0, coupling_j=1.0), 1)
        assert val == pytest.approx(2.0 * math.sqrt(5.0), rel=1e-15)

    def test_well_defined_without_coupling(self):
        assert mode_energy(IsingParams(4, field_b=1.5, coupling_j=0.0), 2) == 3.0


class TestFourierModeCurves:
    def test_polarized_limit(self):
        assert abs(ising.expected_b(1e9, 8)) < 1e-9

    def test_zero_field(self):
        assert ising.expected_b(0.0, 4) == pytest.approx(0.5, abs=1e-15)

    def test_critical_value(self):
        assert ising.expected_b(1.0, 4) == pytest.approx(0.14644660940672627, abs=1e-15)

    def test_derivative_frozen_and_fd(self):
        assert ising.expected_b_derivative(1.0, 100) == pytest.approx(
            -7.951203612504855, rel=1e-12
        )
        fd = central_diff(lambda g: ising.expected_b(g, 100), 1.0)
        assert ising.expected_b_derivative(1.0, 100) == pytest.approx(fd, rel=1e-6)

    def test_derivative_zero_field(self):
        assert ising.expected_b_derivative(0.0, 4) == pytest.approx(-0.5, abs=1e-12)

    def test_derivative_large_n_scale(self):
        # |d<B>/dg| at g=1 approaches N/(4 pi)
        n = 4096
        assert ising.expected_b_derivative(1.0, n) == pytest.approx(-n / (4 * math.pi), rel=1e-5)

    def test_variance_frozen(self):
        assert ising.variance_b(1.0, 8) == pytest.approx(0.21338834764831843, abs=1e-15)

    def test_variance_limits(self):
        assert ising.variance_b(1.0, 1 << 20) == pytest.approx(0.25, abs=1e-10)
        assert ising.variance_b(1e9, 8) < 1e-15

    @pytest.mark.parametrize("n", [4, 16, 256, 1024])
    def test_projector_identity(self, n):
        for g in np.linspace(0.0, 3.0, 13):
            eb = ising.expected_b(g, n)
            assert 0.0 <= eb <= 1.0
            assert ising.variance_b(g, n) == pytest.approx(eb * (1.0 - eb), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(g=st.floats(0.0, 10.0), dg=st.floats(1e-6, 1.0), m=st.integers(2, 10))
    def test_monotone_decreasing(self, g, dg, m):
        n = 2**m
        assert ising.expected_b(g + dg, n) < ising.expected_b(g, n)


class TestMagnetizationCurves:
    def test_polarized_limit(self):
        assert ising.expected_m(1e6, 8) == pytest.approx(1.0, abs=1e-9)

    def test_critical_value(self):
        assert ising.expected_m(1.0, 4) == pytest.approx(0.8535533905932737, abs=1e-15)

    def test_zero_field(self):
        assert ising.expected_m(0.0, 4) == pytest.approx(0.5, abs=1e-15)

    def test_range(self):
        for n in (4, 64, 512):
            for g in np.linspace(0.0, 5.0, 11):
                assert -1.0 <= ising.expected_m(g, n) <= 1.0

    def test_derivative_zero_field(self):
        assert ising.expected_m_derivative(0.0, 4) == pytest.approx(0.5, abs=1e-12)

    def test_derivative_decays(self):
        assert ising.expected_m_derivative(1e9, 8) < 1e-15

    def test_derivative_log_scaling(self):
        # <M>'/log(N) at g=1 settles towards a constant
        ratios = [ising.expected_m_derivative(1.0, n) / math.log(n) for n in (256, 1024, 4096)]
        assert ratios[2] == pytest.approx(ratios[1], rel=0.06)
        assert abs(ratios[2] - ratios[1]) < abs(ratios[1] - ratios[0])

    def test_derivative_critical_asymptote(self):
        # the law behind delta_g^2 -> pi^2/(N ln^2 N) for the magnetization
        for n in (2**8, 2**12, 2**16):
            asymptote = (math.log(n) + 0.5772156649015329 + math.log(2.0 / math.pi) - 1.0) / math.pi
            assert ising.expected_m_derivative(1.0, n) == pytest.approx(asymptote, rel=1e-4)

    def test_variance_frozen(self):
        # N = 4, g = 1: the one paired mode has sin^2(theta_1) = 1/2, so Var M = (4/16)(1/2)
        assert ising.variance_m(1.0, 4) == pytest.approx(0.125, abs=1e-15)

    def test_variance_polarized(self):
        # the product state g -> infinity: Var M g^2 -> (4/N^2) sum_j sin^2(xi_j) = 1/N
        for n in (4, 16):
            assert ising.variance_m(1e9, n) * 1e18 == pytest.approx(1.0 / n, rel=1e-8)

    def test_variance_inverse_n_scaling(self):
        vals = [ising.variance_m(1.0, n) * n for n in (256, 1024, 4096)]
        assert max(vals) / min(vals) < 1.01


@pytest.mark.parametrize("n", [4, 8, 16, 64, 256])
def test_derivatives_match_finite_differences(n):
    for g in np.linspace(0.5, 1.5, 5):
        fd_b = central_diff(lambda x: ising.expected_b(x, n), g)
        fd_m = central_diff(lambda x: ising.expected_m(x, n), g)
        assert abs(ising.expected_b_derivative(g, n) - fd_b) < 1e-6
        assert abs(ising.expected_m_derivative(g, n) - fd_m) < 1e-6


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("g", [0.5, 1.0, 1.5])
def test_dense_oracle_equivalence(n, g):
    p = IsingParams(n, field_b=g, coupling_j=1.0)
    gs = dense.ground_state_even(p)
    b_op = dense.observable_b_dense(n)
    m_op = dense.observable_m_dense(n)
    assert dense.expectation(gs, b_op) == pytest.approx(ising.expected_b(g, n), abs=1e-9)
    assert dense.expectation(gs, m_op) == pytest.approx(ising.expected_m(g, n), abs=1e-9)
    assert dense.variance(gs, b_op) == pytest.approx(ising.variance_b(g, n), abs=1e-9)
    assert dense.variance(gs, m_op) == pytest.approx(ising.variance_m(g, n), abs=1e-9)
