"""Compression engine: generator exponentials, covariance algebra, dense conjugation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compressed_metrology import adiabatic, dense
from compressed_metrology.ising import IsingParams
from compressed_metrology.matchgate import expectation_quadratic, observable_b_coefficients
from conftest import random_antisymmetric
from support import (
    conjugate_modes,
    exp_generator,
    expectation_z0,
    majorana_two_point,
    majoranas,
    matchgate_unitary,
    pauli_string,
    vacuum_covariance,
)


def series_exponential(h: np.ndarray, log2_k: int = 20) -> np.ndarray:
    """(I + 4h/k)^k with k = 2^log2_k, via repeated squaring."""
    mat = np.eye(h.shape[0]) + 4.0 * h / 2.0**log2_k
    for _ in range(log2_k):
        mat = mat @ mat
    return mat


def random_matchgate_product(n_spins, n_gates, rng):
    """Random nearest-neighbour matchgate circuit as (R, dense U)."""
    rot = np.eye(2 * n_spins)
    unitary = np.eye(1 << n_spins, dtype=complex)
    for _ in range(n_gates):
        q = int(rng.integers(0, n_spins - 1))
        h = np.zeros((2 * n_spins, 2 * n_spins))
        h[2 * q:2 * q + 4, 2 * q:2 * q + 4] = random_antisymmetric(4, rng, scale=0.8)
        rot = exp_generator(h) @ rot
        unitary = matchgate_unitary(n_spins, h) @ unitary
    return rot, unitary


class TestExpGenerator:
    def test_zero(self):
        assert np.array_equal(exp_generator(np.zeros((4, 4))), np.eye(4))

    def test_single_block_closed_form(self):
        theta = 0.73
        h = theta / 4.0 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        expected = np.array(
            [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
        )
        assert np.allclose(exp_generator(h), expected, atol=1e-15)

    def test_random_orthogonal(self, rng):
        rot = exp_generator(random_antisymmetric(8, rng))
        assert np.abs(rot @ rot.T - np.eye(8)).max() < 1e-12

    def test_series_oracle(self, rng):
        # Euler-product limit (I + 4h/k)^k; first order in 1/k, so the
        # generator is kept small and k large to resolve 1e-8.
        h = random_antisymmetric(8, rng, scale=0.02)
        assert np.abs(exp_generator(h) - series_exponential(h, log2_k=27)).max() < 1e-8

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            exp_generator(np.eye(4))

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            exp_generator(np.zeros((3, 3)))

    @settings(max_examples=25, deadline=None)
    @given(dim=st.sampled_from([4, 8, 16, 64]), seed=st.integers(0, 2**31))
    def test_inverse_composition(self, dim, seed):
        h = random_antisymmetric(dim, np.random.default_rng(seed))
        prod = exp_generator(h) @ exp_generator(-h)
        assert np.abs(prod - np.eye(dim)).max() < 1e-10

    def test_commuting_blocks_compose_additively(self, rng):
        angles1, angles2 = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
        def block_gen(angles):
            h = np.zeros((6, 6))
            for j, a in enumerate(angles):
                h[2 * j, 2 * j + 1] = a / 4.0
                h[2 * j + 1, 2 * j] = -a / 4.0
            return h
        lhs = exp_generator(block_gen(angles1)) @ exp_generator(block_gen(angles2))
        rhs = exp_generator(block_gen(angles1 + angles2))
        assert np.abs(lhs - rhs).max() < 1e-12


class TestVacuumCovariance:
    def test_single_mode(self):
        assert np.array_equal(vacuum_covariance(1), np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_block_structure(self):
        s = vacuum_covariance(2)
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[2, 3] = 1.0
        expected[1, 0] = expected[3, 2] = -1.0
        assert np.array_equal(s, expected)

    def test_identity_rotation_gives_unit_z0(self):
        for n in (1, 3, 5):
            assert expectation_z0(np.eye(2 * n)) == 1.0


class TestConjugateModes:
    def test_identity(self):
        assert np.array_equal(conjugate_modes(np.eye(6), 4), np.eye(6)[4])

    def test_planar_rotation_pattern(self):
        theta = 0.31
        h = np.zeros((4, 4))
        h[0, 1], h[1, 0] = theta / 4.0, -theta / 4.0
        row = conjugate_modes(exp_generator(h), 0)
        assert row == pytest.approx([np.cos(theta), np.sin(theta), 0.0, 0.0], abs=1e-15)

    def test_product_row(self, rng):
        r1 = exp_generator(random_antisymmetric(8, rng))
        r2 = exp_generator(random_antisymmetric(8, rng))
        combined = r2 @ r1
        assert np.allclose(conjugate_modes(combined, 3), combined[3])

    def test_bounds(self):
        with pytest.raises(IndexError):
            conjugate_modes(np.eye(4), 4)


class TestExpectationZ0:
    def test_spin_flip_plane(self):
        # Rotation by pi in the (x_1, x_2) plane is the conjugation by X_0 X_1:
        # it flips Z_0.  Cross-checked against the dense conjugated vacuum.
        n = 2
        h = np.zeros((4, 4))
        h[1, 2], h[2, 1] = np.pi / 4.0, -np.pi / 4.0
        rot = exp_generator(h)
        assert expectation_z0(rot) == pytest.approx(-1.0, abs=1e-12)
        unitary = matchgate_unitary(n, h)
        vac = np.zeros(4, dtype=complex)
        vac[0] = 1.0
        dense_val = dense.expectation(unitary @ vac, pauli_string(n, {0: "Z"}))
        assert dense_val == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("n_spins", [2, 3, 4])
    def test_random_circuits_match_dense(self, n_spins, rng):
        for _ in range(4):
            n_gates = int(rng.integers(1, 9))
            rot, unitary = random_matchgate_product(n_spins, n_gates, rng)
            vac = np.zeros(1 << n_spins, dtype=complex)
            vac[0] = 1.0
            dense_val = dense.expectation(unitary @ vac, pauli_string(n_spins, {0: "Z"}))
            assert abs(expectation_z0(rot) - dense_val) < 1e-9
            assert abs(expectation_z0(rot)) <= 1.0 + 1e-12

    @pytest.mark.parametrize("n_spins", [2, 3, 4])
    def test_parity_preserved(self, n_spins, rng):
        _, unitary = random_matchgate_product(n_spins, 4, rng)
        parity = dense.parity_diag(n_spins)
        commutator = unitary * parity[None, :] - parity[:, None] * unitary
        assert np.abs(commutator).max() < 1e-9


class TestMajoranaTwoPoint:
    def test_identity_rotation(self):
        n = 3
        gamma = majorana_two_point(np.eye(2 * n))
        assert np.allclose(gamma, np.eye(2 * n) + 1j * vacuum_covariance(n), atol=1e-15)

    def test_structure(self, rng):
        rot = exp_generator(random_antisymmetric(12, rng))
        gamma = majorana_two_point(rot)
        assert np.array_equal(np.diag(gamma), np.ones(12))
        assert np.abs(gamma - gamma.conj().T).max() < 1e-12
        # Gamma/2 is the correlation projector of a pure Gaussian state.
        half = gamma / 2.0
        assert np.abs(half @ half - half).max() < 1e-9
        evals = np.linalg.eigvalsh(gamma)
        assert evals.min() > -1e-9 and evals.max() < 2.0 + 1e-9

    def test_against_dense_two_point(self, rng):
        n = 2
        rot, unitary = random_matchgate_product(n, 3, rng)
        gamma = majorana_two_point(rot)
        xs = majoranas(n)
        vac = np.zeros(4, dtype=complex)
        vac[0] = 1.0
        evolved = unitary @ vac
        for j in range(4):
            for k in range(4):
                ref = np.vdot(evolved, xs[j] @ (xs[k] @ evolved))
                assert abs(gamma[j, k] - ref) < 1e-10


def two_point_oracle(rot: np.ndarray, mode: np.ndarray) -> float:
    """<c^dag c> = sum_{lm} conj(a_l) a_m Gamma_{lm}, through the full two-point matrix."""
    value = complex(np.sum(np.outer(mode.conj(), mode) * majorana_two_point(rot)))
    assert abs(value.imag) <= 1e-13
    return value.real


class TestExpectationQuadratic:
    def test_mode_occupation_on_vacuum(self):
        # |0..0> is the fermionic vacuum: the k=1 mode is empty, matching the
        # g -> infinity limit of the ground-state curve.
        for n in (4, 8, 256):
            val = expectation_quadratic(np.eye(2 * n), observable_b_coefficients(n))
            assert val == pytest.approx(0.0, abs=1e-15)
        n = 4
        vac = np.zeros(1 << n, dtype=complex)
        vac[0] = 1.0
        assert dense.expectation(vac, dense.observable_b_dense(n)) == pytest.approx(0.0, abs=1e-15)

    def test_z0_consistency(self, rng):
        # Z_0 = 1 - 2 c_0^dag c_0 with c_0 = (x_0 + i x_1)/2, the vacuum's first annihilator.
        n = 3
        mode = np.zeros(2 * n, dtype=complex)
        mode[0], mode[1] = 0.5, 0.5j
        for _ in range(3):
            rot, _ = random_matchgate_product(n, 4, rng)
            assert 1.0 - 2.0 * expectation_quadratic(rot, mode) == pytest.approx(
                expectation_z0(rot), abs=1e-12
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            expectation_quadratic(np.eye(4), observable_b_coefficients(4))

    @pytest.mark.parametrize("n_spins", [4, 16, 64, 256])
    def test_equals_two_point_form(self, n_spins, rng):
        # The k=1 occupation and a random unit mode on an adiabatic rotation.
        params = IsingParams(n_spins, field_b=0.9, coupling_j=1.0)
        rot = adiabatic.adiabatic_rotation(
            params, adiabatic.TrotterSchedule(total_time=2.0 * n_spins, steps=500))
        dim = 2 * n_spins
        random_mode = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        for mode in (observable_b_coefficients(n_spins), random_mode / np.linalg.norm(random_mode)):
            assert abs(expectation_quadratic(rot, mode) - two_point_oracle(rot, mode)) <= 1e-15

    @settings(max_examples=40, deadline=None)
    @given(dim=st.sampled_from([2, 4, 8, 16, 64, 128]), seed=st.integers(0, 2**32 - 1))
    def test_random_modes_equal_two_point_form(self, dim, seed):
        gen = np.random.default_rng(seed)
        rot = exp_generator(random_antisymmetric(dim, gen))
        mode = gen.normal(size=dim) + 1j * gen.normal(size=dim)
        mode /= np.linalg.norm(mode)
        assert abs(expectation_quadratic(rot, mode) - two_point_oracle(rot, mode)) <= 1e-15


class TestObservableBCoefficients:
    def test_corner_value(self):
        mode = observable_b_coefficients(4)
        assert (mode[0], mode[1]) == (0.25, 0.25j)

    def test_trace_half(self):
        # The trace of the coefficient matrix conj(a) a^T.
        mode = observable_b_coefficients(16)
        assert np.vdot(mode, mode).real == pytest.approx(0.5, abs=1e-15)

    def test_dense_reconstruction(self):
        n = 4
        mode = observable_b_coefficients(n)
        xs = majoranas(n)
        b1 = sum(mode[l] * xs[l] for l in range(2 * n))
        assert np.array_equal(b1.conj().T @ b1, dense.observable_b_dense(n))

    @pytest.mark.parametrize("n_spins", [2, 6, 12])
    def test_rejects_size(self, n_spins):
        with pytest.raises(ValueError, match="power of two"):
            observable_b_coefficients(n_spins)
