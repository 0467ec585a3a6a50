"""Brute-force reference: Hamiltonian structure, sectors, evolution, QFI."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from compressed_metrology import adiabatic, cli, dense, ising, matchgate
from compressed_metrology.adiabatic import TrotterSchedule
from compressed_metrology.ising import IsingParams
from conftest import cached_functions
from support import (hamiltonian_from_strings, majoranas, majoranas_kron, mode_energy,
                     pauli_string, sector_energies, trotter_evolve_sector_stepwise,
                     trotter_evolve_stepwise)


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    # Byte equality also pins the signs of zeros, which eigh's Householder steps read.
    assert np.array_equal(actual, expected)
    assert actual.dtype == expected.dtype and actual.tobytes() == expected.tobytes()


class TestHamiltonian:
    def test_field_only(self):
        ham = dense.build_hamiltonian(IsingParams(2, field_b=1.0, coupling_j=0.0))
        assert np.allclose(ham, np.diag([-2.0, 0.0, 0.0, 2.0]), atol=1e-15)

    def test_hermitian_and_parity_symmetric(self):
        for g in (0.3, 1.0, 2.5):
            ham = dense.build_hamiltonian(IsingParams(4, field_b=g, coupling_j=1.0))
            assert np.abs(ham - ham.conj().T).max() < 1e-12
            parity = dense.parity_diag(4)
            assert np.abs(ham * parity[None, :] - parity[:, None] * ham).max() < 1e-12

    def test_wrapped_bond_is_yy_string(self):
        # X_{N-1} Ztilde X_0 = Y_0 Z...Z Y_{N-1}; at N=2 the bond pair is XX + YY.
        ham = dense.build_hamiltonian(IsingParams(2, field_b=0.0, coupling_j=1.0))
        expected = -(pauli_string(2, {0: "X", 1: "X"}) + pauli_string(2, {0: "Y", 1: "Y"}))
        assert np.abs(ham - expected).max() < 1e-15

    @pytest.mark.parametrize("n_spins", [2, 4, 8])
    @pytest.mark.parametrize("g", [0.5, 1.5, 2.0])
    def test_sector_energies_match_mode_sums(self, n_spins, g):
        # Even-sector ground energy is -(1/2) sum eps_j, plus eps_0 on the
        # ferromagnetic side where the mode-0 flip is needed to stay even;
        # the odd sector mirrors it.
        p = IsingParams(n_spins, field_b=g, coupling_j=1.0)
        eps = [mode_energy(p, j) for j in range(n_spins)]
        base = -0.5 * sum(eps)
        even_expected = base + (eps[0] if g < 1 else 0.0)
        odd_expected = base + (eps[0] if g > 1 else 0.0)
        assert dense.even_ground(p)[0] == pytest.approx(even_expected, abs=1e-9)
        assert sector_energies(p, -1)[0] == pytest.approx(odd_expected, abs=1e-9)

    def test_size_cap(self):
        with pytest.raises(ValueError, match="capped"):
            dense.build_hamiltonian(IsingParams(8192, field_b=1.0, coupling_j=1.0))

    @pytest.mark.parametrize("n_spins", [2, 4, 8])
    def test_equals_string_by_string_build(self, n_spins):
        # At N = 2 the bond X_0 X_1 and the wrapped bond Y_0 Y_1 hit the same
        # entries, half of which cancel to zero.  The Pauli strings are complex
        # and their sum is real: H has the bits of its real part.
        rng = np.random.default_rng(n_spins)
        couplings = [(1.0, 1.0), (0.0, -1.0), (2.0, 0.0), (0.0, 0.0)]
        couplings += [tuple(rng.uniform(-2.0, 2.0, 2)) for _ in range(4)]
        for field_b, coupling_j in couplings:
            params = IsingParams(n_spins, field_b=float(field_b), coupling_j=float(coupling_j))
            expected = hamiltonian_from_strings(params)
            assert not expected.imag.any()
            assert_same_bits(dense.build_hamiltonian(params), expected.real)

    def test_returned_hamiltonian_is_private(self):
        params = IsingParams(4, field_b=0.7, coupling_j=1.3)
        expected = hamiltonian_from_strings(params)
        assert not expected.imag.any()
        ham = dense.build_hamiltonian(params)
        ham[...] = 5.0
        assert_same_bits(dense.build_hamiltonian(params), expected.real)


class TestGroundStateEven:
    def test_field_only_vacuum(self):
        state = dense.ground_state_even(IsingParams(4, field_b=2.0, coupling_j=0.0))
        expected = np.zeros(16)
        expected[0] = 1.0
        assert np.abs(state - expected).max() < 1e-12

    def test_zero_field_magnetization(self):
        # At B = 0 the whole even sector is twofold degenerate (the mode-0 and
        # mode-N/2 flips cost the same), but the twisted-shift-symmetric
        # subspace holds one level of each pair: its levels are -2 and +2.
        state = dense.ground_state_even(IsingParams(4, field_b=0.0, coupling_j=1.0))
        val = dense.expectation(state, dense.observable_m_dense(4))
        assert val == pytest.approx(ising.expected_m(0.0, 4), abs=1e-12)

    def test_critical_mode_occupation(self):
        state = dense.ground_state_even(IsingParams(4, field_b=1.0, coupling_j=1.0))
        val = dense.expectation(state, dense.observable_b_dense(4))
        assert val == pytest.approx(0.1464466, abs=1e-7)
        assert val == pytest.approx(ising.expected_b(1.0, 4), abs=1e-9)

    def test_even_parity_and_phase_convention(self):
        state = dense.ground_state_even(IsingParams(8, field_b=0.7, coupling_j=1.0))
        parity = np.diag(dense.parity_diag(8)).astype(complex)
        assert dense.expectation(state, parity) == pytest.approx(1.0, abs=1e-12)
        assert state.dtype == np.float64
        assert state[np.argmax(np.abs(state))] > 0

    def test_degeneracy_flagged(self):
        # At B = J = 0 every level is degenerate and g = B/J is undefined.
        with pytest.raises(RuntimeError,
                           match=r"degenerate within 1e-10\*max\(1, \|E0\|\) at B=0.0, J=0.0"):
            dense.even_ground(IsingParams(4, field_b=0.0, coupling_j=0.0))
        # At N = 2 the subspace is |00> alone, so it has no second level.
        for coupling_j in (0.0, 1.0):
            params = IsingParams(2, field_b=0.0, coupling_j=coupling_j)
            energy, state, qfi = dense.even_ground(params)
            assert (energy, qfi) == (0.0, 0.0) and np.array_equal(state, np.eye(4)[0])

    @pytest.mark.parametrize("n_spins", [2, 4, 8])
    @pytest.mark.parametrize("g", [0.5, 1.0, 1.5])
    def test_equals_whole_even_sector_ground(self, n_spins, g):
        # The independent leg: at these g the symmetric subspace's lowest level
        # is the whole even sector's, solved here without the twisted shift.
        params = IsingParams(n_spins, field_b=g, coupling_j=1.0)
        energy, state, _ = dense.even_ground(params)
        assert energy == pytest.approx(sector_energies(params, +1)[0], abs=1e-12)
        keep = np.flatnonzero(dense.parity_diag(n_spins) > 0)
        ground = np.linalg.eigh(dense.build_hamiltonian(params)[np.ix_(keep, keep)])[1][:, 0]
        assert abs(state[keep] @ ground) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestObservables:
    @pytest.mark.parametrize("n_spins", [1, 2, 3, 4, 8])
    def test_majoranas_equal_kron_products(self, n_spins):
        # Equal values; the Kronecker products also carry -0.0 entries.
        xs, reference = majoranas(n_spins), majoranas_kron(n_spins)
        assert len(xs) == len(reference) == 2 * n_spins
        for x, ref in zip(xs, reference):
            assert x.dtype == ref.dtype and np.array_equal(x, ref)

    @pytest.mark.parametrize("n_spins", [2, 4, 8])
    def test_mode_occupation_equals_kron_build(self, n_spins):
        # b_1 summed term by term from the Kronecker-product Majoranas
        xs = majoranas_kron(n_spins)
        b1 = np.zeros_like(xs[0])
        for k in range(n_spins):
            b1 += np.exp(2j * np.pi * k / n_spins) * (0.5 * (xs[2 * k] + 1j * xs[2 * k + 1]))
        b1 /= np.sqrt(n_spins)
        assert_same_bits(dense.observable_b_dense(n_spins), b1.conj().T @ b1)

    def test_mode_occupation_is_projector(self):
        op = dense.observable_b_dense(4)
        evals = np.linalg.eigvalsh(op)
        assert np.abs(evals - np.round(evals)).max() < 1e-12
        assert set(np.round(evals).astype(int)) == {0, 1}
        assert op.trace().real == pytest.approx(8.0)  # 2^{N-1}

    def test_magnetization_matrix(self):
        assert np.allclose(dense.observable_m_dense(2), np.diag([1.0, 0.0, 0.0, -1.0]))

    def test_vacuum_magnetization(self):
        vac = np.zeros(16, dtype=complex)
        vac[0] = 1.0
        assert dense.expectation(vac, dense.observable_m_dense(4)) == 1.0

    def test_critical_magnetization(self):
        state = dense.ground_state_even(IsingParams(4, field_b=1.0, coupling_j=1.0))
        val = dense.expectation(state, dense.observable_m_dense(4))
        assert val == pytest.approx(0.8535534, abs=1e-7)


class TestExpectationHelpers:
    def test_identity(self, rng):
        state = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        state /= np.linalg.norm(state)
        assert dense.expectation(state, np.eye(8, dtype=complex)) == pytest.approx(1.0)
        assert dense.variance(state, np.eye(8, dtype=complex)) == pytest.approx(0.0, abs=1e-12)

    def test_against_spectral_reconstruction(self, rng):
        herm = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        herm = herm + herm.conj().T
        state = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        state /= np.linalg.norm(state)
        evals, vecs = np.linalg.eigh(herm)
        weights = np.abs(vecs.conj().T @ state) ** 2
        mean_ref = float(weights @ evals)
        var_ref = float(weights @ evals**2) - mean_ref**2
        assert dense.expectation(state, herm) == pytest.approx(mean_ref, abs=1e-10)
        assert dense.variance(state, herm) == pytest.approx(var_ref, abs=1e-10)

    def test_non_hermitian_rejected(self):
        state = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        with pytest.raises(ValueError, match="Hermitian"):
            dense.expectation(state, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            dense.expectation(np.ones(4, dtype=complex), np.eye(8, dtype=complex))


def twisted_shift(n_spins: int) -> np.ndarray:
    """Z_0 after the cyclic site shift j -> j+1, as a signed permutation matrix."""
    dim = 1 << n_spins
    cols = np.arange(dim)
    shift = np.zeros((dim, dim))
    shift[(cols >> 1) | ((cols & 1) << (n_spins - 1)), cols] = 1.0
    return pauli_string(n_spins, {0: "Z"}).real @ shift


class TestSymmetricBasis:
    @pytest.mark.parametrize("n_spins", [2, 4, 8])
    def test_twisted_shift(self, n_spins):
        # site j moves to site j+1, the wrapped site picks up Z_0, and the
        # N-th power is Ztilde; |0..0> is fixed
        shift = twisted_shift(n_spins)
        for j in range(n_spins):
            sign = -1.0 if j == n_spins - 1 else 1.0
            moved = shift @ pauli_string(n_spins, {j: "X"}) @ shift.T
            assert np.array_equal(moved, sign * pauli_string(n_spins, {(j + 1) % n_spins: "X"}))
        parity = np.diag(dense.parity_diag(n_spins))
        assert np.array_equal(np.linalg.matrix_power(shift, n_spins), parity)
        vacuum = np.eye(1 << n_spins)[0]
        assert np.array_equal(shift @ vacuum, vacuum)

    @pytest.mark.parametrize("n_spins", [2, 4, 8])
    def test_shift_commutes_with_hamiltonian_on_even_sector(self, n_spins):
        rng = np.random.default_rng(7 + n_spins)
        shift = twisted_shift(n_spins)
        even = dense.parity_diag(n_spins) > 0
        for coupling_sign in (1.0, -1.0, 1.0, -1.0):
            params = IsingParams(n_spins, field_b=float(rng.uniform(-2.0, 2.0)),
                                 coupling_j=coupling_sign * float(rng.uniform(0.2, 2.0)))
            ham = dense.build_hamiltonian(params)
            assert np.abs((shift @ ham - ham @ shift)[:, even]).max() < 1e-12

    @pytest.mark.parametrize("n_spins,size", [(2, 1), (4, 2), (8, 16)])
    def test_basis_spans_the_fixed_even_states(self, n_spins, size):
        basis = dense.symmetric_basis(n_spins)
        assert basis.dtype == np.float64 and basis.shape == (1 << n_spins, size)
        assert not basis[dense.parity_diag(n_spins) < 0].any()
        assert np.abs(basis.T @ basis - np.eye(size)).max() < 1e-15
        shift = twisted_shift(n_spins)
        assert np.abs(shift @ basis - basis).max() < 1e-15
        # no fixed even state is missing: the trace of the projector
        # (1/N) sum_m shift^m onto the fixed even states is the column count
        even = np.diag(dense.parity_diag(n_spins) > 0).astype(float)
        powers = [np.linalg.matrix_power(shift, m) for m in range(n_spins)]
        assert np.trace(sum(powers) @ even) / n_spins == pytest.approx(size, abs=1e-12)
        vacuum = np.eye(1 << n_spins)[0]
        assert np.array_equal(basis @ (basis.T @ vacuum), vacuum)


class TestTrotterEvolve:
    def test_trivial_run(self):
        state = dense.trotter_evolve(
            IsingParams(4, field_b=0.0, coupling_j=1.0), TrotterSchedule(1.0, 0)
        )
        expected = np.zeros(16, dtype=complex)
        expected[0] = 1.0
        assert np.abs(state - expected).max() < 1e-12

    def test_parity_preserved(self):
        for n_spins in (2, 4, 8):
            state = dense.trotter_evolve(
                IsingParams(n_spins, field_b=1.0, coupling_j=1.0), TrotterSchedule(8.0, 64)
            )
            odd = dense.parity_diag(n_spins) < 0
            assert np.all(state[odd] == 0.0)
            assert np.linalg.norm(state[~odd]) == pytest.approx(1.0, abs=1e-12)

    def test_desk_scale_overlap(self):
        # Frozen convergence level of the first-order product at T=160, L=1024;
        # the squared ground-state overlap sits just below 0.99 (see the
        # adiabatic acceptance analysis) and reaches 0.9992 by L=4096.
        params = IsingParams(4, field_b=1.0, coupling_j=1.0)
        ground = dense.ground_state_even(params)
        state = dense.trotter_evolve(params, TrotterSchedule(160.0, 1024))
        assert abs(np.vdot(ground, state)) ** 2 == pytest.approx(0.98726187, abs=1e-6)
        state = dense.trotter_evolve(params, TrotterSchedule(160.0, 4096))
        assert abs(np.vdot(ground, state)) ** 2 > 0.999

    def test_matches_compressed_matrix_path(self, rng):
        # The convention-pinning identity: dense <B> after the Trotter product
        # equals the quadratic expectation through R at any L.
        for n_spins in (4, 8):
            obs = matchgate.observable_b_coefficients(n_spins)
            b_op = dense.observable_b_dense(n_spins)
            for steps in (1, 5, 17):
                params = IsingParams(
                    n_spins, field_b=float(rng.uniform(0.3, 1.6)),
                    coupling_j=float(rng.uniform(0.4, 1.4))
                )
                sch = TrotterSchedule(total_time=float(rng.uniform(0.5, 5.0)), steps=steps)
                state = dense.trotter_evolve(params, sch)
                rot = adiabatic.adiabatic_rotation(params, sch)
                dense_val = dense.expectation(state, b_op)
                assert abs(dense_val - matchgate.expectation_quadratic(rot, obs)) < 1e-9

    def test_size_cap(self):
        with pytest.raises(ValueError, match="capped"):
            dense.trotter_evolve(IsingParams(2048, 1.0, 1.0), TrotterSchedule(1.0, 1))

    @pytest.mark.parametrize("n_spins", [2, 4, 8])
    @pytest.mark.parametrize("steps", [0, 1, 17, 1024])
    def test_equals_stepwise_loop(self, n_spins, steps):
        # Chunked step phases change no bit of the even-sector product.
        params, sch = self._random_case(n_spins, steps)
        assert_same_bits(dense.trotter_evolve(params, sch),
                         trotter_evolve_sector_stepwise(params, sch))

    @pytest.mark.parametrize("n_spins", [2, 4, 8])
    @pytest.mark.parametrize("steps", [0, 1, 17, 1024])
    def test_matches_full_space_product(self, n_spins, steps):
        # The independent oracle: both layers applied to the whole 2^N vector.
        params, sch = self._random_case(n_spins, steps)
        state = dense.trotter_evolve(params, sch)
        assert np.abs(state - trotter_evolve_stepwise(params, sch)).max() < 1e-11

    @pytest.mark.parametrize("g", [0.37, 1.0, 1.9])
    def test_crosscheck_size_equals_both_loops(self, g):
        # compare and oracle at N = 8, L = 2048 on the default schedule T = 10 N^2
        params = IsingParams(8, field_b=g, coupling_j=1.0)
        sch = adiabatic.build_schedule(8, None, 2048)
        state = dense.trotter_evolve(params, sch)
        assert_same_bits(state, trotter_evolve_sector_stepwise(params, sch))
        assert np.abs(state - trotter_evolve_stepwise(params, sch)).max() < 1e-11

    def test_working_memory_does_not_grow_with_steps(self):
        # tau and the phases are formed a chunk of steps at a time, so 16 times the
        # steps hold no more memory; the 1 kB slack covers Python's own small objects.
        params = IsingParams(4, field_b=1.0, coupling_j=1.0)
        dense.trotter_evolve(params, TrotterSchedule(1.0, 1))  # H1's eigenbasis, cached per N
        peaks = []
        with mock.patch.object(dense, "_PHASE_CHUNK_ENTRIES", 2**8):
            for steps in (1023, 16383):
                tracemalloc.start()
                try:
                    dense.trotter_evolve(params, TrotterSchedule(100.0, steps))
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 1024

    @staticmethod
    def _random_case(n_spins, steps):
        rng = np.random.default_rng(100 * n_spins + steps)
        coupling_j = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0))
        params = IsingParams(n_spins, field_b=float(rng.uniform(-2.0, 2.0)), coupling_j=coupling_j)
        sch = TrotterSchedule(total_time=float(rng.uniform(1.0, 200.0)), steps=steps)
        assert params.coupling_j != 1.0
        return params, sch


class TestQFI:
    # At g < 0 the branch's gaps close like 1/|g|; to g = -100 the sum still holds
    # 1e-12 (measured 1.3e-15, 5.5e-15, 1.7e-15), at g = -1e3 it drifts to 4.1e-13.
    @pytest.mark.parametrize("n_spins,g", [(4, 0.5), (4, 1.0), (4, 1.5), (4, 3.0),
                                           (8, 0.5), (8, 1.0), (8, 1.5), (8, 2.0),
                                           (8, -2.0), (8, -10.0), (8, -100.0)])
    def test_against_mode_sum(self, n_spins, g):
        p = IsingParams(n_spins, field_b=g, coupling_j=1.0)
        assert dense.qfi_pure(p) == pytest.approx(ising.qfi(g, n_spins), rel=1e-12)

    def test_peaks_near_transition(self):
        at_transition = dense.qfi_pure(IsingParams(8, field_b=1.0, coupling_j=1.0))
        away = dense.qfi_pure(IsingParams(8, field_b=2.0, coupling_j=1.0))
        assert at_transition > away

    def test_cramer_rao_never_violated(self):
        # both observables' error-propagation uncertainties sit above 1/QFI
        for n_spins in (4, 8):
            for g in (0.8, 1.0, 1.3, 3.0):
                p = IsingParams(n_spins, field_b=g, coupling_j=1.0)
                qfi = dense.qfi_pure(p)
                dg2_b = ising.variance_b(g, n_spins) / ising.expected_b_derivative(g, n_spins) ** 2
                dg2_m = ising.variance_m(g, n_spins) / ising.expected_m_derivative(g, n_spins) ** 2
                assert dg2_b >= (1.0 - 1e-6) / qfi
                assert dg2_m >= (1.0 - 1e-6) / qfi

    def test_saturation_at_single_pair(self):
        # N=4 has one paired mode: measuring its occupation is optimal.
        qfi = dense.qfi_pure(IsingParams(4, field_b=1.0, coupling_j=1.0))
        dg2 = ising.variance_b(1.0, 4) / ising.expected_b_derivative(1.0, 4) ** 2
        assert dg2 * qfi == pytest.approx(1.0, abs=1e-6)

    def test_eigh_sizes_per_oracle_point(self, monkeypatch, tmp_path, clear_caches):
        # per (N, g): one solve in the twisted-shift-symmetric subspace (2 or
        # 16 states) for the ground branch and its QFI; per N, one there of the
        # bond sum, which trotter_evolve reuses at every g
        sizes = []
        solve = np.linalg.eigh

        def recording(matrix, *args, **kwargs):
            sizes.append(matrix.shape[0])
            return solve(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        assert cli.main(["oracle", "--n", "4,8", "--g", "0.7,1.0", "--l-steps", "64",
                         "--out", str(tmp_path / "oracle.json")]) == 0
        assert sizes == [2, 2, 2, 16, 16, 16]


class TestPerSizeCache:
    """What depends on N alone is built once per process and shared read-only."""
    BUILDS = ("popcounts", "parity_diag", "symmetric_basis", "observable_b_dense", "_bond_eigh")

    @staticmethod
    def arrays(out):
        return out if isinstance(out, tuple) else (out,)

    def test_these_are_the_package_caches(self):
        # each dense one is keyed by N alone, circuit's by the register size
        assert set(cached_functions()) == {
            *(f"dense.{name}" for name in self.BUILDS), "circuit.decompose_shift"}

    def test_a_crosscheck_run_reuses_each_dense_build(self, tmp_path, clear_caches):
        grid = ["--n", "4,8", "--g", "1.0", "--l-steps", "2048"]
        for command in ("compare", "oracle"):
            assert cli.main([command, *grid, "--out", str(tmp_path / f"{command}.json")]) == 0
        hits = {name: getattr(dense, name).cache_info().hits for name in self.BUILDS}
        assert all(hits.values()), hits

    def test_a_dump_reuses_the_shift_ladder_per_step(self, tmp_path, clear_caches):
        shift = cached_functions()["circuit.decompose_shift"]
        hits = []
        for extra in (["--l-steps", "1"], []):  # L = 1, then the default L = 1599
            clear_caches()
            assert cli.main(["dump", *extra, "--out", str(tmp_path / "dump.txt")]) == 0
            hits.append(shift.cache_info().hits)
        assert 0 < hits[0] < hits[1] and hits[1] >= 1599

    @pytest.mark.parametrize("name", BUILDS)
    def test_arrays_are_read_only(self, name):
        for arr in self.arrays(getattr(dense, name)(4)):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0

    @pytest.mark.parametrize("n_spins", [2, 4, 8])
    @pytest.mark.parametrize("name", BUILDS)
    def test_equals_an_uncached_build(self, name, n_spins, clear_caches):
        build = getattr(dense, name)
        cached = self.arrays(build(n_spins))
        assert build(n_spins) is build(n_spins)
        for arr, fresh in zip(cached, self.arrays(build.__wrapped__(n_spins)), strict=True):
            assert_same_bits(arr, fresh)
