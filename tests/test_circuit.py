"""Gate-level protocol: shift exactness, auxiliary construction, path equivalence."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import expm

from compressed_metrology import adiabatic, circuit, ising, matchgate
from compressed_metrology.adiabatic import TrotterSchedule
from compressed_metrology.circuit import (
    Gate,
    decompose_shift,
    dump_program,
    expectation_b_gate,
    initial_state,
    measure_ym,
    run_circuit,
    s1_aux_gates,
    sample_ym,
    trotter_step_gates,
)
from compressed_metrology.ising import IsingParams
from rotation_oracle import r0_rotation, r1_rotation, shift_matrix
from support import (
    apply_gate,
    apply_program,
    parse_program,
    program_permutation,
    program_unitary,
    tau,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def step_gates(params, sch, l, m):
    """Step l of the R^T program, its angles from the scalar oracle ``tau``."""
    return trotter_step_gates(params.coupling_j * tau(sch, l),
                              4.0 * params.field_b * sch.delta, m)


class TestGateValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Gate("H", (0,))

    def test_angle_rules(self):
        with pytest.raises(ValueError):
            Gate("X", (0,), angle=1.0)
        with pytest.raises(ValueError):
            Gate("RY", (0,))

    def test_cx_control_rules(self):
        with pytest.raises(ValueError):
            Gate("CX", (0,))
        with pytest.raises(ValueError):
            Gate("CX", (0,), controls=(0,))
        with pytest.raises(ValueError):
            Gate("CX", (0,), controls=(1, 1))

    def test_out_of_range_rejected_at_apply(self):
        reg = initial_state(1)
        with pytest.raises(IndexError):
            apply_gate(reg, Gate("X", (5,)))


def kron_register(ops):
    """The 4-qubit operator with 2x2 matrix ops[q] on qubit q (qubit 0 the MSB), 1 elsewhere."""
    out = np.eye(1)
    for q in range(4):
        out = np.kron(out, ops.get(q, np.eye(2)))
    return out


class TestGateMatrices:
    """``apply_gate`` on a 4-qubit register against each kind's dense matrix."""

    PROJ_1 = np.diag([0.0, 1.0])
    HT = (PAULI_X + PAULI_Y) / np.sqrt(2.0)

    @staticmethod
    def applied(gate):
        return program_unitary((gate,), 4)

    def test_x(self, rng):
        for q in rng.permutation(4).tolist():
            assert np.abs(self.applied(Gate("X", (q,))) - kron_register({q: PAULI_X})).max() < 1e-14

    @pytest.mark.parametrize("n_controls", [1, 2])
    def test_cx(self, rng, n_controls):
        for _ in range(4):
            target, *controls = (int(q) for q in rng.permutation(4)[:1 + n_controls])
            hot = {c: self.PROJ_1 for c in controls}
            expected = (np.eye(16) - kron_register(hot)
                        + kron_register(hot | {target: PAULI_X}))
            got = self.applied(Gate("CX", (target,), controls=tuple(controls)))
            assert np.abs(got - expected).max() < 1e-14

    def test_ht(self, rng):
        assert np.abs(self.HT @ self.HT - np.eye(2)).max() < 1e-15
        for q in rng.permutation(4).tolist():
            assert np.abs(self.applied(Gate("HT", (q,))) - kron_register({q: self.HT})).max() < 1e-14

    def test_ry(self, rng):
        for q in rng.permutation(4).tolist():
            theta = float(rng.uniform(-2.0 * np.pi, 2.0 * np.pi))
            expected = kron_register({q: expm(-0.5j * theta * PAULI_Y)})
            got = self.applied(Gate("RY", (q,), angle=theta))
            assert np.abs(got - expected).max() < 1e-14

    def test_rxx(self, rng):
        for _ in range(6):
            q1, q2 = (int(q) for q in rng.permutation(4)[:2])
            angle = float(rng.uniform(-2.0 * np.pi, 2.0 * np.pi))
            expected = expm(-1j * angle * kron_register({q1: PAULI_X, q2: PAULI_X}))
            got = self.applied(Gate("RXX", (q1, q2), angle=angle))
            assert np.abs(got - expected).max() < 1e-14


class TestInitialState:
    def test_m1_product_structure(self):
        reg = initial_state(1)
        minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
        plus_y = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        expected = np.kron(np.kron(minus, plus_y), plus)
        assert np.abs(reg - expected).max() < 1e-15
        assert np.linalg.norm(reg) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    def test_fourier_amplitudes(self, m):
        # Index bits: data j (qubit 0 = MSB), probe s, aux a.  The first m+1
        # qubits must carry amplitude ~ e^{i 2 pi j / N} i^s so that the real
        # rotation R^T acts on the register index directly.
        n = 2**m
        reg = initial_state(m)
        norm = np.sqrt(2.0 * n) * np.sqrt(2.0)
        for idx, amp in enumerate(reg):
            j = idx >> 2
            s = (idx >> 1) & 1
            expected = np.exp(2j * np.pi * j / n) * (1j**s) / norm
            assert abs(amp - expected) < 1e-12

    def test_needs_data_qubit(self):
        with pytest.raises(ValueError):
            initial_state(0)


class TestDecomposeShift:
    def test_m1_gate_list(self):
        gates = decompose_shift(1)
        assert gates == (Gate("CX", (0,), controls=(1,)), Gate("X", (1,)))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_exact_increment_permutation(self, m):
        img = program_permutation(decompose_shift(m), m + 1)
        expected = (np.arange(1 << (m + 1)) + 1) % (1 << (m + 1))
        assert np.array_equal(img, expected)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_full_cycle_is_identity(self, m):
        dim = 1 << (m + 1)
        img = np.arange(dim)
        for _ in range(dim):
            img = program_permutation(decompose_shift(m), m + 1)[img]
        assert np.array_equal(img, np.arange(dim))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_gate_count_and_lowering(self, m):
        prog = decompose_shift(m)
        assert len(prog) == m + 1
        lowered = circuit.lowered_gate_count(prog)
        # linear lowering of each k-controlled X gives quadratic ladder totals
        assert m**2 - 2 * m + 2 <= lowered <= 2 * m**2 + 2

    def test_matches_dense_shift_operator(self):
        m = 3
        dim = 1 << (m + 1)
        perm_matrix = np.zeros((dim, dim))
        perm_matrix[program_permutation(decompose_shift(m), m + 1), np.arange(dim)] = 1.0
        assert np.array_equal(perm_matrix, shift_matrix(dim))


class TestS1AuxGates:
    def test_zero_time_is_identity(self):
        unitary = program_unitary(s1_aux_gates(0.0, 1), 3)
        assert np.abs(unitary - np.eye(8)).max() < 1e-15

    @pytest.mark.parametrize("l,coupling", [(1, 0.9), (3, -1.2), (2, 2.4)])
    def test_acts_as_probe_y_rotation(self, l, coupling):
        # On |j>|+>_a the block equals exp(-i J tau(l) Y) on the probe alone.
        m = 2
        sch = TrotterSchedule(total_time=3.0, steps=3)
        prog = s1_aux_gates(coupling * tau(sch, l), m)
        s1 = expm(-1j * coupling * tau(sch, l) * PAULI_Y)
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        unitary = program_unitary(prog, m + 2)
        embed = np.kron(np.kron(np.eye(1 << m), s1), np.outer(plus, plus))
        start = np.kron(np.eye(1 << (m + 1)), plus.reshape(2, 1))
        assert np.abs(unitary @ start - embed @ start).max() < 1e-12

    def test_quarter_pulse(self):
        # J tau = pi/2 realizes -iY on the probe
        m = 1
        prog = s1_aux_gates(np.pi / 2.0, m)
        amps = np.zeros(8, dtype=complex)
        amps[[0, 1]] = 1.0 / np.sqrt(2.0)  # |0>|0>|+>
        apply_program(amps, prog)
        expected = np.zeros(8, dtype=complex)
        expected[[2, 3]] = 1.0 / np.sqrt(2.0)  # -iY|0> = |1>
        assert np.abs(amps - expected).max() < 1e-12

    def test_aux_left_unentangled(self):
        m = 2
        reg = initial_state(m)
        apply_program(reg, s1_aux_gates(0.7, m))
        view = reg.reshape(-1, 2)
        plus_component = (view[:, 0] + view[:, 1]) / np.sqrt(2.0)
        assert np.linalg.norm(plus_component) ** 2 > 1.0 - 1e-12


class TestTrotterStep:
    def test_trivial_step_is_identity(self):
        unitary = program_unitary(trotter_step_gates(0.0, 0.0, 2), 4)
        assert np.abs(unitary - np.eye(16)).max() < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_step_matrix_is_transposed_rotation_pair(self, m):
        # Aux projected out, one step must equal R0^T R1^T on the 2N labels.
        n = 2**m
        b_field, coupling, l = 0.9, 1.2, 2
        sch = TrotterSchedule(total_time=2.5, steps=3)
        step = trotter_step_gates(coupling * tau(sch, l), 4.0 * b_field * sch.delta, m)
        unitary = program_unitary(step, m + 2)
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        reduce = np.kron(np.eye(2 * n), plus)
        reduced = reduce @ unitary @ reduce.conj().T
        target = r0_rotation(b_field, sch, n).T @ r1_rotation(coupling, l, sch, n).T
        assert np.abs(reduced - target).max() < 1e-10

    def test_per_step_gate_budget(self):
        for m in (1, 2, 3, 4):
            prog = trotter_step_gates(1.0, 1.0, m)
            # two shift ladders of m+1 gates, the 3-gate S1 block, one RY
            assert len(prog) == 2 * (m + 1) + 4


class TestRunner:
    def test_trivial_run_preserves_input(self):
        params = IsingParams(4, field_b=0.0, coupling_j=1.3)
        reg = run_circuit(params, TrotterSchedule(total_time=1.0, steps=0))
        assert np.abs(reg - initial_state(2)).max() < 1e-12

    def test_norm_drift_over_many_gates(self):
        params = IsingParams(4, field_b=1.0, coupling_j=1.0)
        sch = TrotterSchedule(total_time=20.0, steps=1200)  # > 1e4 gates
        reg = run_circuit(params, sch)
        assert abs(np.linalg.norm(reg) - 1.0) < 1e-9

    def test_aux_plus_after_every_step(self):
        params = IsingParams(8, field_b=0.9, coupling_j=1.1)
        sch = TrotterSchedule(total_time=4.0, steps=6)
        reg = initial_state(3)
        for l in range(sch.steps, -1, -1):
            apply_program(reg, step_gates(params, sch, l, 3))
            view = reg.reshape(-1, 2)
            plus_component = (view[:, 0] + view[:, 1]) / np.sqrt(2.0)
            assert np.linalg.norm(plus_component) ** 2 > 1.0 - 1e-10


class TestCompiledRunner:
    """The compiled runner against step-by-step interpretation of the gate program."""

    @staticmethod
    def interpreted(params, sch):
        m = params.n_spins.bit_length() - 1
        reg = initial_state(m)
        for l in range(sch.steps, -1, -1):
            apply_program(reg, step_gates(params, sch, l, m))
        return reg

    @settings(max_examples=30, deadline=None)
    @given(
        n_spins=st.sampled_from([2, 4, 8, 16]),
        b_field=st.floats(-3.0, 3.0),
        coupling=st.floats(-3.0, 3.0),
        total_time=st.floats(0.01, 50.0),
        steps=st.integers(0, 256),
    )
    def test_matches_interpreter(self, n_spins, b_field, coupling, total_time, steps):
        params = IsingParams(n_spins, field_b=b_field, coupling_j=coupling)
        sch = TrotterSchedule(total_time=total_time, steps=steps)
        compiled = run_circuit(params, sch)
        assert np.abs(compiled - self.interpreted(params, sch)).max() <= 1e-12

    def test_gate_constructions_do_not_grow_with_steps(self, monkeypatch, clear_caches):
        count = 0
        validate = Gate.__post_init__

        def counting(gate):
            nonlocal count
            count += 1
            validate(gate)

        monkeypatch.setattr(Gate, "__post_init__", counting)
        params = IsingParams(8, field_b=0.9, coupling_j=1.1)
        counts = []
        for steps in (4, 512):
            clear_caches()
            count = 0
            run_circuit(params, TrotterSchedule(total_time=4.0, steps=steps))
            counts.append(count)
        assert counts[0] > 0  # the step is compiled from the gate constructors
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_compiled_maps_are_signed_permutations(self, m):
        src_s, phase_s, src_y, phase_y = circuit._compiled_step(m)
        for src, phase in ((src_s, phase_s), (src_y, phase_y)):
            assert np.array_equal(np.sort(src), np.arange(1 << (m + 2)))
            assert np.all((phase == 1.0) | (phase == -1.0))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_step_without_rxx_composes_to_identity(self, m):
        # HT^2 = 1 and A A^dag = 1: the S1 block's cos term is the identity.
        *block, _ = trotter_step_gates(0.0, 0.0, m)
        src, phase = circuit._compose(tuple(g for g in block if g.kind != "RXX"), m + 2)
        assert np.array_equal(src, np.arange(1 << (m + 2)))
        assert np.all(phase == 1.0)

    def test_compiled_step_builds_no_schedule(self, monkeypatch, clear_caches):
        def refuse(schedule):
            raise AssertionError("the compiled step built a TrotterSchedule")

        monkeypatch.setattr(TrotterSchedule, "__post_init__", refuse)
        assert len(circuit._compiled_step(3)) == 4

    @pytest.mark.parametrize("n_spins", [2, 4, 8])
    @pytest.mark.parametrize("offset", [-2, -1, 0, 1])
    def test_chunks_are_bitwise_one_run(self, n_spins, offset):
        # L + 1 one short of, equal to, one and two past two whole chunks of steps
        chunk = 16
        params = IsingParams(n_spins, field_b=0.9, coupling_j=1.1)
        sch = TrotterSchedule(total_time=4.0, steps=2 * chunk + offset)
        whole = run_circuit(params, sch)
        with mock.patch.object(circuit, "_CHUNK_STEPS", chunk), \
                mock.patch.object(TrotterSchedule, "taus", autospec=True,
                                  side_effect=TrotterSchedule.taus) as taus:
            chunked = run_circuit(params, sch)
        spans = [call.args[1:] for call in taus.call_args_list]
        stops = range(sch.steps + 1, 0, -chunk)  # two or three chunks, the last one short
        assert spans == [(max(stop - chunk, 0), stop) for stop in stops]
        assert chunked.tobytes() == whole.tobytes()

    def test_working_memory_does_not_grow_with_steps(self):
        # tracemalloc sees numpy's buffers: a few chunks of complex (L + 1) x 4 weights
        # bound the run, where one array of them would grow with L.  The 1 kB slack
        # covers Python's own small objects, which differ by a few dozen bytes.
        params = IsingParams(2, field_b=1.0, coupling_j=1.0)
        run_circuit(params, TrotterSchedule(total_time=1.0, steps=1))  # caches decompose_shift
        peaks = []
        with mock.patch.object(circuit, "_CHUNK_STEPS", 64):
            for steps in (255, 4096):
                tracemalloc.start()
                try:
                    run_circuit(params, TrotterSchedule(total_time=0.1 * steps, steps=steps))
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[1] <= peaks[0] + 1024
            assert max(peaks) <= 4 * 64 * circuit._CHUNK_STEPS


def binomial_fit_p_value(counts: np.ndarray, shots: int, p_plus: float) -> float:
    """Chi-square p-value of ``counts`` against Binomial(shots, p_plus), over bins of
    consecutive counts merged until each expects at least 5 repetitions."""
    expected = counts.size * stats.binom.pmf(np.arange(shots + 1), shots, p_plus)
    observed = np.bincount(counts, minlength=shots + 1)
    edges, total = [0], 0.0
    for k, e in enumerate(expected):
        total += e
        if total >= 5.0:
            edges.append(k + 1)
            total = 0.0
    edges[-1] = shots + 1  # a short tail joins the last full bin
    obs = np.add.reduceat(observed, edges[:-1])
    exp = np.add.reduceat(expected, edges[:-1])
    return float(stats.chisquare(obs, exp * obs.sum() / exp.sum()).pvalue)


class TestMeasurement:
    def test_probe_eigenstate(self):
        assert measure_ym(initial_state(2)) == pytest.approx(1.0, abs=1e-12)

    def test_probe_zero(self):
        amps = np.zeros(8, dtype=complex)
        amps[0] = 1.0
        assert measure_ym(amps) == 0.0

    def test_probe_minus_y(self):
        amps = np.zeros(8, dtype=complex)
        amps[0], amps[2] = 1.0 / np.sqrt(2.0), -1.0j / np.sqrt(2.0)
        assert measure_ym(amps) == pytest.approx(-1.0, abs=1e-12)

    def test_sampling_eigenstate(self):
        samples = sample_ym(1.0, shots=500, seed=11)
        assert np.array_equal(samples, np.ones(500, dtype=samples.dtype))

    def test_sampling_determinism(self):
        y = measure_ym(run_circuit(IsingParams(4, 1.0, 1.0), TrotterSchedule(4.0, 16)))
        first = sample_ym(y, shots=1000, seed=42)
        second = sample_ym(y, shots=1000, seed=42)
        assert np.array_equal(first, second)
        assert not np.array_equal(first, sample_ym(y, shots=1000, seed=43))

    def test_counts_follow_the_binomial_law(self):
        """Chi-square fits of ``count_ym``'s counts, and of the +1 counts of ``sample_ym``'s
        shots in groups of ``shots``, to the Binomial(shots, p_plus) pmf."""
        shots, reps, floor = 100, 20_000, 1e-3
        p_values = {}
        for i, p_plus in enumerate((0.15, 0.5, 0.85)):
            y = 2.0 * p_plus - 1.0
            counts = circuit.count_ym(y, shots, reps, seed=1500 + i)
            assert counts.dtype == np.int64 and counts.shape == (reps,)
            grouped = (sample_ym(y, shots * reps, seed=2500 + i).reshape(reps, shots) == 1).sum(1)
            for label, observed in (("count_ym", counts), ("sample_ym", grouped)):
                p_values[label, p_plus] = binomial_fit_p_value(observed, shots, p_plus)
        assert min(p_values.values()) >= floor, p_values

    def test_counts_are_deterministic(self):
        first = circuit.count_ym(0.3, 1000, 50, seed=42)
        assert np.array_equal(first, circuit.count_ym(0.3, 1000, 50, seed=42))
        assert not np.array_equal(first, circuit.count_ym(0.3, 1000, 50, seed=43))

    def test_count_edge_cases(self):
        assert circuit.count_ym(1.0, 500, 2, seed=11).tolist() == [500, 500]
        assert circuit.count_ym(-1.0, 500, 2, seed=11).tolist() == [0, 0]
        with pytest.raises(ValueError):
            circuit.count_ym(0.3, 0, 2, seed=11)

    def test_out_of_range_y_is_clamped(self):
        # Roundoff can put <Y> a few ulps past +-1.
        assert circuit.count_ym(1.0 + 1e-15, 100, 1, seed=3).tolist() == [100]
        assert circuit.count_ym(-1.0 - 1e-15, 100, 1, seed=3).tolist() == [0]

    def test_sampling_concentration(self):
        shots = 100_000
        mean = sample_ym(0.0, shots=shots, seed=3).mean()
        assert abs(mean) < 4.0 / np.sqrt(shots)


class TestGatePathEquivalence:
    @pytest.mark.parametrize("n_spins", [4, 8])
    def test_matches_matrix_path(self, n_spins, rng):
        obs = matchgate.observable_b_coefficients(n_spins)
        for steps in (0, 1, 7, 64):
            b_field = float(rng.uniform(0.3, 1.6))
            coupling = float(rng.uniform(0.4, 1.5))
            params = IsingParams(n_spins, field_b=b_field, coupling_j=coupling)
            sch = TrotterSchedule(total_time=float(rng.uniform(0.5, 6.0)), steps=steps)
            gate_val = expectation_b_gate(params, sch)
            rot = adiabatic.adiabatic_rotation(params, sch)
            assert abs(gate_val - matchgate.expectation_quadratic(rot, obs)) < 1e-9

    def test_converged_critical_value(self):
        params = IsingParams(4, field_b=1.0, coupling_j=1.0)
        val = expectation_b_gate(params, TrotterSchedule(total_time=160.0, steps=2048))
        assert abs(val - ising.expected_b(1.0, 4)) < 5e-3

    def test_deep_paramagnet(self):
        params = IsingParams(4, field_b=10.0, coupling_j=1.0)
        val = expectation_b_gate(params, TrotterSchedule(total_time=160.0, steps=8192))
        assert abs(val - ising.expected_b(10.0, 4)) < 5e-3


class TestDumpFormat:
    def test_single_gate_lines(self):
        lines = dump_program((
            Gate("X", (2,)),
            Gate("CX", (0,), controls=(1, 2)),
            Gate("RXX", (3, 4), angle=0.5),
        )).splitlines()
        assert lines == ["X 2", "CX 1,2 -> 0", "RXX(0.5) 3,4"]

    def test_roundtrip_byte_identical(self):
        params = IsingParams(4, field_b=1.0, coupling_j=np.pi / 3.0)
        sch = TrotterSchedule(total_time=2.0, steps=1)
        prog = circuit.full_program(params, sch)
        text = dump_program(prog, params, sch)
        assert dump_program(*parse_program(text)) == text
        assert parse_program(text) == (prog, params, sch)

    def test_header_metadata(self):
        text = dump_program((Gate("X", (0,)),), IsingParams(4, 1.0, 0.5),
                            TrotterSchedule(160.0, 1024))
        assert text.splitlines()[0] == "# N=4 B=1 J=0.5 T=160 L=1024"

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_program("RZ(0.3) 1\n")

    def test_angle_precision_roundtrip(self):
        prog = (Gate("RY", (0,), angle=np.pi / 7.0),)
        parsed, _, _ = parse_program(dump_program(prog))
        assert parsed[0].angle == prog[0].angle
