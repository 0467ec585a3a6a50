"""Schedules, per-step rotations (signs pinned by the dense oracle), products."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from compressed_metrology import adiabatic, circuit, dense, ising, matchgate
from compressed_metrology.adiabatic import TrotterSchedule, adiabatic_rotation, build_schedule
from compressed_metrology.ising import IsingParams
from rotation_oracle import (
    block_rotation,
    direct_rotation,
    gather_rotation,
    h0_generator,
    h1_generator,
    half_spectrum_products,
    r0_rotation,
    r1_rotation,
    shift_matrix,
    su2_tree,
)
from support import (conjugation_rotation, exp_generator, pauli_string, products_longdouble,
                     tau, trotter_error_bound)


class TestSchedule:
    def test_arithmetic(self):
        sch = TrotterSchedule(total_time=12.0, steps=2)
        assert sch.delta == 4.0
        assert sch.taus().tolist() == [0.0, 4.0, 8.0]

    def test_small(self):
        sch = TrotterSchedule(total_time=1.0, steps=1)
        assert sch.delta == 0.5
        assert sch.taus().tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("total_time,steps", [(3.7, 5), (160.0, 1024), (1.0, 99991)])
    def test_interaction_time_sums_to_total(self, total_time, steps):
        sch = TrotterSchedule(total_time=total_time, steps=steps)
        assert math.fsum(sch.taus()) == pytest.approx(total_time, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrotterSchedule(total_time=0.0, steps=4)
        with pytest.raises(ValueError):
            TrotterSchedule(total_time=1.0, steps=-1)

    def test_degenerate_single_step(self):
        assert TrotterSchedule(total_time=2.0, steps=0).taus().tolist() == [0.0]

    @pytest.mark.parametrize("total_time,steps", [
        (1e200, 8),         # Delta^2 overflows
        (1.001e156, 1000),  # Delta^2 = 1e306 is finite, L * Delta^2 is not
    ])
    def test_proxy_past_the_float_range_is_inf(self, total_time, steps):
        assert trotter_error_bound(TrotterSchedule(total_time, steps)) == math.inf

    @pytest.mark.parametrize("steps", [0, 1, 7, 4096])
    def test_taus_range_is_bitwise_slice(self, steps):
        sch = TrotterSchedule(total_time=3.7, steps=steps)
        full = sch.taus()
        assert full.size == steps + 1
        assert full.tolist() == [tau(sch, l) for l in range(steps + 1)]
        for start, stop in [(0, steps + 1), (1, steps + 1), (steps // 2, steps // 2 + 3)]:
            stop = min(stop, steps + 1)
            assert np.array_equal(sch.taus(start, stop), full[start:stop])


class TestBuildSchedule:
    def test_desk_defaults(self):
        sch = build_schedule(4)
        assert sch.total_time == 160.0
        assert sch.steps == 1599

    def test_step_cap(self):
        assert build_schedule(1024).steps == 104857599
        assert build_schedule(64, step_cap=30000).steps == 30000

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_schedule(4, total_time=-1.0)
        with pytest.raises(ValueError):
            build_schedule(4, steps=0)

    @pytest.mark.parametrize("total_time", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_total_time(self, total_time):
        # NaN passes a "<= 0" check, and the default L would read it as an int
        with pytest.raises(ValueError, match="total_time must be positive and finite"):
            TrotterSchedule(total_time, 5)
        for steps in (5, None):
            with pytest.raises(ValueError, match="schedule needs a finite total_time, got T="):
                build_schedule(4, total_time, steps)

    def test_rejects_step_indices_past_the_exact_floats(self):
        # tau(l) reads l as a float: L + 1 = 2^53 is the last exact count
        assert build_schedule(4, steps=2**53 - 1).steps == 2**53 - 1
        with pytest.raises(ValueError, match="L \\+ 1 must be at most 2\\^53, "
                                             "got L=9007199254740992"):
            build_schedule(4, steps=2**53)


class TestGenerators:
    def test_h0_block(self):
        assert np.array_equal(h0_generator(1), np.array([[0.0, 0.5], [-0.5, 0.0]]))

    def test_exact_antisymmetry(self):
        for gen in (h0_generator(4), h1_generator(4)):
            assert np.array_equal(gen, -gen.T)

    def test_h1_is_shift_conjugation(self):
        n = 4
        shift = shift_matrix(2 * n)
        assert np.allclose(h1_generator(n), shift @ h0_generator(n) @ shift.T, atol=1e-15)

    def test_h1_spectrum_and_distinctness(self):
        n = 2
        evals = np.sort_complex(np.linalg.eigvals(h1_generator(n)))
        assert np.allclose(np.abs(evals.imag), 0.5, atol=1e-12)
        assert not np.array_equal(h1_generator(n), h0_generator(n))

    def test_shift_order(self):
        shift = shift_matrix(8)
        assert np.array_equal(np.linalg.matrix_power(shift, 8), np.eye(8))
        assert not np.array_equal(np.linalg.matrix_power(shift, 4), np.eye(8))

    def test_quarter_turn_block(self):
        # exp(4 c h0) rotates every cell by 2c: a quarter turn at c = pi/4
        rot = exp_generator(np.pi / 4.0 * h0_generator(2))
        expected = block_rotation(2, np.pi / 2.0)
        assert np.abs(rot - expected).max() < 1e-15


class TestStepRotations:
    def test_r0_zero_field(self):
        sch = TrotterSchedule(total_time=1.0, steps=3)
        assert np.array_equal(r0_rotation(0.0, sch, 4), np.eye(8))

    def test_r0_closed_form_vs_expm(self):
        sch = TrotterSchedule(total_time=2.1, steps=4)
        field_b = 0.8
        rot = r0_rotation(field_b, sch, 2)
        assert np.abs(rot - expm(4.0 * field_b * sch.delta * h0_generator(2))).max() < 1e-13
        assert np.abs(rot @ rot.T - np.eye(4)).max() < 1e-12

    def test_r0_sign_pinned_by_dense_conjugation(self):
        # U0 = exp(i B Delta H0) acts on Majoranas as R0 = exp(+4 B Delta h0).
        n, b_delta = 2, 0.3
        field = sum(pauli_string(n, {j: "Z"}) for j in range(n))
        rot_ref = conjugation_rotation(n, expm(1j * b_delta * field))
        sch = TrotterSchedule(total_time=b_delta, steps=0)
        assert np.abs(r0_rotation(1.0, sch, n) - rot_ref).max() < 1e-12

    def test_r1_trivial_at_step_zero(self):
        sch = TrotterSchedule(total_time=3.0, steps=5)
        assert np.array_equal(r1_rotation(1.3, 0, sch, 4), np.eye(8))

    def test_r1_final_step_angle(self):
        sch = TrotterSchedule(total_time=3.0, steps=5)
        coupling = 0.7
        rot = r1_rotation(coupling, 5, sch, 4)
        shift = shift_matrix(8)
        expected = shift @ block_rotation(4, 2.0 * coupling * sch.delta) @ shift.T
        assert np.abs(rot - expected).max() < 1e-14

    def test_r1_sign_pinned_by_dense_conjugation(self):
        # U1 = exp(i theta H1) with H1 = sum XX (wrapped) gives exp(+4 theta h1).
        n, theta = 2, 0.41
        ham1 = dense.build_hamiltonian(IsingParams(n, field_b=0.0, coupling_j=-1.0))
        rot_ref = conjugation_rotation(n, expm(1j * theta * ham1))
        assert np.abs(expm(4.0 * theta * h1_generator(n)) - rot_ref).max() < 1e-12


class TestAdiabaticRotation:
    def test_pure_field_collapses(self):
        params = IsingParams(4, field_b=0.9, coupling_j=0.0)
        sch = TrotterSchedule(total_time=2.0, steps=6)
        rot = adiabatic_rotation(params, sch)
        expected = block_rotation(4, 2.0 * 0.9 * sch.delta * (sch.steps + 1))
        assert np.abs(rot - expected).max() < 1e-12

    def test_single_step_is_r0(self):
        params = IsingParams(4, field_b=1.1, coupling_j=0.7)
        sch = TrotterSchedule(total_time=2.0, steps=0)
        assert np.abs(adiabatic_rotation(params, sch) - r0_rotation(1.1, sch, 4)).max() < 1e-14

    def test_ordering_pinned_by_explicit_product(self):
        # Step l applies R0 then R1(l); l ascending, so l = 0 is right-most.
        params = IsingParams(4, field_b=0.8, coupling_j=1.2)
        sch = TrotterSchedule(total_time=1.7, steps=2)
        r0 = r0_rotation(params.field_b, sch, 4)
        explicit = np.eye(8)
        for l in (0, 1, 2):
            explicit = r1_rotation(params.coupling_j, l, sch, 4) @ r0 @ explicit
        assert np.abs(adiabatic_rotation(params, sch) - explicit).max() < 1e-13
        assert np.abs(direct_rotation(params, sch) - explicit).max() < 1e-13

    def test_orthogonality(self):
        params = IsingParams(8, field_b=1.0, coupling_j=1.0)
        rot = adiabatic_rotation(params, TrotterSchedule(total_time=40.0, steps=257))
        matchgate.assert_rotation(rot)

    def test_commuting_interaction_hook(self):
        params = IsingParams(4, field_b=0.6, coupling_j=1.1)
        sch = TrotterSchedule(total_time=2.0, steps=5)
        rot = direct_rotation(params, sch, shifted=False)
        total = 2.0 * 0.6 * sch.delta * (sch.steps + 1) + 1.1 * math.fsum(sch.taus())
        assert np.abs(rot - block_rotation(4, total)).max() < 1e-12

    @pytest.mark.parametrize("n_spins", [4, 8, 16])
    @pytest.mark.parametrize("steps", [64, 333, 4097])
    def test_momentum_equals_direct(self, n_spins, steps):
        params = IsingParams(n_spins, field_b=1.1, coupling_j=0.9)
        sch = TrotterSchedule(total_time=5.0, steps=steps)
        assert np.abs(adiabatic_rotation(params, sch) - direct_rotation(params, sch)).max() < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        n_spins=st.sampled_from([2, 4, 8, 16, 32]),
        b_field=st.floats(-3.0, 3.0),
        coupling=st.floats(-3.0, 3.0),
        total_time=st.floats(0.01, 50.0),
        steps=st.integers(0, 5000),
    )
    @example(n_spins=2, b_field=1.3, coupling=0.7, total_time=2.0, steps=0)
    @example(n_spins=32, b_field=-0.4, coupling=1.9, total_time=7.5, steps=1)
    def test_matches_direct_product(self, n_spins, b_field, coupling, total_time, steps):
        params = IsingParams(n_spins, field_b=b_field, coupling_j=coupling)
        sch = TrotterSchedule(total_time=total_time, steps=steps)
        assert np.abs(adiabatic_rotation(params, sch) - direct_rotation(params, sch)).max() <= 1e-12

    @pytest.mark.parametrize("n_spins", [16, 32])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_chunk_boundaries(self, n_spins, offset):
        # L + 1 steps one short of, equal to and one past a whole chunk
        chunk = adiabatic._chunk_blocks(n_spins // 2 + 1, 1)
        params = IsingParams(n_spins, field_b=0.9, coupling_j=1.3)
        sch = TrotterSchedule(total_time=20.0, steps=chunk + offset - 1)
        assert np.abs(adiabatic_rotation(params, sch) - direct_rotation(params, sch)).max() < 1e-12

    @pytest.mark.parametrize("n_spins", [2, 4, 64, 256])
    def test_back_transform_is_bitwise_gather(self, n_spins):
        # the strided view against the offset-table gather of the same products
        params = IsingParams(n_spins, field_b=0.9, coupling_j=1.3)
        sch = TrotterSchedule(total_time=20.0, steps=333)
        q = 2.0 * np.pi * np.arange(n_spins // 2 + 1) / n_spins
        want = gather_rotation(*adiabatic._momentum_products(params, sch, q))
        assert adiabatic_rotation(params, sch).tobytes() == want.tobytes()


class TestWorkingMemory:
    """tracemalloc peaks of one call (numpy reports its buffers to tracemalloc).

    The product's buffers are a few chunks of _CHUNK_ENTRIES complex entries
    whatever N and L are, so a budget of 12 such arrays bounds it, and the
    rotation adds only its (2N)^2 float64 output on top.
    """

    @staticmethod
    def peak_bytes(fn, *args) -> int:
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @property
    def budget(self) -> int:
        return 12 * 16 * adiabatic._CHUNK_ENTRIES

    # a block's grid row, m (m + 1) entries, is wider than its N/2 + 1 momenta at each
    @pytest.mark.parametrize("n_spins", [64, 256, 1024])
    def test_rotation_holds_its_output_and_chunks(self, n_spins):
        params = IsingParams(n_spins, field_b=1.0, coupling_j=1.0)
        sch = TrotterSchedule(total_time=0.3 * n_spins**2, steps=4096)
        output = (2 * n_spins) ** 2 * 8
        assert self.peak_bytes(adiabatic_rotation, params, sch) <= output + self.budget

    def test_kernel_does_not_grow_with_steps(self):
        params = IsingParams(16, field_b=1.0, coupling_j=1.0)
        sch = TrotterSchedule(total_time=2560.0, steps=10 * adiabatic._CHUNK_ENTRIES)
        assert self.peak_bytes(adiabatic.momentum_b, params, sch) <= self.budget


def traced_products(
    params: IsingParams, sch: TrotterSchedule, q: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray], list[int]]:
    """``_momentum_products`` and the first step of each chunk it streams, read from its
    one ``taus`` call per chunk."""
    with mock.patch.object(TrotterSchedule, "taus", autospec=True,
                           side_effect=TrotterSchedule.taus) as taus:
        products = adiabatic._momentum_products(params, sch, q)
    return products, [call.args[1] for call in taus.call_args_list]


def assert_near_boundary(starts: list[int], steps: int, span: int, offset: int) -> None:
    """The kernel starts a chunk every ``span`` steps, and L + 1 lies ``offset`` from a
    multiple of ``span``: one short of, equal to or one past a chunk boundary."""
    assert starts == list(range(0, steps + 1, span))
    assert (steps + 1 - offset) % span == 0


def assert_matches_plain(got: np.ndarray, want: np.ndarray) -> None:
    """Byte for byte where the product runs one step per block (m = 1), else within 1e-11."""
    if adiabatic._block_size(got.size) == 1:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.abs(got - want).max() <= 1e-11


class TestBufferedProduct:
    """The buffered product against its plain form in ``rotation_oracle``: byte for byte
    (stricter than equal values: the sign of every zero must match too) where it
    runs one step per block, within 1e-11 where it runs blocks of m > 1 steps."""

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 1025), modes=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    @example(rows=1, modes=3, seed=0)
    @example(rows=1024, modes=2, seed=1)
    @example(rows=1025, modes=2, seed=2)
    def test_tree_is_bitwise_plain(self, rows, modes, seed):
        # Unit-norm blocks keep every partial product finite, so the bytes
        # compared are numbers, not overflowed inf or nan.
        gen = np.random.default_rng(seed)
        a, b = gen.normal(size=(2, rows, modes)) + 1j * gen.normal(size=(2, rows, modes))
        norm = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
        a, b = a / norm, b / norm
        plain_a, plain_b = su2_tree(a, b)
        layout = adiabatic._tree_layout(rows)
        buffers = [np.empty(((rows + 1) // 2, modes), dtype=complex) for _ in range(3)]
        tree_a, tree_b = adiabatic._su2_tree(a[layout], b[layout], *buffers)
        assert np.isfinite(plain_a).all() and np.isfinite(plain_b).all()
        assert tree_a.tobytes() == plain_a.tobytes() and tree_b.tobytes() == plain_b.tobytes()

    def test_tree_layout_reads_halves(self):
        for rows in range(1, 4098):
            layout = adiabatic._tree_layout(rows)
            assert np.array_equal(np.sort(layout), np.arange(rows))
            assert layout[-1] == rows - 1
            # At every level the pair (2i, 2i + 1) of the level's rows sits at
            # storage (p, p + half); the pair's product is the next level's row
            # i, stored at p, and the odd leftover stays last.
            level = layout
            while level.size > 1:
                half = level.size // 2
                assert (level[:half] % 2 == 0).all()
                assert np.array_equal(level[half:2 * half], level[:half] + 1)
                level = np.concatenate([level[:half] // 2, level[2 * half:] // 2])

    @settings(max_examples=40, deadline=None)
    @given(
        n_spins=st.sampled_from([2, 4, 8, 16, 32, 64, 256]),
        chunk_entries=st.integers(1, 4096),
        chunks=st.integers(1, 3),
        offset=st.sampled_from([-1, 0, 1]),
        b_field=st.floats(-3.0, 3.0),
        coupling=st.floats(-3.0, 3.0),
    )
    @example(n_spins=8, chunk_entries=5, chunks=1, offset=-1, b_field=0.9, coupling=1.3)
    @example(n_spins=64, chunk_entries=70, chunks=3, offset=1, b_field=0.9, coupling=1.3)
    def test_products_are_bitwise_plain(self, n_spins, chunk_entries, chunks, offset,
                                        b_field, coupling):
        # L + 1 steps one short of, equal to and one past whole chunks, for
        # chunks of one row (or block) up to many
        modes = n_spins // 2 + 1
        m = adiabatic._block_size(modes)
        params = IsingParams(n_spins, field_b=b_field, coupling_j=coupling)
        q = 2.0 * np.pi * np.arange(modes) / n_spins
        with mock.patch.object(adiabatic, "_CHUNK_ENTRIES", chunk_entries):
            chunk = adiabatic._chunk_blocks(modes, m) * m
            steps = max(0, chunks * chunk + offset - 1)
            sch = TrotterSchedule(total_time=20.0, steps=steps)
            plain = half_spectrum_products(params, sch)
            buffered, starts = traced_products(params, sch, q)
        assert_near_boundary(starts, steps, chunk, offset)
        for got, want in zip(buffered, plain):
            assert_matches_plain(got, want)

    @pytest.mark.parametrize("n_spins", [32, 64, 128, 256])
    @pytest.mark.parametrize("steps", [0, 4095, 30000])
    def test_full_chunks_are_bitwise_plain(self, n_spins, steps):
        params = IsingParams(n_spins, field_b=0.7, coupling_j=1.0)
        sch = TrotterSchedule(total_time=10.0 * n_spins, steps=steps)
        q = 2.0 * np.pi * np.arange(n_spins // 2 + 1) / n_spins
        for got, want in zip(adiabatic._momentum_products(params, sch, q),
                             half_spectrum_products(params, sch)):
            assert_matches_plain(got, want)


class TestBlockedProduct:
    """Blocks of m > 1 steps, evaluated on a 2m-point grid and interpolated to the momenta."""

    def test_block_sizes(self):
        # one momentum and N <= 32 keep one step per block, and their bits;
        # from N = 64 on m is the largest power of two with m^2 <= 2 (N/2 + 1)
        sizes = [adiabatic._block_size(2**k // 2 + 1) for k in range(1, 13)]
        assert sizes == [1, 1, 1, 1, 1, 8, 8, 16, 16, 32, 32, 64]
        assert adiabatic._block_size(1) == 1

    @pytest.mark.parametrize("m,n_spins",
                             [(2, 4), (4, 64), (8, 256), (16, 1024), (32, 1024), (64, 4096)])
    def test_interpolation_reproduces_trig_polynomials(self, m, n_spins):
        # Random real polynomials in both windows, a's (top m - 1) and b's
        # (top m), through one shared wrap buffer in turn, so that an entry
        # left over from the other window would show.
        gen = np.random.default_rng(m)
        rows, modes = 5, n_spins // 2 + 1
        coef, wrap = np.empty((rows, 2 * m)), np.zeros((rows, n_spins))
        k = np.arange(modes)
        for top in (m, m - 1, m, m - 1):
            powers = np.arange(top - 2 * m + 1, top + 1)
            c = gen.normal(size=(rows, 2 * m)) / math.sqrt(2 * m)
            grid = c @ np.exp(1j * np.pi * np.outer(powers, np.arange(m + 1)) / m)
            # e^{i p q_k} with p k reduced mod N in integers
            want = c @ np.exp(2j * np.pi * (np.outer(powers, k) % n_spins) / n_spins)
            got = np.empty((rows, modes), dtype=complex)
            adiabatic._interpolate(grid, top, coef, wrap, got)
            # both sides round sums of 2m terms, so the error grows with m
            assert np.abs(got - want).max() < 1e-14 * max(1, m / 16)

    @pytest.mark.parametrize("n_spins", [64, 256])
    @pytest.mark.parametrize("boundary", ["block", "chunk"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_block_and_chunk_boundaries(self, n_spins, boundary, offset):
        # L + 1 one short of, equal to and one past a whole block (the last
        # block padded with identity steps) and two whole chunks of blocks, so
        # that the chunk starts show where the first chunk ends
        modes = n_spins // 2 + 1
        m = adiabatic._block_size(modes)
        chunk = adiabatic._chunk_blocks(modes, m) * m
        whole = 5 * m if boundary == "block" else 2 * chunk
        params = IsingParams(n_spins, field_b=0.9, coupling_j=1.3)
        sch = TrotterSchedule(total_time=20.0, steps=whole + offset - 1)
        q = 2.0 * np.pi * np.arange(modes) / n_spins
        products, starts = traced_products(params, sch, q)
        if boundary == "block":  # inside the first chunk
            assert starts == [0] and (sch.steps + 1 - offset) % m == 0
        else:
            assert_near_boundary(starts, sch.steps, chunk, offset)
        for got, want in zip(products, half_spectrum_products(params, sch)):
            assert np.abs(got - want).max() <= 1e-11

    def test_rotation_at_512_spins(self):
        params = IsingParams(512, field_b=1.0, coupling_j=1.0)
        sch = TrotterSchedule(total_time=0.3 * 512**2, steps=30000)
        rot = adiabatic_rotation(params, sch)
        matchgate.assert_rotation(rot)
        assert abs(matchgate.expectation_quadratic(rot, matchgate.observable_b_coefficients(512))
                   - adiabatic.momentum_b(params, sch)) < 1e-12

    def test_products_at_1024_spins(self):
        # blocks of m = 32 against the plain product, and <B> from their k = 1
        # entry, (1 - Re(a^2 + b^2))/2, against the one-momentum kernel
        params = IsingParams(1024, field_b=1.0, coupling_j=1.0)
        sch = TrotterSchedule(total_time=0.3 * 1024**2, steps=30000)
        q = 2.0 * np.pi * np.arange(513) / 1024
        assert adiabatic._block_size(q.size) == 32
        a, b = adiabatic._momentum_products(params, sch, q)
        for got, want in zip((a, b), half_spectrum_products(params, sch)):
            assert np.abs(got - want).max() <= 1e-11
        b_value = 0.5 * (1.0 - (a[1] * a[1] + b[1] * b[1]).real)
        assert abs(b_value - adiabatic.momentum_b(params, sch)) < 1e-12


class TestMomentumKernel:
    """<B> from the one SU(2) product at q = 2 pi / N against the gate runner and the rotation."""

    @pytest.mark.parametrize("n_spins", [4, 8, 16, 32, 64, 256, 1024])
    @pytest.mark.parametrize("g", [0.7, 1.0, 1.3])
    def test_matches_gate_runner(self, n_spins, g):
        params = IsingParams(n_spins, field_b=g, coupling_j=1.0)
        for steps in (0, 1, 7, 4096):
            sch = TrotterSchedule(total_time=10.0 * n_spins**2, steps=steps)
            assert abs(adiabatic.momentum_b(params, sch)
                       - circuit.expectation_b_gate(params, sch)) < 1e-12

    @pytest.mark.parametrize("n_spins", [8, 64])
    @pytest.mark.parametrize("offset", [0, 1])
    def test_matches_gate_runner_across_a_chunk(self, n_spins, offset):
        # L + 1 steps filling one whole single-momentum chunk, and one past it
        params = IsingParams(n_spins, field_b=1.0, coupling_j=1.0)
        sch = TrotterSchedule(total_time=10.0 * n_spins**2,
                              steps=adiabatic._chunk_blocks(1, 1) - 1 + offset)
        assert abs(adiabatic.momentum_b(params, sch)
                   - circuit.expectation_b_gate(params, sch)) < 1e-12

    @pytest.mark.parametrize("n_spins", [4, 16, 64, 256])
    @pytest.mark.parametrize("g", [0.7, 1.0, 1.3])
    def test_matches_rotation(self, n_spins, g):
        params = IsingParams(n_spins, field_b=g, coupling_j=1.0)
        mode = matchgate.observable_b_coefficients(n_spins)
        for steps in (0, 3, 2000):
            sch = TrotterSchedule(total_time=10.0 * n_spins**2, steps=steps)
            rot = adiabatic_rotation(params, sch)
            assert abs(adiabatic.momentum_b(params, sch)
                       - matchgate.expectation_quadratic(rot, mode)) < 1e-13

    @pytest.mark.parametrize("steps", [0, 65535, 200_000])
    def test_product_is_unitary(self, steps):
        params = IsingParams(16, field_b=0.9, coupling_j=1.1)
        sch = TrotterSchedule(total_time=2560.0, steps=steps)
        a, b = adiabatic._momentum_products(params, sch, np.array([2.0 * np.pi / 16]))
        assert a.shape == b.shape == (1,)
        assert abs(abs(a[0]) ** 2 + abs(b[0]) ** 2 - 1.0) < 1e-14


def test_long_double_is_wider_than_float64():
    # products_longdouble is an independent oracle only if it carries more bits
    assert np.finfo(np.longdouble).nmant > np.finfo(np.float64).nmant


@pytest.mark.slow
class TestLongDoubleOracle:
    """The float64 products against ``support.products_longdouble`` on the same angles."""

    @pytest.mark.parametrize("n_spins", [16, 256, 1024])
    @pytest.mark.parametrize("shift", [-4, 0, 4])
    def test_momentum_b(self, n_spins, shift):
        # The linear ramp at T = 0.3 N^2 with Delta ~ 0.3, L = N^2
        params = IsingParams(n_spins, field_b=1.0 + shift / n_spins, coupling_j=1.0)
        self.assert_momentum_b(params, TrotterSchedule(total_time=0.3 * n_spins**2,
                                                       steps=n_spins**2))

    def test_momentum_b_over_ten_million_steps(self):
        self.assert_momentum_b(IsingParams(1024, field_b=1.0, coupling_j=1.0),
                               TrotterSchedule(total_time=0.3 * 1024**2, steps=10**7))

    @staticmethod
    def assert_momentum_b(params, sch):
        a, b = products_longdouble(params, sch, np.array([2.0 * np.pi / params.n_spins]))
        exact = 0.5 * (1 - (a[0] * a[0] + b[0] * b[0]).real)
        assert abs(adiabatic.momentum_b(params, sch) - exact) < 1e-13

    @pytest.mark.parametrize("n_spins", [32, 64, 256])
    @pytest.mark.parametrize("g", [0.5, 1.0, 1.4])
    def test_products(self, n_spins, g):
        # the rotation-scan schedule: T = 10 N^2, L = 30000
        params = IsingParams(n_spins, field_b=g, coupling_j=1.0)
        sch = build_schedule(n_spins, steps=30000)
        q = 2.0 * np.pi * np.arange(n_spins // 2 + 1) / n_spins
        for got, want in zip(adiabatic._momentum_products(params, sch, q),
                             products_longdouble(params, sch, q)):
            assert np.abs(got - want).max() < 1e-11


class TestTrotterErrorProxy:
    def test_arithmetic(self):
        assert trotter_error_bound(TrotterSchedule(total_time=12.0, steps=2)) == 32.0

    def test_doubling_halves_proxy(self):
        coarse = trotter_error_bound(TrotterSchedule(total_time=10.0, steps=100))
        fine = trotter_error_bound(TrotterSchedule(total_time=10.0, steps=200))
        assert fine == pytest.approx(coarse / 2.0, rel=0.02)

    def test_error_tracks_proxy(self):
        # Once the per-step angles stop wrapping (2 B Delta < pi/2), the
        # measured bias decreases together with the proxy.
        params = IsingParams(4, field_b=1.0, coupling_j=1.0)
        obs = matchgate.observable_b_coefficients(4)
        target = ising.expected_b(1.0, 4)
        errors, proxies = [], []
        for steps in (256, 512, 1024, 2048, 4096):
            sch = TrotterSchedule(total_time=160.0, steps=steps)
            val = matchgate.expectation_quadratic(adiabatic_rotation(params, sch), obs)
            errors.append(abs(val - target))
            proxies.append(trotter_error_bound(sch))
        assert all(p2 < p1 for p1, p2 in zip(proxies, proxies[1:]))
        assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))


@pytest.mark.slow
@pytest.mark.parametrize("n_spins", [4, 8])
@pytest.mark.parametrize("g", [0.8, 1.0, 1.2])
def test_desk_scale_adiabatic_correctness(n_spins, g):
    """T = 10 N^2 with the proxy L Delta^2 < 1e-2 lands within 1e-2 of the curve."""
    total_time = 10.0 * n_spins**2
    steps = int(100 * total_time**2)
    sch = TrotterSchedule(total_time=total_time, steps=steps)
    assert trotter_error_bound(sch) < 1e-2
    params = IsingParams(n_spins, field_b=g, coupling_j=1.0)
    rot = adiabatic_rotation(params, sch)
    matchgate.assert_rotation(rot)
    val = matchgate.expectation_quadratic(rot, matchgate.observable_b_coefficients(n_spins))
    assert abs(val - ising.expected_b(g, n_spins)) < 1e-2
