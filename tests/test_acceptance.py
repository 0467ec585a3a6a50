"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is pinned
here, not configurable.  Criterion 4 pins the magnetization's closed-form law
dg^2 -> pi^2/(N ln^2 N).  Criterion 5 encodes its stated thresholds verbatim
even though the first-order step product misses them at the stated L = 1024
by ~1.7x: the overlap through the product's trailing half field step, the
<B> bias through the Delta^2 shift of the one-step Floquet ground state
(README); the numbers are printed so the miss is auditable, and the passing
L = 2048 setting is asserted alongside as non-acceptance context.
"""

import math
import time

import numpy as np

from compressed_metrology import adiabatic, circuit, dense, ising, matchgate, metrology
from compressed_metrology.adiabatic import TrotterSchedule
from compressed_metrology.cli import estimation_run
from compressed_metrology.ising import IsingParams
from rotation_oracle import direct_rotation
from support import program_permutation, trotter_error_bound


def _report(capsys, criterion: str, ok: bool, elapsed: float, detail: str) -> None:
    # bypass capture so the one-line-per-criterion report always shows
    with capsys.disabled():
        print(f"\nacceptance {criterion}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) {detail}")


def test_criterion_1_analytic_vs_oracle(capsys):
    """Dense even-parity ground-state <B>, <M> match the closed forms to 1e-9."""
    start = time.perf_counter()
    worst = 0.0
    for n in (4, 8):
        b_op = dense.observable_b_dense(n)
        m_op = dense.observable_m_dense(n)
        for g in (0.5, 0.8, 1.0, 1.2, 1.5):
            state = dense.ground_state_even(IsingParams(n, field_b=g, coupling_j=1.0))
            worst = max(
                worst,
                abs(dense.expectation(state, b_op) - ising.expected_b(g, n)),
                abs(dense.expectation(state, m_op) - ising.expected_m(g, n)),
            )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 10.0
    _report(capsys, "1 (analytic vs oracle)", ok, elapsed, f"max deviation {worst:.2e}")
    assert worst < 1e-9
    assert elapsed < 10.0


def test_criterion_2_compression_equivalence(capsys):
    """Gate path == matrix path to 1e-9 (N in {4, 8}, L <= 64); dense agrees at N=4."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_gate = 0.0
    for n in (4, 8):
        obs = matchgate.observable_b_coefficients(n)
        for steps in (0, 3, 17, 64):
            for _ in range(2):
                params = IsingParams(n, field_b=float(rng.uniform(0.2, 1.8)),
                                     coupling_j=float(rng.uniform(0.3, 1.6)))
                sch = TrotterSchedule(total_time=float(rng.uniform(0.5, 8.0)), steps=steps)
                gate_val = circuit.expectation_b_gate(params, sch)
                rot = adiabatic.adiabatic_rotation(params, sch)
                matrix_val = matchgate.expectation_quadratic(rot, obs)
                worst_gate = max(worst_gate, abs(gate_val - matrix_val))
                if n == 4:
                    state = dense.trotter_evolve(params, sch)
                    dense_val = dense.expectation(state, dense.observable_b_dense(4))
                    worst_gate = max(worst_gate, abs(dense_val - matrix_val))
    elapsed = time.perf_counter() - start
    ok = worst_gate < 1e-9 and elapsed < 60.0
    _report(capsys, "2 (compression equivalence)", ok, elapsed, f"max pairwise delta {worst_gate:.2e}")
    assert worst_gate < 1e-9
    assert elapsed < 60.0


def test_criterion_3_heisenberg_scaling(capsys):
    """Slope of log dg^2(B) vs log N in [-2.1, -1.9]; Var B within 2% of 1/4 for N >= 64."""
    start = time.perf_counter()
    sizes = [2**k for k in range(3, 11)]
    delta_g_sq = [metrology.precision_b(1.0, n) for n in sizes]
    fit = metrology.fit_power_law(sizes, delta_g_sq)
    var_devs = [abs(ising.variance_b(1.0, n) - 0.25) / 0.25 for n in sizes if n >= 64]
    band = [v * n**2 for v, n in zip(delta_g_sq, sizes) if n >= 32]
    elapsed = time.perf_counter() - start
    ok = -2.1 <= fit.slope <= -1.9 and max(var_devs) < 0.02 and elapsed < 5.0
    _report(capsys, "3 (Heisenberg scaling)", ok, elapsed,
            f"slope {fit.slope:.4f}, max Var deviation {max(var_devs):.2%}, "
            f"dg^2*N^2 in [{min(band):.3f}, {max(band):.3f}] (-> 4 pi^2 = {4 * math.pi**2:.3f})")
    assert -2.1 <= fit.slope <= -1.9
    assert max(var_devs) < 0.02
    assert min(band) > 0.0 and max(band) / min(band) < 1.05
    assert elapsed < 5.0


def test_criterion_4_magnetization_suboptimality(capsys):
    """M at g=1 over N in {256..8192}: slope in [-1.35, -1.0] and dg^2*N*log^2 N flat to 10%.

    At g = 1 the closed forms give Var M * N = 1 - 2/N and
    d<M>/dg -> (ln N + gamma + ln(2/pi) - 1)/pi, so dg^2 -> pi^2/(N ln^2 N):
    dg^2*N*log^2 N is the product that flattens (+-6.6% over this window,
    approaching pi^2).  The former +-25% window on dg^2*N*log N is replaced by
    this 10% window on the log^2 product, because dg^2*N*log N falls like
    pi^2/ln N and drifts +-29.9% here (printed as context).  A 1/(N log N) law
    would drift the log^2 product by +-24%, past the window, and a 1/N^2 law
    would leave the slope window.
    """
    start = time.perf_counter()
    sizes = [2**k for k in range(8, 14)]
    delta_g_sq = [metrology.precision_m(1.0, n) for n in sizes]
    fit = metrology.fit_power_law(sizes, delta_g_sq)
    flat_log1 = [v * n * math.log(n) for v, n in zip(delta_g_sq, sizes)]
    mid1 = 0.5 * (max(flat_log1) + min(flat_log1))
    dev1 = (max(flat_log1) - mid1) / mid1
    dev2 = metrology.magnetization_flatness(sizes, delta_g_sq)
    slope_ok = -1.35 <= fit.slope <= -1.0
    elapsed = time.perf_counter() - start
    ok = slope_ok and dev2 <= 0.10 and elapsed < 5.0
    _report(capsys, "4 (magnetization suboptimality)", ok, elapsed,
            f"slope {fit.slope:.4f} ({'ok' if slope_ok else 'out'}), "
            f"N*log^2N flatness {dev2:+.1%} (limit 10%), N*logN drift {dev1:+.1%}")
    assert slope_ok
    assert dev2 <= 0.10, (
        f"delta_g^2 * N * log^2 N varies by {dev2:+.1%} over N in 256..8192, above the "
        f"10% window; the single-log product drifts by {dev1:+.1%}"
    )
    assert elapsed < 5.0


def test_criterion_5_adiabatic_preparation(capsys):
    """N=4, g=1, T=160, L=1024: |<B>_circuit - 0.1464466| < 5e-3 and overlap^2 > 0.99.

    Measured at exactly these settings the first-order step product gives a
    bias of 8.7e-3 and squared overlap 0.9873: both thresholds are missed by
    ~1.7x and this test fails honestly.  The capability itself is fine: at
    L = 2048 (same T) the bias is 2.8e-3 and the squared overlap 0.9969, both
    asserted below, and the proxy-monotonicity trend holds.  Both misses are
    set by the step size, not accumulated over the run: the overlap by the
    trailing half field step, the bias by the Delta^2 shift of the one-step
    Floquet ground state.  ``demos/adiabatic_convergence.py`` shows
    1 - overlap^2 falling ~4x per doubling of L and the bias settling at the
    T = 160 adiabatic floor of 2.9e-4 by L = 262144.
    """
    start = time.perf_counter()
    params = IsingParams(4, field_b=1.0, coupling_j=1.0)
    target = 0.1464466
    ground = dense.ground_state_even(params)

    stated = TrotterSchedule(total_time=160.0, steps=1024)
    bias_stated = abs(circuit.expectation_b_gate(params, stated) - target)
    overlap_stated = abs(np.vdot(ground, dense.trotter_evolve(params, stated))) ** 2

    converged = TrotterSchedule(total_time=160.0, steps=2048)
    bias_converged = abs(circuit.expectation_b_gate(params, converged) - target)
    overlap_converged = abs(np.vdot(ground, dense.trotter_evolve(params, converged))) ** 2

    # Proxy monotonicity: once per-step angles stop wrapping, the measured
    # error falls together with the proxy L * Delta^2.
    errors, proxies = [], []
    obs = matchgate.observable_b_coefficients(4)
    for steps in (256, 512, 1024, 2048, 4096):
        sch = TrotterSchedule(total_time=160.0, steps=steps)
        rot = adiabatic.adiabatic_rotation(params, sch)
        errors.append(abs(matchgate.expectation_quadratic(rot, obs) - target))
        proxies.append(trotter_error_bound(sch))
    monotone = all(e2 < e1 for e1, e2 in zip(errors, errors[1:])) and all(
        p2 < p1 for p1, p2 in zip(proxies, proxies[1:])
    )

    elapsed = time.perf_counter() - start
    ok = bias_stated < 5e-3 and overlap_stated > 0.99 and monotone and elapsed < 300.0
    _report(capsys, "5 (adiabatic preparation)", ok, elapsed,
            f"bias at L=1024 {bias_stated:.2e} (limit 5e-3), overlap^2 {overlap_stated:.5f} "
            f"(limit 0.99); at L=2048 bias {bias_converged:.2e}, overlap^2 {overlap_converged:.5f}; "
            f"proxy monotonicity {'ok' if monotone else 'broken'}")
    assert monotone
    assert bias_converged < 5e-3 and overlap_converged > 0.99
    assert elapsed < 300.0
    assert bias_stated < 5e-3 and overlap_stated > 0.99, (
        f"stated schedule misses both thresholds: bias {bias_stated:.3e} (limit 5e-3), "
        f"overlap^2 {overlap_stated:.5f} (limit 0.99); L >= 1536 at the same T meets them"
    )


def test_criterion_6_end_to_end_estimation(capsys):
    """N=16, g*=1, nu=1e4, 200 reps: MSE within 2x of prediction; never
    (significantly) below the Cramer-Rao bound at the dense cross-check sizes."""
    start = time.perf_counter()
    main_run = estimation_run(
        16, 1.0, TrotterSchedule(total_time=2560.0, steps=2**16),
        shots=10_000, reps=200, seed=20240811, window=(0.5, 1.5),
    )
    ratio = main_run["mse_over_prediction"]

    # The bound is exactly saturated by this estimator at N=4, so the finite-
    # sample MSE estimate is compared against the bound minus 3 Monte-Carlo
    # standard errors (a sharp bound cannot be tested tighter than that).
    cross_ok = True
    cross_detail = []
    for n, total_time, steps in ((4, 160.0, 2048), (8, 640.0, 8192)):
        run = estimation_run(n, 1.0, TrotterSchedule(total_time, steps),
                             shots=10_000, reps=200, seed=7, window=(0.5, 1.5))
        floor = (1.0 - 1e-6) * run["cramer_rao_bound"] - 3.0 * run["mse_std_error"]
        cross_ok &= run["empirical_mse"] >= floor
        cross_detail.append(f"N={n}: mse/crb {run['empirical_mse'] / run['cramer_rao_bound']:.3f}")

    elapsed = time.perf_counter() - start
    ok = 0.5 <= ratio <= 2.0 and cross_ok and elapsed < 300.0
    _report(capsys, "6 (end-to-end estimation)", ok, elapsed,
            f"MSE/prediction {ratio:.3f}; {'; '.join(cross_detail)}")
    assert 0.5 <= ratio <= 2.0
    assert cross_ok
    assert elapsed < 300.0


def test_criterion_7_structural_exactness(capsys):
    """Shift ladder exact for m <= 5; A^{2N}=I; m+1 controlled gates; sum tau = T;
    rotation invariants hold for representative products, which match the
    step-by-step product to 1e-12 where it is run."""
    start = time.perf_counter()
    shift_exact = True
    for m in range(1, 6):
        program = circuit.decompose_shift(m)
        img = program_permutation(program, m + 1)
        dim = 1 << (m + 1)
        shift_exact &= np.array_equal(img, (np.arange(dim) + 1) % dim)
        shift_exact &= len(program) == m + 1
        cycle = np.arange(dim)
        for _ in range(dim):
            cycle = img[cycle]
        shift_exact &= np.array_equal(cycle, np.arange(dim))

    tau_ok = True
    for total_time, steps in ((160.0, 1024), (3.7, 5), (2560.0, 65536)):
        sch = TrotterSchedule(total_time=total_time, steps=steps)
        tau_ok &= abs(math.fsum(sch.taus()) - total_time) < 1e-9 * total_time

    # The two shorter products also run through the step-by-step oracle,
    # which must satisfy the invariants and agree with the production path.
    rotations_ok = True
    oracle_delta = 0.0
    for n, steps, with_oracle in ((4, 1024, True), (8, 257, True), (16, 40000, False)):
        params = IsingParams(n, field_b=1.0, coupling_j=1.0)
        sch = TrotterSchedule(10.0 * n * n, steps)
        rots = [adiabatic.adiabatic_rotation(params, sch)]
        if with_oracle:
            rots.append(direct_rotation(params, sch))
            oracle_delta = max(oracle_delta, float(np.abs(rots[0] - rots[1]).max()))
        for rot in rots:
            try:
                matchgate.assert_rotation(rot)
            except ValueError:
                rotations_ok = False

    elapsed = time.perf_counter() - start
    ok = shift_exact and tau_ok and rotations_ok and oracle_delta < 1e-12
    _report(capsys, "7 (structural exactness)", ok, elapsed,
            f"shift exact {shift_exact}, tau sums {tau_ok}, rotation invariants {rotations_ok}, "
            f"direct-product delta {oracle_delta:.1e}")
    assert shift_exact
    assert tau_ok
    assert rotations_ok
    assert oracle_delta < 1e-12
