"""Test-side helpers the package itself does not use.

``parse_program`` reads a ``circuit.dump_program`` text back into its gates
and the header's parameters and schedule (the dump's round trip);
``apply_gate`` and ``apply_program`` are the gate interpreter, each gate
applied as c 1 + s P from ``circuit._terms`` on a plain amplitude array, the
oracle the compiled runner is pinned to; ``program_permutation`` and
``program_unitary`` give the exact basis map and the dense matrix of a gate
tuple, the latter through the interpreter;
``ratio_g`` is g = B/J of a parameter set; ``bogoliubov_angle`` and
``mode_energy`` are one fermion mode's closed-form angle and quasiparticle
energy, and ``mode_data`` bundles them;
``tau`` is one step's interaction time, written apart from
``TrotterSchedule.taus`` so the oracles check that formula rather than share
it; ``trotter_error_bound`` is the scale L Delta^2 that the convergence tests
order schedules by; ``sequential_reference`` is the two-qubit sequential
scheme's bound that the compressed protocol is compared with, and
``bisect_expected_b`` the bisection
of <B>(g) that pins ``metrology.invert_expected_b``'s closed form.
``pauli_string`` is a dense Pauli string as a Kronecker product of 2x2
Paulis; ``hamiltonian_from_strings`` and ``trotter_evolve_sector_stepwise``
are the dense oracle's plain forms (one such bond string, and one step in
the twisted-shift-symmetric even subspace, at a time) that
``dense.build_hamiltonian`` (the real part; the imaginary part is exactly 0)
and ``dense.trotter_evolve`` must equal bit for bit;
``trotter_evolve_stepwise`` is the product in the full
2^N space, the independent oracle ``dense.trotter_evolve`` must match to
float accuracy, and ``sector_energies`` the spectrum of a whole parity
sector, the independent leg of ``dense.even_ground``'s solve in the
twisted-shift-symmetric subspace.  ``products_longdouble`` is the per-momentum
SU(2) product of ``adiabatic`` in extended precision, on the same float64
angles.  ``majoranas`` gives the dense Majoranas as signed bit
flips, pinned against ``majoranas_kron``, their Kronecker products of Paulis;
summed into b_1 in the mode's order, the latter are the oracle of
``dense.observable_b_dense``.  ``exp_generator``,
``vacuum_covariance``, ``conjugate_modes`` and ``expectation_z0`` are the
matchgate engine's generator exponential and vacuum algebra;
``majorana_two_point`` is the complex two-point matrix Gamma, and
sum_{lm} conj(a_l) a_m Gamma_{lm} is the oracle of the rank-one
``matchgate.expectation_quadratic``; ``matchgate_unitary`` and
``conjugation_rotation`` are their dense counterparts, the 2^N unitary of a
quadratic generator and the rotation it induces on the Majoranas.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from compressed_metrology import dense, ising
from compressed_metrology.adiabatic import TrotterSchedule
from compressed_metrology.circuit import Gate, _terms
from compressed_metrology.ising import IsingParams
from compressed_metrology.matchgate import _check_even_square


def tau(schedule: TrotterSchedule, l: int) -> float:
    """Ising interaction time 2 l Delta / L of step l; 0 at l = 0, also for L = 0."""
    return 0.0 if l == 0 else 2.0 * l * schedule.delta / schedule.steps


def trotter_error_bound(schedule: TrotterSchedule) -> float:
    """The discretization-error proxy L * Delta^2 (a comparable scale, not a bound constant).

    It is inf where it leaves the float range.
    """
    try:
        return schedule.steps * schedule.delta**2
    except OverflowError:  # Delta^2 alone; a product past the range is inf already
        return math.inf


_GATE_RE = re.compile(
    r"^(?:(X|HT) (\d+)"
    r"|(RY)\(([^)]+)\) (\d+)"
    r"|(RXX)\(([^)]+)\) (\d+),(\d+)"
    r"|(CX) (\d+(?:,\d+)*) -> (\d+))$"
)
_META_RE = re.compile(
    r"^# N=(\d+) B=(\S+) J=(\S+) T=(\S+) L=(\d+)$"
)


def parse_program(
    text: str,
) -> tuple[tuple[Gate, ...], IsingParams | None, TrotterSchedule | None]:
    """(gates, params, schedule) of a ``circuit.dump_program`` text; None without a header."""
    gates: list[Gate] = []
    params = schedule = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            match = _META_RE.match(line)
            if match:
                params = IsingParams(int(match[1]), float(match[2]), float(match[3]))
                schedule = TrotterSchedule(float(match[4]), int(match[5]))
            continue
        match = _GATE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: cannot parse {line!r}")
        if match[1]:
            gates.append(Gate(match[1], (int(match[2]),)))
        elif match[3]:
            gates.append(Gate("RY", (int(match[5]),), angle=float(match[4])))
        elif match[6]:
            gates.append(Gate("RXX", (int(match[8]), int(match[9])), angle=float(match[7])))
        else:
            controls = tuple(int(c) for c in match[11].split(","))
            gates.append(Gate("CX", (int(match[12]),), controls=controls))
    return tuple(gates), params, schedule


def apply_gate(amps: np.ndarray, gate: Gate) -> None:
    """Apply ``gate`` in place to a register's amplitudes."""
    c, s, src, phase = _terms(gate, amps.size.bit_length() - 1)
    amps[:] = c * amps + s * (phase * amps[src])


def apply_program(amps: np.ndarray, gates: tuple[Gate, ...]) -> None:
    for gate in gates:
        apply_gate(amps, gate)


def program_permutation(gates: tuple[Gate, ...], n_qubits: int) -> np.ndarray:
    """Exact basis permutation of an X/CX-only program: index -> image."""
    img = np.arange(1 << n_qubits, dtype=np.int64)
    for gate in gates:
        if gate.kind not in ("X", "CX"):
            raise ValueError(f"{gate.kind} is not a permutation gate")
        bit = 1 << (n_qubits - 1 - gate.qubits[0])
        if gate.kind == "X":
            img ^= bit
        else:
            mask = 0
            for c in gate.controls:
                mask |= 1 << (n_qubits - 1 - c)
            hot = (img & mask) == mask
            img[hot] ^= bit
    return img


def program_unitary(gates: tuple[Gate, ...], n_qubits: int) -> np.ndarray:
    """Dense matrix of a program (small registers only)."""
    mat = np.eye(1 << n_qubits, dtype=complex)
    for col in mat.T:
        apply_program(col, gates)
    return mat


#: Radicand threshold below which (g, xi) sits on the removable singularity
#: of the Bogoliubov angle (g = 1, xi = 0, where the gap closes).
SINGULAR_RADICAND = 1e-300


def ratio_g(params: IsingParams) -> float:
    """g = B/J, the only combination the closed-form curves use."""
    if params.coupling_j == 0.0:
        raise ValueError("g = B/J undefined at J = 0")
    return params.field_b / params.coupling_j


def bogoliubov_angle(params: IsingParams, j: int) -> tuple[float, float]:
    """(cos theta_j, sin theta_j) of the Bogoliubov rotation for mode j.

    cos theta = (g - cos xi)/r, sin theta = -sin(xi)/r with
    r = sqrt(1 + g^2 - 2 g cos xi).  At the gap-closing point (g = 1, j = 0)
    the angle is undefined; by continuity from g > 1 we fix (1, 0), which is
    the convention of the even-parity branch.
    """
    if not 0 <= j < params.n_spins:
        raise ValueError(f"mode index {j} out of range for N={params.n_spins}")
    g = ratio_g(params)
    xi = ising.mode_xi(params.n_spins, j)
    rad = ising._radicand(g, xi)
    if rad < SINGULAR_RADICAND:
        return 1.0, 0.0
    root = math.sqrt(rad)
    return (g - math.cos(xi)) / root, -math.sin(xi) / root


def mode_energy(params: IsingParams, j: int) -> float:
    """Quasiparticle energy 2*sqrt(J^2 + B^2 - 2 J B cos xi_j).

    Equals 2J*sqrt(1 + g^2 - 2 g cos xi) for J > 0 but stays well defined
    (and nonnegative) at J = 0.
    """
    if not 0 <= j < params.n_spins:
        raise ValueError(f"mode index {j} out of range for N={params.n_spins}")
    xi = ising.mode_xi(params.n_spins, j)
    b, j_ = params.field_b, params.coupling_j
    return 2.0 * math.sqrt(max(j_ * j_ + b * b - 2.0 * j_ * b * math.cos(xi), 0.0))


@dataclass(frozen=True)
class ModeData:
    """Momentum, Bogoliubov angle and quasiparticle energy of one fermion mode."""

    mode_index: int
    xi: float
    cos_theta: float
    sin_theta: float
    energy: float
    singular: bool = False


def is_singular_mode(params: IsingParams, j: int) -> bool:
    """The gap-closing mode, where ``bogoliubov_angle`` falls back to (1, 0)."""
    return ising._radicand(ratio_g(params), ising.mode_xi(params.n_spins, j)) < SINGULAR_RADICAND


def mode_data(params: IsingParams, j: int) -> ModeData:
    cos_t, sin_t = bogoliubov_angle(params, j)
    return ModeData(
        mode_index=j,
        xi=ising.mode_xi(params.n_spins, j),
        cos_theta=cos_t,
        sin_theta=sin_t,
        energy=mode_energy(params, j),
        singular=is_singular_mode(params, j),
    )


def sequential_reference(total_time: float, shots: int = 1) -> dict[str, float]:
    """Two-qubit sequential-scheme reference bound on delta J^2.

    Two conventions circulate for the repetition scaling of this bound,
    (nu T)^-2 and the single-pass Heisenberg form 1/(nu T^2); both are
    returned, labeled, with neither adjudicated.
    """
    if total_time <= 0.0 or shots < 1:
        raise ValueError("need positive time and at least one shot")
    return {
        "nu_t_inverse_squared": 1.0 / (shots * total_time) ** 2,
        "per_shot_t_squared": 1.0 / (shots * total_time**2),
    }


BISECTION_TOL = 1e-12


def bisect_expected_b(b_value: float, n_spins: int,
                      window: tuple[float, float] = (0.5, 1.5)) -> tuple[float, bool]:
    """Solve <B>(g, N) = b_value for g on the window by bisection to ``BISECTION_TOL``.

    A value outside the curve's range on the window is clamped to the nearer
    edge and flagged.  Returns (g, clamped).
    """
    lo, hi = window
    if not lo < hi:
        raise ValueError("empty search window")
    if b_value >= ising.expected_b(lo, n_spins):
        return lo, b_value > ising.expected_b(lo, n_spins)
    if b_value <= ising.expected_b(hi, n_spins):
        return hi, b_value < ising.expected_b(hi, n_spins)
    a, b = lo, hi
    while b - a > BISECTION_TOL:
        mid = 0.5 * (a + b)
        if ising.expected_b(mid, n_spins) > b_value:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b), False


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def pauli_string(n_spins: int, ops: dict[int, str]) -> np.ndarray:
    """Dense operator for a Pauli string, ``ops`` mapping site -> 'X'|'Y'|'Z'."""
    dense._check_operator_size(n_spins)
    out = np.ones((1, 1), dtype=complex)
    for site in range(n_spins):
        out = np.kron(out, _PAULI[ops.get(site, "I")])
    return out


def hamiltonian_from_strings(params: IsingParams) -> np.ndarray:
    """Dense H(J, B), subtracting each bond string and the field from a zero matrix in turn."""
    n = params.n_spins
    dense._check_operator_size(n)
    dim = 1 << n
    ham = np.zeros((dim, dim), dtype=complex)
    for j in range(n - 1):
        ham -= params.coupling_j * pauli_string(n, {j: "X", j + 1: "X"})
    boundary = {0: "Y", n - 1: "Y"} | {k: "Z" for k in range(1, n - 1)}
    ham -= params.coupling_j * pauli_string(n, boundary)
    field = params.field_b * (dense.popcounts(n) * (-2.0) + n)
    ham -= np.diag(field.astype(complex))
    return ham


def sector_energies(params: IsingParams, parity: int) -> np.ndarray:
    """H's eigenvalues on the whole Ztilde = ``parity`` (+1 or -1) sector, ascending."""
    keep = np.flatnonzero(dense.parity_diag(params.n_spins) == parity)
    return np.linalg.eigvalsh(dense.build_hamiltonian(params)[np.ix_(keep, keep)])


def trotter_evolve_stepwise(params: IsingParams, schedule: TrotterSchedule) -> np.ndarray:
    """The digital-adiabatic product on |0..0>, exponentiating each step's phases on its own."""
    n = params.n_spins
    dense._check_operator_size(n)
    dim = 1 << n
    # H0 = sum_j Z_j is diagonal; H1 is eigen-decomposed once and re-phased per step.
    h0_diag = n - 2.0 * dense.popcounts(n)
    h1 = dense.build_hamiltonian(IsingParams(n, field_b=0.0, coupling_j=-1.0))  # = +sum XX
    w1, v1 = np.linalg.eigh(h1)
    state = np.zeros(dim, dtype=complex)
    state[0] = 1.0
    delta = schedule.delta
    u0 = np.exp(1j * params.field_b * delta * h0_diag)
    for l in range(schedule.steps + 1):
        state = u0 * state
        phases = np.exp(1j * params.coupling_j * tau(schedule, l) / 2.0 * w1)
        state = v1 @ (phases * (v1.conj().T @ state))
    return state


def trotter_evolve_sector_stepwise(params: IsingParams,
                                   schedule: TrotterSchedule) -> np.ndarray:
    """``dense.trotter_evolve``'s reduced product, each step's phases exponentiated alone.

    Steps through the same twisted-shift-symmetric even subspace in H1's
    eigenbasis, so the chunked phases of ``dense.trotter_evolve`` must give
    its bits exactly.
    """
    n = params.n_spins
    basis = dense.symmetric_basis(n)
    h1 = dense.build_hamiltonian(IsingParams(n, field_b=0.0, coupling_j=-1.0))
    w1, u1 = np.linalg.eigh(basis.T @ (h1 @ basis))
    v1 = basis @ u1
    u0 = np.exp(1j * params.field_b * schedule.delta * (n - 2.0 * dense.popcounts(n)))
    k0 = v1.T @ (u0[:, None] * v1)
    state = v1[0]
    for l in range(schedule.steps + 1):
        phases = np.exp(1j * params.coupling_j * tau(schedule, l) / 2.0 * w1)
        state = phases * (k0 @ state)
    return v1 @ state


def products_longdouble(
    params: IsingParams, schedule: TrotterSchedule, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) of the per-momentum SU(2) step products at q, in ``np.clongdouble``.

    The extended-precision oracle of ``adiabatic._momentum_products``: it
    takes the same float64 angles beta = 2 B Delta and phi_l = J tau(l), and
    does their cosines and sines, the phases e^{iq} and the ordered product in
    long double.  Each chunk of steps is reduced by a plain pairwise tree (an
    identity pads an odd level) and folded in; nothing is renormalized.
    """
    ld = np.longdouble
    q = np.asarray(q, dtype=ld)
    up = np.cos(q) + 1j * np.sin(q)
    beta = ld(2.0 * params.field_b * schedule.delta)
    cb, sb = np.cos(beta), np.sin(beta)
    acc_a = np.ones(q.size, dtype=np.clongdouble)
    acc_b = np.zeros(q.size, dtype=np.clongdouble)
    chunk = max(1, (1 << 16) // q.size)
    for start in range(0, schedule.steps + 1, chunk):
        stop = min(start + chunk, schedule.steps + 1)
        phi = (params.coupling_j * schedule.taus(start, stop)).astype(ld)
        c, s = np.cos(phi)[:, None], np.sin(phi)[:, None]
        a, b = c * cb + s * sb * up.conj(), s * cb * up - c * sb
        while a.shape[0] > 1:
            if a.shape[0] % 2:
                a = np.concatenate([a, np.ones_like(a[:1])])
                b = np.concatenate([b, np.zeros_like(b[:1])])
            a, b = (a[1::2] * a[0::2] - np.conj(b[1::2]) * b[0::2],
                    b[1::2] * a[0::2] + np.conj(a[1::2]) * b[0::2])
        acc_a, acc_b = a[0] * acc_a - np.conj(b[0]) * acc_b, b[0] * acc_a + np.conj(a[0]) * acc_b
    return acc_a, acc_b


def majoranas(n_spins: int) -> list[np.ndarray]:
    """The 2N Majorana generators x_0 .. x_{2N-1} as dense matrices.

    Site 0 is the leading bit of a basis index, as in ``pauli_string``.
    Both x_{2j} = Z..Z X_j and x_{2j+1} = Z..Z Y_j flip site j's bit; the Z
    string gives the sign (-1)^(1-bits on sites 0..j-1), and Y_j a further +i
    on a cleared bit and -i on a set one.
    """
    dense._check_operator_size(n_spins)
    dim = 1 << n_spins
    cols = np.arange(dim)
    counts = dense.popcounts(n_spins)
    out = []
    for j in range(n_spins):
        bit = 1 << (n_spins - 1 - j)
        string = 1.0 - 2.0 * (counts[cols & (dim - 2 * bit)] % 2)
        for entries in (string, 1j * string * np.where(cols & bit, -1.0, 1.0)):
            op = np.zeros((dim, dim), dtype=complex)
            op[cols ^ bit, cols] = entries
            out.append(op)
    return out


def majoranas_kron(n_spins: int) -> list[np.ndarray]:
    """x_{2j} = Z..Z X_j and x_{2j+1} = Z..Z Y_j as Kronecker products of 2x2 Paulis."""
    out = []
    for j in range(n_spins):
        string = {k: "Z" for k in range(j)}
        out.append(pauli_string(n_spins, string | {j: "X"}))
        out.append(pauli_string(n_spins, string | {j: "Y"}))
    return out


def vacuum_covariance(n_modes: int) -> np.ndarray:
    """S with S_{jk} = <0..0| -i x_j x_k |0..0> off the diagonal: 1_N (x) iY."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    cov = np.zeros((2 * n_modes, 2 * n_modes))
    even = np.arange(0, 2 * n_modes, 2)
    cov[even, even + 1] = 1.0
    cov[even + 1, even] = -1.0
    return cov


def majorana_two_point(rot: np.ndarray) -> np.ndarray:
    """Gamma_{jk} = <U^dag x_j x_k U> = delta_{jk} + i [R S R^T]_{jk}.

    The antisymmetric part is symmetrized after the matrix products so the
    diagonal of Gamma is exactly 1; Gamma/2 is the (projector) correlation
    matrix of the pure Gaussian state.
    """
    dim = _check_even_square(rot, "rotation")
    shuffled = np.empty_like(rot)
    shuffled[:, 0::2] = -rot[:, 1::2]
    shuffled[:, 1::2] = rot[:, 0::2]
    kern = shuffled @ rot.T
    kern = 0.5 * (kern - kern.T)
    return np.eye(dim) + 1j * kern


def _is_cell_block(h: np.ndarray) -> bool:
    mask = np.zeros(h.shape, dtype=bool)
    even = np.arange(0, h.shape[0], 2)
    mask[even, even + 1] = True
    mask[even + 1, even] = True
    return not h[~mask].any()


def exp_generator(h: np.ndarray) -> np.ndarray:
    """R = exp(4h) for a real antisymmetric generator h.

    Generators supported on the (2j, 2j+1) cells exponentiate in closed form
    as independent planar rotations; anything else falls back to
    scaling-and-squaring (scipy's expm).
    """
    h = np.asarray(h, dtype=float)
    _check_even_square(h, "h")
    if (h != -h.T).any():
        raise ValueError("generator must be exactly antisymmetric")
    if _is_cell_block(h):
        even = np.arange(0, h.shape[0], 2)
        angles = 4.0 * h[even, even + 1]
        rot = np.zeros_like(h)
        rot[even, even] = np.cos(angles)
        rot[even + 1, even + 1] = np.cos(angles)
        rot[even, even + 1] = np.sin(angles)
        rot[even + 1, even] = -np.sin(angles)
        return rot
    from scipy.linalg import expm

    return expm(4.0 * h)


def conjugate_modes(rot: np.ndarray, j: int) -> np.ndarray:
    """Row j of R: the coefficients of U^dag x_j U = sum_k R_{jk} x_k."""
    dim = _check_even_square(rot, "rotation")
    if not 0 <= j < dim:
        raise IndexError(f"mode index {j} out of range for dim {dim}")
    return rot[j].copy()


def expectation_z0(rot: np.ndarray) -> float:
    """<Z_0> = [R S R^T]_{0,1} of the evolved vacuum; stays in [-1, 1]."""
    dim = _check_even_square(rot, "rotation")
    if dim < 2:
        raise ValueError("need dim >= 2")
    even = np.arange(0, dim, 2)
    return float(np.sum(rot[0, even] * rot[1, even + 1] - rot[0, even + 1] * rot[1, even]))


def matchgate_unitary(n_spins: int, h: np.ndarray) -> np.ndarray:
    """Dense unitary exp(-iH) for the quadratic H = i sum_{j!=k} h_{jk} x_j x_k."""
    from scipy.linalg import expm

    xs = majoranas(n_spins)
    if h.shape != (2 * n_spins, 2 * n_spins):
        raise ValueError("generator dimension mismatch")
    gen = np.zeros_like(xs[0])
    for j in range(2 * n_spins):
        for k in range(j + 1, 2 * n_spins):
            if h[j, k] != 0.0:
                gen += 2.0 * h[j, k] * (xs[j] @ xs[k])
    return expm(gen)


def conjugation_rotation(n_spins: int, unitary: np.ndarray) -> np.ndarray:
    """Extract R with U^dag x_j U = sum_k R_{jk} x_k by tracing against the x_k."""
    xs = majoranas(n_spins)
    dim = 1 << n_spins
    rot = np.empty((2 * n_spins, 2 * n_spins))
    for j in range(2 * n_spins):
        conj = unitary.conj().T @ xs[j] @ unitary
        for k in range(2 * n_spins):
            rot[j, k] = np.trace(conj @ xs[k]).real / dim
    return rot
