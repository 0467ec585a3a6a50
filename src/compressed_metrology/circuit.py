"""Gate-level realization of the compressed protocol on m+2 qubits.

Register layout (m = log2 N): data qubits 0..m-1, probe qubit m, auxiliary
qubit m+1.  Qubit 0 is the most significant bit of the basis index, so the
first m+1 qubits enumerate the 2N Majorana labels directly and the shift
gate ladder increments that integer label; the probe is the least
significant bit of the label, which is what ties Y on the probe to the
vacuum covariance (1_N (x) Y = -i S).  A register is a plain complex array
of its 2^(m+2) amplitudes, and a program a tuple of ``Gate``s in
application order.

The circuit applies R^T(B, J) to |Phi>|+>_a, where |Phi> carries amplitude
e^{i 2 pi j / N} i^s / sqrt(2N) on register label 2j + s: a product state
whose data qubit l holds the relative phase exp(i pi / 2^l), times |+_y> on
the probe; the auxiliary starts (and provably stays) in |+>.  Because
R^T = step(0)^T ... step(L)^T, the runner applies Trotter steps in
descending l; each step is [A^dag ladder, S1 via the auxiliary, A ladder,
RY on the probe].  Measuring Y on the probe then gives <B> = (1 - <Y_m>)/2.

Every gate kind has one representation, gate = c 1 + s P with P monomial,
(P psi)[i] = phase[i] psi[src[i]]: X, CX and HT = (X + Y)/sqrt(2) have
c = 0, RY(theta) = cos(theta/2) 1 + sin(theta/2) RY(pi) and
RXX(a) = cos a 1 + sin a (-i X(x)X), and ``_terms`` builds (c, s, P).  The
runner composes the P's of one ``trotter_step_gates`` program once per
run: the gates before the RY give the ladder-wrapped S1 block
cos a 1 + sin a P_S (HT^2 = 1 and A A^dag = 1 leave the identity term
alone), and the RY gives P_Y, so it executes exactly the program
``full_program`` dumps.  Gates run only that way in the package; the tests
hold a one-gate interpreter over ``_terms`` as the runner's oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .adiabatic import TrotterSchedule
from .ising import IsingParams

GATE_KINDS = ("X", "HT", "RY", "RXX", "CX")

_SQRT_HALF = 1.0 / math.sqrt(2.0)

_MAX_DUMP_GATES = 5_000_000

# Trotter steps whose weights the runner builds at a time, about 1 MB of them.
_CHUNK_STEPS = 2**14


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    controls: tuple[int, ...] = ()
    angle: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity = {"X": 1, "HT": 1, "RY": 1, "RXX": 2, "CX": 1}[self.kind]
        if len(self.qubits) != arity or len(set(self.qubits)) != arity:
            raise ValueError(f"{self.kind} needs {arity} distinct target qubit(s)")
        if (self.angle is None) == (self.kind in ("RY", "RXX")):
            raise ValueError(f"angle {'required' if self.angle is None else 'not allowed'} for {self.kind}")
        if self.kind == "CX":
            if not self.controls:
                raise ValueError("CX needs at least one control")
            if len(set(self.controls)) != len(self.controls) or set(self.controls) & set(self.qubits):
                raise ValueError("controls must be distinct from each other and the target")
        elif self.controls:
            raise ValueError(f"{self.kind} takes no controls")


def initial_state(m: int) -> np.ndarray:
    """|Phi> x |+>_aux: data qubit l at phase pi/2^l, probe |+_y>, aux |+>."""
    if m < 1:
        raise ValueError("need m >= 1")
    amps = np.ones(1, dtype=complex)
    for l in range(m):
        qubit = np.array([1.0, np.exp(1j * math.pi / 2**l)]) * _SQRT_HALF
        amps = np.kron(amps, qubit)
    amps = np.kron(amps, np.array([1.0, 1.0j]) * _SQRT_HALF)  # probe |+_y>
    return np.kron(amps, np.array([1.0, 1.0]) * _SQRT_HALF)   # auxiliary |+>


# ---------------------------------------------------------------------------
# Gate terms: gate = c 1 + s P
# ---------------------------------------------------------------------------

def _terms(gate: Gate, n_qubits: int) -> tuple[float, float, np.ndarray, np.ndarray]:
    """(c, s, src, phase) with ``gate`` = c 1 + s P and (P psi)[i] = phase[i] psi[src[i]]."""
    if any(not 0 <= q < n_qubits for q in gate.qubits + gate.controls):
        raise IndexError(f"gate {gate} outside register of {n_qubits} qubits")
    idx = np.arange(1 << n_qubits)
    flip = sum(1 << (n_qubits - 1 - q) for q in gate.qubits)
    src = idx ^ flip
    high = (idx & flip) != 0  # the target bit of a one-qubit gate
    if gate.kind == "HT":  # (X + Y)/sqrt(2): 1 - i into |0>, 1 + i into |1>
        return 0.0, _SQRT_HALF, src, np.where(high, 1.0 + 1.0j, 1.0 - 1.0j)
    if gate.kind == "RY":  # RY(pi) = -iY: -1 into |0>, +1 into |1>
        half = 0.5 * gate.angle
        return math.cos(half), math.sin(half), src, np.where(high, 1.0 + 0j, -1.0 + 0j)
    if gate.kind == "RXX":
        return math.cos(gate.angle), math.sin(gate.angle), src, np.full(idx.size, -1.0j)
    if gate.kind == "CX":
        mask = sum(1 << (n_qubits - 1 - q) for q in gate.controls)
        src = np.where((idx & mask) == mask, src, idx)
    return 0.0, 1.0, src, np.ones(idx.size, dtype=complex)


# ---------------------------------------------------------------------------
# Program constructors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def decompose_shift(m: int) -> tuple[Gate, ...]:
    """Increment |j> -> |j+1 mod 2N> on qubits 0..m via m+1 controlled gates.

    Listed in application order: the most significant qubit flips first
    (conditioned on all lower bits being 1), the bare X on qubit m flips last.
    Every gate is an involution, so the reversed list is A^dag.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    gates = [Gate("CX", (l,), controls=tuple(range(l + 1, m + 1))) for l in range(m)]
    return (*gates, Gate("X", (m,)))


def s1_aux_gates(angle: float, m: int) -> tuple[Gate, ...]:
    """HT . RXX(angle) . HT on (probe, aux): acts as exp(-i angle Y) on the probe
    whenever the auxiliary is in |+>, which the protocol maintains."""
    return (
        Gate("HT", (m,)),
        Gate("RXX", (m, m + 1), angle=angle),
        Gate("HT", (m,)),
    )


def trotter_step_gates(interaction: float, field: float, m: int) -> tuple[Gate, ...]:
    """One step of the R^T circuit, R1^T then R0^T, from its two gate angles.

    R1^T = A (1 (x) S1) A^dag, hence the inverse ladder, the auxiliary-assisted
    S1 block at ``interaction`` = J tau(l), and the forward ladder; R0^T =
    1 (x) exp(-i 2 B Delta Y) is the trailing RY(``field``) on the probe, with
    ``field`` = 4 B Delta.
    """
    shift = decompose_shift(m)
    return shift[::-1] + s1_aux_gates(interaction, m) + shift + (Gate("RY", (m,), angle=field),)


def full_program(params: IsingParams, schedule: TrotterSchedule) -> tuple[Gate, ...]:
    """All L+1 Trotter steps of R^T in application order (descending l)."""
    m = params.n_spins.bit_length() - 1
    total = (schedule.steps + 1) * (2 * (m + 1) + 4)
    if total > _MAX_DUMP_GATES:
        raise ValueError(f"program of {total} gates exceeds the materialization cap")
    field = 4.0 * params.field_b * schedule.delta
    gates: list[Gate] = []
    for interaction in (params.coupling_j * schedule.taus()[::-1]).tolist():
        gates.extend(trotter_step_gates(interaction, field, m))
    return tuple(gates)


# ---------------------------------------------------------------------------
# Runner and measurement
# ---------------------------------------------------------------------------

def _compose(gates: tuple[Gate, ...], n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """(src, phase) of the unitary monomial map the gates' P's compose to, in application order.

    P2 after P1 is (src1[src2], phase2 * phase1[src2]).  Each P is a unitary
    times its uniform modulus (sqrt(2) for HT's Gaussian-integer phases, 1
    otherwise); those products carry no rounding, so dividing out the
    composed modulus leaves the unitary map exactly.
    """
    src = np.arange(1 << n_qubits)
    phase = np.ones(src.size, dtype=complex)
    for gate in gates:
        _, _, src_g, phase_g = _terms(gate, n_qubits)
        src, phase = src[src_g], phase_g * phase[src_g]
    return src, phase / np.abs(phase)


def _compiled_step(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index maps and phases of P_S and P_Y, composed from ``trotter_step_gates``.

    P_S comes from every gate before the trailing RY, P_Y from the RY; the
    step's angles do not enter the P's.
    """
    *block, field = trotter_step_gates(0.0, 0.0, m)
    return _compose(tuple(block), m + 2) + _compose((field,), m + 2)


def run_circuit(params: IsingParams, schedule: TrotterSchedule) -> np.ndarray:
    """Apply R^T(B, J) to |Phi>|+>_a, one compiled Trotter step at a time.

    Step l is U(l) = (cy 1 + sy P_Y)(c 1 + s P_S) with (c, s) the cos/sin
    of J tau(l) and (cy, sy) those of 2 B Delta.  Expanded, that is
    c Q0 + s Q1 with Q0 = cy 1 + sy P_Y and Q1 = Q0 P_S: four monomial
    terms, so a step is one gather of the 4N amplitudes through four index
    maps, a multiply by fixed phases, and a contraction with the step weights
    (c, c, s, s), built ``_CHUNK_STEPS`` steps at a time.
    """
    m = params.n_spins.bit_length() - 1
    src_s, phase_s, src_y, phase_y = _compiled_step(m)
    half = 0.5 * (4.0 * params.field_b * schedule.delta)
    cy, sy = math.cos(half), math.sin(half)
    index = np.stack([np.arange(src_s.size), src_y, src_s, src_s[src_y]])
    phases = np.stack([np.full(src_s.size, cy), sy * phase_y,
                       cy * phase_s, sy * phase_y * phase_s[src_y]])
    psi = initial_state(m)
    for stop in range(schedule.steps + 1, 0, -_CHUNK_STEPS):
        angles = params.coupling_j * schedule.taus(max(stop - _CHUNK_STEPS, 0), stop)
        cos_a, sin_a = np.cos(angles), np.sin(angles)
        weights = np.stack([cos_a, cos_a, sin_a, sin_a], axis=1).astype(complex)
        for weight in weights[::-1]:
            psi = weight @ (phases * psi[index])
    drift = abs(float(np.linalg.norm(psi)) - 1.0)
    if drift > 1e-9:
        raise AssertionError(f"norm drifted by {drift:.3e} during the run")
    return psi


def measure_ym(amps: np.ndarray) -> float:
    """<Y> on the probe qubit m; the amplitudes' axes are (data, probe, aux)."""
    view = amps.reshape(-1, 2, 2)
    # <Y> = <psi| (-i|0><1| + i|1><0|) |psi> on the probe axis.
    return float(2.0 * np.imag(np.sum(view[:, 0].conj() * view[:, 1])))


def _p_plus(y: float, shots: int) -> float:
    """P(+1) of Y on the probe at <Y> = ``y``, clamped to [0, 1]; checks ``shots``."""
    if shots < 1:
        raise ValueError("need at least one shot")
    return min(max(0.5 * (1.0 + y), 0.0), 1.0)


def sample_ym(y: float, shots: int, seed: int) -> np.ndarray:
    """i.i.d. +-1 samples of Y on the probe at <Y> = ``y``; deterministic for a fixed seed."""
    p_plus = _p_plus(y, shots)
    rng = np.random.default_rng(seed)
    return np.where(rng.random(shots) < p_plus, 1, -1)


def count_ym(y: float, shots: int, reps: int, seed: int) -> np.ndarray:
    """Count of +1 outcomes among ``shots`` Y-shots on the probe at <Y> = ``y``, per repetition.

    A repetition's count is Binomial(shots, P(+1)), the law of the +1 count
    of ``sample_ym``'s shots; one exact binomial variate per repetition
    replaces the shots.  Deterministic for a fixed seed.
    """
    return np.random.default_rng(seed).binomial(shots, _p_plus(y, shots), size=reps)


def expectation_b_gate(params: IsingParams, schedule: TrotterSchedule) -> float:
    """<B(B, J)> through the gate path: (1 - <Y_m>)/2 on R^T|Phi>.

    Must coincide with the rotation path
    expectation_quadratic(R, observable_b_coefficients(N)) to float accuracy
    for any schedule; the 1/2 offset is its |a|^2 = 1/2 term.
    """
    return 0.5 * (1.0 - measure_ym(run_circuit(params, schedule)))


# ---------------------------------------------------------------------------
# Text dump format
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(x, ".17g")


def dump_program(gates: tuple[Gate, ...], params: IsingParams | None = None,
                 schedule: TrotterSchedule | None = None) -> str:
    """One gate per line, under a ``# N= B= J= T= L=`` header when ``params`` and
    ``schedule`` are given."""
    lines: list[str] = []
    if params is not None:
        lines.append(
            f"# N={params.n_spins} B={_fmt(params.field_b)} J={_fmt(params.coupling_j)}"
            f" T={_fmt(schedule.total_time)} L={schedule.steps}"
        )
    for gate in gates:
        if gate.kind in ("X", "HT"):
            lines.append(f"{gate.kind} {gate.qubits[0]}")
        elif gate.kind == "RY":
            lines.append(f"RY({_fmt(gate.angle)}) {gate.qubits[0]}")
        elif gate.kind == "RXX":
            lines.append(f"RXX({_fmt(gate.angle)}) {gate.qubits[0]},{gate.qubits[1]}")
        else:
            ctrls = ",".join(str(c) for c in gate.controls)
            lines.append(f"CX {ctrls} -> {gate.qubits[0]}")
    return "\n".join(lines) + "\n"


def lowered_gate_count(gates: tuple[Gate, ...]) -> int:
    """Elementary-gate estimate with multi-controlled X lowered linearly.

    A k-controlled X costs O(k) elementary gates given one borrowable qubit;
    the estimate charges 2k - 1 for k >= 2 and 1 otherwise, so a shift ladder
    on m+1 qubits totals O(m^2).  Reporting only; simulation never lowers.
    """
    total = 0
    for gate in gates:
        k = len(gate.controls)
        total += 2 * k - 1 if k >= 2 else 1
    return total
