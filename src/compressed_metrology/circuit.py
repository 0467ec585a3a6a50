"""Gate-level realization of the compressed protocol on m+2 qubits.

Register layout (m = log2 N): data qubits 0..m-1, probe qubit m, auxiliary
qubit m+1.  Qubit 0 is the most significant bit of the basis index, so the
first m+1 qubits enumerate the 2N Majorana labels directly and the shift
gate ladder increments that integer label; the probe is the least
significant bit of the label, which is what ties Y on the probe to the
vacuum covariance (1_N (x) Y = -i S).

The circuit applies R^T(B, J) to |Phi>|+>_a, where |Phi> carries amplitude
e^{i 2 pi j / N} i^s / sqrt(2N) on register label 2j + s: a product state
whose data qubit l holds the relative phase exp(i pi / 2^l), times |+_y> on
the probe; the auxiliary starts (and provably stays) in |+>.  Because
R^T = step(0)^T ... step(L)^T, the runner applies Trotter steps in
descending l; each step is [A^dag ladder, S1 via the auxiliary, A ladder,
RY on the probe].  Measuring Y on the probe then gives <B> = (1 - <Y_m>)/2.

The runner does not interpret gates step by step; it compiles the step once
per register size.  RXX(a) = cos a 1 - i sin a X(x)X, so the ladder-wrapped
S1 block is cos a 1 + sin a P_S with P_S the step program at a = pi/2, and
RY(theta) = cos(theta/2) 1 + sin(theta/2) P_Y with P_Y = RY(pi) on the
probe.  Both P's are monomial (one unit-modulus entry per row); their index
maps and phases come from running ``trotter_step_gates`` through the
interpreter, so the runner executes exactly the program ``full_program``
dumps.  ``apply_gate``/``apply_program`` remain the interpreter for dumped
programs and the oracle the compiled runner is tested against.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .adiabatic import TrotterSchedule
from .ising import IsingParams

GATE_KINDS = ("X", "HT", "RY", "RXX", "CX")

_SQRT_HALF = 1.0 / math.sqrt(2.0)
# HT = (X + Y)/sqrt(2), the involution with HT X HT = Y.
_HT_MATRIX = np.array(
    [[0.0, (1.0 - 1.0j) * _SQRT_HALF], [(1.0 + 1.0j) * _SQRT_HALF, 0.0]], dtype=complex
)

_MAX_DUMP_GATES = 5_000_000


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


@dataclass(frozen=True)
class ProgramMeta:
    n_spins: int
    field_b: float
    coupling_j: float
    total_time: float
    steps: int


@dataclass(frozen=True)
class GateProgram:
    gates: tuple[Gate, ...]
    meta: ProgramMeta | None = None

    def __len__(self) -> int:
        return len(self.gates)


@dataclass
class CompressedRegister:
    """State vector over m+2 qubits; amplitudes indexed with qubit 0 as MSB."""

    m: int
    amplitudes: np.ndarray = field(repr=False)

    @property
    def n_qubits(self) -> int:
        return self.m + 2

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def view(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.n_qubits)


def initial_state(m: int) -> CompressedRegister:
    """|Phi> x |+>_aux: data qubit l at phase pi/2^l, probe |+_y>, aux |+>."""
    if m < 1:
        raise ValueError("need m >= 1")
    amps = np.ones(1, dtype=complex)
    for l in range(m):
        qubit = np.array([1.0, np.exp(1j * math.pi / 2**l)]) * _SQRT_HALF
        amps = np.kron(amps, qubit)
    amps = np.kron(amps, np.array([1.0, 1.0j]) * _SQRT_HALF)  # probe |+_y>
    amps = np.kron(amps, np.array([1.0, 1.0]) * _SQRT_HALF)   # auxiliary |+>
    return CompressedRegister(m=m, amplitudes=amps)


# ---------------------------------------------------------------------------
# Gate application (in place on the reshaped view)
# ---------------------------------------------------------------------------

def _slices(n_qubits: int, fixed: dict[int, int]) -> tuple:
    out: list = [slice(None)] * n_qubits
    for q, v in fixed.items():
        out[q] = v
    return tuple(out)


def _apply_single(view: np.ndarray, mat: np.ndarray, q: int, n: int) -> None:
    lo = view[_slices(n, {q: 0})].copy()
    hi = view[_slices(n, {q: 1})]
    view[_slices(n, {q: 0})] = mat[0, 0] * lo + mat[0, 1] * hi
    view[_slices(n, {q: 1})] = mat[1, 0] * lo + mat[1, 1] * hi


def apply_gate(reg: CompressedRegister, gate: Gate) -> None:
    n = reg.n_qubits
    if any(not 0 <= q < n for q in gate.qubits + gate.controls):
        raise IndexError(f"gate {gate} outside register of {n} qubits")
    view = reg.view()
    if gate.kind == "X":
        q = gate.qubits[0]
        lo = view[_slices(n, {q: 0})].copy()
        view[_slices(n, {q: 0})] = view[_slices(n, {q: 1})]
        view[_slices(n, {q: 1})] = lo
    elif gate.kind == "CX":
        fixed = {c: 1 for c in gate.controls}
        q = gate.qubits[0]
        lo = view[_slices(n, fixed | {q: 0})].copy()
        view[_slices(n, fixed | {q: 0})] = view[_slices(n, fixed | {q: 1})]
        view[_slices(n, fixed | {q: 1})] = lo
    elif gate.kind == "HT":
        _apply_single(view, _HT_MATRIX, gate.qubits[0], n)
    elif gate.kind == "RY":
        half = 0.5 * gate.angle
        mat = np.array([[math.cos(half), -math.sin(half)], [math.sin(half), math.cos(half)]],
                       dtype=complex)
        _apply_single(view, mat, gate.qubits[0], n)
    else:  # RXX: exp(-i angle X(x)X) mixes |00>~|11> and |01>~|10>
        q1, q2 = gate.qubits
        c, s = math.cos(gate.angle), -1j * math.sin(gate.angle)
        v00 = view[_slices(n, {q1: 0, q2: 0})].copy()
        v01 = view[_slices(n, {q1: 0, q2: 1})].copy()
        v10 = view[_slices(n, {q1: 1, q2: 0})].copy()
        v11 = view[_slices(n, {q1: 1, q2: 1})]
        view[_slices(n, {q1: 0, q2: 0})] = c * v00 + s * v11
        view[_slices(n, {q1: 1, q2: 1})] = c * v11 + s * v00
        view[_slices(n, {q1: 0, q2: 1})] = c * v01 + s * v10
        view[_slices(n, {q1: 1, q2: 0})] = c * v10 + s * v01


def apply_program(reg: CompressedRegister, program: GateProgram) -> None:
    for gate in program.gates:
        apply_gate(reg, gate)


# ---------------------------------------------------------------------------
# Program constructors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def decompose_shift(m: int) -> GateProgram:
    """Increment |j> -> |j+1 mod 2N> on qubits 0..m via m+1 controlled gates.

    Listed in application order: the most significant qubit flips first
    (conditioned on all lower bits being 1), the bare X on qubit m flips last.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    gates = [Gate("CX", (l,), controls=tuple(range(l + 1, m + 1))) for l in range(m)]
    gates.append(Gate("X", (m,)))
    return GateProgram(gates=tuple(gates))


def _inverse_shift(m: int) -> tuple[Gate, ...]:
    # Every shift gate is an involution, so A^dag is the reversed list.
    return tuple(reversed(decompose_shift(m).gates))


def s1_aux_gates(angle: float, m: int) -> GateProgram:
    """HT . RXX(angle) . HT on (probe, aux): acts as exp(-i angle Y) on the probe
    whenever the auxiliary is in |+>, which the protocol maintains."""
    gates = (
        Gate("HT", (m,)),
        Gate("RXX", (m, m + 1), angle=angle),
        Gate("HT", (m,)),
    )
    return GateProgram(gates=gates)


def trotter_step_gates(interaction: float, field: float, m: int) -> GateProgram:
    """One step of the R^T circuit, R1^T then R0^T, from its two gate angles.

    R1^T = A (1 (x) S1) A^dag, hence the inverse ladder, the auxiliary-assisted
    S1 block at ``interaction`` = J tau(l), and the forward ladder; R0^T =
    1 (x) exp(-i 2 B Delta Y) is the trailing RY(``field``) on the probe, with
    ``field`` = 4 B Delta.
    """
    gates = (
        _inverse_shift(m)
        + s1_aux_gates(interaction, m).gates
        + decompose_shift(m).gates
        + (Gate("RY", (m,), angle=field),)
    )
    return GateProgram(gates=gates)


def full_program(params: IsingParams, schedule: TrotterSchedule) -> GateProgram:
    """All L+1 Trotter steps of R^T in application order (descending l)."""
    m = params.n_spins.bit_length() - 1
    total = (schedule.steps + 1) * (2 * (m + 1) + 4)
    if total > _MAX_DUMP_GATES:
        raise ValueError(f"program of {total} gates exceeds the materialization cap")
    field = 4.0 * params.field_b * schedule.delta
    gates: list[Gate] = []
    for interaction in (params.coupling_j * schedule.taus()[::-1]).tolist():
        gates.extend(trotter_step_gates(interaction, field, m).gates)
    meta = ProgramMeta(params.n_spins, params.field_b, params.coupling_j,
                       schedule.total_time, schedule.steps)
    return GateProgram(gates=tuple(gates), meta=meta)


# ---------------------------------------------------------------------------
# Runner and measurement
# ---------------------------------------------------------------------------

def _monomial(program: GateProgram, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(src, phase) with (U psi)[i] = phase[i] * psi[src[i]] for a monomial program U.

    U moves each amplitude to one image with a unit-modulus factor, so an
    input with the distinct magnitudes dim..2 dim - 1 labels every image by
    where it came from.  Raises if the program is not monomial.
    """
    dim = 1 << (m + 2)
    reg = CompressedRegister(m=m, amplitudes=np.arange(dim, 2 * dim, dtype=complex))
    apply_program(reg, program)
    magnitude = np.abs(reg.amplitudes)
    src = np.rint(magnitude).astype(np.int64) - dim
    if set(src.tolist()) != set(range(dim)) or np.abs(magnitude - src - dim).max() > 1e-6:
        raise ValueError("program is not a monomial map")
    phase = reg.amplitudes / (src + dim)
    return src, phase / np.abs(phase)


@lru_cache(maxsize=None)
def _compiled_step(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index maps and phases of P_S and P_Y, derived from ``trotter_step_gates``.

    The angles (pi/2, 0) give the ladder-wrapped S1 block at a = pi/2 (RY(0)
    is the identity), and (0, pi) give RY(pi) (RXX(0) and the ladder pair
    cancel).
    """
    src_s, phase_s = _monomial(trotter_step_gates(math.pi / 2.0, 0.0, m), m)
    src_y, phase_y = _monomial(trotter_step_gates(0.0, math.pi, m), m)
    maps = (src_s, phase_s, src_y, phase_y)
    for arr in maps:
        arr.flags.writeable = False
    return maps


def run_circuit(params: IsingParams, schedule: TrotterSchedule) -> CompressedRegister:
    """Apply R^T(B, J) to |Phi>|+>_a, one compiled Trotter step at a time.

    Step l is U(l) = (cy 1 + sy P_Y)(c 1 + s P_S) with (c, s) the cos/sin
    of J tau(l) and (cy, sy) those of 2 B Delta.  Expanded, that is
    c Q0 + s Q1 with Q0 = cy 1 + sy P_Y and Q1 = Q0 P_S: four monomial
    terms, so a step is one gather of the 4N amplitudes through four index
    maps, a multiply by fixed phases, and a contraction with the step weights
    (c, c, s, s).
    """
    m = params.n_spins.bit_length() - 1
    src_s, phase_s, src_y, phase_y = _compiled_step(m)
    half = 0.5 * (4.0 * params.field_b * schedule.delta)
    cy, sy = math.cos(half), math.sin(half)
    index = np.stack([np.arange(src_s.size), src_y, src_s, src_s[src_y]])
    phases = np.stack([np.full(src_s.size, cy), sy * phase_y,
                       cy * phase_s, sy * phase_y * phase_s[src_y]])
    angles = params.coupling_j * schedule.taus()
    cos_a, sin_a = np.cos(angles), np.sin(angles)
    weights = np.stack([cos_a, cos_a, sin_a, sin_a], axis=1).astype(complex)
    psi = initial_state(m).amplitudes
    for weight in weights[::-1]:
        psi = weight @ (phases * psi[index])
    reg = CompressedRegister(m=m, amplitudes=psi)
    drift = abs(reg.norm() - 1.0)
    if drift > 1e-9:
        raise AssertionError(f"norm drifted by {drift:.3e} during the run")
    return reg


def measure_ym(reg: CompressedRegister) -> float:
    """<Y> on the probe qubit m."""
    view = reg.view()
    n = reg.n_qubits
    lo = view[_slices(n, {reg.m: 0})]
    hi = view[_slices(n, {reg.m: 1})]
    # <Y> = <psi| (-i|0><1| + i|1><0|) |psi> on the probe axis.
    return float((2.0 * np.imag(np.sum(lo.conj() * hi))))


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

_GATE_RE = re.compile(
    r"^(?:(X|HT) (\d+)"
    r"|(RY)\(([^)]+)\) (\d+)"
    r"|(RXX)\(([^)]+)\) (\d+),(\d+)"
    r"|(CX) (\d+(?:,\d+)*) -> (\d+))$"
)
_META_RE = re.compile(
    r"^# N=(\d+) B=(\S+) J=(\S+) T=(\S+) L=(\d+)$"
)


def dump_program(program: GateProgram) -> str:
    """One gate per line; a metadata header when the program carries one."""
    lines: list[str] = []
    if program.meta is not None:
        meta = program.meta
        lines.append(
            f"# N={meta.n_spins} B={_fmt(meta.field_b)} J={_fmt(meta.coupling_j)}"
            f" T={_fmt(meta.total_time)} L={meta.steps}"
        )
    for gate in program.gates:
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


def parse_program(text: str) -> GateProgram:
    gates: list[Gate] = []
    meta: ProgramMeta | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            match = _META_RE.match(line)
            if match:
                meta = ProgramMeta(int(match[1]), float(match[2]), float(match[3]),
                                   float(match[4]), int(match[5]))
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
    return GateProgram(gates=tuple(gates), meta=meta)


def lowered_gate_count(program: GateProgram) -> int:
    """Elementary-gate estimate with multi-controlled X lowered linearly.

    A k-controlled X costs O(k) elementary gates given one borrowable qubit;
    the estimate charges 2k - 1 for k >= 2 and 1 otherwise, so a shift ladder
    on m+1 qubits totals O(m^2).  Reporting only; simulation never lowers.
    """
    total = 0
    for gate in program.gates:
        k = len(gate.controls)
        total += 2 * k - 1 if k >= 2 else 1
    return total
