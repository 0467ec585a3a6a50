"""The benchmark's workloads: inputs drawn from a seed, timed operations, output checks.

Each workload is a fixed batch of operations that one fresh process runs
back to back (closed loop, one caller).  An operation is one ``cmetro``
invocation or one rotation evaluation.  ``make_inputs`` runs in the parent
and imports nothing heavy; everything that touches the package runs in the
worker, after ``import_package``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Why each workload exists; BENCHMARK.json carries the same sentences.
WHY = {
    "estimate-gate": "criterion 6's estimate command at N=8, L=8192: ~86% in the gate-level "
                     "circuit runner, so a faster runner shows here and sampling or inversion "
                     "changes do not",
    "estimate-reps": "the same estimate command at N=4 with 4000 reps: cost sits in per-rep "
                     "sampling and calibration inversion, and a runner change must leave it unmoved",
    "rotation-scan": "compressed SO(2N) rotation at N=64..256 on the momentum path, the only "
                     "workload where the back-transform or a single-momentum kernel shows",
    "crosscheck": "compare then oracle at N=4,8 and one g: the only workload that runs the dense "
                  "oracle and the direct product path",
}

# Full-size configurations.  The tiny ones exist for the benchmark's own tests.
# A batch takes one to two seconds, so a run holds ten or more of them.
# Criterion 6 itself (N=16, T=2560, L=65536) takes 12-15 s, too long for that;
# the runner's cost per step does not depend on N, and at N=8, T=10 N^2 the
# estimate passes its MSE check with L=8192 steps (with L=4096 it does not).
_ESTIMATE = {
    "estimate-gate": {"n": 8, "g": 1.0, "t_total": 640, "l_steps": 8192,
                      "shots": 10000, "reps": 200},
    "estimate-reps": {"n": 4, "g": 1.0, "t_total": 160, "l_steps": 2048,
                      "shots": 10000, "reps": 4000},
}
_TINY_ESTIMATE = {"n": 4, "g": 1.0, "t_total": 160, "l_steps": 2048, "shots": 1000, "reps": 200}
# N=512 alone takes about 6 s, longer than a batch may.  At N=256 the O(N^3)
# back-transform already lifts the time per mode and step by ~80% over N=64.
ROTATION_SIZES = (64, 128, 256)
_ROTATION_STEP_CAP = 30000
_TINY_ROTATION = ((8, 16), 2048)
_CROSSCHECK = {"n": [4, 8], "l_steps": 2048}
_TINY_CROSSCHECK = {"n": [4], "l_steps": 64}


def _draw_g(rng: random.Random) -> float:
    # Six decimals, so the value the CLI parses is exactly the value drawn.
    return round(rng.uniform(0.5, 1.5), 6)


def make_inputs(workload: str, seed: int, tiny: bool = False) -> dict:
    """The workload's inputs, a pure function of (workload, seed, tiny)."""
    rng = random.Random(seed)
    if workload in _ESTIMATE:
        cfg = dict(_TINY_ESTIMATE if tiny else _ESTIMATE[workload])
        cfg["seed"] = rng.randrange(1, 2**31)
        return cfg
    if workload == "rotation-scan":
        sizes, cap = _TINY_ROTATION if tiny else (ROTATION_SIZES, _ROTATION_STEP_CAP)
        return {"points": [[n, _draw_g(rng)] for n in sizes], "step_cap": cap}
    if workload == "crosscheck":
        cfg = dict(_TINY_CROSSCHECK if tiny else _CROSSCHECK)
        cfg["g"] = [_draw_g(rng)]  # each g adds about 2 s to a batch
        return cfg
    raise ValueError(f"unknown workload {workload!r}")


def ops_per_batch(workload: str, inputs: dict) -> int:
    if workload == "rotation-scan":
        return len(inputs["points"])
    return 2 if workload == "crosscheck" else 1


# ---------------------------------------------------------------------------
# Output checks.  Each raises CheckFailed; the worker counts any exception
# from an operation or its check as one failed operation.
# ---------------------------------------------------------------------------

class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_exit(code: int, report: dict) -> None:
    _require(code == 0, f"command exited {code}: {report.get('failures')}")
    _require(report.get("passed", True) is True, f"report failures: {report.get('failures')}")


def check_estimate_gate(code: int, report: dict, b_rotation: float, tol: float) -> None:
    """Exit 0, and the circuit's <B> equals the SO(2N) rotation's <B> to ``tol``."""
    check_exit(code, report)
    delta = abs(report["circuit_b"] - b_rotation)
    _require(delta < tol, f"circuit/rotation <B> differ by {delta:.3e} (tol {tol:.0e})")


def check_estimate_reps(code: int, report: dict) -> None:
    """Exit 0 with no failures, and the Cramer-Rao floor check was applied."""
    check_exit(code, report)
    _require(not report["failures"], f"report failures: {report['failures']}")
    _require("cramer_rao_bound" in report, "no Cramer-Rao bound in the report")


def check_rotation(assert_rotation: Callable[[Any], None], rot: Any, b_value: float) -> None:
    """The rotation is special orthogonal and 0 <= <B> <= 1."""
    assert_rotation(rot)
    _require(0.0 <= b_value <= 1.0, f"<B> = {b_value!r} outside [0, 1]")


def check_oracle(code: int, report: dict, expected_b: Callable[[float, int], float],
                 tol: float) -> None:
    """Every row has parity +1 and the closed-form <B> to ``tol``."""
    check_exit(code, report)
    _require(bool(report["rows"]), "oracle returned no rows")
    for row in report["rows"]:
        _require(abs(row["parity"] - 1.0) <= tol,
                 f"parity {row['parity']!r} at N={row['n']} g={row['g']}")
        delta = abs(row["expected_b"] - expected_b(row["g"], row["n"]))
        _require(delta <= tol,
                 f"oracle/closed-form <B> differ by {delta:.3e} at N={row['n']} g={row['g']}")


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One timed call, then an untimed check that returns the output's digest."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str]


def import_package():
    """Import the package from ``src/``, as the repository's own tests do."""
    sys.path.insert(0, str(SRC))
    import compressed_metrology.cli as cli

    return cli


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_op(cli, label: str, argv: list[str], out: Path, check: Callable[[int, dict], None]) -> Op:
    def call() -> int:
        try:
            return cli.main([*argv, "--out", str(out)])
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1

    def checked(code: int) -> str:
        data = out.read_bytes()
        check(code, json.loads(data))
        return _sha256(data)

    return Op(label, call, checked)


def _schedule_flags(cfg: dict) -> list[str]:
    flags = ["--l-steps", str(cfg["l_steps"])]
    if "t_total" in cfg:
        flags += ["--t-total", str(cfg["t_total"])]
    return flags


def build_ops(cli, workload: str, inputs: dict, tmp: Path) -> list[Op]:
    """Everything a batch needs before its first timed call."""
    adiabatic, ising, matchgate = cli.adiabatic, cli.ising, cli.matchgate

    if workload in _ESTIMATE:
        cfg = inputs
        argv = ["estimate", "--n", str(cfg["n"]), "--g", str(cfg["g"]), *_schedule_flags(cfg),
                "--shots", str(cfg["shots"]), "--reps", str(cfg["reps"]), "--seed", str(cfg["seed"])]
        if workload == "estimate-gate":
            def check(code: int, report: dict) -> None:
                params = ising.IsingParams(cfg["n"], field_b=cfg["g"], coupling_j=1.0)
                schedule = adiabatic.build_schedule(cfg["n"], cfg["t_total"], cfg["l_steps"])
                rot = adiabatic.adiabatic_rotation(params, schedule)
                b_rot = matchgate.expectation_quadratic(
                    rot, matchgate.observable_b_coefficients(cfg["n"]))
                check_estimate_gate(code, report, b_rot, cli.MATRIX_GATE_TOL)
        else:
            check = check_estimate_reps
        return [_cli_op(cli, "estimate", argv, tmp / "estimate.json", check)]

    if workload == "rotation-scan":
        ops = []
        for n, g in inputs["points"]:
            params = ising.IsingParams(n, field_b=g, coupling_j=1.0)
            schedule = adiabatic.build_schedule(n, step_cap=inputs["step_cap"])

            def call(n=n, params=params, schedule=schedule):
                rot = adiabatic.adiabatic_rotation(params, schedule)
                return rot, matchgate.expectation_quadratic(
                    rot, matchgate.observable_b_coefficients(n))

            def checked(result) -> str:
                rot, b_value = result
                check_rotation(matchgate.assert_rotation, rot, b_value)
                return _sha256(rot.tobytes() + repr(b_value).encode())

            ops.append(Op(f"rotation N={n}", call, checked))
        return ops

    if workload == "crosscheck":
        grid = ["--n", ",".join(map(str, inputs["n"])), "--g", ",".join(map(str, inputs["g"])),
                *_schedule_flags(inputs)]
        return [
            _cli_op(cli, "compare", ["compare", *grid], tmp / "compare.json", check_exit),
            _cli_op(cli, "oracle", ["oracle", *grid], tmp / "oracle.json",
                    lambda code, report: check_oracle(code, report, ising.expected_b,
                                                      cli.DENSE_MATRIX_TOL)),
        ]

    raise ValueError(f"unknown workload {workload!r}")
