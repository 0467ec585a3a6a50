"""Batch front-end: sweeps, scaling studies, path comparisons, estimation runs.

Subcommands: sweep, scaling, compare, estimate, dump, oracle.  Every run is
deterministic for a fixed seed and configuration: outputs are byte-identical
across invocations.  Reports are JSON (CSV for flat tables), carry the
resolved configuration, and the process exits 0 only if every per-command
tolerance check passed; failures are listed machine-readably in the payload.

Option precedence: command-line flags > --config JSON file > defaults.
The CMETRO_WORKERS environment variable sizes the sweep worker pool
(assembly is order-stable, so the output does not depend on it).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import NoReturn

import numpy as np

from . import adiabatic, circuit, dense, ising, matchgate, metrology

MATRIX_GATE_TOL = 1e-9
DENSE_MATRIX_TOL = 1e-9
SLOPE_WINDOW_B = (-2.1, -1.9)
SLOPE_WINDOW_M = (-1.35, -1.0)
FLATNESS_WINDOW_M = 0.10
SCHEMA_VERSION = 1
# Config keys whose flags take comma-separated lists, with their element type.
_LIST_KEYS = {"n": int, "n_magnetization": int, "g": float, "window": float}
# Config keys whose flags take one value, with its type.
_SCALAR_KEYS = {"b": float, "j": float, "shots": int, "reps": int, "seed": int,
                "t_total": float, "l_steps": int, "c_t": float, "c_l": float, "l_cap": int,
                "analytic_tol": float, "error_budget": float, "format": str, "out": str}
_TYPE_NAMES = {int: "an int", float: "a float", str: "a string"}


def _fmt12(x: float) -> str:
    return format(float(x), ".12g")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "wb") as fh:
            fh.write(text.encode())
    else:
        sys.stdout.write(text)


def _json_report(payload: dict, out: str | None) -> None:
    _emit(json.dumps({"schema": SCHEMA_VERSION, **payload}, indent=2) + "\n", out)


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """flags > config file > defaults, strict about unknown keys, value types and empty --g.

    A config value of null stands for the default only where the default is null.
    """
    file_cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError) as exc:
            _usage_error(f"--config: {exc}")
        if not isinstance(file_cfg, dict):
            _usage_error(f"--config must hold a JSON object, got {json.dumps(file_cfg)}")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            _usage_error(f"unknown config keys: {sorted(unknown)}")
        for key, val in file_cfg.items():
            if val is None and defaults[key] is None:
                continue
            if key in _LIST_KEYS:
                kind = _LIST_KEYS[key]
                if not (isinstance(val, list) and all(_is_a(v, kind) for v in val)):
                    _usage_error(f"config key {key!r} must be a list of {kind.__name__}s, "
                                 f"got {json.dumps(val)}")
            elif not _is_a(val, _SCALAR_KEYS[key]):
                _usage_error(f"config key {key!r} must be {_TYPE_NAMES[_SCALAR_KEYS[key]]}, "
                             f"got {json.dumps(val)}")
    resolved = {}
    for key, default in defaults.items():
        val = getattr(args, key, None)
        if val is None:
            val = file_cfg.get(key, default)
        resolved[key] = val
    if "g" in resolved and not resolved["g"]:
        _usage_error(f"{args.command} needs a nonempty --g list")
    return resolved


def _is_a(val, kind: type) -> bool:
    if kind is str:
        return isinstance(val, str)
    numbers = (int,) if kind is int else (int, float)
    return isinstance(val, numbers) and not isinstance(val, bool)


def _usage_error(message: str) -> NoReturn:
    """One line on stderr and exit 2, argparse's usage-error code; exit 1 means a failed check."""
    print(f"cmetro: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _check_sizes(sizes: list[int], *, curves: bool, chain: bool) -> None:
    """Usage error unless every N suits the command, before any work runs.

    The closed-form curves need even N >= 4; the chain itself (rotation,
    circuit, dense oracle) needs a power of two.
    """
    if not sizes:
        _usage_error("--n needs at least one size")
    for n in sizes:
        try:
            if curves:
                ising.check_curve_size(n)
            if chain:
                ising.IsingParams(n, field_b=1.0, coupling_j=1.0)
        except ValueError as exc:
            _usage_error(f"--n: {exc}")


def _apply_b_override(cfg: dict) -> None:
    """--b with --j replaces the --g list by B/J; g is undefined at J = 0."""
    if cfg["j"] == 0:
        _usage_error(f"--j must be nonzero (g = B/J), got {cfg['j']}")
    if cfg["b"] is not None:
        cfg["g"] = [cfg["b"] / cfg["j"]]


def _schedule_from(cfg: dict, n_spins: int) -> adiabatic.TrotterSchedule:
    try:
        return adiabatic.build_schedule(
            n_spins,
            total_time=cfg.get("t_total"),
            steps=cfg.get("l_steps"),
            c_t=cfg.get("c_t", 10.0),
            c_l=cfg.get("c_l", 1.0),
            step_cap=cfg.get("l_cap", 10**6),
        )
    except ValueError as exc:
        _usage_error(str(exc))


def _schedule_meta(sch: adiabatic.TrotterSchedule) -> dict:
    return {"t_total": sch.total_time, "l_steps": sch.steps,
            "trotter_proxy": adiabatic.trotter_error_bound(sch)}


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_SWEEP_FORMATS = ("csv", "json")
_SWEEP_COLUMNS = ("n", "g", "expected_b", "expected_b_deriv", "variance_b",
                  "expected_m", "expected_m_deriv", "variance_m")


def _sweep_row(task: tuple[int, float]) -> tuple:
    n, g = task
    return (n, g,
            ising.expected_b(g, n), ising.expected_b_derivative(g, n), ising.variance_b(g, n),
            ising.expected_m(g, n), ising.expected_m_derivative(g, n), ising.variance_m(g, n))


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _resolve(args, {"n": [4, 8, 16], "g": None, "format": "csv", "out": None})
    out = cfg.pop("out")
    if cfg["format"] not in _SWEEP_FORMATS:
        _usage_error(f"format must be one of {', '.join(_SWEEP_FORMATS)}, "
                     f"got {json.dumps(cfg['format'])}")
    _check_sizes(cfg["n"], curves=True, chain=False)
    tasks = sorted((n, g) for n in cfg["n"] for g in cfg["g"])
    workers = int(os.environ.get("CMETRO_WORKERS", "1"))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, tasks, chunksize=16))
    else:
        rows = [_sweep_row(task) for task in tasks]

    if cfg["format"] == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(_SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([str(row[0])] + [_fmt12(v) for v in row[1:]])
        _emit(buf.getvalue(), out)
        print(f"config: {json.dumps(cfg)}", file=sys.stderr)
    else:
        payload = {
            "command": "sweep",
            "config": cfg,
            "rows": [dict(zip(_SWEEP_COLUMNS, (int(r[0]),) + tuple(map(float, r[1:]))))
                     for r in rows],
        }
        _json_report(payload, out)
    return 0


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

def scaling_report(g: float, n_list_b: list[int], n_list_m: list[int], shots: int = 1) -> dict:
    """Scaling fits plus the acceptance windows; shared with the test suite."""
    fit_b = metrology.fit_scaling("B", g, n_list_b, shots)
    fit_m = metrology.fit_scaling("M", g, n_list_m, shots)
    var_b_tail = {n: ising.variance_b(g, n) for n in n_list_b if n >= 64}
    flat_dev = metrology.magnetization_flatness(g, n_list_m)

    failures = []
    if not SLOPE_WINDOW_B[0] <= fit_b.slope <= SLOPE_WINDOW_B[1]:
        failures.append(f"slope_b {fit_b.slope:.4f} outside {SLOPE_WINDOW_B}")
    if not SLOPE_WINDOW_M[0] <= fit_m.slope <= SLOPE_WINDOW_M[1]:
        failures.append(f"slope_m {fit_m.slope:.4f} outside {SLOPE_WINDOW_M}")
    for n, v in var_b_tail.items():
        if abs(v - 0.25) > 0.02 * 0.25:
            failures.append(f"variance_b at N={n} strays from 1/4 by more than 2%")
    if flat_dev > FLATNESS_WINDOW_M:
        failures.append(
            f"delta_g_sq*N*log^2(N) for M varies by {flat_dev:+.1%} over the window "
            f"(> {FLATNESS_WINDOW_M:.0%})"
        )
    return {
        "slope_b": fit_b.slope,
        "intercept_b": fit_b.intercept,
        "r_squared_b": fit_b.r_squared,
        "slope_m": fit_m.slope,
        "intercept_m": fit_m.intercept,
        "r_squared_m": fit_m.r_squared,
        "delta_g_sq_b": {str(n): metrology.precision_b(g, n, shots).delta_g_sq for n in n_list_b},
        "delta_g_sq_m": {str(n): metrology.precision_m(g, n, shots).delta_g_sq for n in n_list_m},
        "variance_b_tail": {str(n): v for n, v in var_b_tail.items()},
        "m_flatness_deviation": flat_dev,
        "failures": failures,
    }


def cmd_scaling(args: argparse.Namespace) -> int:
    cfg = _resolve(args, {
        "g": [1.0],
        "n": None,
        "n_magnetization": [2**k for k in range(8, 14)],
        "shots": 1,
        "out": None,
    })
    out = cfg.pop("out")
    g = cfg["g"][0]
    n_list_b = cfg["n"] or [2**k for k in range(3, 11)]
    _check_sizes(n_list_b, curves=True, chain=False)
    _check_sizes(cfg["n_magnetization"], curves=True, chain=False)
    report = scaling_report(g, n_list_b, cfg["n_magnetization"], cfg["shots"])
    payload = {"command": "scaling", "config": cfg, **report, "passed": not report["failures"]}
    _json_report(payload, out)
    return 0 if payload["passed"] else 1


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def compare_point(n: int, g: float, schedule: adiabatic.TrotterSchedule,
                  coupling_j: float = 1.0) -> dict:
    params = ising.IsingParams(n, field_b=g * coupling_j, coupling_j=coupling_j)
    analytic = ising.expected_b(g, n)
    rot = adiabatic.adiabatic_rotation(params, schedule)
    matrix = matchgate.expectation_quadratic(rot, matchgate.observable_b_coefficients(n))
    gate = circuit.expectation_b_gate(params, schedule)
    state = dense.trotter_evolve(params, schedule)
    dense_val = dense.expectation(state, dense.observable_b_dense(n))
    return {
        "n": n,
        "g": g,
        "analytic": analytic,
        "matrix": matrix,
        "gate": gate,
        "dense": dense_val,
        "delta_matrix_gate": abs(matrix - gate),
        "delta_dense_matrix": abs(dense_val - matrix),
        "delta_analytic_matrix": abs(analytic - matrix),
    }


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _resolve(args, {
        "n": [4], "g": [0.5, 1.0, 1.5], "b": None, "j": 1.0,
        "t_total": None, "l_steps": None, "c_t": 10.0, "c_l": 1.0, "l_cap": 10**6,
        "analytic_tol": None, "out": None,
    })
    _apply_b_override(cfg)
    out = cfg.pop("out")
    sizes = sorted(cfg["n"])
    _check_sizes(sizes, curves=True, chain=True)
    if sizes[-1] > 8:
        _usage_error("compare runs the gate/dense legs; N <= 8 required")
    schedules = [(n, _schedule_from(cfg, n)) for n in sizes]
    failures = []
    rows = []
    for n, schedule in schedules:
        for g in sorted(cfg["g"]):
            row = compare_point(n, g, schedule, coupling_j=cfg["j"])
            row.update(_schedule_meta(schedule))
            rows.append(row)
            if row["delta_matrix_gate"] >= MATRIX_GATE_TOL:
                failures.append(f"matrix/gate mismatch {row['delta_matrix_gate']:.2e} at N={n} g={g}")
            if row["delta_dense_matrix"] >= DENSE_MATRIX_TOL:
                failures.append(f"dense/matrix mismatch {row['delta_dense_matrix']:.2e} at N={n} g={g}")
            if cfg["analytic_tol"] is not None and row["delta_analytic_matrix"] > cfg["analytic_tol"]:
                failures.append(
                    f"analytic delta {row['delta_analytic_matrix']:.2e} above "
                    f"{cfg['analytic_tol']:.2e} at N={n} g={g}"
                )
    payload = {"command": "compare", "config": cfg, "rows": rows,
               "failures": failures, "passed": not failures}
    _json_report(payload, out)
    return 0 if payload["passed"] else 1


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def estimation_run(
    n: int,
    g_star: float,
    schedule: adiabatic.TrotterSchedule,
    shots: int,
    reps: int,
    seed: int,
    window: tuple[float, float],
    coupling_j: float = 1.0,
) -> dict:
    """Circuit once -> +1 count per repetition -> one inversion per distinct count.

    Repetition r gets the bits of ``estimate_g(sample_ym(reg, shots, seed_r))``.
    """
    params = ising.IsingParams(n, field_b=g_star * coupling_j, coupling_j=coupling_j)
    reg = circuit.run_circuit(params, schedule)
    rep_seeds = np.random.default_rng(seed).integers(0, 2**63, size=reps)
    counts = circuit.count_ym(reg, shots, rep_seeds)
    estimates, clamped = metrology.estimate_counts(counts, shots, n, window=window)
    sq_errors = (estimates - g_star) ** 2
    mse = float(np.mean(sq_errors))
    predicted = metrology.precision_b(g_star, n, shots).delta_g_sq
    out = {
        "n": n,
        "g_star": g_star,
        "shots": shots,
        "reps": reps,
        "circuit_b": 0.5 * (1.0 - circuit.measure_ym(reg)),
        "analytic_b": ising.expected_b(g_star, n),
        "mean_estimate": float(np.mean(estimates)),
        "bias": float(np.mean(estimates) - g_star),
        "empirical_mse": mse,
        "mse_std_error": float(np.std(sq_errors) / math.sqrt(reps)),
        "predicted_delta_g_sq": predicted,
        "mse_over_prediction": mse / predicted,
        "clamped_reps": int(clamped.sum()),
    }
    if n <= 10:
        out["cramer_rao_bound"] = metrology.cramer_rao(ising.qfi(g_star, n), shots)
    return out


def cmd_estimate(args: argparse.Namespace) -> int:
    cfg = _resolve(args, {
        "n": [16], "g": [1.0], "b": None, "j": 1.0, "shots": 10_000, "reps": 200, "seed": None,
        "t_total": None, "l_steps": None, "c_t": 10.0, "c_l": 1.0, "l_cap": 10**6,
        "window": [0.5, 1.5], "error_budget": None, "out": None,
    })
    _apply_b_override(cfg)
    out = cfg.pop("out")
    if cfg["seed"] is None:
        _usage_error("--seed is mandatory for stochastic commands")
    if cfg["seed"] < 0:
        _usage_error(f"--seed must be nonnegative, got {cfg['seed']}")
    if cfg["shots"] < 1:
        _usage_error(f"--shots must be at least 1, got {cfg['shots']}")
    if cfg["reps"] < 1:
        _usage_error(f"--reps must be at least 1, got {cfg['reps']}")
    window = cfg["window"]
    if len(window) != 2 or not window[0] < window[1]:
        _usage_error(f"--window must be lo,hi with lo < hi, got {','.join(map(str, window))}")
    _check_sizes(cfg["n"], curves=True, chain=True)
    n, g_star = cfg["n"][0], cfg["g"][0]
    schedule = _schedule_from(cfg, n)
    if cfg["error_budget"] is not None:
        # The proxy is a very loose scale (orders above the measured bias);
        # opt-in only, so sane runs are not drowned in warnings.
        adiabatic.build_schedule(n, total_time=schedule.total_time, steps=schedule.steps,
                                 error_budget=cfg["error_budget"])
    report = estimation_run(n, g_star, schedule, cfg["shots"], cfg["reps"], cfg["seed"],
                            tuple(cfg["window"]), coupling_j=cfg["j"])
    report.update(_schedule_meta(schedule))
    failures = []
    if not 0.5 <= report["mse_over_prediction"] <= 2.0:
        failures.append(f"empirical MSE is {report['mse_over_prediction']:.2f}x the prediction")
    if "cramer_rao_bound" in report:
        # The moment estimator saturates the bound at N=4, so the Monte-Carlo
        # MSE estimate straddles it; flag only a statistically significant
        # (3 sigma) violation of the bound itself.
        floor = (1 - 1e-6) * report["cramer_rao_bound"] - 3.0 * report["mse_std_error"]
        if report["empirical_mse"] < floor:
            failures.append("empirical MSE fell significantly below the Cramer-Rao bound")
    payload = {"command": "estimate", "config": cfg, **report,
               "failures": failures, "passed": not failures}
    _json_report(payload, out)
    return 0 if payload["passed"] else 1


# ---------------------------------------------------------------------------
# dump
# ---------------------------------------------------------------------------

def cmd_dump(args: argparse.Namespace) -> int:
    cfg = _resolve(args, {
        "n": [4], "b": 1.0, "j": 1.0,
        "t_total": None, "l_steps": None, "c_t": 10.0, "c_l": 1.0, "l_cap": 10**6,
        "out": None,
    })
    out = cfg.pop("out")
    _check_sizes(cfg["n"], curves=False, chain=True)
    n = cfg["n"][0]
    m = n.bit_length() - 1
    schedule = _schedule_from(cfg, n)
    params = ising.IsingParams(n, field_b=cfg["b"], coupling_j=cfg["j"])
    program = circuit.full_program(params, schedule)
    _emit(circuit.dump_program(program), out)
    shift = circuit.decompose_shift(m)
    summary = {
        "config": cfg,
        "n_gates": len(program),
        "steps": schedule.steps + 1,
        "controlled_gates_per_shift": len(shift.gates),
        "lowered_gates_per_shift": circuit.lowered_gate_count(shift),
    }
    print(json.dumps(summary), file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def cmd_oracle(args: argparse.Namespace) -> int:
    cfg = _resolve(args, {
        "n": [4], "g": [1.0],
        "t_total": None, "l_steps": None, "c_t": 10.0, "c_l": 1.0, "l_cap": 10**6,
        "out": None,
    })
    out = cfg.pop("out")
    sizes = sorted(cfg["n"])
    _check_sizes(sizes, curves=False, chain=True)
    if sizes[-1] > 10:
        _usage_error("oracle is capped at N <= 10")
    schedules = [(n, _schedule_from(cfg, n)) for n in sizes]
    rows = []
    for n, schedule in schedules:
        b_op = dense.observable_b_dense(n)
        m_op = dense.observable_m_dense(n)
        parity = np.diag(dense.parity_diag(n)).astype(complex)
        for g in sorted(cfg["g"]):
            params = ising.IsingParams(n, field_b=g, coupling_j=1.0)
            state = dense.ground_state_even(params)
            trotter = dense.trotter_evolve(params, schedule)
            rows.append({
                "n": n,
                "g": g,
                "ground_energy_even": dense.ground_energy(params, +1),
                "expected_b": dense.expectation(state, b_op),
                "expected_m": dense.expectation(state, m_op),
                "variance_b": dense.variance(state, b_op),
                "variance_m": dense.variance(state, m_op),
                "parity": dense.expectation(state, parity),
                "qfi": dense.qfi_pure(params),
                "trotter_overlap_sq": float(abs(np.vdot(state, trotter)) ** 2),
                **_schedule_meta(schedule),
            })
    payload = {"command": "oracle", "config": cfg, "rows": rows}
    _json_report(payload, out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmetro",
        description="Compressed Ising-chain metrology: sweeps, comparisons, estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, schedule: bool = True) -> None:
        p.add_argument("--n", type=_ints, help="comma-separated system sizes")
        p.add_argument("--g", type=_floats, help="comma-separated field/coupling ratios")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--config", help="JSON config file (flags take precedence)")
        if schedule:
            p.add_argument("--t-total", dest="t_total", type=float, help="adiabatic duration T")
            p.add_argument("--l-steps", dest="l_steps", type=int, help="Trotter step count L")
            p.add_argument("--c-t", dest="c_t", type=float, help="default T = c_t * N^2")
            p.add_argument("--c-l", dest="c_l", type=float, help="default L = c_l * N^5 (capped)")
            p.add_argument("--l-cap", dest="l_cap", type=int, help="cap on the default L")

    p_sweep = sub.add_parser("sweep", help="analytic observable curves over (N, g) grids")
    common(p_sweep, schedule=False)
    p_sweep.add_argument("--format", choices=_SWEEP_FORMATS)
    p_sweep.set_defaults(func=cmd_sweep)

    p_scaling = sub.add_parser("scaling", help="precision-scaling fits and windows")
    common(p_scaling, schedule=False)
    p_scaling.add_argument("--n-magnetization", dest="n_magnetization", type=_ints,
                           help="sizes for the magnetization fit")
    p_scaling.add_argument("--shots", type=int)
    p_scaling.set_defaults(func=cmd_scaling)

    p_compare = sub.add_parser("compare", help="analytic vs matrix vs gate vs dense <B>")
    common(p_compare)
    p_compare.add_argument("--b", type=float, help="field B (with --j, overrides --g)")
    p_compare.add_argument("--j", type=float, help="coupling J")
    p_compare.add_argument("--analytic-tol", dest="analytic_tol", type=float,
                           help="also check |analytic - matrix| against this tolerance")
    p_compare.set_defaults(func=cmd_compare)

    p_estimate = sub.add_parser("estimate", help="full estimation pipeline, Monte Carlo")
    common(p_estimate)
    p_estimate.add_argument("--b", type=float, help="true field B (with --j, overrides --g)")
    p_estimate.add_argument("--j", type=float, help="known coupling J")
    p_estimate.add_argument("--shots", type=int)
    p_estimate.add_argument("--reps", type=int)
    p_estimate.add_argument("--seed", type=int)
    p_estimate.add_argument("--window", type=_floats, help="calibration search window lo,hi")
    p_estimate.add_argument("--error-budget", dest="error_budget", type=float,
                            help="warn when the Trotter proxy L*Delta^2 exceeds this")
    p_estimate.set_defaults(func=cmd_estimate)

    p_dump = sub.add_parser("dump", help="write the gate program of R^T(B, J)")
    common(p_dump)
    p_dump.add_argument("--b", type=float, help="field B")
    p_dump.add_argument("--j", type=float, help="coupling J")
    p_dump.set_defaults(func=cmd_dump)

    p_oracle = sub.add_parser("oracle", help="dense reference values (N <= 10)")
    common(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
