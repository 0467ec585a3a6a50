"""Batch front-end: sweeps, scaling studies, path comparisons, estimation runs.

Subcommands: sweep, scaling, compare, estimate, dump, oracle.  Every run is
deterministic for a fixed seed and configuration: outputs are byte-identical
across invocations.  Each ``cmd_<name>(cfg)`` handler takes the resolved
configuration and returns either text (the sweep CSV, the gate dump), written
as it is, or the body of a JSON report.  ``main`` wraps a body with the
schema, command and configuration, adds ``passed`` when the body lists
``failures``, and exits 1 only when that list is nonempty; a body holding
NaN or an infinity raises ValueError instead of being written.

Every command but ``dump`` runs the chain at J = 1 and B = g; each Trotter
angle is a multiple of J*Delta, so a run at J is the run at J = 1 over |J|*T.

Option precedence: command-line flags > --config JSON file > defaults.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import stat
import sys
from typing import NoReturn

import numpy as np

from . import adiabatic, circuit, dense, ising, matchgate, metrology

MATRIX_GATE_TOL = 1e-9
DENSE_MATRIX_TOL = 1e-9
SLOPE_WINDOW_B = (-2.1, -1.9)
SLOPE_WINDOW_M = (-1.35, -1.0)
FLATNESS_WINDOW_M = 0.10
SCHEMA_VERSION = 1
# Most repetitions of one estimate; its per-repetition arrays peak near 51 bytes each.
MAX_REPS = 10**7
# Every option, by config key: element type, whether its flag takes a comma
# list, and help.  The flag is the key with "-" for "_".
_OPTIONS = {
    "n": (int, True, "comma-separated system sizes"),
    "n_magnetization": (int, True, "sizes for the magnetization fit"),
    "g": (float, True, "comma-separated field/coupling ratios"),
    "b": (float, False, "field B"),
    "j": (float, False, "coupling J"),
    "shots": (int, False, "shots per repetition"),
    "reps": (int, False, "Monte Carlo repetitions, at most 10^7"),
    "seed": (int, False, "RNG seed (mandatory)"),
    "window": (float, True, "calibration search window lo,hi"),
    "t_total": (float, False, "adiabatic duration T (default 10 N^2)"),
    "l_steps": (int, False, "Trotter step count L (default L + 1 = ceil(T/0.1))"),
    "format": (str, False, "csv or json"),
    "out": (str, False, "output path (default stdout)"),
}
# Defaults of the Trotter schedule options, shared by every command that runs the chain.
_SCHEDULE = {"t_total": None, "l_steps": None}
_TYPE_NAMES = {int: "an int", float: "a float", str: "a string"}


def _fmt12(x: float) -> str:
    return format(float(x), ".12g")


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to stdout or to the file ``out``.

    An existing regular file is overwritten in place and then truncated to
    the new length: truncating it to zero first makes ext4 (auto_da_alloc)
    flush it on close, which costs tens of milliseconds per report.
    """
    if not out:
        sys.stdout.write(text)
        return
    with open(os.open(out, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode())
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _check_out(out: str) -> bool:
    """Usage error unless ``out`` opens for writing, keeping an existing file; True if new."""
    created = not os.path.lexists(out)
    try:
        os.close(os.open(out, os.O_WRONLY | os.O_CREAT, 0o666))
    except OSError as exc:
        _usage_error(f"--out: {exc}")
    return created


def _list_of(kind: type):
    def parse(text: str) -> list:
        return [kind(tok) for tok in text.split(",") if tok]

    parse.__name__ = f"{kind.__name__} list"  # argparse names the type in its errors
    return parse


def _resolve(args: argparse.Namespace) -> dict:
    """flags > config file > defaults; rejects unknown keys, wrong types, nan/inf, empty --g.

    It also rejects a --seed, --shots or --reps below its bound, --shots
    above 2**53 and --reps above MAX_REPS, whichever command reads it.  The
    defaults are the command's in ``_COMMANDS``; a config value of null
    stands for the default only where the default is null.
    """
    defaults = _COMMANDS[args.command][2]
    file_cfg = {}
    if args.config:
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
            kind, is_list, _ = _OPTIONS[key]
            if is_list:
                if not (isinstance(val, list) and all(_is_a(v, kind) for v in val)):
                    _usage_error(f"config key {key!r} must be a list of {kind.__name__}s, "
                                 f"got {json.dumps(val)}")
            elif not _is_a(val, kind):
                _usage_error(f"config key {key!r} must be {_TYPE_NAMES[kind]}, "
                             f"got {json.dumps(val)}")
    resolved = {}
    for key, default in defaults.items():
        val = getattr(args, key)
        val = resolved[key] = file_cfg.get(key, default) if val is None else val
        kind, is_list, _ = _OPTIONS[key]
        vals = val if is_list else [val]
        # Rejects nan, +-inf (json.load reads NaN and Infinity) and ints past the float range.
        if kind is float and val is not None and not all(abs(v) <= sys.float_info.max
                                                         for v in vals):
            _usage_error(f"--{key.replace('_', '-')} must be finite, "
                         f"got {','.join(map(str, vals))}")
    if "g" in resolved and not resolved["g"]:
        _usage_error(f"{args.command} needs a nonempty --g list")
    for key, low, bound in (("seed", 0, "nonnegative"), ("shots", 1, "at least 1"),
                            ("reps", 1, "at least 1")):
        if resolved.get(key) is not None and resolved[key] < low:
            _usage_error(f"--{key} must be {bound}, got {resolved[key]}")
    # Up to 2**53 shots a +1 count and the +-1 sum 2 k - shots are exact floats.
    if resolved.get("shots") is not None and resolved["shots"] > 2**53:
        _usage_error(f"--shots must be at most 2**53, got {resolved['shots']}")
    if resolved.get("reps") is not None and resolved["reps"] > MAX_REPS:
        _usage_error(f"--reps must be at most 10**7, got {resolved['reps']}")
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


def _check_sizes(sizes: list[int], *, curves: bool, chain: bool, flag: str = "--n") -> None:
    """Usage error, naming ``flag``, unless every N suits the command, before any work runs.

    The closed-form curves need even N >= 4; the chain itself (rotation,
    circuit, dense oracle) needs a power of two.  Up to 2^53, the bound on
    L + 1, every float formed from N (r_1^4, 10 N^2) is finite and nonzero.
    """
    if not sizes:
        _usage_error(f"{flag} needs at least one size")
    for n in sizes:
        if n > 2**53:
            _usage_error(f"{flag}: N must be at most 2**53, got {n}")
        try:
            if curves:
                ising.check_curve_size(n)
            if chain:
                ising.IsingParams(n, field_b=1.0, coupling_j=1.0)
        except ValueError as exc:
            _usage_error(f"{flag}: {exc}")


def _check_ratios(ratios: list[float]) -> None:
    """Usage error unless the closed forms, which reach (1 + |g|)^4 (``ising.qfi``), are finite."""
    for g in ratios:
        top = 1.0 + abs(g)
        if math.isinf(top * top * top * top):
            _usage_error(f"the closed forms overflow at g = {g}: (1 + |g|)^4 is not finite")


def _one(cfg: dict, key: str, command: str):
    """The single value of a list option that ``command`` reads once."""
    if len(cfg[key]) != 1:
        _usage_error(f"{command} takes one --{key}, got {','.join(map(str, cfg[key]))}")
    return cfg[key][0]


def _schedule_from(cfg: dict, n_spins: int,
                   couplings: list[tuple[float, float]]) -> adiabatic.TrotterSchedule:
    """The schedule at N = ``n_spins``; usage error unless 4 N M max(T, 1) is finite
    and 4 M Delta eps is at most MATRIX_GATE_TOL.

    ``couplings`` lists the (B, J) pairs that run on it, and M is the largest
    of their |B|, |J| and 1.  With Delta <= T/2 (L >= 1) the first bound covers
    every number the chain forms: the step angles 2|B|Delta, 4|B|Delta and
    2|J|Delta, the tau intermediate 2 l Delta < 2T, the dense phases N|B|Delta
    and N|J|Delta, and the dense Hamiltonian's diagonal N|B|.  The second keeps
    the largest step angle 4 M Delta where a float, which holds it to eps times
    its size, resolves its phase to the tolerance the legs are compared at;
    past it each leg reduces the angle mod 2 pi through its own roundings.
    """
    try:
        schedule = adiabatic.build_schedule(n_spins, cfg["t_total"], cfg["l_steps"])
    except ValueError as exc:
        _usage_error(str(exc))
    m = max([1.0, *(abs(x) for coupling in couplings for x in coupling)])
    if math.isinf(4.0 * n_spins * m * max(schedule.total_time, 1.0)):
        _usage_error(f"the phase bound 4*N*M*max(T, 1), M = max(|B|, |J|, 1), is not finite "
                     f"at N={n_spins}, M={m}, T={schedule.total_time}")
    if 4.0 * m * schedule.delta * sys.float_info.epsilon > MATRIX_GATE_TOL:
        _usage_error(f"the step angle 4*M*Delta, M = max(|B|, |J|, 1), is too large for a float "
                     f"to resolve its phase (4*M*Delta*eps > {MATRIX_GATE_TOL:g}) "
                     f"at M={m}, Delta={schedule.delta:.6g}")
    return schedule


def _schedule_meta(sch: adiabatic.TrotterSchedule) -> dict:
    return {"t_total": sch.total_time, "l_steps": sch.steps}


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_SWEEP_FORMATS = ("csv", "json")
_SWEEP_COLUMNS = ("n", "g", "expected_b", "expected_b_deriv", "variance_b",
                  "expected_m", "expected_m_deriv", "variance_m")


def cmd_sweep(cfg: dict) -> dict | str:
    if cfg["format"] not in _SWEEP_FORMATS:
        _usage_error(f"format must be one of {', '.join(_SWEEP_FORMATS)}, "
                     f"got {json.dumps(cfg['format'])}")
    _check_sizes(cfg["n"], curves=True, chain=False)
    _check_ratios(cfg["g"])
    rows = [(n, g, ising.expected_b(g, n), ising.expected_b_derivative(g, n),
             ising.variance_b(g, n), ising.expected_m(g, n), ising.expected_m_derivative(g, n),
             ising.variance_m(g, n))
            for n, g in sorted((n, g) for n in cfg["n"] for g in cfg["g"])]
    if cfg["format"] == "json":
        return {"rows": [dict(zip(_SWEEP_COLUMNS, (int(r[0]),) + tuple(map(float, r[1:]))))
                         for r in rows]}
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_SWEEP_COLUMNS)
    for row in rows:
        writer.writerow([str(row[0])] + [_fmt12(v) for v in row[1:]])
    print(f"config: {json.dumps(cfg)}", file=sys.stderr)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

def cmd_scaling(cfg: dict) -> dict:
    """Scaling fits at g = 1 plus the acceptance windows."""
    n_list_b = [2**k for k in range(3, 11)] if cfg["n"] is None else cfg["n"]
    n_list_m = cfg["n_magnetization"]
    for flag, sizes in (("--n", n_list_b), ("--n-magnetization", n_list_m)):
        _check_sizes(sizes, curves=True, chain=False, flag=flag)
        if len(sizes) < 2 or len(set(sizes)) != len(sizes):
            _usage_error(f"{flag} needs at least two sizes, none repeated, for the fit, "
                         f"got {','.join(map(str, sizes))}")
    # At g = 1 both are finite at every N the size check admits.
    delta_g_sq_b = {str(n): metrology.precision_b(1.0, n) for n in n_list_b}
    delta_g_sq_m = {str(n): metrology.precision_m(1.0, n) for n in n_list_m}
    fit_b = metrology.fit_power_law(n_list_b, list(delta_g_sq_b.values()))
    fit_m = metrology.fit_power_law(n_list_m, list(delta_g_sq_m.values()))
    var_b_tail = {n: ising.variance_b(1.0, n) for n in n_list_b if n >= 64}
    flat_dev = metrology.magnetization_flatness(n_list_m, list(delta_g_sq_m.values()))

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
        "delta_g_sq_b": delta_g_sq_b,
        "delta_g_sq_m": delta_g_sq_m,
        "variance_b_tail": {str(n): v for n, v in var_b_tail.items()},
        "m_flatness_deviation": flat_dev,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def cmd_compare(cfg: dict) -> dict:
    """<B> five ways per (N, g): closed form, rotation, k = 1 kernel, gate circuit, dense state."""
    _check_ratios(cfg["g"])
    sizes = sorted(cfg["n"])
    _check_sizes(sizes, curves=True, chain=True)
    if sizes[-1] > 8:
        _usage_error("compare runs the gate/dense legs; N <= 8 required")
    schedules = [(n, _schedule_from(cfg, n, [(g, 1.0) for g in cfg["g"]])) for n in sizes]
    failures = []
    rows = []
    for n, schedule in schedules:
        b_coeffs = matchgate.observable_b_coefficients(n)
        b_dense = dense.observable_b_dense(n)
        for g in sorted(cfg["g"]):
            params = ising.IsingParams(n, field_b=g, coupling_j=1.0)
            analytic = ising.expected_b(g, n)
            rot = adiabatic.adiabatic_rotation(params, schedule)
            matrix = matchgate.expectation_quadratic(rot, b_coeffs)
            kernel = adiabatic.momentum_b(params, schedule)
            gate = circuit.expectation_b_gate(params, schedule)
            dense_val = dense.expectation(dense.trotter_evolve(params, schedule), b_dense)
            row = {"n": n, "g": g, "analytic": analytic, "matrix": matrix, "kernel": kernel,
                   "gate": gate, "dense": dense_val, "delta_matrix_gate": abs(matrix - gate),
                   "delta_kernel_gate": abs(kernel - gate),
                   "delta_dense_matrix": abs(dense_val - matrix),
                   "delta_analytic_matrix": abs(analytic - matrix), **_schedule_meta(schedule)}
            rows.append(row)
            if row["delta_matrix_gate"] >= MATRIX_GATE_TOL:
                failures.append(f"matrix/gate mismatch {row['delta_matrix_gate']:.2e} at N={n} g={g}")
            if row["delta_kernel_gate"] >= MATRIX_GATE_TOL:
                failures.append(f"kernel/gate mismatch {row['delta_kernel_gate']:.2e} at N={n} g={g}")
            if row["delta_dense_matrix"] >= DENSE_MATRIX_TOL:
                failures.append(f"dense/matrix mismatch {row['delta_dense_matrix']:.2e} at N={n} g={g}")
    return {"rows": rows, "failures": failures}


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
) -> dict:
    """<B> once -> one binomial +1 count per repetition -> closed-form inversion of all counts.

    <B> is the circuit's, from its k = 1 sector (``adiabatic.momentum_b``).
    Each repetition's count of +1 outcomes among ``shots`` Y-shots is drawn
    from its exact law, Binomial(shots, (1 + <Y>)/2) with <Y> = 1 - 2 <B>;
    the count fixes the shot mean, which is all the estimator reads.
    """
    params = ising.IsingParams(n, field_b=g_star, coupling_j=1.0)
    circuit_b = adiabatic.momentum_b(params, schedule)
    counts = circuit.count_ym(1.0 - 2.0 * circuit_b, shots, reps, seed)
    estimates, clamped = metrology.estimate_counts(counts, shots, n, window=window)
    sq_errors = (estimates - g_star) ** 2
    mse = float(np.mean(sq_errors))
    predicted = metrology.precision_b(g_star, n, shots)
    return {
        "n": n,
        "g_star": g_star,
        "shots": shots,
        "reps": reps,
        "circuit_b": circuit_b,
        "analytic_b": ising.expected_b(g_star, n),
        "mean_estimate": float(np.mean(estimates)),
        "bias": float(np.mean(estimates) - g_star),
        "empirical_mse": mse,
        "mse_std_error": float(np.std(sq_errors) / math.sqrt(reps)),
        "predicted_delta_g_sq": predicted,
        "mse_over_prediction": mse / predicted,
        "clamped_reps": int(clamped.sum()),
        "cramer_rao_bound": metrology.cramer_rao(ising.qfi(g_star, n), shots),
    }


def cmd_estimate(cfg: dict) -> dict:
    _check_ratios(cfg["g"])
    if cfg["seed"] is None:
        _usage_error("--seed is mandatory for stochastic commands")
    window = cfg["window"]
    if len(window) != 2 or not window[0] < window[1]:
        _usage_error(f"--window must be lo,hi with lo < hi, got {','.join(map(str, window))}")
    _check_ratios(window)  # <B> is evaluated at both ends
    _check_sizes(cfg["n"], curves=True, chain=True)
    n, g_star = _one(cfg, "n", "estimate"), _one(cfg, "g", "estimate")
    try:  # finite before the circuit runs
        metrology.precision_b(g_star, n)
    except ValueError as exc:
        _usage_error(f"precision_b at N={n}, g={g_star}: {exc}")
    schedule = _schedule_from(cfg, n, [(g_star, 1.0)])
    report = estimation_run(n, g_star, schedule, cfg["shots"], cfg["reps"], cfg["seed"],
                            tuple(cfg["window"]))
    report.update(_schedule_meta(schedule))
    failures = []
    if not 0.5 <= report["mse_over_prediction"] <= 2.0:
        failures.append(f"empirical MSE is {report['mse_over_prediction']:.2f}x the prediction")
    # The moment estimator saturates the bound at N=4, so the Monte-Carlo MSE
    # estimate straddles it; flag only a statistically significant (3 sigma)
    # violation of the bound itself.
    floor = (1 - 1e-6) * report["cramer_rao_bound"] - 3.0 * report["mse_std_error"]
    if report["empirical_mse"] < floor:
        failures.append("empirical MSE fell significantly below the Cramer-Rao bound")
    return {**report, "failures": failures}


# ---------------------------------------------------------------------------
# dump
# ---------------------------------------------------------------------------

def cmd_dump(cfg: dict) -> str:
    _check_sizes(cfg["n"], curves=False, chain=True)
    n = _one(cfg, "n", "dump")
    m = n.bit_length() - 1
    schedule = _schedule_from(cfg, n, [(cfg["b"], cfg["j"])])
    params = ising.IsingParams(n, field_b=cfg["b"], coupling_j=cfg["j"])
    try:
        program = circuit.full_program(params, schedule)
    except ValueError as exc:  # over the gate cap, raised before any gate is built
        _usage_error(str(exc))
    shift = circuit.decompose_shift(m)
    summary = {
        "config": cfg,
        "n_gates": len(program),
        "steps": schedule.steps + 1,
        "controlled_gates_per_shift": len(shift),
        "lowered_gates_per_shift": circuit.lowered_gate_count(shift),
    }
    print(json.dumps(summary), file=sys.stderr)
    return circuit.dump_program(program, params, schedule)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def cmd_oracle(cfg: dict) -> dict:
    sizes = sorted(cfg["n"])
    _check_sizes(sizes, curves=False, chain=True)
    if sizes[-1] > 8:
        _usage_error("oracle is capped at N <= 8")
    schedules = [(n, _schedule_from(cfg, n, [(g, 1.0) for g in cfg["g"]])) for n in sizes]
    rows = []
    for n, schedule in schedules:
        b_op = dense.observable_b_dense(n)
        m_op = dense.observable_m_dense(n)
        parity = np.diag(dense.parity_diag(n)).astype(complex)
        for g in sorted(cfg["g"]):
            params = ising.IsingParams(n, field_b=g, coupling_j=1.0)
            try:  # the branch's ground level is not well defined here
                energy, state, qfi = dense.even_ground(params)
            except RuntimeError as exc:
                _usage_error(f"oracle at N={n}, g={g}: {exc}")
            trotter = dense.trotter_evolve(params, schedule)
            rows.append({
                "n": n,
                "g": g,
                "ground_energy_even": energy,
                "expected_b": dense.expectation(state, b_op),
                "expected_m": dense.expectation(state, m_op),
                "variance_b": dense.variance(state, b_op),
                "variance_m": dense.variance(state, m_op),
                "parity": dense.expectation(state, parity),
                "qfi": qfi,
                "trotter_overlap_sq": float(abs(np.vdot(state, trotter)) ** 2),
                **_schedule_meta(schedule),
            })
    return {"rows": rows}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Parse errors as one usage line; ``add_subparsers`` builds each subcommand from this class."""

    def error(self, message: str) -> NoReturn:
        _usage_error(message)


# name -> (handler, summary, defaults).  The handler takes the resolved config
# and returns a report body or text (see the module docstring).  The defaults
# name the command's flags, and their order is the order of the report's
# config block.
_COMMANDS = {
    "sweep": (cmd_sweep, "analytic observable curves over (N, g) grids",
              {"n": [4, 8, 16], "g": None, "format": "csv", "out": None}),
    "scaling": (cmd_scaling, "precision-scaling fits and windows at g = 1",
                {"n": None, "n_magnetization": [2**k for k in range(8, 14)],
                 "out": None}),
    "compare": (cmd_compare, "analytic vs matrix vs kernel vs gate vs dense <B>",
                {"n": [4], "g": [0.5, 1.0, 1.5], **_SCHEDULE, "out": None}),
    "estimate": (cmd_estimate, "full estimation pipeline, Monte Carlo",
                 {"n": [16], "g": [1.0], "shots": 10_000, "reps": 200,
                  "seed": None, **_SCHEDULE, "window": [0.5, 1.5], "out": None}),
    "dump": (cmd_dump, "write the gate program of R^T(B, J)",
             {"n": [4], "b": 1.0, "j": 1.0, **_SCHEDULE, "out": None}),
    "oracle": (cmd_oracle, "dense reference values (N <= 8)",
               {"n": [4], "g": [1.0], **_SCHEDULE, "out": None}),
}


# A command's parser holds its subcommand alone; None holds all six, for --help
# and for a missing or unknown command.
def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cmetro",
        description="Compressed Ising-chain metrology: sweeps, comparisons, estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, defaults) in _COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON config file (flags take precedence)")
        for key in defaults:
            kind, is_list, text = _OPTIONS[key]
            p.add_argument("--" + key.replace("_", "-"), type=_list_of(kind) if is_list else kind,
                           help=text)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    cfg = _resolve(args)
    out = cfg.pop("out")
    created = bool(out) and _check_out(out)  # before any work runs
    passed = True
    try:
        body = text = _COMMANDS[args.command][0](cfg)
        if not isinstance(body, str):
            report = {"schema": SCHEMA_VERSION, "command": args.command, "config": cfg, **body}
            if "failures" in body:
                passed = report["passed"] = not body["failures"]
            # JSON has no NaN or Infinity: a report holding one raises ValueError here.
            text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    except BaseException:
        if created:  # stopped before writing: leave no empty file behind
            os.remove(out)
        raise
    _emit(text, out)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
