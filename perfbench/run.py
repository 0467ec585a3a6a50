"""Benchmark of the compressed-metrology package, driven from outside as a user would.

    python3 perfbench/run.py --workload estimate-gate --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each batch of a workload runs in a
fresh worker process (closed loop, one caller), importing the package from
``src/``; BLAS and every other thread pool are capped at the number of usable
cores.  At least MIN_BATCHES batches run, and more while the next one would
end within ``--seconds``.  With ``--trace 0`` the last stdout line carries
the end-to-end metrics: batch time and set-up time, each the median over the
run's workers at the reference host speed (see ``at_reference_speed``), and
median peak memory.  With ``--trace 1`` each round is an untraced batch
followed by a traced one, and the last line carries the per-layer metrics.
``--workload all`` runs every workload in turn.

Every operation's output is checked outside the timed region; a failed check
or an exception counts as a failed operation.  CLI reports go to a temporary
directory under ``.perfbench_out/``, which also keeps each run's record and
the traced batches' spans.  Exits 2, printing no result, if the package
source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

ROOT = workloads.ROOT
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"
NAMES = tuple(workloads.WHY)
SETUP_SPAWNS = 5
MIN_BATCHES = 2
# A run starts no batch that would end past RUN_LIMIT_S, and kills any worker
# still running at DEADLINE_S, so a run always ends within three minutes.
RUN_LIMIT_S = 150.0
DEADLINE_S = 170.0
# Times are reported at the host speed where the host probe takes this long:
# about its fastest reading on the 2-core Intel Xeon host of the baseline.
REFERENCE_PROBE_S = 0.040
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
_SUFFIX_UNITS = (("_ratio", "1"), ("_us", "us"), ("_ns", "ns"), ("_s", "s"),
                 ("calls", "count"), ("calls_per_estimate", "count"))


def unit_of(metric: str) -> str:
    base = re.sub(r"\.N\d+$", "", metric)  # per-size metrics, e.g. rotation_s.N64
    for suffix, unit in _SUFFIX_UNITS:
        if base.endswith(suffix):
            return unit
    raise KeyError(metric)


def at_reference_speed(workers: list[dict], key: str) -> float:
    """Median over workers of ``key`` scaled by REFERENCE_PROBE_S / the worker's own probe.

    On a shared host, co-tenants slow a worker by up to 2x for seconds to
    minutes at a time, and a slow spell can cover a whole run, so raw times
    of one run follow the host more than the program.  Each worker runs the
    host probe right after its timed work; dividing by it cancels most of
    the slow-down, which the probe shares.  Across repeated runs on a 2-core
    shared host this spread about a third as much as the raw median or
    minimum of the same batches.
    """
    return REFERENCE_PROBE_S * statistics.median(w[key] / w["probe_s"] for w in workers)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(nproc()) for var in THREAD_VARS})
    env.pop("CMETRO_WORKERS", None)  # no sweep pool: one caller, one process
    return env


class Spawner:
    """Starts workers one at a time and collects their JSON results."""

    def __init__(self, workload: str, inputs: dict, tmp: Path, spans_prefix: str,
                 deadline: float):
        self.workload, self.inputs, self.tmp = workload, inputs, tmp
        self.spans_prefix, self.deadline = spans_prefix, deadline
        self.env = worker_env()
        self.count = 0

    def __call__(self, mode: str, trace: bool = False) -> tuple[dict | None, str]:
        self.count += 1
        result_path = self.tmp / f"result-{self.count}.json"
        job = {
            "mode": mode, "workload": self.workload, "inputs": self.inputs, "trace": trace,
            "tmp": str(self.tmp), "result_path": str(result_path),
            "spans_path": str(OUT_DIR / f"{self.spans_prefix}-batch{self.count}.json"),
            "spawned_at": time.monotonic(),
        }
        timeout = max(self.deadline - job["spawned_at"], 1.0)
        try:
            proc = subprocess.run([sys.executable, str(WORKER), json.dumps(job)], env=self.env,
                                  cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, f"worker killed after {timeout:.0f} s"
        if proc.returncode != 0 or not result_path.is_file():
            return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        return json.loads(result_path.read_text()), ""


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git work tree (then see source_sha256)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(workloads.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(workloads.SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Set up, run batches for ``seconds``, and reduce them to metrics and a record."""
    started = time.monotonic()
    inputs = workloads.make_inputs(name, seed, tiny)
    per_batch = workloads.ops_per_batch(name, inputs)
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        spawn = Spawner(name, inputs, Path(tmp), f"spans-{tag}", started + DEADLINE_S)
        setups, errors = [], []
        for _ in range(SETUP_SPAWNS):
            res, err = spawn("setup")
            if res is None:
                errors.append(err)
            else:
                setups.append(res)
        plain, traced = [], []
        attempted = failed = 0
        modes = (False, True) if trace else (False,)
        loop_start = time.monotonic()
        for rounds in itertools.count(1):
            round_start = time.monotonic()
            for is_traced in modes:
                res, err = spawn("batch", is_traced)
                attempted += per_batch
                if res is None:
                    failed += per_batch
                    errors.append(err)
                    continue
                failed += res["failed"]
                errors.extend(res["errors"])
                (traced if is_traced else plain).append(res)
            now = time.monotonic()
            last = now - round_start
            if now - started + last > RUN_LIMIT_S:
                break
            if rounds * len(modes) >= MIN_BATCHES and now - loop_start + last > seconds:
                break

    if not setups or not plain or (trace and not traced):
        raise RuntimeError(f"{name}: no worker completed: {errors[:3]}")
    batches = plain + traced
    # Every batch of a run repeats the same inputs, traced or not, so the
    # reports of its fully checked batches must be byte-identical.
    complete = [b["digests"] for b in batches if None not in b["digests"]]
    digests = complete[0] if complete else batches[0]["digests"]
    mismatched = sum(d != digests for d in complete)
    if mismatched:
        failed += mismatched * per_batch
        errors.append(f"report digests differ between batches in {mismatched} batch(es)")

    wall = at_reference_speed(plain, "wall_s")
    end_to_end = {
        "wall_s": wall,
        "setup_s": at_reference_speed(setups + batches, "setup_s"),
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in plain),
    }
    probe = statistics.median(s["probe_s"] for s in setups + batches)
    per_layer = {}
    if trace:
        per_layer = {key: statistics.median(b["layers"][key] for b in traced)
                     for key in traced[0]["layers"]}
        per_layer["process.cpu_s"] = statistics.fmean(b["cpu_s"] for b in plain)
        per_layer["tracing.overhead_s"] = at_reference_speed(traced, "wall_s") - wall
        per_layer["host.probe_s"] = probe
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
        "inputs": inputs,
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "errors": errors[:20],
        "digests": digests,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "samples": {
            "wall_s": [b["wall_s"] for b in plain],
            "setup_s": [w["setup_s"] for w in setups + batches],
            "setup_probe_s": [w["probe_s"] for w in setups + batches],
            "peak_rss_mb": [b["peak_rss_mb"] for b in plain],
            "probe_s": [b["probe_s"] for b in plain],
            "traced_wall_s": [b["wall_s"] for b in traced],
        },
        "host": {
            "probe_s": probe,
            "nproc": nproc(),
            "cpu_model": cpu_model(),
            "git_commit": git_commit(),
            "source_sha256": source_sha256(),
            **setups[0]["env"],
        },
    }
    (OUT_DIR / f"record-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def _line(name: str, record: dict) -> str:
    parts = [f"{name:<14}"]
    for key, value in record["end_to_end"].items():
        parts.append(f"{key} {value:.4f} {END_TO_END_UNITS[key]}")
    parts.append(f"fail_ratio {record['fail_ratio']:.4g} 1 "
                 f"({record['failed']}/{record['attempted']} ops)")
    return "  ".join(parts)


def _metrics(record: dict, trace: bool, prefix: str = "") -> dict:
    if trace:
        return {prefix + k: {"value": v, "unit": unit_of(k)} for k, v in record["per_layer"].items()}
    return {prefix + k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in record["end_to_end"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (workloads.SRC / "compressed_metrology" / "cli.py").is_file():
        print(f"perfbench: package source not found under {workloads.SRC}", file=sys.stderr)
        return 2

    names = NAMES if args.workload == "all" else (args.workload,)
    records = {}
    for name in names:
        try:
            records[name] = record = run_workload(name, args.seed, args.seconds,
                                                  bool(args.trace), args.tiny)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        print(_line(name, record))
        if record["errors"]:
            print(f"{name}: errors: {record['errors'][:3]}")
        print("record: " + json.dumps({k: record[k] for k in ("workload", "seed", "digests",
                                                             "host")}))
    prefix = len(names) > 1
    metrics = {}
    for name, record in records.items():
        metrics.update(_metrics(record, bool(args.trace), f"{name}/" if prefix else ""))
    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
