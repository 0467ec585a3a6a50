"""One fresh workload process: import, build inputs, run one batch, check, report.

Started by ``run.py``; not meant to be run by hand.  Its single argument is a
JSON object (mode, workload, inputs, spawn time, output paths); it writes its
result as JSON to ``result_path``.  In ``setup`` mode it stops after the
inputs are built.  Either way it ends with PROBES runs of the host-speed
probe, outside every timed region, and reports their median.
"""

from __future__ import annotations

import ctypes
import glob
import json
import math
import platform
import resource
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracing  # noqa: E402
import workloads  # noqa: E402


PROBES = 3


def host_probe() -> float:
    """A fixed mix of interpreter and BLAS work; its time tracks host speed."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((192, 192))
    start = time.perf_counter()
    for _ in range(40):
        a = np.tanh(a @ a / 192.0)
    total = 0.0
    for i in range(300_000):
        total += math.sin(i)
    return time.perf_counter() - start


def median_probe() -> float:
    return statistics.median(host_probe() for _ in range(PROBES))


def blas_threads() -> int | None:
    """Threads of numpy's bundled OpenBLAS, or None where it cannot be queried."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": blas_threads(),
    }


def run_ops(ops: list[workloads.Op], tracer: tracing.Tracer | None = None) -> dict:
    """Time the operations back to back, then check each output.

    An exception from an operation or from its check counts that operation
    as failed; the batch goes on.
    """
    wall_s = cpu_s = 0.0
    outputs, errors = [], {}
    for i, op in enumerate(ops):
        try:
            cpu0, t0 = time.process_time(), time.perf_counter()
            if tracer is None:
                outputs.append(op.call())
            else:
                with tracer:
                    outputs.append(op.call())
            wall_s += time.perf_counter() - t0
            cpu_s += time.process_time() - cpu0
        except Exception as exc:
            outputs.append(None)
            errors[i] = exc
    # Peak memory of the operations alone; the checks below may allocate more.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digests = []
    for i, (op, out) in enumerate(zip(ops, outputs)):
        digest = None
        if i not in errors:
            try:
                digest = op.check(out)
            except Exception as exc:
                errors[i] = exc
        digests.append(digest)
    return {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": len(errors),
        "errors": [f"{ops[i].label}: {type(exc).__name__}: {exc}" for i, exc in errors.items()],
        "digests": digests,
    }


def run(job: dict) -> dict:
    cli = workloads.import_package()
    ops = workloads.build_ops(cli, job["workload"], job["inputs"], Path(job["tmp"]))
    setup_s = time.monotonic() - job["spawned_at"]
    if job["mode"] == "setup":
        return {"setup_s": setup_s, "probe_s": median_probe(), "env": environment()}

    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer({layer: cli if layer == "cli" else getattr(cli, layer)
                                 for layer in tracing.LAYERS})
    result = {"setup_s": setup_s, **run_ops(ops, tracer), "probe_s": median_probe()}
    if tracer is not None:
        tracer.dump(Path(job["spans_path"]))
        result["layers"] = tracing.layer_metrics(tracer, result["wall_s"], workloads.ROTATION_SIZES)
    return result


def main() -> int:
    job = json.loads(sys.argv[1])
    result = run(job)
    with open(job["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
