#!/usr/bin/env python3
"""Benchmark of mvmlc training and evaluation.

Run from the root of a checkout:

    python3 benchmark/run.py --workload train-small --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the workload untraced and ends with one JSON line
holding the end-to-end metrics that BENCHMARK.json lists. ``--trace 1``
alternates untraced and traced iterations instead, and ends with the
per-layer metrics. ``--workload all`` (the default) runs every workload in this
process, one after another; the last line then prefixes each metric with its
workload. The mvmlc package is imported from ``src/`` of the checkout and
from nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train-small", "train-labels", "eval-rank")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="how long each timed loop runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _blas_threads():
    """OpenBLAS thread count in effect, asked of the library numpy loaded."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _git_commit(),
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
    }


def run_workload(w, args, import_s, workdir, spec):
    """Measure one workload; print its figures; return (metrics, attempted, failed)."""
    import workloads

    if args.trace:
        layer_figures, ledger, traced = workloads.traced(w, args.seed, args.seconds, workdir)
        ledgers = [ledger, traced]
    else:
        ledger, _ = workloads.measure(w, args.seed, args.seconds, workdir)
        layer_figures, ledgers = {}, [ledger]
    figures, note = workloads.end_to_end(ledger, import_s)
    figures.update(layer_figures)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    failures = [f for led in ledgers for f in led.failures]
    attempted = sum(led.attempted for led in ledgers)
    unit = {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}
    print(f"[{w.name}] {note}")
    for name, value in figures.items():
        print(f"[{w.name}] {name} = {value:.6g} {unit.get(name, '')}")
    print(f"[{w.name}] error_rate = {len(failures)}/{attempted}")
    for failure in sorted(set(failures)):
        print(f"[{w.name}] FAILED: {failure} ({failures.count(failure)}x)", file=sys.stderr)

    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name in figures:
            value = figures[name]
        elif name.startswith(("autodiff.op.", "autodiff.scope.")):
            value = 0.0  # a primitive or scope this program version no longer records
        else:
            raise KeyError(f"benchmark does not produce metric {name!r}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics, attempted, len(failures)


def main(argv=None):
    args = parse_args(argv)
    # No more BLAS threads than the cores this process may run on.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (part of the import cost setup_s counts)
    import mvmlc

    import_s = time.perf_counter() - start
    if Path(mvmlc.__file__).resolve().parent != SRC / "mvmlc":
        sys.exit(f"mvmlc was imported from {mvmlc.__file__}, not from {SRC}")

    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(json.dumps({"provenance": provenance(args.seed)}, sort_keys=True))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    with tempfile.TemporaryDirectory(prefix=".mvbench-", dir=ROOT) as tmp:
        for name in names:
            results[name] = run_workload(workloads.WORKLOADS[name], args, import_s, Path(tmp), spec)

    if len(names) == 1:
        metrics, attempted, failed = results[names[0]]
    else:
        metrics = {f"{n}.{k}": v for n, (m, _, _) in results.items() for k, v in m.items()}
        attempted = sum(a for _, a, _ in results.values())
        failed = sum(f for _, _, f in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
