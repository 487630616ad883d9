"""Run one benchmark workload, check its outputs and print its metrics.

    python3 bench/run.py --workload montecarlo --seed 0 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 12

Workloads: montecarlo, witness_sweep, exact_counts (see bench/README.md).
The program is imported from ``src/`` of the checkout this file sits in.

With ``--trace 0`` the run measures the end-to-end metrics of
BENCHMARK.json with tracing off.  With ``--trace 1`` it measures the
workload twice on the same inputs, for half the seconds each and without
repeats: untraced, then with timing wrappers on every layer boundary.
It reports the per-layer metrics, the untraced workload figures and the
tracing overhead.  Detail lines go to standard output first; the last line is one
JSON object with the keys correct, attempted, failed and metrics.  A
report (and, when traced, the spans) is written under bench/out/.
The exit code is 1 when a correctness check fails, 2 when the program
cannot be found.

The run pins numpy's BLAS to one thread (the program and its set-up probes
inherit it): on a machine of two CPUs shared with other tenants, a second
BLAS thread makes array code up to 1.5x slower whenever the other CPU is
busy, which would measure the neighbours rather than the program.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("montecarlo", "witness_sweep", "exact_counts")
SETUP_RUNS = 5

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
}

# The workload figures named after what each workload does; reported in the
# detail lines of every run and among the per-layer metrics of a traced run.
NAMED_UNITS = {
    "fail_share": "ratio",
    "mc3d_pairs_per_s": "pairs/s",
    "mc3d_se2_cpu_s": "s",
    "mc2d_pairs_per_s": "pairs/s",
    "sweep_classes_per_s": "classes/s",
    "search_p50_ms": "ms",
    "search_p90_ms": "ms",
    "exact_tables_per_s": "tables/s",
    "latency_samples": "count",
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it can be asked."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy
    import scipy

    env = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "SIMPSON3_WORKERS")
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in env},
        "platform": platform.platform(),
    }


def measure_setup(lazy_imports: tuple[str, ...], runs: int) -> list[tuple[float, float]]:
    """(set-up s, Python loop s) of cold set-ups in fresh processes."""
    probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), *lazy_imports]
    samples = []
    for _ in range(runs):
        done = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True)
        setup_s, python_s = done.stdout.split()
        samples.append((float(setup_s), float(python_s)))
    return samples


def import_program() -> None:
    """Put the checkout's src/ first on the path and make sure it is used."""
    sys.path.insert(0, str(SRC))
    import simpson3

    if Path(simpson3.__file__).resolve().parent != SRC / "simpson3":
        raise ImportError(f"simpson3 imported from {simpson3.__file__}, not {SRC}")


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process; the worst exit code wins."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"# workload {name}", flush=True)
        worst = max(worst, subprocess.run(cmd, timeout=900).returncode)
    return worst


def detail(kind: str, payload) -> None:
    print(f"# {kind}: {json.dumps(payload, sort_keys=True)}", flush=True)


def set_up(workload) -> None:
    """Build the catalog and import the modules the workload loads lazily."""
    import simpson3

    simpson3.get_catalog()
    for module in workload.LAZY_IMPORTS:
        importlib.import_module(module)


def run_untraced(workload, seconds: float, report: dict):
    """End-to-end metrics, tracing off."""
    from calibration import PYTHON_S
    from workloads import percentile

    # Set-up is sampled before and after the timed work, so that its median
    # does not rest on one moment of the machine's load.
    setup = measure_setup(workload.LAZY_IMPORTS, SETUP_RUNS // 2 + 1)
    start = time.perf_counter()
    set_up(workload)
    report["setup_in_process_s"] = time.perf_counter() - start
    raw = workload.measure(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += measure_setup(workload.LAZY_IMPORTS, SETUP_RUNS // 2)
    report["setup_samples_s"] = setup
    result = workload.evaluate(raw)
    measured = {
        "setup_s": statistics.median(s for s, _ in setup),
        "throughput_per_s": result.wall_rate_per_s,
        "latency_p50_ms": percentile(result.wall_latencies_ms, 50),
        "latency_p90_ms": percentile(result.wall_latencies_ms, 90),
    }
    report["measured"] = measured
    report["slowdown"] = result.slowdown
    # Times in reference seconds: each set-up against the Python loop of its
    # own process, the workload's units against the loops run around them.
    metrics = {
        "setup_s": statistics.median(s * PYTHON_S / python_s for s, python_s in setup),
        "peak_rss_mb": peak_rss_mb,
        "throughput_per_s": result.rate_per_s,
        "latency_p50_ms": percentile(result.latencies_ms, 50),
        "latency_p90_ms": percentile(result.latencies_ms, 90),
    }
    for name, value in measured.items():
        print(f"# measured {name} = {value:.6g} {E2E_UNITS[name]} (wall clock)")
    print(f"# reference loops ran {result.slowdown:.4g}x slower than nominal (median)")
    return metrics, E2E_UNITS, result


def run_traced(workload, seconds: float, spans_path: str):
    """Per-layer metrics of a traced pass, beside an untraced pass on the same inputs."""
    import layers
    from spans import Tracer

    setup_tracer = Tracer()
    layers.install(setup_tracer)
    try:
        set_up(workload)
    finally:
        setup_tracer.remove()
    # One pass each: the per-layer counts then describe one run of every unit.
    # No reference loops inside units here, so that spans hold only program time.
    raw_plain = workload.measure(seconds / 2, repeats=1, during=False)
    tracer = Tracer()
    layers.install(tracer)
    try:
        raw_traced = workload.measure(seconds / 2, repeats=1, during=False)
    finally:
        tracer.remove()
    tracer.write(spans_path)
    plain = workload.evaluate(raw_plain)
    traced = workload.evaluate(raw_traced)
    plain.failures += [f"traced pass: {f}" for f in traced.failures]

    metrics = layers.layer_metrics(tracer.spans)
    build = layers.layer_metrics(setup_tracer.spans)
    metrics.update({k: v for k, v in build.items() if k.startswith(layers.CATALOG_BUILD)})
    metrics.update(dict.fromkeys(NAMED_UNITS, 0.0))
    metrics.update({k: v for k, (v, _) in plain.named.items() if k in NAMED_UNITS})
    metrics["fail_share"] = plain.fail_share
    metrics["latency_samples"] = len(plain.latencies_ms)
    metrics["trace.overhead_share"] = plain.rate_per_s / traced.rate_per_s - 1.0
    metrics["trace.spans"] = len(tracer.spans)
    return metrics, {**layers.METRIC_UNITS, **NAMED_UNITS}, plain


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "simpson3" / "__init__.py").is_file():
        print(f"error: the simpson3 sources are not at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    report: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "settings": workload.settings(),
    }
    detail("settings", report)
    report["machine"] = machine()
    detail("machine", report["machine"])
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{OUT_DIR}/{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, units, result = run_traced(workload, args.seconds, stem + ".spans.jsonl")
    else:
        metrics, units, result = run_untraced(workload, args.seconds, report)

    named = {**result.named, "fail_share": (result.fail_share, "ratio")}
    for name, (value, unit) in sorted(named.items()):
        print(f"# workload {args.workload}: {name} = {value:.6g} {unit}")
    for name in sorted(metrics):
        print(f"# metric {name} = {metrics[name]:.6g} {units[name]}")
    for failure in result.failures:
        print(f"# FAIL {failure}")
    print(f"# checks: {'FAIL' if result.failures else 'PASS'} ({len(result.failures)} failures)")
    correct = not result.failures
    report.update(
        correct=correct,
        failures=result.failures,
        named={k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        metrics=metrics,
    )
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=float)
    line = {
        "correct": correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in sorted(metrics)},
    }
    print(json.dumps(line), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
