"""Tests for the benchmark's own code.

Run with ``PYTHONPATH=src python -m pytest bench``.  They cover the span
arithmetic, the reference-time arithmetic and sampler, the seeded inputs,
the removal of the traced run's wrappers, the metric names against
BENCHMARK.json, and the refusal to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

import run
from calibration import NUMPY_S, PYTHON_S, Sampler, Timing
from spans import Span, Tracer, layer_totals, self_times
from workloads import ExactCounts, Montecarlo, WitnessSweep

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_child_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8]
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 5.0, 9.0, parent=0),
        Span("c", 6.0, 8.0, parent=2),
    ]
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    totals = layer_totals(spans)
    assert (totals["root"].calls, totals["root"].busy_s, totals["root"].self_s) == (1, 10.0, 3.0)
    assert (totals["b"].busy_s, totals["b"].self_s) == (4.0, 2.0)


def test_recursive_span_is_busy_once():
    spans = [Span("f", 0.0, 10.0), Span("f", 2.0, 6.0, parent=0), Span("g", 3.0, 4.0, parent=1)]
    f = layer_totals(spans)["f"]
    assert (f.calls, f.busy_s, f.self_s) == (2, 10.0, 9.0)


def test_tracer_records_parent_and_counts():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: 2 * x, lambda args, r: {"doubled": r})
    outer = tracer.wrap("outer", lambda x: inner(x) + 1)
    assert outer(3) == 7
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0)]
    assert tracer.spans[1].counts == {"doubled": 6}
    assert tracer.spans[0].start <= tracer.spans[1].start <= tracer.spans[1].end <= tracer.spans[0].end


def test_reference_time_weights_samples_by_speed():
    # Half the samples at nominal speed, half twice as slow: 2 s of wall
    # time did 1 + 0.5 reference seconds of work.
    timing = Timing(2.0, ((PYTHON_S, NUMPY_S), (2 * PYTHON_S, 2 * NUMPY_S)))
    assert timing.reference_s(0.0) == pytest.approx(1.5)
    assert timing.reference_s(1.0) == pytest.approx(1.5)
    mixed = Timing(1.0, ((2 * PYTHON_S, NUMPY_S),))
    assert mixed.reference_s(0.5) == pytest.approx(2**-0.5)


def test_sampler_samples_during_long_units_and_restores_the_handler():
    def spin(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    before = signal.getsignal(signal.SIGALRM)
    with Sampler() as sampler:
        out, long_unit = sampler.time(lambda: spin(0.45))
        _, short_unit = sampler.time(lambda: None)
    assert out == "done"
    assert len(long_unit.samples) >= 4 and len(short_unit.samples) == 2
    assert long_unit.samples[-1] == short_unit.samples[0]
    assert 0 < long_unit.wall_s < 0.45
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize(
    "make",
    [Montecarlo.make_inputs, WitnessSweep.make_inputs, lambda seed: ExactCounts.make_batch(seed, 0)],
    ids=["montecarlo", "witness_sweep", "exact_counts"],
)
def test_inputs_depend_on_seed_only(make):
    first, again, other = make(1), make(1), make(2)
    assert first.keys() == again.keys() == other.keys()
    assert all(np.array_equal(first[k], again[k]) for k in first)
    assert not all(np.array_equal(first[k], other[k]) for k in first)


def _bindings() -> dict:
    """Every callable the traced run may replace, keyed by where it is bound."""
    from simpson3 import experiments

    out = {
        ("scipy.optimize", "minimize"): scipy.optimize.minimize,
        ("Witness", "verify"): experiments.Witness.__dict__["verify"],
    }
    for attr, value in vars(experiments.ConversionSearch).items():
        out[("ConversionSearch", attr)] = value
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "simpson3" or name.startswith("simpson3.")):
            out.update({(name, k): v for k, v in vars(module).items() if callable(v)})
    return out


def _last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_the_declared_ones(capsys, trace, section):
    before = _bindings()
    code = run.main(["--workload", "exact_counts", "--seed", "3", "--seconds", "0.2", "--trace", str(trace)])
    line = _last_line(capsys)
    assert code == 0 and line["correct"] and line["failed"] == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before), "a traced-run wrapper was left installed"


def test_workloads_are_declared():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact_counts", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
