"""The benchmark's three workloads.

Each workload makes its inputs from the seed alone (``make_inputs`` /
``make_batch``), measures for a given number of seconds (``measure``, the
timed part), then checks the outputs and derives its metrics (``evaluate``,
untimed).  All calls into simpson3 go through module attributes, so the
traced run's wrappers see them.  Every sampler runs with one worker and
the default tolerance.

Timed work is split into units, and each unit runs ``REPEATS`` times (set
per workload) on the same inputs, in passes over all units, so that the
repeats of a unit lie a whole pass (several seconds) apart.  The reference
loops of ``calibration`` run before, during and after every unit.  A
unit's time is the median over its repeats of its time in reference
seconds, with the loops mixed as the unit's work is (``numpy_share``).
The repeats must give identical outputs, which also checks that results
depend only on the inputs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable

import numpy as np

from calibration import Sampler, Timing
from simpson3 import cli, experiments, feasibility, symmetry, triangulation
from simpson3.errors import DegenerateTable
from simpson3.tables import Table3

# A percentile is reported only with at least ten samples beyond it.
MIN_LATENCY_SAMPLES = 100

# Conjectured Monte Carlo targets and the allowed distance in standard errors.
MC3D_TARGETS = {"sameTriangulation": 17 / 900, "conversion": 2 / 900, "sameNoConversion": 15 / 900}
MC2D_TARGET = 1 / 60
MC_SE_LIMIT = 5.0


@dataclass
class Result:
    """What a workload measured, in the benchmark's end-to-end terms.

    ``rate_per_s`` and ``latencies_ms`` are in reference seconds, the
    ``wall_`` ones on the wall clock; ``slowdown`` is the median slowdown
    the reference loops saw over the run.
    """

    rate_per_s: float
    latencies_ms: list[float]
    wall_rate_per_s: float
    wall_latencies_ms: list[float]
    slowdown: float
    attempted: int
    failed: int
    fail_share: float
    named: dict[str, tuple[float, str]]
    failures: list[str] = field(default_factory=list)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cpu_seconds() -> float:
    """CPU time of this process and its waited-for children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_cli(argv: list[str]) -> tuple[float, int, str]:
    """One in-process ``simpson3`` call: (CPU s, exit code, stdout)."""
    buf = io.StringIO()
    cpu = cpu_seconds()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return cpu_seconds() - cpu, code, buf.getvalue()


def in_passes(
    groups: Iterable[list[Callable[[], Any]]],
    seconds: float,
    min_groups: int,
    repeats: int,
    during: bool = True,
) -> tuple[list[list[Any]], list[list[Timing]]]:
    """The outputs and timings of every unit from ``repeats`` passes.

    The first pass takes groups of units until ``seconds / repeats`` have
    passed and at least ``min_groups`` groups ran, or the groups run out;
    each later pass runs the same units again in the same order.
    ``during`` is passed to the ``Sampler``.
    """
    deadline = time.perf_counter() + seconds / repeats
    taken: list[Callable[[], Any]] = []
    runs: list[list[Any]] = []
    timings: list[list[Timing]] = []
    with Sampler(during) as sampler:
        for count, group in enumerate(groups, 1):
            for unit in group:
                out, timing = sampler.time(unit)
                taken.append(unit)
                runs.append([out])
                timings.append([timing])
            if count >= min_groups and time.perf_counter() >= deadline:
                break
        for _ in range(repeats - 1):
            for unit, outs, times in zip(taken, runs, timings):
                out, timing = sampler.time(unit)
                outs.append(out)
                times.append(timing)
    return runs, timings


def wall_s(times: list[Timing]) -> float:
    """Median wall seconds over a unit's repeats."""
    return statistics.median(t.wall_s for t in times)


def reference_s(times: list[Timing], numpy_share: float) -> float:
    """Median reference seconds over a unit's repeats."""
    return statistics.median(t.reference_s(numpy_share) for t in times)


def median_slowdown(timings: Iterable[list[Timing]], numpy_share: float) -> float:
    """Median over all repeats of wall over reference time."""
    return statistics.median(t.wall_s / t.reference_s(numpy_share) for times in timings for t in times)


# ---------------------------------------------------------------------------


class Montecarlo:
    """``simpson3 montecarlo --dim 3`` and ``simpson3 reversal`` on Exp(1) tables.

    Each 3d call of ``MC3D_SAMPLES`` pairs comes with two 2d calls of
    ``MC2D_SAMPLES`` pairs, each call with its own seed.  The estimates
    are pooled over all calls before they are checked against the
    conjectured frequencies.  A 3d call spends most of its time in numpy
    array code; a 2d call is short enough that the CLI's Python is about
    half of it.  The numpy shares below are the mixes of the reference
    loops that, over runs on six seeds, made each figure steadiest.
    """

    name = "montecarlo"
    LAZY_IMPORTS: tuple[str, ...] = ()
    MC3D_SAMPLES = 1 << 15
    MC2D_SAMPLES = 1 << 16
    REPEATS = 3
    NUMPY_SHARE_3D = 0.75
    NUMPY_SHARE_2D = 0.5

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.inputs = self.make_inputs(seed)

    @staticmethod
    def make_inputs(seed: int) -> dict[str, int]:
        """First CLI seeds of the 3d and 2d calls; call i adds i."""
        rng = np.random.default_rng([seed, 1])
        return {"seed3d": int(rng.integers(0, 2**30)), "seed2d": int(rng.integers(0, 2**30))}

    def settings(self) -> dict:
        return {
            "mc3d_samples_per_call": self.MC3D_SAMPLES,
            "mc2d_samples_per_call": self.MC2D_SAMPLES,
            "repeats_per_call": self.REPEATS,
            "workers": 1,
        }

    def _call(self, dim: int, seed: int) -> Callable[[], tuple]:
        if dim == 3:
            argv = ["montecarlo", "--dim", "3", "--samples", str(self.MC3D_SAMPLES)]
        else:
            argv = ["reversal", "--samples", str(self.MC2D_SAMPLES)]
        argv += ["--seed", str(seed), "--workers", "1"]
        return lambda: run_cli(argv)

    def measure(self, seconds: float, repeats: int | None = None, during: bool = True) -> dict:
        seed3, seed2 = self.inputs["seed3d"], self.inputs["seed2d"]
        groups = (
            [self._call(3, seed3 + i), self._call(2, seed2 + 2 * i), self._call(2, seed2 + 2 * i + 1)]
            for i in itertools.count()
        )
        runs, timings = in_passes(
            groups, seconds, MIN_LATENCY_SAMPLES // 2, repeats or self.REPEATS, during
        )
        return {
            "calls3": runs[0::3],
            "calls2": runs[1::3] + runs[2::3],
            "times3": timings[0::3],
            "times2": timings[1::3] + timings[2::3],
        }

    def evaluate(self, raw: dict) -> Result:
        failures: list[str] = []
        failed = drawn = discards = 0
        estimates = {3: [], 2: []}
        for dim in (3, 2):
            for runs in raw[f"calls{dim}"]:
                if any(code != 0 for _, code, _ in runs):
                    failed += 1
                    continue
                if len({out for *_, out in runs}) != 1:
                    failures.append(f"{dim}d call gave different output on the same seed")
                est = json.loads(runs[0][2])
                drawn += est["sampleCount"]
                discards += est["degenerateDiscards"]
                estimates[dim].append(est)
        if failed:
            failures.append(f"{failed} CLI calls exited non-zero")
        effective3 = sum(e["sampleCount"] - e["degenerateDiscards"] for e in estimates[3])
        se2 = 0.0
        for key, target in MC3D_TARGETS.items():
            p = sum(e["eventCounts"][key] for e in estimates[3]) / effective3
            se = (p * (1 - p) / effective3) ** 0.5
            if key == "conversion":
                se2 = se * se
            if abs(p - target) > MC_SE_LIMIT * se:
                failures.append(f"{key} {p:.6f} is {abs(p - target) / se:.1f} se from {target:.6f}")
        for e in estimates[3]:
            ev = e["eventCounts"]
            if ev["sameTriangulation"] != ev["conversion"] + ev["sameNoConversion"]:
                failures.append(f"3d event counts inconsistent: {ev}")
        effective2 = sum(e["sampleCount"] - e["degenerateDiscards"] for e in estimates[2])
        p2 = sum(e["eventCounts"]["reversal"] for e in estimates[2]) / effective2
        se = (p2 * (1 - p2) / effective2) ** 0.5
        if abs(p2 - MC2D_TARGET) > MC_SE_LIMIT * se:
            failures.append(f"reversal {p2:.6f} is {abs(p2 - MC2D_TARGET) / se:.1f} se from 1/60")
        wall3 = [wall_s(times) for times in raw["times3"]]
        wall2 = [wall_s(times) for times in raw["times2"]]
        ref3 = [reference_s(times, self.NUMPY_SHARE_3D) for times in raw["times3"]]
        ref2 = [reference_s(times, self.NUMPY_SHARE_2D) for times in raw["times2"]]
        rate3 = statistics.median(self.MC3D_SAMPLES / wall for wall in wall3)
        rate2 = statistics.median(self.MC2D_SAMPLES / wall for wall in wall2)
        cpu3 = sum(statistics.median(cpu for cpu, *_ in runs) for runs in raw["calls3"])
        return Result(
            rate_per_s=statistics.median(self.MC3D_SAMPLES / t for t in ref3),
            latencies_ms=[t * 1e3 for t in ref2],
            wall_rate_per_s=rate3,
            wall_latencies_ms=[wall * 1e3 for wall in wall2],
            slowdown=median_slowdown(raw["times3"], self.NUMPY_SHARE_3D),
            attempted=len(raw["calls3"]) + len(raw["calls2"]),
            failed=failed,
            fail_share=discards / drawn if drawn else 0.0,
            named={
                "mc3d_pairs_per_s": (rate3, "pairs/s"),
                "mc3d_se2_cpu_s": (se2 * cpu3, "s"),
                "mc2d_pairs_per_s": (rate2, "pairs/s"),
                "mc3d_pairs": (float(effective3), "pairs"),
                "mc2d_pairs": (float(effective2), "pairs"),
            },
            failures=failures,
        )


# ---------------------------------------------------------------------------


class WitnessSweep:
    """Criterion 4 at a smaller size, then single-class CLI searches.

    The run makes ``REPEATS`` passes over the batched phase (two: a pass
    is long), then ``SEARCH_REPEATS`` passes over the search panel (five:
    a pass takes about two seconds).  The batched phase
    enumerates the orbit classes and drops the parity-obstructed ones (one
    unit), makes one ``sweep_pairs`` call over all 112 feasible pair
    classes (one unit), and one ``sweep_triples`` call over a seeded
    sample of feasible triple classes plus the six III->III->III classes
    that only the rejection backstop reaches (one unit), each call from a
    fresh search.  The search panel runs ``simpson3 search --triple`` once
    for each of ``SEARCHES`` fixed (class, seed) pairs spread evenly over
    the feasible triple classes, each a fresh search.  The panel is the
    same for every benchmark seed: single-search times are heavy-tailed
    (restarts), so the p90 of 100 to 300 seeded searches moves by 17 to
    35 % between seeds, while a fixed panel makes it compare like with like.
    """

    name = "witness_sweep"
    LAZY_IMPORTS = ("scipy.optimize",)
    TRIPLE_SAMPLE = 80
    HARD_TRIPLES = ((3, 4, 55), (3, 4, 58), (3, 11, 55), (3, 11, 58), (3, 14, 53), (3, 14, 60))
    PAIR_BUDGET = 10**7
    TRIPLE_BUDGET = 2 * 10**5
    SEARCHES = 100
    REPEATS = 2
    SEARCH_REPEATS = 5
    NUMPY_SHARE = 0.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.inputs = self.make_inputs(seed)

    @staticmethod
    def make_inputs(seed: int) -> dict[str, np.ndarray]:
        """Seeded priorities over all (a, b, c) id triples.

        The batched sample takes the feasible classes of lowest priority, so
        it depends on the seed and the class set, never on enumeration order.
        """
        rng = np.random.default_rng([seed, 2])
        return {"sweep_priority": rng.random((75, 75, 75))}

    def settings(self) -> dict:
        return {
            "pair_classes": 112,
            "triple_sample": self.TRIPLE_SAMPLE,
            "hard_triples": [list(k) for k in self.HARD_TRIPLES],
            "pair_budget": self.PAIR_BUDGET,
            "triple_budget": self.TRIPLE_BUDGET,
            "searches": self.SEARCHES,
            "repeats": self.REPEATS,
            "search_repeats": self.SEARCH_REPEATS,
            "workers": 1,
        }

    def _classes(self) -> dict:
        catalog = triangulation.get_catalog()
        pair_classes = symmetry.orbit_classes(2, catalog)
        triple_classes = symmetry.orbit_classes(3, catalog)
        blocked2 = {c.representative for c in feasibility.infeasible_pair_classes(catalog, pair_classes)}
        blocked3 = {c.representative for c in feasibility.infeasible_triple_classes(catalog, triple_classes)}
        return {
            "pairs": [c.representative for c in pair_classes if c.representative not in blocked2],
            "triples": [c.representative for c in triple_classes if c.representative not in blocked3],
            "blocked2": blocked2,
            "blocked3": blocked3,
        }

    def _sweep(self, kind: str, keys: list, budget: int) -> dict:
        search = experiments.ConversionSearch(experiments.SamplerConfig(seed=self.seed, worker_count=1))
        return getattr(search, kind)(keys, budget=budget)

    def measure(self, seconds: float, repeats: int | None = None, during: bool = True) -> dict:
        classes = self._classes()
        easy = [k for k in classes["triples"] if k not in self.HARD_TRIPLES]
        priority = self.inputs["sweep_priority"]
        sample = sorted(easy, key=lambda k: priority[k])[: self.TRIPLE_SAMPLE]
        sample += [k for k in self.HARD_TRIPLES if k in classes["triples"]]
        panel = [easy[i * len(easy) // self.SEARCHES] for i in range(self.SEARCHES)]
        batched = [
            self._classes,
            lambda: self._sweep("sweep_pairs", classes["pairs"], self.PAIR_BUDGET),
            lambda: self._sweep("sweep_triples", sample, self.TRIPLE_BUDGET),
        ]
        searches = [
            lambda key=key, i=i: run_cli(
                ["search", "--triple", *map(str, key), "--seed", str(i), "--workers", "1",
                 "--budget", str(self.TRIPLE_BUDGET)]
            )
            for i, key in enumerate(panel)
        ]
        runs, timings = in_passes(
            [[unit] for unit in batched], seconds, len(batched), repeats or self.REPEATS, during
        )
        search_runs, search_timings = in_passes(
            [[unit] for unit in searches], seconds, len(searches), repeats or self.SEARCH_REPEATS, during
        )
        return {
            "classes": runs[0],
            "pairs": runs[1],
            "triples": runs[2],
            "panel": panel,
            "searches": search_runs,
            "times": timings,
            "search_times": search_timings,
        }

    @staticmethod
    def _outcome(result) -> tuple:
        if isinstance(result, experiments.Witness):
            return (result.class_key, result.f, result.g)
        return (result.class_key, result.attempts)

    def evaluate(self, raw: dict) -> Result:
        catalog = triangulation.get_catalog()
        failures: list[str] = []
        classes = raw["classes"][0]
        if any(out != classes for out in raw["classes"]):
            failures.append("class enumeration differs between passes")
        results: dict = {}
        for unit in ("pairs", "triples"):
            outcomes = [{k: self._outcome(r) for k, r in out.items()} for out in raw[unit]]
            if any(o != outcomes[0] for o in outcomes):
                failures.append(f"batched {unit} sweep gave different results on the same seed")
            results.update(raw[unit][0])
        if (len(classes["pairs"]), len(classes["blocked2"])) != (112, 55):
            failures.append(f"{len(classes['pairs'])} feasible / {len(classes['blocked2'])} obstructed pair classes")
        if (len(classes["triples"]), len(classes["blocked3"])) != (4304, 351):
            failures.append(
                f"{len(classes['triples'])} feasible / {len(classes['blocked3'])} obstructed triple classes"
            )
        for key in list(results) + raw["panel"]:
            check = feasibility.obstruction if len(key) == 2 else feasibility.obstruction_triple
            if check(*(catalog[x] for x in key)).obstructed:
                failures.append(f"obstructed class {key} was searched")
        pair_found = exhausted = 0
        for key, result in results.items():
            if isinstance(result, experiments.Witness):
                if result.class_key != key or not result.verify():
                    failures.append(f"witness for {key} fails re-verification")
                pair_found += len(key) == 2
            else:
                exhausted += 1
        if pair_found != 112:
            failures.append(f"{pair_found}/112 pair witnesses")
        failed = 0
        for key, runs in zip(raw["panel"], raw["searches"]):
            if any(code != 0 for _, code, _ in runs):
                failed += 1
                continue
            payloads = [json.loads(out) for *_, out in runs]
            for p in payloads:
                p.pop("verifiedAt", None)
            if any(p != payloads[0] for p in payloads):
                failures.append(f"search for {key} gave different results on the same seed")
            payload = payloads[0]
            if payload["status"] != "witness":
                exhausted += 1
                continue
            witness = experiments.Witness(
                class_key=tuple(payload["classKey"]),
                f=Table3(Fraction(x) for x in payload["f"]),
                g=Table3(Fraction(x) for x in payload["g"]),
                verified_at="",
            )
            if witness.class_key != key or not witness.verify():
                failures.append(f"CLI witness for {key} fails re-verification")
        if failed:
            failures.append(f"{failed} searches exited non-zero")
        batched, searches = raw["times"], raw["search_times"]
        batch_s = sum(wall_s(times) for times in batched)
        ref_batch_s = sum(reference_s(times, self.NUMPY_SHARE) for times in batched)
        latencies = [wall_s(times) * 1e3 for times in searches]
        attempted = len(results) + len(raw["searches"])
        return Result(
            rate_per_s=len(results) / ref_batch_s,
            latencies_ms=[reference_s(times, self.NUMPY_SHARE) * 1e3 for times in searches],
            wall_rate_per_s=len(results) / batch_s,
            wall_latencies_ms=latencies,
            slowdown=median_slowdown(raw["times"] + searches, self.NUMPY_SHARE),
            attempted=attempted,
            failed=failed,
            fail_share=exhausted / attempted,
            named={
                "sweep_classes_per_s": (len(results) / batch_s, "classes/s"),
                "search_p50_ms": (percentile(latencies, 50), "ms"),
                "search_p90_ms": (percentile(latencies, 90), "ms"),
                "searches": (float(len(latencies)), "count"),
                "sweep_classes": (float(len(results)), "count"),
            },
            failures=failures,
        )


# ---------------------------------------------------------------------------


class ExactCounts:
    """Seeded integer 2x2x2 count tables through every classifier.

    Each batch mixes small entries (1..5, where ties are common) with wide
    entries (1..10**6) at fixed shares.  Per batch: ``classify_heights_batch``
    on all tables, ``classify_exact`` on each, ``detect_conversion`` on
    seeded pairs, the hull oracle on seeded tables and the 48-symmetry
    equivariance check on one seeded table.  Pairs, oracle and equivariance
    tables are wide ones, which are never degenerate, so every batch does
    the same work.  A batch is the unit of latency.
    """

    name = "exact_counts"
    LAZY_IMPORTS = ("scipy.spatial",)
    BATCH = 25
    SMALL_SHARE = 0.5
    PAIRS = 6
    ORACLE_TABLES = 3
    EQUIVARIANCE_TABLES = 1
    REPEATS = 3
    NUMPY_SHARE = 0.0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    @staticmethod
    def make_batch(seed: int, index: int) -> dict[str, np.ndarray]:
        rng = np.random.default_rng([seed, 3, index])
        n = ExactCounts.BATCH
        small = np.arange(n) < round(ExactCounts.SMALL_SHARE * n)
        wide = np.nonzero(~small)[0]
        tables = np.where(
            small[:, None], rng.integers(1, 6, (n, 8)), rng.integers(1, 10**6 + 1, (n, 8))
        )
        return {
            "tables": tables,
            "pairs": rng.choice(wide, (ExactCounts.PAIRS, 2)),
            "oracle": rng.choice(wide, ExactCounts.ORACLE_TABLES, replace=False),
            "equivariance": rng.choice(wide, ExactCounts.EQUIVARIANCE_TABLES, replace=False),
        }

    def settings(self) -> dict:
        return {
            "tables_per_batch": self.BATCH,
            "small_entries": "1..5",
            "small_share": self.SMALL_SHARE,
            "wide_entries": "1..1000000",
            "wide_share": 1 - self.SMALL_SHARE,
            "pairs_per_batch": self.PAIRS,
            "oracle_tables_per_batch": self.ORACLE_TABLES,
            "equivariance_tables_per_batch": self.EQUIVARIANCE_TABLES,
            "repeats_per_batch": self.REPEATS,
        }

    @staticmethod
    def _run_batch(catalog, batch: dict) -> dict:
        ints = batch["tables"]
        heights = np.log(ints.astype(np.float64))
        batch_ids = triangulation.classify_heights_batch(heights, catalog)
        tables = [Table3([int(x) for x in row]) for row in ints]
        exact = np.zeros(len(tables), dtype=np.int64)
        for i, table in enumerate(tables):
            try:
                exact[i] = triangulation.classify_exact(table, catalog).canonical_id
            except DegenerateTable:
                pass
        conversions = []
        for i, j in batch["pairs"]:
            if exact[i] and exact[j]:
                try:
                    report = experiments.detect_conversion(tables[i], tables[j])
                except DegenerateTable:
                    continue
                conversions.append((int(i), int(j), report.id_f, report.id_g))
        oracle = []
        for i in batch["oracle"]:
            if not (exact[i] and batch_ids[i]):
                continue
            try:
                found = triangulation.classify_float_oracle(heights[i], catalog).canonical_id
            except DegenerateTable:
                found = 0
            oracle.append((int(i), found))
        equivariance = []
        for i in batch["equivariance"]:
            if not exact[i]:
                continue
            base = catalog[int(exact[i])]
            for sigma in symmetry.GROUP:
                moved = triangulation.classify_exact(symmetry.apply_table(sigma, tables[i]), catalog)
                equivariance.append((moved.canonical_id, symmetry.apply(sigma, base).canonical_id))
        return {
            "batch_ids": batch_ids,
            "exact": exact,
            "conversions": conversions,
            "oracle": oracle,
            "equivariance": equivariance,
        }

    def measure(self, seconds: float, repeats: int | None = None, during: bool = True) -> dict:
        catalog = triangulation.get_catalog()
        groups = (
            [lambda batch=self.make_batch(self.seed, i): self._run_batch(catalog, batch)]
            for i in itertools.count()
        )
        batches, timings = in_passes(
            groups, seconds, MIN_LATENCY_SAMPLES, repeats or self.REPEATS, during
        )
        return {"batches": batches, "times": timings}

    @staticmethod
    def _outputs(run: dict) -> tuple:
        return (
            run["batch_ids"].tolist(),
            run["exact"].tolist(),
            run["conversions"],
            run["oracle"],
            run["equivariance"],
        )

    def evaluate(self, raw: dict) -> Result:
        failures: list[str] = []
        mismatch = batch_only = missed = exact_classified = 0
        oracle_bad = equivariance_bad = pair_bad = unsteady = 0
        for runs in raw["batches"]:
            b = runs[0]
            unsteady += any(self._outputs(r) != self._outputs(b) for r in runs)
            exact, batch_ids = b["exact"], b["batch_ids"]
            both = (exact != 0) & (batch_ids != 0)
            mismatch += int(np.count_nonzero(both & (exact != batch_ids)))
            batch_only += int(np.count_nonzero((exact == 0) & (batch_ids != 0)))
            missed += int(np.count_nonzero((exact != 0) & (batch_ids == 0)))
            exact_classified += int(np.count_nonzero(exact))
            oracle_bad += sum(1 for i, found in b["oracle"] if found != exact[i])
            equivariance_bad += sum(1 for got, want in b["equivariance"] if got != want)
            pair_bad += sum(1 for i, j, f, g in b["conversions"] if (f, g) != (exact[i], exact[j]))
        for count, what in (
            (mismatch, "rows where batch and exact both classify but disagree"),
            (batch_only, "rows the batch path classifies but the exact path calls degenerate"),
            (oracle_bad, "oracle disagreements"),
            (equivariance_bad, "equivariance mismatches"),
            (pair_bad, "detect_conversion results that differ from classify_exact"),
            (unsteady, "batches whose repeats gave different outputs"),
        ):
            if count:
                failures.append(f"{count} {what}")
        tables = len(raw["batches"]) * self.BATCH
        walls = [wall_s(times) for times in raw["times"]]
        ref_walls = [reference_s(times, self.NUMPY_SHARE) for times in raw["times"]]
        rates = [self.BATCH / wall for wall in walls]
        return Result(
            rate_per_s=statistics.median(self.BATCH / t for t in ref_walls),
            latencies_ms=[t * 1e3 for t in ref_walls],
            wall_rate_per_s=statistics.median(rates),
            wall_latencies_ms=[wall * 1e3 for wall in walls],
            slowdown=median_slowdown(raw["times"], self.NUMPY_SHARE),
            attempted=tables,
            failed=mismatch + batch_only + oracle_bad + equivariance_bad + pair_bad,
            fail_share=missed / exact_classified if exact_classified else 0.0,
            named={
                "exact_tables_per_s": (statistics.median(rates), "tables/s"),
                "tables": (float(tables), "count"),
                "exact_classified": (float(exact_classified), "count"),
                "batch_missed": (float(missed), "count"),
            },
            failures=failures,
        )


WORKLOADS = {w.name: w for w in (Montecarlo, WitnessSweep, ExactCounts)}
