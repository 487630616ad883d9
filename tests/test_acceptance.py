"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Each test computes its verdict, records a summary line (shown in the
terminal summary section), and then asserts, so a red criterion is
visible both as a failed test and as a FAIL line.
"""

import hashlib
import time
from fractions import Fraction

import numpy as np
import pytest

from simpson3 import (
    ConversionSearch,
    DegenerateTable,
    SamplerConfig,
    Table2,
    Table3,
    Witness,
    apply_table,
    classify_exact,
    classify_float_oracle,
    classify_heights_batch,
    correlation_profile,
    detect_reversal_2d,
    estimate_2d_reversal,
    estimate_3d_conversion,
    lemma_conclusion_check,
    lemma_hypothesis_check,
    load_civil_rights,
    obstruction,
    orbit_classes,
)
from simpson3.feasibility import (
    infeasible_pair_classes,
    infeasible_triple_classes,
    per_type_obstructed_counts,
)
from simpson3.symmetry import GROUP, apply
from simpson3.triangulation import _build_catalog

PAIR_BUDGET = 10**7
TRIPLE_BUDGET = 2 * 10**5
TRIPLE_FLOOR = 4298
# sha256 of the seed-0 criterion 4 outcomes (see ``outcome_digest``) from the
# float32 descent: a change of the kernel that keeps its float32 operations
# and their order must not move any witness entry or attempt count.
CRITERION_4_DIGEST = "c4d0bfe0227d9d25ed236895146fa9a23250db8843d9fb4f9e4062aa888bfd2c"


def outcome_digest(results):
    """sha256 over every class key in order with its witness's F and G
    integers and denominators, or its exhausted attempts."""
    lines = []
    for key, result in sorted(results.items()):
        if isinstance(result, Witness):
            f, g = result.f, result.g
            lines.append(f"{key} {f.integers} {f.denominator} {g.integers} {g.denominator}")
        else:
            lines.append(f"{key} exhausted {result.attempts}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_criterion_1_catalog(acceptance):
    start = time.monotonic()
    catalog = _build_catalog()
    count = len(catalog.entries)
    five = sum(1 for e in catalog.entries if len(e.tetrahedra) == 5)
    orbits = len(catalog.orbit_representatives())
    elapsed = time.monotonic() - start
    ok = count == 74 and five == 2 and orbits == 6 and elapsed < 60
    assert acceptance(
        1,
        ok,
        f"{count} triangulations, {five} with five tetrahedra, "
        f"{orbits} symmetry orbits in {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_2_orbit_classes(acceptance, catalog):
    start = time.monotonic()
    pairs = orbit_classes(2, catalog)
    triples = orbit_classes(3, catalog)
    elapsed = time.monotonic() - start
    pair_pop = sum(c.size for c in pairs)
    triple_pop = sum(c.size for c in triples)
    ok = (
        len(pairs) == 167
        and pair_pop == 5476
        and len(triples) == 4655
        and triple_pop == 199874
        and elapsed < 300
    )
    assert acceptance(
        2,
        ok,
        f"{pair_pop} ordered pairs -> {len(pairs)} classes; "
        f"{triple_pop} triples -> {len(triples)} classes in {elapsed:.1f}s (limit 300s)",
    )


def test_criterion_3_obstruction_counts(acceptance, catalog):
    pairs = orbit_classes(2, catalog)
    triples = orbit_classes(3, catalog)
    pair_count = len(infeasible_pair_classes(catalog, pairs))
    triple_count = len(infeasible_triple_classes(catalog, triples))
    per_type = per_type_obstructed_counts(catalog, pairs)
    no_full_type = next(
        label
        for label in per_type
        if not catalog.type_representative(label).full_vertices
    )
    ok = (
        pair_count == 55
        and sorted(per_type.values()) == [0, 5, 6, 12, 13, 19]
        and per_type[no_full_type] == 0
        and triple_count == 351
    )
    assert acceptance(
        3,
        ok,
        f"{pair_count} obstructed pair classes, per-type {per_type} "
        f"(zero on type {no_full_type}, the one with no full vertices), "
        f"{triple_count} obstructed triple classes",
    )


def test_criterion_4_witnesses(acceptance, catalog):
    start = time.monotonic()
    config = SamplerConfig(seed=0)
    search = ConversionSearch(config)

    pair_classes = orbit_classes(2, catalog)
    obstructed_pairs = {
        c.representative for c in infeasible_pair_classes(catalog, pair_classes)
    }
    feasible_pairs = [
        c.representative
        for c in pair_classes
        if c.representative not in obstructed_pairs
    ]
    pair_results = search.sweep_pairs(feasible_pairs, budget=PAIR_BUDGET)
    pair_found = sum(1 for w in pair_results.values() if isinstance(w, Witness))
    pair_verified = sum(
        1 for w in pair_results.values() if isinstance(w, Witness) and w.verify()
    )

    triple_classes = orbit_classes(3, catalog)
    obstructed_triples = {
        c.representative for c in infeasible_triple_classes(catalog, triple_classes)
    }
    feasible_triples = [
        c.representative
        for c in triple_classes
        if c.representative not in obstructed_triples
    ]
    triple_results = search.sweep_triples(feasible_triples, budget=TRIPLE_BUDGET)
    triple_found = sum(1 for w in triple_results.values() if isinstance(w, Witness))
    unresolved = sorted(
        key for key, w in triple_results.items() if not isinstance(w, Witness)
    )
    digest = outcome_digest({**pair_results, **triple_results})
    elapsed = time.monotonic() - start
    ok = (
        len(feasible_pairs) == 112
        and pair_found == 112
        and pair_verified == 112
        and len(feasible_triples) == 4304
        and triple_found >= TRIPLE_FLOOR
        and digest == CRITERION_4_DIGEST
    )
    assert acceptance(
        4,
        ok,
        f"pair witnesses {pair_found}/112 (budget {PAIR_BUDGET:.0e}), triple "
        f"witnesses {triple_found}/4304 (floor {TRIPLE_FLOOR}, budget "
        f"{TRIPLE_BUDGET:.0e}, {len(unresolved)} unresolved), outcome digest "
        f"{digest[:12]} (pinned {CRITERION_4_DIGEST[:12]}) in {elapsed:.0f}s",
    )


def test_criterion_5_monte_carlo_2d(acceptance):
    start = time.monotonic()
    estimate = estimate_2d_reversal(SamplerConfig(seed=0), 10**6)
    elapsed = time.monotonic() - start
    value = estimate.estimates["reversal"]
    ok = abs(value - 1 / 60) <= 0.002 and elapsed < 60
    assert acceptance(
        5,
        ok,
        f"2d reversal frequency {value:.5f} vs 1/60 = {1 / 60:.5f} "
        f"(tolerance 0.002) in {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_6_monte_carlo_3d(acceptance):
    start = time.monotonic()
    estimate = estimate_3d_conversion(SamplerConfig(seed=0), 5 * 10**6)
    elapsed = time.monotonic() - start
    reference = {
        "sameTriangulation": 0.01888,
        "conversion": 0.00223,
        "sameNoConversion": 0.01664,
    }
    conjectured = {
        "sameTriangulation": 17 / 900,
        "conversion": 2 / 900,
        "sameNoConversion": 15 / 900,
    }
    # the seed-0 counts themselves: a classifier change must not move one row
    exact_counts = {"sameTriangulation": 95024, "conversion": 11319, "sameNoConversion": 83705}
    deviations = []
    ok = elapsed < 600 and estimate.counts == exact_counts and estimate.degenerate_discards == 0
    for key, target in reference.items():
        value = estimate.estimates[key]
        se = estimate.standard_errors[key]
        within_reference = abs(value - target) <= 3 * se
        within_conjectured = abs(value - conjectured[key]) <= 3 * se
        ok = ok and within_reference and within_conjectured
        deviations.append(f"{key} {value:.5f} ({abs(value - target) / se:.1f}se)")
    assert acceptance(
        6,
        ok,
        "3d frequencies within 3se of reference and conjectured values: "
        + ", ".join(deviations)
        + f"; counts {estimate.counts} (expected {exact_counts}),"
        + f" {estimate.degenerate_discards} discards (expected 0)"
        + f" in {elapsed:.0f}s (limit 600s)",
    )


def test_criterion_7_oracle_agreement(acceptance, catalog):
    start = time.monotonic()
    rng = np.random.default_rng(7)
    needed = 10**5
    agree = checked = discarded = 0
    while checked < needed:
        entries = rng.integers(1, 10**6, (20000, 8))
        heights = np.log(entries.astype(np.float64))
        ids = classify_heights_batch(heights, catalog)
        discarded += int(np.count_nonzero(ids == 0))
        keep = np.nonzero(ids != 0)[0]
        for row in keep:
            if checked >= needed:
                break
            exact = classify_exact(Table3([int(x) for x in entries[row]]), catalog)
            oracle = classify_float_oracle(heights[row], catalog)
            checked += 1
            if exact is oracle and exact.canonical_id == ids[row]:
                agree += 1
    elapsed = time.monotonic() - start
    ok = agree == needed and elapsed < 120
    assert acceptance(
        7,
        ok,
        f"exact vs float-hull oracle agreement {agree}/{checked} "
        f"({discarded} degenerate discards) in {elapsed:.0f}s (limit 120s)",
    )


def _gathered(tables, home):
    """Each table's rows read from their home vertex, one row of the result
    per vertex offset: ``out[d, r]`` is the entry of row ``r`` at vertex
    ``home[r] ^ d``, so flipping coordinates is an xor of the offset."""
    width = tables[0].shape[1]
    index = (home ^ np.arange(width)[:, None]) + width * np.arange(len(home))
    return [np.take(t, index) for t in tables]


def _lemma1_batch(rng, batch):
    f = rng.integers(1, 1000, (batch, 4)).astype(np.int64)
    g = rng.integers(1, 1000, (batch, 4)).astype(np.int64)
    s = f + g
    x = rng.integers(0, 2, batch)
    y = rng.integers(0, 2, batch)
    home = 2 * x + y
    # offsets: 0 the home cell xy, 1 the cell x(1-y), 2 (1-x)y, 3 (1-x)(1-y)
    f0, g0, s0 = _gathered((f, g, s), home)

    def diag(t):
        return t[2] * t[1], t[0] * t[3]

    fa, fm = diag(f0)
    ga, gm = diag(g0)
    sa, sm = diag(s0)
    hyp = (fa < fm) & (ga < gm) & (sa > sm)
    p = f0[2] * g0[0] - f0[0] * g0[2]
    q = f0[1] * g0[0] - f0[0] * g0[1]
    conclusion = ((p > 0) & (q < 0)) != ((p < 0) & (q > 0))
    sample = (f, g, home)
    return hyp, hyp & ~conclusion, sample


def _lemma_3d_batch(rng, batch, lemma):
    f = rng.integers(1, 1000, (batch, 8)).astype(np.int64)
    g = rng.integers(1, 1000, (batch, 8)).astype(np.int64)
    s = f + g
    x = rng.integers(0, 2, batch)
    y = rng.integers(0, 2, batch)
    z = rng.integers(0, 2, batch)
    home = 4 * x + 2 * y + z

    def facets(t):
        # facet order: z fixed, y fixed, x fixed; (anti, main) products
        return (
            (t[4] * t[2], t[0] * t[6]),
            (t[4] * t[1], t[0] * t[5]),
            (t[2] * t[1], t[0] * t[3]),
        )

    ff, gg, ss = (facets(t) for t in _gathered((f, g, s), home))
    if lemma == 2:
        hyp = np.ones(batch, dtype=bool)
        for anti, main in ff + gg:
            hyp &= anti < main
        forbidden = np.ones(batch, dtype=bool)
        for anti, main in ss:
            forbidden &= anti > main
    else:
        want = (True, False, False)
        hyp = np.ones(batch, dtype=bool)
        for (anti, main), w in zip(ff, want):
            hyp &= (anti < main) == w
        for (anti, main), w in zip(gg, want):
            hyp &= (anti < main) == w
        forbidden = (ss[0][0] > ss[0][1]) & (ss[1][0] < ss[1][1]) & (ss[2][0] < ss[2][1])
    sample = (f, g, home)
    return hyp, hyp & forbidden, sample


def test_criterion_8_lemma_suites(acceptance):
    start = time.monotonic()
    target = 10**5
    results = {}
    cross_checked = 0
    for lemma in (1, 2, 3):
        rng = np.random.default_rng(80 + lemma)
        satisfied = violations = 0
        while satisfied < target:
            if lemma == 1:
                hyp, bad, sample = _lemma1_batch(rng, 2 * 10**6)
            else:
                hyp, bad, sample = _lemma_3d_batch(rng, 10**6, lemma)
            satisfied += int(np.count_nonzero(hyp))
            violations += int(np.count_nonzero(bad))
            # spot-check the vectorized harness against the scalar checks
            f, g, vertex = sample
            for row in np.nonzero(hyp)[0][:10]:
                table = Table2 if lemma == 1 else Table3
                tf = table([int(v) for v in f[row]])
                tg = table([int(v) for v in g[row]])
                assert lemma_hypothesis_check(lemma, tf, tg, int(vertex[row]))
                assert lemma_conclusion_check(lemma, tf, tg, int(vertex[row])) == (
                    not bad[row]
                )
                cross_checked += 1
        results[lemma] = (satisfied, violations)
    elapsed = time.monotonic() - start
    ok = all(v == 0 and n >= target for n, v in results.values()) and elapsed < 120
    detail = ", ".join(
        f"lemma {lemma}: {n} instances, {v} violations"
        for lemma, (n, v) in results.items()
    )
    assert acceptance(
        8, ok, f"{detail} ({cross_checked} cross-checked) in {elapsed:.0f}s (limit 120s)"
    )


def test_criterion_9_data_fixtures(acceptance):
    tables = load_civil_rights()
    house_north = tables["north"].layer(0, 0)
    house_south = tables["south"].layer(0, 0)
    reversal = detect_reversal_2d(house_north, house_south)
    north_profile = correlation_profile(Table3(tables["north"].entries))
    all_profile = correlation_profile(Table3(tables["all"].entries))
    north_sign = north_profile.marginal[0]
    all_sign = all_profile.marginal[0]
    ok = (
        reversal.value == "ReversalPosToNeg"
        and north_sign == 1
        and all_sign == -1
    )
    assert acceptance(
        9,
        ok,
        f"House tables: {reversal.value}; party/vote marginal sign "
        f"north {north_sign:+d}, combined {all_sign:+d}",
    )


def test_criterion_10_equivariance(acceptance, catalog):
    start = time.monotonic()
    rng = np.random.default_rng(10)
    tables = 0
    mismatches = 0
    while tables < 1000:
        entries = rng.integers(1, 1000, 8)
        table = Table3([int(v) for v in entries])
        try:
            base = classify_exact(table, catalog)
        except DegenerateTable:
            continue
        tables += 1
        for sigma in GROUP:
            moved = classify_exact(apply_table(sigma, table), catalog)
            if moved is not apply(sigma, base):
                mismatches += 1
    invariant = True
    for cls in orbit_classes(2, catalog):
        verdicts = {
            obstruction(catalog[a], catalog[b]).obstructed for a, b in cls.members
        }
        if len(verdicts) != 1:
            invariant = False
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and invariant and elapsed < 300
    assert acceptance(
        10,
        ok,
        f"equivariance over 48 symmetries x {tables} tables: {mismatches} "
        f"mismatches; obstruction constant on all 167 pair classes: "
        f"{invariant} in {elapsed:.0f}s",
    )
