import csv
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpson3 import (
    DegenerateTable,
    DomainError,
    Table2,
    Table3,
    classify_exact,
    lemma_conclusion_check,
    lemma_hypothesis_check,
    obstruction,
    obstruction_triple,
    orbit_classes,
    write_feasibility_report,
)
from simpson3.feasibility import (
    infeasible_pair_classes,
    infeasible_triple_classes,
    obstructing_vertices,
    per_type_obstructed_counts,
)
from simpson3.symmetry import GROUP, OrbitClass, apply, canonical_class_of, key_rows


def reference_vertex(a, b, c):
    """The parity rule as a per-vertex loop on a (summand, summand, sum)
    triple of triangulations: the first obstructing vertex, or -1."""
    for v in range(8):
        inc = a.vertex_incidence[v]
        if (
            inc == b.vertex_incidence[v]
            and inc.bit_count() % 2 == 1
            and c.vertex_incidence[v] == inc ^ 7
        ):
            return v
    return -1


class TestObstruction:
    def test_pair_count(self, catalog):
        classes = orbit_classes(2, catalog)
        assert len(infeasible_pair_classes(catalog, classes)) == 55

    def test_triple_count(self, catalog):
        classes = orbit_classes(3, catalog)
        assert len(infeasible_triple_classes(catalog, classes)) == 351

    def test_per_type_counts(self, catalog):
        counts = per_type_obstructed_counts(catalog, orbit_classes(2, catalog))
        assert counts["IV"] == 0
        assert sorted(counts.values()) == [0, 5, 6, 12, 13, 19]
        assert counts == {"I": 5, "II": 12, "III": 19, "IV": 0, "V": 13, "VI": 6}

    def test_verdict_reports_vertex(self, catalog):
        type_one = catalog.type_representative("I")
        type_four = catalog.type_representative("IV")
        verdict = obstruction(type_one, type_four)
        assert verdict.obstructed
        v = verdict.witness_vertex
        inc = type_one.vertex_incidence[v]
        assert inc.bit_count() % 2 == 1
        assert type_four.vertex_incidence[v] == inc ^ 7

    def test_not_obstructed(self, catalog):
        verdict = obstruction(catalog[1], catalog[1])
        assert not verdict.obstructed
        assert verdict.witness_vertex is None

    def test_orbit_invariance_sample(self, catalog):
        rng = np.random.default_rng(0)
        for _ in range(60):
            a = int(rng.integers(1, 75))
            b = int(rng.integers(1, 75))
            base = obstruction(catalog[a], catalog[b]).obstructed
            sigma = GROUP[int(rng.integers(0, 48))]
            moved = obstruction(apply(sigma, catalog[a]), apply(sigma, catalog[b])).obstructed
            assert base == moved
        # Seeded raw triple rows, through the batch entry, under all 48
        # symmetries and under swapping the summands.
        rows = rng.integers(1, 75, size=(5000, 3))
        base = obstructing_vertices(catalog, rows) >= 0
        assert 0 < base.sum() < len(rows)
        images = catalog.id_action()[:, rows - 1].reshape(-1, 3)
        moved = obstructing_vertices(catalog, images) >= 0
        assert np.array_equal(moved.reshape(48, -1), np.broadcast_to(base, (48, len(rows))))
        swapped = obstructing_vertices(catalog, rows[:, [1, 0, 2]]) >= 0
        assert np.array_equal(swapped, base)

    def test_batch_equals_the_loop_on_every_raw_row(self, catalog):
        # all 74^3 rows: every padded pair row and every class representative
        # of both arities is one of them
        ids = np.arange(1, len(catalog) + 1)
        rows = np.stack(np.meshgrid(ids, ids, ids, indexing="ij"), axis=-1).reshape(-1, 3)
        got = obstructing_vertices(catalog, rows)
        entries = [None, *catalog]
        want = [reference_vertex(entries[a], entries[b], entries[c]) for a, b, c in rows.tolist()]
        assert got.dtype.kind == "i"
        assert got.tolist() == want
        pair_rows = rows[:, 0] == rows[:, 1]
        pairs = obstructing_vertices(catalog, key_rows(rows[pair_rows][:, 1:], catalog))
        assert np.array_equal(pairs, got[pair_rows])

    def test_one_row_cases_equal_the_loop(self, catalog):
        rng = np.random.default_rng(5)
        for a, b, c in rng.integers(1, 75, size=(300, 3)).tolist():
            triple = obstruction_triple(catalog[a], catalog[b], catalog[c])
            pair = obstruction(catalog[a], catalog[c])
            for verdict, want in (
                (triple, reference_vertex(catalog[a], catalog[b], catalog[c])),
                (pair, reference_vertex(catalog[a], catalog[a], catalog[c])),
            ):
                assert verdict.obstructed == (want >= 0)
                assert verdict.witness_vertex == (want if want >= 0 else None)
                assert verdict.witness_vertex is None or type(verdict.witness_vertex) is int

    @pytest.mark.parametrize("keys", [[], ()])
    def test_empty_input_gives_empty_output(self, catalog, keys):
        got = obstructing_vertices(catalog, key_rows(keys, catalog))
        assert got.shape == (0,)
        assert got.dtype.kind == "i"

    @pytest.mark.parametrize(
        "key, message",
        [
            ((-1, 1), "unknown triangulation id -1"),
            ((0, 1), "unknown triangulation id 0"),
            ((16, 99), "unknown triangulation id 99"),
            ((16, 1.9), "triangulation id 1.9 is not an integer"),
            ((True, 2), "triangulation id True is not an integer"),
            ((1, 2, 3, 4), "unsupported arity 4"),
            ((), "unsupported arity 0"),
        ],
    )
    def test_bad_ids_are_refused(self, catalog, key, message):
        # not wrapped to the last rows, read as the zero row, or truncated
        with pytest.raises(DomainError, match=message):
            key_rows([(1, 2), key], catalog)

    @settings(max_examples=400, deadline=None)
    @given(key=st.lists(st.sampled_from([-1, 0, 1, 74, 75, True, 1.5, np.int64(3)]), max_size=4))
    def test_keys_pass_the_rule_of_canonical_classes(self, catalog, key):
        # one rule for class keys: the same refusal with the same text
        def refusal(check):
            try:
                check()
            except DomainError as exc:
                return str(exc)
            return None

        assert refusal(lambda: key_rows([key], catalog)) == refusal(
            lambda: canonical_class_of(key, catalog)
        )

    def test_triple_needs_matching_summands(self, catalog):
        # obstruction only fires when both summands share the odd pattern
        classes = orbit_classes(3, catalog)
        infeasible = infeasible_triple_classes(catalog, classes)
        a, b, c = infeasible[0].representative
        verdict = obstruction_triple(catalog[a], catalog[b], catalog[c])
        assert verdict.obstructed
        v = verdict.witness_vertex
        assert catalog[a].vertex_incidence[v] == catalog[b].vertex_incidence[v]


class TestLemmaChecks:
    def test_lemma1_harness(self):
        rng = np.random.default_rng(1)
        satisfied = violations = 0
        while satisfied < 500:
            f = Table2([int(x) for x in rng.integers(1, 1000, 4)])
            g = Table2([int(x) for x in rng.integers(1, 1000, 4)])
            for v in range(4):
                if lemma_hypothesis_check(1, f, g, v):
                    satisfied += 1
                    if not lemma_conclusion_check(1, f, g, v):
                        violations += 1
        assert violations == 0

    @pytest.mark.parametrize("lemma", [2, 3])
    def test_lemma_3d_harness(self, lemma):
        rng = np.random.default_rng(lemma)
        satisfied = violations = 0
        while satisfied < 500:
            f = Table3([int(x) for x in rng.integers(1, 1000, 8)])
            g = Table3([int(x) for x in rng.integers(1, 1000, 8)])
            for v in range(8):
                if lemma_hypothesis_check(lemma, f, g, v):
                    satisfied += 1
                    if not lemma_conclusion_check(lemma, f, g, v):
                        violations += 1
        assert violations == 0

    def test_lemma2_hypothesis_is_full_vertex(self, catalog):
        from simpson3 import DegenerateTable, classify_exact

        rng = np.random.default_rng(4)
        checked = 0
        while checked < 60:
            f = Table3([int(x) for x in rng.integers(1, 1000, 8)])
            try:
                tri = classify_exact(f, catalog)
            except DegenerateTable:
                continue
            checked += 1
            for v in range(8):
                assert lemma_hypothesis_check(2, f, f, v) == (v in tri.full_vertices)

    def test_lemma3_counts_a_facet_tie_as_not_through(self, catalog):
        # The rule the harness checks: the y- and x-facet forms vanish at
        # this table, so neither shows a diagonal through vertex 0 and only
        # the z-facet's does, though no triangulation is induced.
        t = Table3([1, 1, 1, 1, 1, 1, 2, 1])
        with pytest.raises(DegenerateTable):
            classify_exact(t, catalog)
        assert [lemma_hypothesis_check(3, t, t, v) for v in range(8)] == [True] + [False] * 7
        assert lemma_conclusion_check(3, t, t, 0)

    def test_lemma1_requires_positive_tables(self):
        f = Table2([0, 1, 1, 1])
        g = Table2([1, 1, 1, 1])
        with pytest.raises(DomainError):
            lemma_hypothesis_check(1, f, g, 0)

    def test_unknown_lemma(self):
        f = Table2([1, 1, 1, 1])
        with pytest.raises(DomainError):
            lemma_hypothesis_check(4, f, f, 0)

    def test_vertex_bounds(self):
        f = Table2([1, 2, 3, 4])
        with pytest.raises(DomainError):
            lemma_hypothesis_check(1, f, f, 4)

    @pytest.mark.parametrize("check", [lemma_hypothesis_check, lemma_conclusion_check])
    @pytest.mark.parametrize(
        "lemma, f, g, vertex, message",
        [
            (1, Table3([1] * 8), Table3([1] * 8), 0, "lemma 1 applies to 2x2 tables"),
            (1, Table2([1] * 4), Table3([1] * 8), 0, "lemma 1 applies to 2x2 tables"),
            (1, Table2([0, 1, 1, 1]), Table2([1] * 4), 0, "f must be strictly positive"),
            (1, Table2([1] * 4), Table2([1, 1, 0, 1]), 0, "g must be strictly positive"),
            (1, Table2([1] * 4), Table2([1] * 4), 4, "2x2 corners are indexed 0..3"),
            (1, Table2([1] * 4), Table2([1] * 4), -1, "2x2 corners are indexed 0..3"),
            (2, Table2([1] * 4), Table2([1] * 4), 1, "lemma 2 applies to 2x2x2 tables"),
            (3, Table3([1] * 8), Table2([1] * 4), 1, "lemma 3 applies to 2x2x2 tables"),
            (2, Table3([1] * 8), Table3([1] * 8), 8, "cube vertices are indexed 0..7"),
            (3, Table3([1] * 8), Table3([1] * 8), -1, "cube vertices are indexed 0..7"),
            (4, Table3([1] * 8), Table3([1] * 8), 0, "unknown lemma 4"),
            (0, Table2([1] * 4), Table2([1] * 4), 0, "unknown lemma 0"),
        ],
    )
    def test_both_checks_validate_the_instance(self, check, lemma, f, g, vertex, message):
        with pytest.raises(DomainError) as info:
            check(lemma, f, g, vertex)
        assert str(info.value) == message

    @pytest.mark.parametrize("check", [lemma_hypothesis_check, lemma_conclusion_check])
    @pytest.mark.parametrize("lemma", [1, 2, 3])
    @pytest.mark.parametrize("vertex", [True, 1.5, np.int64(3)], ids=["bool", "float", "int64"])
    def test_both_checks_read_the_vertex_as_an_integer(self, check, lemma, vertex):
        # a bool is no vertex 1 and a float no vertex at all; a numpy
        # integer is the vertex it holds
        if lemma == 1:
            f, g = Table2([5, 6, 3, 4]), Table2([Fraction(6, 7), 6, Fraction(1, 7), Fraction(8, 7)])
        else:
            f, g = Table3([3, 1, 4, 1, 5, 9, 2, 6]), Table3([27, 18, 28, 45, 90, 45, 23, 53])
        if isinstance(vertex, np.integer):
            assert check(lemma, f, g, vertex) == check(lemma, f, g, int(vertex))
        else:
            with pytest.raises(DomainError) as info:
                check(lemma, f, g, vertex)
            assert str(info.value) == f"vertex {vertex!r} is not an integer"

    @pytest.mark.parametrize("check", [lemma_hypothesis_check, lemma_conclusion_check])
    @pytest.mark.parametrize("lemma", [True, 2.0, np.int64(2)], ids=["bool", "float", "int64"])
    def test_both_checks_read_the_lemma_as_an_integer(self, check, lemma):
        # True is no lemma 1 and 2.0 no lemma 2; a numpy integer is the
        # lemma it holds
        f, g = Table3([3, 1, 4, 1, 5, 9, 2, 6]), Table3([27, 18, 28, 45, 90, 45, 23, 53])
        if isinstance(lemma, np.integer):
            for v in range(8):
                assert check(lemma, f, g, v) == check(2, f, g, v)
        else:
            with pytest.raises(DomainError) as info:
                check(lemma, f, g, 0)
            assert str(info.value) == f"lemma {lemma!r} is not an integer"


def _facet_products(t, vertex):
    """For each facet through the vertex (z, y, x fixed, in that order): the
    product over the diagonal avoiding the vertex, and over the one through
    it."""
    x, y, z = (vertex >> 2) & 1, (vertex >> 1) & 1, vertex & 1

    def e(a, b, c):
        return t.entries[(a << 2) | (b << 1) | c]

    return (
        (e(1 - x, y, z) * e(x, 1 - y, z), e(x, y, z) * e(1 - x, 1 - y, z)),
        (e(1 - x, y, z) * e(x, y, 1 - z), e(x, y, z) * e(1 - x, y, 1 - z)),
        (e(x, 1 - y, z) * e(x, y, 1 - z), e(x, y, z) * e(x, 1 - y, 1 - z)),
    )


def reference_hypothesis(lemma, f, g, vertex):
    """Lemmas 2 and 3 by Fraction facet products: both tables show the
    diagonal through the vertex on all three facets (lemma 2) or on the
    z-facet only (lemma 3)."""
    want = (True, True, True) if lemma == 2 else (True, False, False)
    return all(
        (anti < main) == w
        for t in (f, g)
        for (anti, main), w in zip(_facet_products(t, vertex), want)
    )


def reference_conclusion(lemma, f, g, vertex):
    """The sum does not show the complementary diagonals strictly."""
    (a0, m0), (a1, m1), (a2, m2) = _facet_products(f + g, vertex)
    if lemma == 2:
        return not (a0 > m0 and a1 > m1 and a2 > m2)
    return not (a0 > m0 and a1 < m1 and a2 < m2)


def _eight(values):
    return st.lists(values, min_size=8, max_size=8).map(Table3)


# Tie-heavy, wide and rational entries.
tie_wide_rational = (
    st.integers(1, 3),
    st.integers(1, 10**6),
    st.one_of(st.integers(1, 4), st.builds(Fraction, st.integers(1, 4), st.integers(2, 4))),
    st.builds(Fraction, st.integers(1, 10**9), st.integers(1, 10**9)),
)
lemma_tables = st.one_of(*map(_eight, tie_wide_rational))


class TestLemmaKernel:
    """Lemmas 2 and 3 read off the sign kernel equal their Fraction
    inequality systems on every instance, ties included."""

    @settings(max_examples=400, deadline=None)
    @given(f=lemma_tables, g=lemma_tables, lemma=st.sampled_from([2, 3]))
    def test_matches_the_fraction_reference(self, f, g, lemma):
        for v in range(8):
            assert lemma_hypothesis_check(lemma, f, g, v) == reference_hypothesis(lemma, f, g, v)
            assert lemma_conclusion_check(lemma, f, g, v) == reference_conclusion(lemma, f, g, v)

    @settings(max_examples=200, deadline=None)
    @given(f=lemma_tables, lemma=st.sampled_from([2, 3]))
    def test_matches_the_fraction_reference_on_equal_summands(self, f, lemma):
        # F = G makes both hypotheses hold together, and the sum repeats F.
        for v in range(8):
            assert lemma_hypothesis_check(lemma, f, f, v) == reference_hypothesis(lemma, f, f, v)
            assert lemma_conclusion_check(lemma, f, f, v) == reference_conclusion(lemma, f, f, v)


def reference_lemma1(f, g, corner):
    """Lemma 1's hypothesis and conclusion by Fraction diagonal and cross
    products, on the entries of 2x2 tables f and g."""
    x, y = (corner >> 1) & 1, corner & 1

    def at(e, a, b):
        return e[(a << 1) | b]

    def products(e):
        return at(e, 1 - x, y) * at(e, x, 1 - y), at(e, x, y) * at(e, 1 - x, 1 - y)

    (fa, fm), (ga, gm), (sa, sm) = (products(e) for e in (f, g, [a + b for a, b in zip(f, g)]))
    p = at(f, 1 - x, y) * at(g, x, y) - at(f, x, y) * at(g, 1 - x, y)
    q = at(f, x, 1 - y) * at(g, x, y) - at(f, x, y) * at(g, x, 1 - y)
    return fa < fm and ga < gm and sa > sm, (p > 0 and q < 0) != (p < 0 and q > 0)


lemma1_entries = st.one_of(*(st.lists(v, min_size=4, max_size=4) for v in tie_wide_rational))
unit_or_huge = st.sampled_from([Fraction(1), Fraction(10) ** 300, Fraction(3, 10**300)])


class TestLemma1Integers:
    """Lemma 1 on the tables' integers equals its Fraction inequality
    system on every instance, ties and huge scales included."""

    @settings(max_examples=400, deadline=None)
    @given(f=lemma1_entries, g=lemma1_entries, factor=unit_or_huge)
    def test_matches_the_fraction_reference(self, f, g, factor):
        ff = [Fraction(x) * factor for x in f]
        tf, tg = Table2(ff), Table2(g)
        for v in range(4):
            hypothesis, conclusion = reference_lemma1(ff, [Fraction(x) for x in g], v)
            assert lemma_hypothesis_check(1, tf, tg, v) == hypothesis
            assert lemma_conclusion_check(1, tf, tg, v) == conclusion


class TestReport:
    def test_csv_shape(self, catalog, tmp_path):
        path = tmp_path / "report.csv"
        pairs = orbit_classes(2, catalog)
        triples = orbit_classes(3, catalog)[:50]
        write_feasibility_report(path, catalog, pairs, triples)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 167 + 50
        assert set(rows[0]) == {"classRep", "arity", "obstructed", "obstructingVertex"}
        obstructed = [r for r in rows if r["arity"] == "2" and r["obstructed"] == "true"]
        assert len(obstructed) == 55
        for row in obstructed:
            assert row["obstructingVertex"] != ""
        clear = [r for r in rows if r["obstructed"] == "false"]
        assert all(r["obstructingVertex"] == "" for r in clear)

    def test_failed_report_leaves_the_old_one(self, catalog, tmp_path):
        path = tmp_path / "report.csv"
        pairs = orbit_classes(2, catalog)
        write_feasibility_report(path, catalog, pairs, orbit_classes(3, catalog))
        before = path.read_bytes()
        # (1, 1, 2) names no class: it raises after the pair rows are made
        bad = [OrbitClass((1, 1, 2), 1, catalog.id_action())]
        with pytest.raises(DomainError):
            write_feasibility_report(path, catalog, pairs, bad)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]
