import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpson3 import (
    GROUP,
    Diagonal2D,
    DomainError,
    NonnegTable3,
    Reversal2D,
    Simpson3Error,
    Table2,
    Table3,
    apply_table,
    classify_2d,
    classify_exact,
    correlation_profile,
    detect_conversion,
    detect_reversal_2d,
    eval_form_signs,
    lemma_conclusion_check,
    lemma_hypothesis_check,
    load_table,
    table_from_json_obj,
    table_to_json_obj,
)
from simpson3.tables import (
    FACE_FORM,
    FACES,
    FORM_COEFFS,
    FORM_INDEX,
    FORM_LETTERS,
    _FIVE_TERM,
    _FOUR_TERM,
    _int_sign_bits,
    _pair_sign_bits,
    _sign,
    VERTICES,
    antipode,
    face_diagonal_pair,
    face_vertices,
    parse_rational,
    vertex_bits,
    vertex_name,
    vertex_of_bits,
)
from simpson3.triangulation import _classified

EXAMPLE = Table3([Fraction(1, 4), 1, 1, 2, 4, 1, 2, 8])


def random_int_table3(rng):
    return Table3([int(x) for x in rng.integers(1, 1000, 8)])


def random_int_table2(rng):
    return Table2([int(x) for x in rng.integers(1, 1000, 4)])


class TestVertexHelpers:
    def test_bits_round_trip(self):
        for v in range(8):
            assert vertex_of_bits(*vertex_bits(v)) == v

    def test_vertex_names(self):
        assert vertex_name(0) == "000"
        assert vertex_name(6) == "110"

    def test_antipode(self):
        assert antipode(0) == 7
        assert antipode(3) == 4
        for v in range(8):
            assert antipode(antipode(v)) == v

    def test_face_vertices(self):
        assert face_vertices(0, 0) == (0, 1, 2, 3)
        assert face_vertices(2, 1) == (1, 3, 5, 7)

    def test_face_diagonal_pair(self):
        first, second = face_diagonal_pair(2, 0)
        assert first == (0, 6)
        assert second == (2, 4)
        for axis, value in FACES:
            first, second = face_diagonal_pair(axis, value)
            assert set(first) | set(second) == set(face_vertices(axis, value))
            assert first[0] == min(face_vertices(axis, value))


class TestForms:
    def test_form_coefficients_balanced(self):
        for coeffs in FORM_COEFFS:
            assert sum(coeffs) == 0
            assert sum(c for c in coeffs if c > 0) in (2, 3)

    def test_five_term_forms_have_doubled_vertex(self):
        for letter in "mnopqrst":
            coeffs = FORM_COEFFS[FORM_INDEX[letter]]
            assert sorted(c for c in coeffs if c != 0) == [-2, -1, 1, 1, 1]

    def test_sign_matches_float_evaluation(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            t = random_int_table3(rng)
            h = np.log([float(e) for e in t.entries])
            for coeffs, exact in zip(FORM_COEFFS, eval_form_signs(t).signs):
                approx = float(np.dot(coeffs, h))
                if abs(approx) > 1e-8:
                    assert exact == (1 if approx > 0 else -1)

    def test_example_form_signs(self):
        signs = eval_form_signs(EXAMPLE)
        assert signs["b"] == 1
        assert signs["d"] == 1
        assert signs["e"] == -1
        assert signs["t"] == -1

    def test_face_forms_match_layer_determinants(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            t = random_int_table3(rng)
            signs = eval_form_signs(t)
            for (axis, value), letter in FACE_FORM.items():
                det = t.layer(axis, value).det()
                expected = (det > 0) - (det < 0)
                assert signs[letter] == expected

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        t = random_int_table3(rng)
        scaled = t.scaled(Fraction(7, 3))
        assert eval_form_signs(t).signs == eval_form_signs(scaled).signs

    def test_all_ones_all_zero_signs(self):
        signs = eval_form_signs(Table3([1] * 8))
        assert set(signs.signs) == {0}


def reference_signs(entries):
    """Signs of the 20 forms by direct Fraction monomial comparison."""
    signs = []
    for coeffs in FORM_COEFFS:
        pos = neg = Fraction(1)
        for v, c in enumerate(coeffs):
            if c > 0:
                pos *= entries[v] ** c
            elif c < 0:
                neg *= entries[v] ** -c
        signs.append((pos > neg) - (pos < neg))
    return tuple(signs)


def _eight(values):
    return st.lists(values, min_size=8, max_size=8)


positive_tables = st.one_of(
    _eight(st.integers(1, 5)),
    _eight(st.integers(1, 10**6)),
    _eight(st.floats(1e-3, 1e3).map(Fraction)),
).map(Table3)
positive_rationals = st.builds(Fraction, st.integers(1, 10**9), st.integers(1, 10**9))


class TestSignKernelProperties:
    @settings(max_examples=400, deadline=None)
    @given(table=positive_tables)
    def test_matches_fraction_reference(self, table):
        assert eval_form_signs(table).signs == reference_signs(table.entries)

    @settings(max_examples=200, deadline=None)
    @given(table=positive_tables, factor=positive_rationals)
    def test_scale_invariance(self, table, factor):
        assert eval_form_signs(table.scaled(factor)) == eval_form_signs(table)


def loop_sign_bits(entries):
    """The sign kernel as a loop over the monomial tuples: each sign is the
    sign of the difference of two monomials in the cleared entries."""
    scale = math.lcm(*(e.denominator for e in entries))
    n = [e.numerator * (scale // e.denominator) for e in entries]
    pos = neg = 0
    for bit, a, b, c, d in _FOUR_TERM:
        diff = n[a] * n[b] - n[c] * n[d]
        if diff > 0:
            pos |= bit
        elif diff < 0:
            neg |= bit
    for bit, a, b, c, d, e, f in _FIVE_TERM:
        diff = n[a] * n[b] * n[c] - n[d] * n[e] * n[f]
        if diff > 0:
            pos |= bit
        elif diff < 0:
            neg |= bit
    return pos, neg


# Entries that stress the compiled kernel: wide counts, ties, integers past
# 64 bits, mixed denominators, and tables scaled by 10^300 or 10^-300.
kernel_entries = st.one_of(
    _eight(st.integers(1, 10**6)),
    _eight(st.integers(1, 5)),
    _eight(st.integers(2**64, 2**64 + 5)),
    _eight(st.integers(1, 2**200)),
    _eight(st.one_of(st.integers(1, 9), st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)))),
    _eight(positive_rationals),
)
huge_scales = st.sampled_from([Fraction(10) ** 300, Fraction(1, 10**300), Fraction(3, 10**300)])


class TestCompiledKernel:
    @settings(max_examples=400, deadline=None)
    @given(entries=kernel_entries)
    def test_equals_the_loop_reference(self, entries):
        table = Table3(entries)
        expected = loop_sign_bits(table.entries)
        assert _int_sign_bits(*table.integers) == expected
        assert expected == loop_sign_bits([Fraction(e) for e in entries])

    @settings(max_examples=200, deadline=None)
    @given(entries=kernel_entries, factor=huge_scales)
    def test_equals_the_loop_reference_at_huge_scales(self, entries, factor):
        table = Table3(entries)
        scaled = table.scaled(factor)
        expected = loop_sign_bits(scaled.entries)
        assert _int_sign_bits(*scaled.integers) == expected == loop_sign_bits(table.entries)

    @settings(max_examples=200, deadline=None)
    @given(f=kernel_entries, g=kernel_entries)
    def test_pair_bits_equal_three_kernel_calls(self, f, g):
        f, g = Table3(f), Table3(g)
        expected = tuple(loop_sign_bits(t.entries) for t in (f, g, f + g))
        assert _pair_sign_bits(f, g) == expected

    def test_every_form_compares_its_own_monomials(self):
        # Raising one entry by a factor moves exactly the forms in which
        # that vertex has a nonzero coefficient, in the coefficient's
        # direction, from a tie.
        for v in VERTICES:
            entries = [1] * 8
            entries[v] = 2
            pos, neg = _int_sign_bits(*entries)
            for i, coeffs in enumerate(FORM_COEFFS):
                assert (pos >> i & 1) - (neg >> i & 1) == (coeffs[v] > 0) - (coeffs[v] < 0)


class TestTables:
    def test_positivity_enforced(self):
        with pytest.raises(DomainError):
            Table3([1, 2, 3, 0, 5, 6, 7, 8])
        with pytest.raises(DomainError):
            Table3([1] * 7)

    def test_float_entries_rejected(self):
        with pytest.raises(DomainError):
            Table3([1.5] + [1] * 7)

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([1.0] * 8, "Table3: entries must be exact rationals, got float"),
            (["1"] * 8, "Table3: entries must be exact rationals, got str"),
            ([1] * 7, "Table3 needs 8 entries, got 7"),
            ([0] + [1] * 7, "Table3 entries must be strictly positive"),
            ([-1, 2, 3, 4, 5, 6, 7, 8], "Table3 entries must be strictly positive"),
        ],
        ids=["float", "str", "seven entries", "zero", "negative"],
    )
    def test_table3_checks_its_entries(self, entries, message):
        with pytest.raises(DomainError) as info:
            Table3(entries)
        assert str(info.value) == message

    def test_add_and_layer(self):
        t = EXAMPLE + EXAMPLE
        assert t.entries == tuple(2 * e for e in EXAMPLE.entries)
        layer = EXAMPLE.layer(0, 1)
        assert layer.entries == (4, 1, 2, 8)
        layer = EXAMPLE.layer(2, 0)
        assert layer.entries == (Fraction(1, 4), 1, 4, 2)

    def test_total(self):
        assert Table3([1] * 8).total() == 8

    def test_nonneg_smoothing(self):
        raw = NonnegTable3([0, 1, 2, 0, 3, 4, 0, 5])
        with pytest.raises(DomainError):
            raw.smoothed(0)
        smooth = raw.smoothed(Fraction(1, 2))
        assert isinstance(smooth, Table3)
        assert smooth.entries[0] == Fraction(1, 2)
        assert smooth.entries[1] == Fraction(3, 2)

    def test_table2_indexing(self):
        t = Table2([1, 2, 3, 4])
        assert t[(0, 0)] == 1
        assert t[(0, 1)] == 2
        assert t[(1, 0)] == 3
        assert t[(1, 1)] == 4
        assert t.det() == 4 - 6


# Exact entries of every kind a table accepts: ints, small p/q and binary
# fractions read off floats.
exact_entries = st.one_of(
    st.integers(1, 10**6),
    st.builds(Fraction, st.integers(1, 50), st.integers(1, 50)),
    st.floats(1e-3, 1e3).map(Fraction),
)
nonneg_entries = st.one_of(st.just(0), exact_entries)


def _assert_exact(table, cls):
    assert type(table) is cls
    assert all(type(e) is Fraction for e in table.entries)


def lowest_terms(table):
    """Whether a table holds its kind's count of ints over a positive int
    denominator with no common factor.  A Table3's ints are positive, the
    other kinds' nonnegative."""
    ints, den = table.integers, table.denominator
    least = 1 if type(table) is Table3 else 0
    return (
        type(ints) is tuple
        and len(ints) == (4 if type(table) is Table2 else 8)
        and all(type(n) is int and n >= least for n in ints)
        and type(den) is int
        and den > 0
        and math.gcd(den, *ints) == 1
    )


class TestDerivedTables:
    """Tables derived from validated ones skip validation; each must equal
    the validating constructor on the same entries, hold the entries
    computed Fraction by Fraction, and be in lowest terms."""

    @settings(max_examples=300, deadline=None)
    @given(
        counts=_eight(st.integers(1, 10**6)),
        a=_eight(exact_entries),
        b=_eight(exact_entries),
        z=_eight(nonneg_entries),
        factor=st.one_of(st.integers(1, 10**6), positive_rationals),
        eps=st.one_of(st.integers(1, 3), positive_rationals),
        s=st.integers(0, 47),
    )
    def test_derived_equal_validated(self, counts, a, b, z, factor, eps, s):
        t, u, n = Table3(a), Table3(b), NonnegTable3(z)
        _assert_exact(t, Table3)
        _assert_exact(n, NonnegTable3)
        fc, fa, fb, fz = ([Fraction(x) for x in xs] for xs in (counts, a, b, z))
        sigma = GROUP[s]
        vmap = sigma.vertex_map()
        moved = [None] * 8
        moved_n = [None] * 8
        for v in range(8):
            moved[vmap[v]] = fa[v]
            moved_n[vmap[v]] = fz[v]
        ab, az = [x + y for x, y in zip(fa, fb)], [x + y for x, y in zip(fa, fz)]
        scaled, smoothed = [Fraction(factor) * x for x in fa], [x + Fraction(eps) for x in fz]
        face = FACES[s % 6]
        layer_a, layer_z = reference_layer(fa, *face), reference_layer(fz, *face)
        layer_sum = [x + y for x, y in zip(layer_a, layer_z)]
        cases = [
            (Table3(counts), Table3(fc), fc),
            (t, Table3(fa), fa),
            (t + u, Table3([x + y for x, y in zip(a, b)]), ab),
            (t + n, Table3([x + y for x, y in zip(a, z)]), az),
            (apply_table(sigma, t), Table3(moved), moved),
            (apply_table(sigma, n), NonnegTable3(moved_n), moved_n),
            (t.scaled(factor), Table3([factor * x for x in a]), scaled),
            (n.smoothed(eps), Table3([x + eps for x in z]), smoothed),
            (t.layer(*face), Table2(layer_a), layer_a),
            (n.layer(*face), Table2(layer_z), layer_z),
            (t.layer(*face) + n.layer(*face), Table2(layer_sum), layer_sum),
        ]
        for derived, validated, entries in cases:
            assert derived == validated
            assert derived.entries == tuple(entries)
            _assert_exact(derived, type(validated))
            assert lowest_terms(derived) and lowest_terms(validated)
            if type(derived) is Table3:
                assert derived.total() == sum(entries)

    @pytest.mark.parametrize(
        "cls, entries, message",
        [
            (Table3, [True] + [1] * 7, "Table3: boolean is not a table entry"),
            (Table3, [1.5] + [1] * 7, "Table3: entries must be exact rationals, got float"),
            (
                Table3,
                [np.int64(1)] + [1] * 7,
                "Table3: entries must be exact rationals, got int64",
            ),
            (Table3, [0] + [1] * 7, "Table3 entries must be strictly positive"),
            (Table3, [-1] + [1] * 7, "Table3 entries must be strictly positive"),
            (Table3, [Fraction(-1, 2)] + [1] * 7, "Table3 entries must be strictly positive"),
            (Table3, [1] * 7, "Table3 needs 8 entries, got 7"),
            # every entry is converted before the count is checked
            (Table3, [1.5] * 7, "Table3: entries must be exact rationals, got float"),
            (NonnegTable3, [True] + [1] * 7, "NonnegTable3: boolean is not a table entry"),
            (
                NonnegTable3,
                [1.5] + [1] * 7,
                "NonnegTable3: entries must be exact rationals, got float",
            ),
            (
                NonnegTable3,
                [np.int64(1)] + [1] * 7,
                "NonnegTable3: entries must be exact rationals, got int64",
            ),
            (NonnegTable3, [-1] + [1] * 7, "NonnegTable3 entries must be nonnegative"),
            (
                NonnegTable3,
                [Fraction(-1, 2)] + [1] * 7,
                "NonnegTable3 entries must be nonnegative",
            ),
            (NonnegTable3, [1] * 7, "NonnegTable3 needs 8 entries, got 7"),
        ],
    )
    def test_rejections(self, cls, entries, message):
        with pytest.raises(DomainError) as info:
            cls(entries)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([1] * 7 + [True], "Table3: boolean is not a table entry"),
            ([True] * 8, "Table3: boolean is not a table entry"),
            ([1] * 7 + [np.int64(1)], "Table3: entries must be exact rationals, got int64"),
            ([1] * 7 + [1.0], "Table3: entries must be exact rationals, got float"),
            ([1] * 7 + [0], "Table3 entries must be strictly positive"),
            ([1] * 7 + [-1], "Table3 entries must be strictly positive"),
            # the count is checked before positivity
            ([-1] * 7, "Table3 needs 8 entries, got 7"),
            ([0] * 9, "Table3 needs 8 entries, got 9"),
            ([1] * 9, "Table3 needs 8 entries, got 9"),
        ],
    )
    def test_int_inputs_off_the_count_path(self, entries, message):
        # Eight positive ints take the constructor's short path; every
        # other input is checked entry by entry, in the same order as ever.
        with pytest.raises(DomainError) as info:
            Table3(entries)
        assert str(info.value) == message
        with pytest.raises(DomainError) as info:
            Table3(iter(entries))
        assert str(info.value) == message

    def test_counts_become_fractions(self):
        class Count(int):
            pass

        for entries in ([3, 1, 4, 1, 5, 9, 2, 6], [2**70] * 8, [Count(7)] * 8):
            for source in (entries, iter(entries), tuple(entries)):
                table = Table3(source)
                _assert_exact(table, Table3)
                assert table.entries == tuple(Fraction(e) for e in entries)
                assert table == Table3([Fraction(e) for e in entries])

    @pytest.mark.parametrize(
        "bad, message",
        [
            (0, "{what} must be positive"),
            (-1, "{what} must be positive"),
            (Fraction(-1, 2), "{what} must be positive"),
            (True, "{where}: boolean is not a table entry"),
            (1.5, "{where}: entries must be exact rationals, got float"),
            (np.int64(2), "{where}: entries must be exact rationals, got int64"),
        ],
    )
    def test_factor_rejections(self, bad, message):
        with pytest.raises(DomainError) as info:
            Table3([1] * 8).scaled(bad)
        assert str(info.value) == message.format(what="scale factor", where="Table3.scaled")
        with pytest.raises(DomainError) as info:
            NonnegTable3([0] * 8).smoothed(bad)
        assert str(info.value) == message.format(
            what="smoothing epsilon", where="NonnegTable3.smoothed"
        )

    def test_mixed_sums(self):
        t, n = Table3([1] * 8), NonnegTable3([0, 1] * 4)
        _assert_exact(t + n, Table3)
        assert (t + n).entries == (1, 2) * 4
        with pytest.raises(TypeError):
            n + t

    @pytest.mark.parametrize(
        "a, b, message",
        [
            (Table3([1] * 8), Table2([1] * 4), "Table3 needs 8 entries, got 4"),
            (Table2([1] * 4), Table3([1] * 8), "Table2 needs 4 entries, got 8"),
            (Table2([1] * 4), NonnegTable3([0] * 8), "Table2 needs 4 entries, got 8"),
        ],
        ids=["Table3+Table2", "Table2+Table3", "Table2+NonnegTable3"],
    )
    def test_sums_of_mismatched_kinds_raise(self, a, b, message):
        with pytest.raises(DomainError) as info:
            a + b
        assert str(info.value) == message


def outcome(decide, *args):
    """What ``decide`` returns, or the type and message of what it raises."""
    try:
        return decide(*args)
    except Simpson3Error as exc:
        return type(exc), str(exc)


def reference_ids(catalog, *tables):
    """Canonical ids of the tables from the loop reference's sign bits,
    raising on the first that induces none."""
    return tuple(_classified(catalog, *loop_sign_bits(t)).canonical_id for t in tables)


# Two ways of writing a few values, so that equal tables arise often.
pooled_values = st.sampled_from([1, 2, 3, Fraction(1, 2), Fraction(3, 2), Fraction(2, 3)])


class TestIntegerRepresentation:
    """A Table3 is 8 positive integers over one denominator in lowest terms;
    its entries, equality and classification are those of the Fractions."""

    @settings(max_examples=300, deadline=None)
    @given(a=_eight(pooled_values), b=_eight(pooled_values), k=st.integers(1, 12))
    def test_equality_and_hash_follow_the_entries(self, a, b, k):
        t, u = Table3(a), Table3(b)
        # the same values through a detour of scales and Fractions
        w = Table3(Fraction(2 * x, 2) for x in a).scaled(k).scaled(Fraction(1, k))
        for x, y in ((t, u), (t, w), (u, w)):
            assert (x == y) == (x.entries == y.entries)
            if x == y:
                assert hash(x) == hash(y)
        assert t == w and hash(t) == hash(w)
        assert t != t.scaled(2) and t.scaled(2) == t + t

    @settings(max_examples=200, deadline=None)
    @given(f=kernel_entries, g=kernel_entries, factor=st.one_of(st.just(Fraction(1)), huge_scales))
    def test_classification_equals_the_loop_reference(self, catalog, f, g, factor):
        ff = [Fraction(x) * factor for x in f]
        gg = [Fraction(x) for x in g]
        tf, tg = Table3(f).scaled(factor), Table3(g)
        assert outcome(lambda: (classify_exact(tf, catalog).canonical_id,)) == outcome(
            reference_ids, catalog, ff
        )
        sums = [x + y for x, y in zip(ff, gg)]
        expected = outcome(reference_ids, catalog, ff, gg, sums)

        def pair_ids():
            report = detect_conversion(tf, tg)
            return report.id_f, report.id_g, report.id_sum

        assert outcome(pair_ids) == expected

    def test_classifying_counts_builds_no_fraction(self, catalog, monkeypatch):
        # Every Fraction built anywhere, by a constructor call or by
        # arithmetic, goes through Fraction.__new__.
        built = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        g2 = Table2([Fraction(6, 7), 6, Fraction(1, 7), Fraction(8, 7)])
        half = Fraction(1, 2)
        monkeypatch.setattr(Fraction, "__new__", counting_new)
        f, g = Table3([3, 1, 4, 1, 5, 9, 2, 6]), Table3([27, 18, 28, 45, 90, 45, 23, 53])
        f2, zeros = Table2([5, 6, 3, 4]), NonnegTable3([0, 1, 2, 0, 3, 4, 0, 5])
        assert classify_exact(f, catalog).canonical_id == 19
        eval_form_signs(g)
        assert detect_conversion(f, g).id_sum == 40
        assert correlation_profile(f).marginal == (-1, 1, -1)
        for lemma in (2, 3):
            for v in VERTICES:
                lemma_hypothesis_check(lemma, f, g, v)
                lemma_conclusion_check(lemma, f, g, v)
        for sigma in GROUP:
            classify_exact(apply_table(sigma, f), catalog)
            apply_table(sigma, zeros)
        f + g
        # the 2x2 paths: lemma 1, reversal, diagonal, layers, sums, smoothing
        for v in range(4):
            lemma_hypothesis_check(1, f2, g2, v)
            lemma_conclusion_check(1, f2, g2, v)
        assert detect_reversal_2d(f2, g2) is Reversal2D.POS_TO_NEG
        assert classify_2d(f2) is Diagonal2D.DIAG_00_11
        for face in FACES:
            f.layer(*face)
            zeros.layer(*face)
        f2 + g2
        f + zeros
        zeros.smoothed(half)
        zeros.smoothed(2)
        f2.smoothed(half)
        assert built == []
        # the count does see Fractions: reading the entries builds them
        entries = f.entries
        assert len(built) == 8
        assert entries == tuple(Fraction(x) for x in [3, 1, 4, 1, 5, 9, 2, 6])


def fraction_det(e):
    """The determinant of a 2x2 table's Fraction entries."""
    return e[0] * e[3] - e[1] * e[2]


def reference_layer(entries, axis, value):
    """``layer`` by Fractions: the entries of the face, in order."""
    return [entries[v] for v in face_vertices(axis, value)]


def reference_profile(table):
    """The 17 dependence signs by Fraction totals and layer determinants."""
    e = table.entries
    grand = sum(e, Fraction(0))
    totals = [
        [sum((e[v] for v in face_vertices(a, val)), Fraction(0)) for val in (0, 1)]
        for a in range(3)
    ]
    mutual = []
    for v in VERTICES:
        x, y, z = vertex_bits(v)
        mutual.append(_sign(grand * grand * e[v] - totals[0][x] * totals[1][y] * totals[2][z]))
    marginal = []
    for a in range(3):
        collapsed = [x + y for x, y in zip(reference_layer(e, a, 0), reference_layer(e, a, 1))]
        marginal.append(_sign(fraction_det(collapsed)))
    conditional = [_sign(fraction_det(reference_layer(e, *face))) for face in FACES]
    return tuple(mutual), tuple(marginal), tuple(conditional)


def _four(values):
    return st.lists(values, min_size=4, max_size=4)


# Tie-heavy, wide and rational entries: ties make profile signs and 2x2
# determinants vanish.
tie_wide_rational = (
    st.integers(1, 3),
    st.integers(1, 10**6),
    st.one_of(st.integers(1, 4), st.builds(Fraction, st.integers(1, 4), st.integers(2, 4))),
    positive_rationals,
)
table2_entries = st.one_of(*map(_four, tie_wide_rational))
table3_entries = st.one_of(*map(_eight, tie_wide_rational))
profile_tables = table3_entries.map(Table3)
unit_or_huge = st.one_of(st.just(Fraction(1)), huge_scales)


class TestCorrelationProfile:
    @settings(max_examples=400, deadline=None)
    @given(table=profile_tables, factor=unit_or_huge)
    def test_matches_fraction_reference(self, table, factor):
        profile = correlation_profile(table.scaled(factor))
        assert (profile.mutual, profile.marginal, profile.conditional) == reference_profile(table)

    def test_conditional_agrees_with_forms(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            t = random_int_table3(rng)
            profile = correlation_profile(t)
            signs = eval_form_signs(t)
            for i, (axis, value) in enumerate(FACES):
                assert profile.conditional[i] == signs[FACE_FORM[(axis, value)]]

    def test_marginal_matches_collapsed_determinant(self):
        rng = np.random.default_rng(5)
        t = random_int_table3(rng)
        profile = correlation_profile(t)
        collapsed = Table2(
            t.layer(0, 0).entries[i] + t.layer(0, 1).entries[i] for i in range(4)
        )
        det = collapsed.det()
        assert profile.marginal[0] == (det > 0) - (det < 0)

    def test_mutual_independent_table_vanishes(self):
        # rank-one table: entries are products of per-axis weights
        px, py, pz = (2, 3), (5, 1), (4, 7)
        t = Table3(
            [
                px[x] * py[y] * pz[z]
                for x in (0, 1)
                for y in (0, 1)
                for z in (0, 1)
            ]
        )
        profile = correlation_profile(t)
        assert set(profile.mutual) == {0}
        assert set(profile.marginal) == {0}
        assert set(profile.conditional) == {0}

    def test_as_dict_shape(self):
        d = correlation_profile(EXAMPLE).as_dict()
        assert set(d) == {"mutual", "marginal", "conditional"}
        assert set(d["mutual"]) == {vertex_name(v) for v in range(8)}
        assert len(d["conditional"]) == 6


def reference_smoothed(entries, eps):
    """``smoothed`` by Fractions: eps added to every entry."""
    return [e + Fraction(eps) for e in entries]


def reference_reversal_2d(f, g):
    """``detect_reversal_2d`` by Fraction determinants of f, g and f + g."""
    df, dg = fraction_det(f), fraction_det(g)
    ds = fraction_det([a + b for a, b in zip(f, g)])
    if df == 0 or dg == 0 or ds == 0:
        return Reversal2D.DEGENERATE
    if _sign(df) == _sign(dg) == -_sign(ds):
        return Reversal2D.POS_TO_NEG if df > 0 else Reversal2D.NEG_TO_POS
    return Reversal2D.NO_REVERSAL


def reference_classify_2d(f):
    """``classify_2d`` by the Fraction determinant."""
    if not all(e > 0 for e in f):
        raise DomainError("classify_2d requires strictly positive entries")
    d = fraction_det(f)
    if d > 0:
        return Diagonal2D.DIAG_00_11
    return Diagonal2D.DIAG_01_10 if d < 0 else Diagonal2D.DEGENERATE


class TestTwoByTwoReferences:
    """The 2x2 paths on integers equal their Fraction versions, ties and
    huge scales included."""

    @settings(max_examples=400, deadline=None)
    @given(f=table2_entries, g=table2_entries, factor=unit_or_huge)
    def test_reversal_and_diagonal(self, f, g, factor):
        ff = [Fraction(x) * factor for x in f]
        gg = [Fraction(x) for x in g]
        tf, tg = Table2(ff), Table2(gg)
        assert lowest_terms(tf) and lowest_terms(tg)
        assert tf.det() == fraction_det(ff)
        assert detect_reversal_2d(tf, tg) is reference_reversal_2d(ff, gg)
        assert detect_reversal_2d(tg, tf) is reference_reversal_2d(gg, ff)
        assert classify_2d(tf) is reference_classify_2d(ff)
        assert (tf + tg).entries == tuple(a + b for a, b in zip(ff, gg))

    @settings(max_examples=300, deadline=None)
    @given(
        entries=table3_entries,
        zeros=_eight(st.one_of(st.just(0), *tie_wide_rational)),
        factor=unit_or_huge,
        eps=st.one_of(st.integers(1, 3), positive_rationals, huge_scales),
    )
    def test_layer_and_smoothed(self, entries, zeros, factor, eps):
        te, ze = ([Fraction(x) * factor for x in xs] for xs in (entries, zeros))
        t, n = Table3(entries).scaled(factor), NonnegTable3(ze)
        for face in FACES:
            for table, values in ((t, te), (n, ze)):
                layer = table.layer(*face)
                assert layer.entries == tuple(reference_layer(values, *face))
                assert lowest_terms(layer)
        smooth = n.smoothed(eps)
        assert smooth.entries == tuple(reference_smoothed(ze, eps))
        assert lowest_terms(smooth)
        smooth2 = n.layer(*FACES[0]).smoothed(eps)
        assert type(smooth2) is Table2
        assert smooth2.entries == tuple(reference_smoothed(reference_layer(ze, *FACES[0]), eps))
        assert lowest_terms(smooth2)


class TestReversal2D:
    def test_reversal_pos_to_neg(self):
        f = Table2([5, 6, 3, 4])
        g = Table2([6, 42, 1, 8])
        assert f.det() > 0 and g.det() > 0 and (f + g).det() < 0
        assert detect_reversal_2d(f, g) is Reversal2D.POS_TO_NEG

    def test_reversal_neg_to_pos(self):
        f = Table2([6, 5, 4, 3])
        g = Table2([42, 6, 8, 1])
        assert detect_reversal_2d(f, g) is Reversal2D.NEG_TO_POS

    def test_no_reversal(self):
        f = Table2([2, 1, 1, 2])
        assert detect_reversal_2d(f, f) is Reversal2D.NO_REVERSAL

    def test_degenerate(self):
        f = Table2([1, 1, 1, 1])
        g = Table2([2, 1, 1, 2])
        assert detect_reversal_2d(f, g) is Reversal2D.DEGENERATE

    def test_classify_2d(self):
        assert classify_2d(Table2([2, 1, 1, 2])) is Diagonal2D.DIAG_00_11
        assert classify_2d(Table2([1, 2, 2, 1])) is Diagonal2D.DIAG_01_10
        assert classify_2d(Table2([1, 1, 1, 1])) is Diagonal2D.DEGENERATE
        with pytest.raises(DomainError):
            classify_2d(Table2([0, 1, 1, 1]))

    @pytest.mark.parametrize(
        "other", [Table3([1, 2, 3, 4, 5, 6, 7, 8]), NonnegTable3([0, 1, 2, 3, 4, 5, 6, 7])]
    )
    def test_not_a_table2(self, other):
        f = Table2([2, 1, 1, 2])
        with pytest.raises(DomainError, match="expected a Table2"):
            classify_2d(other)
        for args in ((other, other), (f, other), (other, f)):
            with pytest.raises(DomainError, match="expected a Table2"):
                detect_reversal_2d(*args)


# Mixed denominators, with zeros where the kind allows them.
round_trip_values = st.one_of(st.integers(1, 10**6), positive_rationals)
nonneg_round_trip_values = st.one_of(st.just(0), round_trip_values)


class TestJson:
    @pytest.mark.parametrize(
        ("kind", "values"),
        [
            (Table3, round_trip_values),
            (NonnegTable3, nonneg_round_trip_values),
            (Table2, nonneg_round_trip_values),
        ],
        ids=["Table3", "NonnegTable3", "Table2"],
    )
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), factor=unit_or_huge)
    def test_round_trip_property(self, kind, values, data, factor):
        size = 4 if kind is Table2 else 8
        entries = data.draw(st.lists(values, min_size=size, max_size=size))
        table = kind([Fraction(e) * factor for e in entries])
        back = table_from_json_obj(table_to_json_obj(table), allow_zero=kind is NonnegTable3)
        assert type(back) is kind
        assert back == table

    def test_parse_rational(self):
        assert parse_rational("1/4") == Fraction(1, 4)
        assert parse_rational("3") == 3
        assert parse_rational(3) == 3
        with pytest.raises(DomainError):
            parse_rational("0.5.2")
        with pytest.raises(DomainError):
            parse_rational(0.5)
        with pytest.raises(DomainError):
            parse_rational(True)

    def test_round_trip(self):
        obj = table_to_json_obj(EXAMPLE)
        back = table_from_json_obj(obj)
        assert isinstance(back, Table3)
        assert back.entries == EXAMPLE.entries

    def test_allow_zero(self):
        obj = {"entries": ["0", "1", "2", "3", "4", "5", "6", "7"]}
        with pytest.raises(DomainError):
            table_from_json_obj(obj)
        table = table_from_json_obj(obj, allow_zero=True)
        assert isinstance(table, NonnegTable3)

    def test_2d_table(self):
        table = table_from_json_obj({"entries": ["1", "2", "3", "4"]})
        assert isinstance(table, Table2)

    def test_bad_shapes(self):
        with pytest.raises(DomainError):
            table_from_json_obj({"entries": ["1"] * 5})
        with pytest.raises(DomainError):
            table_from_json_obj(["1"] * 8)
        with pytest.raises(DomainError):
            table_from_json_obj({"entries": "11111111"})

    def test_load_table(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(table_to_json_obj(EXAMPLE)))
        assert load_table(path).entries == EXAMPLE.entries
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        with pytest.raises(DomainError):
            load_table(bad)


def test_form_letters_complete():
    assert FORM_LETTERS == "abcdefghijklmnopqrst"
    assert len(FORM_COEFFS) == 20
    assert len(set(FORM_COEFFS)) == 20
