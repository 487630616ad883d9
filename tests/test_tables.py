import json
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
    Table2,
    Table3,
    apply_table,
    classify_2d,
    correlation_profile,
    detect_reversal_2d,
    eval_form_signs,
    load_table,
    sign_of_form,
    table_from_json_obj,
    table_to_json_obj,
)
from simpson3.tables import (
    FACE_FORM,
    FACES,
    FORM_COEFFS,
    FORM_INDEX,
    FORM_LETTERS,
    antipode,
    face_diagonal_pair,
    face_vertices,
    parse_rational,
    vertex_bits,
    vertex_name,
    vertex_of_bits,
)

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
            for coeffs in FORM_COEFFS:
                exact = sign_of_form(coeffs, t.entries)
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

    def test_sign_of_form_needs_a_catalogued_form(self):
        with pytest.raises(DomainError):
            sign_of_form((1, -1, 0, 0, 0, 0, 0, 0), EXAMPLE.entries)


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
    @given(table=positive_tables, index=st.integers(0, 19))
    def test_matches_fraction_reference(self, table, index):
        expected = reference_signs(table.entries)
        assert eval_form_signs(table).signs == expected
        assert sign_of_form(FORM_COEFFS[index], table.entries) == expected[index]

    @settings(max_examples=200, deadline=None)
    @given(table=positive_tables, factor=positive_rationals)
    def test_scale_invariance(self, table, factor):
        assert eval_form_signs(table.scaled(factor)) == eval_form_signs(table)


class TestTables:
    def test_positivity_enforced(self):
        with pytest.raises(DomainError):
            Table3([1, 2, 3, 0, 5, 6, 7, 8])
        with pytest.raises(DomainError):
            Table3([1] * 7)

    def test_float_entries_rejected(self):
        with pytest.raises(DomainError):
            Table3([1.5] + [1] * 7)

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


class TestDerivedTables:
    """Tables derived from validated ones skip validation; each must equal
    the validating constructor on the same entries."""

    @settings(max_examples=300, deadline=None)
    @given(
        a=_eight(exact_entries),
        b=_eight(exact_entries),
        z=_eight(nonneg_entries),
        factor=st.one_of(st.integers(1, 10**6), positive_rationals),
        eps=st.one_of(st.integers(1, 3), positive_rationals),
        s=st.integers(0, 47),
    )
    def test_derived_equal_validated(self, a, b, z, factor, eps, s):
        t, u, n = Table3(a), Table3(b), NonnegTable3(z)
        _assert_exact(t, Table3)
        _assert_exact(n, NonnegTable3)
        sigma = GROUP[s]
        vmap = sigma.vertex_map()
        moved = [None] * 8
        moved_n = [None] * 8
        for v in range(8):
            moved[vmap[v]] = t.entries[v]
            moved_n[vmap[v]] = n.entries[v]
        cases = [
            (t + u, Table3([x + y for x, y in zip(a, b)])),
            (t + n, Table3([x + y for x, y in zip(a, z)])),
            (apply_table(sigma, t), Table3(moved)),
            (apply_table(sigma, n), NonnegTable3(moved_n)),
            (t.scaled(factor), Table3([factor * x for x in a])),
            (n.smoothed(eps), Table3([x + eps for x in z])),
        ]
        for derived, validated in cases:
            assert derived == validated
            _assert_exact(derived, type(validated))

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
        with pytest.raises(DomainError, match="Table3 needs 8 entries, got 4"):
            t + Table2([1] * 4)


class TestCorrelationProfile:
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


class TestJson:
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
