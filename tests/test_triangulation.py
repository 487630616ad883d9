import dataclasses
import itertools
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpson3 import (
    CatalogError,
    DegenerateTable,
    DomainError,
    NonnegTable3,
    Table2,
    Table3,
    catalog_from_json_obj,
    classify_exact,
    classify_float_oracle,
    classify_heights_batch,
    detect_conversion,
    get_catalog,
)
from simpson3.tables import (
    FACES,
    FORM_COEFFS,
    FORM_INDEX,
    VERTICES,
    _int_sign_bits,
    face_vertices,
    vertex_bits,
)
from simpson3 import symmetry, triangulation
from simpson3.triangulation import (
    _BLOCK,
    _CIRCUITS,
    _FORM_OF_SPAN,
    DEFAULT_TOLERANCE,
    FORM_MATRIX,
    FORM_NORMS,
    VERTEX_COORDS,
    _MARGIN,
    _POW2F,
    _SCREEN,
    Catalog,
    Tetrahedron,
    Triangulation,
    _build_catalog,
    _classified,
    _cover_key,
    _enumerate_encodings,
    _face_candidates,
    _id_action,
    _lifting_residuals,
    _properly_intersecting,
    _screen_block,
    _tetrahedra,
    classify_entries_batch,
    catalog_to_json_obj,
    derive_constraints,
    tetrahedron_volume_sixths,
)

EXAMPLE = Table3([Fraction(1, 4), 1, 1, 2, 4, 1, 2, 8])


class TestTetrahedron:
    def test_volume(self):
        assert tetrahedron_volume_sixths((0, 1, 2, 4)) == 1
        assert tetrahedron_volume_sixths((0, 3, 5, 6)) == 2

    def test_validation(self):
        with pytest.raises(DomainError):
            Tetrahedron((0, 1, 2))
        with pytest.raises(DomainError):
            Tetrahedron((0, 1, 2, 2))
        with pytest.raises(DomainError):
            Tetrahedron((0, 1, 2, 3))  # coplanar facet
        with pytest.raises(DomainError):
            Tetrahedron((0, 1, 2, 8))

    def test_sorted_and_hyperdiagonal(self):
        t = Tetrahedron((4, 0, 2, 1))
        assert t.vertices == (0, 1, 2, 4)
        assert not t.has_hyperdiagonal()
        assert Tetrahedron((0, 1, 3, 7)).has_hyperdiagonal()


class TestCatalog:
    def test_counts(self, catalog):
        assert len(catalog.entries) == 74
        assert sum(1 for e in catalog.entries if len(e.tetrahedra) == 5) == 2
        assert len(catalog.orbit_representatives()) == 6

    def test_canonical_ids_ordered(self, catalog):
        assert [e.canonical_id for e in catalog.entries] == list(range(1, 75))
        encodings = [e.encoding() for e in catalog.entries]
        assert encodings == sorted(encodings)

    def test_volumes_fill_cube(self, catalog):
        for e in catalog.entries:
            assert sum(t.volume_sixths for t in e.tetrahedra) == 6

    def test_type_classes(self, catalog):
        labels = [catalog[rep].type_class for rep in catalog.orbit_representatives()]
        assert sorted(labels) == ["I", "II", "III", "IV", "V", "VI"]
        by_label = {label: catalog.type_representative(label) for label in labels}
        assert len(by_label["I"].tetrahedra) == 5
        assert len(by_label["IV"].full_vertices) == 0
        assert len(by_label["II"].full_vertices) == 4

    def test_orbit_sizes(self, catalog):
        sizes = sorted(
            len(catalog.orbit_members(rep)) for rep in catalog.orbit_representatives()
        )
        assert sizes == [2, 4, 8, 12, 24, 24]
        assert sum(sizes) == 74

    def test_five_tet_orbit_is_smallest(self, catalog):
        five = [e.canonical_id for e in catalog.entries if len(e.tetrahedra) == 5]
        assert len(five) == 2
        assert catalog.orbit_members(five[0]) == tuple(five)

    def test_getitem_bounds(self, catalog):
        with pytest.raises(DomainError):
            catalog[0]
        with pytest.raises(DomainError):
            catalog[75]

    def test_enumeration_matches_cached(self, catalog):
        fresh = _build_catalog()
        assert [e.encoding() for e in fresh.entries] == [
            e.encoding() for e in catalog.entries
        ]


class TestWorkedExample:
    def test_classification(self, catalog):
        tri = classify_exact(EXAMPLE, catalog)
        assert tri.constraints == frozenset(
            [("b", 1), ("d", 1), ("e", -1), ("t", -1)]
        )
        expected = {
            frozenset({0, 1, 2, 4}),
            frozenset({1, 2, 3, 4}),
            frozenset({1, 3, 4, 7}),
            frozenset({1, 4, 5, 7}),
            frozenset({2, 3, 4, 7}),
            frozenset({2, 4, 6, 7}),
        }
        assert frozenset(frozenset(t.vertices) for t in tri.tetrahedra) == frozenset(expected)

    def test_features(self, catalog):
        tri = classify_exact(EXAMPLE, catalog)
        assert tri.full_vertices == (1, 2, 4, 7)
        assert tri.empty_vertices == (0, 3, 5, 6)
        assert tri.type_class == "II"
        # three of the tetrahedra share the interior diagonal between the
        # antipodal pair 3 and 4
        assert tri.has_hyperdiagonal

    def test_scale_invariance(self, catalog):
        doubled = EXAMPLE.scaled(2)
        assert classify_exact(doubled, catalog) is classify_exact(EXAMPLE, catalog)


class TestConstraints:
    def test_all_entries_have_constraints(self, catalog):
        for e in catalog.entries:
            assert e.constraints
            assert derive_constraints(e.tetrahedra) == e.constraints
            for letter, sign in e.constraints:
                assert letter in "abcdefghijklmnopqrst"
                assert sign in (-1, 1)

    def test_constraint_sets_distinct(self, catalog):
        seen = {e.constraints for e in catalog.entries}
        assert len(seen) == 74

    def test_face_diagonal_consistency(self, catalog):
        # every facet carries exactly one diagonal from each entry's features
        for e in catalog.entries:
            for (a, b) in e.face_diagonals:
                assert a < b
                assert (a ^ b).bit_count() == 2


def affinely_dependent(vertices) -> bool:
    """Whether the cube vertices are affinely dependent: exact Gaussian
    elimination of their rows (1, x, y, z) over the rationals."""
    rows = [[Fraction(c) for c in (1, *vertex_bits(v))] for v in vertices]
    rank = 0
    for col in range(4):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank < len(rows)


def reference_id_action(encodings):
    """The id action computed directly, the reference for ``_id_action``:
    every tetrahedron of every (symmetry, id) image is relabeled and
    re-sorted, and the image encoding is looked up."""
    rank = {enc: i + 1 for i, enc in enumerate(encodings)}
    action = np.zeros((len(symmetry.GROUP), len(encodings)), dtype=np.int64)
    for s, vmap in enumerate(symmetry.VERTEX_MAPS):
        for i, enc in enumerate(encodings):
            image = tuple(sorted(tuple(sorted(vmap[v] for v in t)) for t in enc))
            action[s, i] = rank.get(image, 0)
    if not (np.sort(action, axis=1) == np.arange(1, len(encodings) + 1)).all():
        raise CatalogError("symmetry action is not a bijection on ids")
    return action


def reference_intersect_properly(tet_a, tet_b) -> bool:
    """Whether no circuit has one part in each tetrahedron, pair by pair."""
    a, b = set(tet_a), set(tet_b)
    return not any(pos <= a and neg <= b or neg <= a and pos <= b for pos, neg in _CIRCUITS)


def action_of(encodings):
    """``_id_action`` on the covers of the given encodings."""
    return _id_action([_cover_key(enc) for enc in encodings])


def _orbit_encodings(catalog, orbits):
    reps = catalog.orbit_representatives()
    return [e.encoding() for e in catalog.entries if reps.index(e.orbit_rep) in orbits]


class TestIdAction:
    def test_full_catalog(self, catalog):
        encodings = [e.encoding() for e in catalog.entries]
        expected = reference_id_action(encodings)
        assert np.array_equal(action_of(encodings), expected)
        assert np.array_equal(catalog.id_action(), expected)
        assert catalog.id_action().dtype == expected.dtype

    def test_index_action_is_built_once(self, catalog):
        action = catalog.index_action()
        assert np.array_equal(action, catalog.id_action() - 1)
        assert action.dtype == np.int32 and not action.flags.writeable
        assert catalog.index_action() is action

    @pytest.mark.parametrize("orbit", range(6))
    def test_each_orbit(self, catalog, orbit):
        encodings = _orbit_encodings(catalog, {orbit})
        assert np.array_equal(action_of(encodings), reference_id_action(encodings))

    @settings(max_examples=40, deadline=None)
    @given(orbits=st.sets(st.integers(0, 5), min_size=1))
    def test_unions_of_orbits(self, catalog, orbits):
        encodings = _orbit_encodings(catalog, orbits)
        assert np.array_equal(action_of(encodings), reference_id_action(encodings))


class TestCircuits:
    def test_array_intersection_test_equals_the_reference(self):
        tets = [t.vertices for t in _tetrahedra()]
        assert len(tets) == 58
        found = _properly_intersecting(np.array(tets))
        pairs = list(itertools.combinations(range(len(tets)), 2))
        assert len(pairs) == 1653
        for i, j in pairs:
            assert found[i, j] == found[j, i] == reference_intersect_properly(tets[i], tets[j])

    def test_enumeration_in_canonical_order(self, catalog):
        encodings = _enumerate_encodings()
        assert len(encodings) == 74
        assert encodings == sorted(set(encodings))
        assert encodings == [e.encoding() for e in catalog.entries]

    def test_entries_share_the_58_tetrahedra(self, catalog):
        shared = {id(t) for t in _tetrahedra()}
        assert all(id(t) in shared for e in catalog.entries for t in e.tetrahedra)

    def test_form_supports_are_the_circuits(self):
        circuits = {
            frozenset(subset)
            for k in range(1, len(VERTICES) + 1)
            for subset in itertools.combinations(VERTICES, k)
            if affinely_dependent(subset)
            and not any(affinely_dependent(rest) for rest in itertools.combinations(subset, k - 1))
        }
        supports = {frozenset(v for v in VERTICES if c[v]) for c in FORM_COEFFS}
        assert len(supports) == 20
        assert circuits == supports

    def test_forms_are_affine_dependences(self):
        for c in FORM_COEFFS:
            assert sum(c) == 0
            for axis in range(3):
                assert sum(c[v] * vertex_bits(v)[axis] for v in VERTICES) == 0


class TestClassification:
    def test_degenerate_all_ones(self, catalog):
        with pytest.raises(DegenerateTable, match="all forms vanish"):
            classify_exact(Table3([1] * 8), catalog)

    def test_degenerate_partial_tie(self, catalog):
        # product-form table: has vanishing forms but not all
        t = Table3([1, 1, 1, 1, 1, 1, 1, 2])
        with pytest.raises(DegenerateTable):
            classify_exact(t, catalog)

    # Logs of counts 1..999, and of counts 1..5 in a call above one block:
    # the float64 margin rule takes every row, and resolves most of the
    # tie-heavy ones with a vanishing form.  A float warning fails.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "seed, high, size", [(10, 1000, 400), (0, 6, 1 << 16)], ids=["counts", "ties"]
    )
    def test_batch_agrees_with_exact(self, catalog, seed, high, size):
        entries = np.random.default_rng(seed).integers(1, high, (size, 8))
        ids = classify_heights_batch(np.log(entries.astype(float)), catalog)

        def exact(row):
            try:
                return classify_exact(Table3(row), catalog).canonical_id
            except DegenerateTable:
                return 0

        assert ids.tolist() == [exact(row) for row in entries.tolist()]

    def test_batch_rejects_nonfinite(self, catalog):
        h = np.zeros((2, 8))
        h[0, 0] = np.inf
        h[1] = np.log([1, 2, 3, 4, 5, 6, 7, 9])
        ids = classify_heights_batch(h, catalog)
        assert ids[0] == 0
        assert ids[1] != 0

    # Rows x 10^300, tiny rows, ties and non-finite rows: one margin rule at
    # every call size, and a float warning fails.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_batch_margin_rule_on_edge_rows(self):
        rng = np.random.default_rng(0)
        kind = rng.integers(0, 5, 4097)
        h = np.log(rng.standard_exponential((4097, 8)))
        h[kind == 1] *= 1e300
        h[kind == 2] *= 1e-300
        h[kind == 3] = np.log(rng.integers(1, 6, (np.count_nonzero(kind == 3), 8)).astype(float))
        bad = np.flatnonzero(kind == 4)
        h[bad, rng.integers(0, 8, bad.size)] = rng.choice([np.inf, -np.inf, np.nan], bad.size)
        ids = classify_heights_batch(h)
        assert ids.tolist() == [int(classify_heights_batch(row[None])[0]) for row in h]
        assert (ids[kind == 0] != 0).all()
        assert (ids[kind == 2] == 0).all() and (ids[kind == 4] == 0).all()

    # Finite rows whose forms could overflow: a row with max|h| >= 2^1020
    # gets 0 from the heights path, without a float warning, and the oracle
    # refuses it; just below the bound a row keeps its id.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_heights_from_2_to_the_1020(self, catalog):
        h = np.random.default_rng(3).uniform(-1, 1, (2000, 8)) * 1e308
        assert not classify_heights_batch(h, catalog).any()
        for row in h[:300]:
            with pytest.raises(DomainError, match=r"\|h\| < 2\^1020"):
                classify_float_oracle(row, catalog)
        row = np.log([1, 2, 3, 4, 5, 6, 7, 9]) / np.log(9)    # max|h| = 1
        scaled = row * np.array([[np.nextafter(2.0**1020, 0)], [2.0**1020]])
        ids = classify_heights_batch(np.vstack([row, scaled]), catalog)
        assert ids[0] != 0 and ids.tolist() == [ids[0], ids[0], 0]

    def test_oracle_agrees_with_exact(self, catalog):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 50:
            row = rng.integers(1, 1000, 8)
            table = Table3([int(x) for x in row])
            h = np.log(row.astype(float))
            try:
                oracle = classify_float_oracle(h, catalog)
            except DegenerateTable:
                continue
            assert classify_exact(table, catalog) is oracle
            checked += 1

    def test_oracle_degenerate(self, catalog):
        with pytest.raises(DegenerateTable):
            classify_float_oracle(np.zeros(8), catalog)

    def test_oracle_input_validation(self, catalog):
        with pytest.raises(DomainError):
            classify_float_oracle(np.zeros(7), catalog)
        with pytest.raises(DomainError):
            classify_float_oracle(np.array([np.nan] * 8), catalog)


def reference_hull_oracle(heights, catalog=None):
    """``classify_float_oracle`` by a 4-dimensional convex hull: the upper
    facets of the lifted vertices, read off qhull's facet normals."""
    from scipy.spatial import ConvexHull

    if catalog is None:
        catalog = get_catalog()
    h = np.asarray(heights, dtype=np.float64)
    if h.shape != (8,):
        raise DomainError("oracle needs exactly 8 heights")
    if not np.isfinite(h).all():
        raise DomainError("heights must be finite")
    values = FORM_MATRIX @ h
    margin = DEFAULT_TOLERANCE * FORM_NORMS * max(1.0, float(np.abs(h).max()))
    if (np.abs(values) < margin).any():
        raise DegenerateTable("a form evaluation is within tolerance of zero")
    points = np.column_stack([np.array(VERTEX_COORDS, dtype=np.float64), h])
    hull = ConvexHull(points)
    upper = hull.equations[:, 3] > 1e-10
    tets = {tuple(sorted(simplex)) for simplex in hull.simplices[upper]}
    try:
        return catalog.entry_by_tets(tets)
    except DomainError:
        raise CatalogError(f"upper facets {sorted(tets)} are not a catalog entry") from None


def _oracle_id(classify, heights, catalog):
    """The id an oracle returns, or 0 when it raises DegenerateTable."""
    try:
        return classify(heights, catalog).canonical_id
    except DegenerateTable:
        return 0


def oracle_rows(seed, size):
    """Rows of log Exp(1) draws and of the logs of integers in 1..5, 1..30
    and 1..10^6, in equal shares."""
    rng = np.random.default_rng(seed)
    kind = rng.integers(0, 4, size)[:, None]
    h = np.log(rng.standard_exponential((size, 8)))
    for k, top in ((1, 5), (2, 30), (3, 10**6)):
        h = np.where(kind == k, np.log(rng.integers(1, top + 1, (size, 8)).astype(float)), h)
    return h


_integer_tables = st.one_of(
    st.lists(st.integers(1, 5), min_size=8, max_size=8),
    st.lists(st.integers(1, 10**6), min_size=8, max_size=8),
)


def _heights(table):
    return np.log(np.array(table.integers, dtype=np.float64) / table.denominator)


class TestHullOracle:
    def test_residuals_are_exact_halves(self):
        residuals, inside = _lifting_residuals()
        assert residuals.shape == (58 * 8, 8) and inside.shape == (58, 8)
        assert (inside.sum(axis=1) == 4).all()
        assert np.array_equal(2 * residuals, np.rint(2 * residuals))
        rows = residuals.reshape(58, 8, 8)
        assert not rows[inside].any()
        # every row is a circuit: zero on affine functions of the vertices
        affine = np.column_stack([np.array(VERTEX_COORDS), np.ones(8)])
        assert not (residuals @ affine).any()
        # the coefficient of the outside vertex itself is 1
        assert (rows[:, np.arange(8), np.arange(8)][~inside] == 1).all()

    def test_agrees_with_qhull_reference(self, catalog):
        """Same entry, or DegenerateTable on exactly the same rows, on 24 000
        rows.  qhull reads heights near 10^300 as a flat point set and
        fails, so those rows are compared with the reference on the row
        scaled to unit max-norm: a positive scaling keeps the upper envelope
        and, above max-norm 1, the margin relative to the heights."""
        base = oracle_rows(17, 20_000)
        for h in base:
            assert _oracle_id(classify_float_oracle, h, catalog) == _oracle_id(
                reference_hull_oracle, h, catalog
            )
        from scipy.spatial import QhullError

        decided = next(h for h in base if _oracle_id(classify_float_oracle, h, catalog))
        with pytest.raises(QhullError):
            reference_hull_oracle(decided * 1e300, catalog)
        for h in base[:2000]:
            h_up = h * 1e300
            unit = h / (np.abs(h).max() or 1.0)
            assert _oracle_id(classify_float_oracle, h_up, catalog) == _oracle_id(
                reference_hull_oracle, unit, catalog
            )
        for h in base[2000:4000] * 1e-300:
            assert _oracle_id(classify_float_oracle, h, catalog) == _oracle_id(
                reference_hull_oracle, h, catalog
            )

    @settings(max_examples=150, deadline=None)
    @given(entries=_integer_tables)
    def test_agrees_with_exact_and_is_equivariant(self, catalog, entries):
        table = Table3(entries)
        try:
            expected = classify_exact(table, catalog)
        except DegenerateTable:
            expected = None
        try:
            found = classify_float_oracle(_heights(table), catalog)
        except DegenerateTable:
            found = None
        if expected is None:
            assert found is None
        elif found is not None:
            assert found is expected
        for sigma in symmetry.GROUP:
            moved = _heights(symmetry.apply_table(sigma, table))
            if found is None:
                with pytest.raises(DegenerateTable):
                    classify_float_oracle(moved, catalog)
            else:
                assert classify_float_oracle(moved, catalog) is symmetry.apply(sigma, found)

    def test_bad_cells_raise_catalog_error(self, catalog, monkeypatch):
        residuals, inside = _lifting_residuals()
        monkeypatch.setattr(
            "simpson3.triangulation._lifting_residuals", lambda: (-np.abs(residuals), inside)
        )
        with pytest.raises(CatalogError, match="not a catalog entry"):
            classify_float_oracle(np.log([1, 2, 3, 4, 5, 6, 7, 9]), catalog)


_REFUSE_SCIPY = """
import importlib.abc
import json
import sys

class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is refused")
        return None

sys.meta_path.insert(0, RefuseScipy())

import numpy as np
import simpson3
from simpson3 import Table3, classify_exact, classify_float_oracle, get_catalog
from simpson3.cli import main

assert len(get_catalog()) == 74
entries = [3, 1, 4, 1, 5, 9, 2, 6]
exact = classify_exact(Table3(entries))
assert classify_float_oracle(np.log(entries)) is exact
with open(sys.argv[1], "w") as fh:
    json.dump({"entries": entries}, fh)
assert main(["classify", sys.argv[1], "--format", "text"]) == 0
assert "scipy" not in sys.modules
"""


def test_runtime_needs_no_scipy(tmp_path):
    """The package, the catalog, both classifiers and the CLI run in a
    process where every scipy import fails."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", _REFUSE_SCIPY, str(tmp_path / "table.json")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "triangulation 19 (type V, 6 tetrahedra)"


STORED_KEYS = [
    "canonicalId",
    "tetrahedra",
    "constraints",
    "faceDiagonals",
    "vertexIncidence",
    "fullVertices",
    "emptyVertices",
    "hasHyperdiagonal",
    "antiAlignedAxes",
    "typeClass",
    "orbitRep",
    "orbitMembers",
]


def _outcome(classify):
    """What a classification returns, or the type and message it raises."""
    try:
        return classify()
    except (DegenerateTable, CatalogError) as exc:
        return type(exc), str(exc)


_summand = st.one_of(
    st.lists(st.integers(1, 10**6), min_size=8, max_size=8),
    st.lists(st.integers(1, 5), min_size=8, max_size=8),
    st.lists(
        st.one_of(st.integers(1, 9), st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))),
        min_size=8,
        max_size=8,
    ),
)


@st.composite
def _table_pairs(draw):
    """F and G, drawn apart or so that F + G = 101 T for a tied table T
    (entries 1..5), whose forms partly or wholly vanish."""
    if draw(st.booleans()):
        return Table3(draw(_summand)), Table3(draw(_summand))
    f = draw(st.lists(st.integers(1, 100), min_size=8, max_size=8))
    tied = draw(st.lists(st.integers(1, 5), min_size=8, max_size=8))
    return Table3(f), Table3([101 * t - x for t, x in zip(tied, f)])


class TestPairPath:
    @settings(max_examples=400, deadline=None)
    @given(pair=_table_pairs())
    def test_equals_classify_exact_on_f_g_and_the_sum(self, catalog, pair):
        f, g = pair
        expected = []
        for table in (f, g, f + g):
            found = _outcome(lambda: classify_exact(table, catalog))
            if not isinstance(found, Triangulation):
                expected = found
                break
            expected.append(found)
        else:
            expected = tuple(t.canonical_id for t in expected)
        report = _outcome(lambda: detect_conversion(f, g))
        if isinstance(report, tuple):
            assert report == expected
        else:
            assert (report.id_f, report.id_g, report.id_sum) == expected

    @pytest.mark.parametrize(
        "f, g, message",
        [
            ([1] * 8, [1, 2, 3, 4, 5, 6, 7, 9], "all forms vanish"),
            ([1, 2, 3, 4, 5, 6, 7, 9], [1, 1, 1, 1, 1, 1, 1, 2], "a relevant form vanishes"),
            ([3, 1, 4, 1, 5, 9, 2, 6], [98, 100, 97, 100, 96, 92, 99, 95], "all forms vanish"),
        ],
        ids=["f", "g", "sum"],
    )
    def test_degenerate_part_raises_as_classify_exact(self, catalog, f, g, message):
        with pytest.raises(DegenerateTable, match=message):
            detect_conversion(Table3(f), Table3(g))


_tier_entries = st.one_of(
    st.lists(st.integers(1, 3), min_size=8, max_size=8),
    st.lists(st.integers(1, 5), min_size=8, max_size=8),
    st.lists(st.integers(1, 10**6), min_size=8, max_size=8),
    st.lists(st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)), min_size=8, max_size=8),
)
# Count tables and mixed-denominator rationals, as drawn or times 10^30.
_tier_tables = st.builds(
    lambda entries, factor: Table3(entries).scaled(factor),
    _tier_entries,
    st.sampled_from([1, 10**30]),
)


# The forms supported on a facet, found from the coefficients alone.
_FACET_FORMS = frozenset(
    i
    for i, c in enumerate(FORM_COEFFS)
    if frozenset(v for v in VERTICES if c[v]) in {frozenset(face_vertices(*f)) for f in FACES}
)


def _reference_face_code(entry):
    """Bit i is set for each facet form i that is positive on the entry's
    diagonal of its facet."""
    return sum(
        1 << i
        for i in _FACET_FORMS
        if tuple(v for v in VERTICES if FORM_COEFFS[i][v] > 0) in entry.face_diagonals
    )


class TestFaceFirstTier:
    @settings(max_examples=300, deadline=None)
    @given(table=_tier_tables)
    def test_equals_the_full_kernel_on_every_image(self, catalog, table):
        for sigma in symmetry.GROUP:
            image = symmetry.apply_table(sigma, table)
            n = image.integers
            expected = _outcome(lambda: _classified(catalog, *_int_sign_bits(*n)))
            assert _outcome(lambda: classify_exact(image, catalog)) == expected
            # the tier itself: 0 or the kernel's id, and the id when no form vanishes
            tier = catalog.face_ids(*n)
            pos, neg = _int_sign_bits(*n)
            if tier or pos | neg == ALL_FORMS:
                assert tier == expected.canonical_id

    def test_equals_the_full_kernel_on_seeded_counts(self, catalog):
        # 10^4 count tables, half tie-heavy (1..3) and half wide (1..10^6),
        # each under all 48 symmetries.  The full kernel's outcome is found
        # once per distinct image: the tie-heavy half has at most 3^8.
        rng = np.random.default_rng(0)
        counts = np.concatenate(
            [rng.integers(1, 4, (5000, 8)), rng.integers(1, 10**6 + 1, (5000, 8))]
        )

        def outcome(decide):
            try:
                return decide().canonical_id
            except DegenerateTable as exc:
                return str(exc)

        full = {}
        checked = 0
        for row in counts.tolist():
            table = Table3(row)
            for sigma in symmetry.GROUP:
                image = symmetry.apply_table(sigma, table)
                n = image.integers
                if n not in full:
                    full[n] = outcome(lambda: _classified(catalog, *_int_sign_bits(*n)))
                assert outcome(lambda: classify_exact(image, catalog)) == full[n], n
                checked += 1
        assert checked == 480000

    @settings(max_examples=150, deadline=None)
    @given(f=_tier_tables, g=_tier_tables)
    def test_pairs_equal_three_kernel_calls(self, catalog, f, g):
        for sigma in symmetry.GROUP:
            fi, gi = symmetry.apply_table(sigma, f), symmetry.apply_table(sigma, g)
            bits = [_int_sign_bits(*t.integers) for t in (fi, gi, fi + gi)]
            expected = _outcome(lambda: tuple(_classified(catalog, *b).canonical_id for b in bits))
            report = _outcome(lambda: detect_conversion(fi, gi))
            if not isinstance(report, tuple):
                report = (report.id_f, report.id_g, report.id_sum)
            assert report == expected

    def test_decides_every_id_itself(self, catalog):
        rng = np.random.default_rng(0)
        seen = set()
        for row in rng.integers(1, 10**6 + 1, (100, 8)).tolist():
            for sigma in symmetry.GROUP:
                n = symmetry.apply_table(sigma, Table3(row)).integers
                expected = _classified(catalog, *_int_sign_bits(*n)).canonical_id
                assert catalog.face_ids(*n) == expected
                seen.add(expected)
        assert seen == set(range(1, len(catalog) + 1))

    def test_every_id_is_under_one_face_code(self, catalog):
        candidates = _face_candidates(catalog.entries)
        assert len(candidates) == 64
        placed = sorted(cid for group in candidates for cid, _ in group)
        assert placed == list(range(1, len(catalog) + 1))
        for code, group in enumerate(candidates):
            expected = [
                (
                    e.canonical_id,
                    tuple(sorted(
                        (FORM_INDEX[letter], sign)
                        for letter, sign in e.constraints
                        if FORM_INDEX[letter] not in _FACET_FORMS
                    )),
                )
                for e in catalog
                if _reference_face_code(e) == code
            ]
            assert list(group) == expected
        sizes = sorted(len(group) for group in candidates if group)
        assert (len(sizes), sizes.count(1), sizes.count(2), sizes.count(3), sizes.count(5)) == (
            46, 28, 12, 4, 2
        )

    def test_face_constraint_against_the_diagonals_raises(self, catalog):
        entry = catalog[19]
        letter, sign = min(c for c in entry.constraints if FORM_INDEX[c[0]] in _FACET_FORMS)
        flipped = entry.constraints - {(letter, sign)} | {(letter, -sign)}
        entries = [dataclasses.replace(entry, constraints=flipped)]
        with pytest.raises(CatalogError, match="entry 19: a constraint on a-f disagrees"):
            _face_candidates(entries)

    def test_built_on_the_first_exact_call(self):
        fresh = _build_catalog()
        assert "face_ids" not in vars(fresh)
        assert classify_exact(EXAMPLE, fresh) is fresh[classify_exact(EXAMPLE).canonical_id]
        assert "face_ids" in vars(fresh)

    @pytest.mark.parametrize(
        "bad, name",
        [
            (NonnegTable3([0, 1, 1, 1, 1, 1, 1, 5]), "NonnegTable3"),
            (Table2([1, 2, 3, 4]), "Table2"),
            ("table", "str"),
        ],
        ids=["zero-count", "2x2", "string"],
    )
    def test_refuses_what_is_not_a_table3(self, catalog, bad, name):
        message = f"expected a Table3, got {name}"
        with pytest.raises(DomainError) as info:
            classify_exact(bad, catalog)
        assert str(info.value) == message
        for f, g in ((bad, EXAMPLE), (EXAMPLE, bad), (bad, bad)):
            with pytest.raises(DomainError) as info:
                detect_conversion(f, g)
            assert str(info.value) == message


class TestSerialization:
    def test_round_trip_verified(self, catalog):
        obj = catalog_to_json_obj(catalog)
        assert len(obj["entries"]) == 74
        back = catalog_from_json_obj(obj)
        assert [e.encoding() for e in back.entries] == [
            e.encoding() for e in catalog.entries
        ]
        assert back.entries == catalog.entries

    def test_round_trip_id_action(self, catalog):
        back = catalog_from_json_obj(catalog_to_json_obj(catalog))
        assert np.array_equal(back.id_action(), get_catalog().id_action())

    def test_id_action_needs_a_symmetry_closed_set(self, catalog):
        with pytest.raises(CatalogError):
            action_of([e.encoding() for e in catalog.entries[:-1]])

    def test_stored_keys(self, catalog):
        for rec in catalog_to_json_obj(catalog)["entries"]:
            assert list(rec) == STORED_KEYS

    @pytest.mark.parametrize("key", STORED_KEYS)
    def test_tampered_export_rejected(self, catalog, key):
        obj = catalog_to_json_obj(catalog)
        first = obj["entries"][0]
        # the value another entry stores under the same key
        first[key] = next(rec[key] for rec in obj["entries"] if rec[key] != first[key])
        # entry 2's tetrahedra in entry 1 repeat a cover, so the rebuild itself fails
        message = "canonical order" if key == "tetrahedra" else f"entry 1: stored {key} differs"
        with pytest.raises(CatalogError, match=message):
            catalog_from_json_obj(obj)

    def test_tampered_header_rejected(self, catalog):
        obj = catalog_to_json_obj(catalog)
        obj["triangulationCount"] = 73
        with pytest.raises(CatalogError, match="stored catalog differs"):
            catalog_from_json_obj(obj)

    def test_export_without_entries_rejected(self):
        with pytest.raises(CatalogError, match="malformed catalog export"):
            catalog_from_json_obj({})

    def test_entries_not_a_list_rejected(self):
        with pytest.raises(CatalogError, match="malformed catalog export"):
            catalog_from_json_obj({"entries": 5})

    def test_entry_without_tetrahedra_rejected(self, catalog):
        obj = catalog_to_json_obj(catalog)
        del obj["entries"][3]["tetrahedra"]
        with pytest.raises(CatalogError, match="malformed catalog export"):
            catalog_from_json_obj(obj)

    def test_coplanar_tetrahedron_in_export_rejected(self, catalog):
        obj = catalog_to_json_obj(catalog)
        obj["entries"][0]["tetrahedra"][0] = [0, 1, 2, 3]
        with pytest.raises(CatalogError, match="malformed catalog export.*coplanar"):
            catalog_from_json_obj(obj)

    def test_covers_given_as_lists(self, catalog):
        encodings = _enumerate_encodings()
        back = Catalog([[list(t) for t in cover] for cover in encodings])
        assert np.array_equal(back.id_action(), Catalog(encodings).id_action())
        assert back.entries == catalog.entries
        with pytest.raises(CatalogError):
            Catalog([[[0, 1, 2, 4]]])

    def test_cover_outside_the_58_tetrahedra_rejected(self, catalog):
        with pytest.raises(CatalogError, match=r"vertices \(0, 1, 2, 3\) are not one of the 58"):
            Catalog([((0, 1, 2, 3),)])
        # a lookup by tetrahedra still reports a domain error
        with pytest.raises(DomainError, match="not a triangulation of the cube"):
            catalog.entry_by_tets([(0, 1, 2, 3)])


ALL_FORMS = (1 << 20) - 1


def full_code_id(catalog, code):
    """The id of a fully nonzero sign code through the exact path's resolver."""
    return _classified(catalog, code, ~code & ALL_FORMS).canonical_id


# Sign codes of random wide tables hit the realizable patterns, which
# arbitrary 20-bit codes almost never do.
table_codes = st.lists(st.integers(1, 10**6), min_size=8, max_size=8).map(
    lambda entries: _int_sign_bits(*entries)[0]
)


class TestResolverProperties:
    @settings(max_examples=400, deadline=None)
    @given(code=st.one_of(st.integers(0, ALL_FORMS), table_codes))
    def test_full_pattern_wrapper(self, catalog, code):
        def outcome(resolve, *args):
            try:
                return resolve(*args) or None
            except CatalogError:
                return None

        assert outcome(full_code_id, catalog, code) == outcome(
            catalog.resolve_signs, code, ~code & ALL_FORMS
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_batch_equals_exact_on_small_counts(self, catalog, seed):
        entries = np.random.default_rng(seed).integers(1, 6, (200, 8))
        ids = classify_heights_batch(np.log(entries.astype(float)), catalog)
        for row, cid in zip(entries, ids):
            table = Table3([int(x) for x in row])
            try:
                expected = classify_exact(table, catalog).canonical_id
            except DegenerateTable:
                expected = 0
            assert cid == expected


def reference_batch_ids(catalog, heights):
    """Row-by-row statement of the batch rule: a form is undecided within
    DEFAULT_TOLERANCE * ||coeffs|| * max(1, ||h||inf) of zero; clean rows go through
    ``_classified``, rows with undecided forms through
    ``resolve_signs`` on the decided ones, non-finite rows are 0."""
    out = []
    for row in np.asarray(heights, dtype=np.float64):
        if not np.isfinite(row).all():
            out.append(0)
            continue
        values = FORM_MATRIX @ row
        margin = DEFAULT_TOLERANCE * FORM_NORMS * max(1.0, float(np.abs(row).max()))
        code = sum(1 << i for i, v in enumerate(values) if v > 0)
        undecided = sum(1 << i for i, (v, m) in enumerate(zip(values, margin)) if abs(v) < m)
        if undecided:
            out.append(
                catalog.resolve_signs(code & ~undecided, ~code & ~undecided & ALL_FORMS)
            )
        else:
            out.append(full_code_id(catalog, code))
    return np.array(out, dtype=np.int64)


def mixed_heights(seed, size):
    """Rows of log Exp(1) draws, of log integers in 1..5 (ties), of those
    ties scaled by 10^3, and of log Exp(1) draws scaled by 10^-10..10^-7, so
    that some forms sit near the margin; about one row in ten gets inf, -inf
    or nan in a random column."""
    rng = np.random.default_rng(seed)
    kind = rng.integers(0, 4, size)
    ties = np.log(rng.integers(1, 6, (size, 8)).astype(np.float64))
    h = np.where((kind % 3 == 0)[:, None], np.log(rng.standard_exponential((size, 8))), ties)
    h[kind == 2] *= 1e3
    h[kind == 3] *= 10.0 ** rng.uniform(-10, -7, (np.count_nonzero(kind == 3), 1))
    bad = np.nonzero(rng.random(size) < 0.1)[0]
    h[bad, rng.integers(0, 8, bad.size)] = rng.choice([np.inf, -np.inf, np.nan], bad.size)
    return h


# Sizes from an empty call to 4 097 rows, on both sides of 2 048 and 4 096.
BLOCK_SIZES = (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1)
seeds = st.integers(0, 2**32 - 1)


class TestBatchKernelProperties:
    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @settings(max_examples=4, deadline=None)
    @given(seed=seeds)
    def test_equals_row_reference(self, catalog, size, seed):
        h = mixed_heights(seed, size)
        ids = classify_heights_batch(h, catalog)
        assert ids.dtype == np.int64 and ids.shape == (size,)
        assert np.array_equal(ids, reference_batch_ids(catalog, h))

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @settings(max_examples=4, deadline=None)
    @given(seed=seeds)
    def test_layout_does_not_matter(self, catalog, size, seed):
        h = mixed_heights(seed, size)
        expected = classify_heights_batch(h, catalog)
        interleaved = np.random.default_rng(seed).standard_exponential((size, 16))
        interleaved[:, 0::2] = h
        assert np.array_equal(classify_heights_batch(interleaved[:, 0::2], catalog), expected)
        assert np.array_equal(classify_heights_batch(np.asfortranarray(h), catalog), expected)

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @settings(max_examples=2, deadline=None)
    @given(seed=seeds)
    def test_row_id_does_not_depend_on_its_block(self, catalog, size, seed):
        h = mixed_heights(seed, size)
        h[1::2] = near_margin_heights(seed, size)[1::2]
        single = [int(classify_heights_batch(h[i : i + 1], catalog)[0]) for i in range(size)]
        assert classify_heights_batch(h, catalog).tolist() == single

    @pytest.mark.parametrize("shape", [(8,), (0,), (5, 7), (5, 9), (2, 4, 8)])
    def test_needs_rows_of_eight(self, catalog, shape):
        with pytest.raises(DomainError, match=r"\(n, 8\) array"):
            classify_heights_batch(np.zeros(shape), catalog)


def near_margin_heights(seed, size):
    """Rows of log Exp(1) draws scaled so that their smallest form value
    lies within a few ulps of its own margin or of the largest one, on
    either side, so the per-form margin test sits on its boundary."""
    rng = np.random.default_rng(seed)
    h = np.log(rng.standard_exponential((size, 8)))
    values = np.abs(h @ FORM_MATRIX.T)
    smallest = values.argmin(axis=1)
    margin = DEFAULT_TOLERANCE * FORM_NORMS
    target = np.where(rng.random(size) < 0.5, margin[smallest], margin.max())
    ulps = 1.0 + rng.integers(-4, 5, size) * np.finfo(float).eps
    return h * (target / values[np.arange(size), smallest] * ulps)[:, None]


def full_margin_ids(catalog, heights):
    """The float64 margin rule on the kernel's one product, the heights
    zero-padded to a multiple of 8 columns: every form of every row gets
    the margin test on the same floats, and each row with undecided forms
    is resolved on its own."""
    h = np.asarray(heights, dtype=np.float64)
    hT = np.zeros((8, -(-len(h) // 8) * 8))
    hT[:, : len(h)] = h.T
    margin = (DEFAULT_TOLERANCE * FORM_NORMS)[:, None]
    with np.errstate(invalid="ignore", over="ignore"):
        values = (FORM_MATRIX @ hT)[:, : len(h)]
        scale = np.maximum(1.0, np.abs(h).max(axis=1))
        codes = [int(c) for c in _POW2F @ (values > 0)]
        undecided = [int(u) for u in _POW2F @ (np.abs(values) < margin * scale)]
    inside = (scale < 2.0**1020).tolist()
    out = []
    for code, open_forms, ok in zip(codes, undecided, inside):
        if not ok:
            out.append(0)
        elif open_forms:
            out.append(
                catalog.resolve_signs(code & ~open_forms, ~code & ~open_forms & ALL_FORMS)
            )
        else:
            out.append(full_code_id(catalog, code))
    return np.array(out, dtype=np.int64)


class TestBatchMemo:
    @settings(max_examples=4, deadline=None)
    @given(seed=seeds)
    def test_equals_row_reference_at_the_margin(self, catalog, seed):
        h = mixed_heights(seed, 1000)
        ids = classify_heights_batch(h, catalog)
        assert np.array_equal(ids, reference_batch_ids(catalog, h))

    @settings(max_examples=4, deadline=None)
    @given(seed=seeds)
    def test_equals_full_margin_kernel_near_the_margin(self, catalog, seed):
        # within a few ulps of a margin, the row reference's matrix-vector
        # product may round differently from the kernel's padded product
        near = near_margin_heights(seed, _BLOCK + 300)
        h = np.vstack([near, mixed_heights(seed, 300)])
        ids = classify_heights_batch(h, catalog)
        assert np.array_equal(ids, full_margin_ids(catalog, h))

    @settings(max_examples=4, deadline=None)
    @given(seed=seeds)
    def test_memo_holds_resolved_clean_codes(self, seed):
        fresh = _build_catalog()
        h = mixed_heights(seed, 3 * _BLOCK)
        classify_heights_batch(h, fresh)
        filled = np.nonzero(fresh._pattern_ids)[0]
        assert filled.size
        for code in filled.tolist():
            assert fresh._pattern_ids[code] == full_code_id(fresh, code)
        # exactly the codes of the rows that had no undecided form
        clean = set()
        for row in h[np.isfinite(h).all(axis=1)]:
            values = FORM_MATRIX @ row
            margin = DEFAULT_TOLERANCE * FORM_NORMS * max(1.0, float(np.abs(row).max()))
            if (np.abs(values) >= margin).all():
                clean.add(sum(1 << i for i, v in enumerate(values) if v > 0))
        assert set(filled.tolist()) == clean


    def test_cold_memo_peak_and_ids(self):
        # the unseen codes are resolved from one sorted copy, not a Python
        # object per row: 0.62 MiB above the warm call at 2^16 rows, where
        # a list and set of the codes took 2.4 MiB
        fresh = _build_catalog()
        h = np.log(np.random.default_rng(5).standard_exponential((1 << 16, 8)))
        peaks, ids = [], []
        for _ in range(2):
            tracemalloc.start()
            try:
                ids.append(classify_heights_batch(h, fresh))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert np.array_equal(ids[0], ids[1])
        assert np.array_equal(ids[0], classify_heights_batch(h, get_catalog()))
        assert peaks[0] <= peaks[1] + 16 * len(h)


def screen_edge_heights(rng, size):
    """Rows whose heights reach 10^-2..10^6 and in which one form sits
    within a few float32 ulps of ``_SCREEN * scale`` (``pulled_to_the_screen``)."""
    h = np.log(rng.standard_exponential((size, 8))) * 10.0 ** rng.uniform(-2, 6, (size, 1))
    return pulled_to_the_screen(rng, h)


def pulled_to_the_screen(rng, h):
    """Heights ``h`` in which one random form per row, pulled along its own
    coefficients, sits within a few float32 ulps of ``_SCREEN * scale``, on
    either side; scale is 1 below 10^0."""
    size = len(h)
    c = FORM_MATRIX[rng.integers(0, len(FORM_MATRIX), size)]
    target = rng.choice([-1.0, 1.0], size) * _SCREEN * (1.0 + rng.integers(-4, 5, size) * 2.0**-23)
    for _ in range(3):    # the pull moves the scale by a relative 1e-5 at most
        scale = np.maximum(1.0, np.abs(h).max(axis=1))
        v = np.einsum("ij,ij->i", c, h)
        h += ((target * scale - v) / (c * c).sum(axis=1))[:, None] * c
    return h


def screen_heights(seed, size):
    """Rows at the screen's edges, in shuffled order: forms at the
    threshold, max|h| within a few ulps of 2^64 on either side, float64
    and float32 subnormals, log Exp(1) rows scaled by 10^+-300, ties (log
    integers 1..5) and rows with +-inf or NaN in a random column."""
    rng = np.random.default_rng(seed)
    kind = rng.integers(0, 6, size)
    base = np.log(rng.standard_exponential((size, 8)))
    h = np.where((kind == 0)[:, None], screen_edge_heights(rng, size), base)
    top = kind == 1
    # the largest |h| lands a few ulps of float32 (and of float64) off 2^64
    ulp = np.where(rng.random((size, 1)) < 0.5, 2.0**-24, 2.0**-52)
    ulps = rng.integers(-3, 4, (size, 1)) * ulp
    h[top] *= (2.0**64 * (1 + ulps) / np.abs(h).max(axis=1, keepdims=True))[top]
    h[kind == 2] *= rng.choice([1e-310, 1e-40], (np.count_nonzero(kind == 2), 1))
    h[kind == 3] *= rng.choice([1e-300, 1e300], (np.count_nonzero(kind == 3), 1))
    h[kind == 4] = np.log(rng.integers(1, 6, (np.count_nonzero(kind == 4), 8)).astype(np.float64))
    bad = np.flatnonzero(kind == 5)
    h[bad, rng.integers(0, 8, bad.size)] = rng.choice([np.inf, -np.inf, np.nan], bad.size)
    return h


SCREEN_SIZES = (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1)


def screened(h):
    """Each row's float32 sign code, and whether the screen certifies it:
    ``_screen_block`` on (n, 8) float64 heights, cast to float32 block by
    block as ``classify_entries_batch`` casts its logs."""
    codes = np.empty(len(h), dtype=np.int32)
    certified = np.empty(len(h), dtype=bool)
    with np.errstate(all="ignore"):
        for lo in range(0, len(h), _BLOCK):
            hT = h[lo : lo + _BLOCK].T.astype(np.float32, order="C")
            values = np.empty((len(FORM_MATRIX), hT.shape[1]), dtype=np.float32)
            _screen_block(hT, values, codes[lo : lo + _BLOCK], certified[lo : lo + _BLOCK])
    return codes, certified


class TestScreen:
    @pytest.mark.parametrize("size", SCREEN_SIZES)
    @settings(max_examples=3, deadline=None)
    @given(seed=seeds)
    def test_ids_at_the_screen_edges(self, catalog, size, seed):
        h = screen_heights(seed, size)
        with np.errstate(over="raise", invalid="raise"):
            ids = classify_heights_batch(h, catalog)
        assert np.array_equal(ids, reference_batch_ids(catalog, h))
        assert np.array_equal(ids, full_margin_ids(catalog, h))

    @pytest.mark.parametrize("size", SCREEN_SIZES)
    @settings(max_examples=3, deadline=None)
    @given(seed=seeds)
    def test_certified_rows_keep_the_bound(self, size, seed):
        h = screen_heights(seed, size)
        codes, certified = screened(h)
        edge = screen_edge_heights(np.random.default_rng(seed), size)
        edge_codes, edge_certified = screened(edge)
        # the edge rows fall on both sides of the threshold
        assert edge_certified.any() and not edge_certified.all()
        for rows, row_codes, ok in [(h, codes, certified), (edge, edge_codes, edge_certified)]:
            assert np.isfinite(rows[ok]).all()
            values = rows[ok] @ FORM_MATRIX.T
            scale = np.maximum(1.0, np.abs(rows[ok]).max(axis=1))
            assert (scale < 2.0**64).all()
            assert np.array_equal(row_codes[ok], (values > 0) @ (1 << np.arange(20)))
            smallest = np.abs(values).min(axis=1)
            assert (smallest >= _MARGIN.max() * scale).all()
            # the docstring's bound, about 2 700 times the widest margin
            assert (smallest >= 7.7e-6 * scale).all()
        # nor do non-finite rows and rows beyond 2^64
        assert not certified[~np.isfinite(h).all(axis=1)].any()
        assert not certified[np.abs(h).max(axis=1) >= 2.0**64].any()

    def test_certifies_nearly_every_log_exp_row(self):
        # about 1.3e-4 of log Exp(1) rows go to the exact fallback at
        # _SCREEN = 1e-5; a screen that certified nothing would show only
        # on the benchmark
        h = np.log(np.random.default_rng(3).standard_exponential((1 << 16, 8)))
        certified = screened(h)[1]
        assert np.count_nonzero(~certified) < 1e-3 * len(h)

    def test_heights_never_reach_the_screen(self, catalog, monkeypatch):
        # the float32 screen serves classify_entries_batch only: a heights
        # call of any size, above one block too, gets the float64 margin
        # rule on every row
        def forbidden(*args):
            raise AssertionError("classify_heights_batch ran the float32 screen")

        monkeypatch.setattr(triangulation, "_screen_block", forbidden)
        h = np.log(np.random.default_rng(4).standard_exponential((2 * _BLOCK + 1, 8)))
        h[::7] = 0.0    # ties: every form vanishes
        for size in (0, 1, 25, _BLOCK - 1, _BLOCK, 2 * _BLOCK + 1):
            ids = classify_heights_batch(h[:size], catalog)
            assert np.array_equal(ids, full_margin_ids(catalog, h[:size]))


def exact_entry_id(catalog, *rows):
    """``classify_exact`` on the exact sum of rows of positive doubles, as
    Fractions; 0 where it raises DegenerateTable."""
    table = Table3([sum(map(Fraction, column)) for column in zip(*[r.tolist() for r in rows])])
    try:
        return classify_exact(table, catalog).canonical_id
    except DegenerateTable:
        return 0


def near_tie_entries(rng, size):
    """Tables whose entries a_x * b_y * c_z are integer products, so that
    every form vanishes, each then moved by -2..2 ulps; about one in three
    is left an exact tie."""
    a, b, c = rng.integers(1, 7, (3, size, 2)).astype(np.float64)
    bits = np.array([vertex_bits(v) for v in VERTICES])
    rows = np.arange(size)[:, None]
    x = a[rows, bits[:, 0]] * b[rows, bits[:, 1]] * c[rows, bits[:, 2]]
    nudge = rng.integers(-2, 3, (size, 8)) * (rng.random((size, 1)) < 2 / 3)
    return x + nudge * np.spacing(x)


def entry_rows(seed, kind, size):
    """(size, 8) positive finite doubles of one kind: Exp(1) draws, integer
    ties 1..5, near ties, Exp(1) draws scaled by 2^+-k, by 10^+-300 or into
    the subnormals (a random subset of each row's entries), and Exp(1) rows
    whose logs put one form within a few float32 ulps of the screen's
    threshold."""
    rng = np.random.default_rng(seed)
    x = rng.standard_exponential((size, 8))
    if kind == "ties":
        return rng.integers(1, 6, (size, 8)).astype(np.float64)
    if kind == "near ties":
        return near_tie_entries(rng, size)
    if kind == "powers of two":
        return x * 2.0 ** rng.integers(-60, 61, (size, 1))
    if kind == "10^+-300":
        return x * rng.choice([1e-300, 1e300], (size, 1))
    if kind == "subnormal":
        return x * np.where(rng.random((size, 8)) < 0.5, 1e-310, 1.0)
    if kind == "screen edge":
        return np.exp(pulled_to_the_screen(rng, np.log(x)))
    return x


ENTRY_KINDS = ("exp", "ties", "near ties", "powers of two", "10^+-300", "subnormal", "screen edge")


class TestEntryIds:
    """``classify_entries_batch`` gives every table the id ``classify_exact``
    gives its exact entries, and 0 exactly where that raises."""

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, kinds=st.tuples(*[st.sampled_from(ENTRY_KINDS)] * 2))
    def test_ids_of_tables_are_exact(self, catalog, seed, kinds):
        # F and G interleaved, as the Monte Carlo draws them
        f, g = (entry_rows(seed + k, kind, 40) for k, kind in enumerate(kinds))
        pairs = np.stack([f, g], axis=2)
        with np.errstate(all="raise"):
            ids = classify_entries_batch(pairs)
        assert ids.shape == (2, 40) and ids.dtype == np.int64
        for j, rows in enumerate((f, g)):
            assert ids[j].tolist() == [exact_entry_id(catalog, row) for row in rows]

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, kinds=st.tuples(*[st.sampled_from(ENTRY_KINDS)] * 2), shift=st.integers(0, 60))
    def test_ids_of_sums_are_exact(self, catalog, seed, kinds, shift):
        # g scaled down by 2^shift, so that most sums f + g round
        f, g = (entry_rows(seed + k, kind, 40) for k, kind in enumerate(kinds))
        g *= 2.0**-shift
        (ids,) = classify_entries_batch(f[:, :, None], g[:, :, None])
        assert ids.tolist() == [exact_entry_id(catalog, a, b) for a, b in zip(f, g)]

    def test_sums_of_near_ties_and_overflowing_sums(self, catalog):
        # near ties on one base: their sums are near ties too; entries near
        # the largest double: their float sums overflow to inf
        rng = np.random.default_rng(8)
        base = near_tie_entries(rng, 200)
        f = base + rng.integers(-2, 3, base.shape) * np.spacing(base)
        g = base + rng.integers(-2, 3, base.shape) * np.spacing(base)
        huge = rng.uniform(0.6, 1.0, (2, 50, 8)) * np.finfo(np.float64).max
        f, g = np.vstack([f, huge[0]]), np.vstack([g, huge[1]])
        (ids,) = classify_entries_batch(f[:, :, None], g[:, :, None])
        expected = [exact_entry_id(catalog, a, b) for a, b in zip(f, g)]
        assert ids.tolist() == expected
        assert 0 < expected.count(0) < 200 and all(expected[200:])

    def test_uncertified_rows_are_decided_on_the_entries(self, catalog, monkeypatch):
        # ties and near ties do not certify; every Exp(1) table of this
        # seed does, and none of those reaches the exact fallback
        decided = []
        entry_id = triangulation._entry_id

        def recorded(catalog, rows):
            decided.append(np.concatenate(rows))
            return entry_id(catalog, rows)

        monkeypatch.setattr(triangulation, "_entry_id", recorded)
        rng = np.random.default_rng(9)
        x = rng.standard_exponential((3 * _BLOCK + 5, 8))
        x[::5] = near_tie_entries(rng, len(x[::5]))
        ids = classify_entries_batch(x[:, :, None])
        h = np.log(x)
        certified = screened(h)[1]
        assert len(decided) == np.count_nonzero(~certified) >= len(x[::5]) // 2
        assert np.array_equal(np.sort(decided, axis=0), np.sort(x[~certified], axis=0))
        assert ids[0, ::5].tolist() == [exact_entry_id(catalog, row) for row in x[::5]]

    def test_tables_that_are_not_positive_get_0(self, catalog):
        x = np.random.default_rng(10).standard_exponential((9, 8))
        for i, bad in enumerate([0.0, -1.0, np.inf, -np.inf, np.nan]):
            x[i, i] = bad
        x[5] = 0.0
        x[6, 0] = np.finfo(np.float64).tiny / 2**52    # the least subnormal is positive
        ids = classify_entries_batch(x[:, :, None])
        assert ids[0, :6].tolist() == [0] * 6
        assert ids[0, 6:].tolist() == [exact_entry_id(catalog, row) for row in x[6:]]
        # a sum whose parts cancel is not positive either
        (ids,) = classify_entries_batch(x[7:, :, None], -x[7:, :, None])
        assert ids.tolist() == [0, 0]

    @pytest.mark.parametrize("shapes", [[], [(4, 8)], [(4, 7, 1)], [(4, 8, 1), (4, 8, 2)]])
    def test_refuses_other_shapes(self, shapes):
        with pytest.raises(DomainError, match=r"^entries must be \(n, 8, t\) arrays of one shape$"):
            classify_entries_batch(*[np.ones(shape) for shape in shapes])

    def test_empty_call(self):
        assert classify_entries_batch(np.ones((0, 8, 2))).shape == (2, 0)
        ids = classify_entries_batch(np.ones((3, 8, 0)))
        assert ids.shape == (0, 3) and ids.dtype == np.int64


def test_every_five_vertex_set_holds_one_circuit():
    # derive_constraints reads a wall's form off its 5-vertex span
    for span in itertools.combinations(VERTICES, 5):
        held = [i for i, (pos, neg) in enumerate(_CIRCUITS) if pos | neg <= set(span)]
        assert len(held) == 1
        assert _FORM_OF_SPAN[frozenset(span)] == held[0]
