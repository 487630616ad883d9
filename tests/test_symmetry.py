from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpson3 import (
    ANTIPODAL_MAP,
    GROUP,
    CubeSymmetry,
    DomainError,
    Table2,
    Table3,
    apply,
    apply_table,
    apply_vertex,
    apply_vertex_set,
    canonical_class_of,
    canonical_transporter,
    classify_exact,
    orbit_classes,
)
from simpson3.symmetry import GROUP_INDEX, INVERSE_INDEX, VERTEX_MAPS


def random_table(rng):
    return Table3([int(x) for x in rng.integers(1, 1000, 8)])


def relabel_reference(sigma, tri, catalog):
    """The catalog entry whose tetrahedra are tri's, relabeled vertex by vertex."""
    vmap = sigma.vertex_map()
    image = frozenset(frozenset(vmap[v] for v in t.vertices) for t in tri.tetrahedra)
    (found,) = [e for e in catalog if e.tet_sets() == image]
    return found


class TestGroup:
    def test_order(self):
        assert len(GROUP) == 48
        assert len(set(GROUP)) == 48

    def test_identity(self):
        e = CubeSymmetry.identity()
        assert e.vertex_map() == tuple(range(8))

    def test_closure_and_inverse(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = GROUP[rng.integers(0, 48)]
            b = GROUP[rng.integers(0, 48)]
            assert a.compose(b) in GROUP_INDEX
            assert a.compose(a.inverse()) == CubeSymmetry.identity()
            assert a.inverse().compose(a) == CubeSymmetry.identity()

    def test_compose_is_left_action(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = GROUP[rng.integers(0, 48)]
            b = GROUP[rng.integers(0, 48)]
            v = int(rng.integers(0, 8))
            assert apply_vertex(a.compose(b), v) == apply_vertex(a, apply_vertex(b, v))

    def test_inverse_index(self):
        for s, sigma in enumerate(GROUP):
            assert GROUP[INVERSE_INDEX[s]] == sigma.inverse()

    def test_vertex_maps_are_permutations(self):
        for vmap in VERTEX_MAPS:
            assert sorted(vmap) == list(range(8))

    def test_antipodal_map(self):
        assert ANTIPODAL_MAP.vertex_map() == tuple(v ^ 7 for v in range(8))


class TestActions:
    def test_table_action_places_values(self):
        rng = np.random.default_rng(2)
        t = random_table(rng)
        for sigma in GROUP[::5]:
            image = apply_table(sigma, t)
            for v in range(8):
                assert image.entries[apply_vertex(sigma, v)] == t.entries[v]

    def test_table_action_rejects_a_2x2_table(self):
        with pytest.raises(DomainError) as info:
            apply_table(GROUP[5], Table2([1, 2, 3, 4]))
        assert str(info.value) == "cannot apply a cube symmetry to Table2"
        with pytest.raises(DomainError) as info:
            apply(GROUP[5], Table2([1, 2, 3, 4]))
        assert str(info.value) == "cannot apply a cube symmetry to Table2"

    def test_vertex_set_action(self):
        sigma = ANTIPODAL_MAP
        assert apply_vertex_set(sigma, {0, 1}) == frozenset({7, 6})

    def test_generic_apply(self, catalog):
        sigma = GROUP[17]
        assert apply(sigma, 3) == apply_vertex(sigma, 3)
        tri = catalog[5]
        image = apply(sigma, tri)
        assert image.canonical_id == catalog.apply_symmetry(sigma, 5)
        with pytest.raises(DomainError):
            apply(sigma, "vertex")

    def test_triangulation_action_matches_relabeling(self, catalog):
        for sigma in GROUP:
            for tri in catalog:
                assert apply(sigma, tri) is relabel_reference(sigma, tri, catalog)

    def test_equivariance_sample(self, catalog):
        rng = np.random.default_rng(3)
        for _ in range(25):
            t = random_table(rng)
            tri = classify_exact(t, catalog)
            for sigma in GROUP[::7]:
                moved = classify_exact(apply_table(sigma, t), catalog)
                assert moved is apply(sigma, tri)


class TestOrbits:
    def test_class_counts(self, catalog):
        assert len(orbit_classes(1, catalog)) == 6
        assert len(orbit_classes(2, catalog)) == 167
        assert len(orbit_classes(3, catalog)) == 4655

    def test_population_sums(self, catalog):
        assert sum(c.size for c in orbit_classes(1, catalog)) == 74
        assert sum(c.size for c in orbit_classes(2, catalog)) == 74 * 74
        # unordered pairs of distinct ids, times any third id
        assert sum(c.size for c in orbit_classes(3, catalog)) == (74 * 73 // 2) * 74

    def test_members_consistent(self, catalog):
        for cls in orbit_classes(2, catalog)[:20]:
            assert cls.representative == min(cls.members)
            assert cls.size == len(cls.members)
            for member in cls.members:
                assert canonical_class_of(member, catalog) == cls.representative

    def test_triple_members_partition_all_triples(self, catalog):
        members = [m for cls in orbit_classes(3, catalog) for m in cls.members]
        expected = {
            (a, b, c)
            for a in range(1, 75)
            for b in range(a + 1, 75)
            for c in range(1, 75)
        }
        assert len(members) == len(expected) == 199874
        assert set(members) == expected

    def test_representative_is_orbit_minimum(self, catalog):
        ida = catalog.id_action()
        for cls in orbit_classes(2, catalog)[:10]:
            a, b = cls.representative
            images = {
                (int(ida[s, a - 1]), int(ida[s, b - 1])) for s in range(48)
            }
            assert cls.representative == min(images)
            assert images == set(cls.members)

    def test_triple_members_are_sorted_pairs(self, catalog):
        for cls in orbit_classes(3, catalog)[:10]:
            for lo, hi, _ in cls.members:
                assert lo < hi

    def test_invalid_arity(self, catalog):
        with pytest.raises(DomainError):
            orbit_classes(4, catalog)


class TestCanonical:
    def test_transporter_moves_tuple(self, catalog):
        ida = catalog.id_action()
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = int(rng.integers(1, 75))
            b = int(rng.integers(1, 75))
            rep, s = canonical_transporter((a, b), catalog)
            assert (int(ida[s, a - 1]), int(ida[s, b - 1])) == rep

    def test_triple_transporter_sorts_summands(self, catalog):
        ida = catalog.id_action()
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = rng.choice(np.arange(1, 75), 2, replace=False)
            c = int(rng.integers(1, 75))
            rep, s = canonical_transporter((int(a), int(b), c), catalog)
            u, v = int(ida[s, a - 1]), int(ida[s, b - 1])
            assert (min(u, v), max(u, v), int(ida[s, c - 1])) == rep

    def test_same_summand_triple_rejected(self, catalog):
        with pytest.raises(DomainError):
            canonical_class_of((3, 3, 5), catalog)

    def test_unknown_id_rejected(self, catalog):
        with pytest.raises(DomainError):
            canonical_class_of((0, 5), catalog)


ids = st.integers(min_value=1, max_value=74)
id_tuples = st.one_of(
    st.tuples(ids),
    st.tuples(ids, ids),
    st.tuples(ids, ids, ids).filter(lambda t: t[0] != t[1]),
)


def _image(ida, s, ids):
    return tuple(int(ida[s, i - 1]) for i in ids)


class TestQuotientProperties:
    @settings(max_examples=300, deadline=None)
    @given(ids=id_tuples, s=st.integers(min_value=0, max_value=47))
    def test_class_is_invariant(self, catalog, ids, s):
        moved = _image(catalog.id_action(), s, ids)
        assert canonical_class_of(moved, catalog) == canonical_class_of(ids, catalog)

    @settings(max_examples=300, deadline=None)
    @given(ids=id_tuples)
    def test_transporter_reaches_representative(self, catalog, ids):
        ida = catalog.id_action()
        rep, t = canonical_transporter(ids, catalog)
        image = _image(ida, t, ids)
        if len(ids) == 3:
            image = (*sorted(image[:2]), image[2])
        assert image == rep
