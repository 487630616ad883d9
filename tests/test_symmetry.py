from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpson3 import (
    GROUP,
    ConversionSearch,
    DomainError,
    SamplerConfig,
    Table2,
    Table3,
    apply_table,
    classify_exact,
    orbit_classes,
    search_witness,
)
from simpson3.symmetry import (
    _PAD,
    GROUP_INDEX,
    INVERSE_INDEX,
    VERTEX_MAPS,
    CubeSymmetry,
    _canonical_rows,
    apply,
    apply_vertex,
    canonical_class_of,
    canonical_classes,
    key_rows,
)

# What every key reader says of a key that is not iterable.
NOT_A_KEY = "class key 5 is not a sequence of ids"


def random_table(rng):
    return Table3([int(x) for x in rng.integers(1, 1000, 8)])


def relabel_reference(sigma, tri, catalog):
    """The catalog entry whose tetrahedra are tri's, relabeled vertex by vertex."""
    vmap = sigma.vertex_map()
    image = frozenset(frozenset(vmap[v] for v in t.vertices) for t in tri.tetrahedra)
    (found,) = [
        e for e in catalog if frozenset(frozenset(t.vertices) for t in e.tetrahedra) == image
    ]
    return found


def reference_orbit_classes(arity, catalog):
    """(representative, size, members) per class, from the 48 images of every
    id tuple of the arity."""
    ida = catalog.id_action()
    tuples = np.indices((ida.shape[1],) * arity, dtype=np.int8).reshape(arity, -1).T
    pad = _PAD[arity]
    if pad[0] != pad[1]:
        # separate summand slots hold an unordered pair of distinct ids
        tuples = tuples[tuples[:, 0] < tuples[:, 1]]
    keys = _canonical_rows(tuples[:, list(pad)], catalog.index_action())
    order = np.argsort(keys, kind="stable")
    columns = (tuples[order] + 1).T
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1)).tolist()
    reps = list(zip(*columns[:, starts].tolist()))
    classes = []
    for rep, lo, hi in zip(reps, starts, starts[1:] + [len(order)]):
        classes.append((rep, hi - lo, tuple(zip(*columns[:, lo:hi].tolist()))))
    return classes


class TestGroup:
    def test_order(self):
        assert len(GROUP) == 48
        assert len(set(GROUP)) == 48

    def test_identity(self):
        e = CubeSymmetry((0, 1, 2), (0, 0, 0))
        assert e in GROUP_INDEX
        assert e.vertex_map() == tuple(range(8))
        assert e.inverse() == e

    def test_closure_and_inverse(self):
        maps = set(VERTEX_MAPS)
        assert tuple(range(8)) in maps
        for a in VERTEX_MAPS:
            for b in VERTEX_MAPS:
                assert tuple(a[b[v]] for v in range(8)) in maps
        for s, a in enumerate(VERTEX_MAPS):
            inverse = VERTEX_MAPS[INVERSE_INDEX[s]]
            assert tuple(a[inverse[v]] for v in range(8)) == tuple(range(8))

    def test_compose_is_left_action(self):
        rng = np.random.default_rng(1)
        t = random_table(rng)
        for _ in range(100):
            a = GROUP[rng.integers(0, 48)]
            b = GROUP[rng.integers(0, 48)]
            ab = GROUP[VERTEX_MAPS.index(tuple(a.vertex_map()[w] for w in b.vertex_map()))]
            v = int(rng.integers(0, 8))
            assert apply_vertex(ab, v) == apply_vertex(a, apply_vertex(b, v))
            assert apply_table(ab, t) == apply_table(a, apply_table(b, t))

    def test_antipodal_map(self):
        sigma = CubeSymmetry((0, 1, 2), (1, 1, 1))
        assert sigma in GROUP_INDEX
        assert sigma.vertex_map() == tuple(v ^ 7 for v in range(8))
        assert sigma.inverse() == sigma

    def test_inverse_index(self):
        for s, sigma in enumerate(GROUP):
            assert GROUP[INVERSE_INDEX[s]] == sigma.inverse()

    def test_vertex_maps_are_permutations(self):
        for vmap in VERTEX_MAPS:
            assert sorted(vmap) == list(range(8))


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

    def test_generic_apply(self, catalog):
        sigma = GROUP[17]
        assert apply(sigma, 3) == apply_vertex(sigma, 3)
        tri = catalog[5]
        image = apply(sigma, tri)
        assert image.canonical_id == catalog.id_action()[sigma.index, 4]
        assert type(image.canonical_id) is int
        for bad in (0, -1, 75):
            with pytest.raises(DomainError, match=f"^unknown triangulation id {bad}$"):
                apply(sigma, catalog[bad])
        with pytest.raises(DomainError):
            apply(sigma, "vertex")

    @pytest.mark.parametrize(
        "read, message",
        [
            (lambda: apply(GROUP[1], True), "vertex True is not an integer"),
            (lambda: apply(GROUP[1], -1), "cube vertices are indexed 0..7"),
            (lambda: apply(GROUP[1], 8), "cube vertices are indexed 0..7"),
            (lambda: apply(GROUP[1], np.int64(8)), "cube vertices are indexed 0..7"),
            (lambda: apply_vertex(GROUP[1], 2.0), "vertex 2.0 is not an integer"),
            (lambda: apply_vertex(GROUP[1], True), "vertex True is not an integer"),
        ],
        ids=["apply-bool", "apply-negative", "apply-8", "apply-int64-8", "float", "bool"],
    )
    def test_vertex_readers_keep_the_vertex_rule(self, read, message):
        # a bool is no vertex 1, a negative vertex does not wrap, and a
        # vertex past 7 is refused, not an IndexError
        with pytest.raises(DomainError) as info:
            read()
        assert str(info.value) == message

    def test_vertex_readers_take_numpy_vertices(self):
        for sigma in GROUP:
            for v in range(8):
                image = apply(sigma, v)
                assert apply(sigma, np.int64(v)) == apply_vertex(sigma, np.int8(v)) == image

    def test_equal_symmetry_built_apart_acts_alike(self, catalog):
        # the cached index is found per instance, so an equal copy of a
        # GROUP member must find the member's
        rng = np.random.default_rng(4)
        t = random_table(rng)
        for s in (0, 7, 47):
            member = GROUP[s]
            copy = CubeSymmetry(tuple(member.perm), tuple(member.flips))
            assert copy is not member and copy == member and copy.index == s
            assert [apply(copy, v) for v in range(8)] == [apply_vertex(member, v) for v in range(8)]
            assert apply(copy, t) == apply_table(copy, t) == apply_table(member, t)
            for tri in catalog[1], catalog[40]:
                assert apply(copy, tri) is apply(member, tri)

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
        # True is not read as arity 1
        with pytest.raises(DomainError, match="^arity True is not an integer$"):
            orbit_classes(True, catalog)

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_equals_all_rows_reference(self, catalog, arity):
        found = [(c.representative, c.size, c.members) for c in orbit_classes(arity, catalog)]
        assert found == reference_orbit_classes(arity, catalog)

    def test_enumeration_builds_no_members(self, catalog):
        for cls in orbit_classes(3, catalog):
            assert "members" not in vars(cls)

    def test_equality_ignores_built_members(self, catalog):
        read, unread = orbit_classes(2, catalog)[40], orbit_classes(2, catalog)[40]
        assert read.members
        assert "members" in vars(read) and "members" not in vars(unread)
        assert read == unread
        assert hash(read) == hash(unread)
        assert read != orbit_classes(2, catalog)[41]


class TestCanonical:
    def test_transporter_moves_tuple(self, catalog):
        # some symmetry carries the pair onto its representative
        ida = catalog.id_action()
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = int(rng.integers(1, 75))
            b = int(rng.integers(1, 75))
            rep = canonical_class_of((a, b), catalog)
            assert any(_image(ida, s, (a, b)) == rep for s in range(len(GROUP)))

    def test_triple_transporter_sorts_summands(self, catalog):
        # some symmetry carries the triple onto its representative once the
        # two unordered summands are sorted
        ida = catalog.id_action()
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = (int(x) for x in rng.choice(np.arange(1, 75), 2, replace=False))
            c = int(rng.integers(1, 75))
            rep = canonical_class_of((a, b, c), catalog)
            assert rep[0] < rep[1]
            images = [_image(ida, s, (a, b, c)) for s in range(len(GROUP))]
            assert any((min(u, v), max(u, v), w) == rep for u, v, w in images)

    def test_same_summand_triple_rejected(self, catalog):
        with pytest.raises(DomainError):
            canonical_class_of((3, 3, 5), catalog)

    def test_unknown_id_rejected(self, catalog):
        with pytest.raises(DomainError):
            canonical_class_of((0, 5), catalog)

    def test_classes_equal_per_key_canonicalization(self, catalog):
        pairs = [m for cls in orbit_classes(2, catalog) for m in cls.members]
        rng = np.random.default_rng(6)
        triples = []
        while len(triples) < 2000:
            a, b, c = (int(x) for x in rng.integers(1, 75, 3))
            if a != b:
                triples.append((a, b, c))
        for keys in (pairs, triples, pairs[:5] + triples[:5] + [(9,)]):
            got = canonical_classes(key_rows(keys, catalog), catalog)
            want = key_rows([canonical_class_of(k, catalog) for k in keys], catalog)
            assert got.dtype == np.intp
            assert np.array_equal(got, want)
        assert canonical_classes(key_rows([], catalog), catalog).shape == (0, 3)

    def test_numpy_integer_ids_accepted(self, catalog):
        key = (np.int64(9), np.int32(5), np.uint8(40))
        rep = canonical_class_of(key, catalog)
        assert rep == canonical_class_of((9, 5, 40), catalog)
        assert all(type(i) is int for i in rep)

    @pytest.mark.parametrize(
        "bad",
        [
            (0, 5),
            (2, 75, 3),
            (1, 2, 3, 4),
            (),
            (3, 3, 5),
            (1, 2.5),
            (1, 2, 3.9),
            (True, 2),
            (16, 1.9),
        ],
    )
    def test_classes_reject_the_first_bad_key(self, catalog, bad):
        # the key reader and the orbit quotient refuse a key alike
        with pytest.raises(DomainError) as single:
            canonical_class_of(bad, catalog)
        good = [(1, 2), (4, 7, 9), (5,)]
        for keys in ([bad], [bad] + good, good[:2] + [bad] + good[2:]):
            with pytest.raises(DomainError) as info:
                key_rows(keys, catalog)
            assert str(info.value) == str(single.value)

    def test_key_rows_read_an_iterator_once(self, catalog):
        keys = [(1, 2), (4, 7, 9), (5,)]
        rows = key_rows(keys, catalog)
        assert rows.tolist() == [[1, 1, 2], [4, 7, 9], [5, 5, 5]]
        assert np.array_equal(key_rows(iter(keys), catalog), rows)
        with pytest.raises(DomainError, match=r"^triple classes require distinct summand ids$"):
            key_rows([(3, 3, 5)], catalog)

    @pytest.mark.parametrize(
        "arity, message",
        [
            (1, "class key must have 2 or 3 components, got 1"),
            (4, "class key must have 2 or 3 components, got 4"),
            (2.0, "arity 2.0 is not an integer"),
            (True, "arity True is not an integer"),
        ],
    )
    def test_key_rows_take_a_search_arity(self, catalog, arity, message):
        # refused before any key is read, whatever the keys' lengths
        for keys in ([(1, 2)], [(5,)], []):
            with pytest.raises(DomainError) as info:
                key_rows(keys, catalog, arity)
            assert str(info.value) == message
        assert key_rows([(1, 2)], catalog, np.int64(2)).tolist() == [[1, 1, 2]]

    @pytest.mark.parametrize(
        "read, message",
        [
            (lambda catalog: catalog[True], "triangulation id True is not an integer"),
            (lambda catalog: catalog[1.5], "triangulation id 1.5 is not an integer"),
            (lambda catalog: catalog.orbit_members(1.0), "triangulation id 1.0 is not an integer"),
            (lambda catalog: canonical_class_of(5, catalog), NOT_A_KEY),
            (lambda catalog: ConversionSearch(SamplerConfig()).sweep_pairs([5], 10), NOT_A_KEY),
            (lambda catalog: search_witness(5), NOT_A_KEY),
        ],
        ids=["bool", "float", "orbit-float", "class-int", "sweep-int", "search-int"],
    )
    def test_every_id_reader_keeps_the_id_rule(self, catalog, read, message):
        # the catalog and every key reader refuse what key_rows refuses
        with pytest.raises(DomainError) as info:
            read(catalog)
        assert str(info.value) == message

    def test_id_readers_take_numpy_ids_and_iterator_keys(self, catalog):
        assert catalog[np.int64(3)] is catalog[3]
        assert catalog.orbit_members(np.int64(3)) == catalog.orbit_members(3)
        assert canonical_class_of(iter((9, 5, 40)), catalog) == (1, 13, 20)
        got, want = search_witness(iter((1, 2)), budget=600), search_witness((1, 2), budget=600)
        assert (got.class_key, got.f, got.g) == (want.class_key, want.f, want.g)


ids = st.integers(min_value=1, max_value=74)
id_tuples = st.one_of(
    st.tuples(ids),
    st.tuples(ids, ids),
    st.tuples(ids, ids, ids).filter(lambda t: t[0] != t[1]),
)

# Keys of one length and container, mostly valid, so that key_rows takes
# its vectorized read; and keys of every form and length.
uniform_keys = st.integers(1, 3).flatmap(
    lambda length: st.lists(
        st.lists(st.integers(-1, 76), min_size=length, max_size=length), max_size=6
    )
).flatmap(lambda keys: st.sampled_from([tuple, list]).map(lambda kind: [kind(k) for k in keys]))
key_entries = st.one_of(
    ids, st.integers(-1, 76), st.booleans(), st.floats(0, 80), st.integers(2**62, 2**70),
    ids.map(np.int64),
)
mixed_keys = st.lists(
    st.one_of(
        st.lists(key_entries, max_size=4).map(tuple),
        st.lists(key_entries, max_size=4),
        st.lists(ids, min_size=1, max_size=3).map(np.array),
    ),
    max_size=5,
)


def loop_key_rows(keys, catalog, arity=None):
    """``key_rows`` as one loop over the keys, before it read the common
    case in one vectorized pass: the reference for its rows and refusals."""
    n = len(catalog)
    rows = []
    equal_summands = False
    for ids in keys:
        if arity is not None and len(ids) != arity:
            kind = {2: "pair", 3: "triple"}[arity]
            raise DomainError(f"{kind} class keys have {arity} components, got {ids!r}")
        row = []
        for i in ids:
            if type(i) is bool or not hasattr(i, "__index__"):
                raise DomainError(f"triangulation id {i!r} is not an integer")
            i = int(i)
            if not 1 <= i <= n:
                raise DomainError(f"unknown triangulation id {i}")
            row.append(i)
        if len(row) not in _PAD:
            raise DomainError(f"unsupported arity {len(row)}")
        equal_summands |= len(row) == 3 and row[0] == row[1]
        rows.append([row[p] for p in _PAD[len(row)]])
    if equal_summands:
        raise DomainError("triple classes require distinct summand ids")
    return np.array(rows, dtype=np.intp).reshape(-1, 3)


def outcome(read, keys, catalog, arity):
    """The rows and their dtype that ``read`` returns, or its refusal."""
    try:
        rows = read(keys, catalog, arity)
    except DomainError as exc:
        return str(exc)
    return rows.tolist(), rows.dtype


def _image(ida, s, ids):
    return tuple(int(ida[s, i - 1]) for i in ids)


class TestQuotientProperties:
    @settings(max_examples=300, deadline=None)
    @given(keys=st.one_of(uniform_keys, mixed_keys), arity=st.sampled_from([None, 2, 3]))
    def test_key_rows_read_as_the_loop_reads(self, catalog, keys, arity):
        assert outcome(key_rows, keys, catalog, arity) == outcome(
            loop_key_rows, keys, catalog, arity
        )

    @settings(max_examples=300, deadline=None)
    @given(ids=id_tuples, s=st.integers(min_value=0, max_value=47))
    def test_class_is_invariant(self, catalog, ids, s):
        moved = _image(catalog.id_action(), s, ids)
        assert canonical_class_of(moved, catalog) == canonical_class_of(ids, catalog)

    @settings(max_examples=300, deadline=None)
    @given(ids=id_tuples)
    def test_representative_is_the_least_image(self, catalog, ids):
        ida = catalog.id_action()
        images = [_image(ida, s, ids) for s in range(len(GROUP))]
        if len(ids) == 3:
            images = [(*sorted(image[:2]), image[2]) for image in images]
        assert canonical_class_of(ids, catalog) == min(images)
