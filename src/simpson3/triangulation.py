"""Enumeration of the 74 triangulations of the 3-cube and exact classification.

Every strictly positive 2x2x2 table lifts the cube vertices to heights
(the log-entries) in 4-space; the upper envelope of the lifted convex hull
projects to a triangulation of the cube.  This module enumerates all
triangulations combinatorially, derives for each one the set of strict sign
conditions on the 20 balanced forms that characterizes the tables inducing
it, and classifies tables either exactly (integer monomial comparisons) or
in bulk (vectorized floating point with a degeneracy margin).

All geometric predicates during enumeration are exact and combinatorial:
tetrahedron volumes are integer determinants on the 0/1 vertex coordinates,
and intersection tests and wall conditions read the cube's circuits, which
are the supports of the 20 forms.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import CatalogError, DegenerateTable, DomainError
from .tables import (
    FACE_FORM,
    FACES,
    FORM_COEFFS,
    FORM_INDEX,
    FORM_LETTERS,
    Table3,
    VERTICES,
    _FIVE_TERM,
    _FOUR_TERM,
    _check_tables,
    _compiled,
    _int_sign_bits,
    _integer,
    _power_of_two_scale,
    face_diagonal_pair,
    vertex_bits,
)
from . import symmetry

VERTEX_COORDS = tuple(vertex_bits(v) for v in VERTICES)

FORM_MATRIX = np.array(FORM_COEFFS, dtype=np.float64)          # (20, 8)
FORM_NORMS = np.linalg.norm(FORM_MATRIX, axis=1)
_POW2F = np.ldexp(1.0, np.arange(20))     # sums of distinct ones are exact in float64
# Rows per classify_entries_batch block: its (t, 20, b) float32 values
# (320 KB at t = 2) stay in cache.
_BLOCK = 2048
# Heights below it in absolute value keep every form and partial sum under
# 6 * 2^1020 < 2^1023, as each form and oracle residual has sum |c| <= 6.
_HEIGHT_MAX = 2.0**1020
# The float32 screen of classify_entries_batch (_screen_block derives
# _SCREEN from the error bound); 2^20 - 1 < 2^24, so the packed codes are
# exact in float32 too.
_FORM_MATRIX32 = FORM_MATRIX.astype(np.float32)
_POW2F32 = _POW2F.astype(np.float32)
_SCREEN = 1e-5
_SCREEN_MAX = 2.0**64
_ALL_FORMS = (1 << len(FORM_COEFFS)) - 1

# The fixed margin of the float classifiers: a form is undecided on heights
# h when its value is within DEFAULT_TOLERANCE * ||coeffs|| * max(1, ||h||inf)
# of zero.  _MARGIN holds each form's margin at unit scale.
DEFAULT_TOLERANCE = 1e-9
_MARGIN = DEFAULT_TOLERANCE * FORM_NORMS


def _det3(r0, r1, r2) -> int:
    return (
        r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
        - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
    )


def tetrahedron_volume_sixths(vertices: Sequence[int]) -> int:
    """Volume in units of one sixth of the cube; zero iff degenerate."""
    p0 = VERTEX_COORDS[vertices[0]]
    rows = [
        tuple(VERTEX_COORDS[v][k] - p0[k] for k in range(3)) for v in vertices[1:]
    ]
    return abs(_det3(*rows))


@dataclass(frozen=True)
class Tetrahedron:
    """Four affinely independent cube vertices, stored sorted."""

    vertices: tuple[int, int, int, int]

    def __init__(self, vertices: Iterable[int]):
        verts = tuple(sorted(vertices))
        if len(verts) != 4 or len(set(verts)) != 4:
            raise DomainError("a tetrahedron needs 4 distinct vertices")
        if any(not 0 <= v <= 7 for v in verts):
            raise DomainError("vertex indices must be 0..7")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "_volume", tetrahedron_volume_sixths(verts))
        if self._volume == 0:
            raise DomainError(f"vertices {verts} are coplanar")

    @property
    def volume_sixths(self) -> int:
        return self._volume

    def has_hyperdiagonal(self) -> bool:
        return any(v ^ 7 in self.vertices for v in self.vertices)


@dataclass(frozen=True)
class Triangulation:
    """A catalog entry: tetrahedra plus every derived attribute.

    constraints is the exact membership test: a positive table induces this
    triangulation iff its form signs strictly satisfy every (letter, sign)
    pair.  face_diagonals is indexed in FACES order; vertex_incidence packs,
    for each vertex, which of its three facet diagonals pass through it
    (bit 2 for the x-facet, bit 1 for the y-facet, bit 0 for the z-facet).
    """

    canonical_id: int
    tetrahedra: tuple[Tetrahedron, ...]
    constraints: frozenset[tuple[str, int]]
    face_diagonals: tuple[tuple[int, int], ...]
    vertex_incidence: tuple[int, ...]
    full_vertices: tuple[int, ...]
    empty_vertices: tuple[int, ...]
    has_hyperdiagonal: bool
    anti_aligned_axes: int
    type_class: str
    orbit_rep: int

    def encoding(self) -> tuple[tuple[int, ...], ...]:
        return tuple(t.vertices for t in self.tetrahedra)


# ---------------------------------------------------------------------------
# Circuits and enumeration


# The 20 forms are the circuits of the cube's vertex set (its minimal affinely
# dependent subsets), each split into its positive and its negative part.
_CIRCUITS = tuple(
    (frozenset(v for v in VERTICES if c[v] > 0), frozenset(v for v in VERTICES if c[v] < 0))
    for c in FORM_COEFFS
)


@functools.cache
def _tetrahedra() -> tuple[Tetrahedron, ...]:
    """The 58 nondegenerate tetrahedra, in lexicographic order, shared by all entries."""
    return tuple(
        Tetrahedron(comb)
        for comb in itertools.combinations(VERTICES, 4)
        if tetrahedron_volume_sixths(comb) != 0
    )


@functools.cache
def _tetrahedron_index() -> dict[tuple[int, ...], int]:
    """Position of each tetrahedron in ``_tetrahedra()``, by its sorted vertices."""
    return {t.vertices: i for i, t in enumerate(_tetrahedra())}


def _cover_key(tets: Iterable[Iterable[int]]) -> int:
    """The 58-bit key of a set of tetrahedra, given by their vertices in any
    order: bit i stands for ``_tetrahedra()[i]``.  Raises KeyError when a
    vertex set is not one of the 58 tetrahedra."""
    index = _tetrahedron_index()
    key = 0
    for t in tets:
        key |= 1 << index[tuple(sorted(set(t)))]
    return key


def _properly_intersecting(vertices: np.ndarray) -> np.ndarray:
    """(n, n) bool: whether the tetrahedra on these (n, 4) vertices meet in a
    common face (possibly empty).  Two simplices of a point set do iff no
    circuit has its positive part in one and its negative part in the other
    (De Loera, Rambau & Santos, *Triangulations*, 2010); both signs of each
    form are tried, as subset tests on 8-bit vertex masks."""
    bits = 1 << np.arange(8)
    masks = bits[vertices].sum(axis=1)[:, None]
    pos, neg = (FORM_MATRIX > 0) @ bits, (FORM_MATRIX < 0) @ bits
    crossing = ((masks & pos) == pos) @ ((masks & neg) == neg).T
    return ~(crossing | crossing.T)


def _enumerate_encodings() -> list[tuple[tuple[int, ...], ...]]:
    """All interior-disjoint tetrahedron covers of the cube, as sorted tuples
    of sorted vertex tuples."""
    tets = [t.vertices for t in _tetrahedra()]
    vols = [t.volume_sixths for t in _tetrahedra()]
    n = len(tets)
    compatible = _properly_intersecting(np.array(tets))
    np.fill_diagonal(compatible, False)
    compat_mask = (compatible @ (np.uint64(1) << np.arange(n, dtype=np.uint64))).tolist()

    found: list[tuple[tuple[int, ...], ...]] = []

    def extend(chosen: list[int], volume: int, candidates: int, floor: int) -> None:
        if volume == 6:
            found.append(tuple(sorted(tets[i] for i in chosen)))
            return
        m = candidates
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            if j < floor:
                continue
            if volume + vols[j] <= 6:
                chosen.append(j)
                extend(chosen, volume + vols[j], candidates & compat_mask[j], j + 1)
                chosen.pop()

    # every cover has a tetrahedron containing vertex 0; start there to avoid
    # revisiting permutations of the same cover
    for i in range(n):
        if 0 in tets[i]:
            extend([i], vols[i], compat_mask[i], i + 1)
    return sorted(found)


# ---------------------------------------------------------------------------
# Constraint derivation


# The form of the one circuit in each 5-vertex set of the cube: a 5-vertex
# circuit's support, or a 4-vertex one's plus any fifth vertex.
_FORM_OF_SPAN = {
    pos | neg | {v}: i
    for i, (pos, neg) in enumerate(_CIRCUITS)
    for v in VERTICES
    if len(pos | neg | {v}) == 5
}


def derive_constraints(tetrahedra) -> frozenset[tuple[str, int]]:
    """The strict sign conditions characterizing the tables that induce the
    given triangulation.

    An interior wall (a triangle shared by two tetrahedra) and its two apexes
    span five vertices that support exactly one circuit, one of the 20 forms.
    The lifted surface is locally concave across the wall iff that form,
    signed positive on the apexes, is negative on the height vector; so each
    wall gives one (letter, sign) condition, the sign opposite to the apex
    coefficient.
    """
    sets = [frozenset(t.vertices if isinstance(t, Tetrahedron) else t) for t in tetrahedra]
    out = set()
    for a, b in itertools.combinations(sets, 2):
        wall = a & b
        if len(wall) != 3:
            continue
        (apex_a,) = a - wall
        (apex_b,) = b - wall
        span = a | b
        index = _FORM_OF_SPAN.get(span)
        if index is None:
            raise CatalogError(f"no form spans the wall and apexes {sorted(span)}")
        coeff_a, coeff_b = FORM_COEFFS[index][apex_a], FORM_COEFFS[index][apex_b]
        if coeff_a * coeff_b <= 0:
            raise CatalogError(f"apex coefficients are zero or disagree in sign: {sorted(span)}")
        out.add((FORM_LETTERS[index], -1 if coeff_a > 0 else 1))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Features


def _edge_set(encoding) -> set[tuple[int, int]]:
    return {edge for tet in encoding for edge in itertools.combinations(tet, 2)}


# Per facet, in FACES order: its two diagonals, the first through its least vertex.
_FACE_DIAGONAL_PAIRS = tuple(face_diagonal_pair(axis, value) for axis, value in FACES)


def _face_diagonals(encoding) -> tuple[tuple[int, int], ...]:
    edges = _edge_set(encoding)
    out = []
    for face, (first, second) in zip(FACES, _FACE_DIAGONAL_PAIRS):
        in_first, in_second = first in edges, second in edges
        if in_first == in_second:
            raise CatalogError(f"face {face} has {in_first + in_second} diagonals")
        out.append(first if in_first else second)
    return tuple(out)


def _vertex_incidence(diagonals) -> tuple[int, ...]:
    by_face = dict(zip(FACES, diagonals))
    return tuple(
        sum(1 << (2 - axis) for axis, bit in enumerate(vertex_bits(v)) if v in by_face[axis, bit])
        for v in VERTICES
    )


def _anti_aligned_axes(diagonals) -> int:
    through_least = {
        face: diag == pair[0] for face, diag, pair in zip(FACES, diagonals, _FACE_DIAGONAL_PAIRS)
    }
    return sum(through_least[(axis, 0)] != through_least[(axis, 1)] for axis in range(3))


def _type_label(tet_count: int, n_full: int, n_empty: int) -> str:
    """Symmetry type from structural features alone: the corner-cut covers are
    Type I; among the 6-tetrahedron triangulations the full/empty vertex
    counts separate the remaining five types."""
    if tet_count == 5:
        return "I"
    if n_full == 4:
        return "II"
    if n_full == 2 and n_empty == 2:
        return "III"
    if n_full == 0:
        return "IV"
    if n_full == 1:
        return "V"
    if n_full == 2 and n_empty == 0:
        return "VI"
    raise CatalogError(f"unclassifiable feature signature {(tet_count, n_full, n_empty)}")


# ---------------------------------------------------------------------------
# Catalog


class Catalog:
    """The immutable list of all 74 triangulations with lookup structures.

    Built from the covers' sorted tetrahedron encodings in canonical order:
    the id action, the orbit representatives and every attribute of each
    entry are derived from them, and the result is validated.  Row k of
    ``constraint_signs`` holds id k's sign on each of its constraint forms
    and 0 on the other forms, and row k of ``vertex_incidences`` holds id
    k's ``vertex_incidence``; row 0 of both is zero.  ``id_rows[s][i]`` is
    ``id_action()[s, i]`` as a Python int.
    """

    def __init__(self, encodings: Sequence[Sequence[Sequence[int]]]):
        encodings = [tuple(map(tuple, cover)) for cover in encodings]
        if encodings != sorted(set(encodings)):
            raise CatalogError("entries out of canonical order")
        try:
            keys = [_cover_key(enc) for enc in encodings]
        except KeyError as exc:
            (vertices,) = exc.args
            raise CatalogError(f"vertices {vertices} are not one of the 58 tetrahedra") from None
        self._id_action = _id_action(keys)
        self.id_rows = tuple(map(tuple, self._id_action.tolist()))
        # Stored by id, so that its transpose gathers an id's 48 images at once.
        self._index_action = np.asfortranarray(self._id_action.astype(np.int32) - 1)
        self._index_action.setflags(write=False)
        orbit_reps = self._id_action.min(axis=0).tolist()
        self.entries = tuple(
            _triangulation(cid, enc, rep)
            for cid, (enc, rep) in enumerate(zip(encodings, orbit_reps), start=1)
        )
        self._by_key = dict(zip(keys, self.entries))
        signs = np.zeros((len(self.entries) + 1, len(FORM_COEFFS)))
        for e in self.entries:
            for letter, sign in e.constraints:
                signs[e.canonical_id, FORM_INDEX[letter]] = sign
        incidences = np.array([(0,) * len(VERTICES)] + [e.vertex_incidence for e in self.entries])
        for table in (signs, incidences):
            table.setflags(write=False)
        self.constraint_signs, self.vertex_incidences = signs, incidences
        # Bit i of constraint_masks[k] is set when form i is a constraint of
        # id k+1, and the same bit of constraint_vals[k] when its sign is +.
        bits = 1 << np.arange(len(FORM_COEFFS))
        self.constraint_masks = (signs[1:] != 0) @ bits
        self.constraint_vals = (signs[1:] > 0) @ bits
        self._resolved: dict[tuple[int, int], int] = {}
        # Id of each full 20-bit sign code, 0 until resolved: 1 MB of zero
        # pages, of which the batch classifier touches only the codes it meets.
        self._pattern_ids = np.zeros(1 << len(FORM_COEFFS), dtype=np.int8)
        self._validate()

    def _validate(self) -> None:
        if len(self.entries) != 74:
            raise CatalogError(f"expected 74 triangulations, got {len(self.entries)}")
        five = sum(1 for e in self.entries if len(e.tetrahedra) == 5)
        if five != 2:
            raise CatalogError(f"expected 2 five-tetrahedron covers, got {five}")
        for e in self.entries:
            if sum(t.volume_sixths for t in e.tetrahedra) != 6:
                raise CatalogError(f"entry {e.canonical_id} volumes do not fill the cube")
        reps = {e.orbit_rep for e in self.entries}
        if len(reps) != 6:
            raise CatalogError(f"expected 6 symmetry orbits, got {len(reps)}")
        labels = {self[r].type_class for r in reps}
        if len(labels) != 6:
            raise CatalogError("type labels are not distinct across orbits")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, canonical_id: int) -> Triangulation:
        i = _integer(canonical_id, "triangulation id")
        if not 1 <= i <= len(self.entries):
            raise DomainError(f"unknown triangulation id {i}")
        return self.entries[i - 1]

    def entry_by_tets(self, tets) -> Triangulation:
        try:
            return self._by_key[_cover_key(tets)]
        except KeyError:
            raise DomainError("tetrahedron set is not a triangulation of the cube") from None

    def id_action(self) -> np.ndarray:
        """(48, 74) array: entry [s, i] is the id of GROUP[s] applied to id i+1."""
        return self._id_action

    def index_action(self) -> np.ndarray:
        """Read-only (48, 74) int32 array: entry [s, i] is the 0-based index
        of GROUP[s] applied to id i+1, ``id_action() - 1``.  It is stored in
        column-major order: its transpose is contiguous."""
        return self._index_action

    def orbit_representatives(self) -> tuple[int, ...]:
        return tuple(sorted({e.orbit_rep for e in self.entries}))

    def type_representative(self, label: str) -> Triangulation:
        for rep in self.orbit_representatives():
            if self[rep].type_class == label:
                return self[rep]
        raise DomainError(f"unknown type label {label!r}")

    def orbit_members(self, canonical_id: int) -> tuple[int, ...]:
        rep = self[canonical_id].orbit_rep
        return tuple(e.canonical_id for e in self.entries if e.orbit_rep == rep)

    def resolve_signs(self, pos: int, neg: int) -> int:
        """Catalog id whose constraint set a partial sign vector strictly
        satisfies, or 0 if none does.

        Bit i of ``pos`` (``neg``) is set when form i is positive
        (negative); a form in neither is zero or undecided, which matters
        only if the form is one of the id's constraints.
        """
        key = (pos, neg)
        found = self._resolved.get(key)
        if found is None:
            masks, vals = self.constraint_masks, self.constraint_vals
            hits = np.nonzero(((pos & masks) == vals) & ((neg & masks) == (masks & ~vals)))[0]
            if len(hits) > 1:
                raise CatalogError(
                    f"sign pattern +{pos:020b} -{neg:020b} matches {len(hits)} constraint sets"
                )
            found = int(hits[0]) + 1 if len(hits) else 0
            self._resolved[key] = found
        return found

    @functools.cached_property
    def face_ids(self) -> Callable[..., int]:
        """The face-first tier of the exact classifier: a function of a
        table's 8 integers that returns its id, or 0 to leave the table to
        the full kernel (see ``classify_exact``).  Compiled on first read,
        from this catalog's constraint sets."""
        return _compile_face_tier(_face_candidates(self.entries))


def _id_action(keys: Sequence[int]) -> np.ndarray:
    """(48, n) array: entry [s, i] is the id of GROUP[s] applied to id i+1,
    the cover whose 58-bit key is ``keys[i]``.

    Each symmetry relabels the 58 tetrahedra once, by their vertex masks,
    and each image key is looked up among the sorted keys.  Raises
    CatalogError unless every symmetry permutes the ids.
    """
    vertices = np.array([t.vertices for t in _tetrahedra()])
    bits = np.uint64(1) << np.arange(len(vertices), dtype=np.uint64)
    keys = np.array(keys, dtype=np.uint64)
    member = (keys[:, None] & bits) != 0
    bit_of_mask = np.zeros(256, dtype=np.uint64)
    bit_of_mask[(1 << vertices).sum(axis=1)] = bits
    image_masks = (1 << np.array(symmetry.VERTEX_MAPS)[:, vertices]).sum(axis=2)
    image_keys = bit_of_mask[image_masks] @ member.T
    order = np.argsort(keys)
    at = np.searchsorted(keys[order], image_keys).clip(max=max(len(keys) - 1, 0))
    action = np.where(keys[order][at] == image_keys, order[at] + 1, 0)
    if not (np.sort(action, axis=1) == np.arange(1, len(keys) + 1)).all():
        raise CatalogError("symmetry action is not a bijection on ids")
    return action


def _triangulation(
    cid: int, encoding: tuple[tuple[int, ...], ...], orbit_rep: int
) -> Triangulation:
    """Catalog entry ``cid`` on a sorted tetrahedron encoding, with every
    attribute derived from it."""
    diagonals = _face_diagonals(encoding)
    incidence = _vertex_incidence(diagonals)
    full = tuple(v for v in VERTICES if incidence[v] == 7)
    empty = tuple(v for v in VERTICES if incidence[v] == 0)
    index = _tetrahedron_index()
    tets = tuple(_tetrahedra()[index[t]] for t in encoding)
    return Triangulation(
        canonical_id=cid,
        tetrahedra=tets,
        constraints=derive_constraints(encoding),
        face_diagonals=diagonals,
        vertex_incidence=incidence,
        full_vertices=full,
        empty_vertices=empty,
        has_hyperdiagonal=any(t.has_hyperdiagonal() for t in tets),
        anti_aligned_axes=_anti_aligned_axes(diagonals),
        type_class=_type_label(len(tets), len(full), len(empty)),
        orbit_rep=orbit_rep,
    )


def _build_catalog() -> Catalog:
    return Catalog(_enumerate_encodings())


@functools.lru_cache(maxsize=1)
def get_catalog() -> Catalog:
    """The shared catalog instance, built once per process."""
    return _build_catalog()


# ---------------------------------------------------------------------------
# Classification


def _classified(catalog: Catalog, pos: int, neg: int) -> Triangulation:
    """The entry whose constraint set the exact sign bits strictly satisfy.
    Raises DegenerateTable when a vanishing sign prevents any constraint
    set from being strictly satisfied."""
    found = catalog.resolve_signs(pos, neg)
    if found:
        return catalog.entries[found - 1]
    if not pos | neg:
        raise DegenerateTable("all forms vanish")
    if pos | neg != _ALL_FORMS:
        raise DegenerateTable("a relevant form vanishes; no triangulation induced")
    raise CatalogError("nonzero sign vector matches no constraint set")


def _face_candidates(entries: Sequence[Triangulation]) -> tuple[tuple, ...]:
    """Per face code, the ``(id, ((form, sign), ...))`` of every entry with
    that code, with its constraints on the forms other than a-f.

    Bit i of a face code is set when facet form i (one of a-f) is positive,
    which is when the facet's diagonal through its least vertex is present
    (``FACE_FORM``); an entry's code is read from its face diagonals.
    Raises CatalogError when an entry's constraints on a-f disagree."""
    candidates: list[list] = [[] for _ in range(1 << len(FACES))]
    for e in entries:
        signs = {
            FACE_FORM[face]: 1 if diagonal == pair[0] else -1
            for face, diagonal, pair in zip(FACES, e.face_diagonals, _FACE_DIAGONAL_PAIRS)
        }
        if any(signs.get(letter, sign) != sign for letter, sign in e.constraints):
            raise CatalogError(
                f"entry {e.canonical_id}: a constraint on a-f disagrees with its face diagonals"
            )
        code = sum(1 << FORM_INDEX[letter] for letter, sign in signs.items() if sign > 0)
        rest = sorted((FORM_INDEX[c], sign) for c, sign in e.constraints if c not in signs)
        candidates[code].append((e.canonical_id, tuple(rest)))
    return tuple(map(tuple, candidates))


def _compile_face_tier(candidates: Sequence[Sequence]) -> Callable[..., int]:
    """The face-first tier as one straight-line function of the 8 integer
    entries ``n0..n7``, returning an id or 0.

    The six facet monomial pairs are formed once, as ``x0..x5`` and
    ``y0..y5``.  A decision tree compares them, returning 0 on the first
    tie; at its leaf, each candidate of the face code is tested on its
    other constraints, strictly.  The leaf returns the one candidate that
    passes, and 0 when none or several do, or the code has no candidate.
    The comparisons are generated from ``_FOUR_TERM`` and ``_FIVE_TERM``,
    as in the sign kernel.
    """
    sides = [
        (" * ".join(f"n{v}" for v in vertices[:half]), " * ".join(f"n{v}" for v in vertices[half:]))
        for _, *vertices in _FOUR_TERM + _FIVE_TERM
        for half in [len(vertices) // 2]
    ]
    facets = [FORM_INDEX[FACE_FORM[face]] for face in FACES]
    lines = []
    for depth, form in enumerate(facets):
        lines += [f"x{depth} = {sides[form][0]}", f"y{depth} = {sides[form][1]}"]

    def node(depth: int, code: int, pad: str) -> None:
        if depth == len(FACES):
            if not candidates[code]:
                lines.append(f"{pad}return 0")
                return
            lines.append(f"{pad}found = 0")
            for k, (cid, rest) in enumerate(candidates[code]):
                tests = [
                    f"{sides[i][0]} {'>' if sign > 0 else '<'} {sides[i][1]}" for i, sign in rest
                ]
                lines.append(f"{pad}if {' and '.join(tests) or 'True'}:")
                if k:
                    lines.append(f"{pad}    if found: return 0")
                lines.append(f"{pad}    found = {cid}")
            lines.append(f"{pad}return found")
            return
        # each branch returns, so the second test runs only when x <= y
        lines.append(f"{pad}if x{depth} > y{depth}:")
        node(depth + 1, code | 1 << facets[depth], pad + "    ")
        lines.append(f"{pad}if x{depth} < y{depth}:")
        node(depth + 1, code, pad + "    ")
        lines.append(f"{pad}return 0")

    node(0, 0, "")
    return _compiled("_face_ids", lines)


def _exact_id(catalog: Catalog, integers: Sequence[int]) -> int:
    """The id of a positive table's integers: the face-first tier's, or
    else the full kernel's through ``_classified``."""
    found = catalog.face_ids(*integers)
    return found or _classified(catalog, *_int_sign_bits(*integers)).canonical_id


def classify_exact(table: Table3, catalog: Catalog | None = None) -> Triangulation:
    """The triangulation induced by a strictly positive table, decided by
    exact integer comparisons.  Raises DegenerateTable when a vanishing sign
    prevents any constraint set from being strictly satisfied, and
    DomainError when ``table`` is not a ``Table3``.

    Two tiers decide it, both exact.  The face-first tier (``face_ids``)
    compares the six layer determinants, forms a-f.  On each facet, the
    triangulation a table induces has the diagonal its layer's sign
    selects, so every id whose constraints the table strictly satisfies
    has the table's face code: it is one of that code's 1 to 5 candidates.
    The code decides each candidate's constraints on a-f, so the tier
    tests only the others (at most four).  A candidate that passes them
    strictly satisfies its whole constraint set; when exactly one does, it
    is the id the full kernel would resolve.  A tie on a facet, or no or
    two passing candidates, leaves the table to the full kernel: the 20
    form signs resolved by ``_classified``, which gives every other id and
    raises every DegenerateTable and CatalogError.
    """
    if not isinstance(table, Table3):
        _check_tables(Table3, table)  # raises, naming the type
    if catalog is None:
        catalog = get_catalog()
    return catalog.entries[_exact_id(catalog, table.integers) - 1]


def classify_heights_batch(heights: np.ndarray, catalog: Catalog | None = None) -> np.ndarray:
    """Vectorized classification of height vectors (rows of log-entries).

    Returns 1-based catalog ids.  A form is undecided on a row when its
    evaluation falls within the margin DEFAULT_TOLERANCE * ||coeffs|| *
    max(1, ||h||inf) of zero; a row with undecided forms is resolved from
    the decided ones, so it still gets its id when none of them is among
    that id's constraints.  0 marks a row whose max|h| is not below
    2^1020 (NaN and infinite rows included), where a form may overflow, or
    that has an undecided form among the constraints of every id its
    decided forms allow.  A caller that holds the entries, or a large
    batch, calls ``classify_entries_batch`` instead, whose ids are exact.

    The forms are evaluated by one BLAS product on the heights transposed
    to (8, w), w being n rounded up to 8 columns (64 bytes of float64)
    with zeros after the rows.  OpenBLAS sums the last columns of a product
    in another order when they do not fill its kernel's width (one column
    goes to gemv), so the padding makes each row's forms, and with them its
    id, the same in any call.  Each row's signs and undecided forms are
    packed into two 20-bit codes.  A row without undecided forms reads its
    id from the catalog's memo of full sign codes, which resolves each code
    the first time it is met; any other row resolves its (positive,
    negative) sign pattern through ``Catalog.resolve_signs``, which
    memoizes each pattern.
    """
    if catalog is None:
        catalog = get_catalog()
    h = np.asarray(heights, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != 8:
        raise DomainError("heights must be an (n, 8) array")
    n = len(h)
    hT = np.zeros((8, -(-n // 8) * 8))
    hT[:, :n] = h.T
    with np.errstate(invalid="ignore", over="ignore"):
        values = FORM_MATRIX @ hT
        scale = np.maximum(1.0, np.abs(hT).max(axis=0))
        codes = (_POW2F @ (values > 0))[:n].astype(np.int64)
        undecided = _POW2F @ (np.abs(values, out=values) < _MARGIN[:, None] * scale)
    undecided = undecided[:n].astype(np.int64)
    inside = scale[:n] < _HEIGHT_MAX
    ids = _memo_ids(catalog, codes, inside & (undecided == 0))
    partial = np.nonzero(inside & (undecided != 0))[0]
    if partial.size:
        open_forms = undecided[partial]
        pos = codes[partial] & ~open_forms
        neg = ~codes[partial] & ~open_forms & _ALL_FORMS
        ids[partial] = [catalog.resolve_signs(p, q) for p, q in zip(pos.tolist(), neg.tolist())]
    return ids


def _screen_block(
    hT: np.ndarray, values: np.ndarray, codes: np.ndarray, certified: np.ndarray
) -> None:
    """The float32 screen of ``classify_entries_batch`` on one block of
    (..., 8, b) float32 heights ``hT``, which it overwrites with their
    absolute values: the (..., 20, b) form values go to ``values``, and
    each row's 20-bit sign code and whether it is certified to the (..., b)
    ``codes`` and ``certified``.

    A row is certified when its heights are finite with max|h| < 2^64 and
    every |form value| is at least ``_SCREEN * scale``, scale being max(1,
    max|h|).  The bound: write v32 for a form's float32 value and v for its
    exact value on the float64 heights the block was cast from.  Casting
    to float32 moves each height by at most 2^-24 * scale, and the
    coefficients have sum |c| <= 6, so v moves by at most 3.6e-7 * scale.
    The float32 sum has at most five nonzero terms, each an exact product
    as c is in {+-1, +-2}, so it rounds at most five times: gamma_5 * 6 *
    scale ~ 1.8e-6 * scale (subnormal results round by 2^-150 at most, and
    scale >= 1).  So |v32 - v| < 2.2e-6 * scale.  The float32 threshold is
    within a relative 2^-22 of 1e-5 * scale, so every form of a certified
    row has |v| >= 7.7e-6 * scale, with the sign of v32: the row's sign
    code is exact on its float64 heights, and every form lies about 2 700
    times the float64 margin rule's widest margin (2.8e-9 * scale) from 0.

    Heights beyond float32's range became inf in the cast, silently (the
    caller ignores float errors); such rows, like every row with max|h| >=
    2^64, are not certified, which keeps each product and partial sum far
    from float32 overflow."""
    np.matmul(_FORM_MATRIX32, hT, out=values)
    codes[...] = _POW2F32 @ (values > 0)
    np.abs(values, out=values)
    scale = np.abs(hT, out=hT).max(axis=-2)
    np.maximum(scale, 1.0, out=scale)
    # NaN fails both comparisons and inf the second: non-finite rows never certify
    np.logical_and(values.min(axis=-2) >= _SCREEN * scale, scale < _SCREEN_MAX, out=certified)


def classify_entries_batch(*parts: np.ndarray) -> np.ndarray:
    """Exact ids of 2x2x2 tables given by their raw float64 entries.

    Each part is an (n, 8, t) array (a view will do): row i holds t tables,
    and table j's entries are ``parts[0][i, :, j] + parts[1][i, :, j] +
    ...``, summed exactly.  Returns the (t, n) int64 ids; 0 marks a table
    that is not finite and strictly positive, or on which ``classify_exact``
    raises DegenerateTable.  The parts of a sum should be nonnegative.

    The call walks the rows in blocks of ``_BLOCK``, so that each block's
    buffers, allocated once per call, stay in cache.  A block's entries
    are summed in floats (one part needs no sum), their float64 logs
    taken, and the logs transposed once, as float32, into one (t, 8, b)
    buffer that the float32 screen (``_screen_block``) evaluates.  A
    certified table reads its id from the catalog's memo of sign codes.
    Its id is exact: the screen's bound (see ``_screen_block``) leaves
    every form at least 7.7e-6 * scale from 0, and the heights miss the
    exact logs of the table by two terms only.  An ``np.log`` error of k
    ulps moves a form by at most 6 * k * 2^-52 * scale, and rounding the
    sum of p parts moves a height by at most (p - 1) * 2^-53, a form by 6
    times that.  Both are far below 7.7e-6 * scale for any k < 1 000.
    Every other table (ties, near ties, non-finite or non-positive tables,
    about 1.4e-4 of Exp(1) tables) is decided on its doubles: the parts'
    entries as integers over their largest power-of-two denominator,
    summed exactly, through ``classify_exact``'s two tiers.
    """
    catalog = get_catalog()
    parts = [np.asarray(q, dtype=np.float64) for q in parts]
    shape = parts[0].shape if parts else ()
    if len(shape) != 3 or shape[1] != 8 or any(q.shape != shape for q in parts):
        raise DomainError("entries must be (n, 8, t) arrays of one shape")
    n, _, t = shape
    width = min(n, _BLOCK)
    codes = np.empty((t, n), dtype=np.int32)
    certified = np.empty((t, n), dtype=bool)
    logs = np.empty((width, 8, t))
    heights = np.empty(t * 8 * width, dtype=np.float32)
    values = np.empty(t * len(FORM_COEFFS) * width, dtype=np.float32)
    with np.errstate(all="ignore"):
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            b = hi - lo
            block = parts[0][lo:hi]
            for q in parts[1:]:
                block = np.add(block, q[lo:hi], out=logs[:b])
            np.log(block, out=logs[:b])
            hT = heights[: t * 8 * b].reshape(t, 8, b)
            np.copyto(hT, logs[:b].transpose(2, 1, 0), casting="same_kind")
            block_values = values[: t * len(FORM_COEFFS) * b].reshape(t, len(FORM_COEFFS), b)
            _screen_block(hT, block_values, codes[:, lo:hi], certified[:, lo:hi])
    ids = _memo_ids(catalog, codes, certified)
    for j, i in zip(*np.nonzero(~certified)):
        ids[j, i] = _entry_id(catalog, [q[i, :, j] for q in parts])
    return ids


def _entry_id(catalog: Catalog, rows: Sequence[np.ndarray]) -> int:
    """The exact id of the exact sum of rows of 8 doubles, or 0 when that
    sum is not finite and strictly positive or is degenerate."""
    values = [v for row in rows for v in row.tolist()]
    if not all(map(math.isfinite, values)):
        return 0
    integers, _ = _power_of_two_scale(values)
    table = integers[:8]
    for lo in range(8, len(integers), 8):
        table = list(map(operator.add, table, integers[lo : lo + 8]))
    if min(table) <= 0:
        return 0
    try:
        return _exact_id(catalog, table)
    except DegenerateTable:
        return 0


def _memo_ids(catalog: Catalog, codes: np.ndarray, clean: np.ndarray) -> np.ndarray:
    """The int64 ids of the clean rows' full sign codes, read from the
    catalog's memo, which resolves each code the first time it is met; 0
    on every other row."""
    memo = catalog._pattern_ids
    ids = memo[codes]
    unseen = clean & (ids == 0)
    if unseen.any():
        # each distinct code once, from one sorted copy; np.unique would
        # build a hash table sized by its input, outside numpy's allocator
        fresh = codes[unseen]
        fresh.sort()
        for code in fresh[np.r_[True, fresh[1:] != fresh[:-1]]].tolist():
            memo[code] = _classified(catalog, code, ~code & _ALL_FORMS).canonical_id
        ids = memo[codes]
    return np.where(clean, ids, 0).astype(np.int64)


@functools.cache
def _lifting_residuals() -> tuple[np.ndarray, np.ndarray]:
    """The (58·8, 8) matrix whose row (t, w) takes heights h to h_w − L_t(w),
    L_t being the affine interpolant of h on tetrahedron t, and the (58, 8)
    mask of the vertices of each tetrahedron, whose rows are zero.

    The barycentric coordinates of a cube vertex on t have the denominator
    det [p 1] = ±6·volume, which is ±1 or ±2, so every entry is a multiple
    of 1/2: the solved coordinates are rounded to halves, checked, and are
    exact as floats.
    """
    tets = np.array([t.vertices for t in _tetrahedra()])
    n = len(tets)
    lifted = np.column_stack([np.array(VERTEX_COORDS), np.ones(8)])    # rows [p 1]
    bary = np.linalg.solve(lifted[tets].transpose(0, 2, 1), np.broadcast_to(lifted.T, (n, 4, 8)))
    halves = np.rint(2 * bary)
    if np.abs(2 * bary - halves).max() > 1e-9:
        raise CatalogError("barycentric coordinates on a tetrahedron are not halves")
    residuals = np.tile(np.eye(8), (n, 1, 1))
    residuals[np.arange(n)[:, None, None], np.arange(8), tets[:, :, None]] -= halves / 2
    inside = np.zeros((n, 8), dtype=bool)
    inside[np.arange(n)[:, None], tets] = True
    residuals = residuals.reshape(n * 8, 8)
    for shared in (residuals, inside):
        shared.setflags(write=False)
    return residuals, inside


def classify_float_oracle(
    heights: Sequence[float], catalog: Catalog | None = None
) -> Triangulation:
    """Independent classifier by the lifting test over the 58 tetrahedra: a
    tetrahedron is a cell of the upper envelope of the lifted vertices iff
    every vertex outside it lies strictly below the hyperplane through its
    own four lifted vertices (the regular-subdivision definition; De Loera,
    Rambau & Santos, *Triangulations*, 2010).  The triangulation is read off
    the set of such cells.

    It reads no constraint set and no sign code.  Raises DomainError when
    max|h| is not below 2^1020, where a product may overflow (every form
    and residual row has sum |c| <= 6), DegenerateTable when a form
    evaluation is within the batch path's margin of zero, and CatalogError
    when the cells are not a catalog entry.
    Development and test oracle only; the exact path never calls this.
    """
    if catalog is None:
        catalog = get_catalog()
    h = np.asarray(heights, dtype=np.float64)
    if h.shape != (8,):
        raise DomainError("oracle needs exactly 8 heights")
    top = float(np.abs(h).max())
    if not top < _HEIGHT_MAX:    # NaN fails it too
        raise DomainError("heights must be finite, with |h| < 2^1020")
    values = FORM_MATRIX @ h
    if (np.abs(values) < _MARGIN * max(1.0, top)).any():
        raise DegenerateTable("a form evaluation is within tolerance of zero")
    residuals, inside = _lifting_residuals()
    below = ((residuals @ h).reshape(inside.shape) < 0) | inside
    cells = np.flatnonzero(below.all(axis=1)).tolist()
    entry = catalog._by_key.get(sum(1 << i for i in cells))
    if entry is None:
        tets = [_tetrahedra()[i].vertices for i in cells]
        raise CatalogError(f"upper cells {tets} are not a catalog entry")
    return entry


# ---------------------------------------------------------------------------
# Catalog serialization


def catalog_to_json_obj(catalog: Catalog) -> dict:
    entries = []
    for e in catalog.entries:
        entries.append(
            {
                "canonicalId": e.canonical_id,
                "tetrahedra": [list(t.vertices) for t in e.tetrahedra],
                "constraints": [
                    {"form": letter, "sign": "+" if sign > 0 else "-"}
                    for letter, sign in sorted(e.constraints)
                ],
                "faceDiagonals": [list(d) for d in e.face_diagonals],
                "vertexIncidence": list(e.vertex_incidence),
                "fullVertices": list(e.full_vertices),
                "emptyVertices": list(e.empty_vertices),
                "hasHyperdiagonal": e.has_hyperdiagonal,
                "antiAlignedAxes": e.anti_aligned_axes,
                "typeClass": e.type_class,
                "orbitRep": e.orbit_rep,
                "orbitMembers": list(catalog.orbit_members(e.canonical_id)),
            }
        )
    return {"triangulationCount": len(catalog), "entries": entries}


def catalog_from_json_obj(obj: dict) -> Catalog:
    """Rebuild a catalog from the tetrahedra of its JSON export, each checked
    as a ``Tetrahedron``; every other attribute is derived again, and every
    stored key of each record is compared with the rebuilt record.  A
    missing, extra or differing key raises CatalogError, as does an export
    without an entry list, an entry without tetrahedra or a tetrahedron
    that is not one."""
    try:
        records = list(obj["entries"])
        tets = [[Tetrahedron(t).vertices for t in rec["tetrahedra"]] for rec in records]
    except (KeyError, TypeError, DomainError) as exc:
        raise CatalogError(f"malformed catalog export: {exc!r}") from exc
    catalog = Catalog([tuple(sorted(vertices)) for vertices in tets])
    rebuilt = catalog_to_json_obj(catalog)
    for cid, (rec, new) in enumerate(zip(records, rebuilt["entries"]), start=1):
        for key in sorted(rec.keys() | new.keys()):
            if rec.get(key) != new.get(key):
                raise CatalogError(f"entry {cid}: stored {key} differs from the rebuilt one")
    if obj != rebuilt:
        raise CatalogError("stored catalog differs from the rebuilt one")
    return catalog
