"""Parity obstruction for Simpson conversions and the lemma inequality systems.

A conversion from triangulation A to triangulation B needs two tables
inducing A whose sum induces B.  The obstruction: if some vertex is incident
to an odd number of facet diagonals in A and B shows the complementary
diagonal set at that vertex, no such pair of tables exists.  The same parity
argument blocks a summand-unordered triple {A, B} -> C when both summands
share an odd incidence pattern at a vertex and C complements it.

The lemma checkers evaluate, exactly, the inequality systems behind the
obstruction: the full-vertex version (all three diagonals flip) and the
single-diagonal version, plus the two-dimensional reversal relations they
build on.  The two 2x2x2 lemmas are the parity rule at one vertex, read off
the sign kernel's facet forms of F, G and F + G.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .symmetry import OrbitClass, key_rows, pad_key
from .tables import FACE_FORM, FACES, FORM_INDEX, Reversal2D, Table2, Table3, detect_reversal_2d
from .tables import _pair_sign_bits
from .triangulation import _FACE_DIAGONAL_PAIRS, Triangulation, _vertex_incidence, get_catalog


@dataclass(frozen=True)
class ObstructionVerdict:
    obstructed: bool
    witness_vertex: Optional[int]


# Whether a vertex incidence pattern has an odd number of diagonals.
_ODD = np.array([pattern.bit_count() % 2 for pattern in range(8)], dtype=bool)


def obstructing_vertices(catalog, rows: np.ndarray) -> np.ndarray:
    """The parity rule, in one pass over (m, 3) ``key_rows`` rows of vertex
    incidences: per row, the first vertex where both summands show one odd
    pattern and the sum its complement, or -1.  The rule is invariant under
    the cube symmetries and summand swaps."""
    a, b, c = catalog.vertex_incidences[rows.T]
    hit = (a == b) & _ODD[a] & (c == a ^ 7)
    return np.where(hit.any(axis=1), hit.argmax(axis=1), -1)


def _verdict(*key: int) -> ObstructionVerdict:
    (vertex,) = obstructing_vertices(get_catalog(), np.array([pad_key(key)])).tolist()
    return ObstructionVerdict(vertex >= 0, vertex if vertex >= 0 else None)


def obstruction(a: Triangulation, b: Triangulation) -> ObstructionVerdict:
    """Whether a conversion from a to b is impossible by parity: some vertex
    with odd diagonal incidence in a whose incidence in b is the complement."""
    return _verdict(a.canonical_id, b.canonical_id)


def obstruction_triple(a: Triangulation, b: Triangulation, c: Triangulation) -> ObstructionVerdict:
    """Whether {a, b} -> c is impossible: both summands show the same odd
    incidence pattern at some vertex and c shows the complement."""
    return _verdict(a.canonical_id, b.canonical_id, c.canonical_id)


def infeasible_pair_classes(catalog, classes: Sequence[OrbitClass]) -> list[OrbitClass]:
    """The pair or triple classes ruled out by the obstruction."""
    vertices = obstructing_vertices(catalog, key_rows([c.representative for c in classes], catalog))
    return [cls for cls, vertex in zip(classes, vertices.tolist()) if vertex >= 0]


infeasible_triple_classes = infeasible_pair_classes


def per_type_obstructed_counts(catalog, pair_classes: Sequence[OrbitClass]) -> dict[str, int]:
    """How many obstructed pair classes have their first component in each
    symmetry type."""
    counts = {catalog[rep].type_class: 0 for rep in catalog.orbit_representatives()}
    for cls in infeasible_pair_classes(catalog, pair_classes):
        counts[catalog[cls.representative[0]].type_class] += 1
    return counts


# ---------------------------------------------------------------------------
# Lemma inequality systems, evaluated exactly on rational tables.

# The incidence pattern at the vertex that both summands of lemma 2 (all
# three facet diagonals through it) and lemma 3 (only the z-facet's) show.
_LEMMA_PATTERN = {2: 7, 3: 1}


def _check_instance(lemma: int, f, g, vertex: int) -> None:
    """Raise DomainError unless (f, g, vertex) is an instance of the lemma."""
    if lemma == 1:
        if not isinstance(f, Table2) or not isinstance(g, Table2):
            raise DomainError("lemma 1 applies to 2x2 tables")
        for table, name in ((f, "f"), (g, "g")):
            if not table.strictly_positive():
                raise DomainError(f"{name} must be strictly positive")
        if not 0 <= vertex <= 3:
            raise DomainError("2x2 corners are indexed 0..3")
    elif lemma in _LEMMA_PATTERN:
        if not isinstance(f, Table3) or not isinstance(g, Table3):
            raise DomainError(f"lemma {lemma} applies to 2x2x2 tables")
        if not 0 <= vertex <= 7:
            raise DomainError("cube vertices are indexed 0..7")
    else:
        raise DomainError(f"unknown lemma {lemma}")


# The sign bits of the facet forms a-f.  The callers mask the kernel's bits
# to them, so at most 3^6 facet sign states are cached.
_FACETS = sum(1 << FORM_INDEX[letter] for letter in FACE_FORM.values())


@functools.cache
def _incidences(pos: int, neg: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per vertex, the incidence patterns of the facet diagonals shown
    through it and avoiding it by a table whose facet forms have the sign
    bits ``pos`` and ``neg``.  A vanishing facet form shows neither."""
    shown, hidden = [], []
    for face, pair in zip(FACES, _FACE_DIAGONAL_PAIRS):
        bit = 1 << FORM_INDEX[FACE_FORM[face]]
        first, second = pair if pos & bit else pair[::-1] if neg & bit else ((), ())
        shown.append(first)
        hidden.append(second)
    return _vertex_incidence(shown), _vertex_incidence(hidden)


def lemma_hypothesis_check(lemma: int, f, g, vertex: int) -> bool:
    """Whether the hypothesis inequalities of the given lemma hold at vertex.

    Lemma 1 takes 2x2 tables and a corner: both tables carry the diagonal
    through the corner while their sum does not.  Lemmas 2 and 3 take 2x2x2
    tables and a cube vertex, and are the parity rule at that vertex: of
    the three facet diagonals, both tables show strictly through the vertex
    exactly all three (lemma 2) or exactly the z-facet's (lemma 3).
    """
    _check_instance(lemma, f, g, vertex)
    if lemma == 1:
        shown = Reversal2D.POS_TO_NEG if vertex in (0, 3) else Reversal2D.NEG_TO_POS
        return detect_reversal_2d(f, g) is shown
    (through_f, _), (through_g, _) = (
        _incidences(pos & _FACETS, neg & _FACETS) for pos, neg in _pair_sign_bits(f, g)[:2]
    )
    return through_f[vertex] == through_g[vertex] == _LEMMA_PATTERN[lemma]


def lemma_conclusion_check(lemma: int, f, g, vertex: int) -> bool:
    """Whether the lemma's asserted conclusion holds for the instance.

    Lemma 1 asserts that exactly one of its two cross-product conjunctions
    holds.  Lemmas 2 and 3 assert that the sum does not strictly show the
    complementary pattern: the diagonals through the vertex on exactly the
    other facets, and avoiding it on these.
    """
    _check_instance(lemma, f, g, vertex)
    if lemma == 1:
        # Each term of p and q is one entry of f times one of g, so the
        # tables' own integers decide their signs.
        nf, ng, c = f.integers, g.integers, vertex
        p = nf[c ^ 2] * ng[c] - nf[c] * ng[c ^ 2]
        q = nf[c ^ 1] * ng[c] - nf[c] * ng[c ^ 1]
        return (p > 0 and q < 0) != (p < 0 and q > 0)
    pos, neg = _pair_sign_bits(f, g)[2]
    through, avoid = _incidences(pos & _FACETS, neg & _FACETS)
    pattern = _LEMMA_PATTERN[lemma]
    return (through[vertex], avoid[vertex]) != (pattern ^ 7, pattern)


# ---------------------------------------------------------------------------
# Report export


def write_feasibility_report(
    path,
    catalog,
    pair_classes: Sequence[OrbitClass],
    triple_classes: Sequence[OrbitClass] = (),
) -> None:
    """CSV report, one row per class: classRep, arity, obstructed,
    obstructingVertex (empty when not obstructed)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["classRep", "arity", "obstructed", "obstructingVertex"])
        for classes, arity in ((pair_classes, 2), (triple_classes, 3)):
            rows = key_rows([cls.representative for cls in classes], catalog)
            vertices = obstructing_vertices(catalog, rows)
            for cls, vertex in zip(classes, vertices.tolist()):
                obstructed = vertex >= 0
                row = ["-".join(map(str, cls.representative)), arity, str(obstructed).lower()]
                writer.writerow(row + [vertex if obstructed else ""])
