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
build on.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DomainError
from .symmetry import OrbitClass, pad_key
from .tables import Table2, Table3
from .triangulation import Triangulation


@dataclass(frozen=True)
class ObstructionVerdict:
    obstructed: bool
    witness_vertex: Optional[int]


def _obstruction(a: Triangulation, b: Triangulation, c: Triangulation) -> ObstructionVerdict:
    """The parity test on a (summand, summand, sum) triple."""
    for v in range(8):
        inc = a.vertex_incidence[v]
        if (
            inc == b.vertex_incidence[v]
            and inc.bit_count() % 2 == 1
            and c.vertex_incidence[v] == inc ^ 7
        ):
            return ObstructionVerdict(True, v)
    return ObstructionVerdict(False, None)


def obstruction(a: Triangulation, b: Triangulation) -> ObstructionVerdict:
    """Whether a conversion from a to b is impossible by parity: some vertex
    with odd diagonal incidence in a whose incidence in b is the complement."""
    return _obstruction(a, a, b)


def obstruction_triple(a: Triangulation, b: Triangulation, c: Triangulation) -> ObstructionVerdict:
    """Whether {a, b} -> c is impossible: both summands show the same odd
    incidence pattern at some vertex and c shows the complement."""
    return _obstruction(a, b, c)


def _verdicts(catalog, classes: Sequence[OrbitClass]):
    """Each class with its verdict.  The predicate is orbit invariant, so it
    is decided on the representative."""
    for cls in classes:
        yield cls, _obstruction(*(catalog[i] for i in pad_key(cls.representative)))


def infeasible_pair_classes(catalog, classes: Sequence[OrbitClass]) -> list[OrbitClass]:
    """The pair or triple classes ruled out by the obstruction."""
    return [cls for cls, verdict in _verdicts(catalog, classes) if verdict.obstructed]


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


def _entry3(table: Table3, x: int, y: int, z: int):
    return table.entries[(x << 2) | (y << 1) | z]


def _require_positive_2d(table: Table2, name: str) -> None:
    if not table.strictly_positive():
        raise DomainError(f"{name} must be strictly positive")


def _corner_bits(vertex: int) -> tuple[int, int]:
    if not 0 <= vertex <= 3:
        raise DomainError("2x2 corners are indexed 0..3")
    return (vertex >> 1) & 1, vertex & 1


def _vertex_bits3(vertex: int) -> tuple[int, int, int]:
    if not 0 <= vertex <= 7:
        raise DomainError("cube vertices are indexed 0..7")
    return (vertex >> 2) & 1, (vertex >> 1) & 1, vertex & 1


def _diag_products_2d(f: Table2, x: int, y: int):
    main = f[(x, y)] * f[(1 - x, 1 - y)]
    anti = f[(1 - x, y)] * f[(x, 1 - y)]
    return anti, main


def _face_products_3d(t: Table3, x: int, y: int, z: int):
    """For each of the three facets through (x, y, z): the product over the
    diagonal avoiding the vertex, and the product over the diagonal through
    it.  Facet order: z fixed, y fixed, x fixed."""
    return (
        (_entry3(t, 1 - x, y, z) * _entry3(t, x, 1 - y, z),
         _entry3(t, x, y, z) * _entry3(t, 1 - x, 1 - y, z)),
        (_entry3(t, 1 - x, y, z) * _entry3(t, x, y, 1 - z),
         _entry3(t, x, y, z) * _entry3(t, 1 - x, y, 1 - z)),
        (_entry3(t, x, 1 - y, z) * _entry3(t, x, y, 1 - z),
         _entry3(t, x, y, z) * _entry3(t, x, 1 - y, 1 - z)),
    )


def lemma_hypothesis_check(lemma: int, f, g, vertex: int) -> bool:
    """Whether the hypothesis inequalities of the given lemma hold at vertex.

    Lemma 1 takes 2x2 tables and a corner: both tables carry the diagonal
    through the corner while their sum does not.  Lemmas 2 and 3 take 2x2x2
    tables and a cube vertex: both tables show all three diagonals through
    the vertex (lemma 2) or exactly the one on the z-fixed facet (lemma 3).
    """
    if lemma == 1:
        if not isinstance(f, Table2) or not isinstance(g, Table2):
            raise DomainError("lemma 1 applies to 2x2 tables")
        _require_positive_2d(f, "f")
        _require_positive_2d(g, "g")
        x, y = _corner_bits(vertex)
        fa, fm = _diag_products_2d(f, x, y)
        ga, gm = _diag_products_2d(g, x, y)
        sa, sm = _diag_products_2d(f + g, x, y)
        return fa < fm and ga < gm and sa > sm
    if lemma in (2, 3):
        if not isinstance(f, Table3) or not isinstance(g, Table3):
            raise DomainError(f"lemma {lemma} applies to 2x2x2 tables")
        x, y, z = _vertex_bits3(vertex)
        fp = _face_products_3d(f, x, y, z)
        gp = _face_products_3d(g, x, y, z)
        if lemma == 2:
            return all(anti < main for anti, main in fp) and all(
                anti < main for anti, main in gp
            )
        want = (True, False, False)  # diagonal through the vertex only on the z facet
        return all(
            (anti < main) == w for (anti, main), w in zip(fp, want)
        ) and all((anti < main) == w for (anti, main), w in zip(gp, want))
    raise DomainError(f"unknown lemma {lemma}")


def lemma_conclusion_check(lemma: int, f, g, vertex: int) -> bool:
    """Whether the lemma's asserted conclusion holds for the instance.

    Lemma 1 asserts that exactly one of its two cross-product conjunctions
    holds.  Lemmas 2 and 3 assert that their three sum inequalities cannot
    hold simultaneously, so the check is that the forbidden system fails.
    """
    if lemma == 1:
        x, y = _corner_bits(vertex)
        p = f[(1 - x, y)] * g[(x, y)] - f[(x, y)] * g[(1 - x, y)]
        q = f[(x, 1 - y)] * g[(x, y)] - f[(x, y)] * g[(x, 1 - y)]
        first = p > 0 and q < 0
        second = p < 0 and q > 0
        return first != second
    if lemma in (2, 3):
        x, y, z = _vertex_bits3(vertex)
        sp = _face_products_3d(f + g, x, y, z)
        if lemma == 2:
            forbidden = all(anti > main for anti, main in sp)
        else:
            forbidden = (
                sp[0][0] > sp[0][1] and sp[1][0] < sp[1][1] and sp[2][0] < sp[2][1]
            )
        return not forbidden
    raise DomainError(f"unknown lemma {lemma}")


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
            for cls, verdict in _verdicts(catalog, classes):
                writer.writerow(
                    [
                        "-".join(map(str, cls.representative)),
                        arity,
                        str(verdict.obstructed).lower(),
                        "" if verdict.witness_vertex is None else verdict.witness_vertex,
                    ]
                )
