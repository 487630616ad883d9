"""The 48 signed-permutation symmetries of the cube and their orbit machinery.

A symmetry permutes the three coordinate axes and then complements a subset
of them.  It acts on vertices by relabeling, on tables by precomposition with
the inverse relabeling, and on triangulations through the catalog's id action,
which relabels every tetrahedron once, when the catalog is built.
Orbit enumeration for single triangulations, ordered pairs, and summand-
unordered triples runs over catalog ids via the induced id permutations, as
one canonicalization of (summand, summand, sum) id triples.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import triangulation  # imports this module too; each uses the other only in calls
from .errors import DomainError
from .tables import NonnegTable3, Table3, VERTICES, _table3, vertex_bits


@dataclass(frozen=True)
class CubeSymmetry:
    """Axis permutation followed by axis complementation.

    The image of a vertex u has coordinate i equal to u[perm[i]] XOR flips[i].
    """

    perm: tuple[int, int, int]
    flips: tuple[int, int, int]

    def vertex_map(self) -> tuple[int, ...]:
        """Image vertex index for each of the 8 vertices."""
        out = []
        for v in VERTICES:
            u = vertex_bits(v)
            w = tuple(u[self.perm[i]] ^ self.flips[i] for i in range(3))
            out.append((w[0] << 2) | (w[1] << 1) | w[2])
        return tuple(out)

    def compose(self, other: "CubeSymmetry") -> "CubeSymmetry":
        """The symmetry acting as self after other."""
        perm = tuple(other.perm[self.perm[i]] for i in range(3))
        flips = tuple(other.flips[self.perm[i]] ^ self.flips[i] for i in range(3))
        return CubeSymmetry(perm, flips)  # type: ignore[arg-type]

    def inverse(self) -> "CubeSymmetry":
        pinv = [0, 0, 0]
        for i in range(3):
            pinv[self.perm[i]] = i
        flips = tuple(self.flips[pinv[j]] for j in range(3))
        return CubeSymmetry(tuple(pinv), flips)  # type: ignore[arg-type]

    @staticmethod
    def identity() -> "CubeSymmetry":
        return CubeSymmetry((0, 1, 2), (0, 0, 0))


GROUP: tuple[CubeSymmetry, ...] = tuple(
    CubeSymmetry(perm, flips)
    for perm in itertools.permutations(range(3))
    for flips in itertools.product((0, 1), repeat=3)
)

GROUP_INDEX = {sigma: i for i, sigma in enumerate(GROUP)}

VERTEX_MAPS: tuple[tuple[int, ...], ...] = tuple(sigma.vertex_map() for sigma in GROUP)

INVERSE_INDEX: tuple[int, ...] = tuple(GROUP_INDEX[sigma.inverse()] for sigma in GROUP)

ANTIPODAL_MAP = CubeSymmetry((0, 1, 2), (1, 1, 1))


def apply_vertex(sigma: CubeSymmetry, v: int) -> int:
    return VERTEX_MAPS[GROUP_INDEX[sigma]][v]


# Per symmetry, the gather that relabels a table: image entry w is the old
# entry at the preimage of w.
_TABLE_GATHER = tuple(operator.itemgetter(*VERTEX_MAPS[s]) for s in INVERSE_INDEX)


def apply_table(sigma: CubeSymmetry, table):
    """Relabeled table: the image assigns to sigma(v) the old value at v.

    The table was validated when it was built, and relabeling keeps its
    entries, so its image permutes the integers under the same denominator,
    on trust.
    """
    if isinstance(table, (Table3, NonnegTable3)):
        gather = _TABLE_GATHER[GROUP_INDEX[sigma]]
        return _table3(gather(table.integers), table.denominator, type(table))
    raise DomainError(f"cannot apply a cube symmetry to {type(table).__name__}")


def apply_vertex_set(sigma: CubeSymmetry, vertices: Iterable[int]) -> frozenset[int]:
    vmap = VERTEX_MAPS[GROUP_INDEX[sigma]]
    return frozenset(vmap[v] for v in vertices)


def apply(sigma: CubeSymmetry, x):
    """Generic group action: vertices, tables, tetrahedra, triangulations.

    A triangulation moves by its catalog id, through the catalog's id
    action; a table through ``apply_table``.
    """
    if isinstance(x, int):
        return apply_vertex(sigma, x)
    if isinstance(x, (Table3, NonnegTable3)):
        return apply_table(sigma, x)
    if isinstance(x, frozenset):
        return apply_vertex_set(sigma, x)
    if isinstance(x, triangulation.Triangulation):
        catalog = triangulation.get_catalog()
        return catalog[catalog.apply_symmetry(sigma, x.canonical_id)]
    raise DomainError(f"cannot apply a cube symmetry to {type(x).__name__}")


@dataclass(frozen=True)
class OrbitClass:
    """One equivalence class of id tuples under the simultaneous group action."""

    representative: tuple[int, ...]
    size: int
    members: tuple[tuple[int, ...], ...]


# Every class key is a (summand, summand, sum) triple: a single id a is
# (a, a, a), an ordered pair (A, B) is (A, A, B), and a triple is itself.
# _PAD gives, per arity, the tuple position that fills each slot, and _UNPAD
# the slots that give the tuple back.
_PAD = {1: (0, 0, 0), 2: (0, 0, 1), 3: (0, 1, 2)}
_UNPAD = {1: (0,), 2: (0, 2), 3: (0, 1, 2)}

# Rows canonicalized per numpy pass, so that all 48 images of a chunk stay small.
_CHUNK_ROWS = 2048


def pad_key(ids: Sequence[int]) -> tuple[int, ...]:
    """The (summand, summand, sum) triple of a class key of arity 1, 2 or 3."""
    return tuple(ids[i] for i in _PAD[len(ids)])


def _canonical_rows(rows: np.ndarray, ida: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical keys of (m, 3) 0-based (summand, summand, sum) rows, and the
    first symmetry index reaching each.

    An image is keyed by its raveled (lo, hi, sum) index, with the summands
    sorted because they are unordered; the canonical key is the least over
    the 48 images.
    """
    pa = ida.astype(np.int32) - 1
    n = pa.shape[1]
    keys = np.empty(len(rows), dtype=np.int64)
    first = np.empty(len(rows), dtype=np.int64)
    for start in range(0, len(rows), _CHUNK_ROWS):
        chunk = rows[start : start + _CHUNK_ROWS]
        u, v, w = (pa[:, chunk[:, i]] for i in range(3))
        images = (np.minimum(u, v) * n + np.maximum(u, v)) * n + w
        best = images.argmin(axis=0)
        keys[start : start + len(chunk)] = images[best, np.arange(len(chunk))]
        first[start : start + len(chunk)] = best
    return keys, first


def orbit_classes(arity: int, catalog) -> list[OrbitClass]:
    """All orbit classes of single ids (arity 1), ordered pairs (arity 2), or
    summand-unordered triples with distinct summands (arity 3)."""
    if arity not in _PAD:
        raise DomainError(f"unsupported arity {arity}")
    ida = catalog.id_action()
    tuples = np.indices((ida.shape[1],) * arity, dtype=np.int8).reshape(arity, -1).T
    pad = _PAD[arity]
    if pad[0] != pad[1]:
        # separate summand slots hold an unordered pair of distinct ids
        tuples = tuples[tuples[:, 0] < tuples[:, 1]]
    keys, _ = _canonical_rows(tuples[:, list(pad)], ida)
    order = np.argsort(keys, kind="stable")
    columns = (tuples[order] + 1).T
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1)).tolist()
    # Members are enumerated in sorted order, so each class lists them sorted
    # and its first member is the representative.  The representatives are
    # built apart from, and before, the members: callers often keep only the
    # representatives, which would otherwise pin the members' memory.
    reps = list(zip(*columns[:, starts].tolist()))
    classes = []
    for rep, lo, hi in zip(reps, starts, starts[1:] + [len(order)]):
        classes.append(OrbitClass(rep, hi - lo, tuple(zip(*columns[:, lo:hi].tolist()))))
    return classes


def canonical_class_of(ids: Sequence[int], catalog) -> tuple[int, ...]:
    """Representative of the orbit class containing the given id tuple."""
    rep, _ = canonical_transporter(ids, catalog)
    return rep


def canonical_transporter(ids: Sequence[int], catalog):
    """Canonical representative together with a symmetry index realizing it.

    Returns (representative, s) such that applying GROUP[s] maps the input
    tuple onto the representative (for arity 3 up to swapping the two summand
    coordinates, which are unordered by convention).
    """
    ida = catalog.id_action()
    n = ida.shape[1]
    for i in ids:
        if not 1 <= i <= n:
            raise DomainError(f"unknown triangulation id {i}")
    if len(ids) not in _PAD:
        raise DomainError(f"unsupported arity {len(ids)}")
    if len(ids) == 3 and ids[0] == ids[1]:
        raise DomainError("triple classes require distinct summand ids")
    keys, first = _canonical_rows(np.array([pad_key(ids)]) - 1, ida)
    padded = np.unravel_index(int(keys[0]), (n, n, n))
    return tuple(int(padded[i]) + 1 for i in _UNPAD[len(ids)]), int(first[0])
