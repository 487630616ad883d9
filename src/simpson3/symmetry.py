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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import triangulation  # imports this module too; each uses the other only in calls
from .errors import DomainError
from .tables import NonnegTable3, Table3, VERTICES, _integer, _table3, _vertex, vertex_bits


@dataclass(frozen=True)
class CubeSymmetry:
    """Axis permutation followed by axis complementation.

    The image of a vertex u has coordinate i equal to u[perm[i]] XOR flips[i].
    """

    perm: tuple[int, int, int]
    flips: tuple[int, int, int]

    @cached_property
    def index(self) -> int:
        """The position of this symmetry in ``GROUP``, found once per
        instance: hashing the two tuples costs more than the action."""
        return GROUP_INDEX[self]

    def vertex_map(self) -> tuple[int, ...]:
        """Image vertex index for each of the 8 vertices."""
        out = []
        for v in VERTICES:
            u = vertex_bits(v)
            w = tuple(u[self.perm[i]] ^ self.flips[i] for i in range(3))
            out.append((w[0] << 2) | (w[1] << 1) | w[2])
        return tuple(out)

    def inverse(self) -> "CubeSymmetry":
        pinv = [0, 0, 0]
        for i in range(3):
            pinv[self.perm[i]] = i
        flips = tuple(self.flips[pinv[j]] for j in range(3))
        return CubeSymmetry(tuple(pinv), flips)  # type: ignore[arg-type]


GROUP: tuple[CubeSymmetry, ...] = tuple(
    CubeSymmetry(perm, flips)
    for perm in itertools.permutations(range(3))
    for flips in itertools.product((0, 1), repeat=3)
)

GROUP_INDEX = {sigma: i for i, sigma in enumerate(GROUP)}

VERTEX_MAPS: tuple[tuple[int, ...], ...] = tuple(sigma.vertex_map() for sigma in GROUP)

INVERSE_INDEX: tuple[int, ...] = tuple(GROUP_INDEX[sigma.inverse()] for sigma in GROUP)


def apply_vertex(sigma: CubeSymmetry, v: int) -> int:
    return VERTEX_MAPS[sigma.index][_vertex(v)]


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
        gather = _TABLE_GATHER[sigma.index]
        return _table3(gather(table.integers), table.denominator, type(table))
    raise DomainError(f"cannot apply a cube symmetry to {type(table).__name__}")


def apply(sigma: CubeSymmetry, x):
    """Generic group action: vertices (ints or numpy integers in 0..7),
    tables, triangulations.

    A triangulation moves by its catalog id, through the catalog's id
    rows; anything else through ``apply_table``, which refuses non-tables.
    """
    if isinstance(x, (int, np.integer)):
        return apply_vertex(sigma, x)
    if isinstance(x, triangulation.Triangulation):
        catalog = triangulation.get_catalog()
        return catalog.entries[catalog.id_rows[sigma.index][x.canonical_id - 1] - 1]
    return apply_table(sigma, x)


@dataclass(frozen=True)
class OrbitClass:
    """One equivalence class of id tuples under the simultaneous group action.

    Two classes are equal when their representatives and sizes are; the id
    action only serves ``members``.
    """

    representative: tuple[int, ...]
    size: int
    id_action: np.ndarray = field(compare=False, repr=False)

    @cached_property
    def members(self) -> tuple[tuple[int, ...], ...]:
        """Every id tuple of the class, sorted; built on first read."""
        images = self.id_action[:, [i - 1 for i in self.representative]]
        if len(self.representative) == 3:
            images[:, :2].sort(axis=1)
        return tuple(sorted(set(map(tuple, images.tolist()))))


# Every class key is a (summand, summand, sum) triple: a single id a is
# (a, a, a), an ordered pair (A, B) is (A, A, B), and a triple is itself.
# _PAD gives, per arity, the tuple position that fills each slot, and _UNPAD
# the slots that give the tuple back; _KEY_KINDS names the arities a search takes.
_PAD = {1: (0, 0, 0), 2: (0, 0, 1), 3: (0, 1, 2)}
_UNPAD = {1: [0], 2: [0, 2], 3: [0, 1, 2]}
_PAD_GETTERS = {arity: operator.itemgetter(*pad) for arity, pad in _PAD.items()}
_KEY_KINDS = {2: "pair", 3: "triple"}

# Rows canonicalized per numpy pass, so that all 48 images of a chunk stay small.
_CHUNK_ROWS = 2048


def pad_key(ids: Sequence[int]) -> tuple[int, ...]:
    """The (summand, summand, sum) triple of a class key of arity 1, 2 or 3."""
    return _PAD_GETTERS[len(ids)](ids)


def _key_ids(key) -> tuple:
    """A class key read once, as a tuple; DomainError unless it is iterable."""
    try:
        return tuple(key)
    except TypeError:
        raise DomainError(f"class key {key!r} is not a sequence of ids") from None


def key_rows(keys: Iterable[Sequence[int]], catalog, arity: int | None = None) -> np.ndarray:
    """Class keys, read once, as (m, 3) padded id rows.  DomainError for an
    ``arity`` other than None, 2 or 3; at the first key in input order that
    is not iterable, of a length other than ``arity`` (when given), with an
    id that ``catalog[...]`` refuses, or of an arity other than 1, 2 or 3;
    only after every key, at equal summands."""
    if arity is not None and (arity := _integer(arity, "arity")) not in _KEY_KINDS:
        raise DomainError(f"class key must have 2 or 3 components, got {arity}")
    n = len(catalog)
    rows = []
    equal_summands = False
    for key in keys:
        ids = _key_ids(key)
        if arity is not None and len(ids) != arity:
            kind = _KEY_KINDS[arity]
            raise DomainError(f"{kind} class keys have {arity} components, got {key!r}")
        # catalog[...] states the id rule; this test passes only ids it takes as they are.
        for i in ids:
            if type(i) is not int or not 0 < i <= n:
                ids = tuple([catalog[i].canonical_id for i in ids])
                break
        if len(ids) not in _PAD:
            raise DomainError(f"unsupported arity {len(ids)}")
        equal_summands |= len(ids) == 3 and ids[0] == ids[1]
        rows.append(pad_key(ids))
    if equal_summands:
        raise DomainError("triple classes require distinct summand ids")
    return np.array(rows, dtype=np.intp).reshape(-1, 3)


def _image_keys(rows: np.ndarray, pa: np.ndarray) -> np.ndarray:
    """(m, 48) raveled (lo, hi, sum) keys of the images of (m, 3) 0-based
    rows under the 0-based id action pa, gathered as rows of its transpose
    (contiguous for ``Catalog.index_action()``)."""
    n = pa.shape[1]
    u, v, w = (pa.T[rows[:, i]] for i in range(3))
    return (np.minimum(u, v) * n + np.maximum(u, v)) * n + w


def _canonical_rows(rows: np.ndarray, pa: np.ndarray) -> np.ndarray:
    """Canonical keys of (m, 3) 0-based (summand, summand, sum) rows under
    the 0-based id action pa, ``Catalog.index_action()``.

    An image is keyed by its raveled (lo, hi, sum) index, with the summands
    sorted because they are unordered; the canonical key is the least over
    the 48 images.
    """
    keys = np.empty(len(rows), dtype=np.int64)
    for start in range(0, len(rows), _CHUNK_ROWS):
        chunk = rows[start : start + _CHUNK_ROWS]
        keys[start : start + len(chunk)] = _image_keys(chunk, pa).min(axis=1)
    return keys


def orbit_classes(arity: int, catalog) -> list[OrbitClass]:
    """All orbit classes of single ids (arity 1), ordered pairs (arity 2), or
    summand-unordered triples with distinct summands (arity 3), in the order
    of their representatives."""
    if _integer(arity, "arity") not in _PAD:
        raise DomainError(f"unsupported arity {arity}")
    ida, pa = catalog.id_action(), catalog.index_action()
    n = ida.shape[1]
    # A symmetry that moves a tuple's sum onto its orbit representative keeps
    # the tuple in its class, so the tuples whose sum (the last id) is an
    # orbit representative meet every class.
    sums = np.array(catalog.orbit_representatives()) - 1
    tuples = np.indices((n,) * (arity - 1) + (len(sums),)).reshape(arity, -1).T
    tuples[:, -1] = sums[tuples[:, -1]]
    pad = _PAD[arity]
    if pad[0] != pad[1]:
        # separate summand slots hold an unordered pair of distinct ids
        tuples = tuples[tuples[:, 0] < tuples[:, 1]]
    keys = _canonical_rows(tuples[:, list(pad)], pa)
    # The least raveled key of a class is its least member, so the unique
    # keys come in the order of the representatives.
    unique = np.unique(keys)
    padded = np.unravel_index(unique, (n, n, n))
    # Orbit-stabilizer: a class has 48 / |stabilizer| members, and a symmetry
    # stabilizes the representative when its image key is the key itself.
    images = _image_keys(np.column_stack(padded), pa)
    sizes = (len(GROUP) // (images == unique[:, None]).sum(axis=1)).tolist()
    reps = zip(*((padded[i] + 1).tolist() for i in _UNPAD[arity]))
    return [OrbitClass(rep, size, ida) for rep, size in zip(reps, sizes)]


def canonical_class_of(ids: Sequence[int], catalog) -> tuple[int, ...]:
    """Representative of the orbit class containing the given id tuple."""
    ids = _key_ids(ids)
    (row,) = canonical_classes(key_rows([ids], catalog), catalog)
    return tuple(row[_UNPAD[len(ids)]].tolist())


def canonical_classes(rows: np.ndarray, catalog, unique: bool = False) -> np.ndarray:
    """Canonical rows of the classes of (m, 3) ``key_rows`` rows, in input
    order, or sorted and without repeats if ``unique``."""
    canonical = _canonical_rows(rows - 1, catalog.index_action())
    if unique:
        canonical = np.unique(canonical)
    return np.column_stack(np.unravel_index(canonical, (len(catalog),) * 3)) + 1
