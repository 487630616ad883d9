"""Exact 2x2 and 2x2x2 contingency tables and the 20 balanced sign forms.

A 2x2x2 table is a strictly positive function on the vertices of the 3-cube.
Vertices are encoded as integers 0-7 via the bit pattern xyz (x is the high
bit), so vertex 6 is 110.  Every sign decision in this module is an exact
comparison of two monomials in the table entries: the linear forms on the
log-entries all have integer coefficients summing to zero, so their signs
are decided by cross-multiplying integers once the denominators are
cleared, never by floating point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import DomainError

Rational = Union[Fraction, int]

VERTEX_COUNT = 8
VERTICES = tuple(range(VERTEX_COUNT))


def vertex_bits(v: int) -> tuple[int, int, int]:
    """Coordinates (x, y, z) of vertex v."""
    return (v >> 2) & 1, (v >> 1) & 1, v & 1


def vertex_of_bits(x: int, y: int, z: int) -> int:
    return (x << 2) | (y << 1) | z


def antipode(v: int) -> int:
    """The opposite vertex of the cube (all coordinates complemented)."""
    return v ^ 7


def vertex_name(v: int) -> str:
    """Bit-string label, e.g. vertex 6 -> '110'."""
    return format(v, "03b")


# The six square facets of the cube, as (axis, value) pairs: the facet where
# the given coordinate axis (0=x, 1=y, 2=z) is fixed to the given value.
FACES = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1))


def face_vertices(axis: int, value: int) -> tuple[int, ...]:
    return tuple(v for v in VERTICES if vertex_bits(v)[axis] == value)


def face_diagonal_pair(axis: int, value: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two diagonals of a facet.  The first listed diagonal is the one
    containing the facet's least vertex."""
    verts = face_vertices(axis, value)
    lo = verts[0]
    mask = 7 ^ (1 << (2 - axis))
    first = tuple(sorted((lo, lo ^ mask)))
    second = tuple(sorted(v for v in verts if v not in first))
    return first, second  # type: ignore[return-value]


FORM_LETTERS = "abcdefghijklmnopqrst"


def _coeffs(spec: dict[int, int]) -> tuple[int, ...]:
    out = [0] * VERTEX_COUNT
    for v, c in spec.items():
        out[v] = c
    return tuple(out)


# Coefficient vectors of the 20 balanced linear forms on the log-entries,
# indexed by vertex.  Forms a-f are the facet four-term combinations, g-l the
# diagonal-rectangle four-term combinations, m-t the five-term combinations.
FORM_COEFFS: tuple[tuple[int, ...], ...] = (
    _coeffs({0: 1, 6: 1, 2: -1, 4: -1}),            # a = f000 + f110 - f010 - f100
    _coeffs({1: 1, 7: 1, 3: -1, 5: -1}),            # b = f001 + f111 - f011 - f101
    _coeffs({0: 1, 5: 1, 1: -1, 4: -1}),            # c = f000 + f101 - f001 - f100
    _coeffs({2: 1, 7: 1, 6: -1, 3: -1}),            # d = f010 + f111 - f110 - f011
    _coeffs({0: 1, 3: 1, 2: -1, 1: -1}),            # e = f000 + f011 - f010 - f001
    _coeffs({4: 1, 7: 1, 5: -1, 6: -1}),            # f = f100 + f111 - f101 - f110
    _coeffs({0: 1, 7: 1, 3: -1, 4: -1}),            # g = f000 + f111 - f011 - f100
    _coeffs({1: 1, 6: 1, 2: -1, 5: -1}),            # h = f001 + f110 - f010 - f101
    _coeffs({0: 1, 7: 1, 2: -1, 5: -1}),            # i = f000 + f111 - f010 - f101
    _coeffs({1: 1, 6: 1, 3: -1, 4: -1}),            # j = f001 + f110 - f011 - f100
    _coeffs({0: 1, 7: 1, 1: -1, 6: -1}),            # k = f000 + f111 - f001 - f110
    _coeffs({2: 1, 5: 1, 3: -1, 4: -1}),            # l = f010 + f101 - f011 - f100
    _coeffs({1: 1, 2: 1, 4: 1, 7: -1, 0: -2}),      # m = f001 + f010 + f100 - f111 - 2 f000
    _coeffs({6: 1, 5: 1, 3: 1, 0: -1, 7: -2}),      # n = f110 + f101 + f011 - f000 - 2 f111
    _coeffs({4: 1, 2: 1, 7: 1, 1: -1, 6: -2}),      # o = f100 + f010 + f111 - f001 - 2 f110
    _coeffs({3: 1, 5: 1, 0: 1, 6: -1, 1: -2}),      # p = f011 + f101 + f000 - f110 - 2 f001
    _coeffs({1: 1, 4: 1, 7: 1, 2: -1, 5: -2}),      # q = f001 + f100 + f111 - f010 - 2 f101
    _coeffs({6: 1, 3: 1, 0: 1, 5: -1, 2: -2}),      # r = f110 + f011 + f000 - f101 - 2 f010
    _coeffs({5: 1, 6: 1, 0: 1, 3: -1, 4: -2}),      # s = f101 + f110 + f000 - f011 - 2 f100
    _coeffs({2: 1, 1: 1, 7: 1, 4: -1, 3: -2}),      # t = f010 + f001 + f111 - f100 - 2 f011
)

FORM_INDEX = {letter: i for i, letter in enumerate(FORM_LETTERS)}

# Each facet's diagonal orientation is the sign of one of the forms a-f: the
# form is positive exactly when the facet diagonal through the facet's least
# vertex is present.
FACE_FORM = {(2, 0): "a", (2, 1): "b", (1, 0): "c", (1, 1): "d", (0, 0): "e", (0, 1): "f"}


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _monomials(coeffs: Sequence[int]) -> tuple[int, ...]:
    """The vertices of a form's positive then negative monomial, each listed
    once per unit of its coefficient."""
    pos = [v for v, c in enumerate(coeffs) for _ in range(c)]
    neg = [v for v, c in enumerate(coeffs) for _ in range(-c)]
    return tuple(pos + neg)


# Forms a-l compare two degree-2 monomials, forms m-t two degree-3 ones.
_FOUR_TERM = tuple((1 << i, *_monomials(c)) for i, c in enumerate(FORM_COEFFS[:12]))
_FIVE_TERM = tuple((1 << i, *_monomials(c)) for i, c in enumerate(FORM_COEFFS[12:], 12))
_FORM_POSITION = {c: i for i, c in enumerate(FORM_COEFFS)}


def _form_sign_bits(entries: Sequence[Rational]) -> tuple[int, int]:
    """Exact signs of the 20 forms as ``(pos_bits, neg_bits)``: bit i is set
    in the first when form i is positive, in the second when it is negative.

    Every form is homogeneous, so the entries are scaled once by the least
    common multiple of their denominators and each sign is an integer
    comparison of two monomials.
    """
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


def sign_of_form(coeffs: Sequence[int], entries: Sequence[Rational]) -> int:
    """Exact sign of one of the 20 balanced forms, given by its coefficient
    vector, on the entries of a positive table."""
    index = _FORM_POSITION.get(tuple(coeffs))
    if index is None:
        raise DomainError("coefficients are not one of the 20 balanced forms")
    pos, neg = _form_sign_bits(entries)
    return (pos >> index & 1) - (neg >> index & 1)


def _to_fraction(value: Rational, where: str) -> Fraction:
    # The exact types come first: a Fraction is immutable and passes as is.
    kind = type(value)
    if kind is Fraction:
        return value
    if kind is int:
        return Fraction(value)
    if isinstance(value, bool):
        raise DomainError(f"{where}: boolean is not a table entry")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise DomainError(f"{where}: entries must be exact rationals, got {type(value).__name__}")


def _trusted(cls, entries: tuple[Fraction, ...]):
    """A ``cls`` table on entries derived from a validated table: 8 Fractions
    whose sign the derivation preserves.  Nothing is checked again."""
    table = object.__new__(cls)
    object.__setattr__(table, "entries", entries)
    return table


@dataclass(frozen=True)
class Table3:
    """A strictly positive 2x2x2 table, entries in vertex order 000..111.

    The constructor validates its input once: every entry becomes a
    ``Fraction`` and must be positive.  Tables derived from validated ones
    (``+``, ``scaled``, ``NonnegTable3.smoothed``, ``symmetry.apply_table``)
    are built on trust, without checking their entries again.
    """

    entries: tuple[Fraction, ...]

    def __init__(self, entries: Iterable[Rational]):
        vals = tuple(_to_fraction(e, "Table3") for e in entries)
        if len(vals) != VERTEX_COUNT:
            raise DomainError(f"Table3 needs {VERTEX_COUNT} entries, got {len(vals)}")
        for v in vals:
            if v.numerator <= 0:
                raise DomainError("Table3 entries must be strictly positive")
        object.__setattr__(self, "entries", vals)

    def __getitem__(self, v: int) -> Fraction:
        return self.entries[v]

    def __add__(self, other: "Table3") -> "Table3":
        pairs = zip(self.entries, other.entries)
        if isinstance(other, (Table3, NonnegTable3)):
            # positive plus nonnegative is positive
            return _trusted(Table3, tuple(a + b for a, b in pairs))
        return Table3(a + b for a, b in pairs)

    def scaled(self, factor: Rational) -> "Table3":
        factor = _to_fraction(factor, "Table3.scaled")
        if factor.numerator <= 0:
            raise DomainError("scale factor must be positive")
        return _trusted(Table3, tuple(factor * e for e in self.entries))

    def layer(self, axis: int, value: int) -> "Table2":
        """The 2x2 slice with the given coordinate fixed, remaining axes in order."""
        return Table2(self.entries[v] for v in face_vertices(axis, value))

    def total(self) -> Fraction:
        return sum(self.entries, Fraction(0))


@dataclass(frozen=True)
class NonnegTable3:
    """A 2x2x2 table of nonnegative counts.  Zeros are allowed, so no
    triangulation is defined; use layers for determinant-sign work, or
    smoothed() to obtain a strictly positive Table3.  Validated once, as
    ``Table3`` is."""

    entries: tuple[Fraction, ...]

    def __init__(self, entries: Iterable[Rational]):
        vals = tuple(_to_fraction(e, "NonnegTable3") for e in entries)
        if len(vals) != VERTEX_COUNT:
            raise DomainError(f"NonnegTable3 needs {VERTEX_COUNT} entries, got {len(vals)}")
        for v in vals:
            if v.numerator < 0:
                raise DomainError("NonnegTable3 entries must be nonnegative")
        object.__setattr__(self, "entries", vals)

    def __getitem__(self, v: int) -> Fraction:
        return self.entries[v]

    def layer(self, axis: int, value: int) -> "Table2":
        return Table2(self.entries[v] for v in face_vertices(axis, value))

    def smoothed(self, epsilon: Rational) -> Table3:
        """Add epsilon to every entry.  This makes zero-count data classifiable
        but is a modelling choice: the induced triangulation depends on epsilon
        and is not a property of the raw counts themselves."""
        eps = _to_fraction(epsilon, "NonnegTable3.smoothed")
        if eps.numerator <= 0:
            raise DomainError("smoothing epsilon must be positive")
        return _trusted(Table3, tuple(e + eps for e in self.entries))


@dataclass(frozen=True)
class Table2:
    """A nonnegative 2x2 table, entries in index order 00, 01, 10, 11."""

    entries: tuple[Fraction, ...]

    def __init__(self, entries: Iterable[Rational]):
        vals = tuple(_to_fraction(e, "Table2") for e in entries)
        if len(vals) != 4:
            raise DomainError(f"Table2 needs 4 entries, got {len(vals)}")
        if any(v < 0 for v in vals):
            raise DomainError("Table2 entries must be nonnegative")
        object.__setattr__(self, "entries", vals)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        x, y = key
        return self.entries[(x << 1) | y]

    def __add__(self, other: "Table2") -> "Table2":
        return Table2(a + b for a, b in zip(self.entries, other.entries))

    def det(self) -> Fraction:
        e = self.entries
        return e[0] * e[3] - e[1] * e[2]

    def strictly_positive(self) -> bool:
        return all(v > 0 for v in self.entries)


@dataclass(frozen=True)
class FormSigns:
    """The 20 form signs of a table, each -1, 0 or +1, indexed a..t."""

    signs: tuple[int, ...]

    def __getitem__(self, letter: str) -> int:
        return self.signs[FORM_INDEX[letter]]

    def nonzero(self) -> bool:
        return all(s != 0 for s in self.signs)

    def as_dict(self) -> dict[str, int]:
        return dict(zip(FORM_LETTERS, self.signs))


def eval_form_signs(table: Table3) -> FormSigns:
    """Exact signs of all 20 forms on a strictly positive table."""
    pos, neg = _form_sign_bits(table.entries)
    return FormSigns(tuple((pos >> i & 1) - (neg >> i & 1) for i in range(len(FORM_COEFFS))))


@dataclass(frozen=True)
class CorrelationProfile:
    """The 17 exact dependence signs of a positive 2x2x2 table.

    mutual: 8 signs, one per complement pattern (vertex v encodes which of the
        three events are complemented); sign of N^2 * F_v minus the product of
        the three one-axis marginal totals selected by v.
    marginal: 3 signs, indexed by the axis summed out; sign of the determinant
        of the collapsed 2x2 table.
    conditional: 6 signs in FACES order (axis, value); sign of the determinant
        of the fixed-coordinate layer.  These coincide with forms a-f.
    """

    mutual: tuple[int, ...]
    marginal: tuple[int, ...]
    conditional: tuple[int, ...]

    def as_dict(self) -> dict[str, object]:
        return {
            "mutual": {vertex_name(v): s for v, s in enumerate(self.mutual)},
            "marginal": {f"axis{a}": s for a, s in enumerate(self.marginal)},
            "conditional": {
                f"axis{axis}={value}": s
                for (axis, value), s in zip(FACES, self.conditional)
            },
        }


def correlation_profile(table: Table3) -> CorrelationProfile:
    """All 17 dependence signs, each decided by exact rational arithmetic.

    The conditional signs are layer determinants and agree with forms a-f.
    The mutual signs compare the joint cell against the product of the three
    marginal probabilities; they are degree-3 comparisons on totals and are
    not the same monomial comparisons as the five-term forms m-t, which are
    circuit dependences of the cube.  Both families are exposed.
    """
    e = table.entries
    grand = table.total()
    # axis_totals[a][v] = total of entries whose coordinate a equals coordinate a of v
    axis_totals = []
    for a in range(3):
        per_value = [sum((e[v] for v in face_vertices(a, val)), Fraction(0)) for val in (0, 1)]
        axis_totals.append(per_value)
    mutual = []
    for v in VERTICES:
        x, y, z = vertex_bits(v)
        prod = axis_totals[0][x] * axis_totals[1][y] * axis_totals[2][z]
        mutual.append(_sign(grand * grand * e[v] - prod))
    marginal = []
    for a in range(3):
        collapsed = Table2(
            table.layer(a, 0).entries[i] + table.layer(a, 1).entries[i] for i in range(4)
        )
        marginal.append(_sign(collapsed.det()))
    conditional = [_sign(table.layer(axis, value).det()) for axis, value in FACES]
    return CorrelationProfile(tuple(mutual), tuple(marginal), tuple(conditional))


class Reversal2D(Enum):
    POS_TO_NEG = "ReversalPosToNeg"
    NEG_TO_POS = "ReversalNegToPos"
    NO_REVERSAL = "NoReversal"
    DEGENERATE = "Degenerate"


class Diagonal2D(Enum):
    DIAG_00_11 = "Diag00_11"
    DIAG_01_10 = "Diag01_10"
    DEGENERATE = "Degenerate"


def detect_reversal_2d(f: Table2, g: Table2) -> Reversal2D:
    """Simpson reversal test: both determinant signs agree and the sign of the
    entrywise sum's determinant is opposite.  Degenerate if any determinant
    vanishes."""
    df, dg, ds = f.det(), g.det(), (f + g).det()
    if df == 0 or dg == 0 or ds == 0:
        return Reversal2D.DEGENERATE
    if _sign(df) == _sign(dg) == -_sign(ds):
        return Reversal2D.POS_TO_NEG if df > 0 else Reversal2D.NEG_TO_POS
    return Reversal2D.NO_REVERSAL


def classify_2d(f: Table2) -> Diagonal2D:
    """Which diagonal of the square the lifted table induces: the main diagonal
    {00, 11} iff F00*F11 > F01*F10."""
    if not f.strictly_positive():
        raise DomainError("classify_2d requires strictly positive entries")
    d = f.det()
    if d > 0:
        return Diagonal2D.DIAG_00_11
    if d < 0:
        return Diagonal2D.DIAG_01_10
    return Diagonal2D.DEGENERATE


# ---------------------------------------------------------------------------
# JSON interchange: {"entries": [.. 8 or 4 rational strings ..]}, vertex order
# 000..111 for 2x2x2 tables, index order 00, 01, 10, 11 for 2x2 tables.

def parse_rational(text) -> Fraction:
    if isinstance(text, bool):
        raise DomainError("boolean is not a rational")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"bad rational {text!r}: {exc}") from None
    raise DomainError(f"bad rational of type {type(text).__name__} (floats are not exact)")


def format_rational(value: Fraction) -> str:
    return str(value)


def table_from_json_obj(obj, allow_zero: bool = False) -> Union[Table3, NonnegTable3, Table2]:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise DomainError('table JSON must be an object with an "entries" array')
    raw = obj["entries"]
    if not isinstance(raw, list):
        raise DomainError('"entries" must be an array')
    vals = [parse_rational(x) for x in raw]
    if len(vals) == VERTEX_COUNT:
        return NonnegTable3(vals) if allow_zero else Table3(vals)
    if len(vals) == 4:
        return Table2(vals)
    raise DomainError(f'"entries" must have 4 or 8 elements, got {len(vals)}')


def table_to_json_obj(table: Union[Table3, NonnegTable3, Table2]) -> dict:
    return {"entries": [format_rational(e) for e in table.entries]}


def load_table(path, allow_zero: bool = False) -> Union[Table3, NonnegTable3, Table2]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read table {path}: {exc}") from None
    return table_from_json_obj(obj, allow_zero=allow_zero)
