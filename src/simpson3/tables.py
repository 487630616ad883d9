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

import errno
import functools
import json
import math
import operator
import os
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Sequence, TextIO, Union

from .errors import DomainError

Rational = Union[Fraction, int]

VERTEX_COUNT = 8
VERTICES = tuple(range(VERTEX_COUNT))


def vertex_bits(v: int) -> tuple[int, int, int]:
    """Coordinates (x, y, z) of vertex v."""
    return (v >> 2) & 1, (v >> 1) & 1, v & 1


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


def _compile_sign_kernel() -> Callable[..., tuple[int, int]]:
    """The 20 monomial comparisons as one straight-line function of the 8
    integer entries ``n0..n7``, returning ``(pos_bits, neg_bits)``.

    The source is generated from ``_FOUR_TERM`` and ``_FIVE_TERM``, so
    ``FORM_COEFFS`` stays the only statement of the forms.  Each form
    compares its two monomials directly; a monomial that several forms
    share is multiplied out once, a degree-3 one from its degree-2 prefix.
    """
    lines = ["pos = neg = 0"]
    names: dict[tuple[int, ...], str] = {}

    def monomial(vertices: Sequence[int]) -> str:
        key = tuple(sorted(vertices))
        if len(key) == 1:
            return f"n{key[0]}"
        if key not in names:
            prefix = monomial(key[:-1])
            names[key] = "m" + "".join(map(str, key))
            lines.append(f"{names[key]} = {prefix} * n{key[-1]}")
        return names[key]

    for bit, *vertices in _FOUR_TERM + _FIVE_TERM:
        half = len(vertices) // 2
        x, y = monomial(vertices[:half]), monomial(vertices[half:])
        lines += [f"if {x} > {y}:", f"    pos |= {bit}", f"elif {x} < {y}:", f"    neg |= {bit}"]
    lines.append("return pos, neg")
    return _compiled("_int_sign_bits", lines)


def _compiled(name: str, lines: Sequence[str]) -> Callable[..., object]:
    """The function ``name`` of the 8 integer entries ``n0..n7`` whose body
    is the given generated source lines."""
    args = ", ".join(f"n{v}" for v in VERTICES)
    source = f"def {name}({args}):\n" + "".join(f"    {line}\n" for line in lines)
    namespace: dict = {}
    exec(compile(source, f"<simpson3 {name}>", "exec"), namespace)
    return namespace[name]


_int_sign_bits = _compile_sign_kernel()


def _on_one_scale(a, b) -> tuple[Sequence[int], Sequence[int], int]:
    """The integers of two tables over their least common denominator,
    rescaled only when their denominators differ."""
    da, db = a.denominator, b.denominator
    if da == db:
        return a.integers, b.integers, da
    common = math.lcm(da, db)
    ka, kb = common // da, common // db
    return [n * ka for n in a.integers], [n * kb for n in b.integers], common


def _power_of_two_scale(values: Sequence[float]) -> tuple[list[int], int]:
    """Finite doubles as integers over their largest (power-of-two)
    denominator: the values are exactly ``integers[i] / scale``."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(d for _, d in ratios)
    return [p * (scale // d) for p, d in ratios], scale


def _ratio(value: Rational, where: str) -> tuple[int, int]:
    """An exact entry as its numerator and positive denominator, in lowest
    terms, without building a ``Fraction``."""
    if isinstance(value, bool):
        raise DomainError(f"{where}: boolean is not a table entry")
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    raise DomainError(f"{where}: entries must be exact rationals, got {type(value).__name__}")


def _integer(value, what: str) -> int:
    """``value`` as a Python int; a bool or a non-integer raises."""
    try:
        return operator.index(None if type(value) is bool else value)
    except TypeError:
        raise DomainError(f"{what} {value!r} is not an integer") from None


def _vertex(value) -> int:
    """``value`` as a cube vertex, a Python int in 0..7; anything else raises."""
    v = _integer(value, "vertex")
    if not 0 <= v < VERTEX_COUNT:
        raise DomainError("cube vertices are indexed 0..7")
    return v


def _validated(kind: type, entries: Iterable[Rational]) -> tuple[tuple[int, ...], int]:
    """The entries of a new ``kind`` table as integers over their least
    common denominator, in lowest terms.  Every entry is converted first,
    then the count is checked, then the sign."""
    name = kind.__name__
    ratios = [_ratio(e, name) for e in entries]
    if len(ratios) != kind._size:
        raise DomainError(f"{name} needs {kind._size} entries, got {len(ratios)}")
    if any(p < kind._least for p, _ in ratios):
        rule = "strictly positive" if kind._least else "nonnegative"
        raise DomainError(f"{name} entries must be {rule}")
    denominator = math.lcm(*(q for _, q in ratios))
    return tuple(p * (denominator // q) for p, q in ratios), denominator


def _cross(n: Iterable[int]) -> int:
    """The determinant n00·n11 − n01·n10 of a 2x2 table's integers."""
    n00, n01, n10, n11 = n
    return n00 * n11 - n01 * n10


# Frozen dataclass fields are set through object.__setattr__; bound once,
# since a Table3 is built for every table classified.
_setattr = object.__setattr__


@dataclass(frozen=True)
class _ExactTable:
    """A table stored as ``integers`` over one positive ``denominator``, in
    lowest terms: ``gcd(denominator, *integers) == 1``, so two tables of one
    kind are equal exactly when their entries are.  ``entries`` reads the
    values off as ``Fraction``s the first time it is asked for.

    The constructor checks its input once (``_validated``); tables derived
    from validated ones are built by ``_table3`` on trust.
    """

    integers: tuple[int, ...]
    denominator: int

    # The entry count, and the least numerator an entry may have.
    _size = VERTEX_COUNT
    _least = 0

    def __init__(self, entries: Iterable[Rational]):
        integers, denominator = _validated(type(self), entries)
        _setattr(self, "integers", integers)
        _setattr(self, "denominator", denominator)

    @functools.cached_property
    def entries(self) -> tuple[Fraction, ...]:
        """The values as ``Fraction``s, built on the first read."""
        d = self.denominator
        return tuple(Fraction(n, d) for n in self.integers)

    def __getitem__(self, v: int) -> Fraction:
        return self.entries[v]

    def entry_strings(self) -> list[str]:
        """The entries as ``str(Fraction)`` prints them, ``n`` or ``n/d``
        in lowest terms, without building a ``Fraction``."""
        d, out = self.denominator, []
        for n in self.integers:
            common = math.gcd(n, d)
            out.append(str(n // d) if common == d else f"{n // common}/{d // common}")
        return out

    def smoothed(self, epsilon: Rational):
        """Add epsilon to every entry: a ``Table3`` from 8 entries, a
        ``Table2`` from 4.  This makes zero-count data classifiable but is a
        modelling choice: the induced triangulation depends on epsilon and
        is not a property of the raw counts themselves."""
        p, q = _ratio(epsilon, f"{type(self).__name__}.smoothed")
        if p <= 0:
            raise DomainError("smoothing epsilon must be positive")
        d = self.denominator
        kind = Table3 if self._size == VERTEX_COUNT else Table2
        # n/d + p/q = (n·q + p·d) / (d·q)
        return _table3((n * q + p * d for n in self.integers), d * q, kind)

    def _add(self, other: "_ExactTable"):
        """The entrywise sum, a table of this kind: positive plus
        nonnegative is positive."""
        if not isinstance(other, _ExactTable):
            return NotImplemented
        size, got = len(self.integers), len(other.integers)
        if got != size:
            raise DomainError(f"{type(self).__name__} needs {size} entries, got {got}")
        na, nb, d = _on_one_scale(self, other)
        return _table3(map(operator.add, na, nb), d, type(self))


@dataclass(frozen=True, init=False)
class Table3(_ExactTable):
    """A strictly positive 2x2x2 table, entries in vertex order 000..111,
    stored as 8 positive ``integers`` over one ``denominator``.

    8 positive ints (counts) are stored as they stand; any other input goes
    through the validator.  Tables derived from validated ones (``+``,
    ``scaled``, ``smoothed``, ``symmetry.apply_table``) are
    built as integer pairs on trust.
    """

    _least = 1

    def __init__(self, entries: Iterable[Rational]):
        vals = tuple(entries)
        if len(vals) == VERTEX_COUNT and all(type(e) is int and e > 0 for e in vals):
            # Counts, the common input: valid as they stand.
            _setattr(self, "integers", vals)
            _setattr(self, "denominator", 1)
        else:
            super().__init__(vals)

    __add__ = _ExactTable._add

    def scaled(self, factor: Rational) -> "Table3":
        p, q = _ratio(factor, "Table3.scaled")
        if p <= 0:
            raise DomainError("scale factor must be positive")
        return _table3((p * n for n in self.integers), self.denominator * q)

    def layer(self, axis: int, value: int) -> "Table2":
        """The 2x2 slice with the given coordinate fixed, remaining axes in order."""
        n = self.integers
        return _table3((n[v] for v in face_vertices(axis, value)), self.denominator, Table2)


@dataclass(frozen=True, init=False)
class NonnegTable3(_ExactTable):
    """A 2x2x2 table of nonnegative counts.  Zeros are allowed, so no
    triangulation is defined; use layers for determinant-sign work, or
    smoothed() to obtain a strictly positive Table3."""

    layer = Table3.layer


@dataclass(frozen=True, init=False)
class Table2(_ExactTable):
    """A nonnegative 2x2 table, entries in index order 00, 01, 10, 11."""

    _size = 4

    __add__ = _ExactTable._add

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        x, y = key
        return self.entries[(x << 1) | y]

    def det(self) -> Fraction:
        return Fraction(_cross(self.integers), self.denominator**2)

    def strictly_positive(self) -> bool:
        return all(n > 0 for n in self.integers)


def _table3(integers: Iterable[int], denominator: int, kind: type = Table3):
    """A table of ``kind`` on integers over a positive denominator, derived
    from validated tables, divided by their common factor.  Nothing else is
    checked again."""
    integers = tuple(integers)
    if denominator != 1:
        common = math.gcd(denominator, *integers)
        if common != 1:
            integers = tuple(n // common for n in integers)
            denominator //= common
    table = object.__new__(kind)
    _setattr(table, "integers", integers)
    _setattr(table, "denominator", denominator)
    return table


@dataclass(frozen=True)
class FormSigns:
    """The 20 form signs of a table, each -1, 0 or +1, indexed a..t."""

    signs: tuple[int, ...]

    def __getitem__(self, letter: str) -> int:
        return self.signs[FORM_INDEX[letter]]

    def as_dict(self) -> dict[str, int]:
        return dict(zip(FORM_LETTERS, self.signs))


def eval_form_signs(table: Table3) -> FormSigns:
    """Exact signs of all 20 forms on a strictly positive table."""
    pos, neg = _int_sign_bits(*table.integers)
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
    """All 17 dependence signs, each decided exactly.

    The conditional signs are layer determinants, read from forms a-f.
    The mutual signs compare the joint cell against the product of the three
    marginal probabilities; they are degree-3 comparisons on totals and are
    not the same monomial comparisons as the five-term forms m-t, which are
    circuit dependences of the cube.  Both families are exposed.  Every
    comparison is homogeneous in the entries, so it is made on the table's
    integers and the denominator cancels.
    """
    n = table.integers
    grand = sum(n)
    # totals[a][b]: the total of the entries whose coordinate a is b
    totals = [[sum(n[v] for v in face_vertices(a, b)) for b in (0, 1)] for a in range(3)]
    mutual = []
    for v in VERTICES:
        x, y, z = vertex_bits(v)
        mutual.append(_sign(grand * grand * n[v] - totals[0][x] * totals[1][y] * totals[2][z]))
    marginal = []
    for a in range(3):
        c = [n[u] + n[w] for u, w in zip(face_vertices(a, 0), face_vertices(a, 1))]
        marginal.append(_sign(c[0] * c[3] - c[1] * c[2]))
    signs = eval_form_signs(table)
    conditional = tuple(signs[FACE_FORM[face]] for face in FACES)
    return CorrelationProfile(tuple(mutual), tuple(marginal), conditional)


class Reversal2D(Enum):
    POS_TO_NEG = "ReversalPosToNeg"
    NEG_TO_POS = "ReversalNegToPos"
    NO_REVERSAL = "NoReversal"
    DEGENERATE = "Degenerate"


class Diagonal2D(Enum):
    DIAG_00_11 = "Diag00_11"
    DIAG_01_10 = "Diag01_10"
    DEGENERATE = "Degenerate"


def _check_tables(kind: type, *tables) -> None:
    """Raise DomainError, naming the type, unless every table is a ``kind``."""
    for t in tables:
        if not isinstance(t, kind):
            raise DomainError(f"expected a {kind.__name__}, got {type(t).__name__}")


def detect_reversal_2d(f: Table2, g: Table2) -> Reversal2D:
    """Simpson reversal test: both determinant signs agree and the sign of the
    entrywise sum's determinant is opposite.  Degenerate if any determinant
    vanishes.  The signs are those of integer cross products; the sum's are
    taken on one integer scale."""
    _check_tables(Table2, f, g)
    nf, ng, _ = _on_one_scale(f, g)
    df, dg = _sign(_cross(f.integers)), _sign(_cross(g.integers))
    ds = _sign(_cross(map(operator.add, nf, ng)))
    if df == 0 or dg == 0 or ds == 0:
        return Reversal2D.DEGENERATE
    if df == dg == -ds:
        return Reversal2D.POS_TO_NEG if df > 0 else Reversal2D.NEG_TO_POS
    return Reversal2D.NO_REVERSAL


def classify_2d(f: Table2) -> Diagonal2D:
    """Which diagonal of the square the lifted table induces: the main diagonal
    {00, 11} iff F00*F11 > F01*F10."""
    _check_tables(Table2, f)
    if not f.strictly_positive():
        raise DomainError("classify_2d requires strictly positive entries")
    d = _cross(f.integers)
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
    return {"entries": table.entry_strings()}


def load_table(path, allow_zero: bool = False) -> Union[Table3, NonnegTable3, Table2]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read table {path}: {exc}") from None
    return table_from_json_obj(obj, allow_zero=allow_zero)


def _writable(path, what: str) -> None:
    """Raise OSError if ``path`` is a directory or its directory is missing,
    so that a command finds either before it runs, not after."""
    if os.path.isdir(path):
        raise OSError(errno.EISDIR, f"cannot write {what}: it is a directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise OSError(errno.ENOENT, f"cannot write {what}: its directory does not exist")


def _replace_file(path, write: Callable[[TextIO], object], what: str) -> None:
    """Replace the file at ``path`` whole by what ``write`` writes to a text
    handle (utf-8, ``newline=""``), or raise and leave the file as it was.

    The text goes to a temporary file beside the file a symlink names,
    which ``os.replace`` then moves over it; on any error the temporary file
    is removed.  The file gets the mode a plain ``open`` gives it: the old
    file's, or 0o666 less the umask.  A device or a pipe cannot be replaced,
    so it is written in place.  An OSError creating the temporary file
    names ``what``.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        return
    path = os.path.realpath(path)
    temp = os.path.join(os.path.dirname(path), f"tmp{os.urandom(8).hex()}.tmp")
    try:
        # As in open, the umask is taken off 0o666.
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, f"cannot write {what}: {exc.strerror}") from None
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            if os.path.exists(path):
                os.chmod(temp, os.stat(path).st_mode & 0o7777)
            write(fh)
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise
