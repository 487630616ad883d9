"""Randomized experiments: frequency estimation and witness search.

All randomness flows through purpose-coded PCG64 streams derived from a
single user seed.  An estimate keys each chunk's stream by the chunk's
index, so it depends only on ``(seed, samples)``, and the chunk size is
part of what a seed means in both dimensions.  Witness search draws each
class's starts from a stream of its own, so a search result depends only on
``(seed, key, budget)``: a class gets the same outcome alone and in a
sweep, whatever else the sweep holds.  Its float32 descent keeps every log
entry it multiplies on the grid of multiples of 2⁻¹², so its matrix
products are exact (``_hinge_rows`` gives the bound) and no BLAS kernel
changes a result; numpy's float32 exp and log1p are not correctly rounded,
and give other witnesses on numpy's targets without AVX-512.
Tables are drawn with independent Exp(1) entries; because triangulation
classification is invariant under rescaling a table by a positive
constant, this induces the same distribution over classes as sampling
cell probabilities uniformly from the simplex.
"""

from __future__ import annotations

import csv
import datetime
import json
import logging
import operator
import os
import warnings
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import CatalogError, DegenerateTable, DomainError
from .feasibility import obstructing_vertices
from .symmetry import _KEY_KINDS, _UNPAD, _key_ids, canonical_classes, key_rows
from .tables import NonnegTable3, Table3, _check_tables, _cross, _integer, _on_one_scale, _sign
from .tables import _power_of_two_scale, _replace_file, _table3, _writable, parse_rational
from .tables import table_from_json_obj
from .triangulation import _FORM_MATRIX32, _exact_id, classify_entries_batch, get_catalog

# Purpose codes keep the independent random streams from ever colliding.
_PURPOSE_MC2D = 1
_PURPOSE_MC3D = 2
_PURPOSE_SWEEP = 4

# Rows per chunk.  Chunk c of a run, rows c * _CHUNK onward, draws from
# stream(purpose, c), so a result depends on (seed, samples) alone and
# _CHUNK is part of what a seed means in both dimensions.  The 2x2 tally
# also pairs row i of a chunk's first half with row i of its second.
_CHUNK = 1 << 16

# Rows of 2x2 pairs decided at once; a block's buffers take about 350 KB.
# On a 2-vCPU Xeon (2 MB L2 per core), 2 048-row blocks cost 0.5-0.8 ms
# more per 2^16 pairs, from their fixed per-block cost, and 8 192-row
# blocks saved little more.
_PAIR_BLOCK = 4096

_LOG = logging.getLogger("simpson3")

# Witness descent: required sign margin in log space (a multiple of 2^-12,
# on the grid of ``_to_grid``), bound on every log entry, Adam step size and
# moment decays, iterations per restart, restarts in a class's first wave
# (each later wave doubles), and rows evaluated at once (the block).
_OPT_MARGIN = 205 / 4096
_OPT_BOX = 12.0
_OPT_LR = 0.6
_OPT_BETA1 = 0.7
_OPT_BETA2 = 0.999
_OPT_MAXITER = 600
_OPT_WAVE = 16
_OPT_BLOCK = 1024
# Every _FLUSH_PERIOD steps, Adam's first moments of magnitude below
# _FLUSH_BELOW are set to +0 (``_Descent`` proves that no outcome moves).
_FLUSH_PERIOD = 32
_FLUSH_BELOW = 2.0**-75


@dataclass(frozen=True)
class SamplerConfig:
    """Seeding parameters shared by all experiments."""

    seed: int = 0
    # Accepted only as 1, for callers that still pass it.
    worker_count: int = 1

    def __post_init__(self) -> None:
        for name in ("seed", "worker_count"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")
        # SeedSequence splits an int into 32-bit words and pads short entropy
        # with zero words, so a wider seed would share another seed's streams.
        if self.seed >= 1 << 32:
            raise DomainError(f"seed must be below 2**32, got {self.seed}")
        if self.worker_count != 1:
            raise DomainError(f"worker_count must be 1, got {self.worker_count}")

    def stream(self, purpose: int, *key: int) -> np.random.Generator:
        """The PCG64 generator of one purpose-coded stream, keyed by a class's
        padded ids or by a chunk's index: so an estimate depends on (seed,
        samples) alone, and the chunk size is part of what a seed means."""
        seq = np.random.SeedSequence([self.seed, purpose, *key])
        return np.random.Generator(np.random.PCG64(seq))


def _stream_chunks(config: SamplerConfig, purpose: int, total: int):
    """Yield ``(rng, rows)`` per chunk of ``total`` rows: chunk c, rows
    c * ``_CHUNK`` onward, draws its at most ``_CHUNK`` rows from
    ``config.stream(purpose, c)``."""
    for c, done in enumerate(range(0, total, _CHUNK)):
        yield config.stream(purpose, c), min(_CHUNK, total - done)


@dataclass(frozen=True)
class FrequencyEstimate:
    """Monte Carlo event counts, with their frequencies among the samples
    not discarded and the frequencies' binomial standard errors."""

    sample_count: int
    degenerate_discards: int
    counts: dict[str, int]
    targets: dict[str, str]
    seed: int

    @cached_property
    def estimates(self) -> dict[str, float]:
        effective = self.sample_count - self.degenerate_discards
        return {key: hits / effective for key, hits in self.counts.items()}

    @cached_property
    def standard_errors(self) -> dict[str, float]:
        effective = self.sample_count - self.degenerate_discards
        return {k: float(np.sqrt(p * (1.0 - p) / effective)) for k, p in self.estimates.items()}

    def to_json_obj(self) -> dict:
        return {
            "sampleCount": self.sample_count,
            "degenerateDiscards": self.degenerate_discards,
            "eventCounts": dict(self.counts),
            "pointEstimates": dict(self.estimates),
            "standardErrors": dict(self.standard_errors),
            "conjecturedTargets": dict(self.targets),
            "seed": self.seed,
        }


def _at_least_one(value: int, what: str) -> int:
    if (count := _integer(value, what)) < 1:
        raise DomainError(f"{what} must be at least 1, got {count}")
    return count


def _estimate(
    config: SamplerConfig,
    sample_count: int,
    purpose: int,
    width: int,
    tally: Callable[[np.ndarray], Sequence[int]],
    targets: dict[str, str],
) -> FrequencyEstimate:
    """Draw ``sample_count`` rows of ``width`` Exp(1) entries from the
    purpose's chunk streams, each chunk as an (m, width) view of one
    buffer, and sum what ``tally`` returns per chunk: its discards, then
    one count per target in the targets' order.  Raises DomainError unless
    ``sample_count`` is at least 1, or when every sample is discarded."""
    total = _at_least_one(sample_count, "sample count")
    draws = np.empty(width * min(_CHUNK, total))
    sums = [0] * (1 + len(targets))
    for rng, m in _stream_chunks(config, purpose, total):
        chunk = draws[: width * m].reshape(m, width)
        rng.standard_exponential(out=chunk)
        sums = list(map(operator.add, sums, tally(chunk)))
    discards, *counts = sums
    if discards == total:
        raise DomainError(f"all {total} samples were discarded as degenerate")
    return FrequencyEstimate(total, discards, dict(zip(targets, counts)), targets, config.seed)


class _PairBlock:
    """The buffers of one block of 2x2 pairs, allocated once per chunk: the
    sums, the determinants of F, G and F + G with their second products,
    and the sign masks the tallies read."""

    def __init__(self, rows: int) -> None:
        self.s = np.empty((rows, 4))
        self.det = np.empty((3, rows))
        self.prod = np.empty((3, rows))
        self.neg = np.empty((3, rows), dtype=bool)
        self.flip = np.empty((2, rows), dtype=bool)
        self.rev = np.empty(rows, dtype=bool)


def _det_signs(pairs: np.ndarray, work: _PairBlock) -> tuple[np.ndarray, int]:
    """The determinants of F, G and F + G over a (2, b, 4) block of pairs,
    as a (3, b) view of ``work.det`` whose signs are exact, and how many of
    the b pairs are degenerate.

    Rounding is monotone, so a float determinant has the exact sign of
    its operands' determinant or is 0.  A row with a float 0 is decided
    again on the entries as integers, the sum as the exact F + G: its
    three values become the exact signs, or three zeros when an exact
    determinant vanishes (a degenerate pair).  A nonzero sum determinant
    is that of the rounded sum fl(F + G).
    """
    b = pairs.shape[1]
    s, det, prod = work.s[:b], work.det[:, :b], work.prod[:, :b]
    np.add(pairs[0], pairs[1], out=s)
    np.multiply(pairs[:, :, 0], pairs[:, :, 3], out=det[:2])
    np.multiply(pairs[:, :, 1], pairs[:, :, 2], out=prod[:2])
    np.multiply(s[:, 0], s[:, 3], out=det[2])
    np.multiply(s[:, 1], s[:, 2], out=prod[2])
    np.subtract(det, prod, out=det)
    degenerate = 0
    if not det.all():
        for row in np.flatnonzero(~det.all(axis=0)).tolist():
            n, _ = _power_of_two_scale(pairs[:, row].ravel().tolist())
            f, g = n[:4], n[4:]
            signs = [_sign(_cross(f)), _sign(_cross(g)), _sign(_cross(map(operator.add, f, g)))]
            if 0 in signs:
                degenerate += 1
                signs = 0.0
            det[:, row] = signs
    return det, degenerate


def _tally_2d_chunk(draws: np.ndarray) -> tuple[int, int, int, int]:
    """The discards, reversals, and positive-to-negative and negative-to-
    positive reversals among one chunk of raw (m, 8) draws, read as
    (2, m, 4): pair i is row i of each half.  The chunk is walked in
    cache-sized blocks, through one ``_PairBlock``."""
    m = len(draws)
    pairs = draws.reshape(2, m, 4)
    work = _PairBlock(min(_PAIR_BLOCK, m))
    discards = reversals = neg_to_pos = 0
    for lo in range(0, m, _PAIR_BLOCK):
        det, degenerate = _det_signs(pairs[:, lo : lo + _PAIR_BLOCK], work)
        b = det.shape[1]
        discards += degenerate
        # a reversal: both summand signs differ from the sum's (degenerate rows are all 0)
        neg = np.less(det, 0.0, out=work.neg[:, :b])
        flip = np.not_equal(neg[:2], neg[2], out=work.flip[:, :b])
        rev = np.logical_and(flip[0], flip[1], out=work.rev[:b])
        reversals += int(np.count_nonzero(rev))
        neg_to_pos += int(np.count_nonzero(np.logical_and(rev, neg[0], out=rev)))
    return discards, reversals, reversals - neg_to_pos, neg_to_pos


def estimate_2d_reversal(config: SamplerConfig, sample_count: int) -> FrequencyEstimate:
    """Estimate how often adding two random 2x2 tables reverses association.

    A pair (F, G) counts as a reversal when F and G share a strict
    association sign and the entrywise sum F + G carries the opposite
    strict sign.  Pairs where one of the three determinants is exactly 0
    are discarded as degenerate (see ``_det_signs``).  Raises DomainError
    unless ``sample_count`` is at least 1.

    Each chunk is drawn into one buffer and walked in cache-sized blocks
    whose buffers are allocated once per chunk.
    """
    targets = {"reversal": "1/60", "reversalPosToNeg": "1/120", "reversalNegToPos": "1/120"}
    return _estimate(config, sample_count, _PURPOSE_MC2D, 8, _tally_2d_chunk, targets)


def _tally_3d_chunk(entries: np.ndarray) -> tuple[int, int, int, int]:
    """The discards, same-triangulation pairs, conversions and
    non-conversions among one chunk of raw (m, 16) draws, F and G being
    its strided halves.

    One ``classify_entries_batch`` pass decides F and G together, block by
    block, on the entries as drawn.  Only the rows where F and G share a
    nonzero id, in draw order, are copied out and have their sum F + G
    classified; no other pair reads its sum.  The chunk's id arrays and
    masks die on return, before the next chunk is classified.
    """
    pairs = entries.reshape(-1, 8, 2)
    ids_f, ids_g = classify_entries_batch(pairs)
    shared = np.flatnonzero((ids_f == ids_g) & (ids_f != 0))
    summands = pairs[shared]
    (ids_s,) = classify_entries_batch(summands[:, :, :1], summands[:, :, 1:])
    discards = int(np.count_nonzero((ids_f == 0) | (ids_g == 0)))
    sum_discards = int(np.count_nonzero(ids_s == 0))
    no_conversion = int(np.count_nonzero(ids_s == ids_f[shared]))
    same = len(shared) - sum_discards
    return discards + sum_discards, same, same - no_conversion, no_conversion


def estimate_3d_conversion(config: SamplerConfig, sample_count: int) -> FrequencyEstimate:
    """Estimate triangulation coincidence and conversion rates for sums.

    Each sample draws a pair (F, G) of positive 2x2x2 tables.  The pair
    counts as ``sameTriangulation`` when F and G induce the same
    triangulation of the cube; it additionally counts as ``conversion``
    when F + G induces a different triangulation, and as
    ``sameNoConversion`` when the sum repeats the shared one.  Only those
    pairs have their sum classified: a pair whose summands differ is
    ``differentTriangulations`` whatever its sum is.  A sample is
    discarded when F or G is exactly degenerate, or when F and G share an
    id and the exact F + G is degenerate: when ``classify_exact`` would
    raise DegenerateTable on the drawn doubles.  Exp(1) draws are that only
    on ties between doubles, so a discard is rare.  Raises DomainError
    unless ``sample_count`` is at least 1.

    Every id is exact: ``classify_entries_batch`` gives F, G and F + G the
    ids ``classify_exact`` gives the drawn doubles and their exact sum (its
    docstring says why).
    """
    targets = {"sameTriangulation": "17/900", "conversion": "2/900", "sameNoConversion": "15/900"}
    return _estimate(config, sample_count, _PURPOSE_MC3D, 16, _tally_3d_chunk, targets)


@dataclass(frozen=True)
class ConversionReport:
    """Classification of a specific pair (F, G) and its sum."""

    id_f: int
    id_g: int
    id_sum: int

    @property
    def same_triangulation(self) -> bool:
        return self.id_f == self.id_g

    @property
    def conversion(self) -> bool:
        return self.same_triangulation and self.id_sum != self.id_f

    @property
    def verdict(self) -> str:
        if not self.same_triangulation:
            return "differentTriangulations"
        if self.conversion:
            return "conversion"
        return "sameNoConversion"


def detect_conversion(f: Table3, g: Table3) -> ConversionReport:
    """Classify F, G and F + G exactly and report the induced verdict.

    The three are decided on one integer scale, without building F + G,
    each by ``classify_exact``'s two tiers: the face-first tier, then the
    full kernel where it leaves the table.  They raise as ``classify_exact``
    would: on F, then G, then the sum; DomainError unless both are
    ``Table3``s.
    """
    _check_tables(Table3, f, g)
    catalog = get_catalog()
    nf, ng, _ = _on_one_scale(f, g)
    summed = tuple(map(operator.add, nf, ng))
    return ConversionReport(*(_exact_id(catalog, n) for n in (nf, ng, summed)))


@dataclass(frozen=True)
class Witness:
    """An exact-rational pair certifying that a class key is achievable.

    ``class_key`` is a canonical class representative: ``(A, B)`` means F
    and G both induce triangulation A while F + G induces B, and
    ``(A, B, C)`` means F induces A, G induces B and F + G induces C.
    The tables are stored in canonical coordinates, so the certified ids
    are exactly the components of the key.
    """

    class_key: tuple[int, ...]
    f: Table3
    g: Table3
    verified_at: str

    @property
    def arity(self) -> int:
        return len(self.class_key)

    def induced_ids(self) -> tuple[int, int, int]:
        report = detect_conversion(self.f, self.g)
        return (report.id_f, report.id_g, report.id_sum)

    def verify(self) -> bool:
        """Whether the tables induce the key's ids; DomainError for a key
        the search refuses (``key_rows``), and an internal fault raises."""
        (row,) = key_rows([self.class_key], get_catalog(), len(self.class_key)).tolist()
        try:
            ids = self.induced_ids()
        except DegenerateTable:
            return False
        return ids == tuple(row)


@dataclass(frozen=True)
class Exhausted:
    """Marker that a search consumed its budget without finding a witness."""

    class_key: tuple[int, ...]
    attempts: int


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _hinge_rows(work: _Work) -> None:
    """Which live rows have zero squared hinge on the membership margins of
    F, G and F + G, and the hinge's gradient, for many rows at once, into
    ``work.zero`` and ``work.grad``.

    Column ``r`` of ``work.h`` (16, n) stacks the log entries of F and G.
    Each constrained form must reach ``_OPT_MARGIN``, and a sign of 0 keeps
    a row's gap at 0.  The loss is smooth and vanishes exactly on the open
    witness region with margin to spare.

    The form values and the gradient are two stacked products, the same
    pair on every pool: summand s's (kmax, 8) forms by its (8, n) parts
    into its kmax rows of ``gap``, and its (8, kmax) gradient map by those
    rows into its 8 rows of ``prod`` (``_active_rows``).  A padded row's
    sign is 0 in every column, so its gap is +0, its zero flag is true and
    it adds nothing to the gradient.

    Every product is exact in float32 whatever the summation order,
    blocking, gemv path or FMA: h (|h| ≤ 12), the margin and log1p, hence
    hs = hf + log1p (|hs| < 12.7), lie on the grid of multiples of 2⁻¹²
    (``_to_grid``).  A form's coefficients, in {0, ±1, ±2}, sum to at most
    6 in absolute value, so a form value's terms and partial sums are grid
    multiples below 6 · 12.7 < 2⁷ (19 bits), and a gap is below 76.4; an
    entry's 20 coefficients sum to 12, so a gradient entry's are below
    2 · 12 · 76.4 < 2¹¹ (23 bits).  So a column's result depends neither on
    the other columns nor on the BLAS kernel.  A nonzero gap is at least
    2⁻¹², so the loss is zero exactly when no gap is nonzero.
    Every operation writes into ``work``'s arrays, and every scalar operand
    is one of its 0-d arrays; exp and log1p run on contiguous (8, n) operands.
    """
    ratio = work.ratio
    # |hg - hf| <= 24 inside the box, so the ratio (at most e^24 < 3e10)
    # cannot overflow, not even in float32.
    np.exp(np.subtract(work.hg, work.hf, ratio), ratio)
    np.add(work.hf, _to_grid(np.log1p(ratio, work.log1p)), work.hs)
    # The signed gaps max(margin - sign * value, 0) * sign.
    gap = work.gap
    np.matmul(work.forms, work.parts, gap)
    np.multiply(gap, work.sign, gap)
    # np.maximum takes its output only by keyword.
    np.maximum(np.subtract(work.margin, gap, gap), work.nil, out=gap)
    np.multiply(gap, work.sign, gap)
    # A live column whose rows of ``flags`` are all true: every gap is 0.
    np.equal(gap, work.nil, work.zero_gaps)
    np.logical_and.reduce(work.flags, 0, None, work.zero)
    np.matmul(work.form_grad, gap, work.prod)
    # The sum's share of F, ds / (1 + ratio), in place of the ratio.
    np.divide(work.one, np.add(work.one, ratio, ratio), ratio)
    np.multiply(ratio, work.ds, ratio)
    np.add(work.df, ratio, work.grad_f)
    np.subtract(np.add(work.dg, work.ds, work.grad_g), ratio, work.grad_g)


def _active_rows(sign: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each summand's forms as ``_hinge_rows`` takes them, given the pool's
    signs ``sign`` (20, 3, n): their (3, kmax, n) signs, (3, kmax, 8) rows
    of the form matrix, and the (3, 8, kmax) view of -2 times those rows
    that maps gaps to the gradient.  Summand s (F, G, the sum) lists the
    forms that some column constrains, in form order, then its other
    forms, in form order, up to kmax, the largest summand's count of
    constrained forms.  A padded form's sign is 0 in every column.  Every
    coefficient is 0, ±1 or ±2, so float32 holds both maps exactly."""
    active = sign.any(axis=-1)
    kmax = max(map(sum, active.T.tolist()))
    rows = (~active).argsort(axis=0, kind="stable")[:kmax].T
    forms = _FORM_MATRIX32.take(rows, 0)
    return sign[rows, np.arange(3)[:, None]], forms, np.multiply(forms, -2).swapaxes(1, 2)


# Adam's bias corrections by iteration: the step size over 1 - beta1^(t+1),
# and 1 / (1 - beta2^(t+1)), computed in float64 and rounded once to
# float32, as the two rows of one table.
_OPT_RATE = _OPT_LR / (1.0 - _OPT_BETA1 ** np.arange(1, _OPT_MAXITER + 1))
_OPT_SCALE = 1.0 / (1.0 - _OPT_BETA2 ** np.arange(1, _OPT_MAXITER + 1))
_ADAM_TABLE = np.stack([_OPT_RATE, _OPT_SCALE]).astype(np.float32)


def _read_only(value, dtype) -> np.ndarray:
    array = np.array(value, dtype)
    array.setflags(write=False)
    return array


# The step's scalar operands: the margin, 0, 1, beta1, 1 - beta1, beta2,
# 1 - beta2, Adam's 1e-8 and the box's ends, as read-only float32 0-d
# arrays.  Under NEP 50 a Python float operand rounds to the array's
# dtype, so each holds the value the float gave, but a ufunc call with a
# Python scalar costs nearly twice as much on a small pool.
_STEP_SCALARS = tuple(
    _read_only(x, np.float32)
    for x in (_OPT_MARGIN, 0.0, 1.0, _OPT_BETA1, 1.0 - _OPT_BETA1)
    + (_OPT_BETA2, 1.0 - _OPT_BETA2, 1e-8, -_OPT_BOX, _OPT_BOX, _FLUSH_BELOW)
)
_ONE_ITERATION = _read_only(1, np.int64)
# For |x| < 2^10, x + G with G = 1.5 * 2^11 lies in [2^11, 2^12], where
# float32's spacing is 2^-12, and subtracting G again is exact.
_GRID_SHIFT = _read_only(1.5 * 2**11, np.float32)


def _to_grid(x: np.ndarray) -> np.ndarray:
    """``x``, float32, rounded in place to the nearest multiple of 2^-12
    (ties to even)."""
    return np.subtract(np.add(x, _GRID_SHIFT, x), _GRID_SHIFT, x)


class _Work:
    """A pool's float32 step arrays and the views a step works through,
    built once per refill from its columns' signs on the 20 forms of F, G
    and the sum, ``sign`` (20, 3, n), so that a step allocates no array.

    ``parts`` (3, 8, n) holds the log entries ``hf``, ``hg`` and ``hs`` of
    F, G and the sum; ``h`` is the (16, n) view of its first two rows that
    the descent moves.  ``gap`` (3, kmax, n) and ``prod`` (3, 8, n) hold
    the two products of ``forms`` and ``form_grad`` (``_active_rows``),
    ``prod`` as the gradient by the entries of F, G and the sum (``df``,
    ``dg``, ``ds``); ``grad`` holds the gradient by h.  ``flags``
    (3 kmax + 1, n) holds which gaps are zero (``zero_gaps``) and, in its
    last row, ``live``, the pool's live columns, all true when it is built;
    ``zero`` gets each column's conjunction of them.  ``ratio`` and
    ``scratch`` serve the hinge and Adam; ``adam`` takes each column's Adam
    ``rate`` and ``scale`` from ``_ADAM_TABLE``, and Adam spreads them over
    a column's 16 rows before it multiplies, since numpy allocates a buffer
    for a ufunc that broadcasts a row against a block.  ``small`` is the
    (16, n) mask of Adam's flush of tiny first moments (``_Descent``).  The
    step's scalar operands are the 0-d arrays of ``_STEP_SCALARS``.
    """

    def __init__(self, sign: np.ndarray) -> None:
        n = sign.shape[-1]
        self.sign, self.forms, self.form_grad = _active_rows(sign)
        self.parts = np.empty((3, 8, n), np.float32)
        self.hf, self.hg, self.hs = self.parts
        self.h = self.parts[:2].reshape(16, n)
        kmax = self.sign.shape[1]
        self.gap = np.empty((3, kmax, n), np.float32)
        self.flags = np.empty((3 * kmax + 1, n), dtype=bool)
        self.zero_gaps, self.live = self.flags[:-1].reshape(3, kmax, n), self.flags[-1]
        self.live[...] = True
        self.zero = np.empty(n, dtype=bool)
        self.prod = np.empty((3, 8, n), np.float32)
        self.df, self.dg, self.ds = self.prod
        self.grad = np.empty((16, n), np.float32)
        self.grad_f, self.grad_g = self.grad[:8], self.grad[8:]
        self.ratio = np.empty((8, n), np.float32)
        self.scratch = np.empty((16, n), np.float32)
        self.log1p = self.scratch[:8]
        self.adam = np.empty((2, n), np.float32)
        self.rate, self.scale = self.adam
        self.margin, self.nil, self.one, self.beta1, self.rest1 = _STEP_SCALARS[:5]
        self.beta2, self.rest2, self.eps, self.low, self.high, self.tiny = _STEP_SCALARS[5:]
        self.small = np.empty((16, n), dtype=bool)


_NEVER = np.iinfo(np.int64).max // 2

# np.clip's ufunc, without the wrappers that np.clip calls it through.
try:
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip


class _Descent:
    """Projected Adam on the hinge loss over many (class, restart) rows,
    in float32, on the grid of multiples of 2^-12 (``_to_grid``): starts
    are drawn as float64 normals, and as they enter the pool they are
    rounded to float32, clipped to the box and rounded to the grid; each
    Adam step rounds h to the grid after its clip.

    Each class runs its restarts in waves of 16, 32, 64, ... rows of up to
    ``_OPT_MAXITER`` iterations, drawn from its own start stream and cut
    so that its evaluations (one per row-iteration) never pass the budget;
    a wave starts only when the class's previous one ended without a
    witness.  Rows wait in a queue and run as the columns of a pool of at
    most ``_OPT_BLOCK`` (1024), each at its own iteration.  A pool is
    built only when rows enter it: the descent starts with an empty one
    and ends without building another.  Then its columns' signs on the 20
    forms of F, G and the sum are gathered and cut to each summand's forms
    that some column constrains, padded to one count (``_active_rows``),
    and the step's arrays are built for it (``_Work``).  A step is then one
    ``_hinge_rows`` call on those forms and one Adam update, both in those
    arrays.

    Every ``_FLUSH_PERIOD`` (32) steps, once Adam's first moment m is
    updated, each moment with |m| < ``_FLUSH_BELOW`` (2⁻⁷⁵) is set to +0.
    Such a moment is inert, so h, v, t and the zero flags are bit for bit
    those of a descent that never flushes, and m differs from that
    descent's only where the latter is below 2⁻⁷⁵ in magnitude, and is +0
    there:
    - Its step: the rate is at most lr / (1 - β₁) = 2 and the denominator
      at least 10⁻⁸, so |step| ≤ 2 · 2⁻⁷⁵ / 10⁻⁸ < 2⁻⁴⁷, far below half a
      grid step (2⁻¹³).  So h - step, clipped and rounded to the grid, is
      h, as h - 0 is (a zero rounds to +0 either way).
    - Its next update: df, dg and ds are multiples of 2⁻¹¹, and the sum's
      share of F, σ = 1 / (1 + e^(hg - hf)), is at least e⁻²⁴ / (1 + e⁻²⁴)
      > 2⁻³⁵, so ds σ is 0 or at least 2⁻⁴⁶.  Added to a nonzero multiple
      of 2⁻¹¹ it gives 0 or at least 2⁻³⁵ (below 2⁻¹² it cannot cancel
      it; above, both are multiples of its ulp, at least 2⁻³⁵).  So a
      nonzero gradient entry g, df + ds σ or dg + ds - ds σ, is at least
      2⁻⁴⁶, and (1 - β₁) g at least 2⁻⁴⁸.  A float32 that large absorbs any
      addend below a quarter of its ulp, 2⁻⁷³, so β₁m + (1 - β₁) g rounds
      to the same value from m as from +0.  Under a zero gradient the
      unflushed moment only decays, and stays below 2⁻⁷⁵.
    - v reads only the gradient, and t and the zero flags only h.
    Between flushes a kept moment decays by at most 0.7³² > 2⁻¹⁷, and one
    made from a nonzero gradient is 0 or at least 2⁻⁷², so |m| is 0 or
    above 2⁻⁹², and Adam's step 0 or above 2⁻¹¹⁰ (|g| < 2¹², so the
    denominator is below 2¹⁷): neither is ever a float32 subnormal (below
    2⁻¹²⁶), whose arithmetic costs x86 CPUs a microcode assist.  Without
    the flush, 0.85 % of the first moments were subnormal after a step of
    the six open classes' sweep at 2·10⁵, in 1 788 of its 3 000 steps.
    A row retires at zero loss, where its point is verified exactly, or at
    its limit.  A step looks for rows to retire only when a live column has
    zero loss or the clock is due: the clock counts the steps before a live
    column reaches its last iteration, and ``_cap`` resets it whenever the
    pool, a limit or an iteration changes.  A class's witness is the
    verified zero-loss point of lowest (iteration, restart), and a row
    stops once it can no longer beat the best one found so far.  So a
    class's outcome depends only on the seed, its key and the budget, never
    on the pool size or on the other keys.
    """

    def __init__(
        self, keys: list[tuple[int, ...]], rows: np.ndarray, budget: int, config: SamplerConfig
    ) -> None:
        budget = _at_least_one(budget, "budget")
        self.sign_table = np.ascontiguousarray(get_catalog().constraint_signs.T, np.float32)
        self.keys, self.ids, self.budget = keys, rows, budget
        self.rngs = [config.stream(_PURPOSE_SWEEP, *row) for row in rows.tolist()]
        count = len(keys)
        self.wave = [_OPT_WAVE] * count
        self.restarts = [0] * count
        self.spent = np.zeros(count, dtype=np.int64)
        self.pending = np.zeros(count, dtype=np.int64)
        self.found_at = np.full(count, _NEVER)
        self.witness: list[Witness | None] = [None] * count
        # Planned waves as [class, next restart, rows left, last row's
        # limit]; starts are drawn as rows enter the pool, so the queue
        # stays small whatever the budget.
        self.queue: deque[list[int]] = deque()
        # The pool: every array has one column per row.  It starts empty,
        # with no step arrays (``work``) until rows enter it.
        empty = np.zeros(0, dtype=np.int64)
        self.cls, self.restart, self.limit, self.t = empty, empty, empty, empty
        self.work: _Work | None = None
        self.h = self.m = self.v = np.zeros((16, 0), np.float32)
        self.live = np.zeros(0, dtype=bool)
        # The live columns' count, and the steps before one's last iteration.
        self.live_count, self.clock = 0, _NEVER
        # Steps taken, for the flush of tiny first moments.
        self.steps = 0

    def run(self) -> list[tuple[Witness | None, int]]:
        for c in range(len(self.keys)):
            self._plan(c)
        while True:
            self._refill()
            if not self.live_count:
                return list(zip(self.witness, self.spent.tolist()))
            self._step()

    def _plan(self, c: int) -> None:
        """Queue the class's next wave, if it has no witness and budget left."""
        left = self.budget - int(self.spent[c])
        if self.witness[c] is not None or left <= 0:
            return
        count = min(self.wave[c], -(-left // _OPT_MAXITER))
        last = min(_OPT_MAXITER, left - _OPT_MAXITER * (count - 1))
        self.queue.append([c, self.restarts[c], count, last])
        self.restarts[c] += count
        self.wave[c] *= 2
        self.pending[c] = count

    def _refill(self) -> None:
        """Drop retired columns and fill the pool from the queue, once a
        quarter of the pool is retired or rows wait for room.  With no live
        column and no wave queued, the descent is over: no pool is built."""
        live = self.live_count
        dead = len(self.live) - live
        due = 4 * dead >= len(self.live) > 0 or self.queue and 4 * live < 3 * _OPT_BLOCK
        if not (due and (live or self.queue)):
            return
        keep = np.flatnonzero(self.live)
        room = _OPT_BLOCK - live
        # The kept columns, then each new chunk: one concatenation per array.
        new = [(self.cls[keep], self.restart[keep], self.limit[keep], self.h[:, keep])]
        while self.queue and room > 0:
            wave = self.queue[0]
            c, first, count, last = wave
            take = min(count, room)
            limit = np.full(take, _OPT_MAXITER)
            if take == count:
                limit[-1] = last
                self.queue.popleft()
            else:
                wave[1:3] = first + take, count - take
            starts = self.rngs[c].normal(0.0, 1.5, (take, 16)).astype(np.float32)
            _to_grid(_clip(starts, -_OPT_BOX, _OPT_BOX, starts))
            new.append((np.full(take, c), first + np.arange(take), limit, starts.T))
            room -= take
        cls, restart, limit, h = zip(*new)
        self.cls, self.restart, self.limit = map(np.concatenate, (cls, restart, limit))
        zeros = np.zeros((16, len(self.cls) - live), np.float32)
        self.t = np.concatenate([self.t[keep], np.zeros(zeros.shape[1], np.int64)])
        self.m, self.v = (np.concatenate([x[:, keep], zeros], axis=1) for x in (self.m, self.v))
        self.work = _Work(np.take(self.sign_table, self.ids[self.cls].T, axis=-1))
        np.concatenate(h, axis=1, out=self.work.h)
        self.h, self.live = self.work.h, self.work.live
        self.live_count = len(self.cls)
        self._cap()

    def _step(self) -> None:
        """One evaluation and one Adam step on every pool column, in place."""
        work = self.work
        _hinge_rows(work)
        cls, restart, t, zero = self.cls, self.restart, self.t, work.zero
        (hits,) = zero.nonzero()
        if len(hits):
            # Columns stay in the order they were admitted, and a class's
            # rows are admitted in restart order, so among equal iterations
            # the lowest restart comes first.
            for r in hits:
                c = cls[r]
                if t[r] >= self.found_at[c]:
                    continue
                witness = _verified(self.keys[c], self.h[:, r])
                if witness is None:
                    _LOG.warning(
                        "class %s: zero-loss point of restart %d fails exact verification",
                        self.keys[c],
                        restart[r],
                    )
                    continue
                self.witness[c] = witness
                self.found_at[c] = t[r]
            self._cap()
        # Only a zero-loss column or a due clock can end a column.
        if len(hits) or self.clock <= 0:
            ended = self.live & (zero | (t >= self.limit - 1))
            gone = cls[ended]
            np.add.at(self.spent, gone, t[ended] + 1)
            np.subtract.at(self.pending, gone, 1)
            for c in np.unique(gone):
                if self.pending[c] == 0:
                    self._plan(int(c))
            self.live &= ~ended
            self.live_count -= len(gone)
            self._cap()
        # Adam, with each product in the order of m += (1 - beta1) * grad
        # (on every 32nd step then m's tiny moments set to +0, through the
        # step buffer and ``small``), v += (1 - beta2) * (grad * grad) and
        # h -= rate * m / (sqrt(v * scale) + 1e-8), then h clipped to the box
        # and rounded to the grid.  The gradient's buffer ends as the
        # denominator; each column's rate and scale are spread over its 16
        # rows first.  Retired columns run on until the next refill, so their
        # iteration is clipped to the table.
        grad, step, m, v, h = work.grad, work.scratch, self.m, self.v, self.h
        np.multiply(m, work.beta1, m)
        np.add(m, np.multiply(work.rest1, grad, step), m)
        self.steps += 1
        if not self.steps % _FLUSH_PERIOD:
            np.less(np.abs(m, step), work.tiny, work.small)
            np.copyto(m, work.nil, where=work.small)
        np.multiply(v, work.beta2, v)
        np.add(v, np.multiply(np.multiply(grad, grad, grad), work.rest2, grad), v)
        _ADAM_TABLE.take(t, 1, work.adam, "clip")
        grad[...] = work.scale
        np.add(np.sqrt(np.multiply(v, grad, grad), grad), work.eps, grad)
        step[...] = work.rate
        np.divide(np.multiply(step, m, step), grad, step)
        _to_grid(_clip(np.subtract(h, step, h), work.low, work.high, h))
        np.add(t, _ONE_ITERATION, t)
        self.clock -= 1

    def _cap(self) -> None:
        """Stop each row before the iteration at which its class found its
        witness, and reset the clock.  Only a zero at an earlier iteration
        can win: the rows at that iteration started with the witness's row,
        and its lower restarts came first in the same step."""
        np.minimum(self.limit, self.found_at[self.cls], out=self.limit)
        left = (self.limit - 1 - self.t)[self.live]
        self.clock = int(left.min()) if len(left) else _NEVER


def _verified(key: tuple[int, ...], x: np.ndarray) -> Witness | None:
    """The witness at log point ``x``, if ``Witness.verify`` passes.  exp
    runs in ``x``'s dtype, float32 for the descent's points, so the entries
    are float32 values.  The tables are the entries as integers over their
    largest power-of-two denominator, reduced to lowest terms, so no
    ``Fraction`` is built."""
    # A contiguous copy: exp of a strided view may take another code path.
    ints, scale = _power_of_two_scale(np.exp(np.array(x)).tolist())
    witness = Witness(key, _table3(ints[:8], scale), _table3(ints[8:], scale), _timestamp())
    return witness if witness.verify() else None


class ConversionSearch:
    """Optimizer search for witnesses of summand/sum class keys.

    A class key is a smooth feasibility problem: class membership is a
    set of strict linear inequalities on log entries, and the sum's
    membership is smooth in them, so a squared hinge loss driven to zero
    from random starts lands inside the witness region directly.  One
    vectorized projected Adam descent (Kingma & Ba 2015) runs every
    (class, restart) row of a sweep at once, in float32, and the budget
    counts its loss-and-gradient evaluations per class.  The descent only
    proposes points: every witness is verified exactly before it is
    returned, so its precision is a matter of speed.  With seed 0 and a
    budget of 2·10⁵ the search finds all 112 feasible pair classes and
    4 298 of the 4 304 feasible triple classes; the six left open are all
    of type III->III->III (see the README).
    """

    def __init__(self, config: SamplerConfig) -> None:
        self.config = config

    def ensure_pools(self, ids: Iterable[int], count: int | None = None) -> None:
        """Deprecated no-op: the search keeps no sample pools."""
        warnings.warn(
            "ensure_pools does nothing: ConversionSearch keeps no sample pools",
            DeprecationWarning,
            stacklevel=2,
        )

    def _optimize_key(
        self, key: tuple[int, ...], rows: np.ndarray, budget: int
    ) -> tuple[Witness | None, int]:
        """One class, by its key and its (1, 3) padded row, through the
        descent: its witness or None, and the evaluations spent."""
        return _Descent([key], rows, budget, self.config).run()[0]

    def _sweep(
        self, keys: list[tuple[int, ...]], rows: np.ndarray, budget: int
    ) -> dict[tuple[int, ...], Witness | Exhausted]:
        """Run the descent on every key at once.

        The budget bounds the evaluations per class.  A class with no
        verified witness within it is reported as ``Exhausted`` with the
        evaluations it spent.
        """
        outcomes = _Descent(keys, rows, budget, self.config).run()
        return {
            key: witness if witness is not None else Exhausted(key, spent)
            for key, (witness, spent) in zip(keys, outcomes)
        }

    def _checked_keys(
        self, class_keys: Iterable[Sequence[int]], arity: int
    ) -> tuple[list[tuple[int, ...]], np.ndarray]:
        """The keys' class representatives, sorted and without repeats, as
        tuples and as padded rows; DomainError for an arity other than 2 or
        3, a bad key or a parity-obstructed class."""
        catalog = get_catalog()
        rows = canonical_classes(key_rows(class_keys, catalog, arity), catalog, unique=True)
        keys = list(map(operator.itemgetter(*_UNPAD[arity]), rows.tolist()))
        for key, vertex in zip(keys, obstructing_vertices(catalog, rows).tolist()):
            if vertex >= 0:
                raise DomainError(f"{_KEY_KINDS[arity]} class {key} is parity obstructed")
        return keys, rows

    def sweep_pairs(
        self, class_keys: Iterable[Sequence[int]], budget: int
    ) -> dict[tuple[int, int], Witness | Exhausted]:
        """Search witnesses for pair class keys."""
        return self._sweep(*self._checked_keys(class_keys, 2), budget)

    def sweep_triples(
        self, class_keys: Iterable[Sequence[int]], budget: int
    ) -> dict[tuple[int, int, int], Witness | Exhausted]:
        """Search witnesses for triple class keys."""
        return self._sweep(*self._checked_keys(class_keys, 3), budget)


def search_witness(
    class_key: Sequence[int],
    config: SamplerConfig | None = None,
    budget: int = 10**7,
) -> Witness | Exhausted:
    """Search a witness for one class key; raise DomainError if obstructed
    or if ``budget`` is below 1.

    The key is first moved to its canonical class representative.  A
    returned ``Witness`` stores exact rational tables whose induced ids
    equal the canonical key; ``Exhausted`` reports the evaluations spent.
    The descent restarts in waves of 16, 32, 64, ... random starts until
    it finds a witness or has spent ``budget`` loss-and-gradient
    evaluations, so an exhausted search has spent the whole budget.  The
    outcome depends only on the seed, the key and the budget; a search
    with a different seed draws other starts.
    """
    search = ConversionSearch(config if config is not None else SamplerConfig())
    class_key = _key_ids(class_key)
    (key,), rows = search._checked_keys([class_key], len(class_key))
    witness, spent = search._optimize_key(key, rows, budget)
    return witness if witness is not None else Exhausted(key, spent)


def _archive_columns(arity: int) -> list[str]:
    return (
        ["classA", "classB", "classC"][:arity]
        + [f"F{v:03b}" for v in range(8)]
        + [f"G{v:03b}" for v in range(8)]
        + ["verifiedAt"]
    )


class WitnessArchive:
    """CSV-backed store of verified witnesses for one class arity."""

    def __init__(self, path: str | os.PathLike, arity: int) -> None:
        if (arity := _integer(arity, "arity")) not in _KEY_KINDS:
            raise DomainError(f"witness archives hold arity 2 or 3, got {arity}")
        self.path = os.fspath(path)
        self.arity = arity
        self.columns = _archive_columns(arity)

    def _witness_row(self, witness: Witness) -> list[str]:
        if witness.arity != self.arity:
            raise DomainError(
                f"archive holds arity {self.arity}, witness has arity {witness.arity}"
            )
        row = [str(c) for c in witness.class_key]
        row += witness.f.entry_strings() + witness.g.entry_strings()
        row.append(witness.verified_at)
        return row

    def check_directory(self) -> None:
        """Raise OSError if the archive is a directory or its directory is
        missing, and DomainError if it has a foreign header, so that each is
        found before a search runs, not after."""
        _writable(self.path, f"witness archive {self.path}")
        next(self._lines(), None)

    def _lines(self) -> Iterator[tuple[int, list[str]]]:
        """(line number, cells) of each nonblank row after the header.  A
        missing or empty archive yields nothing; a foreign header raises."""
        if not os.path.exists(self.path):
            return
        with open(self.path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is not None and header != self.columns:
                raise DomainError(f"unexpected archive header in {self.path}")
            for line in reader:
                if line:
                    yield reader.line_num, line

    def append(self, witnesses: Iterable[Witness]) -> None:
        """Atomically rewrite the archive with the new witnesses added."""
        new = [self._witness_row(w) for w in witnesses]
        rows = [self.columns, *(line for _, line in self._lines()), *new]
        _replace_file(
            self.path, lambda fh: csv.writer(fh).writerows(rows), f"witness archive {self.path}"
        )

    def load(self) -> list[Witness]:
        """Read witnesses back, re-verifying the induced ids of each."""
        witnesses: list[Witness] = []
        offset = self.arity
        for number, line in self._lines():
            try:
                if len(line) != len(self.columns):
                    raise ValueError(f"{len(line)} cells, header has {len(self.columns)}")
                key = tuple(int(x) for x in line[:offset])
                cells = [parse_rational(x) for x in line[offset : offset + 16]]
                witness = Witness(key, Table3(cells[:8]), Table3(cells[8:]), line[offset + 16])
                verified = witness.verify()
            except (ValueError, ZeroDivisionError, DomainError) as exc:
                raise CatalogError(
                    f"{self.path}, line {number}: malformed witness row: {exc}"
                ) from exc
            if not verified:
                raise CatalogError(f"archived witness for {key} fails re-verification")
            witnesses.append(witness)
        return witnesses


def load_civil_rights() -> dict[str, NonnegTable3]:
    """Load the bundled 1964 Civil Rights Act vote counts.

    Keys are ``north``, ``south`` and ``all`` (the entrywise sum of the
    two regions).  Axes are chamber (House/Senate), party
    (Democrat/Republican) and vote (yes/no); several southern cells are
    zero, so the tables are returned in nonnegative form and need
    explicit smoothing before triangulation classification.
    """
    text = resources.files(__package__).joinpath("data/civil_rights.json").read_text()
    payload = json.loads(text)
    out: dict[str, NonnegTable3] = {}
    for key in ("north", "south", "all"):
        table = table_from_json_obj(payload[key], allow_zero=True)
        if not isinstance(table, NonnegTable3):
            raise DomainError(f"civil rights table {key!r} must have 8 entries")
        out[key] = table
    return out
