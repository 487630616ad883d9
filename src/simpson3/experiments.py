"""Randomized experiments: frequency estimation and witness search.

All randomness flows through purpose-coded PCG64 streams derived from a
single user seed.  Every estimate is reproducible from ``(seed,
worker_count)`` and its sample count.  Witness search draws each class's
starts from a stream of its own, so a search result depends only on
``(seed, key, budget)``: a class gets the same outcome alone and in a
sweep, whatever else the sweep holds.
Tables are drawn with independent Exp(1) entries; because triangulation
classification is invariant under rescaling a table by a positive
constant, this induces the same distribution over classes as sampling
cell probabilities uniformly from the simplex.
"""

from __future__ import annotations

import csv
import datetime
import errno
import json
import logging
import os
import tempfile
import warnings
from collections import deque
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CatalogError, DegenerateTable, DomainError
from .feasibility import obstructing_vertices
from .symmetry import canonical_classes, pad_key
from .tables import NonnegTable3, Table3, _integer, _pair_sign_bits, _table3
from .tables import parse_rational, table_from_json_obj
from .triangulation import (
    FORM_MATRIX,
    _classified,
    classify_heights_batch,
    get_catalog,
)

# Purpose codes keep the independent random streams from ever colliding.
_PURPOSE_MC2D = 1
_PURPOSE_MC3D = 2
_PURPOSE_SWEEP = 4

_CHUNK = 1 << 16

_LOG = logging.getLogger("simpson3")

# Witness descent: required sign margin in log space, bound on every log
# entry, Adam step size and moment decays, iterations per restart, restarts
# in a class's first wave (each later wave doubles), and rows evaluated at
# once (the block).
_OPT_MARGIN = 0.05
_OPT_BOX = 12.0
_OPT_LR = 0.6
_OPT_BETA1 = 0.7
_OPT_BETA2 = 0.999
_OPT_MAXITER = 600
_OPT_WAVE = 16
_OPT_BLOCK = 512


@dataclass(frozen=True)
class SamplerConfig:
    """Seeding parameters shared by all experiments."""

    seed: int = 0
    worker_count: int = 1

    def __post_init__(self) -> None:
        for name in ("seed", "worker_count"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")
        if self.worker_count < 1:
            raise DomainError("worker_count must be at least 1")

    def stream(self, purpose: int, *key: int) -> np.random.Generator:
        """Return the PCG64 generator for one purpose-coded stream, keyed by
        a worker index or by a class's padded ids."""
        seq = np.random.SeedSequence([self.seed, purpose, *key])
        return np.random.Generator(np.random.PCG64(seq))

    def worker_quotas(self, total: int) -> list[int]:
        """Split ``total`` samples across workers as evenly as possible."""
        base, extra = divmod(total, self.worker_count)
        return [base + (1 if w < extra else 0) for w in range(self.worker_count)]


def _stream_chunks(config: SamplerConfig, purpose: int, total: int):
    """Yield ``(rng, rows)``: each worker stream of the purpose with its
    quota of ``total`` rows, in chunks of at most ``_CHUNK``, to draw."""
    for worker, quota in enumerate(config.worker_quotas(total)):
        rng = config.stream(purpose, worker)
        for done in range(0, quota, _CHUNK):
            yield rng, min(_CHUNK, quota - done)


@dataclass(frozen=True)
class FrequencyEstimate:
    """Monte Carlo event frequencies with binomial standard errors."""

    sample_count: int
    degenerate_discards: int
    counts: dict[str, int]
    estimates: dict[str, float]
    standard_errors: dict[str, float]
    targets: dict[str, str]
    seed: int
    worker_count: int

    def to_json_obj(self) -> dict:
        return {
            "sampleCount": self.sample_count,
            "degenerateDiscards": self.degenerate_discards,
            "eventCounts": dict(self.counts),
            "pointEstimates": dict(self.estimates),
            "standardErrors": dict(self.standard_errors),
            "conjecturedTargets": dict(self.targets),
            "seed": self.seed,
            "workerCount": self.worker_count,
        }


def _finalize(
    config: SamplerConfig,
    total: int,
    discards: int,
    counts: dict[str, int],
    targets: dict[str, str],
) -> FrequencyEstimate:
    effective = total - discards
    if effective == 0:
        raise DomainError(f"all {total} samples were discarded as degenerate")
    estimates: dict[str, float] = {}
    errors: dict[str, float] = {}
    for key, hits in counts.items():
        p = hits / effective
        estimates[key] = p
        errors[key] = float(np.sqrt(p * (1.0 - p) / effective))
    return FrequencyEstimate(
        sample_count=total,
        degenerate_discards=discards,
        counts=counts,
        estimates=estimates,
        standard_errors=errors,
        targets=targets,
        seed=config.seed,
        worker_count=config.worker_count,
    )


def _at_least_one(value: int, what: str) -> int:
    if (count := _integer(value, what)) < 1:
        raise DomainError(f"{what} must be at least 1, got {count}")
    return count


def estimate_2d_reversal(config: SamplerConfig, sample_count: int) -> FrequencyEstimate:
    """Estimate how often adding two random 2x2 tables reverses association.

    A pair (F, G) counts as a reversal when F and G share a strict
    association sign and the entrywise sum F + G carries the opposite
    strict sign.  Pairs where any of the three determinants vanishes to
    working precision are discarded as degenerate.  Raises DomainError
    unless ``sample_count`` is at least 1.
    """
    sample_count = _at_least_one(sample_count, "sample count")
    counts = {"reversal": 0, "reversalPosToNeg": 0, "reversalNegToPos": 0}
    discards = 0
    for rng, m in _stream_chunks(config, _PURPOSE_MC2D, sample_count):
        f, g = rng.standard_exponential((2, m, 4))
        s = f + g
        df = f[:, 0] * f[:, 3] - f[:, 1] * f[:, 2]
        dg = g[:, 0] * g[:, 3] - g[:, 1] * g[:, 2]
        ds = s[:, 0] * s[:, 3] - s[:, 1] * s[:, 2]
        degenerate = (df == 0.0) | (dg == 0.0) | (ds == 0.0)
        discards += int(np.count_nonzero(degenerate))
        ok = ~degenerate
        pos_to_neg = ok & (df > 0.0) & (dg > 0.0) & (ds < 0.0)
        neg_to_pos = ok & (df < 0.0) & (dg < 0.0) & (ds > 0.0)
        counts["reversalPosToNeg"] += int(np.count_nonzero(pos_to_neg))
        counts["reversalNegToPos"] += int(np.count_nonzero(neg_to_pos))
    counts["reversal"] = counts["reversalPosToNeg"] + counts["reversalNegToPos"]
    targets = {"reversal": "1/60", "reversalPosToNeg": "1/120", "reversalNegToPos": "1/120"}
    return _finalize(config, sample_count, discards, counts, targets)


def estimate_3d_conversion(config: SamplerConfig, sample_count: int) -> FrequencyEstimate:
    """Estimate triangulation coincidence and conversion rates for sums.

    Each sample draws a pair (F, G) of positive 2x2x2 tables.  The pair
    counts as ``sameTriangulation`` when F and G induce the same
    triangulation of the cube; it additionally counts as ``conversion``
    when F + G induces a different triangulation, and as
    ``sameNoConversion`` when the sum repeats the shared one.  Samples
    where any of the three classifications is degenerate at the batch
    classifier's default margin are discarded.  Raises DomainError unless
    ``sample_count`` is at least 1.
    """
    sample_count = _at_least_one(sample_count, "sample count")
    catalog = get_catalog()
    counts = {"sameTriangulation": 0, "conversion": 0, "sameNoConversion": 0}
    discards = 0
    for rng, m in _stream_chunks(config, _PURPOSE_MC3D, sample_count):
        entries = rng.standard_exponential((m, 16))
        f = entries[:, 0::2]
        g = entries[:, 1::2]
        ids_f = classify_heights_batch(np.log(f), catalog)
        ids_g = classify_heights_batch(np.log(g), catalog)
        s = f + g
        np.log(s, out=s)
        ids_s = classify_heights_batch(s, catalog)
        degenerate = (ids_f == 0) | (ids_g == 0) | (ids_s == 0)
        discards += int(np.count_nonzero(degenerate))
        same = ~degenerate & (ids_f == ids_g)
        counts["sameTriangulation"] += int(np.count_nonzero(same))
        counts["conversion"] += int(np.count_nonzero(same & (ids_s != ids_f)))
        counts["sameNoConversion"] += int(np.count_nonzero(same & (ids_s == ids_f)))
    targets = {
        "sameTriangulation": "17/900",
        "conversion": "2/900",
        "sameNoConversion": "15/900",
    }
    return _finalize(config, sample_count, discards, counts, targets)


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
    and raise as ``classify_exact`` would: on F, then G, then the sum.
    """
    catalog = get_catalog()
    bits = _pair_sign_bits(f, g)
    return ConversionReport(*(_classified(catalog, *b).canonical_id for b in bits))


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
        """Whether the tables induce the key's ids; an internal fault raises."""
        try:
            ids = self.induced_ids()
        except DegenerateTable:
            return False
        return ids == pad_key(self.class_key)


@dataclass(frozen=True)
class Exhausted:
    """Marker that a search consumed its budget without finding a witness."""

    class_key: tuple[int, ...]
    attempts: int


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


_KEY_KINDS = {2: "pair", 3: "triple"}


def _hinge_rows(
    h: np.ndarray, sign: np.ndarray, forms: np.ndarray, form_grad: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Which rows have zero squared hinge on the membership margins of F, G
    and F + G, and the hinge's gradient, for many rows at once.

    Column ``r`` of ``h`` (16, n) stacks the log entries of F and G; the
    other arguments come from ``_active_rows``.  Each constrained form
    must reach ``_OPT_MARGIN``, and a sign of 0 keeps a row's gap at 0.
    The loss is smooth and vanishes exactly on the open witness region
    with margin to spare.  The k form values are one (k, 24) product and
    the gradient one (24, k) product, both on w columns: with coefficients
    in {0, ±1, ±2} every term is exact, every sum runs in ascending order
    and the rows left out would add only exact zeros, so a row's result
    never depends on the other columns.  A nonzero gap is at least an ulp
    of the margin, so the loss is zero exactly when no gap is nonzero.
    """
    n = h.shape[1]
    hf, hg = h[:8], h[8:]
    # |hg - hf| <= 24 inside the box, so the ratio cannot overflow.
    ratio = np.exp(hg - hf)
    # The log entries of F, G and the sum; the padding columns are zero,
    # and so are their gaps.
    parts = np.empty((3, 8, sign.shape[1]))
    parts[..., n:] = 0.0
    parts[:2, :, :n] = h.reshape(2, 8, n)
    np.add(hf, np.log1p(ratio), out=parts[2, :, :n])
    # The signed gaps max(margin - sign * value, 0) * sign, in place.
    gap = np.matmul(forms, parts.reshape(24, -1))
    gap *= sign
    np.maximum(np.subtract(_OPT_MARGIN, gap, out=gap), 0.0, out=gap)
    gap *= sign
    zero = ~gap[:, :n].any(axis=0)
    grad_f, grad_g, grad_s = np.matmul(form_grad, gap).reshape(3, 8, -1)[..., :n]
    shared = grad_s * (1.0 / (1.0 + ratio))
    return zero, np.concatenate([grad_f + shared, grad_g + grad_s - shared])


# The 20 forms of F, G and F + G as one (60, 24) block: row 3f + s is form
# f of summand s (F, G, the sum) over columns 8s to 8s + 7, the summand's
# entries in the stacked (3, 8) parts; and the block's gradient map.
_SUMMAND_FORMS = np.einsum("fj,st->fstj", FORM_MATRIX, np.eye(3)).reshape(60, 24)
_SUMMAND_GRAD = np.ascontiguousarray(-2.0 * _SUMMAND_FORMS.T)


def _active_rows(sign: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (form, summand) rows that some column of ``sign`` (20, 3, n)
    constrains, as ``_hinge_rows`` takes them: their (k, w) signs and the
    (k, 24) and (24, k) blocks for them.  OpenBLAS sums the last n % 8
    columns of a product in another order (one column goes to gemv), so w
    rounds n up to a multiple of 8 and the extra columns' signs are 0."""
    n = sign.shape[-1]
    sign = sign.reshape(60, n)
    rows = np.flatnonzero(sign.any(axis=1))
    padded = np.zeros((len(rows), -(-n // 8) * 8))
    padded[:, :n] = sign[rows]
    return padded, _SUMMAND_FORMS[rows], _SUMMAND_GRAD.take(rows, axis=1)


# Adam's bias corrections by iteration: the step size over 1 - beta1^(t+1),
# and 1 / (1 - beta2^(t+1)).
_OPT_RATE = _OPT_LR / (1.0 - _OPT_BETA1 ** np.arange(1, _OPT_MAXITER + 1))
_OPT_SCALE = 1.0 / (1.0 - _OPT_BETA2 ** np.arange(1, _OPT_MAXITER + 1))
_NEVER = np.iinfo(np.int64).max // 2


class _Descent:
    """Projected Adam on the hinge loss over many (class, restart) rows.

    Each class runs its restarts in waves of 16, 32, 64, ... rows of up to
    ``_OPT_MAXITER`` iterations, drawn from its own start stream and cut
    so that its evaluations (one per row-iteration) never pass the budget;
    a wave starts only when the class's previous one ended without a
    witness.  Rows wait in a queue and run as the columns of a pool of at
    most ``_OPT_BLOCK``, each at its own iteration.  Each time the pool
    is refilled, its columns' signs on the 20 forms of F, G and the sum
    are gathered and cut to the (form, summand) rows that some column
    constrains, with the form blocks for those rows, so a step is one
    ``_hinge_rows`` call on the pool's active rows.
    A row retires at zero loss, where its point is verified exactly, or at
    its limit.  A class's witness is the verified zero-loss point of lowest
    (iteration, restart), and a row stops once it can no longer beat the
    best one found so far.  So a class's outcome depends only on the seed,
    its key and the budget, never on the pool size or on the other keys.
    """

    def __init__(self, keys: list[tuple[int, ...]], budget: int, config: SamplerConfig) -> None:
        budget = _at_least_one(budget, "budget")
        self.sign_table = np.ascontiguousarray(get_catalog().constraint_signs.T)
        self.keys, self.budget = keys, budget
        self.ids = np.array([pad_key(key) for key in keys], dtype=np.intp).reshape(-1, 3)
        self.rngs = [config.stream(_PURPOSE_SWEEP, *pad_key(k)) for k in keys]
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
        # The pool: every array has one column per row.
        empty = np.zeros(0, dtype=np.int64)
        self.cls, self.restart, self.limit, self.t = empty, empty, empty, empty
        self.h = self.m = self.v = np.zeros((16, 0))
        self.sign, self.forms, self.form_grad = _active_rows(np.zeros((20, 3, 0)))
        self.live = np.zeros(0, dtype=bool)

    def run(self) -> list[tuple[Witness | None, int]]:
        for c in range(len(self.keys)):
            self._plan(c)
        while True:
            self._refill()
            if not self.live.any():
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
        quarter of the pool is retired or rows wait for room."""
        live = int(np.count_nonzero(self.live))
        dead = len(self.live) - live
        if not (4 * dead >= len(self.live) > 0 or self.queue and 4 * live < 3 * _OPT_BLOCK):
            return
        keep = np.flatnonzero(self.live)
        room = _OPT_BLOCK - live
        # An empty chunk first, so that the concatenations below always
        # have an operand.
        new = [(self.cls[:0], self.cls[:0], self.cls[:0], self.h[:, :0])]
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
            starts = self.rngs[c].normal(0.0, 1.5, (take, 16))
            new.append((np.full(take, c), first + np.arange(take), limit, starts.T))
            room -= take
        cls, restart, limit, h = (np.concatenate(x, axis=-1) for x in zip(*new))
        zeros = np.zeros_like(h)
        for name, fresh in (
            ("cls", cls),
            ("restart", restart),
            ("limit", limit),
            ("t", np.zeros_like(cls)),
            ("h", h),
            ("m", zeros),
            ("v", zeros),
        ):
            setattr(self, name, np.concatenate([getattr(self, name)[..., keep], fresh], axis=-1))
        sign = np.take(self.sign_table, self.ids[self.cls].T, axis=-1)
        self.sign, self.forms, self.form_grad = _active_rows(sign)
        self.live = np.ones(len(self.cls), dtype=bool)
        self._cap()

    def _step(self) -> None:
        """One evaluation and one Adam step on every pool column."""
        zero, grad = _hinge_rows(self.h, self.sign, self.forms, self.form_grad)
        cls, restart, t = self.cls, self.restart, self.t
        zero &= self.live
        hits = np.flatnonzero(zero)
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
        ended = self.live & (zero | (t >= self.limit - 1))
        if ended.any():
            gone = cls[ended]
            np.add.at(self.spent, gone, t[ended] + 1)
            np.subtract.at(self.pending, gone, 1)
            for c in np.unique(gone):
                if self.pending[c] == 0:
                    self._plan(int(c))
            self.live &= ~ended
        self.m *= _OPT_BETA1
        self.m += (1.0 - _OPT_BETA1) * grad
        self.v *= _OPT_BETA2
        self.v += (1.0 - _OPT_BETA2) * (grad * grad)
        # Retired columns run on until the next refill; clip their index.
        scale = _OPT_SCALE.take(t, mode="clip")
        self.h -= _OPT_RATE.take(t, mode="clip") * self.m / (np.sqrt(self.v * scale) + 1e-8)
        np.clip(self.h, -_OPT_BOX, _OPT_BOX, out=self.h)
        self.t = t + 1

    def _cap(self) -> None:
        """Stop each row before the iteration at which its class found its
        witness.  Only a zero at an earlier iteration can win: the rows at
        that iteration started with the witness's row, and its lower
        restarts came first in the same step."""
        np.minimum(self.limit, self.found_at[self.cls], out=self.limit)


def _verified(key: tuple[int, ...], x: np.ndarray) -> Witness | None:
    """The witness at log point ``x``, if ``Witness.verify`` passes.  The
    tables are the entries as integers over their largest power-of-two
    denominator, reduced to lowest terms, so no ``Fraction`` is built."""
    # A contiguous copy: exp of a strided view may take another code path.
    ratios = [e.as_integer_ratio() for e in np.exp(np.array(x)).tolist()]
    scale = max(d for _, d in ratios)
    ints = [p * (scale // d) for p, d in ratios]
    witness = Witness(key, _table3(ints[:8], scale), _table3(ints[8:], scale), _timestamp())
    return witness if witness.verify() else None


class ConversionSearch:
    """Optimizer search for witnesses of summand/sum class keys.

    A class key is a smooth feasibility problem: class membership is a
    set of strict linear inequalities on log entries, and the sum's
    membership is smooth in them, so a squared hinge loss driven to zero
    from random starts lands inside the witness region directly.  One
    vectorized projected Adam descent (Kingma & Ba 2015) runs every
    (class, restart) row of a sweep at once, and the budget counts its
    loss-and-gradient evaluations per class.  Every witness is verified
    exactly before it is returned.  With seed 0 and a budget of 2·10⁵ the
    search finds all 112 feasible pair classes and 4 298 of the 4 304
    feasible triple classes; the six left open are all of type
    III->III->III (see the README).
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

    def _optimize_key(self, key: tuple[int, ...], budget: int) -> tuple[Witness | None, int]:
        """One class through the descent: its witness or None, and the
        evaluations spent."""
        return _Descent([key], budget, self.config).run()[0]

    def _sweep(
        self, keys: list[tuple[int, ...]], budget: int
    ) -> dict[tuple[int, ...], Witness | Exhausted]:
        """Run the descent on every key at once.

        The budget bounds the evaluations per class.  A class with no
        verified witness within it is reported as ``Exhausted`` with the
        evaluations it spent.
        """
        outcomes = _Descent(keys, budget, self.config).run()
        return {
            key: witness if witness is not None else Exhausted(key, spent)
            for key, (witness, spent) in zip(keys, outcomes)
        }

    def _checked_keys(
        self, class_keys: Iterable[Sequence[int]], arity: int
    ) -> list[tuple[int, ...]]:
        """Move the keys to their class representatives, which rejects
        unknown ids and equal triple summands, and refuse parity-obstructed
        classes.  ``_KEY_KINDS`` holds the arities a search takes."""
        if arity not in _KEY_KINDS:
            raise DomainError(f"class key must have 2 or 3 components, got {arity}")
        catalog = get_catalog()
        given = []
        for class_key in class_keys:
            key = tuple(class_key)
            if len(key) != arity:
                raise DomainError(
                    f"{_KEY_KINDS[arity]} class keys have {arity} components, got {class_key!r}"
                )
            given.append(key)
        keys = sorted(set(canonical_classes(given, catalog)))
        for key, vertex in zip(keys, obstructing_vertices(catalog, keys).tolist()):
            if vertex >= 0:
                raise DomainError(f"{_KEY_KINDS[arity]} class {key} is parity obstructed")
        return keys

    def sweep_pairs(
        self, class_keys: Iterable[Sequence[int]], budget: int
    ) -> dict[tuple[int, int], Witness | Exhausted]:
        """Search witnesses for pair class keys."""
        return self._sweep(self._checked_keys(class_keys, 2), budget)

    def sweep_triples(
        self, class_keys: Iterable[Sequence[int]], budget: int
    ) -> dict[tuple[int, int, int], Witness | Exhausted]:
        """Search witnesses for triple class keys."""
        return self._sweep(self._checked_keys(class_keys, 3), budget)


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
    (key,) = search._checked_keys([class_key], len(class_key))
    witness, spent = search._optimize_key(key, budget)
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
        if arity not in _KEY_KINDS:
            raise DomainError(f"witness archives hold arity 2 or 3, got {arity}")
        self.path = os.fspath(path)
        self.arity = arity
        self.columns = _archive_columns(arity)
        self.directory = os.path.dirname(os.path.abspath(self.path)) or "."

    def _witness_row(self, witness: Witness) -> list[str]:
        if witness.arity != self.arity:
            raise DomainError(
                f"archive holds arity {self.arity}, witness has arity {witness.arity}"
            )
        row = [str(c) for c in witness.class_key]
        row += [str(x) for x in witness.f.entries]
        row += [str(x) for x in witness.g.entries]
        row.append(witness.verified_at)
        return row

    def check_directory(self) -> None:
        """Raise OSError unless the archive's directory exists, so that a
        missing one is found before a search runs rather than after."""
        if not os.path.isdir(self.directory):
            raise OSError(
                errno.ENOENT,
                f"cannot write witness archive {self.path}: no directory {self.directory}",
            )

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
        rows = [self._witness_row(w) for w in witnesses]
        existing = [line for _, line in self._lines()]
        try:
            fd, tmp_path = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        except OSError as exc:
            raise OSError(
                exc.errno, f"cannot write witness archive {self.path}: {exc.strerror}"
            ) from None
        try:
            with os.fdopen(fd, "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(self.columns)
                writer.writerows(existing)
                writer.writerows(rows)
            os.replace(tmp_path, self.path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise

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
            except (ValueError, ZeroDivisionError, DomainError) as exc:
                raise CatalogError(
                    f"{self.path}, line {number}: malformed witness row: {exc}"
                ) from exc
            if not witness.verify():
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
