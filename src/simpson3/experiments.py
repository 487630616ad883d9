"""Randomized experiments: frequency estimation and witness search.

All randomness flows through purpose-coded PCG64 streams derived from a
single user seed, so every estimate and every discovered witness is
reproducible from ``(seed, worker_count)`` plus the stated budgets.
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
import os
import tempfile
import warnings
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Iterable, Sequence

import numpy as np

from .errors import CatalogError, DomainError, Simpson3Error
from .feasibility import obstruction_triple
from .symmetry import canonical_class_of, pad_key
from .tables import NonnegTable3, Table3, format_rational, table_from_json_obj
from .triangulation import (
    DEFAULT_TOLERANCE,
    FORM_MATRIX,
    Catalog,
    classify_exact,
    classify_heights_batch,
    get_catalog,
)

# Purpose codes keep the independent random streams from ever colliding.
_PURPOSE_SINGLE = 0
_PURPOSE_MC2D = 1
_PURPOSE_MC3D = 2
_PURPOSE_SWEEP = 4

_CHUNK = 1 << 16

_LOG = logging.getLogger("simpson3")

# Witness optimization: required sign margin in log space, restart count,
# and iteration cap per restart.
_OPT_MARGIN = 0.05
_OPT_RESTARTS = 60
_OPT_MAXITER = 300


@dataclass(frozen=True)
class SamplerConfig:
    """Seeding and precision parameters shared by all experiments."""

    seed: int = 0
    worker_count: int = 1
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        if self.worker_count < 1:
            raise DomainError("worker_count must be at least 1")
        if not (self.tolerance > 0.0):
            raise DomainError("tolerance must be positive")

    def stream(self, purpose: int, worker: int = 0) -> np.random.Generator:
        """Return the PCG64 generator for one purpose-coded worker stream."""
        seq = np.random.SeedSequence([self.seed, purpose, worker])
        return np.random.Generator(np.random.PCG64(seq))

    def worker_quotas(self, total: int) -> list[int]:
        """Split ``total`` samples across workers as evenly as possible."""
        base, extra = divmod(total, self.worker_count)
        return [base + (1 if w < extra else 0) for w in range(self.worker_count)]


def sample_tables(config: SamplerConfig, dimension: int, count: int) -> np.ndarray:
    """Draw ``count`` tables with i.i.d. Exp(1) entries as float rows."""
    if dimension == 2:
        width = 4
    elif dimension == 3:
        width = 8
    else:
        raise DomainError(f"dimension must be 2 or 3, got {dimension}")
    rng = config.stream(_PURPOSE_SINGLE)
    return rng.standard_exponential((count, width))


def sample_table(config: SamplerConfig, dimension: int) -> np.ndarray:
    """Draw a single table with i.i.d. Exp(1) entries."""
    return sample_tables(config, dimension, 1)[0]


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

    @property
    def effective_count(self) -> int:
        return self.sample_count - self.degenerate_discards

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
    estimates: dict[str, float] = {}
    errors: dict[str, float] = {}
    for key, hits in counts.items():
        if effective > 0:
            p = hits / effective
            estimates[key] = p
            errors[key] = float(np.sqrt(p * (1.0 - p) / effective))
        else:
            estimates[key] = float("nan")
            errors[key] = float("nan")
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


def _check_sample_count(sample_count: int) -> None:
    if sample_count < 1:
        raise DomainError(f"sample count must be at least 1, got {sample_count}")


def estimate_2d_reversal(config: SamplerConfig, sample_count: int) -> FrequencyEstimate:
    """Estimate how often adding two random 2x2 tables reverses association.

    A pair (F, G) counts as a reversal when F and G share a strict
    association sign and the entrywise sum F + G carries the opposite
    strict sign.  Pairs where any of the three determinants vanishes to
    working precision are discarded as degenerate.  Raises DomainError
    unless ``sample_count`` is at least 1.
    """
    _check_sample_count(sample_count)
    counts = {"reversal": 0, "reversalPosToNeg": 0, "reversalNegToPos": 0}
    discards = 0
    for worker, quota in enumerate(config.worker_quotas(sample_count)):
        rng = config.stream(_PURPOSE_MC2D, worker)
        done = 0
        while done < quota:
            m = min(_CHUNK, quota - done)
            f = rng.standard_exponential((m, 4))
            g = rng.standard_exponential((m, 4))
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
            done += m
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
    where any of the three classifications is degenerate at the working
    tolerance are discarded.  Raises DomainError unless ``sample_count`` is
    at least 1.
    """
    _check_sample_count(sample_count)
    catalog = get_catalog()
    counts = {"sameTriangulation": 0, "conversion": 0, "sameNoConversion": 0}
    discards = 0
    for worker, quota in enumerate(config.worker_quotas(sample_count)):
        rng = config.stream(_PURPOSE_MC3D, worker)
        done = 0
        while done < quota:
            m = min(_CHUNK, quota - done)
            entries = rng.standard_exponential((m, 16))
            f = entries[:, 0::2]
            g = entries[:, 1::2]
            ids_f = classify_heights_batch(np.log(f), catalog, config.tolerance)
            ids_g = classify_heights_batch(np.log(g), catalog, config.tolerance)
            ids_s = classify_heights_batch(np.log(f + g), catalog, config.tolerance)
            degenerate = (ids_f == 0) | (ids_g == 0) | (ids_s == 0)
            discards += int(np.count_nonzero(degenerate))
            same = ~degenerate & (ids_f == ids_g)
            counts["sameTriangulation"] += int(np.count_nonzero(same))
            counts["conversion"] += int(np.count_nonzero(same & (ids_s != ids_f)))
            counts["sameNoConversion"] += int(np.count_nonzero(same & (ids_s == ids_f)))
            done += m
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

    def to_json_obj(self) -> dict:
        return {
            "triangulationF": self.id_f,
            "triangulationG": self.id_g,
            "triangulationSum": self.id_sum,
            "verdict": self.verdict,
        }


def detect_conversion(f: Table3, g: Table3) -> ConversionReport:
    """Classify F, G and F + G exactly and report the induced verdict."""
    return ConversionReport(
        id_f=classify_exact(f).canonical_id,
        id_g=classify_exact(g).canonical_id,
        id_sum=classify_exact(f + g).canonical_id,
    )


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
        try:
            ids = self.induced_ids()
        except Simpson3Error:
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


def _normalize_key(class_key: Sequence[int], arity: int, catalog: Catalog) -> tuple[int, ...]:
    """Move a class key of the given arity to its class representative;
    the canonicalization rejects unknown ids and equal triple summands."""
    key = tuple(class_key)
    if len(key) != arity:
        raise DomainError(
            f"{_KEY_KINDS[arity]} class keys have {arity} components, got {class_key!r}"
        )
    return canonical_class_of(key, catalog)


class ConversionSearch:
    """Optimizer search for witnesses of summand/sum class keys.

    A class key is a smooth feasibility problem: class membership is a
    set of strict linear inequalities on log entries, and the sum's
    membership is smooth in them, so a hinge loss driven to zero by a
    quasi-Newton method from random starts lands inside the witness
    region directly.  Every witness is verified exactly before it is
    returned.  With seed 0 the search finds all 112 feasible pair classes
    and 4 298 of the 4 304 feasible triple classes; the six left open are
    all of type III->III->III (see the README).
    """

    def __init__(
        self,
        config: SamplerConfig,
        catalog: Catalog | None = None,
        pool_size: int | None = None,
    ) -> None:
        if pool_size is not None:
            warnings.warn(
                "pool_size is ignored: ConversionSearch keeps no sample pools",
                DeprecationWarning,
                stacklevel=2,
            )
        self.config = config
        self.catalog = catalog if catalog is not None else get_catalog()
        self._constraints: dict[int, np.ndarray] = {}

    def ensure_pools(self, ids: Iterable[int], count: int | None = None) -> None:
        """Deprecated no-op: the search keeps no sample pools."""
        warnings.warn(
            "ensure_pools does nothing: ConversionSearch keeps no sample pools",
            DeprecationWarning,
            stacklevel=2,
        )

    def _constraint_matrix(self, tid: int) -> np.ndarray:
        """Rows of the form matrix oriented so membership reads as > 0."""
        cached = self._constraints.get(tid)
        if cached is None:
            masks, vals = self.catalog._constraint_bits()
            bits = 1 << np.arange(len(FORM_MATRIX))
            rows = np.flatnonzero(masks[tid - 1] & bits)
            signs = np.where(vals[tid - 1] & bits[rows], 1.0, -1.0)
            cached = FORM_MATRIX[rows] * signs[:, None]
            self._constraints[tid] = cached
        return cached

    @staticmethod
    def _hinge_loss(
        h: np.ndarray, cf: np.ndarray, cg: np.ndarray, cs: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Squared hinge on the membership margins of F, G and F + G.

        ``h`` stacks the log entries of F and G.  The sum's log entries
        are a smooth function of both halves, so the loss is
        differentiable and vanishes exactly on the open witness region
        with margin to spare.
        """
        hf, hg = h[:8], h[8:]
        peak = np.maximum(hf, hg)
        hs = peak + np.log(np.exp(hf - peak) + np.exp(hg - peak))
        weight = 1.0 / (1.0 + np.exp(hg - hf))
        value = 0.0
        grad_f = np.zeros(8)
        grad_g = np.zeros(8)
        for margins, rows, part in (
            (cf @ hf, cf, "f"),
            (cg @ hg, cg, "g"),
            (cs @ hs, cs, "s"),
        ):
            gap = _OPT_MARGIN - margins
            active = gap > 0.0
            value += float(np.sum(gap[active] ** 2))
            coeff = np.where(active, -2.0 * gap, 0.0)
            if part == "f":
                grad_f += coeff @ rows
            elif part == "g":
                grad_g += coeff @ rows
            else:
                grad_f += coeff @ (rows * weight)
                grad_g += coeff @ (rows * (1.0 - weight))
        return value, np.concatenate([grad_f, grad_g])

    def _optimize_key(
        self, key: tuple[int, ...], rng: np.random.Generator, budget: int
    ) -> tuple[Witness | None, int]:
        """Drive the hinge loss to zero from random starts; verify exactly."""
        from scipy.optimize import minimize

        id_f, id_g, id_sum = pad_key(key)
        cf = self._constraint_matrix(id_f)
        cg = self._constraint_matrix(id_g)
        cs = self._constraint_matrix(id_sum)
        bounds = [(-12.0, 12.0)] * 16
        evaluations = 0
        for restart in range(_OPT_RESTARTS):
            if evaluations >= budget:
                break
            start = rng.normal(0.0, 1.5, 16)
            result = minimize(
                self._hinge_loss,
                start,
                args=(cf, cg, cs),
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
                options={"maxiter": _OPT_MAXITER},
            )
            evaluations += int(result.nfev)
            if result.fun != 0.0:
                continue
            f_exact = Table3(tuple(Fraction(float(x)) for x in np.exp(result.x[:8])))
            g_exact = Table3(tuple(Fraction(float(x)) for x in np.exp(result.x[8:])))
            witness = Witness(
                class_key=key, f=f_exact, g=g_exact, verified_at=_timestamp()
            )
            if witness.verify():
                return witness, evaluations
            _LOG.warning(
                "class %s: zero-loss point of restart %d fails exact verification",
                key,
                restart,
            )
        return None, evaluations

    def _sweep(
        self, keys: list[tuple[int, ...]], budget: int
    ) -> dict[tuple[int, ...], Witness | Exhausted]:
        """Run the optimizer on every key in order from one shared stream.

        The budget bounds the optimizer evaluations per class.  A class
        whose restarts find no verified witness is reported as
        ``Exhausted`` with the evaluations it spent.
        """
        results: dict[tuple[int, ...], Witness | Exhausted] = {}
        rng = self.config.stream(_PURPOSE_SWEEP)
        for key in keys:
            witness, evaluations = self._optimize_key(key, rng, budget)
            results[key] = witness if witness is not None else Exhausted(key, evaluations)
        return results

    def _checked_sweep(
        self, class_keys: Iterable[Sequence[int]], arity: int, budget: int
    ) -> dict[tuple[int, ...], Witness | Exhausted]:
        """Normalize the keys, refuse parity-obstructed classes, then sweep."""
        keys = sorted({_normalize_key(k, arity, self.catalog) for k in class_keys})
        for key in keys:
            if obstruction_triple(*(self.catalog[i] for i in pad_key(key))).obstructed:
                raise DomainError(f"{_KEY_KINDS[arity]} class {key} is parity obstructed")
        return self._sweep(keys, budget)

    def sweep_pairs(
        self, class_keys: Iterable[Sequence[int]], budget: int
    ) -> dict[tuple[int, int], Witness | Exhausted]:
        """Search witnesses for pair class keys."""
        return self._checked_sweep(class_keys, 2, budget)

    def sweep_triples(
        self, class_keys: Iterable[Sequence[int]], budget: int
    ) -> dict[tuple[int, int, int], Witness | Exhausted]:
        """Search witnesses for triple class keys."""
        return self._checked_sweep(class_keys, 3, budget)


def search_witness(
    class_key: Sequence[int],
    config: SamplerConfig | None = None,
    budget: int = 10**7,
    catalog: Catalog | None = None,
) -> Witness | Exhausted:
    """Search a witness for one class key; raise DomainError if obstructed.

    The key is first moved to its canonical class representative.  A
    returned ``Witness`` stores exact rational tables whose induced ids
    equal the canonical key; ``Exhausted`` reports the optimizer
    evaluations spent.  The search stops at ``budget`` evaluations or
    after its 60 restarts, whichever comes first, so a budget above about
    12 000 evaluations buys no further search.  A fresh search with a
    different seed can be tried on exhaustion.
    """
    key = tuple(int(x) for x in class_key)
    if len(key) not in _KEY_KINDS:
        raise DomainError(f"class key must have 2 or 3 components, got {len(key)}")
    search = ConversionSearch(config if config is not None else SamplerConfig(), catalog)
    (result,) = search._checked_sweep([key], len(key), budget).values()
    return result


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
        if arity not in (2, 3):
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
        row += [format_rational(x) for x in witness.f.entries]
        row += [format_rational(x) for x in witness.g.entries]
        row.append(witness.verified_at)
        return row

    def append(self, witnesses: Iterable[Witness]) -> None:
        """Atomically rewrite the archive with the new witnesses added."""
        rows = [self._witness_row(w) for w in witnesses]
        existing: list[list[str]] = []
        if os.path.exists(self.path):
            with open(self.path, newline="") as handle:
                reader = csv.reader(handle)
                header = next(reader, None)
                if header is not None and header != self.columns:
                    raise DomainError(f"unexpected archive header in {self.path}")
                existing = [line for line in reader if line]
        directory = os.path.dirname(os.path.abspath(self.path)) or "."
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
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

    def load(self, verify: bool = True) -> list[Witness]:
        """Read witnesses back, re-verifying the induced ids by default."""
        if not os.path.exists(self.path):
            return []
        witnesses: list[Witness] = []
        with open(self.path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header != self.columns:
                raise DomainError(f"unexpected archive header in {self.path}")
            for line in reader:
                if not line:
                    continue
                key = tuple(int(x) for x in line[: self.arity])
                offset = self.arity
                f = Table3(tuple(Fraction(x) for x in line[offset : offset + 8]))
                g = Table3(tuple(Fraction(x) for x in line[offset + 8 : offset + 16]))
                witness = Witness(
                    class_key=key, f=f, g=g, verified_at=line[offset + 16]
                )
                if verify and not witness.verify():
                    raise CatalogError(
                        f"archived witness for {key} fails re-verification"
                    )
                witnesses.append(witness)
        return witnesses


_CIVIL_RIGHTS_AXES = ("chamber", "party", "vote")


def civil_rights_axes() -> tuple[str, str, str]:
    """Axis names for the bundled 1964 Civil Rights Act vote tables."""
    return _CIVIL_RIGHTS_AXES


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
