import json
import logging
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpson3 import (
    Catalog,
    CatalogError,
    ConversionSearch,
    DomainError,
    Exhausted,
    SamplerConfig,
    Simpson3Error,
    Table3,
    Witness,
    WitnessArchive,
    classify_exact,
    detect_conversion,
    detect_reversal_2d,
    estimate_2d_reversal,
    estimate_3d_conversion,
    load_civil_rights,
    orbit_classes,
    search_witness,
)
from simpson3 import experiments
from simpson3.feasibility import infeasible_pair_classes, infeasible_triple_classes
from simpson3.symmetry import pad_key
from simpson3.triangulation import FORM_INDEX, FORM_MATRIX


class TestSampler:
    def test_config_validation(self):
        with pytest.raises(DomainError):
            SamplerConfig(worker_count=0)
        with pytest.raises(DomainError, match="seed must be nonnegative, got -1"):
            SamplerConfig(seed=-1)

    @pytest.mark.parametrize(
        "field, value",
        [("seed", True), ("seed", 1.5), ("seed", np.True_), ("worker_count", 2.5)],
    )
    def test_config_refuses_non_integers(self, field, value):
        with pytest.raises(DomainError, match=rf"^{field} {value!r} is not an integer$"):
            SamplerConfig(**{field: value})

    def test_config_stores_python_ints(self):
        config = SamplerConfig(seed=np.int64(3), worker_count=np.uint8(2))
        assert (type(config.seed), type(config.worker_count)) == (int, int)
        assert config == SamplerConfig(seed=3, worker_count=2)

    def test_streams_reproducible_and_distinct(self):
        config = SamplerConfig(seed=5)
        a = config.stream(1, 0).standard_exponential(4)
        b = config.stream(1, 0).standard_exponential(4)
        c = config.stream(1, 1).standard_exponential(4)
        d = config.stream(2, 0).standard_exponential(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_worker_quotas(self):
        config = SamplerConfig(worker_count=4)
        assert config.worker_quotas(10) == [3, 3, 2, 2]
        assert sum(config.worker_quotas(10**6)) == 10**6

    def test_sample_shapes(self):
        # each worker's stream serves its quota in chunks of at most _CHUNK rows
        config = SamplerConfig(seed=1, worker_count=3)
        total = 2 * experiments._CHUNK + 5
        chunks = list(experiments._stream_chunks(config, 1, total))
        assert all(0 < m <= experiments._CHUNK for _, m in chunks)
        rngs = list({id(rng): rng for rng, _ in chunks}.values())
        rows = [sum(m for r, m in chunks if r is rng) for rng in rngs]
        assert rows == config.worker_quotas(total)
        for worker, rng in enumerate(rngs):
            expected = config.stream(1, worker).standard_exponential(4)
            assert np.array_equal(rng.standard_exponential(4), expected)

    def test_exponential_mean(self):
        config = SamplerConfig(seed=2)
        chunks = experiments._stream_chunks(config, 2, 200000)
        batch = np.concatenate([rng.standard_exponential((m, 8)) for rng, m in chunks])
        assert batch.shape == (200000, 8) and (batch > 0).all()
        assert np.allclose(batch.mean(axis=0), 1.0, atol=0.01)


class TestEstimators:
    def test_2d_estimate(self):
        config = SamplerConfig(seed=0, worker_count=2)
        est = estimate_2d_reversal(config, 200000)
        assert est.sample_count == 200000
        assert abs(est.estimates["reversal"] - 1 / 60) < 0.004
        assert est.counts["reversal"] == (
            est.counts["reversalPosToNeg"] + est.counts["reversalNegToPos"]
        )
        assert est.targets["reversal"] == "1/60"

    def test_2d_worker_invariance_of_totals(self):
        # totals are reproducible for a fixed worker count
        a = estimate_2d_reversal(SamplerConfig(seed=3, worker_count=3), 90000)
        b = estimate_2d_reversal(SamplerConfig(seed=3, worker_count=3), 90000)
        assert a.counts == b.counts

    def test_3d_estimate(self):
        config = SamplerConfig(seed=0)
        est = estimate_3d_conversion(config, 150000)
        assert est.counts["sameTriangulation"] == (
            est.counts["conversion"] + est.counts["sameNoConversion"]
        )
        assert abs(est.estimates["sameTriangulation"] - 17 / 900) < 0.003
        assert est.targets["conversion"] == "2/900"

    @pytest.mark.parametrize("estimate", [estimate_2d_reversal, estimate_3d_conversion])
    @pytest.mark.parametrize("count", [0, -5])
    def test_needs_a_sample(self, estimate, count):
        with pytest.raises(DomainError, match="sample count must be at least 1"):
            estimate(SamplerConfig(seed=0), count)

    @pytest.mark.parametrize("estimate", [estimate_2d_reversal, estimate_3d_conversion])
    @pytest.mark.parametrize("count", [True, 2.5])
    def test_sample_count_is_an_integer(self, estimate, count):
        with pytest.raises(DomainError, match=rf"^sample count {count!r} is not an integer$"):
            estimate(SamplerConfig(seed=0), count)

    def test_estimate_json_holds_python_ints(self):
        config = SamplerConfig(seed=np.int64(3))
        payload = estimate_2d_reversal(config, np.int64(100)).to_json_obj()
        assert json.loads(json.dumps(payload))["seed"] == 3
        assert type(payload["sampleCount"]) is int and payload["sampleCount"] == 100

    def test_every_sample_discarded(self, monkeypatch):
        monkeypatch.setattr(
            experiments, "classify_heights_batch", lambda h, catalog: np.zeros(len(h), int)
        )
        with pytest.raises(DomainError, match="all 10 samples were discarded as degenerate$"):
            estimate_3d_conversion(SamplerConfig(seed=0), 10)

    def test_json_payload(self):
        est = estimate_2d_reversal(SamplerConfig(seed=1), 1000)
        payload = est.to_json_obj()
        assert payload["sampleCount"] == 1000
        assert set(payload["eventCounts"]) == set(payload["pointEstimates"])
        assert payload["seed"] == 1


class TestDetectConversion:
    def test_same_no_conversion(self):
        t = Table3([Fraction(1, 4), 1, 1, 2, 4, 1, 2, 8])
        report = detect_conversion(t, t)
        assert report.verdict == "sameNoConversion"
        assert report.same_triangulation and not report.conversion

    def test_conversion_from_witness(self, catalog):
        result = search_witness((1, 2), SamplerConfig(seed=0))
        assert isinstance(result, Witness)
        report = detect_conversion(result.f, result.g)
        assert report.verdict == "conversion"
        assert (report.id_f, report.id_g, report.id_sum) == (1, 1, 2)

    def test_different_triangulations(self, catalog):
        result = search_witness((1, 3, 5), SamplerConfig(seed=0))
        assert isinstance(result, Witness)
        report = detect_conversion(result.f, result.g)
        assert report.verdict == "differentTriangulations"
        assert report.id_sum == 5


def assert_batching_keeps_outcomes(monkeypatch, budget):
    """Each class's outcome alone equals its outcome in a sweep with other
    classes and in a sweep whose pool holds five rows."""
    # one-wave witnesses, two classes whose seed-0 witness comes from
    # the second wave, and an exhaustion
    keys = [(1, 2), (3, 28), (1, 3, 5), (1, 40, 20), (2, 7, 66), (3, 4, 55)]
    config = SamplerConfig(seed=0)

    def outcome(result):
        if isinstance(result, Witness):
            assert result.verify()
            return (result.f, result.g)
        assert result.attempts <= budget
        return result.attempts

    single = {}
    for key in keys:
        result = search_witness(key, config, budget=budget)
        single[result.class_key] = outcome(result)
    assert set(single) == set(keys)
    pairs = [k for k in keys if len(k) == 2]
    triples = [k for k in keys if len(k) == 3]
    search = ConversionSearch(config)
    mixed = search.sweep_pairs(pairs + [(1, 3), (5, 20)], budget)
    mixed.update(search.sweep_triples(triples + [(1, 2, 3), (2, 7, 19)], budget))
    monkeypatch.setattr(experiments, "_OPT_BLOCK", 5)
    small = search.sweep_pairs(pairs, budget)
    small.update(search.sweep_triples(triples, budget))
    for key in keys:
        assert outcome(mixed[key]) == single[key]
        assert outcome(small[key]) == single[key]


class TestSearch:
    def test_pair_witness_exact(self, catalog):
        result = search_witness((3, 28), SamplerConfig(seed=0))
        assert isinstance(result, Witness)
        assert result.class_key == (3, 28)
        assert classify_exact(result.f, catalog).canonical_id == 3
        assert classify_exact(result.g, catalog).canonical_id == 3
        assert classify_exact(result.f + result.g, catalog).canonical_id == 28
        for entry in result.f.entries + result.g.entries:
            assert entry > 0

    def test_triple_witness_exact(self, catalog):
        result = search_witness((2, 7, 40), SamplerConfig(seed=0))
        assert isinstance(result, Witness)
        a, b, c = result.class_key
        assert classify_exact(result.f, catalog).canonical_id == a
        assert classify_exact(result.g, catalog).canonical_id == b
        assert classify_exact(result.f + result.g, catalog).canonical_id == c

    def test_key_canonicalized(self, catalog):
        # a non-canonical member key is moved to its class representative
        cls = orbit_classes(2, catalog)[3]
        member = max(cls.members)
        result = search_witness(member, SamplerConfig(seed=0))
        assert isinstance(result, (Witness, Exhausted))
        assert result.class_key == cls.representative

    def test_obstructed_pair_raises(self, catalog):
        rep = infeasible_pair_classes(catalog, orbit_classes(2, catalog))[0]
        with pytest.raises(DomainError):
            search_witness(rep.representative, SamplerConfig(seed=0))

    def test_obstructed_triple_raises(self, catalog):
        rep = infeasible_triple_classes(catalog, orbit_classes(3, catalog))[0]
        with pytest.raises(DomainError, match="is parity obstructed"):
            search_witness(rep.representative, SamplerConfig(seed=0))

    def test_sweep_checks_the_key_arity(self):
        search = ConversionSearch(SamplerConfig(seed=0))
        with pytest.raises(
            DomainError, match=r"^pair class keys have 2 components, got \(1, 2, 3\)$"
        ):
            search.sweep_pairs([(1, 2, 3)], 10)

    def test_sweep_names_the_first_obstructed_key(self):
        # both keys are obstructed; the refusal names the first in sorted order
        search = ConversionSearch(SamplerConfig(seed=0))
        with pytest.raises(DomainError, match=r"^triple class \(2, 3, 20\) is parity obstructed$"):
            search.sweep_triples([(16, 18, 56), (2, 3, 20)], budget=10)

    def test_bad_keys(self):
        config = SamplerConfig(seed=0)
        with pytest.raises(DomainError):
            search_witness((0, 5), config)
        with pytest.raises(DomainError):
            search_witness((3, 3, 5), config)
        with pytest.raises(DomainError, match=r"^class key must have 2 or 3 components, got 4$"):
            search_witness((1, 2, 3, 4), config)
        # a fractional id is refused, not truncated to the class (1, 2)
        with pytest.raises(DomainError, match=r"^triangulation id 2\.7 is not an integer$"):
            search_witness((1, 2.7), config)

    def test_deterministic(self, catalog):
        a = search_witness((5, 20), SamplerConfig(seed=9))
        b = search_witness((5, 20), SamplerConfig(seed=9))
        assert isinstance(a, Witness)
        assert a.f.entries == b.f.entries
        assert a.g.entries == b.g.entries

    def test_sweep_shares_work(self, catalog):
        keys = [(1, 1), (1, 2), (1, 3)]
        search = ConversionSearch(SamplerConfig(seed=0))
        results = search.sweep_pairs(keys, budget=10**6)
        assert set(results) == set(keys)
        assert all(isinstance(w, Witness) for w in results.values())


    def test_hard_class_exhausts_on_optimizer_evaluations(self, monkeypatch):
        step = experiments._Descent._step
        evaluations = []

        def counting(descent):
            evaluations.append(int(np.count_nonzero(descent.live)))
            step(descent)

        monkeypatch.setattr(experiments._Descent, "_step", counting)
        result = search_witness((3, 4, 55), SamplerConfig(seed=0), budget=2000)
        assert isinstance(result, Exhausted)
        assert result.class_key == (3, 4, 55)
        assert evaluations and result.attempts == sum(evaluations) <= 2000

    def test_search_never_calls_scipy_optimize(self, monkeypatch):
        import scipy.optimize

        def forbidden(*args, **kwargs):
            raise AssertionError("witness search called scipy.optimize")

        monkeypatch.setattr(scipy.optimize, "minimize", forbidden)
        assert isinstance(search_witness((1, 2), SamplerConfig(seed=0)), Witness)
        assert isinstance(
            search_witness((3, 4, 55), SamplerConfig(seed=0), budget=1000), Exhausted
        )

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_raises(self, catalog, budget):
        search = ConversionSearch(SamplerConfig(seed=0))
        for run in (
            lambda: search_witness((1, 2), SamplerConfig(seed=0), budget=budget),
            lambda: search.sweep_pairs([(1, 2)], budget),
            lambda: search.sweep_triples([(3, 4, 55)], budget),
        ):
            with pytest.raises(DomainError, match="budget must be at least 1"):
                run()

    @pytest.mark.parametrize("budget", [True, 2.5])
    def test_budget_is_an_integer(self, budget):
        # True is not read as one evaluation
        with pytest.raises(DomainError, match=rf"^budget {budget!r} is not an integer$"):
            search_witness((1, 2), SamplerConfig(seed=0), budget=budget)

    def test_budget_binds(self):
        attempts = []
        for budget in (5000, 20000):
            result = search_witness((3, 4, 55), SamplerConfig(seed=0), budget=budget)
            assert isinstance(result, Exhausted)
            # less than one restart's iterations are left unspent
            assert budget - experiments._OPT_MAXITER < result.attempts <= budget
            attempts.append(result.attempts)
        assert attempts[1] > attempts[0]

    def test_outcome_does_not_depend_on_batching(self, monkeypatch, catalog):
        assert_batching_keeps_outcomes(monkeypatch, 30000)

    # Small budgets leave pools of a few columns, where every product
    # column must still sum in the same order as in a full pool.
    @pytest.mark.parametrize("budget", [600, 2000])
    def test_small_budget_outcome_does_not_depend_on_batching(self, monkeypatch, catalog, budget):
        assert_batching_keeps_outcomes(monkeypatch, budget)

    def test_search_never_classifies_in_batch(self, monkeypatch, catalog):
        def forbidden(*args, **kwargs):
            raise AssertionError("witness search classified a batch")

        monkeypatch.setattr(experiments, "classify_heights_batch", forbidden)
        assert isinstance(
            search_witness((3, 4, 55), SamplerConfig(seed=0), budget=1000), Exhausted
        )
        search = ConversionSearch(SamplerConfig(seed=0))
        results = search.sweep_triples([(1, 3, 5), (3, 4, 55)], budget=1000)
        assert isinstance(results[(1, 3, 5)], Witness)
        assert isinstance(results[(3, 4, 55)], Exhausted)

    def test_pool_interface_is_deprecated(self, catalog):
        search = ConversionSearch(SamplerConfig(seed=0))
        with pytest.warns(DeprecationWarning):
            search.ensure_pools([1, 2])

    def test_verification_failure_is_logged(self, monkeypatch, caplog):
        monkeypatch.setattr(experiments, "_verified", lambda key, x: None)
        with caplog.at_level(logging.WARNING, logger="simpson3"):
            result = search_witness((1, 2), SamplerConfig(seed=0), budget=300)
        assert isinstance(result, Exhausted)
        records = [r for r in caplog.records if r.name == "simpson3"]
        assert records and all(r.levelno == logging.WARNING for r in records)
        assert "(1, 2)" in records[0].getMessage()
        assert "restart 0" in records[0].getMessage()


def reference_hinge(h, cf, cg, cs):
    """Squared hinge and its gradient for one row: the loss the batched
    descent evaluates column-wise."""
    hf, hg = h[:8], h[8:]
    peak = np.maximum(hf, hg)
    hs = peak + np.log(np.exp(hf - peak) + np.exp(hg - peak))
    weight = 1.0 / (1.0 + np.exp(hg - hf))
    value = 0.0
    grad_f = np.zeros(8)
    grad_g = np.zeros(8)
    for rows, x, df, dg in ((cf, hf, 1.0, 0.0), (cg, hg, 0.0, 1.0), (cs, hs, weight, 1 - weight)):
        gap = experiments._OPT_MARGIN - rows @ x
        gap = np.where(gap > 0.0, gap, 0.0)
        value += float(np.sum(gap**2))
        grad_f += (-2.0 * gap) @ (rows * df)
        grad_g += (-2.0 * gap) @ (rows * dg)
    return value, np.concatenate([grad_f, grad_g])


# Constraint rows per id in the descent's earlier layout, padded: every
# catalog entry has 4 to 6.
ROWS = 6


def padded_table(sign, need):
    """The (75, 6, 8) signed constraint rows and (75, 6) margins that the
    descent gathered per column before it worked over the 20 forms: each
    id's constraint forms in form order, then zero rows with margin -inf."""
    table = np.zeros((75, ROWS, 8))
    margins = np.full((75, ROWS), -np.inf)
    for tid in range(75):
        forms = np.flatnonzero(sign[tid])
        table[tid, : len(forms)] = FORM_MATRIX[forms] * sign[tid, forms, None]
        margins[tid, : len(forms)] = need[tid, forms]
    return table, margins


def gathered_hinge(h, cons, need):
    """The descent's earlier kernel: ``cons`` (8, 6, 3, n) holds each
    column's constraint rows for F, G and the sum, entry-major, and
    ``need`` (6, 3, n) their margins.  Returns the loss and gradient."""
    hf, hg = h[:8], h[8:]
    ratio = np.exp(hg - hf)
    parts = np.stack([hf, hg, hf + np.log1p(ratio)], axis=1)
    weight = 1.0 / (1.0 + ratio)
    margins = cons[0] * parts[0]
    for j in range(1, 8):
        margins += cons[j] * parts[j]
    gap = np.maximum(need - margins, 0.0)
    loss = (gap * gap).sum(axis=(0, 1))
    coeff = -2.0 * gap
    grads = cons[:, 0] * coeff[0]
    for k in range(1, ROWS):
        grads += cons[:, k] * coeff[k]
    shared = grads[:, 2] * weight
    return loss, np.concatenate([grads[:, 0] + shared, grads[:, 1] + grads[:, 2] - shared])


def full_form_hinge(h, sign):
    """The descent's kernel before it kept only the pool's active rows:
    ``sign`` (20, 3, n) orients every form of F, G and the sum, and each
    step takes all 60 (form, summand) rows.  Returns the zero mask and
    the gradient."""
    hf, hg = h[:8], h[8:]
    ratio = np.exp(hg - hf)
    parts = np.empty((8, 3, h.shape[1]))
    parts[:, 0], parts[:, 1] = hf, hg
    np.add(hf, np.log1p(ratio), out=parts[:, 2])
    gap = np.matmul(FORM_MATRIX, parts.reshape(8, -1)).reshape(20, 3, -1)
    gap *= sign
    np.maximum(np.subtract(experiments._OPT_MARGIN, gap, out=gap), 0.0, out=gap)
    gap *= sign
    zero = ~gap.reshape(60, -1).any(axis=0)
    form_grad = np.ascontiguousarray(-2.0 * FORM_MATRIX.T)
    grads = np.matmul(form_grad, gap.reshape(20, -1)).reshape(8, 3, -1)
    shared = grads[:, 2] * (1.0 / (1.0 + ratio))
    return zero, np.concatenate([grads[:, 0] + shared, grads[:, 1] + grads[:, 2] - shared])


def required_margins(sign):
    """The margin each id's form must reach: ``_OPT_MARGIN`` on its
    constraints, ``-inf`` elsewhere, so that such a form is never active."""
    return np.where(sign != 0, experiments._OPT_MARGIN, -np.inf)


def kernel_signs(sign, ids):
    """The per-column sign array the descent gathers for ids (3, n)."""
    return np.take(sign.T, ids, axis=-1)


def active_hinge(sign, ids, h):
    """The descent's kernel on a pool of ids (3, n) and log points h."""
    return experiments._hinge_rows(h, *experiments._active_rows(kernel_signs(sign, ids)))


# The six III->III->III classes the search leaves open.
OPEN_CLASSES = [(3, 4, 55), (3, 4, 58), (3, 11, 55), (3, 11, 58), (3, 14, 53), (3, 14, 60)]

# Pool compositions and how many of the 60 (form, summand) rows they
# constrain: one class, the six open classes, and 40 classes.
POOLS = {"one class": (12, 18), "six open classes": (25, 25), "40 classes": (60, 60)}


def pool_ids(pool, n):
    """ids (3, n) of a pool whose classes take the columns in turn."""
    if pool == "one class":
        keys = [(1, 3, 5)]
    elif pool == "six open classes":
        keys = OPEN_CLASSES
    else:
        draw = np.random.default_rng(43).integers(1, 75, (38, 3))
        keys = [(1, 3, 5), (2, 7, 40)] + [tuple(k) for k in draw]
    return np.array([pad_key(keys[r % len(keys)]) for r in range(n)]).T


def witness_row(key):
    """A witness's canonical key (padded to 3 ids) and its log entries."""
    witness = search_witness(key, SamplerConfig(seed=0))
    h = np.log([float(x) for x in witness.f.entries + witness.g.entries])
    return pad_key(witness.class_key), h


def near_margin_rows(sign, need, ids, h, rng):
    """Move one coordinate of each column so that one of its constraints
    sits within a few ulps of the required margin."""
    h = h.copy()
    for r in range(h.shape[1]):
        part = rng.integers(0, 2)
        forms = np.flatnonzero(sign[ids[part, r]])
        i = rng.choice(forms)
        s = sign[ids[part, r], i]
        x = h[8 * part : 8 * part + 8, r]
        j = rng.choice(np.flatnonzero(FORM_MATRIX[i]))
        x[j] += (need[ids[part, r], i] - s * FORM_MATRIX[i] @ x) / (s * FORM_MATRIX[i, j])
        x[j] += rng.integers(-3, 4) * np.spacing(x[j])
    return h


class TestDescent:
    def test_constraint_table(self, catalog):
        sign = catalog.constraint_signs
        assert sign.shape == (75, 20)
        assert not sign.flags.writeable
        assert not sign[0].any()
        for tid in range(1, 75):
            expected = np.zeros(20)
            for letter, s in catalog[tid].constraints:
                expected[FORM_INDEX[letter]] = s
            assert np.array_equal(sign[tid], expected)

    def test_rows_match_the_reference(self, catalog):
        sign = catalog.constraint_signs
        rng = np.random.default_rng(3)
        ids = rng.integers(1, 75, (3, 50))
        h = rng.normal(0.0, 3.0, (16, 50))
        ids[:, 0], h[:, 0] = witness_row((1, 3, 5))
        zero, grad = active_hinge(sign, ids, h)
        assert zero[0] and not grad[:, 0].any()
        for r in range(50):
            rows = [(FORM_MATRIX * sign[i, :, None])[sign[i] != 0] for i in ids[:, r]]
            value, expected = reference_hinge(h[:, r], *rows)
            assert zero[r] == (value == 0.0)
            assert np.allclose(grad[:, r], expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("rows", ["random", "witness", "near margin", *POOLS])
    def test_gradient_equals_the_gathered_kernel(self, catalog, rows):
        sign = catalog.constraint_signs
        need = required_margins(sign)
        rng = np.random.default_rng(11)
        n = 200
        ids = rng.integers(1, 75, (3, n))
        h = rng.normal(0.0, 3.0, (16, n))
        if rows == "witness":
            for r, key in enumerate([(1, 3, 5), (2, 7, 40), (1, 2)]):
                ids[:, r], h[:, r] = witness_row(key)
        elif rows == "near margin":
            h = near_margin_rows(sign, need, ids, h, rng)
        elif rows in POOLS:
            ids = pool_ids(rows, n)
            h = near_margin_rows(sign, need, ids, h, rng)
            if rows != "six open classes":
                ids[:, 0], h[:, 0] = witness_row((1, 3, 5))
        table, margins = padded_table(sign, need)
        cons = np.ascontiguousarray(table.transpose(2, 1, 0))[..., ids]
        req = np.ascontiguousarray(margins.T)[:, ids]
        loss, expected = gathered_hinge(h, cons, req)
        active, _, _ = experiments._active_rows(kernel_signs(sign, ids))
        zero, grad = active_hinge(sign, ids, h)
        full_zero, full_grad = full_form_hinge(h, kernel_signs(sign, ids))
        assert np.array_equal(zero, loss == 0.0)
        assert np.array_equal(grad, expected)
        assert np.array_equal(zero, full_zero)
        assert np.array_equal(grad, full_grad)
        if rows == "witness":
            assert zero[:3].all()
        if rows in POOLS:
            low, high = POOLS[rows]
            assert low <= len(active) <= high
            assert zero[0] == (rows != "six open classes")

    def test_a_column_does_not_depend_on_its_pool(self, catalog):
        sign = catalog.constraint_signs
        rng = np.random.default_rng(5)
        ids = pool_ids("40 classes", 200)
        h = near_margin_rows(sign, required_margins(sign), ids, rng.normal(0.0, 3.0, (16, 200)), rng)
        ids[:, 0], h[:, 0] = witness_row((1, 3, 5))
        zero, grad = active_hinge(sign, ids, h)
        assert zero[0]
        for r in range(40):
            own = np.flatnonzero((ids == ids[:, r, None]).all(axis=0))
            assert len(own) == 5
            one_zero, one_grad = active_hinge(sign, ids[:, own], h[:, own])
            assert np.array_equal(one_zero, zero[own])
            assert np.array_equal(one_grad, grad[:, own])
            alone_zero, alone_grad = active_hinge(sign, ids[:, [r]], h[:, [r]])
            assert np.array_equal(alone_zero, zero[[r]])
            assert np.array_equal(alone_grad, grad[:, [r]])
        # Pools of every size up to 24 columns, as a class's last rows leave.
        for n in range(1, 25):
            small_zero, small_grad = active_hinge(sign, ids[:, :n], h[:, :n])
            assert np.array_equal(small_zero, zero[:n])
            assert np.array_equal(small_grad, grad[:, :n])


def in_lowest_terms(table):
    """Whether a table's integers and denominator have no common factor."""
    ints = table.integers
    return len(ints) == 8 and min(ints) > 0 and math.gcd(table.denominator, *ints) == 1


def fraction_tables(x):
    """F and G at log point ``x`` through ``Fraction(float)``, as the search
    built them before it verified on integers."""
    entries = np.exp(np.array(x))
    return (
        Table3(Fraction(float(e)) for e in entries[:8]),
        Table3(Fraction(float(e)) for e in entries[8:]),
    )


def candidate_keys(f, g):
    """The ids the tables induce as a triple and, when F and G agree, as a
    pair; and keys they do not induce."""
    keys = [(1, 3, 5), (2, 7, 40), (1, 2)]
    try:
        report = detect_conversion(f, g)
    except Simpson3Error:
        return keys
    ids = (report.id_f, report.id_g, report.id_sum)
    keys += [ids, ids[::-1], (ids[0], ids[2]), (ids[1], ids[2])]
    return keys + [(ids[0], ids[1], ids[2] % 74 + 1)]


log_entry = st.floats(-experiments._OPT_BOX, experiments._OPT_BOX)
random_points = st.lists(log_entry, min_size=16, max_size=16)
# Entries drawn from a few values repeat exactly, so forms tie.
tied_points = st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=16, max_size=16)
# F and G close together: often one class, so pair keys hold.
close_points = st.lists(log_entry, min_size=8, max_size=8).flatmap(
    lambda f: st.lists(st.floats(-1e-3, 1e-3), min_size=8, max_size=8).map(
        lambda d: f + [a + b for a, b in zip(f, d)]
    )
)


@st.composite
def near_wall_points(draw):
    """A point with one form of F, G or the sum within a few ulps of zero."""
    x = np.array(draw(random_points))
    part = draw(st.integers(0, 2))
    i = draw(st.integers(0, 19))
    j = draw(st.sampled_from(list(np.flatnonzero(FORM_MATRIX[i]))))
    if part == 2:
        # the sum's form vanishes where G's does and F = G
        x[:8] = x[8:]
        part = 1
    block = x[8 * part : 8 * part + 8]
    block[j] -= FORM_MATRIX[i] @ block / FORM_MATRIX[i, j]
    block[j] += draw(st.integers(-3, 3)) * np.spacing(block[j])
    return [float(v) for v in x]


class TestVerified:
    @settings(max_examples=150, deadline=None)
    @given(
        x=st.one_of(random_points, tied_points, close_points, near_wall_points()),
    )
    def test_accepts_what_the_fraction_path_accepts(self, catalog, x):
        f, g = fraction_tables(x)
        for key in candidate_keys(f, g):
            expected = Witness(class_key=key, f=f, g=g, verified_at="").verify()
            witness = experiments._verified(key, np.array(x))
            assert (witness is not None) == expected
            if witness is not None:
                assert witness.class_key == key
                assert witness.f.entries == f.entries and witness.g.entries == g.entries
                assert all(type(e) is Fraction for e in witness.f.entries + witness.g.entries)
                assert in_lowest_terms(witness.f) and in_lowest_terms(witness.g)

    def test_internal_faults_propagate(self, monkeypatch):
        witness = search_witness((1, 2), SamplerConfig(seed=0))
        assert not Witness((1, 2), Table3([1] * 8), Table3([1] * 8), "").verify()

        def broken(self, pos, neg):
            raise CatalogError("sign pattern matches 2 constraint sets")

        monkeypatch.setattr(Catalog, "resolve_signs", broken)
        with pytest.raises(CatalogError, match="matches 2 constraint sets"):
            witness.verify()
        with pytest.raises(CatalogError, match="matches 2 constraint sets"):
            search_witness((3, 28), SamplerConfig(seed=0))

    def test_accepts_search_witnesses(self, catalog):
        for key in [(1, 2), (3, 28), (1, 3, 5), (2, 7, 40)]:
            found = search_witness(key, SamplerConfig(seed=0))
            x = np.log([float(e) for e in found.f.entries + found.g.entries])
            witness = experiments._verified(found.class_key, x)
            assert witness is not None and witness.verify()


@pytest.fixture(scope="module")
def known_witness():
    return search_witness((1, 3, 5), SamplerConfig(seed=0))


class TestArchive:
    @settings(max_examples=20, deadline=None)
    @given(
        factors=st.lists(
            st.one_of(
                st.builds(Fraction, st.integers(1, 10**12), st.integers(1, 10**12)),
                st.sampled_from([Fraction(10) ** 300, Fraction(3, 10**300)]),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_round_trip_of_scaled_witnesses(self, tmp_path_factory, known_witness, factors):
        # Scaling F and G by one positive factor keeps the ids of F, G and F + G.
        w = known_witness
        written = [
            Witness(w.class_key, w.f.scaled(k), w.g.scaled(k), w.verified_at) for k in factors
        ]
        archive = WitnessArchive(tmp_path_factory.mktemp("archive") / "triples.csv", 3)
        archive.append(written)
        loaded = archive.load()
        assert loaded == written
        assert all(x.verify() for x in loaded)

    def test_round_trip(self, catalog, tmp_path):
        path = tmp_path / "pairs.csv"
        archive = WitnessArchive(path, 2)
        w1 = search_witness((1, 2), SamplerConfig(seed=0))
        w2 = search_witness((3, 28), SamplerConfig(seed=0))
        archive.append([w1])
        archive.append([w2])
        loaded = archive.load()
        assert [w.class_key for w in loaded] == [(1, 2), (3, 28)]
        assert all(w.verify() for w in loaded)
        assert loaded[0].f.entries == w1.f.entries
        assert [(w.f, w.g) for w in loaded] == [(w1.f, w1.g), (w2.f, w2.g)]
        assert all(in_lowest_terms(t) for w in loaded for t in (w.f, w.g))

    def test_arity_mismatch(self, tmp_path):
        archive = WitnessArchive(tmp_path / "t.csv", 3)
        w = search_witness((1, 2), SamplerConfig(seed=0))
        with pytest.raises(DomainError):
            archive.append([w])
        with pytest.raises(DomainError):
            WitnessArchive(tmp_path / "x.csv", 4)

    def test_tampered_entry_fails_verification(self, tmp_path):
        path = tmp_path / "pairs.csv"
        archive = WitnessArchive(path, 2)
        archive.append([search_witness((1, 2), SamplerConfig(seed=0))])
        text = path.read_text().splitlines()
        parts = text[1].split(",")
        parts[2] = "999999"
        text[1] = ",".join(parts)
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(CatalogError):
            archive.load()

    @pytest.mark.parametrize(
        "corrupt",
        [lambda parts: parts[:4] + ["abc"] + parts[5:], lambda parts: parts + ["1", "2"]],
        ids=["bad-cell", "extra-cells"],
    )
    def test_corrupt_cell_names_the_line(self, tmp_path, corrupt):
        path = tmp_path / "pairs.csv"
        archive = WitnessArchive(path, 2)
        w = search_witness((1, 2), SamplerConfig(seed=0))
        archive.append([w, w])
        lines = path.read_text().splitlines()
        lines[2] = ",".join(corrupt(lines[2].split(",")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CatalogError, match=r"line 3: malformed witness row"):
            archive.load()

    def test_unwritable_directory_names_the_archive(self, tmp_path):
        path = str(tmp_path / "missing" / "w.csv")
        archive = WitnessArchive(path, 2)
        with pytest.raises(OSError, match=f"cannot write witness archive {path}:"):
            archive.check_directory()
        witness = Witness((1, 2), Table3([1] * 8), Table3([1] * 8), "")
        with pytest.raises(OSError) as info:
            archive.append([witness])
        assert f"cannot write witness archive {path}:" in str(info.value)
        assert ".tmp" not in str(info.value)

    def test_foreign_header_is_left_untouched(self, tmp_path, known_witness):
        path = tmp_path / "foreign.csv"
        path.write_bytes(b"a,b,c\r\n1,2,3\r\n")
        with pytest.raises(DomainError, match="unexpected archive header"):
            WitnessArchive(path, 3).append([known_witness])
        assert path.read_bytes() == b"a,b,c\r\n1,2,3\r\n"
        assert [p.name for p in tmp_path.iterdir()] == ["foreign.csv"]

    def test_failed_replace_keeps_the_old_archive(self, tmp_path, known_witness, monkeypatch):
        path = tmp_path / "triples.csv"
        archive = WitnessArchive(path, 3)
        archive.append([known_witness])
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(experiments.os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            archive.append([known_witness])
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_missing_file_loads_empty(self, tmp_path):
        assert WitnessArchive(tmp_path / "none.csv", 2).load() == []

    def test_empty_file_loads_empty(self, tmp_path, known_witness):
        # load reads what append accepts: an empty file holds no witnesses
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        assert WitnessArchive(path, 3).load() == []
        WitnessArchive(path, 3).append([known_witness])
        assert WitnessArchive(path, 3).load() == [known_witness]

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n")
        with pytest.raises(DomainError):
            WitnessArchive(path, 2).load()


class TestCivilRights:
    def test_totals(self):
        tables = load_civil_rights()
        assert set(tables) == {"north", "south", "all"}
        for v in range(8):
            assert (
                tables["north"].entries[v] + tables["south"].entries[v]
                == tables["all"].entries[v]
            )
        assert tables["south"].entries[2] == 0

    def test_house_reversal(self):
        tables = load_civil_rights()
        north = tables["north"].layer(0, 0)
        south = tables["south"].layer(0, 0)
        assert detect_reversal_2d(north, south).value == "ReversalPosToNeg"

    def test_smoothed_classification_depends_on_epsilon(self, catalog):
        south = load_civil_rights()["south"]
        a = classify_exact(south.smoothed(Fraction(1, 2)), catalog).canonical_id
        b = classify_exact(south.smoothed(5), catalog).canonical_id
        assert 1 <= a <= 74 and 1 <= b <= 74
        # the zero cells make the induced triangulation a modelling choice
        assert a != b
