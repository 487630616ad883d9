import logging
from fractions import Fraction

import numpy as np
import pytest

from simpson3 import (
    CatalogError,
    ConversionSearch,
    DomainError,
    Exhausted,
    SamplerConfig,
    Table3,
    Witness,
    WitnessArchive,
    civil_rights_axes,
    classify_exact,
    detect_conversion,
    detect_reversal_2d,
    estimate_2d_reversal,
    estimate_3d_conversion,
    infeasible_pair_classes,
    infeasible_triple_classes,
    load_civil_rights,
    orbit_classes,
    sample_table,
    sample_tables,
    search_witness,
)
from simpson3 import experiments
from simpson3.triangulation import FORM_INDEX, FORM_MATRIX


class TestSampler:
    def test_config_validation(self):
        with pytest.raises(DomainError):
            SamplerConfig(worker_count=0)
        with pytest.raises(DomainError):
            SamplerConfig(tolerance=0.0)
        with pytest.raises(DomainError, match="seed must be nonnegative, got -1"):
            SamplerConfig(seed=-1)

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
        config = SamplerConfig(seed=1)
        assert sample_table(config, 2).shape == (4,)
        assert sample_table(config, 3).shape == (8,)
        batch = sample_tables(config, 3, 100)
        assert batch.shape == (100, 8)
        assert (batch > 0).all()
        with pytest.raises(DomainError):
            sample_table(config, 4)

    def test_exponential_mean(self):
        config = SamplerConfig(seed=2)
        batch = sample_tables(config, 3, 200000)
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
        assert report.to_json_obj()["triangulationSum"] == 5


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
        with pytest.raises(DomainError):
            search_witness(rep.representative, SamplerConfig(seed=0))

    def test_bad_keys(self):
        config = SamplerConfig(seed=0)
        with pytest.raises(DomainError):
            search_witness((0, 5), config)
        with pytest.raises(DomainError):
            search_witness((3, 3, 5), config)
        with pytest.raises(DomainError):
            search_witness((1, 2, 3, 4), config)

    def test_deterministic(self, catalog):
        a = search_witness((5, 20), SamplerConfig(seed=9))
        b = search_witness((5, 20), SamplerConfig(seed=9))
        assert isinstance(a, Witness)
        assert a.f.entries == b.f.entries
        assert a.g.entries == b.g.entries

    def test_sweep_shares_work(self, catalog):
        keys = [(1, 1), (1, 2), (1, 3)]
        search = ConversionSearch(SamplerConfig(seed=0), catalog)
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
        search = ConversionSearch(SamplerConfig(seed=0), catalog)
        for run in (
            lambda: search_witness((1, 2), SamplerConfig(seed=0), budget=budget),
            lambda: search.sweep_pairs([(1, 2)], budget),
            lambda: search.sweep_triples([(3, 4, 55)], budget),
        ):
            with pytest.raises(DomainError, match="budget must be at least 1"):
                run()

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
        # one-wave witnesses, two classes whose seed-0 witness comes from
        # the second wave, and an exhaustion
        keys = [(1, 2), (3, 28), (1, 3, 5), (1, 40, 20), (2, 7, 66), (3, 4, 55)]
        config = SamplerConfig(seed=0)
        budget = 30000

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
        search = ConversionSearch(config, catalog)
        mixed = search.sweep_pairs(pairs + [(1, 3), (5, 20)], budget)
        mixed.update(search.sweep_triples(triples + [(1, 2, 3), (2, 7, 19)], budget))
        monkeypatch.setattr(experiments, "_OPT_BLOCK", 5)
        small = search.sweep_pairs(pairs, budget)
        small.update(search.sweep_triples(triples, budget))
        for key in keys:
            assert outcome(mixed[key]) == single[key]
            assert outcome(small[key]) == single[key]

    def test_search_never_classifies_in_batch(self, monkeypatch, catalog):
        def forbidden(*args, **kwargs):
            raise AssertionError("witness search classified a batch")

        monkeypatch.setattr(experiments, "classify_heights_batch", forbidden)
        assert isinstance(
            search_witness((3, 4, 55), SamplerConfig(seed=0), budget=1000), Exhausted
        )
        search = ConversionSearch(SamplerConfig(seed=0), catalog)
        results = search.sweep_triples([(1, 3, 5), (3, 4, 55)], budget=1000)
        assert isinstance(results[(1, 3, 5)], Witness)
        assert isinstance(results[(3, 4, 55)], Exhausted)

    def test_pool_interface_is_deprecated(self, catalog):
        search = ConversionSearch(SamplerConfig(seed=0), catalog)
        with pytest.warns(DeprecationWarning):
            search.ensure_pools([1, 2])

    def test_verification_failure_is_logged(self, monkeypatch, caplog):
        monkeypatch.setattr(Witness, "verify", lambda self: False)
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


class TestDescent:
    def test_constraint_table(self, catalog):
        table, need = ConversionSearch(SamplerConfig(), catalog)._constraint_table()
        assert table.shape == (75, 6, 8) and need.shape == (75, 6)
        assert np.isneginf(need[0]).all() and not table[0].any()
        for tid in range(1, 75):
            used = np.isfinite(need[tid])
            assert (need[tid][used] == experiments._OPT_MARGIN).all()
            assert not table[tid][~used].any()
            expected = {
                tuple(sign * FORM_MATRIX[FORM_INDEX[letter]])
                for letter, sign in catalog[tid].constraints
            }
            assert {tuple(row) for row in table[tid][used]} == expected
            assert used.sum() == len(expected)

    def test_rows_match_the_reference(self, catalog):
        table, need = ConversionSearch(SamplerConfig(), catalog)._constraint_table()
        rng = np.random.default_rng(3)
        ids = rng.integers(1, 75, (3, 50))
        h = rng.normal(0.0, 3.0, (16, 50))
        witness = search_witness((1, 3, 5), SamplerConfig(seed=0))
        ids[:, 0] = (1, 3, 5)
        h[:, 0] = np.log([float(x) for x in witness.f.entries + witness.g.entries])
        cons = np.ascontiguousarray(table.transpose(2, 1, 0))[..., ids]
        req = np.ascontiguousarray(need.T)[:, ids]
        loss, grad = experiments._hinge_rows(h, cons, req)
        assert loss[0] == 0.0 and not grad[:, 0].any()
        for r in range(50):
            rows = [table[i][np.isfinite(need[i])] for i in ids[:, r]]
            value, expected = reference_hinge(h[:, r], *rows)
            assert np.isclose(loss[r], value, rtol=1e-12, atol=1e-12)
            assert np.allclose(grad[:, r], expected, rtol=1e-12, atol=1e-12)


class TestArchive:
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
        assert len(archive.load(verify=False)) == 1

    def test_missing_file_loads_empty(self, tmp_path):
        assert WitnessArchive(tmp_path / "none.csv", 2).load() == []

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n")
        with pytest.raises(DomainError):
            WitnessArchive(path, 2).load()


class TestCivilRights:
    def test_axes(self):
        assert civil_rights_axes() == ("chamber", "party", "vote")

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
