import contextlib
import hashlib
import io
import itertools
import json
import logging
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpson3 import (
    Catalog,
    CatalogError,
    ConversionSearch,
    DegenerateTable,
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
    get_catalog,
    load_civil_rights,
    orbit_classes,
    search_witness,
)
from simpson3 import cli, experiments, triangulation
from simpson3.feasibility import infeasible_pair_classes, infeasible_triple_classes
from simpson3.feasibility import obstructing_vertices
from simpson3.symmetry import _KEY_KINDS, _UNPAD, canonical_classes, key_rows, pad_key
from simpson3.tables import FORM_LETTERS, _int_sign_bits, _table3
from simpson3.triangulation import FORM_INDEX, FORM_MATRIX, classify_entries_batch
from simpson3.triangulation import classify_heights_batch


class TestSampler:
    def test_config_validation(self):
        with pytest.raises(DomainError, match="seed must be nonnegative, got -1"):
            SamplerConfig(seed=-1)

    @pytest.mark.parametrize(
        "seed, purpose, twin_purpose", [(2**33 + 7, 2, 2), (2**32 + 7, 2, 1)]
    )
    def test_seeds_of_more_than_32_bits_are_refused(self, seed, purpose, twin_purpose):
        # numpy reads the seed as the words (7, 2) or (7, 1) and pads short
        # entropy with zeros: chunk 0 of such a seed is chunk 2 of seed 7
        words = np.random.SeedSequence([seed, purpose, 0])
        wide = np.random.Generator(np.random.PCG64(words)).standard_exponential(4)
        twin = SamplerConfig(seed=7).stream(twin_purpose, 2).standard_exponential(4)
        assert wide.tolist() == twin.tolist()
        with pytest.raises(DomainError, match=rf"^seed must be below 2\*\*32, got {seed}$"):
            SamplerConfig(seed=seed)
        assert SamplerConfig(seed=2**32 - 1).seed == 2**32 - 1

    @pytest.mark.parametrize("count", [0, 2, 3])
    def test_worker_count_is_only_one(self, count):
        # a chunk's stream is keyed by its index: no worker count selects streams
        with pytest.raises(DomainError, match=f"^worker_count must be 1, got {count}$"):
            SamplerConfig(worker_count=count)

    @pytest.mark.parametrize(
        "field, value",
        [("seed", True), ("seed", 1.5), ("seed", np.True_), ("worker_count", 2.5)],
    )
    def test_config_refuses_non_integers(self, field, value):
        with pytest.raises(DomainError, match=rf"^{field} {value!r} is not an integer$"):
            SamplerConfig(**{field: value})

    def test_config_stores_python_ints(self):
        config = SamplerConfig(seed=np.int64(3), worker_count=np.uint8(1))
        assert (type(config.seed), type(config.worker_count)) == (int, int)
        assert config == SamplerConfig(seed=3)

    def test_streams_reproducible_and_distinct(self):
        config = SamplerConfig(seed=5)
        a = config.stream(1, 0).standard_exponential(4)
        b = config.stream(1, 0).standard_exponential(4)
        c = config.stream(1, 1).standard_exponential(4)
        d = config.stream(2, 0).standard_exponential(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_exponential_mean(self):
        config = SamplerConfig(seed=2)
        chunks = experiments._stream_chunks(config, 2, 200000)
        batch = np.concatenate([rng.standard_exponential((m, 8)) for rng, m in chunks])
        assert batch.shape == (200000, 8) and (batch > 0).all()
        assert np.allclose(batch.mean(axis=0), 1.0, atol=0.01)


# Each estimator with its stream purpose, row width and chunk tally.
DIMENSIONS = [
    (estimate_2d_reversal, experiments._PURPOSE_MC2D, 8, experiments._tally_2d_chunk),
    (estimate_3d_conversion, experiments._PURPOSE_MC3D, 16, experiments._tally_3d_chunk),
]
CHUNK = experiments._CHUNK


class TestChunkStreams:
    """Chunk c of a run, rows c * _CHUNK onward, draws from stream(purpose, c)."""

    @pytest.mark.parametrize("estimate, purpose, width, tally", DIMENSIONS, ids=["2d", "3d"])
    def test_counts_add_over_chunk_ranges(self, estimate, purpose, width, tally):
        # a run of three chunks, the last one partial, is the run of its
        # first k chunks plus the tallies of chunks k.., each drawn alone
        config, total = SamplerConfig(seed=5), 2 * CHUNK + 4097
        whole = estimate(config, total)
        for k in (1, 2):
            head = estimate(config, k * CHUNK)
            sums = [head.degenerate_discards, *head.counts.values()]
            for c in range(k, 3):
                m = min(CHUNK, total - c * CHUNK)
                rows = config.stream(purpose, c).standard_exponential((m, width))
                sums = [a + b for a, b in zip(sums, tally(rows))]
            assert sums == [whole.degenerate_discards, *whole.counts.values()], k

    @pytest.mark.parametrize("estimate, purpose", [d[:2] for d in DIMENSIONS], ids=["2d", "3d"])
    @pytest.mark.parametrize("total, chunks", [(1, 1), (CHUNK, 1), (CHUNK + 1, 2), (2 * CHUNK, 2)])
    def test_one_stream_per_chunk(self, monkeypatch, estimate, purpose, total, chunks):
        # none past the samples, and none per anything but the chunk
        stream, keys = SamplerConfig.stream, []

        def recorded(self, *key):
            keys.append((self.seed, *key))
            return stream(self, *key)

        monkeypatch.setattr(SamplerConfig, "stream", recorded)
        estimate(SamplerConfig(seed=4), total)
        assert keys == [(4, purpose, c) for c in range(chunks)]

    # Seed-0 counts of one-chunk runs from the driver that split a run over
    # worker streams: chunk 0's key is its worker 0's, so they keep them.
    @pytest.mark.parametrize(
        "estimate, total, counts",
        [
            (estimate_2d_reversal, CHUNK, [1076, 548, 528]),
            (estimate_3d_conversion, CHUNK, [1200, 146, 1054]),
            (estimate_2d_reversal, 50000, [845, 431, 414]),
            (estimate_3d_conversion, 50000, [894, 113, 781]),
        ],
        ids=["2d", "3d", "2d-partial", "3d-partial"],
    )
    def test_one_chunk_runs_keep_their_counts(self, estimate, total, counts):
        est = estimate(SamplerConfig(seed=0), total)
        assert (list(est.counts.values()), est.degenerate_discards) == (counts, 0)


class TestEstimators:
    def test_2d_estimate(self):
        config = SamplerConfig(seed=0)
        est = estimate_2d_reversal(config, 200000)
        assert est.sample_count == 200000
        assert abs(est.estimates["reversal"] - 1 / 60) < 0.004
        assert est.counts["reversal"] == (
            est.counts["reversalPosToNeg"] + est.counts["reversalNegToPos"]
        )
        assert est.targets["reversal"] == "1/60"

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

    @pytest.mark.parametrize(
        "estimate, name, undecided",
        [
            # every pair degenerate: zero determinants, all b rows counted
            (
                estimate_2d_reversal,
                "_det_signs",
                lambda pairs, work: (np.zeros((3, pairs.shape[1])), pairs.shape[1]),
            ),
            (
                estimate_3d_conversion,
                "classify_entries_batch",
                lambda *parts: np.zeros((parts[0].shape[2], len(parts[0])), int),
            ),
        ],
        ids=["2d", "3d"],
    )
    def test_every_sample_discarded(self, monkeypatch, estimate, name, undecided):
        monkeypatch.setattr(experiments, name, undecided)
        with pytest.raises(DomainError, match="^all 10 samples were discarded as degenerate$"):
            estimate(SamplerConfig(seed=0), 10)

    def test_sum_is_classified_on_the_shared_rows(self, monkeypatch):
        # per chunk: F and G in one call, then the raw F and G of the rows
        # whose ids agree and are nonzero, as the two parts of their sums
        calls = []

        def recorded(*parts):
            ids = classify_entries_batch(*parts)
            calls.append(([np.array(q) for q in parts], ids))
            return ids

        monkeypatch.setattr(experiments, "classify_entries_batch", recorded)
        config = SamplerConfig(seed=0)
        estimate_3d_conversion(config, 150001)
        chunks = list(experiments._stream_chunks(config, experiments._PURPOSE_MC3D, 150001))
        assert len(calls) == 2 * len(chunks)
        for (rng, m), ([fg], (ids_f, ids_g)), ([f, g], _) in zip(chunks, calls[0::2], calls[1::2]):
            entries = rng.standard_exponential((m, 16))
            assert np.array_equal(fg[:, :, 0], entries[:, 0::2])
            assert np.array_equal(fg[:, :, 1], entries[:, 1::2])
            assert fg.shape == (m, 8, 2)
            shared = (ids_f == ids_g) & (ids_f != 0)
            assert 0 < shared.sum() < m
            assert np.array_equal(f[:, :, 0], entries[shared, 0::2])
            assert np.array_equal(g[:, :, 0], entries[shared, 1::2])
            assert f.shape == g.shape == (shared.sum(), 8, 1)

    def fake_ids(self, monkeypatch, f, g, s):
        """Make the classifier answer F, G and the sums with fixed ids, and
        record the shapes of the parts of each sum call."""
        sum_shapes = []

        def fake(*parts):
            n = len(parts[0])
            if len(parts) == 1:
                return np.array([f(n), g(n)], dtype=np.int64)
            sum_shapes.append([np.shape(q) for q in parts])
            return np.array([s(n)], dtype=np.int64)

        monkeypatch.setattr(experiments, "classify_entries_batch", fake)
        return sum_shapes

    def test_sum_of_different_summands_is_never_read(self, monkeypatch):
        # no shared ids: the sum call gets no rows, and an undecided sum discards nothing
        shapes = self.fake_ids(
            monkeypatch, lambda n: np.ones(n), lambda n: np.full(n, 2), lambda n: np.zeros(n)
        )
        est = estimate_3d_conversion(SamplerConfig(seed=0), 10)
        assert shapes == [[(0, 8, 1)] * 2]
        assert est.degenerate_discards == 0
        assert est.counts == {"sameTriangulation": 0, "conversion": 0, "sameNoConversion": 0}

    def test_undecided_sum_discards_only_shared_pairs(self, monkeypatch):
        # pairs 0, 3, 6 and 9 share id 1 and have undecided sums; the other
        # six differ and count, with an undecided sum, as undiscarded
        shapes = self.fake_ids(
            monkeypatch,
            lambda n: np.ones(n),
            lambda n: np.where(np.arange(n) % 3 == 0, 1, 2),
            lambda n: np.zeros(n),
        )
        est = estimate_3d_conversion(SamplerConfig(seed=0), 10)
        assert shapes == [[(4, 8, 1)] * 2]
        assert est.degenerate_discards == 4
        assert est.counts == {"sameTriangulation": 0, "conversion": 0, "sameNoConversion": 0}

    def test_undecided_summand_discards_the_pair(self, monkeypatch):
        # F undecided on pairs 0 and 2, G on pairs 1 and 2: none of their
        # sums is classified, and the other seven share id 1
        shapes = self.fake_ids(
            monkeypatch,
            lambda n: np.where(np.isin(np.arange(n), [0, 2]), 0, 1),
            lambda n: np.where(np.isin(np.arange(n), [1, 2]), 0, 1),
            lambda n: np.where(np.arange(n) % 2 == 0, 1, 2),
        )
        est = estimate_3d_conversion(SamplerConfig(seed=0), 10)
        assert shapes == [[(7, 8, 1)] * 2]
        assert est.degenerate_discards == 3
        assert est.counts == {"sameTriangulation": 7, "conversion": 3, "sameNoConversion": 4}

    def test_json_payload(self):
        est = estimate_2d_reversal(SamplerConfig(seed=1), 1000)
        payload = est.to_json_obj()
        assert payload["sampleCount"] == 1000
        assert set(payload["eventCounts"]) == set(payload["pointEstimates"])
        assert payload["seed"] == 1


# The two estimator loops as they read before the chunk was drawn into one
# buffer and walked in blocks: one (2, m, 4) draw and whole-chunk
# temporaries for the 2x2 pairs, one (m, 16) draw and two strided log
# passes for the 2x2x2 pairs.  The estimators must report exactly what
# these report.
def reference_2d(config, sample_count):
    counts = {"reversal": 0, "reversalPosToNeg": 0, "reversalNegToPos": 0}
    discards = 0
    for rng, m in experiments._stream_chunks(config, experiments._PURPOSE_MC2D, sample_count):
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
    return experiments.FrequencyEstimate(sample_count, discards, counts, targets, config.seed)


def reference_3d(config, sample_count):
    catalog = get_catalog()
    counts = {"sameTriangulation": 0, "conversion": 0, "sameNoConversion": 0}
    discards = 0
    for rng, m in experiments._stream_chunks(config, experiments._PURPOSE_MC3D, sample_count):
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
    targets = {"sameTriangulation": "17/900", "conversion": "2/900", "sameNoConversion": "15/900"}
    return experiments.FrequencyEstimate(sample_count, discards, counts, targets, config.seed)


def traced_peak(estimate, n):
    """The traced peak of one estimator call, after an identical call has
    filled the classifier's memo of sign codes."""
    config = SamplerConfig(seed=0)
    estimate(config, n)
    tracemalloc.start()
    try:
        estimate(config, n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_RESIDENT_RISE = """
import resource
from simpson3 import SamplerConfig
from simpson3.experiments import estimate_3d_conversion

config = SamplerConfig(seed=0)
estimate_3d_conversion(config, 4097)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
estimate_3d_conversion(config, 1 << 16)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


class TestBlockedEstimators:
    # sizes around a pair block (4 096 rows) and a chunk (2^16 rows), and
    # one that ends in a partial chunk
    @pytest.mark.parametrize("n", [1, 7, 4095, 4096, 4097, 65535, 65536, 65537, 150001])
    def test_counts_equal_the_whole_chunk_loops(self, n):
        for seed in (0, 11):
            config = SamplerConfig(seed=seed)
            for estimate, reference in [
                (estimate_2d_reversal, reference_2d),
                (estimate_3d_conversion, reference_3d),
            ]:
                got = estimate(config, n).to_json_obj()
                assert got == reference(config, n).to_json_obj(), (estimate.__name__, seed)

    @pytest.mark.parametrize("n", [1, 7, 4095, 4096, 4097, 65535, 65536, 65537, 150001])
    def test_blocks_decide_every_pair_once(self, monkeypatch, n):
        # a dropped or repeated row rarely moves the counts, so compare the
        # pairs the blocks saw with the whole-chunk draws
        seen, det_signs = [], experiments._det_signs

        def recorded(pairs, work):
            seen.append(pairs.copy())
            return det_signs(pairs, work)

        monkeypatch.setattr(experiments, "_det_signs", recorded)
        config = SamplerConfig(seed=0)
        estimate_2d_reversal(config, n)
        chunks = experiments._stream_chunks(config, experiments._PURPOSE_MC2D, n)
        drawn = [rng.standard_exponential((2, m, 4)) for rng, m in chunks]
        assert all(len(pairs[0]) <= experiments._PAIR_BLOCK for pairs in seen)
        assert np.array_equal(np.concatenate(seen, axis=1), np.concatenate(drawn, axis=1))

    def test_2d_peak_is_one_chunk_draw(self):
        # the (2, 2^16, 4) draw buffer plus the block buffers, whatever the size
        draw = 2 * experiments._CHUNK * 4 * 8
        for n in (1 << 16, 200001):
            assert traced_peak(estimate_2d_reversal, n) <= draw + 2**20, n

    def test_3d_peak_does_not_rise(self):
        # 10.32 MiB measured with float32 logs of the entries' float32
        # casts, which need no float64 block buffer for F and G; 10.69 MiB
        # with float64 logs and the blocked pass over the entries, which
        # forms F + G only for the shared rows; 13.75 MiB with the float32
        # screen and a chunk-wide (m, 8) sum buffer, 14.77 MiB before the
        # screen and 15.27 MiB while every pair's sum was classified
        assert traced_peak(estimate_3d_conversion, 1 << 16) <= 10.37 * 2**20

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss counts KiB on Linux")
    def test_3d_resident_rise_is_bounded(self):
        # tracemalloc sees only Python's and numpy's allocators; the peak
        # resident set sees every allocation.  After a 4 097-pair warm-up
        # that crosses every path of the classifier, a 2^16-pair call rose
        # by 13.15 MiB before the float32 screen, 12.66 MiB with it and
        # 9.05 MiB with the blocked pass over the entries; the bound is
        # that rise plus 1 MiB
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _RESIDENT_RISE],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) <= (9.05 + 1) * 1024

    def test_3d_peak_does_not_grow_with_the_chunks(self):
        # a chunk's ids and masks die before the next chunk is classified;
        # the running counts are Python ints, a few hundred bytes once past 256
        assert traced_peak(estimate_3d_conversion, 200001) <= traced_peak(
            estimate_3d_conversion, 1 << 16
        ) + 1024


def exact_id(catalog, *rows):
    """``classify_exact`` on the exact sum of rows of doubles, each read
    exactly over their common power-of-two denominator."""
    ints, scale = experiments._power_of_two_scale(np.concatenate(rows).tolist())
    return classify_exact(_table3([sum(ints[i::8]) for i in range(8)], scale), catalog).canonical_id


class TestExactIds:
    def test_nonzero_ids_are_the_exact_ids_of_the_drawn_tables(self, catalog):
        # 2^13 pairs, so the F and G calls go through the float32 screen.
        # A certified id is exact (estimate_3d_conversion's docstring); a
        # nonzero id of the float64 rule has its constraints clear the
        # margin, 2e-9 * scale or more, far above the log and sum errors
        f, g = np.random.default_rng(11).standard_exponential((2, 1 << 13, 8))
        ids_f = classify_heights_batch(np.log(f), catalog)
        ids_g = classify_heights_batch(np.log(g), catalog)
        shared = np.flatnonzero((ids_f == ids_g) & (ids_f != 0))
        ids_s = classify_heights_batch(np.log(f[shared] + g[shared]), catalog)
        for rows, ids in [(f, ids_f), (g, ids_g)]:
            assert np.count_nonzero(ids) > 0.99 * len(ids)
            for i in np.flatnonzero(ids).tolist():
                assert ids[i] == exact_id(catalog, rows[i]), i
        assert np.count_nonzero(ids_s) > 100
        for i, sum_id in zip(shared.tolist(), ids_s.tolist()):
            assert sum_id in (0, exact_id(catalog, f[i], g[i])), i


    @pytest.mark.filterwarnings("error")
    def test_entry_ids_are_the_exact_ids_of_the_drawn_tables(self, catalog):
        # every id of F, G and the shared-id sums, zeros included, through
        # the entry point the estimator calls; any warning fails
        pairs = np.random.default_rng(11).standard_exponential((1 << 14, 16)).reshape(-1, 8, 2)
        ids_f, ids_g = classify_entries_batch(pairs)
        shared = np.flatnonzero((ids_f == ids_g) & (ids_f != 0))
        summands = pairs[shared]
        (ids_s,) = classify_entries_batch(summands[:, :, :1], summands[:, :, 1:])
        for j, ids in enumerate((ids_f, ids_g)):
            assert ids.tolist() == [exact_or_0(catalog, row) for row in pairs[:, :, j]]
        assert len(shared) > 200
        assert ids_s.tolist() == [exact_or_0(catalog, *row.T) for row in summands]

    def test_integer_draws_discard_exactly_the_degenerate_pairs(self, catalog, monkeypatch):
        # draws of integers through the stream's generator, 1..5 (ties:
        # many tables are exactly degenerate) on half the pairs and
        # 1..10^6 on the others
        class IntegerDraws:
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def standard_exponential(self, out):
                high = self.rng.choice([6, 10**6 + 1], (len(out), 1))
                out[...] = self.rng.integers(1, high, out.shape)
                return out

        monkeypatch.setattr(SamplerConfig, "stream", lambda self, *key: IntegerDraws([self.seed, *key]))
        config = SamplerConfig(seed=3)
        n = 2 * 2048 + 3
        est = estimate_3d_conversion(config, n)
        discards = conversions = no_conversions = 0
        for rng, m in experiments._stream_chunks(config, experiments._PURPOSE_MC3D, n):
            for f, g in rng.standard_exponential(out=np.empty((m, 16))).reshape(m, 8, 2).transpose(0, 2, 1):
                id_f, id_g = exact_or_0(catalog, f), exact_or_0(catalog, g)
                id_s = exact_or_0(catalog, f, g) if id_f == id_g else None
                if 0 in (id_f, id_g, id_s):
                    discards += 1
                elif id_s is not None:
                    conversions += id_s != id_f
                    no_conversions += id_s == id_f
        assert 0 < discards < n and conversions > 0
        assert est.degenerate_discards == discards
        assert est.counts == {
            "sameTriangulation": conversions + no_conversions,
            "conversion": conversions,
            "sameNoConversion": no_conversions,
        }


def exact_or_0(catalog, *rows):
    """``exact_id``, or 0 where ``classify_exact`` raises DegenerateTable."""
    try:
        return exact_id(catalog, *rows)
    except DegenerateTable:
        return 0


def exact_det_sign(t):
    return (t[0] * t[3] > t[1] * t[2]) - (t[0] * t[3] < t[1] * t[2])


def pair_signs(rows):
    """``_det_signs`` on a block of pairs given as rows of F's then G's
    four entries: the (3, b) signs and the degenerate count."""
    pairs = np.array(rows, dtype=np.float64).reshape(-1, 2, 4).transpose(1, 0, 2)
    det, degenerate = experiments._det_signs(pairs, experiments._PairBlock(pairs.shape[1]))
    return np.sign(det).astype(int), degenerate


def near_tie(base, nudges, scale):
    """A 2x2 table a few ulps from the tie (pq, pr, sq, sr), scaled."""
    p, q, r, s = base
    return [(e + k * math.ulp(e)) * scale for e, k in zip((p * q, p * r, s * q, s * r), nudges)]


ties = st.tuples(*[st.integers(1, 6).map(float)] * 4)
nudges = st.lists(st.integers(-2, 2), min_size=4, max_size=4)
scales = st.sampled_from([1.0, 0.5, 2.0, 2.0**300, 2.0**-300])
# F and G near one tie, so that F + G is near it too, or any two tables
pairs2 = st.one_of(
    ties.flatmap(lambda base: st.tuples(*[st.builds(near_tie, st.just(base), nudges, scales)] * 2)),
    st.tuples(*[st.lists(st.floats(0.01, 100.0), min_size=4, max_size=4)] * 2),
)


class TestPairSigns:
    def test_float_zero_decided_by_the_exact_determinant(self):
        e = 2.0**-52
        f = [1 + e, 1 + 2 * e, 1.0, 1 + e]
        assert f[0] * f[3] - f[1] * f[2] == 0.0
        signs, degenerate = pair_signs([f + [1.0, 4.0, 0.2, 1.0]])
        assert degenerate == 0
        assert signs[0, 0] == 1    # exactly 2^-104
        # F + G has negative determinant: the pair is a reversal
        assert list(signs[:, 0]) == [1, 1, -1]

    def test_exact_zero_is_a_discard(self):
        signs, degenerate = pair_signs([[1.0, 2.0, 2.0, 4.0, 1.0, 4.0, 0.2, 1.0]])
        assert degenerate == 1 and not signs.any()

    def test_sum_is_decided_exactly(self):
        # fl(F + G) rounds to all ones, whose determinant is 0; the exact
        # F + G has determinant 2^-53 + 2^-54
        f = [0.5, 0.5, 0.5, 0.5 + 2.0**-53]
        g = [0.5, 0.5, 0.5 - 2.0**-54, 0.5]
        assert [a + b for a, b in zip(f, g)] == [1.0] * 4
        signs, degenerate = pair_signs([f + g])
        assert degenerate == 0 and list(signs[:, 0]) == [1, 1, 1]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(pairs2, min_size=1, max_size=8))
    def test_signs_against_fractions(self, pairs):
        signs, degenerate = pair_signs([f + g for f, g in pairs])
        discarded = 0
        for (f, g), row in zip(pairs, signs.T.tolist()):
            ef, eg = (exact_det_sign([Fraction(e) for e in t]) for t in (f, g))
            es = exact_det_sign([Fraction(a) + Fraction(b) for a, b in zip(f, g)])
            # the float path reads the rounded sum fl(F + G)
            rs = exact_det_sign([Fraction(a + b) for a, b in zip(f, g)])
            if row == [0, 0, 0]:
                discarded += 1
                assert 0 in (ef, eg, es)
            else:
                assert row[:2] == [ef, eg] and 0 not in row
                # a float 0 sends the row to the exact sum; otherwise the
                # sum's sign is that of fl(F + G)
                assert row[2] == es if rs == 0 else row[2] in (es, rs)
            if 0 in (ef, eg) or es == rs == 0:
                assert row == [0, 0, 0]
        assert degenerate == discarded


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
    classes and in sweeps whose pool holds five rows or 512, the width
    before the default became 1024."""
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
    for key in keys:
        assert outcome(mixed[key]) == single[key]
    for width in (5, 512):
        monkeypatch.setattr(experiments, "_OPT_BLOCK", width)
        small = search.sweep_pairs(pairs, budget)
        small.update(search.sweep_triples(triples, budget))
        for key in keys:
            assert outcome(small[key]) == single[key], (width, key)


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

    @pytest.mark.parametrize("arity", [2, 3])
    def test_checked_keys_equal_the_reference(self, catalog, arity):
        # A random member of every class, each once and about twice more at
        # random, shuffled, with the summands of triples in either order.
        rng = np.random.default_rng(arity)
        members = [c.members[rng.integers(len(c.members))] for c in orbit_classes(arity, catalog)]
        keys = members + [members[i] for i in rng.integers(0, len(members), 2 * len(members))]
        keys = [keys[i] for i in rng.permutation(len(keys))]
        if arity == 3:
            keys = [(b, a, c) if rng.random() < 0.5 else (a, b, c) for a, b, c in keys]
        canonical = canonical_classes(key_rows(keys, catalog, arity), catalog)
        blocked = obstructing_vertices(catalog, canonical) >= 0
        search = ConversionSearch(SamplerConfig(seed=0))
        # With every class, the first obstructed one in sorted order is refused.
        first = tuple(np.unique(canonical[blocked], axis=0)[0, _UNPAD[arity]].tolist())
        with pytest.raises(DomainError) as info:
            search._checked_keys(keys, arity)
        assert str(info.value) == f"{_KEY_KINDS[arity]} class {first} is parity obstructed"
        # The feasible classes' keys and padded rows, sorted and without repeats.
        feasible = [key for key, b in zip(keys, blocked) if not b]
        got_keys, got_rows = search._checked_keys(feasible, arity)
        rows = np.unique(canonical[~blocked], axis=0)
        assert len(rows) == {2: 112, 3: 4304}[arity]
        assert np.array_equal(got_rows, rows) and got_rows.dtype == rows.dtype
        assert got_keys == [tuple(r) for r in rows[:, _UNPAD[arity]].tolist()]
        assert all(type(i) is int for key in got_keys for i in key)

    @pytest.mark.parametrize("arity", [2, 3])
    def test_one_key_checks_as_in_a_batch(self, catalog, arity):
        # 200 random members of random classes, each checked alone: the
        # class's row of one batched call, or the refusal of an obstructed one.
        rng = np.random.default_rng(arity + 20)
        classes = orbit_classes(arity, catalog)
        blocked = set(infeasible_pair_classes(catalog, classes))
        picks = [classes[i] for i in rng.integers(0, len(classes), 200)]
        members = [c.members[rng.integers(len(c.members))] for c in picks]
        search = ConversionSearch(SamplerConfig(seed=0))
        keys, rows = search._checked_keys(
            [m for m, c in zip(members, picks) if c not in blocked], arity
        )
        row_of = dict(zip(keys, rows.tolist()))
        assert blocked & set(picks) and len(keys) > 50
        for member, cls in zip(members, picks):
            key = cls.representative
            if cls in blocked:
                refusal = f"^{_KEY_KINDS[arity]} class {re.escape(str(key))} is parity obstructed$"
                with pytest.raises(DomainError, match=refusal):
                    search._checked_keys([member], arity)
                continue
            (one,), row = search._checked_keys([member], arity)
            assert one == key and all(type(i) is int for i in one)
            assert row.tolist() == [row_of[key]] and row.dtype == rows.dtype

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
        # keys built from id rows hold Python ints, as the text summary needs
        exhausted = search.sweep_triples([(3, 4, 55)], budget=100)
        for key, result in [*results.items(), *exhausted.items()]:
            for ids in (key, result.class_key):
                assert type(ids) is tuple and all(type(i) is int for i in ids)
        assert isinstance(exhausted[(3, 4, 55)], Exhausted)


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sweep_verifies_witnesses_and_spends_the_budget(self):
        # an overflow or invalid value in the descent's in-place step fails
        search = ConversionSearch(SamplerConfig(seed=0))
        results = search.sweep_triples([(1, 3, 5), (2, 7, 40), (3, 4, 55)], 2000)
        for key in [(1, 3, 5), (2, 7, 19)]:
            assert isinstance(results[key], Witness) and results[key].verify(), key
        hard = results[(3, 4, 55)]
        assert isinstance(hard, Exhausted) and hard.attempts == 2000, hard

    def test_hard_class_exhausts_on_optimizer_evaluations(self, monkeypatch):
        step = experiments._Descent._step
        evaluations, retired = [], []

        def counting(descent):
            live = descent.live.copy()
            evaluations.append(int(np.count_nonzero(live)))
            step(descent)
            # a row that ends without a witness has run to its limit, no further
            ended = live & ~descent.live
            retired.extend((descent.t[ended] == descent.limit[ended]).tolist())

        monkeypatch.setattr(experiments._Descent, "_step", counting)
        result = search_witness((3, 4, 55), SamplerConfig(seed=0), budget=2000)
        assert isinstance(result, Exhausted)
        assert result.class_key == (3, 4, 55)
        assert evaluations and result.attempts == sum(evaluations) <= 2000
        assert retired and all(retired)
        # Six classes at once, at a budget that is not a multiple of 600:
        # each class's four rows end at 600, 600, 600 and 200 iterations.
        evaluations.clear()
        retired.clear()
        search = ConversionSearch(SamplerConfig(seed=0))
        results = search.sweep_triples(OPEN_CLASSES, 2000)
        assert all(isinstance(r, Exhausted) and r.attempts == 2000 for r in results.values())
        assert sum(evaluations) == 6 * 2000
        assert len(retired) == 6 * 4 and all(retired)

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

    def test_bad_key_is_refused_before_the_budget(self):
        search = ConversionSearch(SamplerConfig(seed=0))
        with pytest.raises(DomainError, match=r"^pair class \(16, 1\) is parity obstructed$"):
            search_witness((16, 1), budget=0)
        with pytest.raises(DomainError, match="^triple classes require distinct summand ids$"):
            search.sweep_triples([(3, 3, 5)], 0)
        with pytest.raises(DomainError, match=r"^pair class keys have 2 components, got \(1, 2, 3\)$"):
            search.sweep_pairs([(1, 2, 3)], 0)

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

        monkeypatch.setattr(experiments, "classify_entries_batch", forbidden)
        monkeypatch.setattr(triangulation, "classify_heights_batch", forbidden)
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

    def test_zero_loss_points_verify(self, catalog, caplog):
        # A failed verification is only logged, so a float32 rounding that
        # leaves the witness region would otherwise go unseen.
        pairs = orbit_classes(2, catalog)
        obstructed = {c.representative for c in infeasible_pair_classes(catalog, pairs)}
        keys = [c.representative for c in pairs if c.representative not in obstructed]
        with caplog.at_level(logging.WARNING, logger="simpson3"):
            results = ConversionSearch(SamplerConfig(seed=0)).sweep_pairs(keys, 10**7)
        assert len(results) == 112
        assert all(isinstance(w, Witness) for w in results.values())
        assert not [r for r in caplog.records if "fails exact verification" in r.getMessage()]

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


def on_grid(x):
    """``x`` rounded to the nearest multiple of 2^-12, ties to even, as
    float32: the descent's grid, by rounding in float64."""
    return (np.round(np.asarray(x, np.float64) * 4096) / 4096).astype(np.float32)


def sum_logs(hf, ratio):
    """The sum's log entries hf + log1p(ratio), with ratio = e^(hg - hf);
    in float32 as the descent forms them, with log1p on the grid."""
    lift = np.log1p(ratio)
    return hf + (on_grid(lift) if lift.dtype == np.float32 else lift)


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
    parts = np.stack([hf, hg, sum_logs(hf, ratio)], axis=1)
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
    """The descent's kernel before it kept only the pool's active rows, in
    h's dtype: ``sign`` (20, 3, n) orients every form of F, G and the sum,
    and each step takes all 60 (form, summand) rows.  Returns the zero
    mask and the gradient."""
    hf, hg = h[:8], h[8:]
    ratio = np.exp(hg - hf)
    parts = np.empty((8, 3, h.shape[1]), h.dtype)
    parts[:, 0], parts[:, 1], parts[:, 2] = hf, hg, sum_logs(hf, ratio)
    forms = FORM_MATRIX.astype(h.dtype)
    gap = np.matmul(forms, parts.reshape(8, -1)).reshape(20, 3, -1)
    gap *= sign
    np.maximum(np.subtract(experiments._OPT_MARGIN, gap, out=gap), 0.0, out=gap)
    gap *= sign
    zero = ~gap.reshape(60, -1).any(axis=0)
    form_grad = np.ascontiguousarray(-2.0 * forms.T)
    grads = np.matmul(form_grad, gap.reshape(20, -1)).reshape(8, 3, -1)
    shared = grads[:, 2] * (1.0 / (1.0 + ratio))
    return zero, np.concatenate([grads[:, 0] + shared, grads[:, 1] + grads[:, 2] - shared])


def required_margins(sign):
    """The margin each id's form must reach: ``_OPT_MARGIN`` on its
    constraints, ``-inf`` elsewhere, so that such a form is never active."""
    return np.where(sign != 0, experiments._OPT_MARGIN, -np.inf)


def kernel_signs(sign, ids, dtype=np.float32):
    """The per-column sign array the descent gathers for ids (3, n)."""
    return np.take(sign.T, ids, axis=-1).astype(dtype)


def active_hinge(sign, ids, h):
    """The descent's kernel on a pool of ids (3, n) and log points h: the
    zero mask and the gradient it writes into the pool's buffers."""
    work = experiments._Work(kernel_signs(sign, ids))
    work.h[...] = h
    experiments._hinge_rows(work)
    return work.zero, work.grad


def reference_hinge_rows(h, sign, forms, form_grad):
    """The descent's kernel as it was before the step wrote into buffers
    built at each refill: the same operations on fresh float32 arrays."""
    hf, hg = h[:8], h[8:]
    ratio = np.exp(hg - hf)
    parts = np.stack([hf, hg, sum_logs(hf, ratio)])
    gap = np.matmul(forms, parts)
    gap *= sign
    np.maximum(np.subtract(experiments._OPT_MARGIN, gap, out=gap), 0.0, out=gap)
    gap *= sign
    zero = ~gap.any(axis=(0, 1))
    grad_f, grad_g, grad_s = np.matmul(form_grad, gap)
    shared = grad_s * (1.0 / (1.0 + ratio))
    return zero, np.concatenate([grad_f + shared, grad_g + grad_s - shared])


# Adam's bias corrections by iteration, by their float64 formulas.
ITERATIONS = np.arange(1, experiments._OPT_MAXITER + 1)
RATE = experiments._OPT_LR / (1.0 - experiments._OPT_BETA1 ** ITERATIONS)
SCALE = 1.0 / (1.0 - experiments._OPT_BETA2 ** ITERATIONS)


def reference_step(h, m, v, t, live, work, flush):
    """One step of the descent before it worked in place, on contiguous
    copies of the pool's state: the zero mask of live columns and the
    next h, m, v and t.  Adam's float64 tables are rounded to float32.  On
    a ``flush`` step, first moments of magnitude below 2^-75 become +0."""
    zero, grad = reference_hinge_rows(h, work.sign, work.forms, work.form_grad)
    zero &= live
    m *= experiments._OPT_BETA1
    m += (1.0 - experiments._OPT_BETA1) * grad
    if flush:
        m[np.abs(m) < 2.0**-75] = 0.0
    v *= experiments._OPT_BETA2
    v += (1.0 - experiments._OPT_BETA2) * (grad * grad)
    rate, scale = (a.astype(np.float32).take(t, mode="clip") for a in (RATE, SCALE))
    h -= rate * m / (np.sqrt(v * scale) + 1e-8)
    np.clip(h, -experiments._OPT_BOX, experiments._OPT_BOX, out=h)
    return zero, on_grid(h), m, v, t + 1


# The six III->III->III classes the search leaves open.
OPEN_CLASSES = [(3, 4, 55), (3, 4, 58), (3, 11, 55), (3, 11, 58), (3, 14, 53), (3, 14, 60)]

# Pool compositions and the most forms they constrain in one summand, kmax:
# one class, the six open classes, and 40 classes.
POOLS = {"one class": (4, 6), "six open classes": (11, 11), "40 classes": (20, 20)}


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
    """A witness's canonical key (padded to 3 ids) and its log entries,
    rounded to the grid: the point the descent found."""
    witness = search_witness(key, SamplerConfig(seed=0))
    h = np.log([float(x) for x in witness.f.entries + witness.g.entries])
    return pad_key(witness.class_key), on_grid(h)


def near_margin_rows(sign, need, ids, h, rng):
    """Move one coordinate of each column so that one of its constraints
    sits within a few grid steps of the required margin, and round every
    entry to the grid."""
    h = h.astype(np.float64)
    for r in range(h.shape[1]):
        part = rng.integers(0, 2)
        forms = np.flatnonzero(sign[ids[part, r]])
        i = rng.choice(forms)
        s = sign[ids[part, r], i]
        x = h[8 * part : 8 * part + 8, r]
        j = rng.choice(np.flatnonzero(FORM_MATRIX[i]))
        x[j] += (need[ids[part, r], i] - s * FORM_MATRIX[i] @ x) / (s * FORM_MATRIX[i, j])
        x[j] += rng.integers(-3, 4) / 4096
    return on_grid(h)


def grid_pool(catalog, seed, n):
    """ids (3, n) and float32 grid points h (16, n) in the box.  A column
    is random, or at the box's corners: every entry at +-12, or hg - hf =
    +-24 in every entry, or F = G at +-12 in the pattern of one of the sum's
    constraints, against its sign, so that the gaps of F, G and the sum on
    that form reach 6 * 12 plus the margin and more.  Columns 0 to 3 take
    the four kinds in turn."""
    rng = np.random.default_rng(seed)
    box = experiments._OPT_BOX
    ids = rng.integers(1, 75, (3, n))
    h = rng.integers(-4096 * 12, 4096 * 12 + 1, (16, n)) / 4096
    kind = rng.integers(0, 4, n)
    kind[:4] = rng.permutation(4)[: min(n, 4)]
    ends = box * rng.choice([-1.0, 1.0], (16, n))
    h[:, kind == 1] = ends[:, kind == 1]
    h[:8, kind == 2], h[8:, kind == 2] = ends[:8, kind == 2], -ends[:8, kind == 2]
    sign = catalog.constraint_signs
    for r in np.flatnonzero(kind == 3):
        form = rng.choice(np.flatnonzero(sign[ids[2, r]]))
        pattern = np.where(FORM_MATRIX[form] != 0, np.sign(FORM_MATRIX[form]), ends[:8, r] / box)
        h[:, r] = np.tile(-sign[ids[2, r], form] * box * pattern, 2)
    return ids, h.astype(np.float32)


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
        # the float64 full-form kernel, which the float32 kernel equals
        # bit for bit in float32 (test_gradient_equals_the_gathered_kernel)
        sign = catalog.constraint_signs
        rng = np.random.default_rng(3)
        ids = rng.integers(1, 75, (3, 50))
        h = rng.normal(0.0, 3.0, (16, 50))
        ids[:, 0], h[:, 0] = witness_row((1, 3, 5))
        zero, grad = full_form_hinge(h, kernel_signs(sign, ids, np.float64))
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
        h = on_grid(rng.normal(0.0, 3.0, (16, n)))
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
        cons = np.ascontiguousarray(table.transpose(2, 1, 0), np.float32)[..., ids]
        req = np.ascontiguousarray(margins.T, np.float32)[:, ids]
        loss, expected = gathered_hinge(h, cons, req)
        active = experiments._active_rows(kernel_signs(sign, ids))[0]
        zero, grad = active_hinge(sign, ids, h)
        full_zero, full_grad = full_form_hinge(h, kernel_signs(sign, ids))
        assert grad.dtype == expected.dtype == full_grad.dtype == np.float32
        assert np.array_equal(zero, loss == 0.0)
        assert np.array_equal(grad, expected)
        assert np.array_equal(zero, full_zero)
        assert np.array_equal(grad, full_grad)
        if rows == "witness":
            assert zero[:3].all()
        if rows in POOLS:
            low, high = POOLS[rows]
            assert active.shape[::2] == (3, n) and low <= active.shape[1] <= high
            assert zero[0] == (rows != "six open classes")

    # "drawn keys": the descent's own float32 sign table, a witness's key
    # then 39 drawn keys.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("keys", ["40 classes", "drawn keys"])
    def test_a_column_does_not_depend_on_its_pool(self, catalog, keys):
        sign = catalog.constraint_signs
        rng = np.random.default_rng(5)
        if keys == "drawn keys":
            sign = experiments._Descent([], np.zeros((0, 3), int), 1, SamplerConfig()).sign_table.T
            assert sign.dtype == np.float32
            key, witness = witness_row((1, 3, 5))
            ids = np.tile(np.array([key] + rng.integers(1, 75, (39, 3)).tolist()).T, 5)
            h = on_grid(rng.normal(0.0, 3.0, (16, 200)))
            h[:, 0] = witness
            h[:, 1:] = near_margin_rows(sign, required_margins(sign), ids[:, 1:], h[:, 1:], rng)
        else:
            ids = pool_ids(keys, 200)
            h = rng.normal(0.0, 3.0, (16, 200))
            h = near_margin_rows(sign, required_margins(sign), ids, h, rng)
            ids[:, 0], h[:, 0] = witness_row((1, 3, 5))
        zero, grad = active_hinge(sign, ids, h)
        assert zero[0] and not grad[:, 0].any() and not zero[1:].all()
        assert grad.dtype == np.float32
        for r in range(40):
            own = np.flatnonzero((ids == ids[:, r, None]).all(axis=0))
            assert len(own) == 5
            one_zero, one_grad = active_hinge(sign, ids[:, own], h[:, own])
            assert np.array_equal(one_zero, zero[own])
            assert np.array_equal(one_grad, grad[:, own])
            alone_zero, alone_grad = active_hinge(sign, ids[:, [r]], h[:, [r]])
            assert np.array_equal(alone_zero, zero[[r]])
            assert np.array_equal(alone_grad, grad[:, [r]])
        # Pools of every size up to 40 columns, as a class's last rows leave.
        for n in range(1, 41):
            small_zero, small_grad = active_hinge(sign, ids[:, :n], h[:, :n])
            assert np.array_equal(small_zero, zero[:n])
            assert np.array_equal(small_grad, grad[:, :n])

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_products_are_exact_on_the_grid(self, catalog, seed):
        # Both float32 products equal int64 arithmetic on 4096 * h, column
        # by column, on pools of 1 to 40 columns and of 1024, among them
        # pools whose summands constrain unequal numbers of forms, and on
        # the same pools with no G rows.  Each summand lists its constrained
        # forms, then its others up to kmax; a padded row's gap is 0, its
        # zero flag true, and it adds nothing to the gradient.
        margin = experiments._OPT_MARGIN * 4096
        assert margin == 205
        ids, h = grid_pool(catalog, seed, 1024)
        sign = kernel_signs(catalog.constraint_signs, ids)
        no_g = sign.copy()
        no_g[:, 1] = 0
        largest, unequal = 0, 0
        for signs, n in itertools.product((sign, no_g), [*range(1, 41), 1024]):
            work = experiments._Work(signs[..., :n])
            work.h[...] = h[:, :n]
            experiments._hinge_rows(work)
            constrained = [np.flatnonzero(signs[:, t, :n].any(axis=1)) for t in range(3)]
            kmax = max(map(len, constrained))
            for t, own in enumerate(constrained):
                rows = np.concatenate([own, np.setdiff1d(np.arange(20), own)])[:kmax]
                assert np.array_equal(work.forms[t], FORM_MATRIX[rows])
                assert np.array_equal(work.sign[t], signs[rows, t, :n])
            unequal += len(set(map(len, constrained))) > 1
            parts = work.parts * np.float64(4096)
            assert np.array_equal(parts, np.round(parts))
            assert np.abs(work.hs).max() < 12.7
            s = work.sign.astype(np.int64)
            value = work.forms.astype(np.int64) @ parts.astype(np.int64)
            gap = np.maximum(margin - s * value, 0) * s
            assert np.array_equal(work.gap * np.float64(4096), gap)
            form_grad = work.form_grad.astype(np.int64)
            assert np.array_equal(form_grad, -2 * work.forms.swapaxes(1, 2))
            prod = form_grad @ gap
            assert np.array_equal(work.prod * np.float64(4096), prod)
            assert np.abs(value).max() < 2**7 * 4096 and np.abs(prod).max() < 2**11 * 4096
            largest = max(largest, np.abs(gap).max())
            padded = ~s.any(axis=-1)
            assert not work.gap[padded].any() and work.zero_gaps[padded].all()
            assert np.array_equal(np.where(padded[:, None], 0, form_grad) @ gap, prod)
            if signs is no_g:
                assert padded[1].all() and not work.prod[1].any()
        assert unequal and largest >= 6 * 12 * 4096 + margin
        assert (np.abs(h) == experiments._OPT_BOX).all(axis=0).any()

    def test_grid_rounds_to_nearest_even(self):
        # float32 values of magnitude below 2^10, halfway points between
        # grid steps and their float32 neighbours
        rng = np.random.default_rng(13)
        x = np.concatenate([rng.uniform(-30.0, 30.0, 1 << 16), rng.uniform(-1024, 1024, 1 << 16)])
        steps = np.concatenate([np.arange(-2048, 2048), rng.integers(-(1 << 22), 1 << 22, 4096)])
        half = ((steps + 0.5) / 4096).astype(np.float32)
        below, above = (np.nextafter(half, end, dtype=np.float32) for end in (-np.inf, np.inf))
        x = np.concatenate([x.astype(np.float32), half, below, above])
        assert np.array_equal(experiments._to_grid(x.copy()), on_grid(x))

    def test_step_equals_the_reference(self, catalog):
        sign = catalog.constraint_signs
        need = required_margins(sign)
        rng = np.random.default_rng(19)
        feasible = set(orbit_classes(3, catalog)) - set(
            infeasible_triple_classes(catalog, orbit_classes(3, catalog))
        )
        reps = sorted(c.representative for c in feasible)
        draw = [reps[i] for i in rng.choice(len(reps), 20, replace=False)]
        keys, rows = ConversionSearch(SamplerConfig(seed=0))._checked_keys(
            OPEN_CLASSES[:4] + draw, 3
        )
        order = rng.permutation(len(keys))
        widths, refills, clipped, flushed = set(), 0, False, 0
        # Pools of every width up to 24 columns.
        for n in range(1, 25):
            descent = experiments._Descent(
                [keys[i] for i in order[:n]], rows[order[:n]], 600, SamplerConfig(seed=n)
            )
            for c in range(n):
                descent._plan(c)
            descent._refill()
            assert np.array_equal(descent.h, on_grid(descent.h))
            # Columns at every iteration, some near a margin, which retire
            # within 40 steps and run on until a refill drops them; a class
            # with budget left then sends a new row.
            descent.h[...] = near_margin_rows(sign, need, rows[order[:n]].T, descent.h, rng)
            descent.t[:] = rng.integers(0, 600, n)
            descent.limit[:] = np.minimum(descent.t + rng.integers(1, 40, n), 600)
            # First moments from 2^-90 to 2^-40 in magnitude, some of which
            # the flush at step 32 sets to +0.
            scale = np.exp2(rng.uniform(-90, -40, descent.m.shape))
            descent.m[...] = rng.choice([-1, 1], descent.m.shape) * scale
            # the retirement clock reads t and the limits
            descent._cap()
            # Every 32nd step of a descent flushes its tiny first moments.
            for step in range(1, 61):
                work = descent.work
                descent._refill()
                refills += descent.work is not work
                if not descent.live.any():
                    break
                state = [np.array(a) for a in (descent.h, descent.m, descent.v, descent.t)]
                flush = step % 32 == 0
                if flush:
                    kept = reference_step(*map(np.copy, state), descent.live, descent.work, False)
                expected = reference_step(*state, descent.live.copy(), descent.work, flush)
                # a flush step that zeroes a nonzero moment
                flushed += flush and not np.array_equal(kept[2], expected[2])
                widths.add(len(descent.t))
                clipped |= bool((descent.t >= experiments._OPT_MAXITER).any())
                descent._step()
                got = (descent.work.zero, descent.h, descent.m, descent.v, descent.t)
                assert descent.h.dtype == descent.m.dtype == descent.v.dtype == np.float32
                for a, b in zip(got, expected):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
        assert widths >= set(range(1, 25)) and refills >= 24 and clipped and flushed

    def test_the_flush_moves_no_outcome(self):
        # The six open classes at budget 2·10⁴: two waves, about 1 200 steps,
        # beside a descent that never flushes, which meets float32 subnormals.
        keys, rows = ConversionSearch(SamplerConfig(seed=0))._checked_keys(OPEN_CLASSES, 3)
        flushed, unflushed = (
            experiments._Descent(keys, rows, 20000, SamplerConfig(seed=0)) for _ in range(2)
        )
        tiny = np.finfo(np.float32).tiny
        steps, subnormal, zeroed = 0, 0, 0
        for c in range(len(keys)):
            flushed._plan(c)
            unflushed._plan(c)
        while True:
            flushed._refill()
            unflushed._refill()
            assert flushed.live_count == unflushed.live_count
            if not flushed.live_count:
                break
            flushed._step()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(experiments, "_FLUSH_PERIOD", 10**9)
                unflushed._step()
            steps += 1
            for a, b in [
                (flushed.h, unflushed.h),
                (flushed.v, unflushed.v),
                (flushed.t, unflushed.t),
                (flushed.work.flags, unflushed.work.flags),
                (flushed.work.zero, unflushed.work.zero),
            ]:
                assert a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8))
            kept = ~(np.abs(unflushed.m) < 2.0**-75)
            bits = flushed.m.view(np.uint32), unflushed.m.view(np.uint32)
            assert np.array_equal(bits[0][kept], bits[1][kept])
            # Elsewhere the flushed moment is +0 or the reference's own value.
            moved = flushed.m != unflushed.m
            assert not bits[0][moved].any()
            zeroed += bool(moved.any())
            for a in (flushed.m, flushed.v, flushed.work.scratch):
                assert not ((a != 0) & (np.abs(a) < tiny)).any()
            subnormal += bool(((unflushed.m != 0) & (np.abs(unflushed.m) < tiny)).any())
        assert flushed.spent.tolist() == unflushed.spent.tolist() == [20000] * 6
        assert steps >= 600 and subnormal and zeroed

    @pytest.mark.parametrize("pool", ["six open classes", "40 classes", "no G rows"])
    def test_gradient_does_not_depend_on_the_product_path(self, catalog, pool):
        # The stacked pair on the padded rows equals, byte for byte, the
        # same kernel on all 20 forms of every summand, and one (k_s, 8) and
        # one (8, k_s) product per summand on its constrained forms alone:
        # padding moves no gap, flag or gradient entry.
        rng = np.random.default_rng(29)
        sign = catalog.constraint_signs
        forms = FORM_MATRIX.astype(np.float32)
        margin = np.float32(experiments._OPT_MARGIN)

        def all_forms(signs):
            stacked = np.stack([forms] * 3)
            grad_map = np.multiply(stacked, -2).swapaxes(1, 2)
            return np.ascontiguousarray(signs.swapaxes(0, 1)), stacked, grad_map

        for n in (64, 1024):
            ids = pool_ids("40 classes" if pool == "no G rows" else pool, n)
            h = on_grid(rng.normal(0, 3, (16, n)))
            h = near_margin_rows(sign, required_margins(sign), ids, h, rng)
            signs = kernel_signs(sign, ids)
            if pool == "no G rows":
                # a summand no column constrains: its gradient rows are zero
                signs[:, 1] = 0
            work = experiments._Work(signs)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(experiments, "_active_rows", all_forms)
                full = experiments._Work(signs)
            for pool_work in (work, full):
                pool_work.h[...] = h
                experiments._hinge_rows(pool_work)
            for a, b in [(work.prod, full.prod), (work.grad, full.grad), (work.zero, full.zero)]:
                assert a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8))
            kmax = work.gap.shape[1]
            low, high = POOLS["40 classes" if pool == "no G rows" else pool]
            assert full.gap.shape[1] == 20 and low <= kmax <= high
            padded = 0
            for t in range(3):
                own = np.flatnonzero(signs[:, t].any(axis=1))
                k = len(own)
                padded += kmax - k
                gap = work.gap[t, :k]
                assert np.array_equal(gap.view(np.uint8), full.gap[t, own].view(np.uint8))
                assert not work.gap[t, k:].view(np.uint32).any()
                assert not np.delete(full.gap[t], own, axis=0).view(np.uint32).any()
                if not k:
                    assert not work.prod[t].view(np.uint32).any()
                    continue
                s = signs[own, t]
                value = np.matmul(forms[own], work.parts[t]) * s
                expected = np.maximum(margin - value, np.float32(0)) * s
                assert np.array_equal(gap.view(np.uint8), expected.view(np.uint8))
                prod = np.matmul(np.multiply(forms[own], -2).T, expected)
                assert np.array_equal(work.prod[t].view(np.uint8), prod.view(np.uint8))
            # some gaps are nonzero, so some columns have nonzero loss
            assert work.gap.any() and not work.zero.all()
            # The open classes' and the G-less pools are padded; the 40
            # classes' summands each constrain all 20 forms.
            assert bool(padded) == (pool != "40 classes")

    def test_a_search_builds_one_pool_per_wave(self, monkeypatch):
        pools = []
        build = experiments._Work.__init__

        def counting(work, sign):
            pools.append(sign.shape[-1])
            build(work, sign)

        monkeypatch.setattr(experiments._Work, "__init__", counting)
        # A witness in the first 16-row wave: one pool, and none at the end.
        result = search_witness((1, 3, 5), SamplerConfig(seed=0), budget=20000)
        assert isinstance(result, Witness) and pools == [16]
        # An exhausted search of two waves, 16 rows and then the 18 that the
        # budget leaves room for: one pool each.
        pools.clear()
        result = search_witness((3, 4, 55), SamplerConfig(seed=0), budget=20000)
        assert isinstance(result, Exhausted) and result.attempts == 20000
        assert pools == [16, 18]
        # A sweep builds a pool only when rows enter it.
        pools.clear()
        ConversionSearch(SamplerConfig(seed=0)).sweep_triples([(1, 3, 5)] + OPEN_CLASSES, 20000)
        assert pools and all(pools)

    @pytest.mark.parametrize("width", [16, 1024])
    def test_a_warm_step_allocates_no_array(self, width):
        # Pools of the open classes, whose columns reach no zero loss here.
        keys, rows = ConversionSearch(SamplerConfig(seed=0))._checked_keys(
            OPEN_CLASSES[: 1 if width == 16 else 6], 3
        )
        descent = experiments._Descent(keys, rows, 10**7, SamplerConfig(seed=0))
        descent.wave = [-(-width // len(keys))] * len(keys)
        for c in range(len(keys)):
            descent._plan(c)
        descent._refill()
        assert len(descent.t) == width
        descent._step()
        # The two traced steps end with a flush of the first moments.
        descent.steps = experiments._FLUSH_PERIOD - 2
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            descent._step()
            descent._step()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert descent.steps == experiments._FLUSH_PERIOD
        assert not descent.work.zero.any() and descent.clock > 0
        # Less than one (16, 16) float32 block: numpy allocates a buffer for
        # a ufunc that broadcasts a row against a block, and for a reduce
        # that casts; what a step may allocate is a few small objects.
        assert peak < 16 * 16 * 4

    def test_float32_step_raises_no_float_fault(self):
        keys, rows = ConversionSearch(SamplerConfig(seed=0))._checked_keys(
            [(1, 3, 5), (2, 7, 40), (3, 4, 55)], 3
        )
        descent = experiments._Descent(keys, rows, 10**5, SamplerConfig(seed=0))
        for c in range(len(keys)):
            descent._plan(c)
        descent._refill()
        assert descent.h.dtype == np.float32 and descent.h.shape == (16, 48)
        box, h = experiments._OPT_BOX, descent.h
        # Class (1, 3, 5)'s first 16 columns: zero-gradient witness points.
        witness = search_witness((1, 3, 5), SamplerConfig(seed=0))
        h[:, :16] = np.log([[float(x)] for x in witness.f.entries + witness.g.entries])
        # Every form value 0, so every gap is exactly the margin.
        h[:, 16:20] = 0.0
        # Entries at the box, with |hg - hf| = 24 both ways.
        h[:, 20:24] = np.repeat([[box] * 8 + [-box] * 8, [-box] * 8 + [box] * 8], 2, axis=0).T
        # Entries alternating between the box's ends, so every form is large.
        h[:, 24:28] = np.where(np.arange(16)[:, None] % 2, box, -box)
        # The rest: one constraint of each column at the margin.
        sign = get_catalog().constraint_signs
        ids = descent.ids[descent.cls[28:]].T
        rng = np.random.default_rng(7)
        h[:, 28:] = near_margin_rows(sign, required_margins(sign), ids, h[:, 28:], rng)
        descent.t[:] = np.where(np.arange(48) % 2, 0, experiments._OPT_MAXITER - 1)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            descent._step()
        assert descent.work.zero[:16].all()
        for a in (descent.h, descent.m, descent.v):
            assert a.dtype == np.float32 and np.isfinite(a).all()
        assert (descent.v >= 0).all() and (np.abs(descent.h) <= box).all()


def descent_digest():
    """sha256 over the seed-0 outcomes of a sweep of 50 triple classes at
    budget 2·10⁴ (48 spread over the feasible classes, and two of the open
    ones) and over the payload of `simpson3 search --triple 1 3 5 --seed 0`
    without "verifiedAt"."""
    catalog = get_catalog()
    classes = orbit_classes(3, catalog)
    blocked = set(infeasible_triple_classes(catalog, classes))
    keys = [c.representative for c in classes if c not in blocked][::90] + OPEN_CLASSES[::5]
    results = ConversionSearch(SamplerConfig(seed=0)).sweep_triples(keys, 20000)
    lines = [
        repr((key, r.f, r.g) if isinstance(r, Witness) else (key, r.attempts))
        for key, r in sorted(results.items())
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["search", "--triple", "1", "3", "5", "--seed", "0"]) == 0
    payload = json.loads(out.getvalue())
    assert payload.pop("verifiedAt")
    lines.append(json.dumps(payload))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def cpu_has(feature):
    """Whether numpy finds ``feature`` on this CPU."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return bool(__cpu_features__.get(feature))


# Other CPU kernels, each with the feature it needs: OpenBLAS's Haswell and
# Sandybridge kernels, and numpy's AVX2 target in place of AVX-512.
OTHER_KERNELS = {
    "OpenBLAS Haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, "AVX2"),
    "OpenBLAS Sandybridge": ({"OPENBLAS_CORETYPE": "Sandybridge"}, "AVX"),
    "numpy AVX2": ({"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}, "X86_V4"),
}

# What a process on another kernel runs, given the tests directory: the
# batch independence checks of the descent and of classify_heights_batch,
# each block size at one seed, and the descent's products at one seed; then
# it prints the outcome digest, whose sweep must build a padded pool, one
# with a summand of fewer constrained forms than kmax.
ON_OTHER_KERNELS = """
import sys, warnings
sys.path.insert(0, sys.argv[1])
warnings.simplefilter("error", RuntimeWarning)
import pytest
import test_experiments as e
import test_triangulation as t
catalog = e.get_catalog()
with pytest.MonkeyPatch.context() as patch:
    e.assert_batching_keeps_outcomes(patch, 2000)
descent = e.TestDescent()
for keys in ("40 classes", "drawn keys"):
    descent.test_a_column_does_not_depend_on_its_pool(catalog, keys)
e.TestDescent.test_products_are_exact_on_the_grid.hypothesis.inner_test(descent, catalog, seed=0)
rows = t.TestBatchKernelProperties.test_row_id_does_not_depend_on_its_block.hypothesis.inner_test
for size in t.BLOCK_SIZES:
    rows(t.TestBatchKernelProperties(), catalog, size, seed=size)
padded = []
build = e.experiments._Work.__init__
def recording(work, sign):
    build(work, sign)
    padded.append(not work.sign.any(axis=-1).all())
with pytest.MonkeyPatch.context() as patch:
    patch.setattr(e.experiments._Work, "__init__", recording)
    digest = e.descent_digest()
assert any(padded), padded
print(digest)
"""


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="the other kernels are x86 ones",
)
def test_other_kernels_keep_the_outcomes():
    # The settings run at once, one BLAS thread each.  Under other BLAS
    # kernels the digest is this process's: the products are exact.  numpy's
    # float32 exp and log1p give other bits on its AVX2 target, so there only
    # the batch independence is checked.
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(tests.parent / "src"), os.environ.get("PYTHONPATH")]))
    settings = {name: env for name, (env, need) in OTHER_KERNELS.items() if cpu_has(need)}
    runs = {}
    try:
        for name, env in settings.items():
            runs[name] = subprocess.Popen(
                [sys.executable, "-c", ON_OTHER_KERNELS, str(tests)],
                env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", **env),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
        expected = descent_digest()
        for name, run in runs.items():
            out, err = run.communicate(timeout=300)
            assert run.returncode == 0, f"{name}: {err}"
            if "OPENBLAS_CORETYPE" in settings[name]:
                assert out.split()[-1] == expected, name
    finally:
        for run in runs.values():
            run.kill()
            run.communicate()


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
    keys += [ids, ids[::-1], (ids[0], ids[2]), (ids[1], ids[2]), (ids[0], ids[1], ids[2] % 74 + 1)]
    # a triple key's summands differ, or it names no class
    return [key for key in keys if len(key) == 2 or key[0] != key[1]]


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

        def broken(*integers):
            raise CatalogError("sign pattern matches 2 constraint sets")

        monkeypatch.setattr(get_catalog(), "face_ids", broken)
        with pytest.raises(CatalogError, match="matches 2 constraint sets"):
            witness.verify()
        with pytest.raises(CatalogError, match="matches 2 constraint sets"):
            search_witness((3, 28), SamplerConfig(seed=0))

    def test_two_passing_candidates_fall_back_and_raise(self, catalog, monkeypatch):
        # A table of id x, and an id y of its face code whose constraints
        # the table fails on one form only: dropping that constraint from
        # y makes the table pass both candidates.
        rng = np.random.default_rng(0)
        candidates = triangulation._face_candidates(catalog.entries)
        for row in rng.integers(1, 10**6 + 1, (1000, 8)).tolist():
            table = Table3(row)
            x = classify_exact(table, catalog).canonical_id
            pos, neg = _int_sign_bits(*row)
            face_code = pos & 0b111111  # forms a-f
            failed = {
                cid: [(i, s) for i, s in rest if not (pos if s > 0 else neg) >> i & 1]
                for cid, rest in candidates[face_code]
                if cid != x
            }
            found = [(cid, miss[0]) for cid, miss in failed.items() if len(miss) == 1]
            if found:
                y, (form, sign) = found[0]
                break
        else:
            pytest.fail("no table fails a second candidate on one form only")
        dropped = (FORM_LETTERS[form], sign)
        target = frozenset(catalog[y].encoding())
        derive = triangulation.derive_constraints

        def loosened(tetrahedra):
            out = derive(tetrahedra)
            return out - {dropped} if frozenset(tetrahedra) == target else out

        monkeypatch.setattr(triangulation, "derive_constraints", loosened)
        corrupt = Catalog([e.encoding() for e in catalog])
        assert corrupt[y].constraints == catalog[y].constraints - {dropped}
        assert corrupt.face_ids(*table.integers) == 0
        with pytest.raises(CatalogError, match="matches 2 constraint sets"):
            classify_exact(table, corrupt)
        monkeypatch.setattr(experiments, "get_catalog", lambda: corrupt)
        with pytest.raises(CatalogError, match="matches 2 constraint sets"):
            Witness((x, y), table, table, "").verify()

    @pytest.mark.parametrize(
        "key, same, message",
        [
            ((1, 3, 5, 7), False, "must have 2 or 3 components, got 4"),
            ((1,), True, "must have 2 or 3 components, got 1"),
            ((True, 3, 5), False, "triangulation id True is not an integer"),
            ((1, 1, 1), True, "triple classes require distinct summand ids"),
            ((75, 3, 5), False, "unknown triangulation id 75"),
        ],
        ids=["four-ids", "one-id", "bool-id", "equal-summands", "unknown-id"],
    )
    def test_key_is_read_by_the_search_rule(self, known_witness, key, same, message):
        # known_witness induces (1, 3, 5), and (F, F) induces (1, 1, 1): so
        # each key but the unknown id would pass if it were padded as read
        w = known_witness
        with pytest.raises(DomainError, match=message):
            Witness(key, w.f, w.f if same else w.g, "").verify()

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

    def test_arity_is_an_integer(self, tmp_path):
        with pytest.raises(DomainError, match=r"^arity 2\.0 is not an integer$"):
            WitnessArchive(tmp_path / "x.csv", 2.0)
        archive = WitnessArchive(tmp_path / "x.csv", np.int64(2))
        assert type(archive.arity) is int and archive.columns[:3] == ["classA", "classB", "F000"]

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

    def test_unknown_key_id_names_the_line(self, tmp_path, known_witness):
        path = tmp_path / "triples.csv"
        WitnessArchive(path, 3).append([known_witness])
        lines = path.read_text().splitlines()
        lines[1] = "75" + lines[1][1:]
        path.write_text("\n".join(lines) + "\n")
        message = "line 2: malformed witness row: unknown triangulation id 75"
        with pytest.raises(CatalogError, match=message):
            WitnessArchive(path, 3).load()

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
