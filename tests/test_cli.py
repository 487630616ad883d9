import csv
import hashlib
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpson3 import WitnessArchive, catalog_from_json_obj, experiments, get_catalog
from simpson3.cli import SUBCOMMANDS, build_parser, main
from simpson3.feasibility import infeasible_pair_classes
from simpson3.symmetry import OrbitClass, orbit_classes


@pytest.fixture()
def example_file(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(json.dumps({"entries": ["1/4", "1", "1", "2", "4", "1", "2", "8"]}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_json_report(self, capsys, example_file):
        code, out, _ = run(capsys, "classify", example_file)
        assert code == 0
        report = json.loads(out)
        assert report["canonicalId"] == 5
        assert report["constraints"] == {"b": 1, "d": 1, "e": -1, "t": -1}
        assert len(report["tetrahedra"]) == 6
        assert report["features"]["typeClass"] == "II"
        assert report["formSigns"]["b"] == 1
        assert "mutual" in report["correlationProfile"]

    def test_text_summary(self, capsys, example_file):
        code, out, _ = run(capsys, "classify", example_file, "--format", "text")
        assert code == 0
        assert "triangulation 5" in out

    def test_degenerate_exit_code(self, capsys, tmp_path):
        path = tmp_path / "ones.json"
        path.write_text(json.dumps({"entries": ["1"] * 8}))
        code, _, err = run(capsys, "classify", str(path))
        assert code == 2
        assert "degenerate: all forms vanish" in err

    @pytest.mark.parametrize("extra", [(), ("--format", "text")])
    def test_degenerate_2x2_exit_code(self, capsys, tmp_path, extra):
        path = tmp_path / "square.json"
        path.write_text(json.dumps({"entries": [1, 2, 2, 4]}))
        code, out, err = run(capsys, "classify", str(path), *extra)
        assert code == 2
        assert out == ""
        assert err == "degenerate: the 2x2 table's diagonal products are equal\n"

    def test_malformed_input_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "classify", str(path))
        assert code == 1
        assert "error:" in err

    def test_zero_entries_need_smoothing(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"entries": ["0", "1", "2", "3", "4", "5", "6", "7"]}))
        code, _, _ = run(capsys, "classify", str(path))
        assert code == 1
        code, out, _ = run(capsys, "classify", str(path), "--smoothing", "1/2")
        assert code == 0
        assert json.loads(out)["smoothing"] == "1/2"

    def test_2d_table_smoothing(self, capsys, tmp_path):
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({"entries": ["0", "1", "2", "3"]}))
        code, out, _ = run(capsys, "classify", str(zero), "--smoothing", "1")
        assert code == 0
        assert json.loads(out) == {
            "input": str(zero),
            "smoothing": "1",
            "kind": "2x2",
            "diagonal": "Diag01_10",
        }
        # 1*8 < 3*3, but (1 + 1/2)(8 + 1/2) > (3 + 1/2)^2
        square = tmp_path / "square.json"
        square.write_text(json.dumps({"entries": ["1", "3", "3", "8"]}))
        code, out, _ = run(capsys, "classify", str(square), "--smoothing", "1/2")
        assert code == 0
        report = json.loads(out)
        assert report["smoothing"] == "1/2"
        assert report["diagonal"] == "Diag00_11"

    @pytest.mark.parametrize("eps", ["0", "-1/2"])
    @pytest.mark.parametrize(
        "entries", [["1", "3", "3", "8"], ["1", "2", "3", "4", "5", "6", "7", "9"]]
    )
    def test_nonpositive_smoothing_exit_code(self, capsys, tmp_path, eps, entries):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"entries": entries}))
        code, out, err = run(capsys, "classify", str(path), f"--smoothing={eps}")
        assert code == 1
        assert out == ""
        assert err == "error: smoothing epsilon must be positive\n"

    def test_2d_table(self, capsys, tmp_path):
        path = tmp_path / "sq.json"
        path.write_text(json.dumps({"entries": ["2", "1", "1", "2"]}))
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        assert json.loads(out)["diagonal"] == "Diag00_11"

    def test_output_file(self, capsys, example_file, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "classify", example_file, "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["canonicalId"] == 5

    def test_unwritable_out_path_exit_code(self, capsys, example_file, tmp_path):
        target = str(tmp_path / "missing" / "report.json")
        code, out, err = run(capsys, "classify", example_file, "--out", target)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and target in err

    @pytest.mark.parametrize("tolerance", ["0", "-1", "1e-9"])
    def test_tolerance_is_not_an_option(self, capsys, example_file, tolerance):
        # exact classification has no margin, so the option was never read
        with pytest.raises(SystemExit) as info:
            main(["classify", example_file, "--tolerance", tolerance])
        assert info.value.code == 1
        assert "unrecognized arguments: --tolerance" in capsys.readouterr().err

    def test_non_utf8_input_exit_code(self, capsys, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\x7fELF\xff\xfe\x00\x01")
        code, out, err = run(capsys, "classify", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot read table")


class TestCatalogOrbits:
    def test_catalog_json(self, capsys, tmp_path):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["entries"]) == 74
        # an exported catalog loads through the one constructor
        target = tmp_path / "c.json"
        assert run(capsys, "catalog", "--out", str(target)) == (0, "", "")
        back = catalog_from_json_obj(json.loads(target.read_text()))
        assert np.array_equal(back.id_action(), get_catalog().id_action())

    def test_catalog_text(self, capsys):
        assert run(capsys, "catalog", "--format", "text") == (0, "74 triangulations\n", "")

    def test_orbits_text(self, capsys):
        code, out, _ = run(capsys, "orbits", "--arity", "2", "--format", "text")
        assert code == 0
        assert out.strip() == "167 classes"
        code, out, _ = run(capsys, "orbits", "--arity", "3", "--format", "text")
        assert code == 0
        assert out.strip() == "4655 classes"

    def test_orbits_text_builds_no_member_list(self, capsys, monkeypatch):
        def forbidden(cls):
            raise AssertionError("the text summary built a member list")

        monkeypatch.setattr(OrbitClass, "members", property(forbidden))
        assert run(capsys, "orbits", "--arity", "3", "--format", "text") == (
            0,
            "4655 classes\n",
            "",
        )

    def test_orbits_json(self, capsys):
        code, out, _ = run(capsys, "orbits", "--arity", "1")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 6
        assert sum(cls["size"] for cls in payload) == 74


class TestFeasibility:
    @pytest.mark.parametrize(
        "key, vertex",
        [
            (("--pair", "16", "1"), 7),
            # the key as given, not its representative (2, 12), at vertex 7
            (("--pair", "17", "43"), 0),
            (("--triple", "2", "3", "20"), 5),
            (("--triple", "16", "18", "56"), 2),
        ],
    )
    def test_pair_obstructed_text(self, capsys, key, vertex):
        # the first obstructing vertex, pinned in both formats
        code, out, _ = run(capsys, "feasibility", *key, "--format", "text")
        assert code == 0
        assert out == f"obstructed at vertex {vertex}\n"
        code, out, _ = run(capsys, "feasibility", *key)
        assert code == 0
        payload = json.loads(out)
        assert payload["obstructed"] is True
        assert type(payload["obstructingVertex"]) is int
        assert payload["obstructingVertex"] == vertex

    def test_pair_json(self, capsys):
        code, out, _ = run(capsys, "feasibility", "--pair", "1", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["obstructed"] is False
        assert payload["obstructingVertex"] is None
        # a triple key through the one-pass parity rule
        code, out, _ = run(capsys, "feasibility", "--triple", "3", "4", "55")
        assert code == 0
        payload = json.loads(out)
        assert payload["obstructed"] is False and payload["obstructingVertex"] is None

    def test_report_csv(self, capsys, tmp_path):
        target = tmp_path / "rep.csv"
        code, _, _ = run(capsys, "feasibility", "--arity", "2", "--out", str(target))
        assert code == 0
        with open(target, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 167
        assert sum(1 for r in rows if r["obstructed"] == "true") == 55

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_report_rejects_a_non_csv_format(self, capsys, tmp_path, fmt):
        target = tmp_path / "r.json"
        code, out, err = run(
            capsys, "feasibility", "--arity", "2", "--format", fmt, "--out", str(target)
        )
        assert code == 1
        assert out == ""
        assert err == f"error: the feasibility report is CSV; --format {fmt} does not apply\n"
        assert not target.exists()

    def test_verdict_rejects_csv(self, capsys):
        code, out, err = run(capsys, "feasibility", "--pair", "16", "1", "--format", "csv")
        assert code == 1
        assert out == ""
        assert err == "error: format 'csv' is not supported by this command\n"

    def test_report_requires_out(self, capsys):
        code, _, err = run(capsys, "feasibility", "--arity", "2")
        assert code == 1
        assert "requires --out" in err

    def test_unknown_id(self, capsys):
        code, _, err = run(capsys, "feasibility", "--pair", "99", "1")
        assert code == 1

    def test_pair_and_triple_rejected(self, capsys):
        code, out, err = run(
            capsys, "feasibility", "--pair", "16", "1", "--triple", "1", "2", "3"
        )
        assert code == 1
        assert out == ""
        assert "at most one of --pair or --triple" in err

    @pytest.mark.parametrize("triple", [("1", "1", "2"), ("5", "5", "5")])
    def test_triple_needs_distinct_summands(self, capsys, triple):
        # the same check as the search's: no class has equal summand ids
        code, out, err = run(capsys, "feasibility", "--triple", *triple)
        assert code == 1
        assert out == ""
        assert err == "error: triple classes require distinct summand ids\n"

    @pytest.mark.parametrize("key", [("--pair", "1", "2"), ("--triple", "1", "2", "3")])
    def test_arity_applies_only_to_the_report(self, capsys, key):
        code, out, err = run(capsys, "feasibility", *key, "--arity", "2")
        assert code == 1
        assert out == ""
        assert "--arity applies only to the report" in err


class TestSearch:
    def test_pair_search_and_archive(self, capsys, tmp_path):
        archive = tmp_path / "witnesses.csv"
        code, out, _ = run(
            capsys, "search", "--pair", "1", "2", "--out", str(archive)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "witness"
        assert payload["classKey"] == [1, 2]
        with open(archive, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["classA"] == "1"
        # a second search appends, and the archive loads verified
        assert run(capsys, "search", "--pair", "1", "2", "--out", str(archive))[0] == 0
        loaded = WitnessArchive(str(archive), 2).load()
        assert len(loaded) == 2
        assert all(w.verify() for w in loaded)

    def test_out_directory_checked_before_the_search(self, capsys, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr("simpson3.cli.search_witness", never)
        # a missing directory, and an archive path that is a directory
        for target in os.path.join(str(tmp_path / "missing"), "w.csv"), str(tmp_path):
            code, out, err = run(capsys, "search", "--pair", "1", "2", "--out", target)
            assert code == 1
            assert out == ""
            assert err.startswith("error:")
            assert f"cannot write witness archive {target}:" in err

    def test_archive_header_checked_before_the_search(self, capsys, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr("simpson3.cli.search_witness", never)
        target = tmp_path / "foreign.csv"
        target.write_bytes(b"a,b,c\r\n1,2,3\r\n")
        code, out, err = run(capsys, "search", "--pair", "1", "2", "--out", str(target))
        assert (code, out) == (1, "")
        assert err == f"error: unexpected archive header in {target}\n"
        assert target.read_bytes() == b"a,b,c\r\n1,2,3\r\n"

    @pytest.mark.parametrize(
        "key, line",
        [
            (("--pair", "1", "2"), "witness found for class (1, 2)\n"),
            (
                ("--triple", "3", "4", "55", "--budget", "10"),
                "budget exhausted for class (3, 4, 55) after 10 attempts\n",
            ),
            (
                ("--triple", "3", "4", "55", "--budget", "2000"),
                "budget exhausted for class (3, 4, 55) after 2000 attempts\n",
            ),
        ],
        ids=["witness", "exhausted", "exhausted-2000"],
    )
    # an overflow or invalid value in the descent's in-place step fails
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_text_summary(self, capsys, key, line):
        assert run(capsys, "search", *key, "--format", "text") == (0, line, "")

    def test_obstructed_exit_code(self, capsys):
        code, _, err = run(capsys, "search", "--pair", "16", "1")
        assert code == 1
        assert "obstructed" in err

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_exit_code(self, capsys, budget):
        code, out, err = run(capsys, "search", "--pair", "1", "2", "--budget", budget)
        assert code == 1
        assert out == ""
        assert err == f"error: budget must be at least 1, got {budget}\n"

    def test_requires_exactly_one_key(self, capsys):
        code, _, err = run(capsys, "search")
        assert code == 1
        code, _, err = run(
            capsys, "search", "--pair", "1", "2", "--triple", "1", "2", "3"
        )
        assert code == 1


class TestMonteCarlo:
    def test_reversal_text(self, capsys):
        code, out, _ = run(
            capsys,
            "reversal",
            "--samples",
            "50000",
            "--workers",
            "1",
            "--format",
            "text",
        )
        assert code == 0
        assert "reversal" in out
        assert "target 1/60" in out

    def test_montecarlo_dim2_json(self, capsys):
        code, out, _ = run(
            capsys, "montecarlo", "--dim", "2", "--samples", "40000", "--workers", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["sampleCount"] == 40000
        assert abs(payload["pointEstimates"]["reversal"] - 1 / 60) < 0.01

    def test_montecarlo_dim3_json(self, capsys):
        code, out, _ = run(
            capsys, "montecarlo", "--samples", "30000", "--workers", "1", "--seed", "4"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["conjecturedTargets"]["sameTriangulation"] == "17/900"

    def test_workers_env_is_ignored(self, capsys, monkeypatch):
        # the output depends on --seed and --samples alone, and records no worker count
        _, expected, _ = run(capsys, "reversal", "--samples", "20000")
        monkeypatch.setenv("SIMPSON3_WORKERS", "2")
        code, out, _ = run(capsys, "reversal", "--samples", "20000")
        assert (code, out) == (0, expected)
        assert "workerCount" not in json.loads(out)

    @pytest.mark.parametrize(
        "argv", [("montecarlo",), ("reversal",), ("search", "--pair", "1", "2")]
    )
    @pytest.mark.parametrize("workers", ["0", "2", "3"])
    def test_workers_accepts_only_one(self, capsys, argv, workers):
        code, out, err = _exit(capsys, main, [*argv, "--workers", workers])
        assert (code, out) == (1, "")
        assert f"argument --workers: invalid choice: {workers} (choose from 1)" in err

    def test_default_ignores_cpu_count(self, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        _, default_out, _ = run(capsys, "reversal", "--samples", "20000")
        _, one_out, _ = run(capsys, "reversal", "--samples", "20000", "--workers", "1")
        assert default_out == one_out

    # Exp(1) tables are never degenerate in practice.  Two chunks, the
    # second of 34 464 or 34 467 pairs, end in a partial chunk and a
    # partial block.  Any warning fails.
    @pytest.mark.parametrize(
        "argv",
        [
            ("montecarlo", "--dim", "3", "--samples", "100000", "--seed", "0"),
            ("reversal", "--samples", "100000", "--seed", "0"),
            ("reversal", "--samples", "100003", "--workers", "1", "--seed", "5"),
            ("montecarlo", "--dim", "3", "--samples", "100003", "--workers", "1", "--seed", "5"),
        ],
        ids=["montecarlo", "reversal", "reversal-seed-5", "montecarlo-seed-5"],
    )
    @pytest.mark.filterwarnings("error")
    def test_no_discards_on_exp1_tables(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--format", "text")
        assert code == 0
        samples = argv[argv.index("--samples") + 1]
        assert out.splitlines()[-1] == f"discarded 0 of {samples}"

    @pytest.mark.parametrize(
        "argv",
        [
            ("montecarlo", "--dim", "3"),
            ("montecarlo", "--dim", "2"),
            ("reversal",),
        ],
    )
    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_below_one_exit_code(self, capsys, argv, samples):
        code, out, err = run(capsys, *argv, "--samples", samples)
        assert code == 1
        assert out == ""
        assert "sample count must be at least 1" in err

    def test_every_sample_discarded_exit_code(self, capsys, monkeypatch):
        # Exp(1) draws are never exactly degenerate in practice, so stub
        # the classifier to discard every table, as it does degenerate ones
        monkeypatch.setattr(
            experiments,
            "classify_entries_batch",
            lambda *parts: np.zeros((parts[0].shape[2], len(parts[0])), dtype=np.int64),
        )
        code, out, err = run(capsys, "montecarlo", "--dim", "3", "--samples", "10")
        assert code == 1
        assert "NaN" not in out
        assert err.startswith("error:")
        assert "all 10 samples were discarded" in err


# sha256 of the outputs of the earlier per-arity canonicalization: orbit
# classes and obstruction reports must not change with the implementation.
GOLDEN_ORBITS = {
    "1": "d806207ac177453e7d7d24bd80686588d7a0c5de6ce02a30399250fa6207d605",
    "2": "61d9a03b9410a51598132a70a9ac3521de7502859624a0129811826f3d490aca",
    "3": "8a3fdea8371f5ae714288746e9be0a0e1fa5d1c13f5a6e06e301827ceb15c5aa",
}
# Members of all classes of each arity: 74 ids, 74^2 ordered pairs, and the
# padded triples.
ORBIT_MEMBERS = {"1": 74, "2": 5476, "3": 199874}
GOLDEN_FEASIBILITY = {
    None: "f7090da9e45719f4bc7b88642b16d2b8a16a024831a283f1f14691ab6089fa0d",
    "2": "c18e8896c718a18a62fa3ae8952ffce2395c0bb05674b9a50071fb75adc1127d",
    "3": "da236be8d306601e3f1675291816ac2a01a36f6cde68a98ad9a050c7d876eebe",
}

# sha256 of `simpson3 catalog` (JSON) from the earlier determinant-based
# enumeration: the catalog must not change with how its geometry is decided.
GOLDEN_CATALOG = "89661514c6201202cd2c8f6f9723e54b60cf7aa96eaeca4b4803764ed43bec05"

# sha256 of `simpson3 search --seed 0` (JSON, without "verifiedAt") from the
# float32 descent on the 2^-12 grid: a change of the kernel that keeps its
# float32 operations must not move any witness entry or attempt count.  The
# products are exact, so no BLAS kernel moves them; numpy's float32 exp and
# log1p give other bits on targets without AVX-512, and so other witnesses.
GOLDEN_SEARCH = {
    ("--pair", "1", "2"): "a52158ad747989b22b3fd9e4f2be4838d95b8326e82657ed3e9da91ad0dc7ae7",
    ("--triple", "1", "3", "5"): "5118bfdd7683539a3de24934aeae03c5a5c52ed41b3979d3915432a4ebc81ce7",
    ("--triple", "3", "4", "55", "--budget", "2000"): (
        "967c048e34e091b723d2cd05ec21648c88a34aef05c2f9ee650d13b9a84b07f3"
    ),
}

# sha256 over the payloads of `simpson3 search --triple` (JSON, without
# "verifiedAt") on 12 feasible triple classes spread over the class list,
# class i at seed i and budget 2e5: the single searches that a sweep's panel
# runs, pinned beyond seed 0.
GOLDEN_SEARCH_PANEL = "e1e67c4025db523529ef76ea1377c8b88568b0709c2b95a57b40dff3c61b1333"


# sha256 of `simpson3 montecarlo --dim 3` and `simpson3 reversal` (JSON) at
# --samples 200000 --seed 0, with each chunk's stream keyed by its index:
# the estimates must not move with how the classifier decides a row.
GOLDEN_MONTECARLO = {
    ("montecarlo", "--dim", "3"): (
        "b6ec01bdd754af54063e18fb8e136ab169dbe9f849d3aaabdd3b51144b81a6df"
    ),
    ("reversal",): "c33f4f516f304dcfd0ca7a544a233fcd7bb59538ef50c732e74f1402cf14a9d6",
}

# sha256 of chunk 0's raw Exp(1) draws at seed 0, (2^16, width) float64 as
# each estimator draws them (little-endian), recorded on numpy 2.4.6.  numpy may change
# Generator.standard_exponential in a release (NEP 19); this tells that
# apart from a classifier fault, which GOLDEN_MONTECARLO alone would not.
GOLDEN_DRAWS_NUMPY = "2.4.6"
GOLDEN_DRAWS = {
    (experiments._PURPOSE_MC2D, 8): (
        "cf84937b2c37f9fdf5aed5c8bd66f7e77b6dce84428f84f71d7b88f550f004dc"
    ),
    (experiments._PURPOSE_MC3D, 16): (
        "a33093d5cb269aeed0d6080c8537a5cfb7404cc5ff258eb35bdd209fc8b63b0b"
    ),
}


# sha256 of `simpson3 classify` (JSON, without "input") from the Fraction
# layer-determinant correlation profile and the Fraction 2x2 determinant:
# counts, mixed rationals, a table with vanishing mutual and marginal signs,
# and zero counts smoothed, for 2x2x2 and 2x2 tables.
GOLDEN_CLASSIFY = {
    "counts": (
        [3, 1, 4, 1, 5, 9, 2, 6],
        (),
        "d881b7ba91f07c7ab00f345520260424b906126a8c8db33a51170fefd40d7ce7",
    ),
    "mixed": (
        ["3/2", "1/3", 4, "7/5", 5, 9, "2/7", 6],
        (),
        "151aed7c19959f9f905469239b69b1e3c8548bad2d9b46fc8f180b6459e7ce46",
    ),
    "ties": (
        [3, 2, 4, 1, 2, 3, 3, 2],
        (),
        "b7bb45e169f124202e4125fb06eb672495923845e2b997305465177eb397baf0",
    ),
    "smoothing": (
        [0, 1, 2, 0, 3, 4, 0, 5],
        ("--smoothing", "1/2"),
        "659488440b578560aa101e93ff954fbef914ad1dfadecef4f5d7788e6193f854",
    ),
    "2x2 counts": (
        [5, 6, 3, 4],
        (),
        "e566228a65e520721ba8ae934a5291850afe06ca1a4a9be4808497f46655e0d2",
    ),
    "2x2 mixed": (
        ["3/2", "1/3", "7/5", "2/7"],
        (),
        "dea2b88dd5d295e87ae7a4060207a3b0f77d65d664fff40641288af798de3682",
    ),
    "2x2 smoothing": (
        [0, 3, 2, 1],
        ("--smoothing", "1/2"),
        "9c97f7e2d594f2e669d1499ac3745d038dbb0eee10db07e5d63258da20e8fd60",
    ),
}


# `simpson3 classify --format text` of the same tables.
GOLDEN_CLASSIFY_TEXT = {
    "counts": "triangulation 19 (type V, 6 tetrahedra)\n",
    "mixed": "triangulation 51 (type IV, 6 tetrahedra)\n",
    "ties": "triangulation 24 (type IV, 6 tetrahedra)\n",
    "smoothing": "triangulation 13 (type II, 6 tetrahedra)\n",
    "2x2 counts": "2x2 table: Diag00_11\n",
    "2x2 mixed": "2x2 table: Diag01_10\n",
    "2x2 smoothing": "2x2 table: Diag01_10\n",
}


class TestGoldenOutput:
    @pytest.mark.parametrize("name", list(GOLDEN_CLASSIFY))
    def test_classify(self, capsys, tmp_path, name):
        entries, extra, golden = GOLDEN_CLASSIFY[name]
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"entries": entries}))
        code, out, _ = run(capsys, "classify", str(path), *extra)
        assert code == 0
        payload = json.loads(out)
        assert payload.pop("input") == str(path)
        assert hashlib.sha256(json.dumps(payload).encode()).hexdigest() == golden
        text = run(capsys, "classify", str(path), *extra, "--format", "text")
        assert text == (0, GOLDEN_CLASSIFY_TEXT[name], "")

    def test_catalog(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_CATALOG

    @pytest.mark.parametrize("argv", list(GOLDEN_SEARCH))
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_search(self, capsys, argv):
        code, out, _ = run(capsys, "search", *argv, "--seed", "0")
        assert code == 0
        payload = json.loads(out)
        payload.pop("verifiedAt", None)
        digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
        assert digest == GOLDEN_SEARCH[argv]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_search_panel(self, capsys):
        catalog = get_catalog()
        classes = orbit_classes(3, catalog)
        blocked = set(infeasible_pair_classes(catalog, classes))
        feasible = [c.representative for c in classes if c not in blocked]
        payloads = []
        for i in range(12):
            key = map(str, feasible[i * len(feasible) // 12])
            argv = ("search", "--triple", *key, "--seed", str(i), "--budget", "200000")
            code, out, _ = run(capsys, *argv)
            assert code == 0
            payloads.append(json.loads(out))
            assert payloads[-1].pop("verifiedAt")
        digest = hashlib.sha256(json.dumps(payloads).encode()).hexdigest()
        assert digest == GOLDEN_SEARCH_PANEL

    @pytest.mark.parametrize("argv", list(GOLDEN_MONTECARLO))
    @pytest.mark.filterwarnings("error")
    def test_montecarlo(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--samples", "200000", "--seed", "0")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_MONTECARLO[argv]

    @pytest.mark.parametrize("purpose, width", list(GOLDEN_DRAWS))
    def test_montecarlo_draws(self, purpose, width):
        draws = np.empty((experiments._CHUNK, width))
        experiments.SamplerConfig(seed=0).stream(purpose, 0).standard_exponential(out=draws)
        digest = hashlib.sha256(draws.astype("<f8").tobytes()).hexdigest()
        assert digest == GOLDEN_DRAWS[purpose, width], (
            f"numpy {np.__version__} draws other Exp(1) values than numpy "
            f"{GOLDEN_DRAWS_NUMPY}, on which GOLDEN_DRAWS and GOLDEN_MONTECARLO were recorded"
        )

    @pytest.mark.parametrize("arity", sorted(GOLDEN_ORBITS))
    def test_orbits(self, capsys, arity):
        code, out, _ = run(capsys, "orbits", "--arity", arity)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_ORBITS[arity]
        # members are built on read, for every class
        classes = json.loads(out)
        assert sum(len(c["members"]) for c in classes) == ORBIT_MEMBERS[arity]
        assert all(c["size"] == len(c["members"]) for c in classes)
        assert all(c["representative"] == c["members"][0] for c in classes)

    @pytest.mark.parametrize("arity", list(GOLDEN_FEASIBILITY))
    def test_feasibility_csv(self, capsys, tmp_path, arity):
        target = tmp_path / "report.csv"
        extra = [] if arity is None else ["--arity", arity]
        code, _, _ = run(
            capsys, "feasibility", "--format", "csv", "--out", str(target), *extra
        )
        assert code == 0
        digest = hashlib.sha256(target.read_bytes()).hexdigest()
        assert digest == GOLDEN_FEASIBILITY[arity]


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["orbits", "--arity", "9"])
    assert info.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "--pair", "1", "2"),
        ("montecarlo", "--samples", "10"),
        ("reversal", "--samples", "10"),
    ],
)
def test_negative_seed_exit_code(capsys, argv):
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert code == 1
    assert out == ""
    assert err == "error: seed must be nonnegative, got -1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "--pair", "1", "2"),
        ("montecarlo", "--samples", "10"),
        ("reversal", "--samples", "10"),
    ],
)
def test_seed_of_more_than_32_bits_exit_code(capsys, argv):
    # a wider seed would draw another seed's streams
    code, out, err = run(capsys, *argv, "--seed", str(2**32))
    assert (code, out) == (1, "")
    assert err == "error: seed must be below 2**32, got 4294967296\n"


# Options that no code of their subcommand reads: argparse rejects each
# before any table is read or sampled.
REMOVED_OPTIONS = [
    (("search", "--pair", "1", "2", "--samples", "10"), "unrecognized arguments: --samples 10"),
    (("search", "--pair", "1", "2", "--tolerance", "1"), "unrecognized arguments: --tolerance"),
    (("montecarlo", "--budget", "10"), "unrecognized arguments: --budget"),
    (("montecarlo", "--tolerance", "100"), "unrecognized arguments: --tolerance"),
    (("reversal", "--budget", "10"), "unrecognized arguments: --budget"),
    (("reversal", "--tolerance", "100"), "unrecognized arguments: --tolerance"),
    (("classify", "table.json", "--format", "csv"), "invalid choice: 'csv'"),
    (("catalog", "--format", "csv"), "invalid choice: 'csv'"),
    (("orbits", "--arity", "1", "--format", "csv"), "invalid choice: 'csv'"),
    (("montecarlo", "--format", "csv"), "invalid choice: 'csv'"),
    (("reversal", "--format", "csv"), "invalid choice: 'csv'"),
]


@pytest.mark.parametrize(
    "argv, message", REMOVED_OPTIONS, ids=[argv[0] + argv[-2] for argv, _ in REMOVED_OPTIONS]
)
def test_removed_option_is_rejected(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("catalog",),
        ("orbits", "--arity", "1"),
        ("feasibility", "--arity", "2"),
        ("montecarlo", "--samples", "100"),
        ("reversal", "--samples", "100"),
        ("search", "--pair", "1", "2"),
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_path_exit_code(capsys, tmp_path, argv):
    missing = str(tmp_path / "missing")
    code, out, err = run(capsys, *argv, "--out", os.path.join(missing, "out.txt"))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert missing in err


# One command per writer: cli.main's --out, the feasibility report and the
# witness archive.
WRITERS = [("catalog",), ("feasibility", "--arity", "2"), ("search", "--pair", "1", "2")]


@pytest.mark.parametrize("argv", WRITERS, ids=lambda argv: argv[0])
def test_outputs_get_the_mode_open_gives(capsys, tmp_path, argv):
    # a new file gets 0o666 less the umask, and a rewrite keeps the old mode
    path = tmp_path / "out"
    umask = os.umask(0o027)
    try:
        assert run(capsys, *argv, "--out", str(path))[0] == 0
    finally:
        os.umask(umask)
    assert path.stat().st_mode & 0o777 == 0o640
    path.chmod(0o604)
    assert run(capsys, *argv, "--out", str(path))[0] == 0
    assert path.stat().st_mode & 0o777 == 0o604


@pytest.mark.parametrize("argv", WRITERS, ids=lambda argv: argv[0])
def test_failed_replace_keeps_the_old_file(capsys, tmp_path, monkeypatch, argv):
    path = tmp_path / "out"
    assert run(capsys, *argv, "--out", str(path))[0] == 0
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    assert run(capsys, *argv, "--out", str(path)) == (1, "", "error: replace refused\n")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_out_directory_checked_before_the_command(capsys, tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the estimate ran")

    monkeypatch.setattr("simpson3.cli.estimate_3d_conversion", never)
    target = os.path.join(str(tmp_path / "missing"), "x.json")
    code, out, err = run(capsys, "montecarlo", "--samples", "100000000", "--out", target)
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 2] cannot write {target}: its directory does not exist\n"
    # an --out that is a directory
    code, out, err = run(capsys, "montecarlo", "--samples", "100000000", "--out", str(tmp_path))
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 21] cannot write {tmp_path}: it is a directory\n"


def _exit(capsys, parse, argv):
    try:
        code = parse(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# main's help, usage errors and leftovers must read exactly as from the full
# parser.
@pytest.mark.parametrize(
    "extra", [("--help",), ("--no-such-option",), ("--format", "yaml")], ids=lambda e: e[0]
)
@pytest.mark.parametrize("name", list(SUBCOMMANDS))
def test_subcommand_parser_exits_as_the_full_parser(capsys, name, extra):
    argv = (name, *extra)
    expected = _exit(capsys, build_parser().parse_args, argv)
    assert expected[0] in (0, 1)
    assert _exit(capsys, main, argv) == expected


@pytest.mark.parametrize("argv", [(), ("-h",), ("no-such-command",), ("-h", "catalog")])
def test_top_level_exits_as_the_full_parser(capsys, argv):
    assert _exit(capsys, main, argv) == _exit(capsys, build_parser().parse_args, argv)


def test_help_lists_every_subcommand(capsys):
    code, out, _ = _exit(capsys, main, ["--help"])
    assert code == 0
    names = ["classify", "catalog", "orbits", "feasibility", "search", "montecarlo", "reversal"]
    for name in names:
        assert re.search(rf"^    {name} ", out, re.M), name


PARSE_CASES = [
    ("classify", "table.json", "--smoothing", "1/2"),
    ("catalog", "--format", "text"),
    ("orbits", "--arity", "2"),
    ("feasibility", "--pair", "1", "2"),
    ("search", "--triple", "3", "4", "55", "--budget", "10"),
    ("montecarlo", "--dim", "2", "--samples", "5"),
    ("reversal", "--seed", "3"),
]


@settings(max_examples=40, deadline=None)
@given(first=st.sampled_from(PARSE_CASES), second=st.sampled_from(PARSE_CASES))
def test_reused_parser_is_stateless(first, second):
    parser = build_parser()
    assert build_parser() is parser
    namespace = parser.parse_args(list(first))
    assert namespace == build_parser.__wrapped__().parse_args(list(first))
    parser.parse_args(list(second))
    assert parser.parse_args(list(first)) == namespace


def test_repeated_commands_read_no_earlier_state(capsys, tmp_path):
    # a verdict, json by default, leaves no format behind for the report
    # after it
    verdict = run(capsys, "feasibility", "--pair", "16", "1")
    assert verdict[0] == 0 and json.loads(verdict[1])["obstructed"]
    assert run(capsys, "feasibility", "--pair", "16", "1") == verdict
    target = tmp_path / "pairs.csv"
    assert run(capsys, "feasibility", "--arity", "2", "--out", str(target)) == (0, "", "")
