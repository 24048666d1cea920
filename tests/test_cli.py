"""CLI surface: exit codes, written artifacts, and byte-level determinism."""

import contextlib
import csv
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import TRADEOFF_SCHEMA, build_tradeoff_dataset, export_csv, write_synthetic_csv

from fairalloc import _io, cli
from fairalloc._io import load_json
from fairalloc.audit import AuditSchema
from fairalloc.cli import main


def run_cli(*argv) -> int:
    return main(list(argv))


@pytest.fixture
def population_csv(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text(
        "id,u_1,u_2,g\n"
        "a,1.0,0.0,0\n"
        "b,0.0,1.0,1\n"
    )
    return str(path)


@pytest.fixture
def solve_fixture_csv(tmp_path):
    path = tmp_path / "pop2.csv"
    path.write_text(
        "id,u_1,u_2,g\n"
        "a,0.9,0.8,0\n"
        "b,0.5,0.1,1\n"
    )
    return str(path)


class TestSolve:
    def test_unique_optimum(self, population_csv, tmp_path):
        out = tmp_path / "out"
        assert run_cli(
            "solve", "--population", population_csv, "--capacities", "1,1",
            "--output-dir", str(out),
        ) == 0
        alloc_lines = (out / "allocation.csv").read_text().splitlines()
        assert alloc_lines == ["id,service", "a,1", "b,2"]
        payload = json.loads((out / "fairness_report.json").read_text())
        assert payload["total_utility"] == 2.0
        assert "g" in payload["fairness"]

    def test_awkward_ids_read_back(self, tmp_path):
        ids = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "plain"]
        path = tmp_path / "pop.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([["id", "u_1", "u_2"], *([i, "1.0", "0.0"] for i in ids)])
        out = tmp_path / "out"
        assert run_cli(
            "solve", "--population", str(path), "--capacities", "5,5",
            "--output-dir", str(out),
        ) == 0
        with open(out / "allocation.csv", newline="") as fh:
            assert list(csv.reader(fh)) == [["id", "service"], *([i, "1"] for i in ids)]

    def test_brute_force_example(self, solve_fixture_csv, tmp_path):
        out = tmp_path / "out"
        assert run_cli(
            "solve", "--population", solve_fixture_csv, "--capacities", "1,1",
            "--output-dir", str(out),
        ) == 0
        alloc_lines = (out / "allocation.csv").read_text().splitlines()
        assert alloc_lines == ["id,service", "a,2", "b,1"]

    def test_infeasible_exit_code(self, population_csv, tmp_path):
        code = run_cli(
            "solve", "--population", population_csv, "--capacities", "1,0",
            "--output-dir", str(tmp_path / "out"),
        )
        assert code == 3

    def test_random_policy_repeatable(self, population_csv, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run_cli(
                "solve", "--population", population_csv, "--capacities", "2,2",
                "--policy", "random", "--seed", "5", "--output-dir", str(out),
            ) == 0
        assert (out_a / "allocation.csv").read_bytes() == (out_b / "allocation.csv").read_bytes()

    @pytest.mark.parametrize("rows, capacities", [
        # both gains overflow; the first individual is named
        ("a,1e-310,1.0,0\nb,1.0,1e-310,1\n", "1,1"),
        # only a's gain, its realized 1.0 over its 1e-310, overflows
        ("a,1e-310,1.0,0\nb,0.5,0.7,1\nc,0.4,0.2,0\nd,0.3,0.9,1\n", "2,2"),
    ], ids=["two", "one"])
    def test_float_overflow_exits_2(self, tmp_path, capsys, rows, capacities):
        path = tmp_path / "pop.csv"
        path.write_text("id,u_1,u_2,g\n" + rows)
        assert run_cli(
            "solve", "--population", str(path), "--capacities", capacities,
            "--output-dir", str(tmp_path / "out"),
        ) == 2
        assert capsys.readouterr().err == (
            "error: individual 'a': its gain, realized utility 1.0 over lowest utility "
            "1e-310, overflows\n"
        )
        assert not (tmp_path / "out").exists()

    def test_capacities_beyond_int64_sum(self, tmp_path):
        # 3 * 2**62 wraps an int64 sum to a negative total
        path = tmp_path / "pop3.csv"
        path.write_text("id,u_1,u_2,u_3\na,1.0,0.0,0.5\nb,0.0,1.0,0.5\n")
        out = tmp_path / "out"
        assert run_cli(
            "solve", "--population", str(path),
            "--capacities", ",".join([str(2**62)] * 3), "--output-dir", str(out),
        ) == 0
        assert (out / "allocation.csv").read_text().splitlines() == ["id,service", "a,1", "b,2"]

    def test_ties_beyond_64_services(self, tmp_path):
        # both individuals tie between services 65 and 66 only
        k = 66
        header = "id," + ",".join(f"u_{j + 1}" for j in range(k))
        row = ",".join("1" if j >= 64 else "0" for j in range(k))
        path = tmp_path / "wide.csv"
        path.write_text(f"{header}\na,{row}\nb,{row}\n")
        out = tmp_path / "out"
        assert run_cli(
            "solve", "--population", str(path), "--capacities", ",".join(["1"] * k),
            "--output-dir", str(out),
        ) == 0
        assert (out / "allocation.csv").read_text().splitlines() == ["id,service", "a,65", "b,66"]

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_output_mode_follows_umask(self, population_csv, tmp_path, umask):
        out = tmp_path / "out"
        old = os.umask(umask)
        try:
            assert run_cli(
                "solve", "--population", population_csv, "--capacities", "1,1",
                "--output-dir", str(out),
            ) == 0
        finally:
            os.umask(old)
        for name in ("allocation.csv", "fairness_report.json"):
            assert (out / name).stat().st_mode & 0o777 == 0o666 & ~umask

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_output_mode_without_reading_umask(self, population_csv, tmp_path, monkeypatch,
                                               umask):
        # setting the umask to read it would change it for every thread meanwhile
        def forbidden(mask):
            raise AssertionError("os.umask called")

        out = tmp_path / "out"
        old = os.umask(umask)
        try:
            monkeypatch.setattr(os, "umask", forbidden)
            assert run_cli(
                "solve", "--population", population_csv, "--capacities", "1,1",
                "--output-dir", str(out),
            ) == 0
        finally:
            monkeypatch.undo()
            os.umask(old)
        for name in ("allocation.csv", "fairness_report.json"):
            assert (out / name).stat().st_mode & 0o777 == 0o666 & ~umask

    @pytest.mark.parametrize("capacities, message", [
        ("1,x", "--capacities: field 2 is 'x', not an integer"),
        ("", "--capacities: field 1 is '', not an integer"),
        ("1,,1", "--capacities: field 2 is '', not an integer"),
        ("1.5,1", "--capacities: field 1 is '1.5', not an integer"),
    ])
    def test_bad_capacities_exit_2(self, population_csv, tmp_path, capsys, capacities, message):
        assert run_cli(
            "solve", "--population", population_csv, f"--capacities={capacities}",
            "--output-dir", str(tmp_path / "out"),
        ) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "invalid literal" not in err

    @pytest.mark.parametrize("capacities, field", [
        ("99999999999999999999,1", "field 1 is '99999999999999999999'"),
        ("1,9223372036854775808", "field 2 is '9223372036854775808'"),
        ("1,-9223372036854775809", "field 2 is '-9223372036854775809'"),
    ])
    def test_capacities_beyond_int64_exit_2(self, population_csv, tmp_path, capsys, capacities,
                                            field):
        assert run_cli(
            "solve", "--population", population_csv, f"--capacities={capacities}",
            "--output-dir", str(tmp_path / "out"),
        ) == 2
        err = capsys.readouterr().err
        assert f"--capacities: {field}, outside the int64 range" in err
        assert "convert to C long" not in err

    @pytest.mark.parametrize("capacities", [
        "9223372036854775807,9223372036854775807",  # the int64 total wraps
        "1152921504606846976,1",  # 2**60 + 1 slots: past the largest int64 array
    ], ids=["wraps", "too-many-slots"])
    def test_random_total_beyond_array_size_exits_2(self, population_csv, tmp_path, capsys,
                                                    capacities):
        total = sum(int(c) for c in capacities.split(","))
        assert run_cli(
            "solve", "--population", population_csv, "--capacities", capacities,
            "--policy", "random", "--output-dir", str(tmp_path / "out"),
        ) == 2
        err = capsys.readouterr().err
        assert err == f"error: total capacity {total} is too large for the random policy\n"
        assert not (tmp_path / "out").exists()

    def test_out_of_memory_exits_2(self, population_csv, tmp_path, monkeypatch, capsys):
        # allocate_random shuffles all c_k slots, so a huge capacity runs out
        # of memory; raised here rather than allocated, which could get the
        # test process killed where memory is overcommitted
        import fairalloc.cli as cli

        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli, "apply_policy", out_of_memory)
        assert run_cli(
            "solve", "--population", population_csv, "--capacities", "1000000000000,1",
            "--policy", "random", "--output-dir", str(tmp_path / "out"),
        ) == 2
        err = capsys.readouterr().err
        assert err == "error: Unable to allocate 7.28 TiB for an array\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scale", ["-1", "0", "nan", "inf"])
    def test_bad_tie_break_scale_exits_2(self, population_csv, tmp_path, capsys, scale):
        assert run_cli(
            "solve", "--population", population_csv, "--capacities", "1,1",
            f"--tie-break-scale={scale}", "--output-dir", str(tmp_path / "out"),
        ) == 2
        assert "tie_break_scale must be finite and > 0" in capsys.readouterr().err


    def test_overflowing_tie_break_scale_names_it(self, tmp_path, capsys):
        # 3 * 1e308 overflows: refused by name, not as numpy's overflow
        path = tmp_path / "pop.csv"
        path.write_text("id,u_1,u_2\na,3,1\nb,1,2\n")
        assert run_cli(
            "solve", "--population", str(path), "--capacities", "1,1",
            "--tie-break-scale", "1e308", "--output-dir", str(tmp_path / "out"),
        ) == 2
        assert capsys.readouterr().err == "error: tie_break_scale too large for these utilities\n"
        assert not (tmp_path / "out").exists()


class TestWriteTextAtomic:
    def test_taken_temp_name_is_drawn_again(self, tmp_path, monkeypatch):
        target = tmp_path / "out.txt"
        taken = tmp_path / f".out.txt.{'00' * 6}.tmp"
        taken.write_text("someone else's")
        # the first name drawn is taken; the second is free
        draws = iter([b"\0" * 6, b"\1" * 6])
        monkeypatch.setattr(os, "urandom", lambda n: next(draws))
        _io.write_text_atomic(target, "new\n")
        assert next(draws, None) is None
        assert target.read_text() == "new\n"
        assert taken.read_text() == "someone else's"
        assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name, "out.txt"]

    def test_failed_rename_removes_the_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.txt"
        target.write_text("old\n")

        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="replace failed"):
            _io.write_text_atomic(target, "new\n")
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestPopulationCsvValidation:
    @pytest.mark.parametrize("rows, message", [
        ("b,0.5,1\n", "schema-mismatch(line 3): expected 4 fields"),
        ("b,high,1.0,1\n", "range-violation(line 3): u_1='high' is not finite"),
        ("b,0.0,1.0,2\n", "range-violation(line 3): g='2' must be 0 or 1"),
        ("a,0.0,1.0,1\n", "duplicate-id(line 3): 'a' already on line 2"),
    ], ids=["field-count", "non-numeric", "non-binary-group", "duplicate-id"])
    def test_bad_row_exits_2_with_line_number(self, tmp_path, capsys, rows, message):
        path = tmp_path / "pop.csv"
        path.write_text("id,u_1,u_2,g\na,1.0,0.0,0\n" + rows)
        assert run_cli(
            "solve", "--population", str(path), "--capacities", "2,2",
            "--output-dir", str(tmp_path / "out"),
        ) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_header_only_reports_no_data_rows(self, tmp_path, capsys):
        path = tmp_path / "pop.csv"
        path.write_text("id,u_1,u_2,g\n\n")
        assert run_cli(
            "solve", "--population", str(path), "--capacities", "2,2",
            "--output-dir", str(tmp_path / "out"),
        ) == 2
        assert "schema-mismatch(line 2): no data rows" in capsys.readouterr().err

    @pytest.mark.parametrize("text, line", [
        ("id,u_1,u_2,g\na,1.0,0.0,0\nb,\"" + "0123456789\n" * 20_000 + "\",1.0,1\n", 3),
        ("id,u_1,\"" + "u\n" * 70_000 + "\",g\na,1.0,0.0,0\n", 1),
    ], ids=["record", "header"])
    def test_oversized_field_names_its_starting_line(self, tmp_path, capsys, text, line):
        # the csv module detects the oversized field many lines further on
        path = tmp_path / "pop.csv"
        path.write_text(text)
        assert run_cli(
            "solve", "--population", str(path), "--capacities", "2,2",
            "--output-dir", str(tmp_path / "out"),
        ) == 2
        assert (f"schema-mismatch(line {line}): field larger than field limit"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("header, found", [
        ("id,u_1,u_3,g", "u_1, u_3"),
        ("id,u_01,u_1,g", "u_01, u_1"),
        ("id,u_0,u_1,g", "u_0, u_1"),
        ("id,u_2,u_3,g", "u_2, u_3"),
    ], ids=["gap", "leading-zero", "u_0", "no-u_1"])
    def test_utility_columns_must_number_1_to_k(self, tmp_path, capsys, header, found):
        # the columns would otherwise be renumbered by position: u_3 read as service 2
        path = tmp_path / "pop.csv"
        path.write_text(f"{header}\na,1.0,0.0,0\nb,0.0,1.0,1\n")
        out = tmp_path / "out"
        assert run_cli(
            "solve", "--population", str(path), "--capacities", "2,2", "--output-dir", str(out),
        ) == 2
        err = capsys.readouterr().err
        assert f"schema-mismatch: utility columns must be u_1..u_K, found {found}" in err
        assert not out.exists()

    def test_utility_columns_in_any_order(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("id,u_2,g,u_1\na,0.0,0,1.0\nb,1.0,1,0.0\n")
        out = tmp_path / "out"
        assert run_cli(
            "solve", "--population", str(path), "--capacities", "1,1", "--output-dir", str(out),
        ) == 0
        assert (out / "allocation.csv").read_text().splitlines() == ["id,service", "a,1", "b,2"]

    @pytest.mark.parametrize("rows", ["a,1,0\nb,0,1\n", "a,1,0.5\nb,0,1\n"],
                             ids=["0-1-values", "other-values"])
    def test_padded_utility_header_exits_2(self, tmp_path, capsys, rows):
        # "u_2 " is a utility name with stray whitespace, not a 0/1 group column
        path = tmp_path / "pop.csv"
        path.write_text("id,u_1,u_2 \n" + rows)
        out = tmp_path / "out"
        assert run_cli(
            "solve", "--population", str(path), "--capacities", "2", "--output-dir", str(out),
        ) == 2
        err = capsys.readouterr().err
        assert "schema-mismatch: utility column 'u_2 ' has surrounding whitespace" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_repeated_header_column_exits_2(self, tmp_path, capsys):
        path = tmp_path / "pop.csv"
        path.write_text("id,u_1,u_1,group\na,1.0,0.0,0\nb,0.0,1.0,1\n")
        assert run_cli(
            "solve", "--population", str(path), "--capacities", "2,2",
            "--output-dir", str(tmp_path / "out"),
        ) == 2
        err = capsys.readouterr().err
        assert "schema-mismatch: header repeats columns ['u_1']" in err
        assert "Traceback" not in err


GAUSSIAN_PARAMS = {
    "kind": "gaussian",
    "means": [[0.2, 0.3, 0.4], [0.4, 0.5, 0.63]],
    "variances": [[1e-4, 4e-4, 9e-4], [1e-4, 4e-4, 9e-4]],
    "group_sizes": [20, 20],
    "capacities": [20, 20, 20],
    "replications": 3,
}
SF1_PARAMS = {
    "kind": "sf1", "r_high": 0.9, "r_low": 0.3, "pi0": 0.6, "pi1": 0.4,
    "group_sizes": [10, 10], "capacities": [20, 20, 20], "replications": 3,
}


@pytest.mark.parametrize("command, config, field", [
    ("simulate", [1], "experiment config"),
    ("simulate", dict(GAUSSIAN_PARAMS, policy="random"), "policy"),
    ("simulate", dict(GAUSSIAN_PARAMS, policy={"kind": "mixture", "lambda": 0.5,
                                               "children": "ab"}), "policy children"),
    ("audit", [1, 2], "audit config"),
    ("audit", dict(TRADEOFF_SCHEMA, services=[1]), "services[0]"),
    ("audit", dict(TRADEOFF_SCHEMA, pairs={}), "pairs"),
    ("audit", dict(TRADEOFF_SCHEMA, groups=["children"]), "groups"),
    ("simulate", dict(GAUSSIAN_PARAMS, group_sizes=5), "group_sizes"),
    ("simulate", dict(GAUSSIAN_PARAMS, policy={
        "kind": "mixture", "lambda": "0.5",
        "children": [{"kind": "random"}, {"kind": "utilitarian"}],
    }), "policy lambda"),
    ("simulate", dict(GAUSSIAN_PARAMS, policy={"kind": "random", "seed": "x"}), "policy seed"),
    ("simulate", dict(GAUSSIAN_PARAMS, policy={"kind": "utilitarian", "tie_break_scale": "x"}),
     "policy tie_break_scale"),
    ("audit", dict(TRADEOFF_SCHEMA, pairs=[{"name": "children", "group1": 5,
                                            "group0": "~children"}]), "pairs[0].group1"),
    ("simulate", dict(GAUSSIAN_PARAMS, replications="x"), "replications"),
    ("simulate", dict(GAUSSIAN_PARAMS, replications=2.7), "replications"),
    ("simulate", dict(GAUSSIAN_PARAMS, base_seed="a"), "base_seed"),
    ("simulate", dict(GAUSSIAN_PARAMS, group_sizes=["a", "b"]), "group_sizes[0]"),
    ("simulate", dict(GAUSSIAN_PARAMS, group_sizes=[True, True]), "group_sizes[0]"),
    ("simulate", dict(GAUSSIAN_PARAMS, policy={"kind": "random", "seed": True}), "policy seed"),
    ("simulate", dict(GAUSSIAN_PARAMS, policy={
        "kind": "mixture", "lambda": True,
        "children": [{"kind": "random"}, {"kind": "utilitarian"}],
    }), "policy lambda"),
    ("simulate", dict(SF1_PARAMS, r_high="a"), "r_high"),
    ("simulate", dict(SF1_PARAMS, k="3"), "k"),
    ("simulate", dict(SF1_PARAMS, k=3.5), "k"),
    ("simulate", dict(SF1_PARAMS, u_max_range=5), "u_max_range"),
    ("simulate", dict(SF1_PARAMS, u_max_range=[1]), "u_max_range"),
    ("simulate", dict(SF1_PARAMS, pi0=True), "pi0"),
    ("simulate", dict(GAUSSIAN_PARAMS, capacities=[1000.7, 1000, 1000]), "capacities[0]"),
    ("simulate", dict(GAUSSIAN_PARAMS, attribute=5), "attribute"),
    ("simulate", dict(GAUSSIAN_PARAMS, kind=5), "kind"),
    ("simulate", dict(GAUSSIAN_PARAMS, means=[[0.2, 0.3, 0.4], "ab"]), "means[1]"),
    ("simulate", dict(GAUSSIAN_PARAMS, policy={"kind": 5}), "policy kind"),
    ("simulate", dict(GAUSSIAN_PARAMS, policy={"kind": "utilitarian", "tie_break_scale": None}),
     "policy tie_break_scale"),
    ("audit", dict(TRADEOFF_SCHEMA, pairs=[dict(TRADEOFF_SCHEMA["pairs"][0], name=5)]),
     "pairs[0].name"),
    ("audit", dict(TRADEOFF_SCHEMA, services=[{"name": 5, "column": "p_TH"}]),
     "services[0].name"),
    ("audit", dict(TRADEOFF_SCHEMA, observed=["observed"]), "observed"),
    ("audit", dict(TRADEOFF_SCHEMA, groups={"children": 1}), "groups.children"),
], ids=["sim-list", "policy-string", "policy-children", "audit-list", "service-int",
        "pairs-object", "groups-list", "group-sizes-int", "lambda-string", "seed-string",
        "tie-break-scale-string", "pair-expr-int", "replications-string",
        "replications-float", "base-seed-string", "group-size-string",
        "group-size-bool", "seed-bool", "lambda-bool", "sf1-r-high-string", "sf1-k-string",
        "sf1-k-float", "sf1-range-int", "sf1-range-short", "sf1-pi0-bool",
        "capacity-float", "attribute-int", "kind-int", "means-row-string", "policy-kind-int",
        "tie-break-scale-null", "pair-name-int", "service-name-int", "observed-list", "group-column-int"])
def test_wrong_shaped_config_exits_2(tmp_path, capsys, command, config, field):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    data = tmp_path / "data.csv"
    export_csv(build_tradeoff_dataset(), str(data), AuditSchema.from_dict(TRADEOFF_SCHEMA))
    option = {"simulate": ["--params"], "audit": ["--data", str(data), "--config"]}[command]
    assert run_cli(command, *option, str(path), "--output-dir", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert f"schema-mismatch: {field} must be a JSON" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, config, message", [
    ("simulate", {k: v for k, v in GAUSSIAN_PARAMS.items() if k != "capacities"},
     "params missing field 'capacities'"),
    ("simulate", {k: v for k, v in SF1_PARAMS.items() if k != "r_high"},
     "params missing field 'r_high'"),
    ("simulate", dict(GAUSSIAN_PARAMS, policy={}), "policy missing field 'kind'"),
    ("simulate", dict(GAUSSIAN_PARAMS, policy={
        "kind": "mixture", "lambda": 0.5, "children": [{"kind": "random"}, {"seed": 1}],
    }), "policy missing field 'kind'"),
    ("audit", {k: v for k, v in TRADEOFF_SCHEMA.items() if k != "services"},
     "audit config missing field 'services'"),
    ("audit", {k: v for k, v in TRADEOFF_SCHEMA.items() if k != "observed"},
     "audit config missing field 'observed'"),
    ("audit", dict(TRADEOFF_SCHEMA, services=[{"name": "TH"}, *TRADEOFF_SCHEMA["services"][1:]]),
     "services[0] missing field 'column'"),
    ("audit", dict(TRADEOFF_SCHEMA, pairs=[{"name": "children", "group1": "children"}]),
     "pairs[0] missing field 'group0'"),
], ids=["capacities", "sf1-r-high", "policy-kind", "child-kind", "services", "observed",
        "service-column", "pair-group0"])
def test_missing_field_exits_2(tmp_path, capsys, command, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    data = tmp_path / "data.csv"
    export_csv(build_tradeoff_dataset(), str(data), AuditSchema.from_dict(TRADEOFF_SCHEMA))
    option = {"simulate": ["--params"], "audit": ["--data", str(data), "--config"]}[command]
    assert run_cli(command, *option, str(path), "--output-dir", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"error: schema-mismatch: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "audit"])
@pytest.mark.parametrize("content, message", [
    (b'{"kind": "gaussian" "means": []}', "Expecting ',' delimiter: line 1 column 21 (char 20)"),
    (b'\xff{"kind": "gaussian"}',
     "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
], ids=["malformed", "not-utf8"])
def test_unreadable_json_exits_2(tmp_path, capsys, command, content, message):
    # the decoder's own message, as one error line
    path = tmp_path / "config.json"
    path.write_bytes(content)
    data = tmp_path / "data.csv"
    data.write_text("id\n")
    option = {"simulate": ["--params"], "audit": ["--data", str(data), "--config"]}[command]
    assert run_cli(command, *option, str(path), "--output-dir", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--params", "experiment1", "--reps", "2"],
    ["check"],
    ["solve", "--population", "{population}", "--capacities", "1,1", "--policy", "random"],
    ["solve", "--population", "{population}", "--capacities", "1,1"],
], ids=["simulate", "check", "solve-random", "solve-utilitarian"])
def test_negative_seed_flag_exits_2(population_csv, tmp_path, capsys, argv):
    # numpy's own error names no flag, and a utilitarian solve never seeds
    # numpy, so it would write the seed into fairness_report.json
    out = tmp_path / "out"
    argv = [a.format(population=population_csv) for a in argv] + ["--seed", "-1"]
    if argv[0] != "check":
        argv += ["--output-dir", str(out)]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not out.exists()


class TestInternalError:
    def test_broken_invariant_exits_4(self, tmp_path, monkeypatch, capsys):
        from fairalloc import core

        true_group_means = core._group_means

        def flipped(rows, members):
            means = true_group_means(rows, members)
            # swapped group means negate the regret delta
            means[1] = means[1][..., ::-1].copy()
            return means

        # the group means of every metric path, the replication blocks' included
        monkeypatch.setattr(core, "_group_means", flipped)
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps({
            "kind": "gaussian",
            "means": [[0.2, 0.3, 0.4], [0.4, 0.5, 0.63]],
            "variances": [[1e-4, 4e-4, 9e-4], [1e-4, 4e-4, 9e-4]],
            "group_sizes": [20, 20],
            "capacities": [20, 20, 20],
            "policy": {"kind": "random"},
            "replications": 3,
            "base_seed": 0,
        }))
        assert run_cli("simulate", "--params", str(params_path),
                       "--output-dir", str(tmp_path / "out")) == 4
        err = capsys.readouterr().err
        assert err.startswith("internal error: additive-identity violation")
        assert not (tmp_path / "out" / "result.json").exists()

    # ValueError, KeyError and OverflowError are bugs too: only the package's
    # own errors are input errors
    @pytest.mark.parametrize("error", [IndexError, TypeError, AssertionError, ZeroDivisionError,
                                       ValueError, KeyError, OverflowError])
    @pytest.mark.parametrize("target", ["metric_rows", "solve_transport", "kde"])
    def test_unexpected_exception_exits_4(self, population_csv, tmp_path, monkeypatch, capsys,
                                          target, error):
        from fairalloc import audit, core, policies

        def broken(*args, **kwargs):
            raise error("injected")

        out = str(tmp_path / "out")
        solve = ["solve", "--population", population_csv, "--capacities", "1,1", "--output-dir", out]
        if target == "kde":
            data = tmp_path / "data.csv"
            write_synthetic_csv(data, n=200, seed=4)
            # audit imports kde_curves by name: patch the name it calls
            monkeypatch.setattr(audit, "kde_curves", broken)
            argv = ["audit", "--data", str(data), "--config", "homeless", "--output-dir", out]
        elif target == "solve_transport":
            monkeypatch.setattr(policies, "_solve_transport", broken)
            argv = solve + ["--policy", "utilitarian"]
        else:
            # the row formulas behind metric_rows and every group mean
            monkeypatch.setattr(core, "_metric_block", broken)
            argv = solve
        assert run_cli(*argv) == 4
        # str() of a KeyError quotes its message
        assert capsys.readouterr().err == f"internal error: {error.__name__}: {error('injected')}\n"

    def test_every_input_error_is_a_value_error(self):
        from fairalloc import errors

        classes = [c for c in vars(errors).values()
                   if isinstance(c, type) and issubclass(c, errors.FairallocError)]
        assert len(classes) == 9
        for cls in classes:
            is_input = cls not in (errors.FairallocError, errors.InfeasibleError)
            assert issubclass(cls, errors.InputError) is is_input, cls
            assert issubclass(cls, ValueError) is is_input, cls


class TestSimulate:
    def test_params_file_and_determinism(self, tmp_path):
        params = {
            "kind": "gaussian",
            "means": [[0.2, 0.3, 0.4], [0.4, 0.5, 0.63]],
            "variances": [[1e-4, 4e-4, 9e-4], [1e-4, 4e-4, 9e-4]],
            "group_sizes": [60, 60],
            "capacities": [40, 40, 40],
            "policy": {"kind": "random"},
            "replications": 5,
            "base_seed": 7,
        }
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps(params))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run_cli(
                "simulate", "--params", str(params_path), "--reps", "6",
                "--seed", "7", "--output-dir", str(out),
            ) == 0
        for name in ("result.json", "metrics.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        payload = json.loads((out_a / "result.json").read_text())
        assert payload["replications"] == 6
        assert set(payload["metrics"]) == {
            "delta_improvement", "delta_regret", "delta_gain", "delta_shortfall"
        }
        for metric in payload["metrics"].values():
            assert metric is None or "ci95_half_width" in metric

    def test_single_replication_rejected(self, tmp_path):
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps({
            "kind": "gaussian",
            "means": [[0.5]], "variances": [[1e-4]],
        }))
        # malformed params (one group row) also exits 2
        assert run_cli("simulate", "--params", str(params_path), "--reps", "1",
                       "--output-dir", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("changes, message", [
        ({"means": [[1e308, 0.3, 0.4], [0.4, 0.5, 0.63]], "policy": {"kind": "random"}},
         "overflow encountered"),
        ({"kind": "sf1", "r_high": 0.9, "r_low": 5e-324, "pi0": 0.6, "pi1": 0.4},
         "overflow encountered"),
        ({"capacities": [10**30, 20, 20]},
         "error: schema-mismatch: capacities[0] is outside the int64 range"),
        ({"capacities": [9223372036854775808, 80, 80]},
         "error: schema-mismatch: capacities[0] is outside the int64 range"),
        ({"group_sizes": [50, 18446744073709551616]},
         "error: schema-mismatch: group_sizes[1] is outside the int64 range"),
        ({"base_seed": -3}, "error: base_seed must be >= 0, got -3"),
        ({"policy": {"kind": "random", "seed": -5}}, "error: policy seed must be >= 0, got -5"),
        ({"means": [[0.2, 0.3], [0.4, 0.5, 0.63]]}, "error: means must be a 2 x K matrix\n"),
        ({"variances": [[1e-4, 4e-4, 9e-4], [1e-4]]},
         "error: variances must be a 2 x K matrix\n"),
        ({"means": [[0.2, 10**400, 0.4], [0.4, 0.5, 0.63]]},
         "error: schema-mismatch: means[0][1] is outside the float64 range\n"),
        ({"kind": "sf2", "u_low": 0.5, "u_high": 10**400, "p0": 0.7, "p1": 0.3},
         "error: schema-mismatch: u_high is outside the float64 range\n"),
        ({"kind": "sf2", "u_low": 0.5, "u_high": math.inf, "p0": 0.7, "p1": 0.3},
         "error: u_high must be finite, got inf\n"),
        ({"kind": "sf2", "u_low": math.nan, "u_high": 1.5, "p0": 0.7, "p1": 0.3},
         "error: u_low must be finite, got nan\n"),
        ({"kind": "sf2", "u_low": 0.5, "u_high": 1.5, "p0": 0.7, "p1": 0.3,
          "spread_range": [0.5, 10**400]},
         "error: schema-mismatch: spread_range[1] is outside the float64 range\n"),
        ({"policy": {"kind": "utilitarian", "tie_break_scale": 10**400}},
         "error: schema-mismatch: policy tie_break_scale is outside the float64 range\n"),
        ({"group_sizes": [2**62, 20]},
         "error: group_sizes too large for the work arrays of 3 services\n"),
        ({"kind": "sf2", "u_low": 0.5, "u_high": 1.5, "p0": 0.7, "p1": 0.3,
          "group_sizes": [2**61, 2**61]},
         "error: group_sizes too large for the work arrays of 3 services\n"),
        ({"replications": 2**64},
         f"error: replications must be at most {sys.maxsize}, got {2**64}\n"),
    ], ids=["huge-mean", "subnormal-ratio", "huge-capacity", "capacity-past-int64",
            "group-size-past-int64", "negative-base-seed", "negative-policy-seed",
            "ragged-means", "ragged-variances", "mean-past-float64", "sf2-u-high-past-float64",
            "sf2-u-high-inf", "sf2-u-low-nan", "sf2-spread-past-float64",
            "tie-break-scale-past-float64",
            "group-sizes-past-arrays", "sf2-group-sizes-past-arrays",
            "replications-past-range"])
    def test_out_of_range_number_exits_2(self, tmp_path, capsys, changes, message):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(dict(GAUSSIAN_PARAMS, **changes)))
        assert run_cli("simulate", "--params", str(path), "--output-dir", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "convert to C long" not in err
        assert not (tmp_path / "o" / "result.json").exists()

    def test_sf2_u_low_whose_gain_overflows_names_it(self, tmp_path, capsys):
        params = load_json(str(Path(__file__).parent / "golden" / "inputs" / "sf2.json"))
        path = tmp_path / "params.json"
        path.write_text(json.dumps(dict(params, u_low=1e-310)))
        assert run_cli("simulate", "--params", str(path), "--output-dir", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == (
            "error: u_low 1e-310 is too small: the gain bound spread_range[1] / u_low overflows\n"
        )
        assert not (tmp_path / "o").exists()

    # the 2**63 - 1 case at lambda 0.5 comes last: before the split was
    # taken in Python ints, it borrowed one unit at a time for 2**62 passes
    @pytest.mark.parametrize("cap, lam", [
        (2**62, 0.0), (2**62, 0.5), (2**62, 1.0), (2**63 - 1, 0.0), (2**63 - 1, 1.0),
        (2**63 - 1, 0.5),
    ], ids=["2to62-0", "2to62-0.5", "2to62-1", "2to63-1-0", "2to63-1-1", "2to63-1-0.5"])
    def test_mixture_capacities_past_int64_sum(self, tmp_path, capsys, cap, lam):
        # three capacities of 2**62 sum past int64, and lambda * (2**63 - 1)
        # rounds up to 2**63 in float64; capacity to spare gives each part
        # the allocation it gets from capacities of 54, the population
        params = load_json(str(Path(__file__).parent / "golden" / "inputs" / "mixture.json"))
        policy = dict(params["policy"], children=[{"kind": "utilitarian"}] * 2,
                      **{"lambda": lam})
        for c, out in [(cap, "o"), (54, "ref")]:
            path = tmp_path / f"{out}.json"
            path.write_text(json.dumps(dict(params, capacities=[c] * 3, policy=policy)))
            code = run_cli("simulate", "--params", str(path), "--output-dir", str(tmp_path / out))
            assert code == 0, capsys.readouterr().err
        assert (tmp_path / "o" / "metrics.csv").read_bytes() == (
            tmp_path / "ref" / "metrics.csv").read_bytes()

    @pytest.mark.parametrize("seed", [2**63, 2**64, 10**30])
    def test_seed_past_int64_runs(self, tmp_path, seed):
        # seeds feed numpy's SeedSequence, which takes any integer >= 0
        path = tmp_path / "params.json"
        path.write_text(json.dumps(dict(GAUSSIAN_PARAMS, base_seed=seed,
                                        policy={"kind": "random", "seed": seed})))
        assert run_cli("simulate", "--params", str(path), "--output-dir", str(tmp_path / "o")) == 0

    # json reads NaN and Infinity; each is refused by its field before sampling
    @pytest.mark.parametrize("params, field", [
        (dict(GAUSSIAN_PARAMS, means=[[0.2, math.nan, 0.4], [0.4, 0.5, 0.63]]), "means"),
        (dict(GAUSSIAN_PARAMS, means=[[0.2, 0.3, 0.4], [-math.inf, 0.5, 0.63]]), "means"),
        (dict(GAUSSIAN_PARAMS, variances=[[1e-4, math.nan, 9e-4], [1e-4, 4e-4, 9e-4]]),
         "variances"),
        (dict(GAUSSIAN_PARAMS, variances=[[1e-4, 4e-4, 9e-4], [1e-4, math.inf, 9e-4]]),
         "variances"),
        (dict(SF1_PARAMS, u_max_range=[math.nan, 2.0]), "u_max_range"),
        (dict(SF1_PARAMS, u_max_range=[1.0, math.inf]), "u_max_range"),
        (dict(SF1_PARAMS, kind="sf2", u_low=0.5, u_high=1.5, p0=0.7, p1=0.3,
              spread_range=[0.5, math.nan]), "spread_range"),
    ], ids=["mean-nan", "mean-inf", "variance-nan", "variance-inf", "u-max-range-nan",
            "u-max-range-inf", "spread-range-nan"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, params, field):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        assert run_cli("simulate", "--params", str(path), "--output-dir", str(tmp_path / "o")) == 2
        assert f"error: {field} must hold only finite numbers" in capsys.readouterr().err
        assert not (tmp_path / "o" / "result.json").exists()

    def test_identity_check_scales_with_utilities(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(dict(GAUSSIAN_PARAMS, variances=[[1e-4, 4e-4, 9e-4],
                                                                    [7.8e13, 4e-4, 9e-4]])))
        assert run_cli("simulate", "--params", str(path), "--output-dir", str(tmp_path / "o")) == 0

    def test_reps_guard(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("simulate", "--params", "experiment1", "--reps", "1",
                       "--output-dir", str(out)) == 2

    def test_reps_past_range_length_exits_2(self, tmp_path, capsys):
        assert run_cli("simulate", "--params", "experiment1", "--reps", str(2**63),
                       "--output-dir", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == (
            f"error: replications must be at most {sys.maxsize}, got {2**63}\n"
        )
        assert not (tmp_path / "o").exists()

    def test_missing_params_file(self, tmp_path):
        assert run_cli("simulate", "--params", str(tmp_path / "nope.json"),
                       "--output-dir", str(tmp_path / "o")) == 2


class TestAudit:
    def test_full_pipeline(self, tmp_path):
        data = tmp_path / "data.csv"
        write_synthetic_csv(data, n=600, seed=4)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run_cli(
                "audit", "--data", str(data), "--config", "homeless",
                "--output-dir", str(out),
            ) == 0
        report = json.loads((out_a / "report.json").read_text())
        assert report["households"] == 600
        assert report["bandwidth"] == 0.2
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        assert (out_a / "shares.csv").read_bytes() == (out_b / "shares.csv").read_bytes()
        kde_file = (out_a / "kde_children_0.csv").read_text().splitlines()
        assert kde_file[0] == "grid,density,bandwidth"
        assert kde_file[1].endswith(",0.2")

    def test_tradeoff_flag_reported(self, tmp_path, capsys):
        ds = build_tradeoff_dataset()
        # four households so Welch has variance: duplicate with tiny offsets
        utilities = np.array([
            [0.5, 0.55, 0.58], [0.5, 0.551, 0.582],
            [0.5, 0.537, 0.551], [0.5, 0.538, 0.553],
        ])
        fat = type(ds)(
            probabilities=1.0 - utilities,
            observed=np.array([2, 2, 2, 2]),
            groups={"children": np.array([0, 0, 1, 1], dtype=np.int8)},
            service_names=("TH", "RRH", "ES"),
        )
        data = tmp_path / "trade.csv"
        from fairalloc.audit import AuditSchema

        schema = AuditSchema.from_dict(TRADEOFF_SCHEMA)
        export_csv(fat, str(data), schema)
        config = tmp_path / "schema.json"
        config.write_text(json.dumps(TRADEOFF_SCHEMA))
        assert run_cli(
            "audit", "--data", str(data), "--config", str(config),
            "--output-dir", str(tmp_path / "out"),
        ) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert "improvement-regret-trade-off" in report["pairs"]["children"]["observed"]["flags"]

    def test_awkward_names_read_back(self, tmp_path):
        services = ["T,H", 'R"RH', "E\nS\r"]
        pair = 'kids, "young"'
        schema_dict = {
            **TRADEOFF_SCHEMA,
            "services": [{"name": name, "column": f"p{i}"} for i, name in enumerate(services)],
            "pairs": [{"name": pair, "group1": "children", "group0": "~children"}],
        }
        schema = AuditSchema.from_dict(schema_dict)
        ids = ("a,1", 'b"2', "c\n3", "d")
        dataset = type(build_tradeoff_dataset())(
            probabilities=1.0 - np.array([[0.5, 0.55, 0.58], [0.5, 0.551, 0.582],
                                          [0.6, 0.537, 0.551], [0.5, 0.538, 0.553]]),
            observed=np.array([1, 2, 3, 2]),
            groups={"children": np.array([0, 0, 1, 1], dtype=np.int8)},
            service_names=tuple(services),
        )
        data, config, out = tmp_path / "data.csv", tmp_path / "schema.json", tmp_path / "out"
        export_csv(dataset, str(data), schema, ids)
        config.write_text(json.dumps(schema_dict))
        assert run_cli(
            "audit", "--data", str(data), "--config", str(config), "--output-dir", str(out),
        ) == 0
        with open(data, newline="") as fh:
            assert [row[0] for row in csv.reader(fh)] == ["id", *ids]
        with open(out / "shares.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["pair", "group", "count", *services]
        assert [row[:3] for row in rows[1:]] == [
            ["all", "all", "4"], [pair, f"{pair}:0", "2"], [pair, f"{pair}:1", "2"],
        ]
        assert all(len(row) == 6 for row in rows)
        with open(out / f"kde_{pair}_1.csv", newline="") as fh:
            assert next(csv.reader(fh)) == ["grid", "density", "bandwidth"]

    def test_schema_errors_exit_2(self, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("id,wrong\n1,2\n")
        config = tmp_path / "schema.json"
        config.write_text(json.dumps(TRADEOFF_SCHEMA))
        assert run_cli(
            "audit", "--data", str(data), "--config", str(config),
            "--output-dir", str(tmp_path / "out"),
        ) == 2

    def test_bad_delimiter_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        export_csv(build_tradeoff_dataset(), str(data), AuditSchema.from_dict(TRADEOFF_SCHEMA))
        assert run_cli(
            "audit", "--data", str(data), "--config", "homeless", "--delimiter", ";;",
            "--output-dir", str(tmp_path / "out"),
        ) == 2
        err = capsys.readouterr().err
        assert "delimiter must be exactly one character" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_bad_fair_tolerance_exits_2(self, tmp_path, capsys, tolerance):
        data = tmp_path / "data.csv"
        write_synthetic_csv(data, n=200, seed=4)
        assert run_cli(
            "audit", "--data", str(data), "--config", "homeless",
            f"--fair-tolerance={tolerance}", "--output-dir", str(tmp_path / "out"),
        ) == 2
        err = capsys.readouterr().err
        assert "fair_tolerance must be finite and >= 0" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("option, value, message", [
        ("--bandwidth", "nan", "bandwidth must be finite and > 0, got nan"),
        ("--bandwidth", "inf", "bandwidth must be finite and > 0, got inf"),
        ("--bandwidth", "-1", "bandwidth must be finite and > 0, got -1.0"),
        ("--fair-tolerance", "nan", "fair_tolerance must be finite and >= 0, got nan"),
    ], ids=["bandwidth-nan", "bandwidth-inf", "bandwidth-negative", "tolerance-nan"])
    def test_bad_argument_without_pairs_exits_2(self, tmp_path, capsys, option, value, message):
        # with no pair to audit, no KDE or verdict ever reads the value
        data = tmp_path / "in" / "data.csv"
        data.parent.mkdir()
        write_synthetic_csv(data, n=200, seed=4)
        config = tmp_path / "in" / "schema.json"
        config.write_text(json.dumps(dict(load_json("homeless"), pairs=[])))
        assert run_cli(
            "audit", "--data", str(data), "--config", str(config), f"{option}={value}",
            "--output-dir", str(tmp_path / "out"),
        ) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option, value, message", [
        ("--bandwidth", "0", "bandwidth must be finite and > 0, got 0.0"),
        ("--bandwidth", "-1", "bandwidth must be finite and > 0, got -1.0"),
        ("--bandwidth", "nan", "bandwidth must be finite and > 0, got nan"),
        ("--bandwidth", "inf", "bandwidth must be finite and > 0, got inf"),
        ("--fair-tolerance", "-1", "fair_tolerance must be finite and >= 0, got -1.0"),
        ("--fair-tolerance", "nan", "fair_tolerance must be finite and >= 0, got nan"),
        ("--fair-tolerance", "inf", "fair_tolerance must be finite and >= 0, got inf"),
    ], ids=["bandwidth-0", "bandwidth-negative", "bandwidth-nan", "bandwidth-inf",
            "tolerance-negative", "tolerance-nan", "tolerance-inf"])
    def test_bad_option_exits_2_before_reading_data(self, tmp_path, monkeypatch, capsys,
                                                    option, value, message):
        def forbidden(*args, **kwargs):
            raise AssertionError("the data were read")

        monkeypatch.setattr(cli, "ingest_csv", forbidden)
        assert run_cli(
            "audit", "--data", str(tmp_path / "data.csv"), "--config", "homeless",
            f"{option}={value}", "--output-dir", str(tmp_path / "out"),
        ) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value, reason", [
        ("1e-160", "the kernel density is not finite"),
        ("5e-324", "the kernel density is not finite"),
        ("1e308", "the KDE grid is not finite"),  # its 3 h padding overflows
        ("2e307", "the kernel density is not finite"),  # its normalizer n h overflows
    ])
    def test_out_of_range_bandwidth_exits_2_naming_it(self, tmp_path, capsys, value, reason):
        # finite and > 0, so only the KDE over the data can find it out of range
        inputs = Path(__file__).parent / "golden" / "inputs"
        assert run_cli(
            "audit", "--data", str(inputs / "audit.csv"), "--config",
            str(inputs / "audit_schema.json"), "--delimiter", ";", "--bandwidth", value,
            "--output-dir", str(tmp_path / "out"),
        ) == 2
        assert capsys.readouterr().err == (
            f"error: bandwidth {float(value)!r} is out of range for these samples: {reason}\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("group1, message", [
        (" & ".join(["veteran"] * 1500), "is nested too deeply"),  # too deep to evaluate
        ("~" * 100000 + "veteran", "is nested too deeply"),  # too deep to parse
        ("veteran\0", "error: invalid group expression"),  # a ValueError on Python 3.11
    ], ids=["and-chain", "inversions", "nul"])
    def test_unusable_group_expression_exits_2_naming_it(self, tmp_path, capsys, group1,
                                                         message):
        inputs = Path(__file__).parent / "golden" / "inputs"
        schema = json.loads((inputs / "audit_schema.json").read_text())
        schema["pairs"] = [{"name": "deep", "group1": group1, "group0": "children"}]
        config = tmp_path / "schema.json"
        config.write_text(json.dumps(schema))
        assert run_cli(
            "audit", "--data", str(inputs / "audit.csv"), "--config", str(config),
            "--delimiter", ";", "--output-dir", str(tmp_path / "out"),
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err and repr(group1) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("names, message", [
        (["A", "A", "B"], "service name 'A' is repeated"),
        (["TH", "count", "ES"], "service name 'count' is reserved"),
        (["group", "RRH", "ES"], "service name 'group' is reserved"),
        (["TH", "RRH", "pair"], "service name 'pair' is reserved"),
    ], ids=["repeated", "count", "group", "pair"])
    def test_bad_service_name_exits_2_before_writing(self, tmp_path, capsys, names, message):
        data = tmp_path / "in" / "data.csv"
        data.parent.mkdir()
        export_csv(build_tradeoff_dataset(), str(data), AuditSchema.from_dict(TRADEOFF_SCHEMA))
        services = [dict(s, name=name) for s, name in zip(TRADEOFF_SCHEMA["services"], names)]
        config = tmp_path / "in" / "schema.json"
        config.write_text(json.dumps(dict(TRADEOFF_SCHEMA, services=services)))
        assert run_cli(
            "audit", "--data", str(data), "--config", str(config),
            "--output-dir", str(tmp_path / "out"),
        ) == 2
        assert f"schema-mismatch: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("names", [
        ["a/../../../escaped2"], ["x\0y"], ["x", "x"], [""], ["."], [".."], ["a\\b"],
    ], ids=["traversal", "nul", "repeated", "empty", "dot", "dotdot", "backslash"])
    def test_bad_pair_name_exits_2_before_writing(self, tmp_path, capsys, names):
        data = tmp_path / "in" / "data.csv"
        data.parent.mkdir()
        write_synthetic_csv(data, n=200, seed=4)
        config = load_json("homeless")
        config["pairs"] = [
            {"name": name, "group1": "children", "group0": "~children"} for name in names
        ]
        (tmp_path / "in" / "schema.json").write_text(json.dumps(config))
        out = tmp_path / "a" / "b" / "out"
        assert run_cli(
            "audit", "--data", str(data), "--config", str(tmp_path / "in" / "schema.json"),
            "--output-dir", str(out),
        ) == 2
        err = capsys.readouterr().err
        assert f"schema-mismatch: pair name {names[-1]!r}" in err
        written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                         if p.is_file())
        assert written == ["in/data.csv", "in/schema.json"]

    def test_empty_group_exit_2(self, tmp_path):
        ds = build_tradeoff_dataset()
        all_ones = type(ds)(
            probabilities=1.0 - ds.utilities,
            observed=ds.observed,
            groups={"children": np.array([1, 1], dtype=np.int8)},
            service_names=ds.service_names,
        )
        data = tmp_path / "empty.csv"
        from fairalloc.audit import AuditSchema

        schema = AuditSchema.from_dict(TRADEOFF_SCHEMA)
        export_csv(all_ones, str(data), schema)
        config = tmp_path / "schema.json"
        config.write_text(json.dumps(TRADEOFF_SCHEMA))
        assert run_cli(
            "audit", "--data", str(data), "--config", str(config),
            "--output-dir", str(tmp_path / "out"),
        ) == 2


SOLVE_HEADER = "id,u_1,u_2,g\n"
AUDIT_HEADER = "id,p_TH,p_RRH,p_ES,observed,children\n"
CSV_JUNK = st.lists(st.sampled_from(
    ["", ",", "2", "-1", "nan", "inf", "1e400", "a", '"', " ", "\n", "\x00", "é"]
), max_size=3).map("".join)


def csv_field(column):
    """A value valid in ``column``: a service name, a utility or
    probability, or a 0/1 flag."""
    if column == "observed":
        return st.sampled_from(["TH", "RRH", "ES"])
    if column[:2] in ("u_", "p_"):
        return st.sampled_from(["0.2", "0.5", "0.7", "1"])
    return st.sampled_from(["0", "1"])


def csv_text(header):
    """Arbitrary short text, or valid rows under ``header`` (which starts
    with ``id``) with junk put in at one place."""
    row = st.tuples(*map(csv_field, header.strip().split(",")[1:])).map(",".join)
    line = st.tuples(row, st.sampled_from(["\n", "\r\n", "\r", "\n\n"])).map("".join)
    body = st.lists(line, max_size=8).map(
        lambda lines: header + "".join(f"r{i},{line}" for i, line in enumerate(lines))
    )
    spoiled = st.tuples(body, CSV_JUNK, st.integers(0, 200)).map(
        lambda t: t[0][:t[2]] + t[1] + t[0][t[2]:]
    )
    return st.one_of(st.text(max_size=40), spoiled)


# small valid configs of each population kind, with every optional key set
SIM_CONFIGS = [
    {"kind": "gaussian", "means": [[0.2, 0.3, 0.4], [0.4, 0.5, 0.63]],
     "variances": [[1e-4, 4e-4, 9e-4], [1e-4, 4e-4, 9e-4]], "group_sizes": [3, 4],
     "capacities": [3, 3, 3], "attribute": "g", "name": "g", "replications": 2, "base_seed": 1,
     "policy": {"kind": "mixture", "lambda": 0.5, "seed": 3,
                "children": [{"kind": "random"}, {"kind": "utilitarian"}]}},
    {"kind": "sf1", "r_high": 0.9, "r_low": 0.3, "pi0": 0.6, "pi1": 0.4, "group_sizes": [4, 5],
     "capacities": [9, 9, 9, 9], "u_max_range": [1.0, 2.0], "k": 4, "replications": 2,
     "policy": {"kind": "utilitarian", "tie_break_scale": 1e6}},
    {"kind": "sf2", "u_low": 0.5, "u_high": 1.5, "p0": 0.7, "p1": 0.3, "group_sizes": [5, 3],
     "capacities": [8, 8], "spread_range": [0.5, 1.0], "k": 2, "replications": 2,
     "policy": {"kind": "assign-best-ignoring-capacity"}},
]
JSON_JUNK = st.one_of(
    st.text(max_size=3), st.booleans(), st.none(), st.floats(), st.integers(-3, 6),
    st.lists(st.one_of(st.integers(-3, 6), st.floats(), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 6), max_size=2),
)


def json_paths(value, path=()):
    """The path of every value nested in ``value`` (dict keys, list
    indices), ``value`` itself excluded."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        yield path + (key,)
        if isinstance(item, (dict, list)):
            yield from json_paths(item, path + (key,))


def replace_at(value, path, junk):
    """A copy of ``value`` with the value at ``path`` replaced by ``junk``."""
    if not path:
        return junk
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = replace_at(value[path[0]], path[1:], junk)
    return copy


@st.composite
def spoiled_config(draw):
    """One of ``SIM_CONFIGS`` with junk in place of one of its values."""
    config = draw(st.sampled_from(SIM_CONFIGS))
    path = draw(st.sampled_from(list(json_paths(config))))
    return replace_at(config, path, draw(JSON_JUNK))


class TestExitCodeContract:
    """Whatever CSV text ``solve`` or ``audit`` reads, and whatever params
    file ``simulate`` reads, the exit code is a documented one and no
    traceback reaches stderr."""

    @staticmethod
    def run_on(text, *argv):
        with tempfile.TemporaryDirectory() as tmp:
            data, config = Path(tmp) / "data.csv", Path(tmp) / "schema.json"
            data.write_text(text, encoding="utf-8", newline="")
            config.write_text(json.dumps(TRADEOFF_SCHEMA))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([a.format(data=data, config=config) for a in argv]
                            + ["--output-dir", str(Path(tmp) / "out")])
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        return code

    @settings(max_examples=40, deadline=None)
    @given(text=csv_text(SOLVE_HEADER))
    def test_solve(self, text):
        self.run_on(text, "solve", "--population", "{data}", "--capacities", "2,2")

    @settings(max_examples=40, deadline=None)
    @given(text=csv_text(AUDIT_HEADER))
    def test_audit(self, text):
        self.run_on(text, "audit", "--data", "{data}", "--config", "{config}")

    @pytest.mark.parametrize("config", SIM_CONFIGS, ids=lambda c: c["kind"])
    def test_simulate_valid_configs(self, config):
        assert self.run_on(json.dumps(config), "simulate", "--params", "{data}") == 0

    @settings(max_examples=40, deadline=None)
    @given(config=spoiled_config())
    def test_simulate(self, config):
        self.run_on(json.dumps(config), "simulate", "--params", "{data}")


class TestCheck:
    def test_check_passes(self, capsys):
        assert run_cli("check", "--seed", "7") == 0
        assert capsys.readouterr().out == CHECK_SEED_7_STDOUT


# the exact ``check --seed 7`` output: it pins every check's seeds and figures
CHECK_SEED_7_STDOUT = """\
[PASS] additive-identity: max |dI + dR - dDU| = 8.882e-16
[PASS] mixture-interpolation: mixture dI 0.02028 vs midpoint 0.02019 (ci 0.00109)
[PASS] sf1-multiplicative-tradeoff: pi0=pi1: |dG|=0.0019<=2ci=0.0593; calibrated: dG~0 \
(0.0063), dS=0.2725>0; decomposition residual 0.00546 (ci 0.02266)
[PASS] sf2-normalization-tradeoff: worst policy: dI=0.0, dG=0.0; residuals dI -0.00356 \
(ci 0.00659), dG -0.00144 (ci 0.00931)
[PASS] improvement-regret-sign-flip: sign flip at lambda=0.481636
5/5 checks passed
"""


def exit_and_output(run, argv):
    """The exit code, stdout and stderr of ``run(argv)``; argparse exits
    through ``SystemExit``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


POP = ["--population", "pop.csv", "--capacities", "1,1"]
PARSER_CASES = {
    "no-arguments": [],
    "help": ["--help"],
    "help-before-command": ["-h", "solve"],
    **{f"{command}-help": [command, "--help"]
       for command in ("simulate", "solve", "audit", "check")},
    "unknown-command": ["solv", *POP],
    "unknown-option-first": ["--bogus"],
    "unknown-option": ["solve", *POP, "--bogus"],
    "second-command": ["check", "solve"],
    "missing-required": ["solve", "--capacities", "1,1"],
    "missing-all-required": ["audit"],
    "bad-policy": ["simulate", "--params", "experiment1", "--policy", "fair"],
    "bad-seed": ["solve", *POP, "--seed", "one"],
    "bad-check-seed": ["check", "--seed", "1.5"],
    "bad-bandwidth": ["audit", "--data", "d.csv", "--config", "homeless", "--bandwidth", "x"],
    "abbreviated": ["solve", "--pop", "pop.csv", "--cap", "1,1", "--tie", "5"],
    "abbreviated-simulate": ["simulate", "--par", "experiment2", "--rep", "3", "--thr", "2"],
}


@pytest.mark.parametrize("argv", PARSER_CASES.values(), ids=PARSER_CASES.keys())
def test_cli_text_matches_the_full_parser(monkeypatch, argv):
    """``main`` builds only the command it is given, yet prints what a parser
    of all four commands prints, and parses the same arguments. No snapshot
    is kept: argparse's wording differs across Python versions."""
    def echo(args):
        print(sorted((k, v) for k, v in vars(args).items() if k != "func"))
        return 0

    def full(argv):
        args = cli.build_parser().parse_args(argv)
        return args.func(args)

    for name in ("cmd_simulate", "cmd_solve", "cmd_audit", "cmd_check"):
        monkeypatch.setattr(cli, name, echo)
    expected = exit_and_output(full, argv)
    assert exit_and_output(main, argv) == expected
    # the abbreviated options parse, and the command runs on them
    ran = expected[0] == 0 and not {"-h", "--help"} & set(argv)
    assert expected[1].startswith("[") == ran


@pytest.mark.parametrize("argv, message", [
    ([], "error: the following arguments are required: command\n"),
    (["solv"], "error: argument command: invalid choice: 'solv'"),
], ids=["no-arguments", "unknown-command"])
def test_full_parser_names_the_command_argument(argv, message):
    # the reference above is the full parser; it names the command "command",
    # as it did before a one-command parser had a metavar to list them all
    code, out, err = exit_and_output(main, argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: fairalloc [-h] {simulate,solve,audit,check} ...\n")
    assert message in err


def test_main_reads_sys_argv(population_csv, tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", ["fairalloc", "solve", "--pop", population_csv,
                                      "--capacities", "1,1", "--output-dir", str(out)])
    assert main() == 0
    assert (out / "allocation.csv").read_text() == "id,service\na,1\nb,2\n"


class TestThreadCap:
    def test_env_var_caps_parallelism(self, monkeypatch):
        from fairalloc.cli import _thread_count

        monkeypatch.delenv("FAIRALLOC_THREADS", raising=False)
        assert _thread_count(4) == 4
        monkeypatch.setenv("FAIRALLOC_THREADS", "2")
        assert _thread_count(4) == 2
        assert _thread_count(1) == 1
        monkeypatch.setenv("FAIRALLOC_THREADS", "junk")
        assert _thread_count(3) == 3


def test_csv_text_quotes_only_what_it_must():
    assert _io.csv_text([("id", "service"), ("a", 1), ("b", "")]) == "id,service\na,1\nb,\n"
    awkward = [["a,b", 'q"x', "n\nl", "r\rr", "", " sp", "plain"], ["x"]]
    text = _io.csv_text(awkward)
    assert text.endswith("plain\nx\n")
    assert list(csv.reader(io.StringIO(text, newline=""))) == awkward
