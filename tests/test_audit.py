"""Audit pipeline tests: ingestion validation, share tables, max-gain
analyses, and observed-assignment trade-off flags."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import (
    TRADEOFF_SCHEMA,
    build_synthetic_dataset,
    build_tradeoff_dataset,
    homeless_schema,
    write_synthetic_csv,
)

import fairalloc
from fairalloc import (
    DataValidationError,
    EmptyGroupError,
    SchemaMismatchError,
    audit_observed,
    best_service_shares,
    delta_u_analysis,
    ingest_csv,
    run_audit,
)
from fairalloc.audit import (
    AuditSchema,
    GroupPair,
    eval_group_expr,
    export_csv,
    pair_from_attribute,
    trade_off_flags,
    write_report_bundle,
)

SMALL_CSV = """id,p_TH,p_RRH,p_ES,observed,children,disability
h1,0.3,0.5,0.4,TH,0,1
h2,0.6,0.2,0.5,RRH,1,0
h3,0.5,0.45,0.55,ES,1,1
"""

SMALL_SCHEMA = AuditSchema.from_dict(
    {
        "id": "id",
        "services": [
            {"name": "TH", "column": "p_TH"},
            {"name": "RRH", "column": "p_RRH"},
            {"name": "ES", "column": "p_ES"},
        ],
        "observed": "observed",
        "groups": {"children": "children", "disability": "disability"},
        "pairs": [{"name": "children", "group1": "children", "group0": "~children"}],
    }
)


@pytest.fixture
def small_csv(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text(SMALL_CSV)
    return str(path)


class TestIngest:
    def test_small_fixture(self, small_csv):
        ds = ingest_csv(small_csv, SMALL_SCHEMA)
        assert ds.n == 3 and ds.k == 3
        assert ds.ids == ("h1", "h2", "h3")
        assert ds.observed.tolist() == [1, 2, 3]
        assert ds.utilities[0].tolist() == pytest.approx([0.7, 0.5, 0.6])
        assert ds.groups["children"].tolist() == [0, 1, 1]

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,p_TH,observed\nh1,0.5,TH\n")
        with pytest.raises(SchemaMismatchError):
            ingest_csv(str(path), SMALL_SCHEMA)

    def test_range_violation_names_line(self, tmp_path):
        path = tmp_path / "range.csv"
        path.write_text(SMALL_CSV.replace("h2,0.6", "h2,1.2"))
        with pytest.raises(DataValidationError) as err:
            ingest_csv(str(path), SMALL_SCHEMA)
        assert "range-violation(line 3)" in str(err.value)

    def test_label_violation_names_line(self, tmp_path):
        path = tmp_path / "label.csv"
        path.write_text(SMALL_CSV.replace("h3,0.5,0.45,0.55,ES", "h3,0.5,0.45,0.55,XX"))
        with pytest.raises(DataValidationError) as err:
            ingest_csv(str(path), SMALL_SCHEMA)
        assert "label-violation(line 4)" in str(err.value)

    def test_bad_group_value(self, tmp_path):
        path = tmp_path / "group.csv"
        path.write_text(SMALL_CSV.replace("TH,0,1", "TH,2,1"))
        with pytest.raises(DataValidationError) as err:
            ingest_csv(str(path), SMALL_SCHEMA)
        assert "line 2" in str(err.value)

    def test_repeated_id_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(SMALL_CSV.replace("h3,", "h1,"))
        with pytest.raises(DataValidationError) as err:
            ingest_csv(str(path), SMALL_SCHEMA)
        assert "duplicate-id(line 4): 'h1' already on line 2" in str(err.value)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(SMALL_CSV.replace("\nh2", "\n\nh2") + "\n")
        ds = ingest_csv(str(path), SMALL_SCHEMA)
        assert ds.ids == ("h1", "h2", "h3")

    def test_every_bad_field_of_a_row_reported(self, tmp_path):
        path = tmp_path / "bad_row.csv"
        path.write_text(SMALL_CSV.replace("h2,0.6,0.2,0.5,RRH,1,0", "h2,1.6,x,0.5,XX,1,7"))
        with pytest.raises(DataValidationError) as err:
            ingest_csv(str(path), SMALL_SCHEMA)
        assert err.value.row_errors == [
            "range-violation(line 3): p_TH='1.6' not in [0, 1]",
            "range-violation(line 3): p_RRH='x' is not finite",
            "label-violation(line 3): observed='XX' not one of ['TH', 'RRH', 'ES']",
            "range-violation(line 3): disability='7' must be 0 or 1",
        ]

    def test_two_attributes_share_a_column(self, small_csv):
        schema = dataclasses.replace(
            SMALL_SCHEMA, group_columns={"children": "children", "kids": "children"}
        )
        ds = ingest_csv(small_csv, schema)
        assert ds.groups["kids"].tolist() == ds.groups["children"].tolist() == [0, 1, 1]

    def test_csv_syntax_error_names_line(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text(SMALL_CSV + "h4," + "x" * 200_000 + "\n")
        with pytest.raises(DataValidationError) as err:
            ingest_csv(str(path), SMALL_SCHEMA)
        assert "schema-mismatch(line 5): field larger than field limit" in str(err.value)

    def test_round_trip_values_and_bytes(self, tmp_path):
        csv_path = tmp_path / "synth.csv"
        original = write_synthetic_csv(csv_path, n=400, seed=5)
        ingested = ingest_csv(str(csv_path), homeless_schema())
        assert ingested.ids == original.ids
        assert np.array_equal(ingested.probabilities, original.probabilities)
        assert np.array_equal(ingested.observed, original.observed)
        for name in original.groups:
            assert np.array_equal(ingested.groups[name], original.groups[name])
        # canonical files round-trip byte for byte
        out_path = tmp_path / "export.csv"
        export_csv(ingested, str(out_path), homeless_schema())
        assert out_path.read_bytes() == csv_path.read_bytes()


class TestGroupExpr:
    def test_operators(self):
        cols = {"a": np.array([0, 1, 1, 0]), "b": np.array([1, 1, 0, 0])}
        assert eval_group_expr("a & b", cols).tolist() == [False, True, False, False]
        assert eval_group_expr("a | b", cols).tolist() == [True, True, True, False]
        assert eval_group_expr("~a", cols).tolist() == [True, False, False, True]
        assert eval_group_expr("a & ~b", cols).tolist() == [False, False, True, False]

    def test_unknown_column(self):
        with pytest.raises(SchemaMismatchError):
            eval_group_expr("missing", {"a": np.array([1])})

    def test_rejects_arbitrary_code(self):
        with pytest.raises(ValueError):
            eval_group_expr("__import__('os')", {"a": np.array([1])})


class TestShares:
    def test_unique_best(self):
        ds = build_tradeoff_dataset()
        rows = best_service_shares(ds)
        assert rows[0].label == "all"
        assert rows[0].shares == (0.0, 0.0, 1.0)  # both households peak at ES

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_probability_rejected(self, bad):
        # a NaN row has no best service: shares would get a column too many
        ds = build_tradeoff_dataset()
        probabilities = ds.probabilities.copy()
        probabilities[1, 1] = bad
        with pytest.raises(ValueError, match="probabilities must be finite"):
            dataclasses.replace(ds, probabilities=probabilities)

    def test_engineered_overall_shares(self):
        ds = build_synthetic_dataset()
        row = best_service_shares(ds)[0]
        assert row.shares[0] == pytest.approx(0.68, abs=0.01)
        assert row.shares[1] == pytest.approx(0.27, abs=0.01)
        assert row.shares[2] == pytest.approx(0.05, abs=0.01)
        assert sum(row.shares) == pytest.approx(1.0, abs=1e-9)

    def test_tie_counts_lower_index(self):
        ds = build_tradeoff_dataset()
        tied = type(ds)(
            ids=("a", "b"),
            probabilities=np.array([[0.4, 0.4, 0.6], [0.3, 0.5, 0.3]]),
            observed=np.array([1, 1]),
            groups={"children": np.array([0, 1], dtype=np.int8)},
            service_names=("TH", "RRH", "ES"),
        )
        row = best_service_shares(tied)[0]
        assert row.shares == (1.0, 0.0, 0.0)

    def test_per_group_rows_sum_to_one(self):
        ds = build_synthetic_dataset(n=500, seed=8)
        for row in best_service_shares(ds, "children"):
            assert sum(row.shares) == pytest.approx(1.0, abs=1e-9)

    def test_monotone_transform_invariance(self):
        ds = build_synthetic_dataset(n=300, seed=9)
        squeezed = type(ds)(
            ids=ds.ids,
            probabilities=1.0 - np.sqrt(ds.utilities),  # strictly increasing transform
            observed=ds.observed,
            groups=ds.groups,
            service_names=ds.service_names,
        )
        assert best_service_shares(ds)[0].shares == best_service_shares(squeezed)[0].shares

    def test_empty_group(self):
        ds = build_tradeoff_dataset()
        no_group = type(ds)(
            ids=ds.ids,
            probabilities=ds.probabilities,
            observed=ds.observed,
            groups={"children": np.array([1, 1], dtype=np.int8)},
            service_names=ds.service_names,
        )
        with pytest.raises(EmptyGroupError):
            best_service_shares(no_group, "children")


class TestDeltaUAnalysis:
    def test_identical_groups_t_zero(self):
        base = build_synthetic_dataset(n=200, seed=3)
        doubled = type(base)(
            ids=base.ids + tuple(f"x{i}" for i in range(base.n)),
            probabilities=np.vstack([base.probabilities, base.probabilities]),
            observed=np.concatenate([base.observed, base.observed]),
            groups={"g": np.array([0] * base.n + [1] * base.n, dtype=np.int8)},
            service_names=base.service_names,
        )
        result = delta_u_analysis(doubled, pair_from_attribute("g"))
        assert result.welch.t_statistic == pytest.approx(0.0, abs=1e-12)

    def test_calibrated_group_means(self):
        ds = build_synthetic_dataset()
        result = delta_u_analysis(ds, pair_from_attribute("children"))
        assert result.mean_1 == pytest.approx(0.04, abs=1e-3)  # with children
        assert result.mean_0 == pytest.approx(0.07, abs=1e-3)  # without children
        assert result.welch.p_value < 1e-6
        assert result.kde_0.bandwidth == 0.2
        assert np.all(result.kde_0.grid == result.kde_1.grid)

    def test_degenerate_single_household_group(self):
        ds = build_tradeoff_dataset()
        from fairalloc import DegenerateVarianceError

        with pytest.raises(DegenerateVarianceError):
            delta_u_analysis(ds, pair_from_attribute("children"))


class TestObservedAudit:
    def test_no_flag_when_metrics_agree(self):
        utilities = np.array([[0.5, 0.6, 0.7], [0.5, 0.6, 0.7], [0.5, 0.55, 0.6], [0.5, 0.55, 0.6]])
        ds = build_tradeoff_dataset()
        agree = type(ds)(
            ids=("a", "b", "c", "d"),
            probabilities=1.0 - utilities,
            observed=np.array([3, 3, 1, 1]),  # group 1 clearly favored on both
            groups={"children": np.array([1, 1, 0, 0], dtype=np.int8)},
            service_names=("TH", "RRH", "ES"),
        )
        outcome = audit_observed(agree, pair_from_attribute("children"))
        assert "improvement-regret-trade-off" not in outcome.flags

    def test_engineered_tradeoff_flag(self):
        ds = build_tradeoff_dataset()
        outcome = audit_observed(ds, pair_from_attribute("children"))
        assert outcome.report.deltas["improvement"] == pytest.approx(-0.013)
        assert -outcome.report.deltas["regret"] == pytest.approx(0.016)
        assert "improvement-regret-trade-off" in outcome.flags

    def test_improvement_fair_regret_unfair(self):
        # group 1 mirrors group 0's improvement but not its regret
        utilities = np.array([[0.5, 0.55, 0.7], [0.5, 0.55, 0.6]])
        ds = build_tradeoff_dataset()
        fixture = type(ds)(
            ids=("a", "b"),
            probabilities=1.0 - utilities,
            observed=np.array([2, 2]),
            groups={"children": np.array([0, 1], dtype=np.int8)},
            service_names=("TH", "RRH", "ES"),
        )
        outcome = audit_observed(fixture, pair_from_attribute("children"))
        deltas = outcome.report.deltas
        assert abs(deltas["improvement"]) <= outcome.tolerance
        assert abs(deltas["regret"]) > outcome.tolerance
        assert "improvement-fair-regret-unfair" in outcome.flags

    def test_flag_logic_multiplicative(self):
        from fairalloc.core import FairnessReport

        report = FairnessReport(
            attribute="g",
            means={
                "improvement": (0.1, 0.2),
                "regret": (0.2, 0.1),
                "gain": (1.5, 1.2),
                "shortfall": (0.7, 0.9),
            },
            mean_delta_u=(0.3, 0.3),
        )
        flags = trade_off_flags(report, 1e-3)
        assert "gain-equitability-trade-off" in flags
        assert "improvement-regret-trade-off" not in flags


class TestRunAudit:
    def test_full_bundle(self, tmp_path):
        ds = build_synthetic_dataset(n=800, seed=12)
        schema = homeless_schema()
        report = run_audit(ds, schema)
        assert report.n == 800
        assert len(report.pairs) == len(schema.pairs)
        payload = report.to_dict()
        assert "children" in payload["pairs"]
        # additive identity holds exactly on audited data
        for pair in report.pairs:
            fr = pair.observed.report
            du_diff = (pair.delta_u.mean_1 - pair.delta_u.mean_0)
            lhs = fr.deltas["improvement"] + fr.deltas["regret"]
            assert lhs == pytest.approx(du_diff, abs=1e-12)

        files = write_report_bundle(report, str(tmp_path / "out"))
        names = {f.split("/")[-1] for f in files}
        assert "report.json" in names and "shares.csv" in names
        assert "kde_children_0.csv" in names

    def test_overlapping_pair_rejected(self):
        ds = build_synthetic_dataset(n=100, seed=2)
        with pytest.raises(ValueError):
            audit_observed(ds, GroupPair("bad", "children", "children | disability"))

    def test_pairs_match_per_pair_functions(self):
        ds = build_synthetic_dataset(n=800, seed=12)
        report = run_audit(ds, homeless_schema(), bandwidth=0.1, fair_tolerance=0.02)
        for p in report.pairs:
            assert p.delta_u.to_dict() == delta_u_analysis(ds, p.pair, 0.1).to_dict()
            assert p.observed.to_dict() == audit_observed(ds, p.pair, 0.02).to_dict()

    def test_shared_work_computed_once(self, monkeypatch):
        import fairalloc.audit as audit_module

        calls = {"envelope": 0, "_pair_masks": 0}
        for name in calls:
            original = getattr(audit_module, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(audit_module, name, counted)
        schema = homeless_schema()
        run_audit(build_synthetic_dataset(n=800, seed=12), schema)
        assert calls == {"envelope": 1, "_pair_masks": len(schema.pairs)}

    def test_utilities_built_once_read_only(self):
        ds = build_synthetic_dataset(n=50, seed=1)
        assert ds.utilities is ds.utilities
        assert not ds.utilities.flags.writeable
        assert np.array_equal(ds.utilities, 1.0 - ds.probabilities)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0])
    def test_bad_fair_tolerance_rejected(self, tolerance):
        ds = build_synthetic_dataset(n=100, seed=2)
        with pytest.raises(ValueError, match="fair_tolerance must be finite and >= 0"):
            run_audit(ds, homeless_schema(), fair_tolerance=tolerance)
        with pytest.raises(ValueError, match="fair_tolerance must be finite and >= 0"):
            audit_observed(ds, pair_from_attribute("children"), tolerance)


# Reads the child's own peak RSS (VmHWM). Its ru_maxrss would not do: on
# Linux it carries over the peak of the process that spawned it, here pytest.
PEAK_RSS_CHILD = r"""
import re, sys
from fairalloc.cli import main
code = main(["audit", "--data", sys.argv[1], "--config", sys.argv[2], "--output-dir", sys.argv[3]])
status = open("/proc/self/status").read()
print(code, int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) // 1024)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_large_audit_peak_rss_is_bounded(tmp_path):
    """A 200,000-row audit of one pair stays far below the memory of the
    dense KDE: its 512 x 120,000 float64 matrix alone takes 490 MB."""
    n = 200_000
    rng = np.random.default_rng(0)
    probabilities = rng.uniform(0.3, 0.5, (n, 3))
    observed = np.array(["TH", "RRH", "ES"])[rng.integers(0, 3, n)]
    children = (rng.random(n) < 0.4).astype(int)
    data = tmp_path / "large.csv"
    with open(data, "w", encoding="utf-8") as fh:
        fh.write("id,p_TH,p_RRH,p_ES,observed,children\n")
        fh.writelines(
            f"h{i},{p[0]!r},{p[1]!r},{p[2]!r},{o},{c}\n"
            for i, (p, o, c) in enumerate(zip(probabilities.tolist(), observed, children))
        )
    config = tmp_path / "schema.json"
    config.write_text(json.dumps(TRADEOFF_SCHEMA))
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(fairalloc.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, str(data), str(config), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    code, peak_mb = map(int, result.stdout.split()[-2:])
    assert code == 0
    assert peak_mb < 400
