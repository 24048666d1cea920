"""Audit pipeline tests: ingestion validation, share tables, max-gain
analyses, and observed-assignment trade-off flags."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    TRADEOFF_SCHEMA,
    build_synthetic_dataset,
    build_tradeoff_dataset,
    export_csv,
    homeless_schema,
    write_synthetic_csv,
)

import fairalloc
import fairalloc.cli
from fairalloc import (
    Allocation,
    DataValidationError,
    DegenerateVarianceError,
    EmptyGroupError,
    Population,
    SchemaMismatchError,
    delta_metrics,
    ingest_csv,
    run_audit,
)
from fairalloc.audit import (
    DEFAULT_FAIR_TOLERANCE,
    AuditSchema,
    GroupPair,
    ShareRow,
    eval_group_expr,
    trade_off_flags,
    write_report_bundle,
)
from fairalloc.core import _first_best

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

# the overall share row alone: no pair, so no Welch test and no KDE
NO_PAIRS = dataclasses.replace(SMALL_SCHEMA, pairs=())


def observed_report(dataset):
    """The fairness report of the observed assignment between the children
    groups, for fixtures too small for ``run_audit``'s Welch test."""
    return delta_metrics(dataset.population(), Allocation(dataset.observed), "children")


@pytest.fixture
def small_csv(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text(SMALL_CSV)
    return str(path)


class TestIngest:
    def test_small_fixture(self, small_csv):
        ds = ingest_csv(small_csv, SMALL_SCHEMA)
        assert ds.n == 3 and ds.k == 3
        # the ids are checked, then dropped; one matrix, the utilities, is held
        assert [f.name for f in dataclasses.fields(ds)] == [
            "observed", "groups", "service_names", "utilities"]
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

    def test_blank_lines_skipped(self, tmp_path, small_csv):
        path = tmp_path / "blank.csv"
        path.write_text(SMALL_CSV.replace("\nh2", "\n\nh2") + "\n")
        ds = ingest_csv(str(path), SMALL_SCHEMA)
        assert repr(ds) == repr(ingest_csv(small_csv, SMALL_SCHEMA))

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
        assert np.array_equal(ingested.utilities, original.utilities)
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
        row = run_audit(build_tradeoff_dataset(), NO_PAIRS).overall_shares
        assert row.label == "all"
        assert row.shares == (0.0, 0.0, 1.0)  # both households peak at ES

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_probability_rejected(self, bad):
        # a NaN row has no best service: shares would get a column too many
        ds = build_tradeoff_dataset()
        probabilities = 1.0 - ds.utilities
        probabilities[1, 1] = bad
        with pytest.raises(ValueError, match="probabilities must be finite"):
            dataclasses.replace(ds, probabilities=probabilities)

    @pytest.mark.parametrize("names, message", [
        (("A", "A", "count"), "service name 'A' is repeated"),
        (("A", "B", "count"), "service name 'count' is reserved"),
        (("A",), "1 service names for 3 services"),
        (("A", "B", "C", "D"), "4 service names for 3 services"),
    ], ids=["repeated", "reserved", "too-few", "too-many"])
    def test_bad_service_names_rejected(self, names, message):
        # the names key the share rows, so a dataset checks them as a schema does
        with pytest.raises(SchemaMismatchError, match=message):
            ds = build_tradeoff_dataset()
            dataclasses.replace(ds, probabilities=1.0 - ds.utilities, service_names=names)

    @pytest.mark.parametrize("observed", [
        [1, 2, 1, 2, 0, 3],  # the last two households are in no pair
        [1, 2, 1, 2, 1],
        [[1, 2, 1, 2, 1, 2]],
    ], ids=["out-of-range", "too-short", "not-a-vector"])
    def test_bad_observed_rejected(self, observed):
        # run_audit reads every household's realized utility, in a pair or not
        with pytest.raises(ValueError, match=r"observed must hold one service index in 1\.\.2"):
            fairalloc.AuditDataset(
                probabilities=np.full((6, 2), 0.5),
                observed=np.array(observed),
                groups={"g": np.array([0, 1, 0, 1, 0, 0], dtype=np.int8)},
                service_names=("A", "B"),
            )

    def test_engineered_overall_shares(self):
        row = run_audit(build_synthetic_dataset(), SMALL_SCHEMA).overall_shares
        assert row.shares[0] == pytest.approx(0.68, abs=0.01)
        assert row.shares[1] == pytest.approx(0.27, abs=0.01)
        assert row.shares[2] == pytest.approx(0.05, abs=0.01)
        assert sum(row.shares) == pytest.approx(1.0, abs=1e-9)

    def test_tie_counts_lower_index(self):
        ds = build_tradeoff_dataset()
        tied = type(ds)(
            probabilities=np.array([[0.4, 0.4, 0.6], [0.3, 0.5, 0.3]]),
            observed=np.array([1, 1]),
            groups={"children": np.array([0, 1], dtype=np.int8)},
            service_names=("TH", "RRH", "ES"),
        )
        row = run_audit(tied, NO_PAIRS).overall_shares
        assert row.shares == (1.0, 0.0, 0.0)

    def test_per_group_rows_sum_to_one(self):
        ds = build_synthetic_dataset(n=500, seed=8)
        (pair,) = run_audit(ds, SMALL_SCHEMA).pairs
        assert [row.count for row in pair.shares] == [pair.n_0, pair.n_1]
        for row in pair.shares:
            assert sum(row.shares) == pytest.approx(1.0, abs=1e-9)

    def test_monotone_transform_invariance(self):
        ds = build_synthetic_dataset(n=300, seed=9)
        squeezed = type(ds)(
            probabilities=1.0 - np.sqrt(ds.utilities),  # strictly increasing transform
            observed=ds.observed,
            groups=ds.groups,
            service_names=ds.service_names,
        )
        before, after = (run_audit(d, SMALL_SCHEMA) for d in (ds, squeezed))
        assert before.overall_shares.shares == after.overall_shares.shares
        assert before.pairs[0].shares == after.pairs[0].shares

    def test_empty_group(self):
        ds = build_tradeoff_dataset()
        no_group = type(ds)(
            probabilities=1.0 - ds.utilities,
            observed=ds.observed,
            groups={"children": np.array([1, 1], dtype=np.int8)},
            service_names=ds.service_names,
        )
        with pytest.raises(EmptyGroupError):
            run_audit(no_group, SMALL_SCHEMA)


class TestDeltaUAnalysis:
    def test_identical_groups_t_zero(self):
        base = build_synthetic_dataset(n=200, seed=3)
        doubled = type(base)(
            probabilities=1.0 - np.vstack([base.utilities, base.utilities]),
            observed=np.concatenate([base.observed, base.observed]),
            groups={"g": np.array([0] * base.n + [1] * base.n, dtype=np.int8)},
            service_names=base.service_names,
        )
        schema = dataclasses.replace(SMALL_SCHEMA, pairs=(GroupPair("g", "g", "~g"),))
        (pair,) = run_audit(doubled, schema).pairs
        assert pair.delta_u.welch.t_statistic == pytest.approx(0.0, abs=1e-12)

    def test_calibrated_group_means(self):
        (pair,) = run_audit(build_synthetic_dataset(), SMALL_SCHEMA).pairs
        result = pair.delta_u
        assert result.mean_1 == pytest.approx(0.04, abs=1e-3)  # with children
        assert result.mean_0 == pytest.approx(0.07, abs=1e-3)  # without children
        assert result.welch.p_value < 1e-6
        assert result.kde_0.bandwidth == 0.2
        assert np.all(result.kde_0.grid == result.kde_1.grid)

    def test_degenerate_single_household_group(self):
        with pytest.raises(DegenerateVarianceError):
            run_audit(build_tradeoff_dataset(), SMALL_SCHEMA)


class TestObservedAudit:
    def test_no_flag_when_metrics_agree(self):
        utilities = np.array([[0.5, 0.6, 0.7], [0.5, 0.6, 0.7], [0.5, 0.55, 0.6], [0.5, 0.55, 0.6]])
        ds = build_tradeoff_dataset()
        agree = type(ds)(
            probabilities=1.0 - utilities,
            observed=np.array([3, 3, 1, 1]),  # group 1 clearly favored on both
            groups={"children": np.array([1, 1, 0, 0], dtype=np.int8)},
            service_names=("TH", "RRH", "ES"),
        )
        flags = trade_off_flags(observed_report(agree), DEFAULT_FAIR_TOLERANCE)
        assert "improvement-regret-trade-off" not in flags

    def test_engineered_tradeoff_flag(self):
        report = observed_report(build_tradeoff_dataset())
        assert report.deltas["improvement"] == pytest.approx(-0.013)
        assert -report.deltas["regret"] == pytest.approx(0.016)
        assert "improvement-regret-trade-off" in trade_off_flags(report, DEFAULT_FAIR_TOLERANCE)

    def test_improvement_fair_regret_unfair(self):
        # group 1 mirrors group 0's improvement but not its regret
        utilities = np.array([[0.5, 0.55, 0.7], [0.5, 0.55, 0.6]])
        ds = build_tradeoff_dataset()
        fixture = type(ds)(
            probabilities=1.0 - utilities,
            observed=np.array([2, 2]),
            groups={"children": np.array([0, 1], dtype=np.int8)},
            service_names=("TH", "RRH", "ES"),
        )
        report = observed_report(fixture)
        assert abs(report.deltas["improvement"]) <= DEFAULT_FAIR_TOLERANCE
        assert abs(report.deltas["regret"]) > DEFAULT_FAIR_TOLERANCE
        assert "improvement-fair-regret-unfair" in trade_off_flags(report, DEFAULT_FAIR_TOLERANCE)

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
        schema = dataclasses.replace(
            SMALL_SCHEMA, pairs=(GroupPair("bad", "children", "children | disability"),)
        )
        with pytest.raises(ValueError, match="group expressions overlap"):
            run_audit(ds, schema)

    def test_shared_work_computed_once(self, monkeypatch):
        import fairalloc.audit as audit_module
        import fairalloc.core as core_module

        calls = {"envelope": 0, "_pair_masks": 0}
        for owner, name in ((core_module, "envelope"), (audit_module, "_pair_masks")):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(owner, name, counted)
        schema = homeless_schema()
        run_audit(build_synthetic_dataset(n=800, seed=12), schema)
        assert calls == {"envelope": 1, "_pair_masks": len(schema.pairs)}

    def test_utilities_built_once_read_only(self):
        ds = build_synthetic_dataset(n=50, seed=1)
        assert ds.utilities is ds.utilities
        assert not ds.utilities.flags.writeable

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_utilities_never_written_into_the_callers_array(self, order):
        p = np.asarray(np.random.default_rng(3).uniform(0.2, 0.8, (6, 2)), order=order)
        before = p.copy()
        ds = fairalloc.AuditDataset(p, np.ones(6), {}, ("A", "B"))
        assert p.flags.writeable and p.tobytes() == before.tobytes()
        assert not np.shares_memory(p, ds.utilities)
        assert ds.utilities.tobytes() == (1.0 - before).tobytes()

    @pytest.mark.parametrize("seed", range(24))
    def test_pairs_match_their_own_sub_population(self, seed, tmp_path):
        """Each pair's shares and observed report, read from the dataset-wide
        passes, equal bit for bit what the pair's own households give: share
        rows from ``_first_best`` on the masked utilities and the report of
        ``delta_metrics`` on the pair's sub-population. The pairs leave
        households out, and utilities of 0 sit inside a pair, outside every
        pair, or both; the CLI audits such a dataset under its float guard."""
        gen = np.random.default_rng(seed)
        n, k = int(gen.integers(12, 300)), int(gen.integers(2, 5))
        probabilities = gen.uniform(0.0, 1.0, (n, k))
        groups = {name: (gen.random(n) < 0.5).astype(np.int8) for name in "abcx"}
        inside = np.flatnonzero(groups["x"] == 0)
        outside = np.flatnonzero(groups["x"] == 1)
        for where in ((inside,), (outside,), (inside, outside), ())[seed % 4]:
            if where.size:
                probabilities[gen.choice(where), gen.integers(k)] = 1.0  # a utility of 0
        schema = AuditSchema.from_dict({
            "services": [{"name": f"s{j}", "column": f"p{j}"} for j in range(k)],
            "observed": "observed",
            "groups": {name: name for name in groups},
            "pairs": [
                {"name": "a", "group1": "a & ~x", "group0": "~a & ~x"},
                {"name": "bc", "group1": "b & c & ~x", "group0": "~b & ~x"},
                {"name": "all", "group1": "a", "group0": "~a"},
            ],
        })
        ds = fairalloc.AuditDataset(
            probabilities=probabilities,
            observed=gen.integers(1, k + 1, n),
            groups=groups,
            service_names=tuple(f"s{j}" for j in range(k)),
        )
        try:
            report = run_audit(ds, schema)
        except (EmptyGroupError, DegenerateVarianceError):
            pytest.skip("a group too small for the Welch test")

        def own_shares(mask, label):
            count = int(mask.sum())
            counts = np.bincount(_first_best(ds.utilities[mask]), minlength=k)
            return ShareRow(label, count, tuple(float(c) / count for c in counts))

        everyone = np.ones(n, dtype=bool)
        assert repr(report.overall_shares) == repr(own_shares(everyone, "all"))
        for pair in report.pairs:
            masks = [eval_group_expr(expr, ds.groups) for expr in (pair.pair.group0,
                                                                   pair.pair.group1)]
            expected = [own_shares(mask, f"{pair.pair.name}:{v}") for v, mask in enumerate(masks)]
            assert repr(pair.shares) == repr(tuple(expected))
            included = np.flatnonzero(masks[0] | masks[1])
            own = Population(ds.utilities[included],
                             {pair.pair.name: masks[1][included].astype(np.int8)})
            want = delta_metrics(own, Allocation(ds.observed[included]), pair.pair.name)
            got = pair.observed.report
            assert repr((got.means, got.mean_delta_u)) == repr((want.means, want.mean_delta_u))

        data, config = tmp_path / "audit.csv", tmp_path / "schema.json"
        export_csv(ds, str(data), schema)
        config.write_text(json.dumps({
            "services": [{"name": name, "column": col} for name, col in schema.services],
            "observed": schema.observed_column,
            "groups": dict(schema.group_columns),
            "pairs": [dataclasses.asdict(pair) for pair in schema.pairs],
        }))
        argv = ["audit", "--data", str(data), "--config", str(config),
                "--output-dir", str(tmp_path / "out")]
        assert fairalloc.cli.main(argv) == 0

    def test_one_kernel_pass_per_distinct_grid(self, monkeypatch):
        import fairalloc.audit as audit_module

        calls = []
        kde_curves = audit_module.kde_curves

        def recorded(samples, bandwidth, grid, curves):
            calls.append(((grid[0], grid[-1]), len(samples)))
            return kde_curves(samples, bandwidth, grid, curves)

        monkeypatch.setattr(audit_module, "kde_curves", recorded)
        ds = build_synthetic_dataset(n=800, seed=12)
        report = run_audit(ds, homeless_schema())
        unions = {}
        for pair in report.pairs:
            grid = pair.delta_u.kde_0.grid
            assert np.shares_memory(pair.delta_u.kde_1.grid, grid)
            masks = [eval_group_expr(expr, ds.groups) for expr in (pair.pair.group0,
                                                                   pair.pair.group1)]
            held = unions.setdefault((grid[0], grid[-1]), np.zeros(ds.n, dtype=bool))
            held |= masks[0] | masks[1]
            delta_u = ds.utilities.max(axis=1) - ds.utilities.min(axis=1)
            for mask, curve in zip(masks, (pair.delta_u.kde_0, pair.delta_u.kde_1)):
                own = fairalloc.kde(delta_u[mask], 0.2, grid)
                assert curve.density.tobytes() == own.density.tobytes()
        assert len(unions) < len(report.pairs)  # some grid serves two pairs
        assert sorted(calls) == sorted((ends, int(held.sum())) for ends, held in unions.items())

    def test_golden_grids_schema_shares_grids(self):
        """The golden corpus's "audit-grids" call: its pairs land on two grids
        that several pairs share, and on one that a pair has alone."""
        path = Path(__file__).parent / "golden" / "inputs" / "grids_schema.json"
        schema = AuditSchema.from_dict(json.loads(path.read_text()))
        report = run_audit(build_synthetic_dataset(), schema)
        pairs_by_grid = {}
        for pair in report.pairs:
            grid = pair.delta_u.kde_0.grid
            pairs_by_grid.setdefault((grid[0], grid[-1]), []).append(pair.pair.name)
        assert sorted(map(len, pairs_by_grid.values())) == [1, 3, 4]

    def test_curves_cannot_write_a_shared_grid(self):
        report = run_audit(build_synthetic_dataset(n=800, seed=12), homeless_schema())
        curves = [c for p in report.pairs for c in (p.delta_u.kde_0, p.delta_u.kde_1)]
        shared = [c for c in curves[1:] if np.shares_memory(c.grid, curves[0].grid)]
        assert shared
        with pytest.raises(ValueError, match="read-only"):
            shared[-1].grid[0] = 0.0

    @pytest.mark.parametrize("later, error, message", [
        (GroupPair("later", "children & ~children", "~children"), EmptyGroupError,
         "empty-group: pair 'later' group 1"),
        (GroupPair("later", "children", "children"), ValueError,
         "pair 'later': group expressions overlap"),
    ])
    def test_kernel_faults_come_after_every_pairs_other_checks(self, later, error, message):
        """With a bandwidth whose kernel overflows on every pair, a later
        pair's own fault is the one reported."""
        ds = build_synthetic_dataset(n=100, seed=2)
        first = GroupPair("first", "children", "~children")
        alone = dataclasses.replace(SMALL_SCHEMA, pairs=(first,))
        with pytest.raises(ValueError, match="^bandwidth 1e-160 is out of range"):
            run_audit(ds, alone, bandwidth=1e-160)
        both = dataclasses.replace(SMALL_SCHEMA, pairs=(first, later))
        with pytest.raises(error, match="^" + re.escape(message) + "$"):
            run_audit(ds, both, bandwidth=1e-160)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0])
    def test_bad_fair_tolerance_rejected(self, tolerance):
        ds = build_synthetic_dataset(n=100, seed=2)
        for schema in (homeless_schema(), NO_PAIRS):  # checked even with no pair to audit
            with pytest.raises(ValueError, match="fair_tolerance must be finite and >= 0"):
                run_audit(ds, schema, fair_tolerance=tolerance)

    @pytest.mark.parametrize("bandwidth", [float("nan"), float("inf"), -1.0, 0.0])
    def test_bad_bandwidth_rejected(self, bandwidth):
        ds = build_synthetic_dataset(n=100, seed=2)
        for schema in (homeless_schema(), NO_PAIRS):
            with pytest.raises(ValueError, match="bandwidth must be finite and > 0"):
                run_audit(ds, schema, bandwidth=bandwidth)


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
    dense KDE (its 512 x 120,000 float64 matrix alone takes 490 MB) and of a
    reader that holds every raw row at once (about 220 MB in all)."""
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
    assert peak_mb < 200


# the child's peak RSS in kB, after a `homeless` audit
PEAK_KB_CHILD = r"""
import re, sys
from fairalloc.cli import main
code = main(["audit", "--data", sys.argv[1], "--config", "homeless", "--output-dir", sys.argv[2]])
status = open("/proc/self/status").read()
print(code, re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_audit_peak_rss_grows_under_210_bytes_a_row(tmp_path):
    """From 20,000 to 80,000 households, the peak RSS of a `homeless` audit
    grows by under 210 B a row. The dataset holds one float64 utility per
    service and no id, and the reader keeps no `str` per id past the chunk
    it was read in; a `str` per id, in a list and a set, took about 255 B a
    row in all."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(fairalloc.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    peak_kb = {}
    for n in (20_000, 80_000):
        data = tmp_path / f"audit-{n}.csv"
        write_synthetic_csv(data, n=n, seed=1)
        result = subprocess.run(
            [sys.executable, "-c", PEAK_KB_CHILD, str(data), str(tmp_path / f"out-{n}")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        code, peak_kb[n] = map(int, result.stdout.split()[-2:])
        assert code == 0
    per_row = (peak_kb[80_000] - peak_kb[20_000]) * 1024 / 60_000
    assert per_row < 210, f"peak RSS grows by {per_row:.0f} B a row"
