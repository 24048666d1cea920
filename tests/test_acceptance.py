"""Acceptance suite. One test per criterion; each enforces its stated
tolerance and runtime budget and prints a PASS line (run with -s or -v to
see them)."""

import itertools
import json
import math
import time

import numpy as np
import pytest
from conftest import build_tradeoff_dataset, homeless_schema, write_synthetic_csv
from scipy.integrate import quad

from fairalloc import (
    Allocation,
    CapacityVector,
    GaussianGroupParams,
    Population,
    PolicySpec,
    SF1Params,
    SF2Params,
    allocate_utilitarian,
    delta_metrics,
    envelope,
    ingest_csv,
    run_audit,
    run_experiment,
    welch_t,
)
from fairalloc.audit import DEFAULT_FAIR_TOLERANCE, trade_off_flags
from fairalloc.cli import main as cli_main
from fairalloc.policies import compile_spec
from fairalloc.simulate import gain_fair_allocator


def report_pass(name: str, elapsed: float, detail: str = ""):
    suffix = f" — {detail}" if detail else ""
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s){suffix}")


def exp1_full():
    return GaussianGroupParams(
        means=[[0.2, 0.3, 0.4], [0.4, 0.5, 0.63]],
        variances=[[1e-4, 4e-4, 9e-4]] * 2,
        group_sizes=(1500, 1500),
        capacities=CapacityVector([1000, 1000, 1000]),
    )


def exp2_full():
    return GaussianGroupParams(
        means=[[0.4, 0.5, 0.6]] * 2,
        variances=[[9e-5, 2e-3, 1e-2], [9e-3, 2e-2, 3e-2]],
        group_sizes=(1500, 1500),
        capacities=CapacityVector([1000, 1000, 1000]),
    )


def test_criterion_1_additive_identity_exact():
    """1,000 random instances: |dI + dR - (mean dU_1 - mean dU_0)| <= 1e-12."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        k = int(rng.integers(1, 6))
        utilities = rng.uniform(-1.0, 1.0, (n, k)) if rng.random() < 0.5 else rng.normal(
            0.4, 0.3, (n, k)
        )
        labels = np.zeros(n, dtype=np.int8)
        labels[rng.permutation(n)[: int(rng.integers(1, n))]] = 1
        pop = Population(utilities, {"g": labels})
        alloc = Allocation(rng.integers(1, k + 1, n))  # feasible for caps = its counts
        deltas = delta_metrics(pop, alloc, "g").deltas
        delta_u = envelope(pop).delta_u
        du = float(np.mean(delta_u[labels == 1])) - float(np.mean(delta_u[labels == 0]))
        worst = max(worst, abs(deltas["improvement"] + deltas["regret"] - du))
    elapsed = time.monotonic() - start
    assert worst <= 1e-12, f"identity residual {worst:.3e} exceeds 1e-12"
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    report_pass("criterion-1 additive-identity", elapsed, f"max residual {worst:.2e}")


def _enumerate_oracle(utilities, caps):
    n, k = utilities.shape
    grid = np.array(list(itertools.product(range(k), repeat=n)), dtype=np.int64)
    counts = np.stack([(grid == j).sum(axis=1) for j in range(k)], axis=1)
    feasible = np.all(counts <= caps, axis=1)
    totals = utilities[np.arange(n), grid].sum(axis=1)
    totals[~feasible] = -np.inf
    return float(totals.max())


def test_criterion_2_utilitarian_oracle_equivalence():
    """500 draws with K <= 3, N <= 8: solver total == exhaustive optimum."""
    start = time.monotonic()
    rng = np.random.default_rng(202)
    for trial in range(500):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 4))
        utilities = rng.integers(0, 1025, (n, k)) / 1024.0  # dyadic: exact totals
        while True:
            caps = rng.integers(0, n + 1, k)
            if caps.sum() >= n:
                break
        pop = Population(utilities)
        alloc = allocate_utilitarian(pop, CapacityVector(caps))
        solver_total = utilities[np.arange(n), alloc.assignment - 1].sum()
        oracle_total = _enumerate_oracle(utilities, caps)
        assert solver_total == oracle_total, (
            f"trial {trial}: solver {solver_total!r} != oracle {oracle_total!r}"
        )
        assert alloc.is_feasible(pop, CapacityVector(caps))
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"
    report_pass("criterion-2 utilitarian-oracle", elapsed, "500/500 exact")


def test_criterion_3_mixture_interpolation():
    """lambda=0.5 mixture mean dI within its own 95% CI of (delta+delta')/2,
    with each policy's dI estimated over 1,000 seeds on a fixed population."""
    start = time.monotonic()
    params = GaussianGroupParams(
        means=[[0.2, 0.3, 0.4], [0.4, 0.5, 0.63]],
        variances=[[1e-4, 4e-4, 9e-4]] * 2,
        group_sizes=(200, 200),
        capacities=CapacityVector([400, 400, 400]),
    )
    pop = params.sample(303)
    caps = params.capacities
    alloc_a = compile_spec(PolicySpec("assign-best-ignoring-capacity"))
    alloc_b = compile_spec(PolicySpec("random"))
    mix = compile_spec(
        PolicySpec(
            "mixture",
            lam=0.5,
            children=(PolicySpec("assign-best-ignoring-capacity"), PolicySpec("random")),
        )
    )
    seeds = range(1000)
    delta_a = np.array(
        [delta_metrics(pop, alloc_a(pop, caps, s), "group").deltas["improvement"] for s in seeds]
    )
    delta_b = np.array(
        [delta_metrics(pop, alloc_b(pop, caps, s), "group").deltas["improvement"] for s in seeds]
    )
    mixed = np.array(
        [delta_metrics(pop, mix(pop, caps, s), "group").deltas["improvement"] for s in seeds]
    )
    target = 0.5 * (delta_a.mean() + delta_b.mean())
    estimate = mixed.mean()
    ci = 1.96 * mixed.std(ddof=1) / np.sqrt(mixed.size)
    elapsed = time.monotonic() - start
    assert abs(estimate - target) <= ci, (
        f"mixture dI {estimate:.6f} not within {ci:.6f} of {target:.6f}"
    )
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"
    report_pass(
        "criterion-3 mixture-interpolation",
        elapsed,
        f"|{estimate:.5f} - {target:.5f}| <= {ci:.5f}",
    )


def test_criterion_4_experiment1_reproduction():
    """Published scale, random policy: dI > 0 and dR > 0 (CIs exclude 0);
    multiplicative normalization reverses the favored group."""
    start = time.monotonic()
    res = run_experiment(exp1_full(), PolicySpec("random"), 100, 404)
    di, dr, dg = (res.metrics[k] for k in ("delta_improvement", "delta_regret", "delta_gain"))
    elapsed = time.monotonic() - start
    assert di.estimate > 0 and abs(di.estimate) > di.ci_half_width, f"dI {di}"
    assert dr.estimate > 0 and abs(dr.estimate) > dr.ci_half_width, f"dR {dr}"
    assert np.sign(dg.estimate) != np.sign(di.estimate), f"dG {dg}"
    assert abs(dg.estimate) > dg.ci_half_width, f"dG {dg}"
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"
    report_pass(
        "criterion-4 experiment-1",
        elapsed,
        f"dI={di.estimate:.4f}, dR={dr.estimate:.4f}, dG={dg.estimate:.4f}",
    )


def test_criterion_5_experiment2_reproduction():
    """Published scale, utilitarian policy: group 1 favored on all four
    metrics; best-service fractions 0.65 / 0.46 within 0.05."""
    start = time.monotonic()
    res = run_experiment(exp2_full(), PolicySpec("utilitarian"), 100, 505)
    di, dr = res.metrics["delta_improvement"], res.metrics["delta_regret"]
    dg, ds = res.metrics["delta_gain"], res.metrics["delta_shortfall"]
    frac0 = res.aux["best_service_fraction_group0"]
    frac1 = res.aux["best_service_fraction_group1"]
    elapsed = time.monotonic() - start
    assert di.estimate > 0 and abs(di.estimate) > di.ci_half_width, f"dI {di}"
    assert dr.estimate < 0 and abs(dr.estimate) > dr.ci_half_width, f"dR {dr}"
    assert dg is not None and dg.estimate > 0, f"dG {dg}"
    assert abs(dg.estimate) > dg.ci_half_width, f"dG {dg}"
    assert ds is not None and ds.estimate > 0, f"dS {ds}"
    assert abs(ds.estimate) > ds.ci_half_width, f"dS {ds}"
    assert abs(frac1.estimate - 0.65) <= 0.05, f"group-1 best fraction {frac1.estimate:.3f}"
    assert abs(frac0.estimate - 0.46) <= 0.05, f"group-0 best fraction {frac0.estimate:.3f}"
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"
    report_pass(
        "criterion-5 experiment-2",
        elapsed,
        f"fractions {frac1.estimate:.3f}/{frac0.estimate:.3f}, dG over {dg.replications} reps",
    )


def test_criterion_6_stylized_framework_harness():
    """SF1: balanced types leave both multiplicative deltas within 2x CI of 0;
    skewed types under a calibrated gain-fair policy give sign(dS) =
    sign(pi0 - pi1). SF2: worst-assignment policy zeroes dI and dG exactly."""
    start = time.monotonic()
    balanced = SF1Params(
        r_high=0.8, r_low=0.2, pi0=0.5, pi1=0.5,
        group_sizes=(500, 500), capacities=CapacityVector([1000] * 3),
    )
    res = run_experiment(balanced, PolicySpec("random"), 80, 606)
    dg, ds = res.metrics["delta_gain"], res.metrics["delta_shortfall"]
    assert abs(dg.estimate) <= 2 * dg.ci_half_width, f"balanced dG {dg}"
    assert abs(ds.estimate) <= 2 * ds.ci_half_width, f"balanced dS {ds}"

    skewed = SF1Params(
        r_high=0.8, r_low=0.2, pi0=0.7, pi1=0.3,
        group_sizes=(500, 500), capacities=CapacityVector([1000] * 3),
    )
    res2 = run_experiment(skewed, gain_fair_allocator(skewed), 80, 607)
    ds2 = res2.metrics["delta_shortfall"]
    assert ds2.estimate > 0 and abs(ds2.estimate) > ds2.ci_half_width, f"calibrated dS {ds2}"

    sf2 = SF2Params(
        u_low=0.5, u_high=1.5, p0=0.7, p1=0.3,
        group_sizes=(500, 500), capacities=CapacityVector([1000] * 3),
    )
    worst = compile_spec(PolicySpec("assign-worst-ignoring-capacity"))
    for rep in range(10):
        pop = sf2.sample(608 + rep)
        deltas = delta_metrics(pop, worst(pop, sf2.capacities, 0), "group").deltas
        assert deltas["improvement"] == 0.0, "worst policy must zero dI exactly"
        assert deltas["gain"] == 0.0, "worst policy must zero dG exactly"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"
    report_pass(
        "criterion-6 stylized-frameworks",
        elapsed,
        f"balanced |dG|={abs(dg.estimate):.4f}, calibrated dS={ds2.estimate:.4f}",
    )


def _t_density(x, df):
    log_norm = (
        math.lgamma((df + 1.0) / 2.0) - math.lgamma(df / 2.0) - 0.5 * math.log(df * math.pi)
    )
    return math.exp(log_norm) * (1.0 + x * x / df) ** (-(df + 1.0) / 2.0)


def test_criterion_7_audit_pipeline(tmp_path):
    """3,375-row synthetic fixture: shares (0.68, 0.27, 0.05) +/- 0.01, group
    max-gain means 0.07 / 0.04 +/- 0.005, trade-off flag on the engineered
    dI = -0.013 / -dR = +0.016 fixture, Welch vs quadrature oracle to 1e-6."""
    start = time.monotonic()
    csv_path = tmp_path / "synthetic.csv"
    write_synthetic_csv(csv_path)
    dataset = ingest_csv(str(csv_path), homeless_schema())
    assert dataset.n == 3375
    report = run_audit(dataset, homeless_schema())

    shares = report.overall_shares.shares
    for got, want in zip(shares, (0.68, 0.27, 0.05)):
        assert abs(got - want) <= 0.01, f"shares {shares}"

    children = next(p for p in report.pairs if p.pair.name == "children")
    assert abs(children.delta_u.mean_0 - 0.07) <= 0.005, children.delta_u.mean_0
    assert abs(children.delta_u.mean_1 - 0.04) <= 0.005, children.delta_u.mean_1

    # two households, one per group: too few for the Welch test of run_audit
    tradeoff = build_tradeoff_dataset()
    observed = delta_metrics(tradeoff.population(), Allocation(tradeoff.observed), "children")
    assert observed.deltas["improvement"] == pytest.approx(-0.013)
    assert -observed.deltas["regret"] == pytest.approx(0.016)
    flags = trade_off_flags(observed, DEFAULT_FAIR_TOLERANCE)
    assert "improvement-regret-trade-off" in flags

    rng = np.random.default_rng(707)
    for _ in range(20):
        a = rng.normal(0.0, 1.0, int(rng.integers(3, 60)))
        b = rng.normal(rng.uniform(-0.5, 0.5), 1.4, int(rng.integers(3, 60)))
        result = welch_t(a, b)
        tail, _ = quad(_t_density, abs(result.t_statistic), np.inf,
                       args=(result.degrees_of_freedom,))
        assert abs(result.p_value - 2.0 * tail) <= 1e-6
    elapsed = time.monotonic() - start
    report_pass(
        "criterion-7 audit-pipeline",
        elapsed,
        f"shares {tuple(round(s, 3) for s in shares)}, means "
        f"{children.delta_u.mean_0:.4f}/{children.delta_u.mean_1:.4f}, flags {flags}",
    )


def test_criterion_8_cli_determinism(tmp_path):
    """Identical flags and seed produce byte-identical output files."""
    start = time.monotonic()
    params = {
        "kind": "gaussian",
        "means": [[0.2, 0.3, 0.4], [0.4, 0.5, 0.63]],
        "variances": [[1e-4, 4e-4, 9e-4]] * 2,
        "group_sizes": [90, 90],
        "capacities": [60, 60, 60],
        "policy": {"kind": "utilitarian"},
    }
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(params))
    pop_path = tmp_path / "pop.csv"
    rows = ["id,u_1,u_2,u_3,g"]
    rng = np.random.default_rng(808)
    for i in range(40):
        u = rng.uniform(0.1, 0.9, 3)
        rows.append(f"p{i},{float(u[0])!r},{float(u[1])!r},{float(u[2])!r},{i % 2}")
    pop_path.write_text("\n".join(rows) + "\n")
    data_path = tmp_path / "audit.csv"
    write_synthetic_csv(data_path, n=500, seed=9)

    invocations = [
        ["simulate", "--params", str(params_path), "--reps", "8", "--seed", "11"],
        ["solve", "--population", str(pop_path), "--capacities", "15,15,15",
         "--policy", "random", "--seed", "11"],
        ["solve", "--population", str(pop_path), "--capacities", "15,15,15",
         "--policy", "utilitarian"],
        ["audit", "--data", str(data_path), "--config", "homeless"],
    ]
    for idx, argv in enumerate(invocations):
        out_a = tmp_path / f"run{idx}a"
        out_b = tmp_path / f"run{idx}b"
        assert cli_main(argv + ["--output-dir", str(out_a)]) == 0
        assert cli_main(argv + ["--output-dir", str(out_b)]) == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b and files_a, f"{argv}: differing file sets"
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), (
                f"{argv}: {name} differs between runs"
            )
    elapsed = time.monotonic() - start
    report_pass("criterion-8 cli-determinism", elapsed, f"{len(invocations)} invocations")
