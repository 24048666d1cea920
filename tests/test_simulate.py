"""Sampler distribution checks, experiment reproducibility, and the
stylized-framework verification harnesses."""

import dataclasses
import functools
import multiprocessing as mp
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from fairalloc import (
    CapacityVector,
    GaussianGroupParams,
    NoHeterogeneityError,
    PolicySpec,
    SF1Params,
    SF2Params,
    delta_metrics,
    load_experiment_config,
    run_experiment,
    verify_sign_flip,
)
from fairalloc import simulate
from fairalloc.policies import compile_spec
from fairalloc.simulate import (
    _POLICY_STREAM,
    allocate_group_priority,
    gain_fair_allocator,
    params_from_dict,
    sf1_identity,
    sf2_identity,
)
from fairalloc._rng import spawn_seed, standard_normal, uniform_open


def exp1_params(n_per_group=300, caps=None):
    caps = caps if caps is not None else [n_per_group] * 3
    return GaussianGroupParams(
        means=[[0.2, 0.3, 0.4], [0.4, 0.5, 0.63]],
        variances=[[1e-4, 4e-4, 9e-4]] * 2,
        group_sizes=(n_per_group, n_per_group),
        capacities=CapacityVector(caps),
    )


def exp2_params(n_per_group=300):
    cap = (2 * n_per_group) // 3
    return GaussianGroupParams(
        means=[[0.4, 0.5, 0.6]] * 2,
        variances=[[9e-5, 2e-3, 1e-2], [9e-3, 2e-2, 3e-2]],
        group_sizes=(n_per_group, n_per_group),
        capacities=CapacityVector([cap] * 3),
    )


class _StubGenerator:
    """Stands in for ``np.random.Generator``: ``integers`` returns ``high``
    minus each of the given offsets."""

    def __init__(self, *offsets):
        self.offsets = np.array(offsets, dtype=np.int64)

    def integers(self, low, high, size=None):
        assert size == self.offsets.size
        return high - self.offsets


class TestUniformOpen:
    def test_top_integer_draw_stays_below_one(self):
        # (2**53 - 1) + 0.5 rounds to 2**53 in float64: unclamped, u = 1.0 and z = inf
        assert uniform_open(_StubGenerator(1, 1), 2).tolist() == [np.nextafter(1.0, 0.0)] * 2
        assert np.isfinite(standard_normal(_StubGenerator(1), 1)).all()

    def test_clamp_moves_no_other_draw(self):
        offsets = (2, 3, 2**52, 2**53)  # the draws 2**53 - 2, 2**53 - 3, 2**52 and 0
        draws = (1 << 53) - np.array(offsets)
        expected = (draws.astype(np.float64) + 0.5) / float(1 << 53)
        u = uniform_open(_StubGenerator(*offsets), len(offsets))
        assert u.tolist() == expected.tolist()
        assert 0.0 < u.min() and u.max() < 1.0


class TestGaussianSampler:
    def test_group_means_near_targets(self):
        params = exp1_params(800)
        pop = params.sample(3)
        for s in (0, 1):
            mask = pop.group_mask("group", s)
            sample_means = pop.utilities[mask].mean(axis=0)
            tol = 4.0 * np.sqrt(params.variances[s] / mask.sum())
            assert np.all(np.abs(sample_means - params.means[s]) < tol)

    def test_near_zero_variance_limit(self):
        params = GaussianGroupParams(
            means=[[0.2, 0.3, 0.4], [0.4, 0.5, 0.63]],
            variances=[[1e-12] * 3] * 2,
            group_sizes=(50, 50),
            capacities=CapacityVector([50, 50, 50]),
        )
        pop = params.sample(0)
        du = pop.utilities.max(axis=1) - pop.utilities.min(axis=1)
        assert np.allclose(du[pop.group_mask("group", 0)], 0.2, atol=1e-4)

    def test_variance_ordering_matches_params(self):
        pop = exp2_params(800).sample(11)
        g1 = pop.group_mask("group", 1)
        var_g1 = pop.utilities[g1, 2].var(ddof=1)
        var_g0 = pop.utilities[~g1, 2].var(ddof=1)
        assert var_g1 > var_g0

    def test_same_seed_bitwise_identical(self):
        params = exp1_params(100)
        a, b = params.sample(9), params.sample(9)
        assert np.array_equal(a.utilities, b.utilities)
        assert not np.array_equal(a.utilities, params.sample(10).utilities)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianGroupParams(
                means=[[0.1], [0.2]],
                variances=[[0.0], [1.0]],
                group_sizes=(5, 5),
                capacities=CapacityVector([10]),
            )


class TestStylizedSamplers:
    def test_sf1_structure(self):
        params = SF1Params(
            r_high=0.8, r_low=0.2, pi0=0.7, pi1=0.3,
            group_sizes=(2000, 2000), capacities=CapacityVector([4000] * 3),
        )
        pop = params.sample(5)
        assert np.all(pop.utilities > 0)
        env_min = pop.utilities.min(axis=1)
        env_max = pop.utilities.max(axis=1)
        ratio = env_min / env_max
        type_b = pop.groups["type_b"] == 1
        assert np.allclose(ratio[type_b], 0.2)
        assert np.allclose(ratio[~type_b], 0.8)
        g1 = pop.group_mask("group", 1)
        assert np.mean(type_b[~g1]) == pytest.approx(0.7, abs=0.04)
        assert np.mean(type_b[g1]) == pytest.approx(0.3, abs=0.04)

    def test_sf1_conditional_homogeneity_across_groups(self):
        params = SF1Params(
            r_high=0.8, r_low=0.2, pi0=0.7, pi1=0.3,
            group_sizes=(4000, 4000), capacities=CapacityVector([8000] * 3),
        )
        pop = params.sample(17)
        type_b = pop.groups["type_b"] == 1
        g1 = pop.group_mask("group", 1)
        ratios = pop.utilities.min(axis=1) / pop.utilities.max(axis=1)
        for t_mask in (type_b, ~type_b):
            m0, m1 = pop.utilities[t_mask & ~g1].mean(), pop.utilities[t_mask & g1].mean()
            n = min((t_mask & ~g1).sum(), (t_mask & g1).sum())
            assert abs(m0 - m1) < 5.0 / np.sqrt(n)  # same conditional law
            assert np.allclose(ratios[t_mask], ratios[t_mask][0])

    def test_sf2_structure(self):
        params = SF2Params(
            u_low=0.5, u_high=1.5, p0=0.6, p1=0.2,
            group_sizes=(2000, 2000), capacities=CapacityVector([4000] * 3),
        )
        pop = params.sample(6)
        type_c = pop.groups["type_c"] == 1
        u_min = pop.utilities.min(axis=1)
        assert np.allclose(u_min[type_c], 0.5)
        assert np.allclose(u_min[~type_c], 1.5)
        g1 = pop.group_mask("group", 1)
        assert np.mean(type_c[~g1]) == pytest.approx(0.6, abs=0.04)
        assert np.mean(type_c[g1]) == pytest.approx(0.2, abs=0.04)

    def test_sf1_balanced_types_fair_on_multiplicative(self):
        params = SF1Params(
            r_high=0.8, r_low=0.2, pi0=0.5, pi1=0.5,
            group_sizes=(500, 500), capacities=CapacityVector([1000] * 3),
        )
        res = run_experiment(params, PolicySpec("random"), 50, 3)
        for key in ("delta_gain", "delta_shortfall"):
            est = res.metrics[key]
            assert abs(est.estimate) <= 2.0 * est.ci_half_width

    def test_sf1_gain_fair_policy_shifts_equitability(self):
        params = SF1Params(
            r_high=0.8, r_low=0.2, pi0=0.7, pi1=0.3,
            group_sizes=(500, 500), capacities=CapacityVector([1000] * 3),
        )
        res = run_experiment(params, gain_fair_allocator(params), 50, 3)
        dg, ds = res.metrics["delta_gain"], res.metrics["delta_shortfall"]
        assert abs(dg.estimate) <= 2.0 * dg.ci_half_width  # gain-fair by construction
        assert ds.estimate - ds.ci_half_width > 0  # sign(pi0 - pi1) = +1

    def test_sf2_worst_policy_exact_zeros(self):
        params = SF2Params(
            u_low=0.5, u_high=1.5, p0=0.7, p1=0.3,
            group_sizes=(300, 300), capacities=CapacityVector([600] * 3),
        )
        pop = params.sample(2)
        alloc = compile_spec(PolicySpec("assign-worst-ignoring-capacity"))(
            pop, params.capacities, 0
        )
        means = delta_metrics(pop, alloc, "group").means
        assert means["improvement"] == (0.0, 0.0)
        assert means["gain"] == (1.0, 1.0)

    def test_sf_identities_within_ci(self):
        sf1 = SF1Params(
            r_high=0.8, r_low=0.2, pi0=0.7, pi1=0.3,
            group_sizes=(400, 400), capacities=CapacityVector([800] * 3),
        )
        sf2 = SF2Params(
            u_low=0.5, u_high=1.5, p0=0.7, p1=0.3,
            group_sizes=(400, 400), capacities=CapacityVector([800] * 3),
        )
        allocator = compile_spec(PolicySpec("random"))
        reps = 50
        resid_g, resid_i = [], []
        for r in range(reps):
            pop = sf1.sample(100 + r)
            alloc = allocator(pop, sf1.capacities, spawn_seed(100 + r, _POLICY_STREAM))
            ident = sf1_identity(pop, alloc, sf1)
            resid_g.append(ident["delta_gain"] - ident["delta_gain_predicted"])

            pop2 = sf2.sample(200 + r)
            alloc2 = allocator(pop2, sf2.capacities, spawn_seed(200 + r, _POLICY_STREAM))
            ident2 = sf2_identity(pop2, alloc2, sf2)
            resid_i.append(ident2["delta_improvement"] - ident2["delta_improvement_predicted"])
        for residuals in (resid_g, resid_i):
            arr = np.array(residuals)
            ci = 1.96 * arr.std(ddof=1) / np.sqrt(reps)
            assert abs(arr.mean()) <= 2.0 * ci


class TestRunExperiment:
    def test_requires_two_replications(self):
        with pytest.raises(ValueError):
            run_experiment(exp1_params(50), PolicySpec("random"), 1, 0)

    def test_bitwise_reproducible(self):
        params = exp1_params(100, caps=[70, 70, 70])
        a = run_experiment(params, PolicySpec("random"), 12, 5)
        b = run_experiment(params, PolicySpec("random"), 12, 5)
        assert a.to_dict() == b.to_dict()

    def test_threads_do_not_change_results(self):
        params = exp1_params(60, caps=[45, 45, 45])
        serial = run_experiment(params, PolicySpec("random"), 8, 3, threads=1)
        parallel = run_experiment(params, PolicySpec("random"), 8, 3, threads=2)
        assert serial.to_dict() == parallel.to_dict()

    @pytest.mark.parametrize(
        "threads, reps, expected", [(5000, 2, 2), (8, 8, 4), (3, 8, 3), (1, 8, None)]
    )
    def test_worker_count_capped(self, monkeypatch, threads, reps, expected):
        # a fake pool: a large thread count must never start real processes
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 4)
        params = exp1_params(30, caps=[25, 25, 25])
        result = run_experiment(params, PolicySpec("random"), reps, 3, threads=threads)
        assert pools == ([] if expected is None else [expected])
        assert result.to_dict() == run_experiment(params, PolicySpec("random"), reps, 3).to_dict()

    def test_workers_keep_the_callers_float_guard(self, monkeypatch):
        # spawned workers inherit no numpy error state: the guard must travel
        # with each job, or the overflow below is a warning and an inf estimate
        spawn = functools.partial(ProcessPoolExecutor, mp_context=mp.get_context("spawn"))
        monkeypatch.setattr(simulate, "ProcessPoolExecutor", spawn)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
        params = simulate.params_from_dict({
            "means": [[1e308, 0.3, 0.4], [0.4, 0.5, 0.63]],
            "variances": [[1e-4, 4e-4, 9e-4]] * 2,
            "group_sizes": [20, 20], "capacities": [20, 20, 20],
        })
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="in divide"):
            run_experiment(params, PolicySpec("random"), 2, 0, threads=2)

    def test_exp1_random_signs(self):
        params = exp1_params(300, caps=[200, 200, 200])
        res = run_experiment(params, PolicySpec("random"), 40, 9)
        di, dr, dg = (res.metrics[k] for k in ("delta_improvement", "delta_regret", "delta_gain"))
        assert di.estimate > 0 and di.excludes_zero()
        assert dr.estimate > 0 and dr.excludes_zero()
        assert np.sign(dg.estimate) != np.sign(di.estimate) and dg.excludes_zero()

    def test_exp2_utilitarian_favors_group1(self):
        res = run_experiment(exp2_params(300), PolicySpec("utilitarian"), 30, 5)
        assert res.metrics["delta_improvement"].estimate > 0
        assert res.metrics["delta_regret"].estimate < 0
        assert res.metrics["delta_gain"].estimate > 0
        assert res.metrics["delta_shortfall"].estimate > 0
        assert all(m.excludes_zero() for m in res.metrics.values())
        assert (
            res.aux["best_service_fraction_group1"].estimate
            > res.aux["best_service_fraction_group0"].estimate
        )

    def test_multiplicative_disabled_replications_are_dropped(self):
        params = GaussianGroupParams(
            means=[[0.05, 0.2], [0.05, 0.2]],  # ~30% of draws non-positive per rep
            variances=[[1e-2, 1e-4]] * 2,
            group_sizes=(3, 3),
            capacities=CapacityVector([6, 6]),
        )
        res = run_experiment(params, PolicySpec("random"), 40, 1)
        assert res.metrics["delta_improvement"].replications == 40
        gain = res.metrics["delta_gain"]
        assert gain is None or gain.replications < 40

    def test_result_serializes(self):
        import json

        res = run_experiment(exp1_params(50, caps=[40, 40, 40]), PolicySpec("random"), 5, 2)
        payload = json.dumps(res.to_dict(), sort_keys=True)
        assert "delta_improvement" in payload


class TestBestAllocatorOnExperiment1:
    def test_best_service_is_third_for_both_groups(self):
        from fairalloc import allocate_best

        pop = exp1_params(500).sample(21)
        alloc = allocate_best(pop)
        for s in (0, 1):
            mask = pop.group_mask("group", s)
            frac = np.mean(alloc.assignment[mask] == 3)
            assert frac > 0.99


class TestMutationSanity:
    def test_identity_check_catches_sign_bug(self, monkeypatch):
        import fairalloc.simulate as sim

        true_delta_metrics = sim.delta_metrics

        def flipped(pop, alloc, attribute):
            report = true_delta_metrics(pop, alloc, attribute)
            # swapped group means negate the regret delta
            regret = report.means["regret"][::-1]
            return dataclasses.replace(report, means={**report.means, "regret": regret})

        monkeypatch.setattr(sim, "delta_metrics", flipped)
        outcome = sim._check_additive_identity(7)
        assert not outcome.passed
        with pytest.raises(RuntimeError, match="additive-identity"):
            run_experiment(exp1_params(50, caps=[40, 40, 40]), PolicySpec("random"), 3, 0)


class TestGroupPriority:
    def test_priority_direction(self):
        params = exp1_params(200, caps=[140, 140, 140])
        pop = params.sample(4)
        favored0 = allocate_group_priority(pop, params.capacities, "group", 0)
        favored1 = allocate_group_priority(pop, params.capacities, "group", 1)
        r0 = delta_metrics(pop, favored0, "group")
        r1 = delta_metrics(pop, favored1, "group")
        assert r0.deltas["improvement"] < 0 < r1.deltas["improvement"]
        assert favored0.is_feasible(pop, params.capacities)


class TestSignFlip:
    def test_finds_flip_on_heterogeneous_groups(self):
        report = verify_sign_flip(exp1_params(200, caps=[140, 140, 140]),
                                  replications=25, base_seed=13)
        assert report.found
        assert 0.0 < report.lam < 1.0
        last = report.evaluations[-1]
        assert last["delta_improvement"] - last["delta_improvement_ci"] > 0
        assert last["delta_regret"] - last["delta_regret_ci"] > 0
        assert report.endpoint_deltas[0] < 0 < report.endpoint_deltas[1]

    def test_identical_groups_raise_no_heterogeneity(self):
        params = GaussianGroupParams(
            means=[[0.2, 0.3, 0.4]] * 2,
            variances=[[1e-4, 4e-4, 9e-4]] * 2,
            group_sizes=(100, 100),
            capacities=CapacityVector([70, 70, 70]),
        )
        with pytest.raises(NoHeterogeneityError):
            verify_sign_flip(params, replications=20, base_seed=3)


class TestConfigs:
    def test_presets_load(self):
        for name, policy_kind in (("experiment1", "random"), ("experiment2", "utilitarian")):
            config = load_experiment_config(name)
            assert config.params.group_sizes == (1500, 1500)
            assert config.params.capacities.capacities.tolist() == [1000, 1000, 1000]
            assert config.policy.kind == policy_kind
            assert config.replications == 100
        exp1 = load_experiment_config("experiment1")
        assert exp1.params.means[1].tolist() == [0.4, 0.5, 0.63]
        exp2 = load_experiment_config("experiment2")
        assert exp2.params.variances[1].tolist() == [9e-3, 2e-2, 3e-2]

    def test_config_from_file(self, tmp_path):
        import json

        data = {
            "kind": "sf1", "r_high": 0.9, "r_low": 0.3, "pi0": 0.6, "pi1": 0.4,
            "group_sizes": [10, 10], "capacities": [20, 20],
            "policy": {"kind": "random", "seed": 4}, "replications": 7, "base_seed": 2,
        }
        path = tmp_path / "params.json"
        path.write_text(json.dumps(data))
        config = load_experiment_config(str(path))
        assert isinstance(config.params, SF1Params)
        assert config.policy.seed == 4
        assert config.replications == 7


# params files setting every optional key, each with the dataclass built from
# the same values by keyword; sf1 and sf2 do not read ``attribute``
FULL_CONFIGS = [
    ({"kind": "gaussian", "means": [[0.2, 0.3], [0.4, 0.5]], "variances": [[1e-4, 4e-4]] * 2,
      "group_sizes": [3, 4], "capacities": [4, 5], "attribute": "g"},
     GaussianGroupParams(means=[[0.2, 0.3], [0.4, 0.5]], variances=[[1e-4, 4e-4]] * 2,
                         group_sizes=(3, 4), capacities=CapacityVector([4, 5]), attribute="g")),
    ({"kind": "sf1", "r_high": 0.9, "r_low": 0.3, "pi0": 0.6, "pi1": 0.4, "group_sizes": [3, 4],
      "capacities": [4, 5, 6, 7], "u_max_range": [1.5, 3], "k": 4, "attribute": "g"},
     SF1Params(r_high=0.9, r_low=0.3, pi0=0.6, pi1=0.4, group_sizes=(3, 4),
               capacities=CapacityVector([4, 5, 6, 7]), u_max_range=(1.5, 3.0), k=4)),
    ({"kind": "sf2", "u_low": 0.5, "u_high": 1.5, "p0": 0.7, "p1": 0.3, "group_sizes": [3, 4],
      "capacities": [4, 5], "spread_range": [0.2, 0.9], "k": 2, "attribute": "g"},
     SF2Params(u_low=0.5, u_high=1.5, p0=0.7, p1=0.3, group_sizes=(3, 4),
               capacities=CapacityVector([4, 5]), spread_range=(0.2, 0.9), k=2)),
]


@pytest.mark.parametrize("data, expected", FULL_CONFIGS, ids=["gaussian", "sf1", "sf2"])
def test_params_from_dict_reads_every_key(data, expected):
    got = params_from_dict(data)
    assert type(got) is type(expected)
    for field in dataclasses.fields(expected):
        value, want = getattr(got, field.name), getattr(expected, field.name)
        if isinstance(want, CapacityVector):
            value, want = value.capacities, want.capacities
        assert type(value) is type(want), field.name
        np.testing.assert_array_equal(value, want, err_msg=field.name)
