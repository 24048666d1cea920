"""Sampler distribution checks, experiment reproducibility, and the
stylized-framework verification harnesses."""

import concurrent.futures
import dataclasses
import functools
import multiprocessing as mp
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from fairalloc import (
    CapacityVector,
    GaussianGroupParams,
    InfeasibleError,
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
from fairalloc.core import METRICS, _first_best, _MetricBlock
from fairalloc.policies import compile_spec
from fairalloc.simulate import (
    _POLICY_STREAM,
    allocate_group_priority,
    gain_fair_allocator,
    params_from_dict,
    sf1_identity,
    sf2_identity,
)
from fairalloc._rng import generator, spawn_seed, standard_normal, uniform_open


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


def block_bytes(params):
    """The block budget that holds one replication of ``params``."""
    return _MetricBlock.replication_bytes(sum(params.group_sizes), params.k)


class _StubGenerator:
    """Stands in for ``np.random.Generator``: ``random`` returns ``m * 2**-53``
    for each 53-bit integer ``m = 2**53`` minus one of the given offsets."""

    def __init__(self, *offsets):
        self.offsets = np.array(offsets, dtype=np.int64)

    def random(self, size=None):
        assert size == self.offsets.size
        return ((1 << 53) - self.offsets).astype(np.float64) * 2.0**-53


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

    @pytest.mark.parametrize("size", [1, 7, (3000, 3)])
    def test_matches_the_integer_formula(self, size):
        """``gen.random`` plus 2**-54 gives the bits of (m + 0.5) / 2**53
        for ``m = gen.integers(0, 2**53)``, from the same generator outputs."""
        below_one = np.nextafter(1.0, 0.0)
        for seed in range(200):
            by_random, by_integers = generator(seed), generator(seed)
            u = uniform_open(by_random, size)
            m = by_integers.integers(0, 1 << 53, size=size)
            expected = np.minimum((m + 0.5) / float(1 << 53), below_one)
            assert u.dtype == expected.dtype and u.tobytes() == expected.tobytes()
            assert by_random.bit_generator.state == by_integers.bit_generator.state


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

    def test_pickled_params_sample_the_same_bytes(self):
        # pool workers receive the params pickled, with the tables built once
        params = exp2_params(150)
        received = pickle.loads(pickle.dumps(params))
        for seed in (0, 7):
            expected = exp2_params(150).sample(seed).utilities.tobytes()
            for pop in (params.sample(seed), received.sample(seed)):
                assert pop.utilities.tobytes() == expected
                labels = pop.groups["group"]
                assert labels.tolist() == [0] * 150 + [1] * 150
                assert not np.shares_memory(labels, params._labels)
                assert not np.shares_memory(labels, received._labels)

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

    @pytest.mark.parametrize("policy", [
        PolicySpec("utilitarian"),
        PolicySpec("mixture", lam=0.5, children=(PolicySpec("utilitarian"), PolicySpec("random"))),
    ], ids=["utilitarian", "mixture"])
    def test_threads_do_not_change_warm_started_results(self, policy):
        # each worker warm-starts the utilitarian solves of its own chunk only
        params = exp1_params(60, caps=[45, 45, 45])
        serial = run_experiment(params, policy, 8, 3, threads=1)
        parallel = run_experiment(params, policy, 8, 3, threads=2)
        assert serial.to_dict() == parallel.to_dict()

    def test_replications_warm_start_from_the_last_dual(self, transport_calls):
        config = load_experiment_config("experiment2")
        run_experiment(config.params, config.policy, 3, 0)
        calls = transport_calls
        assert [start for start, _ in calls] == [None, calls[0][1], calls[1][1]]

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

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 4)
        params = exp1_params(30, caps=[25, 25, 25])
        result = run_experiment(params, PolicySpec("random"), reps, 3, threads=threads)
        assert pools == ([] if expected is None else [expected])
        assert result.to_dict() == run_experiment(params, PolicySpec("random"), reps, 3).to_dict()

    def test_workers_keep_the_callers_float_guard(self, monkeypatch):
        # spawned workers inherit no numpy error state: the guard must travel
        # with each job, or the overflow below is a warning and an inf estimate
        spawn = functools.partial(ProcessPoolExecutor, mp_context=mp.get_context("spawn"))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spawn)
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
        assert di.estimate > 0 and abs(di.estimate) > di.ci_half_width
        assert dr.estimate > 0 and abs(dr.estimate) > dr.ci_half_width
        assert np.sign(dg.estimate) != np.sign(di.estimate)
        assert abs(dg.estimate) > dg.ci_half_width

    def test_exp2_utilitarian_favors_group1(self):
        res = run_experiment(exp2_params(300), PolicySpec("utilitarian"), 30, 5)
        assert res.metrics["delta_improvement"].estimate > 0
        assert res.metrics["delta_regret"].estimate < 0
        assert res.metrics["delta_gain"].estimate > 0
        assert res.metrics["delta_shortfall"].estimate > 0
        assert all(abs(m.estimate) > m.ci_half_width for m in res.metrics.values())
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


# a utility <= 0 in about a quarter of the replications: gain and shortfall
# are None in those
SIGNED = GaussianGroupParams(
    means=[[0.1, 0.2, 0.15], [0.12, 0.2, 0.3]],
    variances=[[2.5e-3, 1e-4, 4e-3], [2.5e-3, 1e-4, 9e-3]],
    group_sizes=(5, 7),
    capacities=CapacityVector([5, 5, 5]),
)
SF1 = SF1Params(r_high=0.8, r_low=0.2, pi0=0.7, pi1=0.3, group_sizes=(30, 20),
                capacities=CapacityVector([50, 50, 50]))
# type A individuals (ratio 1) rate every service the same: their first
# best service is service 1, whichever they are assigned
SF1_TIES = SF1Params(r_high=1.0, r_low=0.2, pi0=0.6, pi1=0.4, group_sizes=(25, 35),
                     capacities=CapacityVector([20, 20, 20, 20]), k=4)
SF2 = SF2Params(u_low=0.5, u_high=1.5, p0=0.7, p1=0.3, group_sizes=(40, 50),
                capacities=CapacityVector([30, 30, 40]))
UTILITARIAN = PolicySpec("utilitarian")
MIXTURE = PolicySpec("mixture", lam=0.5, children=(UTILITARIAN, PolicySpec("random")))
POLICIES = [PolicySpec("random"), UTILITARIAN, MIXTURE,
            PolicySpec("assign-best-ignoring-capacity"), PolicySpec("assign-worst-ignoring-capacity")]
BLOCK_CASES = [
    *[pytest.param(params, policy, id=f"{name}-{policy.describe()}")
      for name, params in (("signed", SIGNED), ("sf1", SF1), ("sf1-ties", SF1_TIES), ("sf2", SF2))
      for policy in POLICIES],
    pytest.param(SF1, gain_fair_allocator(SF1), id="sf1-gain-fair"),
]


def replication_rows(params, policy, base_seed, reps):
    """Each replication's values as one population at a time gives them:
    ``delta_metrics`` and ``_first_best`` on its own population."""
    allocator = compile_spec(policy) if isinstance(policy, PolicySpec) else policy
    rows = []
    for rep in range(reps):
        pop, alloc = simulate._replica(params, allocator, base_seed, rep)
        report = delta_metrics(pop, alloc, params.attribute)
        du0, du1 = report.mean_delta_u
        g1 = pop.group_mask(params.attribute, 1)
        best = _first_best(pop.utilities) + 1 == alloc.assignment
        n1, best1 = int(g1.sum()), int((best & g1).sum())
        rows.append({
            **{f"delta_{name}": report.deltas[name] for name in METRICS},
            "best_service_fraction_group0": (int(best.sum()) - best1) / (pop.n - n1),
            "best_service_fraction_group1": best1 / n1,
            "mean_delta_u_group0": du0,
            "mean_delta_u_group1": du1,
            "delta_mean_delta_u": du1 - du0,
        })
    return rows


class TestReplicationBlocks:
    """Replications run in blocks sized by ``simulate._BLOCK_BYTES``; the
    block size never changes a row or a result."""

    REPS = 23  # a multiple of none of the block sizes, at most 23 // 4 = 5

    @staticmethod
    def budgets(params):
        """(block size, budget) pairs: budgets for
        blocks of 1, 2 and 3 replications, the default, and one for more
        than there are (a block holds at most a quarter of them)."""
        one = block_bytes(params)
        return [(1, one), (2, 2 * one), (3, 3 * one), (5, simulate._BLOCK_BYTES),
                (5, (TestReplicationBlocks.REPS + 5) * one)]

    @pytest.mark.parametrize("params, policy", BLOCK_CASES)
    def test_rows_and_results_do_not_depend_on_the_block_size(self, monkeypatch, params, policy):
        expected = [{key: repr(v) for key, v in row.items()}
                    for row in replication_rows(params, policy, 4, self.REPS)]
        blocks = []
        replicate_block = simulate._replicate_block

        def recorded(params, allocator, base_seed, reps, block):
            blocks.append(len(reps))
            return replicate_block(params, allocator, base_seed, reps, block)

        monkeypatch.setattr(simulate, "_replicate_block", recorded)
        results = []
        for size, budget in self.budgets(params):
            monkeypatch.setattr(simulate, "_BLOCK_BYTES", budget)
            blocks.clear()
            allocator = compile_spec(policy) if isinstance(policy, PolicySpec) else policy
            columns = simulate._columns(*simulate._replicate(params, allocator, 4, range(self.REPS)))
            rows = [{key: repr(column[r]) for key, column in columns.items()}
                    for r in range(self.REPS)]
            assert rows == expected, (size, budget)
            assert blocks == [size] * (self.REPS // size) + [self.REPS % size] * (self.REPS % size > 0)
            results.append(run_experiment(params, policy, self.REPS, 4).to_dict())
        assert all(result == results[0] for result in results)
        if params is SIGNED:
            defined = [row["delta_gain"] != "None" for row in expected]
            assert any(defined) and not all(defined)

    @pytest.mark.parametrize("params, policy", [
        pytest.param(SIGNED, PolicySpec("random"), id="signed-random"),
        pytest.param(SIGNED, UTILITARIAN, id="signed-utilitarian"),
        pytest.param(SF2, MIXTURE, id="sf2-mixture"),
    ])
    def test_pooled_chunks_cut_inside_blocks(self, monkeypatch, params, policy):
        # forked workers see the patched budget; 23 replications in 2 or 3
        # chunks cut blocks of 2 and 3 short
        fork = functools.partial(ProcessPoolExecutor, mp_context=mp.get_context("fork"))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", fork)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 3)
        expected = run_experiment(params, policy, self.REPS, 2).to_dict()
        for size, budget in self.budgets(params)[:4]:
            monkeypatch.setattr(simulate, "_BLOCK_BYTES", budget)
            for threads in (1, 2, 3):
                got = run_experiment(params, policy, self.REPS, 2, threads=threads).to_dict()
                assert got == expected, (size, threads)


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
    """Faults injected into the group means, which every metric path (the
    replication blocks and ``delta_metrics``) reads."""

    def test_identity_check_catches_sign_bug(self, monkeypatch):
        import fairalloc.simulate as sim
        from fairalloc import core

        true_group_means = core._group_means

        def flipped(rows, members):
            means = true_group_means(rows, members)
            # swapped group means negate the regret delta
            means[1] = means[1][..., ::-1].copy()
            return means

        monkeypatch.setattr(core, "_group_means", flipped)
        outcome = sim._check_additive_identity(7)
        assert not outcome.passed
        with pytest.raises(RuntimeError, match="additive-identity"):
            run_experiment(exp1_params(50, caps=[40, 40, 40]), PolicySpec("random"), 3, 0)

    def test_identity_bound_scales_with_the_utilities(self, monkeypatch):
        from fairalloc import core

        true_group_means = core._group_means

        def off_by_3e_9(rows, members):
            means = true_group_means(rows, members)
            means[1, ..., 1] += 3e-9
            return means

        monkeypatch.setattr(core, "_group_means", off_by_3e_9)
        small = exp1_params(50, caps=[40, 40, 40])  # every |utility| < 1: the bound is 1e-9
        with pytest.raises(RuntimeError, match="additive-identity"):
            run_experiment(small, PolicySpec("random"), 3, 0)
        # utilities near 2-6: the bound is 1e-9 times the largest, above 3e-9
        large = dataclasses.replace(small, means=small.means * 10.0)
        assert run_experiment(large, PolicySpec("random"), 3, 0).replications == 3

    def test_violation_in_the_last_partial_block_names_its_replication(self, monkeypatch):
        from fairalloc import core

        true_group_means = core._group_means

        def flipped_in_short_blocks(rows, members):
            means = true_group_means(rows, members)
            if rows.shape[1] < 3:  # the last replication of a partial block
                means[1, -1] = means[1, -1, ::-1].copy()
            return means

        params = exp1_params(50, caps=[40, 40, 40])
        monkeypatch.setattr(simulate, "_BLOCK_BYTES", 3 * block_bytes(params))
        monkeypatch.setattr(core, "_group_means", flipped_in_short_blocks)
        # eight blocks of 3, then replications 24 and 25
        with pytest.raises(RuntimeError, match=r"^additive-identity violation in replication 25"
                                               r" \(seed 35\): residual -?[0-9.e+-]+$"):
            run_experiment(params, PolicySpec("random"), 26, 10)


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

    def test_endpoint_run_errors_come_before_no_heterogeneity(self):
        # the precondition is read off the first endpoint's run, so an error
        # of that run surfaces first
        params = GaussianGroupParams(
            means=[[0.2, 0.3, 0.4]] * 2,
            variances=[[1e-4, 4e-4, 9e-4]] * 2,
            group_sizes=(100, 100),
            capacities=CapacityVector([50, 50, 50]),
        )
        with pytest.raises(InfeasibleError, match="total capacity 150 < population 200"):
            verify_sign_flip(params, replications=5, base_seed=3)


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
