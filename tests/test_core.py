"""Core metric tests: worked examples cross-checked against brute-force
oracles, plus property tests of the identities the metrics must satisfy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairalloc import (
    Allocation,
    CapacityVector,
    EmptyGroupError,
    Population,
    RatioUndefinedError,
    delta_metrics,
    envelope,
    gain_mean,
    improvement_mean,
    mean_delta_u,
    regret_mean,
    shortfall_mean,
)


def oracle_mean(utilities, assignment, labels, value, kind):
    """Loop-based reference implementation of the four group means."""
    acc = []
    for i, row in enumerate(utilities):
        if labels[i] != value:
            continue
        worst, best = min(row), max(row)
        realized = row[assignment[i] - 1]
        acc.append(
            {
                "improvement": realized - worst,
                "regret": best - realized,
                "gain": realized / worst,
                "shortfall": realized / best,
            }[kind]
        )
    return sum(acc) / len(acc)


FIXTURE_U = [[0.2, 0.6, 0.4], [0.5, 0.1, 0.3], [0.9, 0.8, 0.7]]
FIXTURE_LABELS = [0, 1, 1]
FIXTURE_ASSIGN = [2, 1, 3]


@pytest.fixture
def fixture_pop():
    return Population(np.array(FIXTURE_U), {"g": np.array(FIXTURE_LABELS)})


@pytest.fixture
def fixture_alloc():
    return Allocation(np.array(FIXTURE_ASSIGN))


class TestEnvelope:
    def test_basic(self):
        env = envelope(Population(np.array([[0.2, 0.5, 0.3]])))
        assert env.u_min[0] == pytest.approx(0.2)
        assert env.u_max[0] == pytest.approx(0.5)
        assert env.delta_u[0] == pytest.approx(0.3)
        assert env.ratio_r[0] == pytest.approx(0.4)

    def test_constant_vector(self):
        env = envelope(Population(np.array([[0.7, 0.7]])))
        assert env.delta_u[0] == 0.0
        assert env.ratio_r[0] == 1.0

    def test_nonpositive_entry_disables_ratio(self):
        env = envelope(Population(np.array([[-0.1, 0.2]])))
        assert env.delta_u[0] == pytest.approx(0.3)
        assert env.ratio_r is None
        assert not env.ratio_defined


class TestMetricExamples:
    def test_worst_assignment_zero_improvement(self, fixture_pop):
        worst = Allocation(np.argmin(fixture_pop.utilities, axis=1) + 1)
        for value in (0, 1):
            assert improvement_mean(fixture_pop, worst, "g", value) == 0.0

    def test_single_member_improvement(self):
        pop = Population(np.array([[0.2, 0.6]]), {"g": [1]})
        assert improvement_mean(pop, Allocation([2]), "g", 1) == pytest.approx(0.4)

    def test_best_assignment_zero_regret(self, fixture_pop):
        best = Allocation(np.argmax(fixture_pop.utilities, axis=1) + 1)
        for value in (0, 1):
            assert regret_mean(fixture_pop, best, "g", value) == 0.0

    def test_single_member_regret(self):
        pop = Population(np.array([[0.2, 0.6]]), {"g": [1]})
        assert regret_mean(pop, Allocation([1]), "g", 1) == pytest.approx(0.4)

    def test_gain_examples(self):
        pop = Population(np.array([[0.2, 0.4]]), {"g": [0]})
        assert gain_mean(pop, Allocation([2]), "g", 0) == pytest.approx(2.0)
        assert gain_mean(pop, Allocation([1]), "g", 0) == 1.0

    def test_shortfall_examples(self):
        pop = Population(np.array([[0.2, 0.4]]), {"g": [0]})
        assert shortfall_mean(pop, Allocation([2]), "g", 0) == 1.0
        assert shortfall_mean(pop, Allocation([1]), "g", 0) == pytest.approx(0.5)

    def test_fixture_matches_oracle(self, fixture_pop, fixture_alloc):
        for kind, fn in (
            ("improvement", improvement_mean),
            ("regret", regret_mean),
            ("gain", gain_mean),
            ("shortfall", shortfall_mean),
        ):
            for value in (0, 1):
                expected = oracle_mean(FIXTURE_U, FIXTURE_ASSIGN, FIXTURE_LABELS, value, kind)
                assert fn(fixture_pop, fixture_alloc, "g", value) == pytest.approx(
                    expected, abs=1e-12
                )
        # frozen values from the oracle
        assert improvement_mean(fixture_pop, fixture_alloc, "g", 1) == pytest.approx(0.2)
        assert regret_mean(fixture_pop, fixture_alloc, "g", 1) == pytest.approx(0.1)
        assert gain_mean(fixture_pop, fixture_alloc, "g", 0) == pytest.approx(3.0)
        assert shortfall_mean(fixture_pop, fixture_alloc, "g", 1) == pytest.approx(8.0 / 9.0)

    def test_empty_group_raises(self, fixture_pop, fixture_alloc):
        pop = Population(np.array(FIXTURE_U), {"g": [1, 1, 1]})
        with pytest.raises(EmptyGroupError):
            improvement_mean(pop, fixture_alloc, "g", 0)

    def test_nonpositive_utilities_block_multiplicative(self):
        pop = Population(np.array([[0.0, 0.5], [0.2, 0.3]]), {"g": [0, 1]})
        alloc = Allocation([2, 2])
        with pytest.raises(RatioUndefinedError):
            gain_mean(pop, alloc, "g", 0)
        with pytest.raises(RatioUndefinedError):
            shortfall_mean(pop, alloc, "g", 1)
        report = delta_metrics(pop, alloc, "g")
        assert report.delta_gain is None and not report.multiplicative_defined


class TestDeltaMetrics:
    def test_two_individual_example(self):
        # group 0: u=(0.1, 0.3) assigned 2; group 1: u=(0.1, 0.5) assigned 1
        pop = Population(np.array([[0.1, 0.3], [0.1, 0.5]]), {"g": [0, 1]})
        report = delta_metrics(pop, Allocation([2, 1]), "g")
        assert report.delta_improvement == pytest.approx(-0.2)
        assert report.delta_regret == pytest.approx(0.4)
        lhs = report.delta_improvement + report.delta_regret
        assert lhs == pytest.approx(mean_delta_u(pop, "g", 1) - mean_delta_u(pop, "g", 0))
        assert report.favored["improvement"] == "group0"
        assert report.favored["regret"] == "group0"

    def test_identical_groups_all_zero(self):
        u = np.array([[0.1, 0.4], [0.3, 0.2], [0.1, 0.4], [0.3, 0.2]])
        pop = Population(u, {"g": [0, 0, 1, 1]})
        report = delta_metrics(pop, Allocation([1, 2, 1, 2]), "g")
        assert report.delta_improvement == 0.0
        assert report.delta_regret == 0.0
        assert report.delta_gain == 0.0
        assert report.delta_shortfall == 0.0

    def test_observed_style_sign_disagreement_representable(self):
        # engineered so dI = -0.013 while -dR = +0.016
        pop = Population(
            np.array([[0.5, 0.55, 0.58], [0.5, 0.537, 0.551]]), {"g": [0, 1]}
        )
        report = delta_metrics(pop, Allocation([2, 2]), "g")
        assert report.delta_improvement == pytest.approx(-0.013)
        assert -report.delta_regret == pytest.approx(0.016)
        assert report.favored["improvement"] == "group0"
        assert report.favored["regret"] == "group1"

    def test_empty_group_raises(self):
        pop = Population(np.array([[0.1, 0.2]]), {"g": [0]})
        with pytest.raises(EmptyGroupError):
            delta_metrics(pop, Allocation([1]), "g")


class TestBitExactness:
    """Every group mean is a 1-D ``np.mean`` over one row's masked elements
    in index order; output digests depend on it, so these compare with ==."""

    @pytest.mark.parametrize("seed", range(40))
    def test_kernel_matches_reference_means(self, seed):
        gen = np.random.default_rng(seed)
        n, k = int(gen.integers(2, 60)), int(gen.integers(1, 5))
        u = gen.normal(0.5, 0.05, (n, k))
        if seed % 2:
            u[gen.integers(n), gen.integers(k)] = -abs(u[0, 0]) if seed % 4 == 1 else 0.0
        n1 = (1, n - 1, int(gen.integers(1, n)))[seed % 3]  # covers groups of size 1
        labels = np.zeros(n, dtype=np.int8)
        labels[gen.permutation(n)[:n1]] = 1
        assignment = gen.integers(1, k + 1, n)
        pop, alloc = Population(u, {"g": labels}), Allocation(assignment)
        report = delta_metrics(pop, alloc, "g")

        realized = u[np.arange(n), assignment - 1]
        u_min, u_max = u.min(axis=1), u.max(axis=1)
        positive = bool(u_min.min() > 0.0)
        ref = {}
        for value in (0, 1):
            m = labels == value
            ref["improvement", value] = float(np.mean(realized[m] - u_min[m]))
            ref["regret", value] = float(np.mean(u_max[m] - realized[m]))
            ref["gain", value] = float(np.mean(realized[m] / u_min[m])) if positive else None
            ref["shortfall", value] = float(np.mean(realized[m] / u_max[m])) if positive else None
            assert mean_delta_u(pop, "g", value) == float(np.mean(u_max[m] - u_min[m]))
            assert report.mean_delta_u[value] == float(np.mean(u_max[m] - u_min[m]))

        wrappers = {"improvement": improvement_mean, "regret": regret_mean,
                    "gain": gain_mean, "shortfall": shortfall_mean}
        for metric, fn in wrappers.items():
            r0, r1 = ref[metric, 0], ref[metric, 1]
            assert getattr(report, f"{metric}_mean_0") == r0
            assert getattr(report, f"{metric}_mean_1") == r1
            assert getattr(report, f"delta_{metric}") == (None if r0 is None else r1 - r0)
            for value in (0, 1):
                if ref[metric, value] is None:
                    with pytest.raises(RatioUndefinedError):
                        fn(pop, alloc, "g", value)
                else:
                    assert fn(pop, alloc, "g", value) == ref[metric, value]
        assert report.multiplicative_defined == positive


@st.composite
def instances(draw, positive=False, max_n=24, max_k=4):
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(1, max_k))
    lo = 0.01 if positive else -50.0
    cell = st.floats(lo, 50.0, allow_nan=False, width=64)
    utilities = np.array(
        draw(st.lists(st.lists(cell, min_size=k, max_size=k), min_size=n, max_size=n))
    )
    n1 = draw(st.integers(1, n - 1))
    labels = np.zeros(n, dtype=np.int8)
    labels[draw(st.permutations(range(n)))[:n1]] = 1
    assignment = np.array(draw(st.lists(st.integers(1, k), min_size=n, max_size=n)))
    slack = draw(st.integers(0, 3))
    caps = np.bincount(assignment - 1, minlength=k) + slack
    pop = Population(utilities, {"g": labels})
    return pop, Allocation(assignment), CapacityVector(caps)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(instances())
def test_additive_identity_property(instance):
    pop, alloc, _ = instance
    report = delta_metrics(pop, alloc, "g")
    du = mean_delta_u(pop, "g", 1) - mean_delta_u(pop, "g", 0)
    # magnitudes are O(50), so 1e-12 absolute tolerance is ~1e-14 relative
    assert abs(report.delta_improvement + report.delta_regret - du) <= 1e-12


@settings(max_examples=80, derandomize=True, deadline=None)
@given(instances())
def test_per_group_additive_split(instance):
    pop, alloc, _ = instance
    for value in (0, 1):
        total = improvement_mean(pop, alloc, "g", value) + regret_mean(pop, alloc, "g", value)
        assert total == pytest.approx(mean_delta_u(pop, "g", value), abs=1e-12)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(instances(positive=True))
def test_metric_ranges(instance):
    pop, alloc, _ = instance
    env = envelope(pop)
    realized = alloc.realized(pop)
    assert np.all(env.u_min <= realized) and np.all(realized <= env.u_max)
    for value in (0, 1):
        assert improvement_mean(pop, alloc, "g", value) >= 0.0
        assert regret_mean(pop, alloc, "g", value) >= 0.0
        assert gain_mean(pop, alloc, "g", value) >= 1.0
        assert 0.0 < shortfall_mean(pop, alloc, "g", value) <= 1.0 + 1e-15


@settings(max_examples=60, derandomize=True, deadline=None)
@given(instances(positive=True))
def test_group_relabeling_negates_deltas(instance):
    pop, alloc, _ = instance
    flipped = Population(pop.utilities, {"g": 1 - pop.groups["g"]})
    a, b = delta_metrics(pop, alloc, "g"), delta_metrics(flipped, alloc, "g")
    assert b.delta_improvement == -a.delta_improvement
    assert b.delta_regret == -a.delta_regret
    assert b.delta_gain == -a.delta_gain
    assert b.delta_shortfall == -a.delta_shortfall


@settings(max_examples=60, derandomize=True, deadline=None)
@given(instances(), st.floats(0.01, 100.0, allow_nan=False))
def test_additive_metrics_shift_invariant(instance, shift):
    pop, alloc, _ = instance
    shifted = Population(pop.utilities + shift, pop.groups)
    a, b = delta_metrics(pop, alloc, "g"), delta_metrics(shifted, alloc, "g")
    tol = 1e-9 * max(1.0, shift)
    assert b.delta_improvement == pytest.approx(a.delta_improvement, abs=tol)
    assert b.delta_regret == pytest.approx(a.delta_regret, abs=tol)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(instances(positive=True), st.floats(0.01, 100.0, allow_nan=False))
def test_multiplicative_metrics_scale_invariant(instance, scale):
    pop, alloc, _ = instance
    scaled = Population(pop.utilities * scale, pop.groups)
    a, b = delta_metrics(pop, alloc, "g"), delta_metrics(scaled, alloc, "g")
    assert b.delta_gain == pytest.approx(a.delta_gain, rel=1e-9, abs=1e-9)
    assert b.delta_shortfall == pytest.approx(a.delta_shortfall, rel=1e-9, abs=1e-9)


class TestTypes:
    def test_population_validation(self):
        with pytest.raises(ValueError):
            Population(np.array([[np.inf, 1.0]]))
        with pytest.raises(ValueError):
            Population(np.array([[0.1, 0.2]]), {"g": [2]})
        with pytest.raises(ValueError):
            Population(np.array([[0.1, 0.2]]), {"g": [0, 1]})

    def test_group_complement_counts(self):
        pop = Population(np.zeros((5, 2)), {"g": [0, 1, 1, 0, 1]})
        assert pop.group_mask("g", 0).sum() + pop.group_mask("g", 1).sum() == pop.n

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            CapacityVector([-1, 2])
        caps = CapacityVector([2, 1])
        assert caps.total == 3
        assert caps.feasible_for(Population(np.zeros((3, 2))))
        assert not caps.feasible_for(Population(np.zeros((4, 2))))

    def test_allocation_feasibility(self):
        pop = Population(np.zeros((3, 2)))
        alloc = Allocation([1, 1, 2])
        assert alloc.is_feasible(pop, CapacityVector([2, 1]))
        assert not alloc.is_feasible(pop, CapacityVector([1, 2]))
        with pytest.raises(ValueError):
            Allocation([0, 1, 2])

    def test_immutability(self):
        pop = Population(np.array([[0.1, 0.2]]))
        with pytest.raises(ValueError):
            pop.utilities[0, 0] = 5.0
