"""Core metric tests: worked examples cross-checked against brute-force
oracles, plus property tests of the identities the metrics must satisfy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fairalloc import (
    Allocation,
    CapacityVector,
    EmptyGroupError,
    InfeasibleError,
    Population,
    delta_metrics,
    envelope,
)
from fairalloc.audit import AuditDataset
from fairalloc.core import METRICS, _first_best, _group_means, _reduce_services, metric_rows
from fairalloc.policies import (
    allocate_best,
    allocate_random,
    allocate_utilitarian,
    allocate_worst,
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


def group_mean_delta_u(pop, value):
    """Group mean of the max gain, from the envelope alone: the right-hand
    side of the additive identity, computed apart from ``delta_metrics``."""
    return float(np.mean(envelope(pop).delta_u[pop.groups["g"] == value]))


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

    def test_constant_vector(self):
        env = envelope(Population(np.array([[0.7, 0.7]])))
        assert env.delta_u[0] == 0.0

    def test_nonpositive_entry_disables_ratio(self):
        pop = Population(np.array([[-0.1, 0.2]]))
        assert envelope(pop).delta_u[0] == pytest.approx(0.3)
        rows = metric_rows(pop, Allocation([2]))
        assert rows["gain"] is None and rows["shortfall"] is None


class TestMetricExamples:
    def test_worst_assignment_zero_improvement(self, fixture_pop):
        worst = Allocation(np.argmin(fixture_pop.utilities, axis=1) + 1)
        assert delta_metrics(fixture_pop, worst, "g").means["improvement"] == (0.0, 0.0)

    def test_single_member_improvement(self):
        pop = Population(np.array([[0.2, 0.6]]), {"g": [1]})
        assert metric_rows(pop, Allocation([2]))["improvement"] == pytest.approx([0.4])

    def test_best_assignment_zero_regret(self, fixture_pop):
        best = Allocation(np.argmax(fixture_pop.utilities, axis=1) + 1)
        assert delta_metrics(fixture_pop, best, "g").means["regret"] == (0.0, 0.0)

    def test_single_member_regret(self):
        pop = Population(np.array([[0.2, 0.6]]), {"g": [1]})
        assert metric_rows(pop, Allocation([1]))["regret"] == pytest.approx([0.4])

    def test_gain_examples(self):
        pop = Population(np.array([[0.2, 0.4]]), {"g": [0]})
        assert metric_rows(pop, Allocation([2]))["gain"] == pytest.approx([2.0])
        assert metric_rows(pop, Allocation([1]))["gain"].tolist() == [1.0]

    def test_shortfall_examples(self):
        pop = Population(np.array([[0.2, 0.4]]), {"g": [0]})
        assert metric_rows(pop, Allocation([2]))["shortfall"].tolist() == [1.0]
        assert metric_rows(pop, Allocation([1]))["shortfall"] == pytest.approx([0.5])

    def test_fixture_matches_oracle(self, fixture_pop, fixture_alloc):
        means = delta_metrics(fixture_pop, fixture_alloc, "g").means
        for kind in METRICS:
            for value in (0, 1):
                expected = oracle_mean(FIXTURE_U, FIXTURE_ASSIGN, FIXTURE_LABELS, value, kind)
                assert means[kind][value] == pytest.approx(expected, abs=1e-12)
        # frozen values from the oracle
        assert means["improvement"][1] == pytest.approx(0.2)
        assert means["regret"][1] == pytest.approx(0.1)
        assert means["gain"][0] == pytest.approx(3.0)
        assert means["shortfall"][1] == pytest.approx(8.0 / 9.0)

    def test_empty_group_raises(self, fixture_pop, fixture_alloc):
        pop = Population(np.array(FIXTURE_U), {"g": [1, 1, 1]})
        with pytest.raises(EmptyGroupError):
            delta_metrics(pop, fixture_alloc, "g")

    def test_nonpositive_utilities_block_multiplicative(self):
        pop = Population(np.array([[0.0, 0.5], [0.2, 0.3]]), {"g": [0, 1]})
        alloc = Allocation([2, 2])
        rows = metric_rows(pop, alloc)
        assert rows["gain"] is None and rows["shortfall"] is None
        report = delta_metrics(pop, alloc, "g")
        assert report.means["gain"] is None and report.means["shortfall"] is None
        assert report.deltas["gain"] is None and report.favored["shortfall"] is None
        assert not report.multiplicative_defined
        payload = report.to_dict()
        assert payload["gain_mean"] == [None, None] and payload["delta_shortfall"] is None


class TestDeltaMetrics:
    def test_two_individual_example(self):
        # group 0: u=(0.1, 0.3) assigned 2; group 1: u=(0.1, 0.5) assigned 1
        pop = Population(np.array([[0.1, 0.3], [0.1, 0.5]]), {"g": [0, 1]})
        report = delta_metrics(pop, Allocation([2, 1]), "g")
        assert report.means["improvement"] == pytest.approx((0.2, 0.0))
        assert report.means["regret"] == pytest.approx((0.0, 0.4))
        assert report.deltas["improvement"] == pytest.approx(-0.2)
        assert report.deltas["regret"] == pytest.approx(0.4)
        lhs = report.deltas["improvement"] + report.deltas["regret"]
        assert lhs == pytest.approx(group_mean_delta_u(pop, 1) - group_mean_delta_u(pop, 0))
        assert report.favored["improvement"] == "group0"
        assert report.favored["regret"] == "group0"

    def test_identical_groups_all_zero(self):
        u = np.array([[0.1, 0.4], [0.3, 0.2], [0.1, 0.4], [0.3, 0.2]])
        pop = Population(u, {"g": [0, 0, 1, 1]})
        report = delta_metrics(pop, Allocation([1, 2, 1, 2]), "g")
        assert report.deltas == dict.fromkeys(METRICS, 0.0)
        assert report.favored == dict.fromkeys(METRICS, "tied")

    def test_observed_style_sign_disagreement_representable(self):
        # engineered so dI = -0.013 while -dR = +0.016
        pop = Population(
            np.array([[0.5, 0.55, 0.58], [0.5, 0.537, 0.551]]), {"g": [0, 1]}
        )
        report = delta_metrics(pop, Allocation([2, 2]), "g")
        assert report.deltas["improvement"] == pytest.approx(-0.013)
        assert -report.deltas["regret"] == pytest.approx(0.016)
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
            assert report.mean_delta_u[value] == float(np.mean(u_max[m] - u_min[m]))

        payload = report.to_dict()
        for metric in METRICS:
            r0, r1 = ref[metric, 0], ref[metric, 1]
            delta = None if r0 is None else r1 - r0
            assert report.means[metric] == (None if r0 is None else (r0, r1))
            assert report.deltas[metric] == delta
            assert payload[f"{metric}_mean"] == [r0, r1]
            assert payload[f"delta_{metric}"] == delta
        assert report.multiplicative_defined == positive

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 400),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        group1=st.sampled_from(("one", "all-but-one", "any")),
        signed=st.booleans(),
    )
    def test_group_means_are_np_mean_of_each_row(self, n, k, seed, group1, signed):
        """Each group mean is ``np.mean`` of the row's masked entries, bit for
        bit, on groups scattered over the population (rows long enough for
        numpy's pairwise blocks), groups of one member, and populations with a
        utility <= 0, where gain and shortfall are None."""
        gen = np.random.default_rng(seed)
        u = gen.normal(0.5, 0.05, (n, k))
        if signed:
            u[gen.integers(n), gen.integers(k)] = -gen.random() if seed % 2 else 0.0
        n1 = {"one": 1, "all-but-one": n - 1, "any": int(gen.integers(1, n))}[group1]
        labels = np.zeros(n, dtype=np.int8)
        labels[gen.permutation(n)[:n1]] = 1
        pop = Population(u, {"g": labels})
        alloc = Allocation(gen.integers(1, k + 1, n))
        report = delta_metrics(pop, alloc, "g")
        got = {**report.means, "delta_u": report.mean_delta_u}
        for name, row in metric_rows(pop, alloc).items():
            if row is None:
                assert got[name] is None and signed
                continue
            expected = [np.float64(np.mean(row[labels == value])) for value in (0, 1)]
            assert same_bits(np.array(got[name]), np.array(expected))


@settings(max_examples=60, deadline=None)
@given(
    size=st.one_of(st.integers(1, 40), st.integers(8_000, 8_400)),
    others=st.integers(0, 300),
    reps=st.integers(1, 40),
    run=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_group_means_equal_one_replication_at_a_time(size, others, reps, run, seed):
    """``_group_means`` over R replications' rows at once equals, bit for bit,
    the 1-D ``np.add.reduce(row[mask])`` of each replication's row divided
    by the group size: for a gathered group and for one run of consecutive
    individuals (a view), of 1 to more than numpy's 8,192-element buffer."""
    gen = np.random.default_rng(seed)
    n = size + others
    rows = gen.normal(0.0, 1.0, (2, reps, n)) * 10.0 ** gen.integers(-6, 7, (2, reps, 1))
    mask = np.zeros(n, dtype=bool)
    if run:
        first = int(gen.integers(0, others + 1))
        mask[first:first + size] = True
    else:
        mask[gen.choice(n, size, replace=False)] = True
    got = _group_means(rows, (np.flatnonzero(mask),))[..., 0]
    expected = [[np.add.reduce(row[mask]) / size for row in block] for block in rows]
    assert same_bits(got, np.array(expected))


@pytest.mark.parametrize("n", [1, 100, 3000, 50_000])
@pytest.mark.parametrize("rows", [1, 5, 12])
def test_group_means_gather_several_rows_per_take(n, rows):
    """A scattered group's rows are gathered several at a time, as many as
    the gather budget holds; each mean still equals the 1-D
    ``np.add.reduce(row[idx])`` of its own row over the group size, bit for
    bit, for groups of every size from one member to all but one."""
    gen = np.random.default_rng(n + rows)
    block = gen.normal(0.0, 1.0, (rows, 1, n)) * 10.0 ** gen.integers(-6, 7, (rows, 1, 1))
    sizes = sorted({1, max(1, n // 7), max(1, n // 2), max(1, n - 1)})
    members = tuple(np.sort(gen.choice(n, size, replace=False)) for size in sizes)
    got = _group_means(block, members)
    expected = [[[np.add.reduce(row[idx]) / idx.size for idx in members] for row in rep]
                for rep in block]
    assert same_bits(got, np.array(expected))


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
    deltas = delta_metrics(pop, alloc, "g").deltas
    du = group_mean_delta_u(pop, 1) - group_mean_delta_u(pop, 0)
    # magnitudes are O(50), so 1e-12 absolute tolerance is ~1e-14 relative
    assert abs(deltas["improvement"] + deltas["regret"] - du) <= 1e-12


@settings(max_examples=80, derandomize=True, deadline=None)
@given(instances())
def test_per_group_additive_split(instance):
    pop, alloc, _ = instance
    means = delta_metrics(pop, alloc, "g").means
    for value in (0, 1):
        total = means["improvement"][value] + means["regret"][value]
        assert total == pytest.approx(group_mean_delta_u(pop, value), abs=1e-12)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(instances(positive=True))
def test_metric_ranges(instance):
    pop, alloc, _ = instance
    env = envelope(pop)
    realized = alloc.realized(pop)
    assert np.all(env.u_min <= realized) and np.all(realized <= env.u_max)
    means = delta_metrics(pop, alloc, "g").means
    for value in (0, 1):
        assert means["improvement"][value] >= 0.0
        assert means["regret"][value] >= 0.0
        assert means["gain"][value] >= 1.0
        assert 0.0 < means["shortfall"][value] <= 1.0 + 1e-15


@settings(max_examples=60, derandomize=True, deadline=None)
@given(instances(positive=True))
def test_group_relabeling_negates_deltas(instance):
    pop, alloc, _ = instance
    flipped = Population(pop.utilities, {"g": 1 - pop.groups["g"]})
    a, b = delta_metrics(pop, alloc, "g").deltas, delta_metrics(flipped, alloc, "g").deltas
    for metric in METRICS:
        assert b[metric] == -a[metric]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(instances(), st.floats(0.01, 100.0, allow_nan=False))
def test_additive_metrics_shift_invariant(instance, shift):
    pop, alloc, _ = instance
    shifted = Population(pop.utilities + shift, pop.groups)
    a, b = delta_metrics(pop, alloc, "g").deltas, delta_metrics(shifted, alloc, "g").deltas
    tol = 1e-9 * max(1.0, shift)
    assert b["improvement"] == pytest.approx(a["improvement"], abs=tol)
    assert b["regret"] == pytest.approx(a["regret"], abs=tol)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(instances(positive=True), st.floats(0.01, 100.0, allow_nan=False))
def test_multiplicative_metrics_scale_invariant(instance, scale):
    pop, alloc, _ = instance
    scaled = Population(pop.utilities * scale, pop.groups)
    a, b = delta_metrics(pop, alloc, "g").deltas, delta_metrics(scaled, alloc, "g").deltas
    assert b["gain"] == pytest.approx(a["gain"], rel=1e-9, abs=1e-9)
    assert b["shortfall"] == pytest.approx(a["shortfall"], rel=1e-9, abs=1e-9)


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
        # the instance rule of every capacitated policy: K matches, total >= N
        pop = Population(np.zeros((3, 2)))
        assert allocate_random(pop, caps, 0).is_feasible(pop, caps)
        with pytest.raises(InfeasibleError):
            allocate_random(Population(np.zeros((4, 2))), caps, 0)
        with pytest.raises(ValueError, match="capacity vector length"):
            allocate_random(Population(np.zeros((3, 3))), caps, 0)

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

    def test_allocation_copies_the_callers_array(self):
        assignment = np.array([1, 2, 2], dtype=np.int64)
        alloc = Allocation(assignment)
        assignment[0] = 2
        assert alloc.assignment.tolist() == [1, 2, 2]
        with pytest.raises(ValueError):
            alloc.assignment[0] = 2
        # an allocator's fresh array is adopted as it is, frozen, and checked
        fresh = np.array([2, 1, 1], dtype=np.int64)
        adopted = Allocation._adopt(fresh)
        assert adopted.assignment is fresh and not fresh.flags.writeable
        with pytest.raises(ValueError, match="1-based"):
            Allocation._adopt(np.array([0, 1]))


@st.composite
def tied_matrices(draw, min_n=1, max_n=12, max_k=70):
    """Matrices over a few values, +0.0 and -0.0: rows full of ties."""
    n = draw(st.integers(min_n, max_n))
    k = draw(st.integers(1, max_k))
    values = draw(st.lists(st.floats(-4.0, 4.0, width=64), min_size=1, max_size=3))
    pool = np.array([0.0, -0.0, *values])
    picks = draw(hnp.arrays(np.int64, (n, k), elements=st.integers(0, len(pool) - 1)))
    return pool[picks]


def layouts(matrix):
    """``matrix`` row-major, column-major and as a strided slice."""
    n, k = matrix.shape
    sliced = np.zeros((2 * n, 3 * k), dtype=matrix.dtype)
    sliced[::2, 1::3] = matrix
    return np.ascontiguousarray(matrix), np.asfortranarray(matrix), sliced[::2, 1::3]


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestServiceMajorLayout:
    """Every individual x service matrix is stored service-major, and the
    per-individual reductions over the services are column passes."""

    @settings(max_examples=300, deadline=None)
    @given(u=tied_matrices())
    def test_reduce_services_matches_numpy(self, u):
        for ufunc, name in ((np.minimum, "min"), (np.maximum, "max")):
            reduced = _reduce_services(ufunc, u)
            for layout in layouts(u):
                assert same_bits(_reduce_services(ufunc, layout), reduced)
            rowwise = getattr(np.ascontiguousarray(u), name)(axis=1)
            assert np.array_equal(reduced, rowwise)
            if u.shape[1] <= 3:
                # too short for a SIMD vector, a contiguous row is reduced in
                # index order too: at paper scale (K = 3) the signs of zeros
                # agree with the row-wise reduction
                assert same_bits(reduced, rowwise)
            if u.shape[0] > 1:
                # several rows are reduced one column at a time, in index
                # order, whatever the machine's SIMD width (a single row is
                # one contiguous row)
                folded = u[:, 0].copy()
                for j in range(1, u.shape[1]):
                    folded = ufunc(folded, u[:, j])
                assert same_bits(reduced, folded)

    @settings(max_examples=300, deadline=None)
    @given(u=tied_matrices())
    def test_first_best_matches_argmax(self, u):
        for values in (u, u > 0.0):
            for layout in layouts(values):
                assert same_bits(_first_best(layout), np.argmax(values, axis=1))
                assert same_bits(_first_best(layout, worst=True), np.argmin(values, axis=1))

    @settings(max_examples=100, deadline=None)
    @given(u=tied_matrices(min_n=2, max_n=10, max_k=6), positive=st.booleans(), data=st.data())
    def test_results_do_not_depend_on_input_layout(self, u, positive, data):
        if positive:
            u = np.abs(u) + 0.5
        n, k = u.shape
        labels = np.zeros(n, dtype=np.int8)
        labels[data.draw(st.sampled_from(range(1, n)))] = 1
        assignment = data.draw(hnp.arrays(np.int64, n, elements=st.integers(1, k)))
        caps = CapacityVector(data.draw(hnp.arrays(np.int64, k, elements=st.integers(0, n)))
                              + np.eye(k, dtype=np.int64)[0] * n)

        def results(matrix):
            pop, alloc = Population(matrix, {"g": labels}), Allocation(assignment)
            env = envelope(pop)
            rows = metric_rows(pop, alloc)
            return (
                [env.u_min.tobytes(), env.u_max.tobytes(), env.delta_u.tobytes()],
                {name: None if row is None else row.tobytes() for name, row in rows.items()},
                repr(delta_metrics(pop, alloc, "g")),
                [allocate_utilitarian(pop, caps).assignment.tolist(),
                 allocate_best(pop).assignment.tolist(), allocate_worst(pop).assignment.tolist()],
            )

        row_major, *others = layouts(u)
        expected = results(row_major)
        assert all(results(m) == expected for m in others)

    def test_matrices_are_service_major_and_read_only(self):
        u = np.arange(12.0).reshape(4, 3) / 20.0
        for matrix in (
            Population(u).utilities,
            Population(u.tolist()).utilities,
            Population(u).subset(np.array([2, 0])).utilities,
            AuditDataset(u, np.ones(4), {}, ("x", "y", "z")).utilities,
        ):
            assert matrix.flags.f_contiguous and not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[0, 0] = 1.0
