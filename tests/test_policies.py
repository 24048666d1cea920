"""Policy tests. The utilitarian solver is checked against an exhaustive
enumeration oracle (total utility and lexicographic tie-break) on instances
small enough to enumerate; utilities there live on a dyadic grid so
integerized totals compare exactly. The min-cost-flow solver behind it is
also checked against HiGHS on tie-heavy integer instances."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linprog

from fairalloc import (
    CapacityVector,
    InfeasibleError,
    Population,
    PolicySpec,
    allocate_best,
    allocate_mixture,
    allocate_random,
    allocate_utilitarian,
    allocate_worst,
    apply_policy,
    compile_spec,
    delta_metrics,
    policies,
)
from fairalloc.simulate import load_experiment_config


def enumerate_optimal(utilities, caps, scale=1e7):
    """All-assignments oracle: max integerized total, lex-least argmax."""
    n, k = utilities.shape
    best_total, best_assign = None, None
    for a in itertools.product(range(1, k + 1), repeat=n):
        counts = np.bincount(np.array(a) - 1, minlength=k)
        if np.any(counts > caps):
            continue
        total = int(np.round(utilities[np.arange(n), np.array(a) - 1] * scale).sum())
        if best_total is None or total > best_total or (total == best_total and a < best_assign):
            best_total, best_assign = total, a
    return best_total, np.array(best_assign)


def random_instance(rng, max_n=8, max_k=3, dyadic=True):
    n = int(rng.integers(1, max_n + 1))
    k = int(rng.integers(1, max_k + 1))
    if dyadic:
        utilities = rng.integers(0, 1025, (n, k)) / 1024.0
    else:
        utilities = rng.normal(0.5, 0.25, (n, k))
    while True:
        caps = rng.integers(0, n + 1, k)
        if caps.sum() >= n:
            break
    return Population(utilities), CapacityVector(caps)


class TestUtilitarian:
    def test_unique_optimum(self):
        pop = Population(np.array([[1.0, 0.0], [0.0, 1.0]]))
        alloc = allocate_utilitarian(pop, CapacityVector([1, 1]))
        assert alloc.assignment.tolist() == [1, 2]
        assert alloc.realized(pop).sum() == pytest.approx(2.0)

    def test_two_by_two(self):
        pop = Population(np.array([[0.9, 0.8], [0.5, 0.1]]))
        alloc = allocate_utilitarian(pop, CapacityVector([1, 1]))
        assert alloc.assignment.tolist() == [2, 1]
        assert alloc.realized(pop).sum() == pytest.approx(1.3)

    def test_all_equal_lexicographic(self):
        pop = Population(np.full((5, 3), 0.5))
        alloc = allocate_utilitarian(pop, CapacityVector([2, 2, 2]))
        assert alloc.assignment.tolist() == [1, 1, 2, 2, 3]
        assert alloc.realized(pop).sum() == pytest.approx(2.5)

    def test_infeasible(self):
        pop = Population(np.zeros((3, 2)))
        with pytest.raises(InfeasibleError):
            allocate_utilitarian(pop, CapacityVector([1, 1]))

    @pytest.mark.parametrize("seed", range(60))
    def test_oracle_equivalence(self, seed):
        rng = np.random.default_rng(1000 + seed)
        pop, caps = random_instance(rng)
        alloc = allocate_utilitarian(pop, caps)
        oracle_total, oracle_assign = enumerate_optimal(pop.utilities, caps.capacities)
        total = int(np.round(pop.utilities[np.arange(pop.n), alloc.assignment - 1] * 1e7).sum())
        assert total == oracle_total
        assert alloc.assignment.tolist() == oracle_assign.tolist()
        assert alloc.is_feasible(pop, caps)

    @pytest.mark.parametrize("seed", range(20))
    def test_beats_random(self, seed):
        rng = np.random.default_rng(2000 + seed)
        pop, caps = random_instance(rng, max_n=40, max_k=3, dyadic=False)
        best = allocate_utilitarian(pop, caps)
        rand = allocate_random(pop, caps, seed)
        assert best.realized(pop).sum() >= rand.realized(pop).sum() - 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        pop, caps = random_instance(rng, max_n=30, dyadic=True)
        a = allocate_utilitarian(pop, caps)
        b = allocate_utilitarian(pop, caps)
        assert a.assignment.tolist() == b.assignment.tolist()


@st.composite
def transport_instances(draw):
    """Tie-heavy integer weights (a few levels), N <= 40, K <= 8, zero
    capacities allowed, total capacity >= N."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, 8))
    levels = draw(st.integers(0, 3))
    w = draw(st.lists(st.integers(0, levels), min_size=n * k, max_size=n * k))
    caps = draw(st.lists(st.integers(0, n), min_size=k, max_size=k))
    short = n - sum(caps)
    if short > 0:
        caps[draw(st.integers(0, k - 1))] += short
    return np.array(w, dtype=np.int64).reshape(n, k), np.array(caps, dtype=np.int64)


def highs_transport(w, caps):
    """HiGHS oracle: optimal total and rounded duals (pi, sigma) of
    min -w.x s.t. each row sums to 1, each column to at most its capacity."""
    n, k = w.shape
    res = linprog(
        -w.ravel().astype(np.float64),
        A_ub=np.tile(np.eye(k), (1, n)),
        b_ub=caps.astype(np.float64),
        A_eq=np.repeat(np.eye(n), k, axis=1),
        b_eq=np.ones(n),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0
    return round(-res.fun), np.round(res.eqlin.marginals), np.round(res.ineqlin.marginals)


def hall_loop(counts, lo, hi, k):
    """Reference loop for ``_completion_feasible_hall``."""
    n_subsets = 1 << k
    confined = [0] * n_subsets
    for mask, cnt in counts.items():
        confined[mask] += cnt
    for bit in range(k):
        for s in range(n_subsets):
            if s >> bit & 1:
                confined[s] += confined[s ^ (1 << bit)]
    full = n_subsets - 1
    for s in range(n_subsets):
        members = [j for j in range(k) if s >> j & 1]
        if confined[s] > sum(int(hi[j]) for j in members):
            return False
        if sum(int(lo[j]) for j in members) > confined[full] - confined[full ^ s]:
            return False
    return True


def lex_least_loop(allowed, caps, mandatory):
    """Reference for ``_lex_least_allowed``: walks every individual in order,
    forced ones included, with the Hall probe."""
    n, k = allowed.shape
    masks = allowed @ (1 << np.arange(k, dtype=np.int64))
    counts = {}
    for m in masks.tolist():
        counts[m] = counts.get(m, 0) + 1

    assigned = np.zeros(k, dtype=np.int64)
    out = np.zeros(n, dtype=np.int64)
    for i in range(n):
        m = int(masks[i])
        counts[m] -= 1
        if counts[m] == 0:
            del counts[m]
        if m & (m - 1) == 0:  # single allowed service: forced
            kk = m.bit_length() - 1
            assigned[kk] += 1
            out[i] = kk + 1
            continue
        placed = False
        for kk in range(k):
            if not (m >> kk & 1) or assigned[kk] >= caps[kk]:
                continue
            assigned[kk] += 1
            lo_rem = np.maximum(mandatory - assigned, 0)
            hi_rem = caps - assigned
            if policies._completion_feasible_hall(counts, lo_rem, hi_rem, k):
                out[i] = kk + 1
                placed = True
                break
            assigned[kk] -= 1
        if not placed:
            raise RuntimeError("internal: no feasible completion during tie resolution")
    return out


@st.composite
def tie_structures(draw):
    """(allowed, caps, mandatory) around a hidden feasible assignment: extra
    allowed arcs, spare capacity (zero where unused) and lower bounds up to
    its fills; K <= 8."""
    n = draw(st.integers(1, 30))
    k = draw(st.integers(1, 8))
    hidden = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    extra = np.array(draw(st.lists(st.booleans(), min_size=n * k, max_size=n * k)))
    allowed = extra.reshape(n, k)
    allowed[np.arange(n), hidden] = True
    fills = np.bincount(hidden, minlength=k)
    caps = fills + np.array(draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)))
    full = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    return allowed, caps, np.where(full, fills, 0)


class TestFlowSolver:
    @settings(max_examples=150, deadline=None)
    @given(instance=transport_instances())
    def test_matches_highs(self, instance):
        w, caps = instance
        n, k = w.shape
        flow, prices = policies._solve_transport(w, caps)
        total = policies._certify_transport(w, caps, flow, prices)
        highs_total, pi, sigma = highs_transport(w, caps)
        assert total == highs_total

        surplus = w - np.array(prices)
        allowed = surplus == surplus.max(axis=1, keepdims=True)
        mandatory = np.where(np.array(prices) > 0, caps, 0)
        rc = -w - pi[:, None] - sigma[None, :]
        highs_mandatory = np.where(sigma < 0, caps, 0)
        ours = policies._lex_least_allowed(allowed, caps.copy(), mandatory)
        theirs = policies._lex_least_allowed(rc == 0, caps.copy(), highs_mandatory)
        assert ours.tolist() == theirs.tolist()
        assert sum(w[np.arange(n), ours - 1].tolist()) == total

    def test_certificate_rejects_tampering(self):
        w = np.array([[10, 0], [0, 10]], dtype=np.int64)
        caps = np.array([2, 2])
        flow, prices = policies._solve_transport(w, caps)
        assert flow.tolist() == [0, 1] and prices == [0, 0]
        assert policies._certify_transport(w, caps, flow, prices) == 20
        for bad_flow, bad_prices, bad_caps in [
            (flow, [5, 0], caps),  # a price on a service with room
            (flow, [-1, 0], caps),
            (np.array([1, 0]), prices, caps),  # a worse assignment
            (np.array([0, 0]), prices, np.array([1, 2])),  # over capacity
        ]:
            with pytest.raises(RuntimeError, match="internal"):
                policies._certify_transport(w, bad_caps, bad_flow, bad_prices)

    def test_exact_beyond_float_precision(self):
        # weights near 2**53 differ by 1: float64 sums cannot tell them apart
        big = 2**53 - 2
        w = np.array([[big, big - 1], [big - 1, big]] * 3, dtype=np.int64)
        caps = np.array([3, 3])
        flow, prices = policies._solve_transport(w, caps)
        assert policies._certify_transport(w, caps, flow, prices) == 6 * big

    def test_utilitarian_does_not_call_linprog(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("linprog called")

        monkeypatch.setattr(policies, "linprog", forbidden)
        rng = np.random.default_rng(5)
        pop = Population(rng.integers(0, 3, (30, 4)) / 2.0)
        alloc = allocate_utilitarian(pop, CapacityVector([8, 8, 8, 8]))
        assert alloc.is_feasible(pop, CapacityVector([8, 8, 8, 8]))

    @pytest.mark.parametrize("seed", range(10))
    def test_hall_matches_loop(self, seed):
        rng = np.random.default_rng(4000 + seed)
        for _ in range(30):
            k = int(rng.integers(1, 9))
            masks = rng.integers(1, 1 << k, int(rng.integers(0, 6)))
            counts = {int(m): int(rng.integers(1, 6)) for m in masks}
            hi = rng.integers(0, 8, k)
            lo = np.minimum(rng.integers(0, 4, k), hi)
            assert policies._completion_feasible_hall(counts, lo, hi, k) == hall_loop(
                counts, lo, hi, k
            )


    @settings(max_examples=200, deadline=None)
    @given(structure=tie_structures())
    def test_lex_least_matches_loop(self, structure):
        allowed, caps, mandatory = structure
        assert policies._lex_least_allowed(allowed, caps.copy(), mandatory).tolist() == (
            lex_least_loop(allowed, caps.copy(), mandatory).tolist()
        )

    @settings(max_examples=100, deadline=None)
    @given(instance=transport_instances())
    def test_lex_least_matches_loop_on_optimal_arcs(self, instance):
        w, caps = instance
        _, prices = policies._solve_transport(w, caps)
        surplus = w - np.array(prices)
        allowed = surplus == surplus.max(axis=1, keepdims=True)
        mandatory = np.where(np.array(prices) > 0, caps, 0)
        assert policies._lex_least_allowed(allowed, caps.copy(), mandatory).tolist() == (
            lex_least_loop(allowed, caps.copy(), mandatory).tolist()
        )

    @pytest.mark.parametrize("k", [24, 30])
    def test_many_services(self, k):
        # tie-heavy: 60 individuals over 4 weight levels; a solver sized by
        # the 2^K service subsets could not finish
        rng = np.random.default_rng(k)
        w = rng.integers(0, 4, (60, k)).astype(np.int64)
        caps = rng.integers(0, 4, k)
        caps[0] += max(0, 60 - caps.sum())
        flow, prices = policies._solve_transport(w, caps)
        assert policies._certify_transport(w, caps, flow, prices) == highs_transport(w, caps)[0]


def distinct_rows_rowwise(allowed):
    """Row-wise reference of ``_distinct_rows``: each row packed into bytes
    by ``np.packbits``, the rows sorted by their bytes."""
    words = np.packbits(allowed, axis=1)
    order = np.lexsort(words.T[::-1])
    words = words[order]
    first = np.ones(len(words), dtype=bool)
    first[1:] = (words[1:] != words[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    return allowed[order[starts]], np.diff(starts, append=len(words)), order


@settings(max_examples=200, deadline=None)
@given(allowed=hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2, max_side=70)),
       fortran=st.booleans())
def test_distinct_rows_matches_rowwise(allowed, fortran):
    matrix = np.asfortranarray(allowed) if fortran else allowed
    got = policies._distinct_rows(matrix)
    want = distinct_rows_rowwise(allowed)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


# sha256 of the int64 assignment of experiment 2's population for each seed,
# as the successive-shortest-path solver computed it
EXPERIMENT2_DIGESTS = {
    7: "f9c10568db1daa68c098cca6858a6cc235dcd9f70d234edf82a85a19d0a2609a",
    8: "e99d27e711b0f3a50e3a835dea45b03259a3f99a030ce4385aff99f1fb7bdfca",
    9: "cad0b0346efff2910d2da2a29fa938a645ef51be71a47b0bc976c455a9df19d4",
    10: "717f1203fbae88d1ddf7c4e5dab95db4701b313477932acb349f5bec4e03edeb",
    11: "d420c0a73ef86f68e237218a5dfaf5010bfbf99a1cfc3901e9323a29e1dc3b64",
}


@pytest.mark.parametrize("seed", sorted(EXPERIMENT2_DIGESTS))
def test_experiment2_assignments_pinned(seed):
    params = load_experiment_config("experiment2").params
    alloc = allocate_utilitarian(params.sample(seed), params.capacities)
    digest = hashlib.sha256(alloc.assignment.astype("<i8").tobytes()).hexdigest()
    assert digest == EXPERIMENT2_DIGESTS[seed]


class TestRandom:
    def test_forced_single_service(self):
        pop = Population(np.random.default_rng(0).random((6, 3)))
        caps = CapacityVector([6, 0, 0])
        for seed in (0, 1, 99):
            assert allocate_random(pop, caps, seed).assignment.tolist() == [1] * 6

    def test_same_seed_same_allocation(self):
        pop = Population(np.random.default_rng(1).random((30, 3)))
        caps = CapacityVector([12, 10, 8])
        a = allocate_random(pop, caps, 42)
        b = allocate_random(pop, caps, 42)
        assert a.assignment.tolist() == b.assignment.tolist()
        c = allocate_random(pop, caps, 43)
        assert a.assignment.tolist() != c.assignment.tolist()

    def test_exact_fills_when_saturated(self):
        pop = Population(np.random.default_rng(2).random((30, 3)))
        alloc = allocate_random(pop, CapacityVector([10, 10, 10]), 7)
        assert alloc.counts(3).tolist() == [10, 10, 10]

    def test_exact_fills_at_published_scale(self):
        pop = Population(np.random.default_rng(3).random((3000, 3)))
        alloc = allocate_random(pop, CapacityVector([1000, 1000, 1000]), 1)
        assert alloc.counts(3).tolist() == [1000, 1000, 1000]

    @pytest.mark.parametrize("seed", range(25))
    def test_feasibility_property(self, seed):
        rng = np.random.default_rng(4000 + seed)
        pop, caps = random_instance(rng, max_n=25, dyadic=False)
        alloc = allocate_random(pop, caps, seed)
        assert alloc.is_feasible(pop, caps)

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            allocate_random(Population(np.zeros((3, 1))), CapacityVector([2]), 0)


class TestBestWorst:
    def test_worst_zeroes_improvement(self):
        pop = Population(np.random.default_rng(5).random((10, 3)), {"g": [0, 1] * 5})
        alloc = allocate_worst(pop)
        assert delta_metrics(pop, alloc, "g").means["improvement"] == (0.0, 0.0)

    def test_best_zeroes_regret(self):
        pop = Population(np.random.default_rng(6).random((10, 3)), {"g": [0, 1] * 5})
        alloc = allocate_best(pop)
        assert delta_metrics(pop, alloc, "g").means["regret"] == (0.0, 0.0)

    def test_argmax_tie_goes_low(self):
        pop = Population(np.array([[0.5, 0.5], [0.2, 0.2]]))
        assert allocate_best(pop).assignment.tolist() == [1, 1]
        assert allocate_worst(pop).assignment.tolist() == [1, 1]


class TestMixture:
    def test_lambda_one_equals_child(self):
        # unique-optimum instance: the utilitarian child is permutation-proof
        rng = np.random.default_rng(7)
        pop = Population(rng.normal(0.5, 0.2, (12, 3)))
        caps = CapacityVector([4, 4, 4])
        direct = allocate_utilitarian(pop, caps)
        mixed = allocate_mixture(
            pop, caps, 1.0,
            lambda p, c, s: allocate_utilitarian(p, c),
            lambda p, c, s: allocate_random(p, c, s),
            seed=5,
        )
        assert mixed.assignment.tolist() == direct.assignment.tolist()

    def test_lambda_zero_equals_other_child(self):
        rng = np.random.default_rng(8)
        pop = Population(rng.normal(0.5, 0.2, (12, 3)))
        caps = CapacityVector([4, 4, 4])
        direct = allocate_utilitarian(pop, caps)
        mixed = allocate_mixture(
            pop, caps, 0.0,
            lambda p, c, s: allocate_random(p, c, s),
            lambda p, c, s: allocate_utilitarian(p, c),
            seed=5,
        )
        assert mixed.assignment.tolist() == direct.assignment.tolist()

    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 0.77, 1.0])
    @pytest.mark.parametrize("seed", [0, 9])
    def test_feasibility_across_lambdas(self, lam, seed):
        rng = np.random.default_rng(100 + seed)
        pop, caps = random_instance(rng, max_n=30, dyadic=False)
        child = lambda p, c, s: allocate_random(p, c, s)
        alloc = allocate_mixture(pop, caps, lam, child, child, seed)
        assert alloc.is_feasible(pop, caps)

    def test_capacity_repair(self):
        # floor(0.5 * (3, 0, 1)) = (1, 0, 0) but the half-part holds 2 people
        pop = Population(np.random.default_rng(9).random((4, 3)))
        caps = CapacityVector([3, 0, 1])
        child = lambda p, c, s: allocate_random(p, c, s)
        alloc = allocate_mixture(pop, caps, 0.5, child, child, 11)
        assert alloc.is_feasible(pop, caps)

    def test_identical_children_match_child_distribution(self):
        rng = np.random.default_rng(10)
        pop = Population(rng.normal(0.5, 0.2, (20, 3)), {"g": [0, 1] * 10})
        caps = CapacityVector([7, 7, 7])
        child = lambda p, c, s: allocate_random(p, c, s)
        direct, mixed = [], []
        for seed in range(1000):
            direct.append(allocate_random(pop, caps, seed).realized(pop).mean())
            mixed.append(
                allocate_mixture(pop, caps, 0.5, child, child, seed).realized(pop).mean()
            )
        direct, mixed = np.array(direct), np.array(mixed)
        se = np.hypot(direct.std(ddof=1), mixed.std(ddof=1)) / np.sqrt(len(direct))
        assert abs(direct.mean() - mixed.mean()) < 1.96 * se + 1e-12

    def test_infeasible_total(self):
        pop = Population(np.zeros((4, 2)))
        child = lambda p, c, s: allocate_random(p, c, s)
        with pytest.raises(InfeasibleError):
            allocate_mixture(pop, CapacityVector([1, 1]), 0.5, child, child, 0)


class TestPolicySpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PolicySpec("nonsense")
        with pytest.raises(ValueError):
            PolicySpec("mixture", lam=1.5, children=(PolicySpec("random"), PolicySpec("random")))
        with pytest.raises(ValueError):
            PolicySpec("mixture", lam=0.5)
        with pytest.raises(ValueError):
            PolicySpec("random", lam=0.2)

    def test_round_trip(self):
        spec = PolicySpec(
            "mixture",
            lam=0.25,
            seed=9,
            children=(PolicySpec("utilitarian"), PolicySpec("random", seed=3)),
        )
        assert PolicySpec.from_dict(spec.to_dict()) == spec
        assert spec.describe() == "mixture(0.25, utilitarian, random)"

    def test_apply_policy_seed_precedence(self):
        pop = Population(np.random.default_rng(11).random((10, 2)))
        caps = CapacityVector([5, 5])
        pinned = PolicySpec("random", seed=123)
        # a pinned spec ignores the call-time seed
        a = apply_policy(pinned, pop, caps, seed=7)
        b = apply_policy(pinned, pop, caps, seed=8)
        assert a.assignment.tolist() == b.assignment.tolist()
        unpinned = PolicySpec("random")
        c = apply_policy(unpinned, pop, caps, seed=7)
        d = apply_policy(unpinned, pop, caps, seed=8)
        assert c.assignment.tolist() != d.assignment.tolist()

    def test_compile_mixture(self):
        spec = PolicySpec(
            "mixture", lam=0.5, children=(PolicySpec("random"), PolicySpec("random"))
        )
        pop = Population(np.random.default_rng(12).random((10, 2)))
        caps = CapacityVector([6, 6])
        alloc = compile_spec(spec)(pop, caps, 3)
        assert alloc.is_feasible(pop, caps)
