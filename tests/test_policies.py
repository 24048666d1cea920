"""Policy tests. The utilitarian solver is checked against an exhaustive
enumeration oracle (total utility and lexicographic tie-break) on instances
small enough to enumerate; utilities there live on a dyadic grid so
integerized totals compare exactly. The min-cost-flow solver behind it is
also checked against HiGHS on tie-heavy integer instances."""

import hashlib
import importlib.util
import itertools
from pathlib import Path
from unittest import mock

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
from fairalloc.cli import load_population_csv
from fairalloc.simulate import load_experiment_config
from tie_oracle import (
    confined_counts,
    demand_flow,
    lex_least_hall_lp,
    max_flow,
    subset_sums,
    utilitarian_oracle,
)


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
    """Reference loop for the Hall test of ``_completion_feasible_hall``, from
    the remaining individuals counted by allowed-set bitmask and the per-service
    fill bounds [lo, hi] left."""
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
            if hall_loop(counts, lo_rem, hi_rem, k):
                out[i] = kk + 1
                placed = True
                break
            assigned[kk] -= 1
        if not placed:
            raise RuntimeError("internal: no feasible completion during tie resolution")
    return out


def walk(allowed, caps, mandatory, start):
    """``_lex_least_allowed`` on an allowed matrix, grouped into allowed sets
    by ``_distinct_rows`` first, as the solver groups its demand sets."""
    member, _, key = policies._distinct_rows(np.asarray(allowed, dtype=bool))
    return policies._lex_least_allowed(member, key, np.asarray(caps), np.asarray(mandatory),
                                       np.asarray(start))


def arcs_under_dual(w, caps, prices):
    """The (allowed, mandatory) pairs and fills that complementary slackness
    leaves every optimal assignment under the optimal dual ``prices``."""
    surplus = w - np.array(prices)
    allowed = surplus == surplus.max(axis=1, keepdims=True)
    return allowed, np.where(np.array(prices) > 0, caps, 0)


def lex_least_under_dual(w, caps, prices, start):
    """The lexicographically least assignment that complementary slackness
    allows under the optimal dual ``prices``, walked from the optimal
    assignment ``start``."""
    allowed, mandatory = arcs_under_dual(w, caps, prices)
    return walk(allowed, caps, mandatory, start)


def certify(w, caps, assignment, prices):
    """``_certify_transport`` given the row maxima of ``w - prices``, as
    ``allocate_utilitarian`` gives them."""
    top = (w - np.array(prices, dtype=np.int64)).max(axis=1)
    return policies._certify_transport(w, caps, assignment, prices, top)


@st.composite
def tie_structures(draw):
    """(allowed, caps, mandatory, hidden) around a hidden feasible 0-based
    assignment: extra allowed arcs, spare capacity (zero where unused) and
    lower bounds up to its fills; K <= 8."""
    n = draw(st.integers(1, 30))
    k = draw(st.integers(1, 8))
    hidden = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    extra = np.array(draw(st.lists(st.booleans(), min_size=n * k, max_size=n * k)))
    allowed = extra.reshape(n, k)
    allowed[np.arange(n), hidden] = True
    fills = np.bincount(hidden, minlength=k)
    caps = fills + np.array(draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)))
    full = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    return allowed, caps, np.where(full, fills, 0), hidden


@st.composite
def tie_runs(draw):
    """(allowed, caps, mandatory, hidden) whose allowed sets come from a
    palette of one to three masks, sorted or shuffled, so that runs of
    consecutive equal sets are long; around a hidden feasible 0-based
    assignment, with zero capacities and lower bounds up to its fills
    allowed; K <= 8."""
    n = draw(st.integers(1, 30))
    k = draw(st.integers(1, 8))
    palette = draw(st.lists(st.integers(1, (1 << k) - 1), min_size=1, max_size=3))
    picks = np.array(draw(st.lists(st.integers(0, len(palette) - 1), min_size=n, max_size=n)))
    if draw(st.booleans()):
        picks.sort()
    allowed = ((np.array(palette)[picks, None] >> np.arange(k)) & 1).astype(bool)
    offsets = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    hidden = np.array([np.flatnonzero(row)[o % row.sum()] for row, o in zip(allowed, offsets)])
    fills = np.bincount(hidden, minlength=k)
    caps = fills + np.array(draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)))
    mandatory = np.array([draw(st.integers(0, int(f))) for f in fills])
    return allowed, caps, mandatory, hidden


def confined_counts_cube(masks, k):
    """``confined_counts`` by its first form: one cumsum per axis of the
    (2,)*k cube."""
    confined = np.bincount(np.array(masks, dtype=np.int64), minlength=1 << k)
    cube = confined.reshape((2,) * k)
    for axis in range(k):
        cube = np.cumsum(cube, axis=axis)
    return cube.reshape(-1)


def tie_population(tmp_path, n, k):
    """The benchmark's tie-heavy population: after the forced individuals,
    one run of identical allowed sets over all K services."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).parents[1] / "perfbench" / "inputs.py"
    )
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    path = tmp_path / "ties.csv"
    _, caps = inputs.write_tie_population(str(path), 0, n, k)
    return load_population_csv(str(path))[1], CapacityVector(caps)


class TestFlowSolver:
    @settings(max_examples=150, deadline=None)
    @given(instance=transport_instances())
    def test_matches_highs(self, instance):
        w, caps = instance
        n, k = w.shape
        flow, prices, *_ = policies._solve_transport(w, caps)
        total = certify(w, caps, flow, prices)
        highs_total, pi, sigma = highs_transport(w, caps)
        assert total == highs_total

        # the solver's assignment is optimal, so HiGHS's dual allows it too
        rc = -w - pi[:, None] - sigma[None, :]
        highs_mandatory = np.where(sigma < 0, caps, 0)
        ours = lex_least_under_dual(w, caps, prices, flow)
        theirs = walk(rc == 0, caps, highs_mandatory, flow)
        assert ours.tolist() == theirs.tolist()
        assert sum(w[np.arange(n), ours - 1].tolist()) == total

    @settings(max_examples=150, deadline=None)
    @given(instance=transport_instances(), data=st.data())
    def test_warm_start_matches_cold_start(self, instance, data):
        # any prices >= 0 start the descent, far above the optimum too; the
        # dual reached may differ, the tie-resolved assignment may not
        w, caps = instance
        p0 = data.draw(st.lists(st.one_of(st.integers(0, 6), st.integers(0, 2**40)),
                                min_size=w.shape[1], max_size=w.shape[1]))
        flow, prices, *_ = policies._solve_transport(w, caps, p0)
        total = certify(w, caps, flow, prices)
        cold_flow, cold_prices, *_ = policies._solve_transport(w, caps)
        assert total == certify(w, caps, cold_flow, cold_prices)
        assert (lex_least_under_dual(w, caps, prices, flow).tolist()
                == lex_least_under_dual(w, caps, cold_prices, cold_flow).tolist())

    def test_certificate_rejects_tampering(self):
        w = np.array([[10, 0], [0, 10]], dtype=np.int64)
        caps = np.array([2, 2])
        flow, prices, *_ = policies._solve_transport(w, caps)
        assert flow.tolist() == [0, 1] and prices == [0, 0]
        assert certify(w, caps, flow, prices) == 20
        for bad_flow, bad_prices, bad_caps in [
            (flow, [5, 0], caps),  # a price on a service with room
            (flow, [-1, 0], caps),
            (np.array([1, 0]), prices, caps),  # a worse assignment
            (np.array([0, 0]), prices, np.array([1, 2])),  # over capacity
        ]:
            with pytest.raises(RuntimeError, match="internal"):
                certify(w, bad_caps, bad_flow, bad_prices)
        # row maxima below the true ones lower the bound past the total
        with pytest.raises(RuntimeError, match="optimality certificate"):
            policies._certify_transport(w, caps, flow, prices, np.array([10, 9]))

    def test_exact_beyond_float_precision(self):
        # weights near 2**53 differ by 1: float64 sums cannot tell them apart
        big = 2**53 - 2
        w = np.array([[big, big - 1], [big - 1, big]] * 3, dtype=np.int64)
        caps = np.array([3, 3])
        flow, prices, *_ = policies._solve_transport(w, caps)
        assert certify(w, caps, flow, prices) == 6 * big

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
            confined = confined_counts([m for m, cnt in counts.items() for _ in range(cnt)], k)
            need, room = subset_sums(lo), subset_sums(hi)
            assert policies._completion_feasible_hall(confined, need, room) == hall_loop(
                counts, lo, hi, k
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_subset_sums_match_bit_product(self, seed):
        rng = np.random.default_rng(4100 + seed)
        for k in range(11):
            values = rng.integers(-50, 50, k)
            bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
            assert subset_sums(values).tolist() == (bits @ values).tolist()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lp_probe_matches_hall_beyond_subset_k(self, monkeypatch, seed):
        # K=13 ties take the oracle's LP probes; its Hall tables cover 13
        # services too when the cut-off is raised, and the residual walk from
        # the hidden assignment must pick the same assignment as both.
        # Tight capacities and lower bounds make some probes reject.
        rng = np.random.default_rng(4200 + seed)
        n, k = 20, 13
        hidden = rng.integers(0, k, n)
        allowed = rng.random((n, k)) < 0.3
        allowed[np.arange(n), hidden] = True
        fills = np.bincount(hidden, minlength=k)
        caps = fills + (rng.random(k) < 0.3)
        mandatory = np.where(rng.random(k) < 0.7, fills, 0)
        verdicts = []
        lp_probe = policies._completion_feasible_lp

        def counted(*args):
            verdicts.append(lp_probe(*args))
            return verdicts[-1]

        monkeypatch.setattr(policies, "_completion_feasible_lp", counted)
        by_lp = lex_least_hall_lp(allowed, caps, mandatory)
        assert verdicts.count(False) > 0
        by_hall = lex_least_hall_lp(allowed, caps, mandatory, max_subset_k=13)
        assert by_lp.tolist() == by_hall.tolist()
        verdicts.clear()
        walked = walk(allowed, caps, mandatory, hidden)
        assert walked.tolist() == by_hall.tolist() and not verdicts


    @settings(max_examples=200, deadline=None)
    @given(structure=tie_structures())
    def test_lex_least_matches_loop(self, structure):
        allowed, caps, mandatory, hidden = structure
        assert walk(allowed, caps, mandatory, hidden).tolist() == (
            lex_least_loop(allowed, caps, mandatory).tolist()
        )

    @settings(max_examples=100, deadline=None)
    @given(instance=transport_instances())
    def test_lex_least_matches_loop_on_optimal_arcs(self, instance):
        w, caps = instance
        flow, prices, *_ = policies._solve_transport(w, caps)
        allowed, mandatory = arcs_under_dual(w, caps, prices)
        assert walk(allowed, caps, mandatory, flow).tolist() == (
            lex_least_loop(allowed, caps, mandatory).tolist()
        )

    @pytest.mark.parametrize("k", range(1, 13))
    def test_confined_counts_match_cube(self, k):
        rng = np.random.default_rng(4300 + k)
        for size in (0, 1, 50):
            masks = rng.integers(1, 1 << k, size).tolist()
            assert confined_counts(masks, k).tolist() == confined_counts_cube(masks, k).tolist()

    @settings(max_examples=200, deadline=None)
    @given(structure=tie_runs())
    def test_lex_least_matches_loop_on_runs(self, structure):
        allowed, caps, mandatory, hidden = structure
        assert walk(allowed, caps, mandatory, hidden).tolist() == (
            lex_least_loop(allowed, caps, mandatory).tolist()
        )

    @pytest.mark.parametrize("k", [13, 14])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_lp_runs_match_hall_beyond_subset_k(self, monkeypatch, seed, k):
        # runs of three allowed sets, sorted so they are long; tight capacities
        # and lower bounds make the oracle's top count reject and its search
        # go below it
        rng = np.random.default_rng(4400 + 10 * seed + k)
        n = 40
        palette = rng.random((3, k)) < 0.4
        palette[np.arange(3), rng.integers(0, k, 3)] = True
        allowed = palette[np.sort(rng.integers(0, 3, n))]
        hidden = np.array([rng.choice(np.flatnonzero(row)) for row in allowed])
        fills = np.bincount(hidden, minlength=k)
        caps = fills + (rng.random(k) < 0.3)
        mandatory = np.where(rng.random(k) < 0.7, fills, 0)
        verdicts = []
        lp_probe = policies._completion_feasible_lp

        def counted(*args):
            verdicts.append(lp_probe(*args))
            return verdicts[-1]

        monkeypatch.setattr(policies, "_completion_feasible_lp", counted)
        by_lp = lex_least_hall_lp(allowed, caps, mandatory)
        assert verdicts.count(False) > 0
        by_hall = lex_least_hall_lp(allowed, caps, mandatory, max_subset_k=k)
        assert by_lp.tolist() == by_hall.tolist()
        verdicts.clear()
        walked = walk(allowed, caps, mandatory, hidden)
        assert walked.tolist() == by_hall.tolist() and not verdicts

    @pytest.mark.parametrize("n, k", [(100, 12), (400, 13)], ids=["hall", "lp"])
    def test_tie_run_matches_oracle(self, tmp_path, monkeypatch, n, k):
        # the benchmark's tie population: one long run over all K services;
        # the walk makes no feasibility probe and no LP call, and matches the
        # oracle on the solver's arcs (Hall tables at K=12, LP probes at 13)
        pop, caps = tie_population(tmp_path, n, k)

        def forbidden(*args, **kwargs):
            raise AssertionError("probe called")

        with monkeypatch.context() as patched:
            for name in ("linprog", "_completion_feasible_hall", "_completion_feasible_lp"):
                patched.setattr(policies, name, forbidden)
            alloc = allocate_utilitarian(pop, caps)
        assert alloc.is_feasible(pop, caps)
        oracle = utilitarian_oracle(pop.utilities, caps.capacities)
        assert alloc.assignment.tolist() == oracle.tolist()

    @pytest.mark.parametrize("k", [13, 14, 15])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_lex_least_matches_oracle_beyond_twelve_services(self, seed, k):
        # a few runs of shared sets among scattered ones, so that both the
        # take of a run and single moves go through augmenting paths
        rng = np.random.default_rng(4500 + 10 * seed + k)
        n = 40
        allowed = rng.random((n, k)) < 0.35
        allowed[10:25] = allowed[10]
        hidden = np.array([rng.choice(np.flatnonzero(row)) if row.any() else rng.integers(k)
                           for row in allowed])
        allowed[np.arange(n), hidden] = True
        fills = np.bincount(hidden, minlength=k)
        caps = fills + (rng.random(k) < 0.3)
        mandatory = np.where(rng.random(k) < 0.7, fills, 0)
        assert walk(allowed, caps, mandatory, hidden).tolist() == (
            lex_least_hall_lp(allowed, caps, mandatory, max_subset_k=k).tolist()
        )

    def test_lex_least_matches_oracle_on_many_sets(self):
        # N=2,000 over K=8 with about 200 distinct allowed sets, scattered
        rng = np.random.default_rng(4600)
        n, k = 2000, 8
        hidden = rng.integers(0, k, n)
        allowed = rng.random((n, k)) < 0.4
        allowed[np.arange(n), hidden] = True
        fills = np.bincount(hidden, minlength=k)
        caps = fills + (rng.random(k) < 0.3)
        mandatory = np.where(rng.random(k) < 0.7, fills, 0)
        assert len(np.unique(allowed[allowed.sum(axis=1) > 1], axis=0)) >= 150
        assert walk(allowed, caps, mandatory, hidden).tolist() == (
            lex_least_hall_lp(allowed, caps, mandatory).tolist()
        )

    @pytest.mark.parametrize("allowed, caps, mandatory, start", [
        ([[1, 1], [1, 1]], [1, 1], [0, 0], [0, 0]),  # over a capacity
        ([[1, 1], [1, 1]], [2, 2], [1, 0], [1, 1]),  # short of a mandatory fill
        ([[1, 0], [0, 1]], [1, 1], [0, 0], [1, 0]),  # off the allowed arcs
    ], ids=["capacity", "mandatory", "arc"])
    def test_lex_least_rejects_an_infeasible_start(self, allowed, caps, mandatory, start):
        with pytest.raises(RuntimeError, match="internal"):
            walk(allowed, caps, mandatory, start)

    @pytest.mark.parametrize("k", [24, 30])
    def test_many_services(self, k):
        # tie-heavy: 60 individuals over 4 weight levels; a solver sized by
        # the 2^K service subsets could not finish
        rng = np.random.default_rng(k)
        w = rng.integers(0, 4, (60, k)).astype(np.int64)
        caps = rng.integers(0, 4, k)
        caps[0] += max(0, 60 - caps.sum())
        flow, prices, *_ = policies._solve_transport(w, caps)
        assert certify(w, caps, flow, prices) == highs_transport(w, caps)[0]

    def test_certificate_sums_beyond_int64(self):
        # 1,100 weights of 2**53 - 1 sum past 2**63: an int64 sum would wrap
        big = 2**53 - 1
        w = np.zeros((1100, 2), dtype=np.int64)
        w[:, 0] = big
        assignment = np.zeros(1100, dtype=np.int64)
        total = certify(w, np.array([1100, 0]), assignment, [0, 0])
        assert type(total) is int and total == 1100 * big
        # one individual a unit short of the bound
        w[:, 1] = big - 1
        assignment[-1] = 1
        with pytest.raises(RuntimeError, match="optimality certificate"):
            certify(w, np.array([1100, 1]), assignment, [0, 0])


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
    member, count, key = policies._distinct_rows(matrix)
    got = member, count, np.argsort(key, kind="stable")
    want = distinct_rows_rowwise(allowed)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@settings(max_examples=200, deadline=None)
@given(allowed=hnp.arrays(bool, st.tuples(st.integers(1, 300), st.integers(1, 8))),
       fortran=st.booleans())
def test_distinct_rows_counts_codes_up_to_8_columns(allowed, fortran):
    # up to 8 columns each row's key is its bits read with column 0 highest
    matrix = np.asfortranarray(allowed) if fortran else allowed
    member, count, key = policies._distinct_rows(matrix)
    assert key.tolist() == [int("".join("01"[b] for b in row), 2) for row in allowed.tolist()]
    got = member, count, np.argsort(key, kind="stable")
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


def many_sets_population(n=3000, k=30, seed=30):
    """Utilities on two levels, drawn per individual and service, so each
    individual demands a random subset of the K services at prices 0: about
    N distinct demand sets, with capacities summing to N."""
    rng = np.random.default_rng(seed)
    utilities = 0.5 + 0.25 * rng.integers(0, 2, size=(n, k))
    return Population(utilities), CapacityVector(np.full(k, n // k))


# sha256 of the int64 assignment of ``many_sets_population()``, as the
# solver with a numpy flow matrix and the tie walk's own search computed it
MANY_SETS_DIGEST = "e04a3e94936670fad0dcf9595b32cf390ca5ace04cbecefee26422cf1abb8c89"


def test_many_demand_sets_pinned(monkeypatch):
    sets = []  # the number of demand sets the solver returns
    solve = policies._solve_transport

    def recorded(w, caps, p0=None):
        result = solve(w, caps, p0)
        sets.append(len(result[3]))
        return result

    monkeypatch.setattr(policies, "_solve_transport", recorded)
    alloc = allocate_utilitarian(*many_sets_population())
    digest = hashlib.sha256(alloc.assignment.astype("<i8").tobytes()).hexdigest()
    assert sets[0] > 2900
    assert digest == MANY_SETS_DIGEST


def test_last_descent_step_runs_one_max_flow(monkeypatch):
    # experiment 2's capacities sum to N, so at the optimum every service is
    # full and a flow lowering the priced services could find no path
    events = []
    greedy, flow = policies._Residual.greedy.__func__, policies._Residual.max_flow

    def recorded_greedy(cls, *args):
        events.append("greedy")
        return greedy(cls, *args)

    def recorded_flow(graph, free, caps):
        events.append("raise" if not free else "lower")
        return flow(graph, free, caps)

    monkeypatch.setattr(policies._Residual, "greedy", classmethod(recorded_greedy))
    monkeypatch.setattr(policies._Residual, "max_flow", recorded_flow)
    params = load_experiment_config("experiment2").params
    allocate = compile_spec(PolicySpec("utilitarian"))
    for seed in (7, 8):  # a cold start, then a warm one
        pop = params.sample(seed)
        assert params.capacities.total == pop.n
        events.clear()
        allocate(pop, params.capacities, 0)
        last_step = len(events) - events[::-1].index("greedy")
        assert events[last_step:] == ["raise"]


@pytest.mark.parametrize("seed", sorted(EXPERIMENT2_DIGESTS))
def test_experiment2_assignments_do_not_depend_on_the_start(seed):
    # the price sweeps and the descent may reach different optimal duals
    # from different starts; the tie-resolved assignment must not move
    params = load_experiment_config("experiment2").params
    previous: list[int] = []
    allocate_utilitarian(params.sample(seed - 1), params.capacities, _dual=previous)
    pop = params.sample(seed)
    for start in ([], previous, [10**12, 0, 7]):
        alloc = allocate_utilitarian(pop, params.capacities, _dual=list(start))
        digest = hashlib.sha256(alloc.assignment.astype("<i8").tobytes()).hexdigest()
        assert digest == EXPERIMENT2_DIGESTS[seed], start


def test_experiment2_descent_steps(monkeypatch):
    # one descent step (one set of demand sets) reads each replication's
    # start, and after the price sweeps one more certifies the optimum; the
    # descent alone took 89 steps here. The tie walk reads the last step's
    # demand sets and groups nothing itself, so every _distinct_rows call is
    # a step: 2 a replication, 40 in all
    steps = []
    real = policies._distinct_rows

    def recorded(allowed):
        steps.append(None)
        return real(allowed)

    monkeypatch.setattr(policies, "_distinct_rows", recorded)
    params = load_experiment_config("experiment2").params
    allocate = compile_spec(PolicySpec("utilitarian"))
    for seed in range(7, 27):
        allocate(params.sample(seed), params.capacities, 0)
    assert len(steps) <= 45


def dual_value(w, caps, prices):
    """The transport dual f at ``prices``, in Python ints."""
    best = (w - np.array(prices, dtype=np.int64)).max(axis=1)
    return sum(best.tolist()) + sum(c * q for c, q in zip(caps.tolist(), prices))


@st.composite
def sweep_instances(draw):
    """Weights over a few levels or a wide range for N <= 60 individuals and
    K <= 13 services, capacities (zeros allowed, each at most N) that sum to
    N or to more, and a cold start or one of random prices."""
    n = draw(st.integers(1, 60))
    k = draw(st.integers(1, 13))
    span = draw(st.sampled_from([3, 10**7]))
    w = draw(hnp.arrays(np.int64, (n, k), elements=st.integers(-span, span)))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=k - 1, max_size=k - 1)))
    caps = np.diff([0, *cuts, n])
    if draw(st.booleans()):  # more capacity than individuals
        extra = draw(st.lists(st.integers(0, n), min_size=k, max_size=k))
        caps = np.minimum(caps + extra, n)
    p0 = draw(st.one_of(st.none(), st.lists(st.integers(0, 3 * span), min_size=k, max_size=k),
                        st.lists(st.integers(0, 2**40), min_size=k, max_size=k)))
    return w, caps.astype(np.int64), p0


@settings(max_examples=300, deadline=None)
@given(instance=sweep_instances())
def test_price_sweeps_only_lower_the_dual(instance):
    w, caps, p0 = instance
    values = []  # f before and after each price search
    sweeps = []  # (start prices, returned prices) of each run of sweeps
    search, sweep = policies._search_price, policies._coordinate_sweeps

    def recorded_search(wt, other, caps_list, p, j, balanced):
        if j == 0:  # a sweep starts where the last one ended, shifted or not
            assert min(p) >= 0
        before = dual_value(w, caps, p)
        moved = search(wt, other, caps_list, p, j, balanced)
        after = dual_value(w, caps, p)
        assert after < before if moved else after == before
        values.append((before, after))
        return moved

    def recorded_sweeps(w_, caps_, p, balanced):
        out = sweep(w_, caps_, p, balanced)
        sweeps.append((p.tolist(), out.tolist()))
        return out

    with mock.patch.object(policies, "_search_price", recorded_search), \
            mock.patch.object(policies, "_coordinate_sweeps", recorded_sweeps):
        assignment, prices, *_ = policies._solve_transport(w, caps, p0)
    # a shift between sweeps leaves f as it was
    assert all(b == a for (_, a), (b, _) in zip(values, values[1:]))
    if sweeps:  # one run at most, before the first descent step
        (start, out), = sweeps
        assert min(out) >= 0
        assert values[0][0] == dual_value(w, caps, start)
        assert values[-1][1] == dual_value(w, caps, out)
    total = certify(w, caps, assignment, prices)
    assert total == dual_value(w, caps, prices)


@settings(max_examples=300, deadline=None)
@given(instance=sweep_instances())
def test_solver_returns_the_arcs_of_its_dual(instance):
    # the row maxima and demand sets that the walk and the certificate read
    # are those of the returned dual, for byte-code keys (K <= 8) and rank
    # keys (K > 8) alike
    w, caps, p0 = instance
    assignment, prices, top, member, key = policies._solve_transport(w, caps, p0)
    allowed, _ = arcs_under_dual(w, caps, prices)
    assert top.tolist() == (w - np.array(prices, dtype=np.int64)).max(axis=1).tolist()
    assert np.array_equal(member[np.unique(key, return_inverse=True)[1]], allowed)
    assert allowed[np.arange(len(w)), assignment].all()


@st.composite
def flow_instances(draw):
    """The distinct demand sets of up to 60 individuals over K <= 13
    services (K > 8 groups by sorting), their counts, capacities that are
    often 0, and a mix of free (price 0) and priced services."""
    n = draw(st.integers(1, 60))
    k = draw(st.integers(1, 13))
    allowed = draw(hnp.arrays(bool, (n, k), elements=st.booleans()))
    allowed[~allowed.any(axis=1), draw(st.integers(0, k - 1))] = True
    caps = draw(st.lists(st.one_of(st.just(0), st.integers(0, n)), min_size=k, max_size=k))
    free = draw(hnp.arrays(bool, k, elements=st.booleans()))
    member, count, _ = policies._distinct_rows(allowed)
    return member, count, np.array(caps, dtype=np.int64), free


def residual(member, flow, left, room, mandatory):
    """``policies._Residual`` of the reference's state: ``flow`` at the
    services, ``left`` at U."""
    fill = flow.sum(axis=0)
    return policies._Residual(member, np.column_stack([flow, left]), room.tolist(),
                              (fill - mandatory).tolist())


def reached(cut, k):
    return np.array([cut >> j & 1 for j in range(k)], dtype=bool)


@settings(max_examples=300, deadline=None)
@given(instance=flow_instances())
def test_residual_flows_cut_like_the_matrix_flows(instance):
    # from the reference's own state and from the greedy start, the raise
    # (U to T) and, once everyone is served, the lowering (T through the
    # free services back to T) reach the same services and carry the same
    # flow as the flows on a (demand sets x services) matrix: what a maximum
    # flow's source reaches is the minimal minimum cut, whichever flow it is
    member, count, caps, free = instance
    k = len(caps)
    mandatory = np.where(free, 0, caps)
    flow, left, room = demand_flow(member, count, caps)
    graphs = [residual(member, flow, left, room, mandatory),
              policies._Residual.greedy(member, count, caps, mandatory)]
    want = max_flow(member, left, flow, room, np.zeros(k, dtype=bool))
    for graph in graphs:
        assert np.array_equal(reached(graph.max_flow([], caps.tolist()), k), want)
        assert sum(graph.at[k].values()) == left.sum()
    if left.any() or not free.any():
        return  # the descent lowers prices only once everyone is served
    graphs.append(residual(member, flow, left, room, mandatory))
    room[free] = 0
    want = max_flow(member, left, flow, room, free)
    for graph in graphs:
        cut = graph.max_flow(np.flatnonzero(free).tolist(), caps.tolist())
        assert np.array_equal(reached(cut, k), want)
        fill = np.array([sum(graph.at[x].values()) for x in range(k)])
        assert graph.room[:k] == (caps - fill).tolist()
        assert fill[~free].sum() == flow[:, ~free].sum()


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
        assert PolicySpec.from_dict({
            "kind": "mixture", "seed": 9, "lambda": 0.25,
            "children": [{"kind": "utilitarian"}, {"kind": "random", "seed": 3}],
        }) == spec
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

    def test_compiled_utilitarian_warm_starts_on_the_same_k(self, transport_calls):
        rng = np.random.default_rng(4)
        cases = []
        for k in (3, 3, 4):
            pop = Population(rng.random((40, k)))
            caps = CapacityVector([40 // k] + [40 // k + 1] * (k - 1))
            cases.append((pop, caps, allocate_utilitarian(pop, caps)))
        transport_calls.clear()
        allocate = compile_spec(PolicySpec("utilitarian"))
        for pop, caps, cold in cases:
            assert allocate(pop, caps, 0).assignment.tolist() == cold.assignment.tolist()
        calls = transport_calls
        assert [start for start, _ in calls] == [None, calls[0][1], None]
        assert any(calls[0][1])  # the capacities bind: a warm start is not p = 0
