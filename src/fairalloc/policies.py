"""Feasible allocation policies.

The utilitarian policy is solved as a transportation problem (min-cost flow
over an individual/service bipartite graph) with integerized utilities, by
an exact successive-shortest-path solver over the K service nodes that also
yields integer service prices. Among all utility-maximizing assignments it
deterministically returns the lexicographically least one, recovered from
those prices: any optimal assignment uses only zero-reduced-cost arcs and
fills every service with a positive price, so a greedy first-fit with a
Hall-type feasibility check walks straight to the lexicographic minimum.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from ._io import expect
from ._rng import generator, spawn_seed
from .core import Allocation, CapacityVector, Population
from .errors import InfeasibleError

DEFAULT_TIE_BREAK_SCALE = 1e7

#: A policy realized as a callable: (population, capacities, seed) -> Allocation.
Allocator = Callable[[Population, CapacityVector, int], Allocation]

KIND_UTILITARIAN = "utilitarian"
KIND_RANDOM = "random"
KIND_MIXTURE = "mixture"
KIND_BEST = "assign-best-ignoring-capacity"
KIND_WORST = "assign-worst-ignoring-capacity"
KINDS = (KIND_UTILITARIAN, KIND_RANDOM, KIND_MIXTURE, KIND_BEST, KIND_WORST)

# Hall-style subset enumeration is exponential in K; beyond this many services
# tie resolution falls back to an LP feasibility probe per candidate.
_MAX_SUBSET_K = 12


@dataclass(frozen=True)
class PolicySpec:
    """Declarative policy description; ``mixture`` composes two child specs.

    ``seed`` pins the policy's random stream; when None, the seed supplied at
    allocation time is used (mixtures derive child seeds from their own).
    """

    kind: str
    seed: int | None = None
    lam: float | None = None
    children: tuple["PolicySpec", "PolicySpec"] | None = None
    tie_break_scale: float = DEFAULT_TIE_BREAK_SCALE

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        expect(self.tie_break_scale, "number", "policy tie_break_scale")
        for field, value, kind in (("lambda", self.lam, "number"), ("seed", self.seed, "integer")):
            if value is not None:
                expect(value, kind, f"policy {field}")
        if self.kind == KIND_MIXTURE:
            if self.lam is None or not (0.0 <= self.lam <= 1.0):
                raise ValueError("mixture requires lambda in [0, 1]")
            if self.children is None or len(self.children) != 2:
                raise ValueError("mixture requires exactly two child specs")
            object.__setattr__(self, "children", tuple(self.children))
        elif self.lam is not None or self.children is not None:
            raise ValueError(f"{self.kind} takes neither lambda nor children")

    def describe(self) -> str:
        if self.kind == KIND_MIXTURE:
            a, b = self.children
            return f"mixture({self.lam:g}, {a.describe()}, {b.describe()})"
        return self.kind

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": self.kind}
        if self.seed is not None:
            out["seed"] = self.seed
        if self.kind == KIND_MIXTURE:
            out["lambda"] = self.lam
            out["children"] = [c.to_dict() for c in self.children]
        if self.kind == KIND_UTILITARIAN and self.tie_break_scale != DEFAULT_TIE_BREAK_SCALE:
            out["tie_break_scale"] = self.tie_break_scale
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PolicySpec":
        expect(data, "object", "policy")
        children = data.get("children")
        return cls(
            kind=expect(data["kind"], "string", "policy kind"),
            seed=data.get("seed"),
            lam=data.get("lambda"),
            children=None if children is None else tuple(
                cls.from_dict(c) for c in expect(children, "object[]", "policy children")
            ),
            tie_break_scale=data.get("tie_break_scale", DEFAULT_TIE_BREAK_SCALE),
        )


def _check_instance(pop: Population, caps: CapacityVector):
    if caps.k != pop.k:
        raise ValueError("capacity vector length must equal the number of services")
    if caps.total < pop.n:
        raise InfeasibleError(f"infeasible: total capacity {caps.total} < population {pop.n}")


def allocate_best(pop: Population) -> Allocation:
    """Everyone gets their highest-utility service, ignoring capacities."""
    return Allocation(np.argmax(pop.utilities, axis=1) + 1)


def allocate_worst(pop: Population) -> Allocation:
    """Everyone gets their lowest-utility service, ignoring capacities."""
    return Allocation(np.argmin(pop.utilities, axis=1) + 1)


def allocate_random(pop: Population, caps: CapacityVector, seed: int) -> Allocation:
    """Uniform random feasible allocation.

    Builds the multiset holding ``c_k`` copies of each service, shuffles it
    with the seeded generator, and hands the first N slots to individuals
    1..N. Identical seeds produce identical allocations.
    """
    _check_instance(pop, caps)
    slots = np.repeat(np.arange(1, pop.k + 1, dtype=np.int64), caps.capacities)
    gen = generator(seed)
    return Allocation(slots[gen.permutation(slots.size)][: pop.n])


@functools.lru_cache(maxsize=None)
def _subset_bits(k: int) -> np.ndarray:
    """Read-only (2^k, k) matrix: row S holds the bits of service subset S."""
    bits = (np.arange(1 << k, dtype=np.int64)[:, None] >> np.arange(k)) & 1
    bits.setflags(write=False)
    return bits


def _completion_feasible_hall(counts: dict[int, int], lo: np.ndarray, hi: np.ndarray, k: int) -> bool:
    """Feasibility of assigning the remaining individuals (counted by allowed-set
    bitmask) so every service fill lands in [lo, hi]. Hall/Hoffman conditions,
    checked over all service subsets at once."""
    confined = np.zeros(1 << k, dtype=np.int64)
    confined[list(counts)] = list(counts.values())
    # subset-sum transform: confined[S] counts individuals whose allowed set
    # lies inside S; each axis of the (2,)*k cube is one service bit
    cube = confined.reshape((2,) * k)
    for axis in range(k):
        cube = np.cumsum(cube, axis=axis)
    confined = cube.reshape(-1)
    bits = _subset_bits(k)
    total = confined[-1]
    # confined[full ^ S] is confined[::-1], since full ^ S == full - S
    return not (np.any(confined > bits @ hi) or np.any(bits @ lo > total - confined[::-1]))


def _completion_feasible_lp(counts: dict[int, int], lo: np.ndarray, hi: np.ndarray, k: int) -> bool:
    """LP feasibility probe for the same question; used when K is too large for
    subset enumeration. The constraint polytope is integral, so LP emptiness
    decides integral feasibility."""
    masks = sorted(counts)
    if not masks:
        return bool(np.all(lo <= 0))
    arcs = [(mi, kk) for mi, m in enumerate(masks) for kk in range(k) if m >> kk & 1]
    nv = len(arcs)
    a_eq = sparse.csr_matrix(
        (np.ones(nv), ([mi for mi, _ in arcs], np.arange(nv))), shape=(len(masks), nv)
    )
    a_sv = sparse.csr_matrix(
        (np.ones(nv), ([kk for _, kk in arcs], np.arange(nv))), shape=(k, nv)
    )
    res = linprog(
        np.zeros(nv),
        A_ub=sparse.vstack([a_sv, -a_sv]),
        b_ub=np.concatenate([hi.astype(float), -lo.astype(float)]),
        A_eq=a_eq,
        b_eq=np.array([counts[m] for m in masks], dtype=float),
        bounds=(0, None),
        method="highs",
    )
    return res.status == 0


def _lex_least_allowed(allowed: np.ndarray, caps: np.ndarray, mandatory: np.ndarray) -> np.ndarray:
    """Lexicographically least assignment using only allowed (i, k) pairs with
    service fills in [mandatory_k, caps_k]. Assumes at least one such
    assignment exists."""
    n, k = allowed.shape
    feasible = _completion_feasible_hall if k <= _MAX_SUBSET_K else _completion_feasible_lp
    masks = allowed @ (1 << np.arange(k, dtype=np.int64))
    counts: dict[int, int] = {}
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
            if feasible(counts, lo_rem, hi_rem, k):
                out[i] = kk + 1
                placed = True
                break
            assigned[kk] -= 1
        if not placed:
            raise RuntimeError("internal: no feasible completion during tie resolution")
    return out


def _longest_paths(dist: list[int], moves: list[list[tuple[int, int] | None]]) -> list[int]:
    """Bellman-Ford on the K service nodes: updates ``dist`` in place to the
    longest-path gains, where ``moves[a][b]`` is the (gain, individual) of the
    best move from service a to b, or None. Returns each node's predecessor
    (-1: its start value). The service graph of an optimal flow has no
    positive cycle, so K - 1 rounds suffice."""
    k = len(dist)
    pred = [-1] * k
    for _ in range(k - 1):
        changed = False
        for a in range(k):
            da = dist[a]
            for b, move in enumerate(moves[a]):
                if move is not None and da + move[0] > dist[b]:
                    dist[b] = da + move[0]
                    pred[b] = a
                    changed = True
        if not changed:
            break
    return pred


def _solve_transport(w: np.ndarray, caps: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Maximum-weight assignment of N individuals to K capacitated services.

    Successive shortest paths (Ahuja, Magnanti & Orlin, *Network Flows*, 1993,
    ch. 9) over the K service nodes: individuals join one at a time, each along
    a longest gain path to a service with room, found by Bellman-Ford. The
    best move of an assigned individual from service a to b is the top of a
    lazy max-heap for the pair (a, b); an entry goes stale when its individual
    leaves a. ``w`` holds exact integer weights and ``caps`` must sum to at
    least N.

    Returns the 0-based assignment and the least service prices p >= 0,
    Python ints: the longest paths from a virtual source over the final
    residual graph, ``p_b = max(0, p_a + gain(a -> b))``.
    """
    n, k = w.shape
    rows = w.tolist()
    cap = caps.tolist()
    fill = [0] * k
    where = [-1] * n
    heaps = [[[] for _ in range(k)] for _ in range(k)]  # (loss, j) per (a, b)

    def place(j: int, a: int):
        where[j] = a
        row = rows[j]
        for b in range(k):
            if b != a:
                heapq.heappush(heaps[a][b], (row[a] - row[b], j))

    def best_moves() -> list[list[tuple[int, int] | None]]:
        """(gain, individual) of the best move for every pair, or None."""
        moves = [[None] * k for _ in range(k)]
        for a in range(k):
            for b in range(k):
                heap = heaps[a][b]
                while heap and where[heap[0][1]] != a:
                    heapq.heappop(heap)
                if heap:
                    moves[a][b] = (-heap[0][0], heap[0][1])
        return moves

    for i, row in enumerate(rows):
        best = row.index(max(row))
        if fill[best] < cap[best]:
            # A path through a non-empty full service ends with gain <= 0 at
            # a service with room, so the best service with room wins.
            fill[best] += 1
            place(i, best)
            continue
        moves = best_moves()
        dist = list(row)
        pred = _longest_paths(dist, moves)
        end = max((b for b in range(k) if fill[b] < cap[b]), key=dist.__getitem__)
        path = [end]
        while pred[path[-1]] >= 0 and len(path) <= k:
            path.append(pred[path[-1]])
        if len(path) > k:
            raise RuntimeError("internal: cyclic augmenting path in the flow solver")
        path.reverse()
        movers = [moves[a][b][1] for a, b in zip(path, path[1:])]
        for j, b in zip(movers, path[1:]):
            place(j, b)
        place(i, path[0])
        fill[end] += 1

    prices = [0] * k
    _longest_paths(prices, best_moves())
    return np.array(where, dtype=np.int64), prices


def _certify_transport(w: np.ndarray, caps: np.ndarray, assignment: np.ndarray, prices: list[int]) -> int:
    """Exact optimality certificate of a transport solution; returns its total.

    For prices p >= 0, ``sum_i max_k(w_ik - p_k) + sum_k c_k p_k`` bounds every
    feasible total from above (weak duality), so a feasible assignment that
    reaches the bound is optimal and p is an optimal dual. Totals are Python
    ints: a sum of N weights below 2**53 can overflow int64.

    Raises:
        RuntimeError: if the assignment is infeasible or misses the bound.
    """
    n, k = w.shape
    if np.any(np.bincount(assignment, minlength=k) > caps):
        raise RuntimeError("internal: flow solution exceeds the capacities")
    # least prices stay below twice the weight range (< 2**55), so w - p fits int64
    if not all(0 <= q < 2**62 for q in prices):
        raise RuntimeError("internal: flow prices out of range")
    total = sum(w[np.arange(n), assignment].tolist())
    surplus = (w - np.array(prices, dtype=np.int64)).max(axis=1)
    bound = sum(surplus.tolist()) + sum(c * q for c, q in zip(caps.tolist(), prices))
    if total != bound:
        raise RuntimeError("internal: flow solution failed its optimality certificate")
    return total


def allocate_utilitarian(
    pop: Population,
    caps: CapacityVector,
    tie_break_scale: float = DEFAULT_TIE_BREAK_SCALE,
) -> Allocation:
    """Feasible allocation maximizing total utility.

    Utilities are integerized as round(u * tie_break_scale); utilities that
    differ by less than 1/tie_break_scale may therefore tie. Among optimal
    assignments, returns the lexicographically least vector (individual 1's
    service first). Deterministic.

    Raises:
        ValueError: if ``tie_break_scale`` is not finite and positive.
        InfeasibleError: if total capacity is below the population size.
    """
    if not (np.isfinite(tie_break_scale) and tie_break_scale > 0):
        raise ValueError(f"tie_break_scale must be finite and > 0, got {tie_break_scale!r}")
    _check_instance(pop, caps)
    n = pop.n
    w = np.round(pop.utilities * tie_break_scale)
    if not np.all(np.isfinite(w)) or np.abs(w).max() >= 2**53:
        raise ValueError("tie_break_scale too large for these utilities")
    w = w.astype(np.int64)

    flow, prices = _solve_transport(w, caps.capacities)
    optimum = _certify_transport(w, caps.capacities, flow, prices)

    # With optimal prices p (LP duals sigma = -p, pi_i = -max_k(w_ik - p_k)),
    # the optimal assignments are exactly those using zero-reduced-cost arcs,
    # w_ik - p_k == max_k(w_ik - p_k), that fill every service priced above 0.
    p = np.array(prices, dtype=np.int64)
    surplus = w - p
    allowed = surplus == surplus.max(axis=1, keepdims=True)
    mandatory = np.where(p > 0, caps.capacities, 0)
    assignment = _lex_least_allowed(allowed, caps.capacities.copy(), mandatory)
    alloc = Allocation(assignment)

    total = sum(w[np.arange(n), assignment - 1].tolist())
    if total != optimum or not alloc.is_feasible(pop, caps):
        raise RuntimeError("internal: tie resolution lost optimality or feasibility")
    return alloc


def allocate_mixture(
    pop: Population,
    caps: CapacityVector,
    lam: float,
    alloc_a: Allocator,
    alloc_b: Allocator,
    seed: int,
) -> Allocation:
    """Lambda-mixture of two policies.

    A seeded shuffle splits the individuals into parts of size
    round(lam * N) and the rest. The first part receives floor(lam * c_k)
    units of each service; when rounding leaves that part short, it borrows
    one unit per service in index order (cycling) from the second part until
    its sub-problem is feasible. Each part is then allocated by its child
    policy with a seed derived from ``seed``.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    _check_instance(pop, caps)
    n, k = pop.n, pop.k

    n_a = int(np.floor(lam * n + 0.5 + 1e-9))  # round half up
    gen = generator(seed, stream=0)
    perm = gen.permutation(n)
    idx_a = np.sort(perm[:n_a])
    idx_b = np.sort(perm[n_a:])

    caps_a = np.floor(lam * caps.capacities + 1e-9).astype(np.int64)
    caps_b = caps.capacities - caps_a
    while caps_a.sum() < n_a:
        borrowed = False
        for kk in range(k):
            if caps_a.sum() >= n_a:
                break
            if caps_b[kk] > 0:
                caps_a[kk] += 1
                caps_b[kk] -= 1
                borrowed = True
        if not borrowed:
            raise InfeasibleError("infeasible: split repair exhausted capacity")
    if caps_b.sum() < n - n_a:
        raise InfeasibleError("infeasible after split repair")

    assignment = np.zeros(n, dtype=np.int64)
    for idx, sub_caps, child, stream in (
        (idx_a, caps_a, alloc_a, 1),
        (idx_b, caps_b, alloc_b, 2),
    ):
        if idx.size == 0:
            continue
        sub = child(pop.subset(idx), CapacityVector(sub_caps), spawn_seed(seed, stream))
        assignment[idx] = sub.assignment
    alloc = Allocation(assignment)
    if not alloc.is_feasible(pop, caps):
        # a child that ignores capacities can overflow the shared budget
        raise InfeasibleError("infeasible: mixture children exceeded the capacities")
    return alloc


def compile_spec(spec: PolicySpec) -> Allocator:
    """Turn a PolicySpec into a callable allocator.

    Specs with an explicit ``seed`` pin their stream regardless of the seed
    passed at call time.
    """
    if spec.kind == KIND_MIXTURE:
        child_a, child_b = (compile_spec(c) for c in spec.children)

    def run(pop: Population, caps: CapacityVector, seed: int) -> Allocation:
        s = spec.seed if spec.seed is not None else seed
        if spec.kind == KIND_UTILITARIAN:
            return allocate_utilitarian(pop, caps, spec.tie_break_scale)
        if spec.kind == KIND_RANDOM:
            return allocate_random(pop, caps, s)
        if spec.kind == KIND_BEST:
            return allocate_best(pop)
        if spec.kind == KIND_WORST:
            return allocate_worst(pop)
        return allocate_mixture(pop, caps, spec.lam, child_a, child_b, s)

    return run


def apply_policy(
    spec: PolicySpec, pop: Population, caps: CapacityVector, seed: int | None = None
) -> Allocation:
    """Allocate ``pop`` under ``spec``; seed precedence: call > spec > 0."""
    effective = seed if seed is not None else (spec.seed if spec.seed is not None else 0)
    return compile_spec(spec)(pop, caps, effective)
