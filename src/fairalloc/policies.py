"""Feasible allocation policies.

The utilitarian policy is solved as a transportation problem with
integerized utilities, by exact steepest descent on its dual over the K
integer service prices, which yields an optimal assignment and an optimal
dual. Among all utility-maximizing assignments it deterministically returns
the lexicographically least one, recovered from that dual: every optimal
assignment uses only zero-reduced-cost arcs and fills every service with a
positive price, so a greedy first-fit with a Hall-type feasibility check
walks straight to the lexicographic minimum.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from ._io import expect
from ._rng import generator, spawn_seed
from .core import Allocation, CapacityVector, Population, _first_best, _reduce_services
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
    return Allocation(_first_best(pop.utilities) + 1)


def allocate_worst(pop: Population) -> Allocation:
    """Everyone gets their lowest-utility service, ignoring capacities."""
    return Allocation(_first_best(pop.utilities, worst=True) + 1)


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
    assignment exists.

    An individual with one allowed service takes it in every such assignment,
    so all of them are placed up front from one count; only individuals with
    a choice are walked, in order, each to its least service that leaves a
    feasible completion.
    """
    n, k = allowed.shape
    feasible = _completion_feasible_hall if k <= _MAX_SUBSET_K else _completion_feasible_lp
    out = _first_best(allowed) + 1
    choice = allowed.sum(axis=1) > 1
    assigned = np.bincount(out[~choice] - 1, minlength=k)
    multi = np.flatnonzero(choice)
    # allowed sets as Python-int bitmasks (service k is bit k), exact for any K
    rows = np.packbits(allowed[multi], axis=1, bitorder="little")
    masks = [int.from_bytes(row.tobytes(), "little") for row in rows]
    counts: dict[int, int] = {}
    for m in masks:
        counts[m] = counts.get(m, 0) + 1

    for i, m in zip(multi.tolist(), masks):
        counts[m] -= 1
        if counts[m] == 0:
            del counts[m]
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


def _max_flow(member: np.ndarray, left: np.ndarray, flow: np.ndarray, room: np.ndarray,
              free: np.ndarray) -> np.ndarray:
    """Augments ``flow`` to a maximum flow of the network source -> mask m
    (``left[m]`` more units) -> each service of the mask (``member[m]``,
    unbounded) -> sink (``room[k]`` more units), where the services in
    ``free`` are also fed straight from the source, unbounded.

    Edmonds-Karp: breadth-first augmenting paths over the service nodes; a
    hop a -> b moves flow of some mask from service a to service b. Updates
    ``flow`` (masks x services), ``left`` and ``room`` in place and returns
    the services reachable from the source in the final residual graph: the
    source side of the minimal minimum cut.
    """
    while True:
        # pred[b] = (a, m): reach b by moving mask m's flow off service a;
        # a == -1: from the source, through mask m (m == -1: straight)
        pred: dict[int, tuple[int, int]] = {}
        open_masks = np.flatnonzero(left > 0)
        starts = member[open_masks]
        for b in np.flatnonzero(starts.any(axis=0)).tolist():
            pred[b] = (-1, int(open_masks[np.argmax(starts[:, b])]))
        for b in np.flatnonzero(free).tolist():
            pred[b] = (-1, -1)
        queue = list(pred)
        end = -1
        for a in queue:  # grows while it is walked
            if room[a] > 0:
                end = a
                break
            senders = np.flatnonzero(flow[:, a] > 0)
            reach = member[senders]
            for b in np.flatnonzero(reach.any(axis=0)).tolist():
                if b not in pred:
                    pred[b] = (a, int(senders[np.argmax(reach[:, b])]))
                    queue.append(b)
        if end < 0:
            reached = np.zeros(member.shape[1], dtype=bool)
            reached[queue] = True
            return reached

        path, b, delta = [], end, room[end]
        while True:
            a, m = pred[b]
            path.append((a, m, b))
            if a < 0:
                break
            delta = min(delta, flow[m, a])
            b = a
        if m >= 0:
            delta = min(delta, left[m])
        for a, m, b in path:
            if a >= 0:
                flow[m, a] -= delta
            elif m >= 0:
                left[m] -= delta
            if m >= 0:
                flow[m, b] += delta
        room[end] -= delta


def _distinct_rows(allowed: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of a boolean matrix, how often each occurs, and an
    order of the row indices that lists each distinct row's copies together,
    in the same order. Rows sort as bit strings, column 0 first. Works for
    any number of columns: each row's bits are packed into bytes, as
    ``np.packbits(axis=1)`` packs them, in column passes rather than row by
    row (``np.unique(axis=0)`` sorts a structured view, about 20 times
    slower)."""
    k = allowed.shape[1]
    bits = np.asfortranarray(allowed).view(np.uint8) << (7 - np.arange(k) % 8).astype(np.uint8)
    words = np.column_stack(
        [_reduce_services(np.bitwise_or, bits[:, j : j + 8]) for j in range(0, k, 8)]
    )
    order = np.lexsort(words.T[::-1])
    words = words[order]
    first = np.ones(len(words), dtype=bool)
    first[1:] = (words[1:] != words[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    return allowed[order[starts]], np.diff(starts, append=len(words)), order


def _demand_flow(member: np.ndarray, count: np.ndarray, caps: np.ndarray):
    """Greedy start for ``_max_flow``: one-service demand sets take what their
    service holds, then, service by service, the larger sets that name it,
    fewest services first, fill what is left of it. Returns
    (flow, left, room)."""
    flow = np.zeros(member.shape, dtype=np.int64)
    size = member.sum(axis=1)
    single = np.flatnonzero(size == 1)  # distinct sets: one row per service
    service = _first_best(member[single])
    flow[single, service] = np.minimum(count[single], caps[service])
    left = count - flow.sum(axis=1)
    room = caps - flow.sum(axis=0)
    multi = np.flatnonzero(size > 1)
    multi = multi[np.argsort(size[multi], kind="stable")]
    for b in np.flatnonzero(member[multi].any(axis=0)).tolist():
        rows = multi[member[multi, b] & (left[multi] > 0)]
        want = left[rows]
        give = np.minimum(want, np.maximum(room[b] - (np.cumsum(want) - want), 0))
        flow[rows, b] = give
        left[rows] -= give
        room[b] -= give.sum()
    return flow, left, room


def _solve_transport(w: np.ndarray, caps: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Maximum-weight assignment of N individuals to K capacitated services.

    Minimizes the transport dual ``f(p) = sum_i max_k(w_ik - p_k) + sum_k
    c_k p_k`` over integer prices p >= 0 by steepest descent from p = 0.
    ``f`` is L-natural convex in p (Murota, *Discrete Convex Analysis*, 2003),
    so a point that no step p +- 1_S improves is a global minimum (Murota &
    Shioura, *Oper. Res. Lett.* 42, 2014). Each individual demands the
    services where ``w - p`` peaks; one max flow from the distinct demand sets
    to the services finds the steepest raise (the services reachable in its
    residual graph, when not everyone can be served), and a second, with the
    price-0 services also fed by the source, the steepest lowering (the
    services it cannot fill). The step length is the exact line search, an
    order statistic of the individuals' gaps. ``f`` is an integer and falls
    on every step, so the descent ends. Every array is O(N K); nothing is
    sized by the 2^K service subsets. ``w`` holds exact integer weights and
    ``caps`` must sum to at least N.

    Returns a 0-based optimal assignment, read off the final flow, and an
    optimal dual p, Python ints. The dual need not be the least one.
    """
    n, k = w.shape
    p = np.zeros(k, dtype=np.int64)
    while True:
        surplus = w - p
        top = _reduce_services(np.maximum, surplus)
        member, count, order = _distinct_rows(surplus == top[:, None])
        flow, left, room = _demand_flow(member, count, caps)
        reached = _max_flow(member, left, flow, room, np.zeros(k, dtype=bool))
        if left.any():
            # raising the reached services by one saves more than they cost;
            # go until only c(T) individuals still gain from the raise
            c_t = int(caps[reached].sum())
            gap = (_reduce_services(np.maximum, surplus[:, reached])
                   - _reduce_services(np.maximum, surplus[:, ~reached]))
            p[reached] += np.partition(gap, n - c_t - 1)[n - c_t - 1]
        else:
            free = p == 0
            room[free] = 0
            reached = _max_flow(member, left, flow, room, free)
            if not room.any():
                break
            # lowering the unreached (priced) services by one frees more
            # capacity than demand it draws
            lower = ~reached
            c_u = int(caps[lower].sum())
            step = int(p[lower].min())
            if c_u <= n:
                gap = (_reduce_services(np.maximum, surplus[:, reached])
                       - _reduce_services(np.maximum, surplus[:, lower]))
                step = min(step, int(np.partition(gap, c_u - 1)[c_u - 1]))
            p[lower] -= step
        if p.max() >= 2**62:
            raise RuntimeError("internal: flow prices out of range")

    # the final flow serves everyone and fills every priced service: split
    # each demand set's flow over its individuals
    assignment = np.empty(n, dtype=np.int64)
    assignment[order] = np.repeat(np.tile(np.arange(k), len(member)), flow.ravel())
    return assignment, p.tolist()


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
    # with |w| < 2**53, prices below 2**62 keep w - p inside int64
    if not all(0 <= q < 2**62 for q in prices):
        raise RuntimeError("internal: flow prices out of range")
    total = sum(w[np.arange(n), assignment].tolist())
    surplus = _reduce_services(np.maximum, w - np.array(prices, dtype=np.int64))
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

    # no service can take more than N, so the feasible set is the same and no
    # int64 sum of capacities (here or in the Hall probes) can wrap
    cap = np.minimum(caps.capacities, n)
    _, prices = _solve_transport(w, cap)

    # With an optimal dual p (LP duals sigma = -p, pi_i = -max_k(w_ik - p_k)),
    # the optimal assignments are exactly those using zero-reduced-cost arcs,
    # w_ik - p_k == max_k(w_ik - p_k), that fill every service priced above 0
    # (complementary slackness, which holds for every optimal dual alike).
    p = np.array(prices, dtype=np.int64)
    surplus = w - p
    allowed = surplus == _reduce_services(np.maximum, surplus)[:, None]
    mandatory = np.where(p > 0, cap, 0)
    assignment = _lex_least_allowed(allowed, cap.copy(), mandatory)
    _certify_transport(w, cap, assignment - 1, prices)
    return Allocation(assignment)


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
    """Allocate ``pop`` under ``spec``; seed precedence: spec > call > 0."""
    return compile_spec(spec)(pop, caps, 0 if seed is None else seed)
