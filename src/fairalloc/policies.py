"""Feasible allocation policies.

The utilitarian policy is solved as a transportation problem with
integerized utilities, by exact steepest descent on its dual over the K
integer service prices, which yields an optimal assignment and an optimal
dual. Among all utility-maximizing assignments it deterministically returns
the lexicographically least one, recovered from that dual: every optimal
assignment uses only zero-reduced-cost arcs and fills every service with a
positive price. Starting from the solver's own assignment, a walk fixes the
individuals in order, each at its least service that leaves a feasible
completion. The walk moves by runs of consecutive individuals with the same
allowed services, fixing at each service as many of a run as it can take. It
reads the allowed services off the solver's last demand sets, grouped only
there. The descent's flows and the walk's augmenting cycles all run in one
residual network, ``_Residual``.

No LP is solved. ``linprog``, ``_completion_feasible_hall`` and
``_completion_feasible_lp`` are the earlier tie resolver's feasibility
checks; the package no longer calls them, and they stay only because the
benchmark's layer tracer (``perfbench/tracing.py``) wraps them and the tests
use them as references. ``linprog`` imports ``scipy.optimize`` on its first
call, so importing or running the package does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ._io import expect, required
from ._rng import check_seed, generator, spawn_seed
from .core import Allocation, CapacityVector, Population, _first_best, _reduce_services
from .errors import InfeasibleError, InputError

DEFAULT_TIE_BREAK_SCALE = 1e7
_MAX_SLOTS = np.iinfo(np.intp).max // 8  # int64 entries an array can hold

#: A policy realized as a callable: (population, capacities, seed) -> Allocation.
Allocator = Callable[[Population, CapacityVector, int], Allocation]

KIND_UTILITARIAN = "utilitarian"
KIND_RANDOM = "random"
KIND_MIXTURE = "mixture"
KIND_BEST = "assign-best-ignoring-capacity"
KIND_WORST = "assign-worst-ignoring-capacity"
KINDS = (KIND_UTILITARIAN, KIND_RANDOM, KIND_MIXTURE, KIND_BEST, KIND_WORST)

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
            raise InputError(f"unknown policy kind {self.kind!r}")
        expect(self.tie_break_scale, "number", "policy tie_break_scale")
        for field, value, kind in (("lambda", self.lam, "number"), ("seed", self.seed, "integer")):
            if value is not None:
                expect(value, kind, f"policy {field}")
        if self.seed is not None:
            check_seed(self.seed, "policy seed")
        if self.kind == KIND_MIXTURE:
            if self.lam is None or not (0.0 <= self.lam <= 1.0):
                raise InputError("mixture requires lambda in [0, 1]")
            if self.children is None or len(self.children) != 2:
                raise InputError("mixture requires exactly two child specs")
            object.__setattr__(self, "children", tuple(self.children))
        elif self.lam is not None or self.children is not None:
            raise InputError(f"{self.kind} takes neither lambda nor children")

    def describe(self) -> str:
        if self.kind == KIND_MIXTURE:
            a, b = self.children
            return f"mixture({self.lam:g}, {a.describe()}, {b.describe()})"
        return self.kind

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PolicySpec":
        expect(data, "object", "policy")
        children = data.get("children")
        return cls(
            kind=expect(required(data, "kind", "policy"), "string", "policy kind"),
            seed=data.get("seed"),
            lam=data.get("lambda"),
            children=None if children is None else tuple(
                cls.from_dict(c) for c in expect(children, "object[]", "policy children")
            ),
            tie_break_scale=data.get("tie_break_scale", DEFAULT_TIE_BREAK_SCALE),
        )


def _check_instance(pop: Population, caps: CapacityVector):
    if caps.k != pop.k:
        raise InputError("capacity vector length must equal the number of services")
    if caps.total < pop.n:
        raise InfeasibleError(f"infeasible: total capacity {caps.total} < population {pop.n}")


def allocate_best(pop: Population) -> Allocation:
    """Everyone gets their highest-utility service, ignoring capacities."""
    return Allocation._adopt(_first_best(pop.utilities) + 1)


def allocate_worst(pop: Population) -> Allocation:
    """Everyone gets their lowest-utility service, ignoring capacities."""
    return Allocation._adopt(_first_best(pop.utilities, worst=True) + 1)


def allocate_random(pop: Population, caps: CapacityVector, seed: int) -> Allocation:
    """Uniform random feasible allocation.

    Builds the multiset holding ``c_k`` copies of each service, shuffles it
    with the seeded generator, and hands the first N slots to individuals
    1..N. Identical seeds produce identical allocations.
    """
    _check_instance(pop, caps)
    if caps.total > _MAX_SLOTS:
        raise InputError(f"total capacity {caps.total} is too large for the random policy")
    slots = np.repeat(np.arange(1, pop.k + 1, dtype=np.int64), caps.capacities)
    gen = generator(seed)
    return Allocation._adopt(slots[gen.permutation(slots.size)[: pop.n]])


# The earlier tie resolver's feasibility checks, which the package no longer
# calls (see the module docstring).
def _completion_feasible_hall(confined: np.ndarray, need: np.ndarray, room: np.ndarray) -> bool:
    """Feasibility of assigning the remaining individuals so every service
    fill lands in its bounds, by the Hall/Hoffman conditions over all service
    subsets S at once: ``confined[S]`` individuals must fit in ``room[S]``
    places, and the ``need[S]`` places still owed to S need as many
    individuals allowed somewhere in S."""
    # confined[full ^ S] is confined[::-1], since full ^ S == full - S
    return not (np.any(confined > room) or np.any(need > confined[-1] - confined[::-1]))


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call rather than
    with the package: that import takes about as long as all the package's
    other imports together, and only the LP feasibility probe needs it."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _completion_feasible_lp(counts: dict[int, int], lo: np.ndarray, hi: np.ndarray, k: int) -> bool:
    """LP feasibility probe for the same question; used when K is too large for
    subset enumeration. The constraint polytope is integral, so LP emptiness
    decides integral feasibility."""
    from scipy import sparse

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


class _Residual:
    """The residual network of a partial assignment of demand sets to the K
    services: nodes 0..K-1 are the services, node K (U) holds the
    individuals not yet placed, and node K + 1 is the slack node T.

    A hop x -> y, from a service or U to a service, moves individuals of
    some set at x that is allowed at y; it exists while ``reach[x][y]``, the
    count of such individuals, is positive, which ``edges[x]`` keeps as a
    bitmask. x -> T places one more individual at x and exists while
    ``room[x] > 0``; T -> y takes one away from y and exists while
    ``spare[y] > 0``. ``at[x][s]`` counts set s's individuals at node x.
    ``search`` finds a shortest path, ``push`` moves a count along it, and
    each ``move`` keeps ``at``, ``reach`` and ``edges`` current, so a search
    costs O(K^2) however many sets there are (Ahuja, Magnanti & Orlin,
    *Network Flows*, 1993, ch. 6-7).
    """

    __slots__ = ("k", "sets", "masks", "at", "reach", "edges", "room", "spare")

    def __init__(self, member: np.ndarray, held: np.ndarray, room: list[int], spare: list[int]):
        """``member`` holds the distinct sets, one row each, and ``held[s, x]``
        set s's individuals at node x, services first and U last."""
        self.k = k = member.shape[1]
        cols = np.nonzero(member)[1].tolist()
        ends = np.cumsum(np.count_nonzero(member, axis=1)).tolist()
        self.sets = sets = [cols[a:b] for a, b in zip([0, *ends], ends)]  # each set's services
        if k < 63:
            self.masks = masks = (member @ (1 << np.arange(k))).tolist()
        else:
            self.masks = masks = [sum(1 << j for j in js) for js in sets]
        self.at = at = [{} for _ in range(k + 1)]
        self.edges = edges = [0] * (k + 1)
        rows, cols = np.nonzero(held)
        for s, x, c in zip(rows.tolist(), cols.tolist(), held[rows, cols].tolist()):
            at[x][s] = c
            edges[x] |= masks[s]
        self.reach = (held.T @ member).tolist()
        self.room = [*room, 0]  # U is never a sink
        self.spare = spare

    @classmethod
    def greedy(cls, member: np.ndarray, count: np.ndarray, caps: np.ndarray,
               mandatory: np.ndarray) -> "_Residual":
        """The network of a greedy start: set by set, each set's ``count``
        individuals fill what room its services have left, lowest service
        first, and the rest wait at U. The services' spare is their fill
        above ``mandatory``."""
        d, k = member.shape
        room, left = caps.tolist(), count.tolist()
        rows, cols, gives = [], [], []
        for s, j in zip(*(a.tolist() for a in np.nonzero(member))):
            if left[s] and room[j] > 0:
                give = min(left[s], room[j])
                room[j] -= give
                left[s] -= give
                rows.append(s)
                cols.append(j)
                gives.append(give)
        held = np.zeros((d, k + 1), dtype=np.int64)
        held[rows, cols] = gives
        held[:, k] = left
        return cls(member, held, room, (caps - room - mandatory).tolist())

    def move(self, s: int, x: int, y: int, count: int):
        """Moves ``count`` individuals of set s from node x to service y;
        takes them out of the network when y < 0."""
        at, sets = self.at, self.sets
        if at[x][s] == count:
            del at[x][s]
        else:
            at[x][s] -= count
        row = self.reach[x]
        for j in sets[s]:
            row[j] -= count
            if not row[j]:
                self.edges[x] &= ~(1 << j)
        if y >= 0:
            at[y][s] = at[y].get(s, 0) + count
            row = self.reach[y]
            for j in sets[s]:
                row[j] += count
            self.edges[y] |= self.masks[s]

    def search(self, start: int, targets: int, keep: int = -1) -> list[int] | int:
        """Breadth-first search from node ``start`` for a node in the bitmask
        ``targets``, where set ``keep``'s individuals at ``start`` stay put.
        Returns the path, a list of nodes, or when there is none the bitmask
        of the nodes reached."""
        k = self.k
        slack = k + 1
        edges, room, spare = self.edges, self.room, self.spare
        own = self.at[start].get(keep, 0) if keep >= 0 else 0
        pred = {}
        seen = 1 << start
        queue = [start]
        for x in queue:  # grows while it is walked
            if x == slack:
                nxt = sum(1 << y for y in range(k) if spare[y] > 0)
            else:
                nxt = edges[x] | (room[x] > 0) << slack
                if own and x == start:  # no hop that only set keep's individuals could take
                    for j in self.sets[keep]:
                        if self.reach[x][j] == own:
                            nxt &= ~(1 << j)
            hit = nxt & targets
            if hit:
                path = [(hit & -hit).bit_length() - 1, x]
                while x != start:
                    x = pred[x]
                    path.append(x)
                path.reverse()
                return path
            nxt &= ~seen
            seen |= nxt
            while nxt:
                low = nxt & -nxt
                nxt ^= low
                y = low.bit_length() - 1
                pred[y] = x
                queue.append(y)
        return seen

    def push(self, path: list[int], want: int, keep: int = -1) -> int:
        """Moves the bottleneck count of ``path``, at most ``want``, along
        it, leaving set ``keep``'s individuals at its start; returns the
        count."""
        slack = self.k + 1
        reach, room, spare, masks = self.reach, self.room, self.spare, self.masks
        start = path[0]
        own = self.at[start].get(keep, 0) if keep >= 0 else 0
        delta = want
        for x, y in zip(path, path[1:]):
            if x == slack:
                delta = min(delta, spare[y])
            elif y == slack:
                delta = min(delta, room[x])
            elif own and x == start and masks[keep] >> y & 1:
                delta = min(delta, reach[x][y] - own)
            else:
                delta = min(delta, reach[x][y])
        for i in range(len(path) - 1, 0, -1):  # from the end back: each hop moves what it had
            x, y = path[i - 1], path[i]
            if x == slack:
                spare[y] -= delta
                room[y] += delta
            elif y == slack:
                room[x] -= delta
                spare[x] += delta
            else:
                need = delta
                for s, c in list(self.at[x].items()):
                    if masks[s] >> y & 1 and not (x == start and s == keep):
                        step = min(c, need)
                        self.move(s, x, y, step)
                        need -= step
                        if not need:
                            break
        return delta

    def max_flow(self, free: list[int], caps: list[int]) -> int:
        """Augments to a maximum flow and returns the bitmask of the services
        its source reaches in the end, the source side of the minimal minimum
        cut. Without ``free`` services the flow goes from U to T: it places
        U's individuals. With them, it goes from T through the free services
        to the services with room and back to T: it moves individuals off the
        free services, which count as reached. A free service is then no
        sink, or T -> j -> T would loop."""
        k = self.k
        room = self.room
        for j in free:
            room[j] -= caps[j]
        while type(found := self.search(k + 1 if free else k, 1 << k + 1)) is list:
            self.push(found, 1 << 62)
        for j in free:
            room[j] += caps[j]
        return (found | sum(1 << j for j in free)) & ~(-1 << k)


def _lex_least_allowed(member: np.ndarray, key: np.ndarray, caps: np.ndarray,
                       mandatory: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Lexicographically least assignment, 1-based, using only allowed (i, k)
    pairs with service fills in [mandatory_k, caps_k], reached from ``start``:
    a 0-based assignment that already keeps to those bounds. The allowed
    sets are ``member`` and ``key`` as ``_distinct_rows`` returns them.

    The walk keeps a working assignment, ``start`` at first, feasible
    throughout. An individual with one allowed service keeps it. The
    individuals with a choice are walked in order, by runs of consecutive
    ones with the same allowed set. Members of a run are interchangeable, so
    each takes a service no lower than the one before: were a later member
    able to take a lower service, swapping it with an earlier one would be
    feasible too. A run therefore visits its services in ascending order, and
    at each fixes the most of its remaining members that the service can hold
    in a feasible completion.

    The take at a service grows by augmenting paths in the working
    assignment's ``_Residual``, whose slack node T has the services' room
    and their fill above the mandatory one. A path from the service to
    another that holds an unfixed individual of the run's set, closed by
    that individual's move back to the service, is a cycle in the residual
    network; moving its bottleneck count keeps every bound and leaves the
    run's individuals already at the service in place. When no path is
    left, no feasible completion puts more of them there.

    Raises:
        RuntimeError: if ``start`` uses a pair that is not allowed or breaks a
            service's bounds, or if no feasible completion is left.
    """
    d, k = member.shape
    # each one's allowed set: its key's rank among the keys present
    ids = (np.cumsum(np.bincount(key) > 0) - 1)[key]
    if not member[ids, start].all():
        raise RuntimeError("internal: tie resolution start uses a pair that is not allowed")
    fill = np.bincount(start, minlength=k)
    if np.any(fill > caps) or np.any(fill < mandatory):
        raise RuntimeError("internal: tie resolution start breaks a service's bounds")
    out = start + 1
    multi = np.flatnonzero(member.sum(axis=1)[ids] > 1)
    if not multi.size:
        return out
    ids = ids[multi]
    held = np.bincount(ids * (k + 1) + start[multi], minlength=d * (k + 1)).reshape(d, k + 1)
    graph = _Residual(member, held, (caps - fill).tolist(), (fill - mandatory).tolist())
    at, sets = graph.at, graph.sets
    bounds = [0, *(np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist(), len(ids)]
    fixed, counts = [], []  # the services fixed in order, and how many at each
    for s, left in zip(ids[bounds[:-1]].tolist(), np.diff(bounds).tolist()):
        for kk in sets[s]:
            take = at[kk].get(s, 0)
            while take < left:
                targets = sum(1 << y for y in sets[s] if y != kk and s in at[y])
                if not targets:
                    break
                path = graph.search(kk, targets, s)
                if type(path) is int:  # no path
                    break
                hit = path[-1]
                grown = graph.push(path, min(left - take, at[hit][s]), s)
                graph.move(s, hit, kk, grown)
                take += grown
            t = min(left, take)
            if t:
                graph.move(s, kk, -1, t)
                fixed.append(kk + 1)
                counts.append(t)
                left -= t
                if not left:
                    break
        else:
            raise RuntimeError("internal: no feasible completion during tie resolution")
    out[multi] = np.repeat(fixed, counts)
    return out


def _distinct_rows(allowed: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of a boolean matrix, how often each occurs, and a
    sort key per row. Rows sort as bit strings, column 0 first; the distinct
    rows come in that order, and a stable argsort of the keys lists each
    distinct row's copies together, in the same order, as a ``np.lexsort``
    of the rows would. Equal rows share a key.

    Each row's bits are packed into bytes, as ``np.packbits(axis=1)`` packs
    them, in column passes rather than row by row (``np.unique(axis=0)``
    sorts a structured view, about 20 times slower). Up to 8 columns a row's
    key is its one byte, read as a K-bit code with column 0 the high bit, and
    the codes are counted without a sort; beyond, the rows are sorted and a
    row's key is the rank of its distinct row. Works for any number of
    columns."""
    n, k = allowed.shape
    bits = np.asfortranarray(allowed).view(np.uint8) << (7 - np.arange(k) % 8).astype(np.uint8)
    blocks = [_reduce_services(np.bitwise_or, bits[:, j : j + 8]) for j in range(0, k, 8)]
    if k <= 8:
        codes = blocks[0] >> (8 - k)
        count = np.bincount(codes, minlength=1 << k)
        present = np.flatnonzero(count)
        member = ((present[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(bool)
        return member, count[present], codes
    words = np.column_stack(blocks)
    order = np.lexsort(words.T[::-1])
    words = words[order]
    first = np.ones(n, dtype=bool)
    first[1:] = (words[1:] != words[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.cumsum(first) - 1
    return allowed[order[starts]], np.diff(starts, append=n), rank


def _single_price_gains(member: np.ndarray, count: np.ndarray, caps: np.ndarray,
                        lowerable: np.ndarray) -> bool:
    """Whether moving one price alone lowers the transport dual, read off the
    demand sets and their counts: raising p_j by one lowers f when more
    individuals than c_j demand j alone, and lowering it (where allowed) when
    fewer than c_j demand it at all."""
    wanted = count @ member
    alone = (count * (member.sum(axis=1) == 1)) @ member
    return bool(((alone > caps) | ((wanted < caps) & lowerable)).any())


def _search_price(wt: np.ndarray, other: np.ndarray, caps: list[int], p: list[int], j: int,
                  balanced: bool) -> bool:
    """Exact line search of the transport dual ``f`` along price j, the
    other prices fixed; updates ``p[j]`` and returns whether it moved.
    ``wt`` holds the weights one row per service and ``other`` each
    individual's best surplus over the other services.

    Along p_j, ``f`` is ``sum_i max(gap_i - p_j, 0) + c_j p_j`` plus a
    constant, where ``gap_i = w_ij - other_i``. Its minimizers run from the
    order statistic of the gaps that leaves at most c_j individuals strictly
    preferring j to the one that leaves at least c_j preferring it weakly. A
    price below them rises to the first, one above falls to the second, and
    one between stays, so a move always lowers the integer ``f``. Unless
    ``balanced`` (capacities summing to N), the price is clamped at 0."""
    n = wt.shape[1]
    gap = wt[j] - other
    c, q = caps[j], p[j]
    if c == 0:  # the minimizers start at the largest gap and have no end
        q = max(q, int(gap.max()))
    elif c < n:
        ranked = np.partition(gap, n - c - 1)
        least = int(ranked[n - c - 1])
        q = least if q <= least else min(q, int(ranked[n - c:].min()))
    else:  # c == n: the minimizers have no start and end at the least gap
        q = min(q, int(gap.min()))
    if not balanced:
        q = max(q, 0)
    moved = q != p[j]
    p[j] = q
    return moved


def _coordinate_sweeps(w: np.ndarray, caps: np.ndarray, p: np.ndarray,
                       balanced: bool) -> np.ndarray:
    """Sweeps of ``_search_price`` over the services in index order, from
    prices ``p``; returns the new prices, all >= 0. K >= 2.

    They stop at a coordinate-wise minimum of ``f``, once every price has
    been searched since the last one that moved, or once a sweep after the
    second lowers ``f`` by more than half as much as the one before: the
    searches are then walking down a long slope in even stairs, which one
    descent step along a set of prices takes at once. Every move lowers the
    integer ``f``, so they end. With capacities summing to N (``balanced``),
    ``f`` does not change when every price moves by the same amount, so
    prices may go below 0 within a sweep and are shifted after it to make
    the least one 0. Each individual's best surplus over the services other
    than j is the larger of a running maximum over the services already
    searched in the sweep and a suffix maximum over the rest, so a search
    costs the same few vector operations for any K."""
    k = w.shape[1]
    wt = np.ascontiguousarray(w.T)  # one row per service
    caps, p = caps.tolist(), p.tolist()
    moved, still = False, 0  # whether any price moved; searches since one did
    values = []  # f after each full sweep, exactly
    while True:
        surplus = wt - np.array(p, dtype=np.int64)[:, None]
        after = [surplus[-1]]  # after[j]: the best surplus beyond service j
        for row in surplus[-2:0:-1]:
            after.append(np.maximum(after[-1], row))
        after.reverse()
        best = None  # the best surplus over the services searched this sweep
        for j in range(k):
            if best is None:
                other = after[0]
            elif j + 1 == k:
                other = best
            else:
                other = np.maximum(best, after[j])
            if _search_price(wt, other, caps, p, j, balanced):
                moved, still = True, 0
            else:
                still += 1
                if still == k - moved:
                    break
            row = wt[j] - p[j]
            best = row if best is None else np.maximum(best, row)
        at_minimum = still == k - moved
        if not at_minimum:  # best is each individual's best surplus under p
            values.append(_exact_sum(best) + sum(c * q for c, q in zip(caps, p)))
        if balanced:
            low = min(p)
            p = [q - low for q in p]
        stairs = len(values) > 2 and 2 * (values[-2] - values[-1]) > values[-3] - values[-2]
        if at_minimum or stairs:
            return np.array(p, dtype=np.int64)


def _solve_transport(
    w: np.ndarray, caps: np.ndarray, p0: list[int] | None = None
) -> tuple[np.ndarray, list[int], np.ndarray, np.ndarray, np.ndarray]:
    """Maximum-weight assignment of N individuals to K capacitated services.

    Minimizes the transport dual ``f(p) = sum_i max_k(w_ik - p_k) + sum_k
    c_k p_k`` over integer prices p >= 0 by steepest descent from ``p0``
    (default p = 0; any prices >= 0 will do, and an optimal dual of a similar
    instance is a start a few steps from the minimum). ``f`` is L-natural
    convex in p (Murota, *Discrete Convex Analysis*, 2003), so a point that
    no step p +- 1_S improves is a global minimum, and the descent reaches
    one from any start (Murota & Shioura, *Oper. Res. Lett.* 42, 2014). Each
    individual demands the services where ``w - p`` peaks. A step builds the
    ``_Residual`` of a greedy start, each distinct demand set filling its
    services' room lowest first, and completes it to a maximum flow from U,
    the individuals left over, to T: when not everyone can be served, the
    services the flow's source reaches are the steepest raise. Otherwise a
    second flow, from T through the price-0 services to the priced ones with
    room and back to T, finds the steepest lowering, the services it cannot
    fill; when every priced service is already full, as at every optimum of
    capacities that sum to N, that flow could find no path and is not run.
    What a maximum flow's source reaches is the minimal minimum cut, the same
    for every maximum flow, so neither the start nor the paths change a
    step. The step length is the exact line search, an order statistic of
    the individuals' gaps. ``f`` is an integer and falls on every step, so
    the descent ends.

    The descent first reads its start's demand sets. When they show that
    moving one price alone lowers ``f``, it runs ``_coordinate_sweeps``
    before its first step: exact line searches of one price at a time,
    sweep after sweep, until the prices are a coordinate-wise minimum of
    ``f`` or a sweep after the second lowers ``f`` by more than half as
    much as the one before. With capacities summing to N, ``f`` does not
    change under a common shift of the prices, and each sweep ends by
    shifting the least price to 0; otherwise each searched price is clamped
    at 0. A start that no single price improves, an optimal one included,
    runs no sweep. The sweeps only lower ``f`` and leave the descent as it
    was: it goes on from their prices and still stops only where no step
    p +- 1_S improves, so it returns an optimal dual and its assignment, as
    from any start. On experiment 2 the sweeps from the last replication's
    prices reach the optimum, and one step certifies it.

    A step needs only the demand sets and their counts; the individuals are
    put in demand set order once, after the last. Every array is O(N K), but
    for the counts of at most 2^8 demand codes when K <= 8; nothing else is
    sized by the 2^K service subsets. ``w`` holds exact integer weights, and
    each of ``caps`` is at most N and they sum to at least N.

    Returns a 0-based optimal assignment, read off the final flow; an
    optimal dual p, Python ints, which need not be the least one; the last
    step's row maxima and demand sets under that p, as ``top`` and the
    ``member`` and ``key`` of ``_distinct_rows``.
    """
    n, k = w.shape
    p = np.zeros(k, dtype=np.int64) if p0 is None else np.array(p0, dtype=np.int64)
    balanced = int(caps.sum()) == n  # f is then blind to a common shift of p
    search = k > 1  # the start is yet to be checked for single-price gains
    cap_list = caps.tolist()
    while True:
        if p.max() >= 2**62:
            raise RuntimeError("internal: flow prices out of range")
        surplus = w - p
        top = _reduce_services(np.maximum, surplus)
        member, count, key = _distinct_rows(surplus == top[:, None])
        if search:
            search = False
            if _single_price_gains(member, count, caps, (p > 0) | balanced):
                p = _coordinate_sweeps(w, caps, p, balanced)
                continue
        graph = _Residual.greedy(member, count, caps, np.where(p > 0, caps, 0))
        cut = graph.max_flow([], cap_list)
        raising = bool(graph.at[k])  # some individuals are left unserved
        if not raising and min(graph.spare) < 0:  # a priced service is not full
            cut = graph.max_flow(np.flatnonzero(p == 0).tolist(), cap_list)
        if not raising and min(graph.spare) >= 0:
            # top, member and key belong to this p: leave p unchanged past here
            break
        reached = np.array([cut >> j & 1 for j in range(k)], dtype=bool)
        if raising:
            # raising the reached services by one saves more than they cost;
            # go until only c(T) individuals still gain from the raise
            c_t = int(caps[reached].sum())
            gap = (_reduce_services(np.maximum, surplus[:, reached])
                   - _reduce_services(np.maximum, surplus[:, ~reached]))
            p[reached] += np.partition(gap, n - c_t - 1)[n - c_t - 1]
        else:
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

    # the final flow serves everyone and fills every priced service: split
    # each demand set's flow over its individuals
    flow = np.zeros((len(member), k), dtype=np.int64)
    for x, sets in enumerate(graph.at[:k]):
        flow[list(sets), x] = list(sets.values())
    order = np.argsort(key, kind="stable")
    assignment = np.empty(n, dtype=np.int64)
    assignment[order] = np.repeat(np.tile(np.arange(k), len(member)), flow.ravel())
    return assignment, p.tolist(), top, member, key


def _exact_sum(values: np.ndarray) -> int:
    """The exact sum of int64 ``values`` as a Python int, for fewer than
    2**31 of them. Each value splits into ``hi = v >> 31``, below 2**32 in
    magnitude, and ``lo``, in [0, 2**31), so neither int64 part sum can
    wrap."""
    hi = values >> 31
    lo = values - (hi << 31)
    return (int(hi.sum()) << 31) + int(lo.sum())


def _certify_transport(w: np.ndarray, caps: np.ndarray, assignment: np.ndarray,
                       prices: list[int], top: np.ndarray) -> int:
    """Exact optimality certificate of a transport solution; returns its total.

    For prices p >= 0, ``sum_i max_k(w_ik - p_k) + sum_k c_k p_k`` bounds every
    feasible total from above (weak duality), so a feasible assignment that
    reaches the bound is optimal and p is an optimal dual. ``top``, the row
    maxima ``max_k(w_ik - p_k)`` of the solver's last step, is trusted, not
    derived from p; ``test_solver_returns_the_arcs_of_its_dual`` guards it.
    A plain int64 sum of N weights below 2**53 can wrap, so both sums over
    the N individuals are taken exactly by ``_exact_sum``, in two int64
    parts, and the totals compared as Python ints.

    Raises:
        RuntimeError: if the assignment is infeasible or misses the bound.
    """
    n, k = w.shape
    if np.any(np.bincount(assignment, minlength=k) > caps):
        raise RuntimeError("internal: flow solution exceeds the capacities")
    # with |w| < 2**53, prices below 2**62 keep w - p, and so top, inside int64
    if not all(0 <= q < 2**62 for q in prices):
        raise RuntimeError("internal: flow prices out of range")
    total = _exact_sum(w[np.arange(n), assignment])
    bound = _exact_sum(top) + sum(c * q for c, q in zip(caps.tolist(), prices))
    if total != bound:
        raise RuntimeError("internal: flow solution failed its optimality certificate")
    return total


def allocate_utilitarian(
    pop: Population,
    caps: CapacityVector,
    tie_break_scale: float = DEFAULT_TIE_BREAK_SCALE,
    *,
    _dual: list[int] | None = None,
) -> Allocation:
    """Feasible allocation maximizing total utility.

    Utilities are integerized as round(u * tie_break_scale); utilities that
    differ by less than 1/tie_break_scale may therefore tie. Among optimal
    assignments, returns the lexicographically least vector (individual 1's
    service first). Deterministic.

    ``_dual``, a list kept by a compiled allocator across calls, carries the
    service prices of the last solve: when it holds K of them the dual
    descent starts there, and it is overwritten with this solve's optimal
    prices. Every optimal dual admits the same optimal assignments, so the
    start changes the solver's work, never the result.

    Raises:
        InputError: if ``tie_break_scale`` is not finite and positive.
        InfeasibleError: if total capacity is below the population size.
    """
    if not (np.isfinite(tie_break_scale) and tie_break_scale > 0):
        raise InputError(f"tie_break_scale must be finite and > 0, got {tie_break_scale!r}")
    _check_instance(pop, caps)
    n = pop.n
    # an overflowing product is refused below, by name
    with np.errstate(over="ignore"):
        w = np.round(pop.utilities * tie_break_scale)
    if not np.all(np.isfinite(w)) or np.abs(w).max() >= 2**53:
        raise InputError("tie_break_scale too large for these utilities")
    w = w.astype(np.int64)

    # no service can take more than N, so the feasible set is the same and no
    # int64 sum of capacities can wrap
    cap = np.minimum(caps.capacities, n)
    p0 = _dual if _dual is not None and len(_dual) == pop.k else None
    solved, prices, top, member, key = _solve_transport(w, cap, p0)
    if _dual is not None:
        _dual[:] = prices

    # With an optimal dual p (LP duals sigma = -p, pi_i = -max_k(w_ik - p_k)),
    # the optimal assignments are exactly those using zero-reduced-cost arcs,
    # w_ik - p_k == max_k(w_ik - p_k), that fill every service priced above 0
    # (complementary slackness, which holds for every optimal dual alike).
    # They are the solver's last demand sets; its own assignment starts the walk.
    mandatory = np.where(np.array(prices) > 0, cap, 0)
    assignment = _lex_least_allowed(member, key, cap, mandatory, solved)
    _certify_transport(w, cap, assignment - 1, prices, top)
    return Allocation._adopt(assignment)


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
        raise InputError("lambda must lie in [0, 1]")
    _check_instance(pop, caps)
    n, k = pop.n, pop.k

    n_a = int(np.floor(lam * n + 0.5 + 1e-9))  # round half up
    gen = generator(seed, stream=0)
    perm = gen.permutation(n)
    idx_a = np.sort(perm[:n_a])
    idx_b = np.sort(perm[n_a:])

    # Python ints, so no sum wraps; floor(lam * c) in float64 can round
    # above a capacity near 2**63
    caps_a = [min(c, math.floor(lam * c + 1e-9)) for c in caps.capacities.tolist()]
    caps_b = [c - a for c, a in zip(caps.capacities.tolist(), caps_a)]
    # the first part's size is at most N, and _check_instance has made the
    # total capacity at least N: each pass borrows a unit until it fits
    while sum(caps_a) < n_a:
        for kk in range(k):
            if sum(caps_a) >= n_a:
                break
            if caps_b[kk] > 0:
                caps_a[kk] += 1
                caps_b[kk] -= 1
    if sum(caps_b) < n - n_a:
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
    alloc = Allocation._adopt(assignment)
    if not alloc.is_feasible(pop, caps):
        # a child that ignores capacities can overflow the shared budget
        raise InfeasibleError("infeasible: mixture children exceeded the capacities")
    return alloc


def compile_spec(spec: PolicySpec) -> Allocator:
    """Turn a PolicySpec into a callable allocator.

    Specs with an explicit ``seed`` pin their stream regardless of the seed
    passed at call time. A utilitarian allocator (a mixture's child too)
    starts each solve from the optimal prices of its last one, so it is not
    safe to call from two threads at once; its results do not depend on the
    calls before.
    """
    if spec.kind == KIND_MIXTURE:
        child_a, child_b = (compile_spec(c) for c in spec.children)
    dual: list[int] = []  # a utilitarian allocator's last optimal prices

    def run(pop: Population, caps: CapacityVector, seed: int) -> Allocation:
        s = spec.seed if spec.seed is not None else seed
        if spec.kind == KIND_UTILITARIAN:
            return allocate_utilitarian(pop, caps, spec.tie_break_scale, _dual=dual)
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
