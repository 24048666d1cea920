"""Reference tie resolver for the tests: the lexicographically least
assignment over allowed (i, k) pairs with service fills in [mandatory_k,
caps_k], found without a start by first-fit over runs of equal allowed sets.

Up to ``max_subset_k`` services, each service's take is read off Hall tables
over the 2^K service subsets and confirmed by
``policies._completion_feasible_hall``; beyond, it is a binary search over
``policies._completion_feasible_lp`` probes. This was the package's own
resolver before it walked the residual graph from the solver's assignment,
and it stays here as an oracle: it shares no code with that walk, and its two
paths check each other where both can run.

``max_flow`` and its greedy start ``demand_flow`` are the dual descent's
earlier flows, on a (demand sets x services) numpy flow matrix; they are the
reference for the cut that ``policies._Residual.max_flow`` finds.
"""

import itertools

import numpy as np

from fairalloc import policies
from fairalloc.core import _first_best

MAX_SUBSET_K = 12


def confined_counts(masks: list[int], k: int) -> np.ndarray:
    """Entry S (service j is bit j) counts the masks that lie inside S."""
    confined = np.bincount(np.array(masks, dtype=np.int64), minlength=1 << k)
    # subset-sum transform, one service bit at a time: the subsets holding
    # service j gain the counts of the same subsets without it
    for j in range(k):
        view = split_by_service(confined, j)
        view[:, 1] += view[:, 0]
    return confined


def split_by_service(table: np.ndarray, j: int) -> np.ndarray:
    """A view of a table over the service subsets (service j is bit j) in
    which ``[:, 0]`` holds the subsets without service j and ``[:, 1]`` the
    same subsets with it."""
    return table.reshape(-1, 2, 1 << j)


def subset_sums(values: np.ndarray) -> np.ndarray:
    """Entry S (service j is bit j) holds the sum of ``values`` over S, built
    by doubling: the subsets holding service j are those without it, plus j."""
    sums = np.zeros(1, dtype=np.int64)
    for v in values.tolist():
        sums = np.concatenate((sums, sums + v))
    return sums


def lex_least_hall_lp(allowed: np.ndarray, caps: np.ndarray, mandatory: np.ndarray,
                      max_subset_k: int = MAX_SUBSET_K) -> np.ndarray:
    """The lexicographically least assignment, 1-based; assumes one exists.

    Forced individuals are placed up front; the others are walked by runs of
    equal allowed sets, and each run visits its services in ascending order,
    fixing at each the most of its remaining members that leave a feasible
    completion."""
    n, k = allowed.shape
    out = _first_best(allowed) + 1
    choice = allowed.sum(axis=1) > 1
    assigned = np.bincount(out[~choice] - 1, minlength=k)
    multi = np.flatnonzero(choice)
    # allowed sets as Python-int bitmasks (service k is bit k), exact for any K
    rows = np.packbits(allowed[multi], axis=1, bitorder="little")
    masks = [int.from_bytes(row.tobytes(), "little") for row in rows]
    hall = k <= max_subset_k
    if hall:
        subsets = np.arange(1 << k)
        confined = confined_counts(masks, k)
        room = subset_sums(caps - assigned)
        need = subset_sums(np.maximum(mandatory - assigned, 0))
    else:
        counts: dict[int, int] = {}
        for m in masks:
            counts[m] = counts.get(m, 0) + 1

    start = 0
    for m, run in itertools.groupby(masks):
        left = sum(1 for _ in run)
        if hall:
            common = subsets & m
            inside = common == m  # the subsets that confine the run
            meets = common != 0  # the subsets the run can serve
            spare = slack = None
        for kk in range(k):
            if not (m >> kk & 1) or assigned[kk] >= caps[kk]:
                continue
            if hall:
                # fixing t members at kk takes t places from every subset
                # holding kk and t individuals from every subset the run
                # meets; the largest t within every such bound keeps a
                # feasible completion (n stands for no bound)
                if spare is None:
                    spare = np.where(inside, n, room - confined)
                    slack = np.where(meets, confined[-1] - confined[::-1] - need, n)
                owed = max(int(mandatory[kk] - assigned[kk]), 0)
                free, short = split_by_service(spare, kk), split_by_service(slack, kk)
                t = min(left, owed + int(short[:, 1].min()), int(free[:, 1].min()),
                        int(short[:, 0].min()))
                if t:
                    confined[inside] -= t
                    split_by_service(room, kk)[:, 1] -= t
                    split_by_service(need, kk)[:, 1] -= min(t, owed)
                    assert policies._completion_feasible_hall(confined, need, room)
                    spare = None
            else:
                t = lp_fit(counts, m, kk, min(left, int(caps[kk] - assigned[kk])),
                           assigned, caps, mandatory)
                counts[m] -= t
                if counts[m] == 0:
                    del counts[m]
            assigned[kk] += t
            out[multi[start : start + t]] = kk + 1
            start += t
            left -= t
            if not left:
                break
        else:
            raise AssertionError("no feasible completion during tie resolution")
    return out


def lp_fit(counts: dict[int, int], m: int, kk: int, top: int, assigned: np.ndarray,
           caps: np.ndarray, mandatory: np.ndarray) -> int:
    """The most members of the run of allowed set ``m``, at most ``top``, that
    service ``kk`` can take with a feasible completion left, by LP probes:
    the top count first, then a binary search below it."""

    def fits(t: int) -> bool:
        rest = dict(counts)
        rest[m] -= t
        if rest[m] == 0:
            del rest[m]
        fill = assigned.copy()
        fill[kk] += t
        return policies._completion_feasible_lp(
            rest, np.maximum(mandatory - fill, 0), caps - fill, len(caps)
        )

    if fits(top):
        return top
    lo, hi = 0, top - 1  # fits(lo) holds: taking none leaves the current completion
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def utilitarian_oracle(utilities: np.ndarray, caps, max_subset_k: int = MAX_SUBSET_K) -> np.ndarray:
    """The utilitarian assignment, 1-based, with its ties resolved by the
    oracle: the package's solver gives an optimal dual, and the oracle picks
    the lexicographically least assignment on the arcs that dual allows."""
    w = np.round(utilities * policies.DEFAULT_TIE_BREAK_SCALE).astype(np.int64)
    cap = np.minimum(np.asarray(caps), len(w))
    p = np.array(policies._solve_transport(w, cap)[1])
    surplus = w - p
    allowed = surplus == surplus.max(axis=1, keepdims=True)
    return lex_least_hall_lp(allowed, cap, np.where(p > 0, cap, 0), max_subset_k)


def max_flow(member: np.ndarray, left: np.ndarray, flow: np.ndarray, room: np.ndarray,
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


def demand_flow(member: np.ndarray, count: np.ndarray, caps: np.ndarray):
    """Greedy start for ``max_flow``: one-service demand sets take what their
    service holds, then, service by service, the larger sets that name it,
    fewest services first, fill what is left of it. The rows of ``member``
    are distinct, so each service has at most one one-service set and its
    room is charged once; a service with no room left gives nothing and is
    skipped. Returns (flow, left, room)."""
    flow = np.zeros(member.shape, dtype=np.int64)
    left = count.astype(np.int64)
    room = caps.astype(np.int64)
    size = member.sum(axis=1)
    single = np.flatnonzero(size == 1)
    service = member[single].argmax(axis=1)
    give = np.minimum(left[single], room[service])
    flow[single, service] = give
    left[single] -= give
    room[service] -= give
    multi = np.flatnonzero(size > 1)
    multi = multi[np.argsort(size[multi], kind="stable")]
    sets = member[multi]
    for b in np.flatnonzero(sets.any(axis=0)).tolist():
        if room[b] <= 0:
            continue
        rows = multi[sets[:, b] & (left[multi] > 0)]
        want = left[rows]
        give = np.minimum(want, np.maximum(room[b] - (np.cumsum(want) - want), 0))
        flow[rows, b] = give
        left[rows] -= give
        room[b] -= give.sum()
    return flow, left, room
