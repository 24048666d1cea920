"""Domain types and the four group-fairness metrics.

Metrics compare realized utility against each individual's own best/worst
service, additively (improvement, regret) or multiplicatively (gain,
shortfall). Deltas are always reported as group-1 mean minus group-0 mean;
note the asymmetric reading for regret: a positive regret delta favors
group 0, while positive deltas of the other three metrics favor group 1.

Layout rule: every individual x service matrix is stored service-major
(Fortran order), so each of the K service columns is contiguous, and a
per-individual reduction over the services is a pass over those K columns
(``_reduce_services``, ``_first_best``), not N walks over short rows. No
float sum runs along the service axis (only int and bool sums do): numpy
sums a contiguous row of 8 or more floats in pairwise blocks but the rows
of a service-major matrix one column at a time, so the last bits of such a
sum would follow the layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import EmptyGroupError, InputError

METRICS = ("improvement", "regret", "gain", "shortfall")

#: Metrics whose positive delta favors group 1 (all except regret).
_GROUP1_POSITIVE = {"improvement": True, "regret": False, "gain": True, "shortfall": True}


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Mark ``arr`` read-only, in place, and return it."""
    arr.setflags(write=False)
    return arr


def _frozen_array(values, dtype) -> np.ndarray:
    """Read-only copy of ``values``; a matrix is stored service-major."""
    return _freeze(np.array(values, dtype=dtype, order="F"))


def _reduce_services(ufunc, values: np.ndarray) -> np.ndarray:
    """``ufunc.reduce`` over each row of ``values``: one entry per
    individual, reduced over the services. It runs on a service-major copy
    (no copy when ``values`` is one), where numpy makes one pass per column,
    in index order, rather than one short loop per row."""
    return ufunc.reduce(np.asfortranarray(values), axis=1)


def _first_best(values: np.ndarray, worst: bool = False) -> np.ndarray:
    """0-based column of each row's largest (``worst``: smallest) entry,
    ties to the lowest index: what ``np.argmax``/``np.argmin(axis=1)`` give
    on rows without NaN, in column passes (on a service-major matrix
    ``argmax(axis=1)`` still walks the rows one by one)."""
    values = np.asfortranarray(values)
    k = values.shape[1]
    extreme = _reduce_services(np.minimum if worst else np.maximum, values)
    # a column where the row reaches its extreme scores k - j: the first scores most
    score = (values == extreme[:, None]) * np.arange(k, 0, -1, dtype=np.min_scalar_type(k))
    return k - _reduce_services(np.maximum, score).astype(np.intp)


@dataclass(frozen=True)
class Population:
    """N individuals with utilities over K services and binary group attributes.

    Attributes:
        utilities: N x K matrix; ``utilities[i, k]`` is the utility individual
            ``i`` derives from service ``k + 1`` (service indices are 1-based
            throughout the public API). Higher is better. Stored read-only
            and service-major (Fortran order), whatever the input's layout.
        groups: attribute name -> length-N vector with values in {0, 1}.
    """

    utilities: np.ndarray
    groups: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self._settle(_frozen_array(self.utilities, np.float64))

    @classmethod
    def _adopt(cls, utilities: np.ndarray, groups: Mapping[str, np.ndarray]) -> "Population":
        """A population over ``utilities``, a float64 matrix its caller has
        just built for it and keeps no other use of, or one already
        read-only: frozen in place, and not copied when it is service-major
        already. The groups and every check are as in the constructor."""
        pop = object.__new__(cls)
        object.__setattr__(pop, "groups", groups)
        pop._settle(_freeze(np.asarray(utilities, dtype=np.float64, order="F")))
        return pop

    def _settle(self, u: np.ndarray):
        """Check the frozen service-major matrix ``u`` and copy the groups;
        store both."""
        if u.ndim != 2 or u.shape[0] < 1 or u.shape[1] < 1:
            raise InputError("utilities must be a non-empty N x K matrix")
        if not np.isfinite(u).all():
            raise InputError("utilities must be finite")
        object.__setattr__(self, "utilities", u)
        groups = {}
        for name, values in dict(self.groups).items():
            g = _frozen_array(values, np.int8)
            if g.shape != (u.shape[0],):
                raise InputError(f"group {name!r} must assign a value to every individual")
            # as unsigned bytes, the values 0 and 1 are the only ones <= 1
            if g.view(np.uint8).max() > 1:
                raise InputError(f"group {name!r} must be binary (0/1)")
            groups[name] = g
        object.__setattr__(self, "groups", groups)

    @property
    def n(self) -> int:
        return self.utilities.shape[0]

    @property
    def k(self) -> int:
        return self.utilities.shape[1]

    def group_mask(self, attribute: str, value: int) -> np.ndarray:
        """Boolean mask of individuals with ``attribute == value``."""
        if attribute not in self.groups:
            raise KeyError(f"unknown group attribute {attribute!r}")
        return self.groups[attribute] == value

    def subset(self, indices: np.ndarray) -> "Population":
        """Sub-population at ``indices`` (order preserved), keeping all attributes."""
        idx = np.asarray(indices)
        return Population(
            utilities=self.utilities[idx],
            groups={name: g[idx] for name, g in self.groups.items()},
        )


@dataclass(frozen=True)
class CapacityVector:
    """Per-service maximum capacities."""

    capacities: np.ndarray

    def __post_init__(self):
        c = _frozen_array(self.capacities, np.int64)
        if c.ndim != 1 or c.size < 1:
            raise InputError("capacities must be a non-empty 1-D integer vector")
        if np.any(c < 0):
            raise InputError("capacities must be non-negative")
        object.__setattr__(self, "capacities", c)

    @property
    def k(self) -> int:
        return self.capacities.size

    @property
    def total(self) -> int:
        """Exact sum; an int64 sum can wrap for capacities near 2**63."""
        return sum(self.capacities.tolist())


@dataclass(frozen=True)
class Allocation:
    """One service index (1-based, in [1..K]) per individual."""

    assignment: np.ndarray

    def __post_init__(self):
        self._settle(_frozen_array(self.assignment, np.int64))

    @classmethod
    def _adopt(cls, assignment: np.ndarray) -> "Allocation":
        """An allocation over ``assignment``, an int64 vector its caller has
        just built for it and keeps no other use of, or one already
        read-only: frozen in place, not copied. Every check is as in the
        constructor."""
        alloc = object.__new__(cls)
        alloc._settle(_freeze(np.asarray(assignment, dtype=np.int64)))
        return alloc

    def _settle(self, a: np.ndarray):
        """Check the frozen vector ``a`` and store it."""
        if a.ndim != 1 or a.size < 1:
            raise InputError("assignment must be a non-empty 1-D vector")
        if a.min() < 1:
            raise InputError("service indices are 1-based")
        object.__setattr__(self, "assignment", a)

    @property
    def n(self) -> int:
        return self.assignment.size

    def counts(self, k: int) -> np.ndarray:
        """Number of individuals assigned to each of the ``k`` services."""
        return np.bincount(self.assignment - 1, minlength=k)

    def realized(self, pop: Population) -> np.ndarray:
        """Realized utility of every individual under this allocation."""
        if self.n != pop.n or self.assignment.max() > pop.k:
            raise InputError("allocation does not match population shape")
        # entry (i, k) of the service-major matrix is entry k * N + i of its
        # flat view, which the transpose's ravel gives without a copy
        flat = self.assignment - 1
        flat *= pop.n
        flat += np.arange(pop.n)
        return pop.utilities.T.ravel().take(flat)

    def is_feasible(self, pop: Population, caps: CapacityVector) -> bool:
        return (
            self.n == pop.n
            and caps.k == pop.k
            and not np.any(self.assignment > pop.k)
            and bool(np.all(self.counts(pop.k) <= caps.capacities))
        )


@dataclass(frozen=True)
class UtilityEnvelope:
    """Per-individual worst and best utilities and their spread, the max
    gain."""

    u_min: np.ndarray
    u_max: np.ndarray
    delta_u: np.ndarray


def envelope(pop: Population) -> UtilityEnvelope:
    """Compute each individual's worst and best utility and their spread."""
    u_min = _reduce_services(np.minimum, pop.utilities)
    u_max = _reduce_services(np.maximum, pop.utilities)
    return UtilityEnvelope(
        u_min=_freeze(u_min), u_max=_freeze(u_max), delta_u=_freeze(u_max - u_min)
    )


#: The rows of a metric block, in order: the four metrics, then the max gain.
_ROWS = (*METRICS, "delta_u")
_MULTIPLICATIVE = ("gain", "shortfall")
# bytes of the buffer ``_group_means`` gathers a scattered group's rows into
_GATHER_BYTES = 1 << 18


def _metric_block(
    u_min: np.ndarray, u_max: np.ndarray, realized: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-individual metric rows of R replications at once, from each one's
    envelope and realized utilities, all (R, N).

    Writes improvement, regret, gain, shortfall and ``delta_u`` (``_ROWS``
    order) into ``out[:5]`` (an (M >= 5, R, N) array; a new (5, R, N) one by
    default) and returns it with the (R,) mask of replications whose
    utilities are all > 0. Gain and shortfall are divided only where the
    individual's utilities are all > 0, and read 0 elsewhere, so that a
    caller can take them over any group of such individuals.
    """
    if out is None:
        out = np.empty((len(_ROWS), *realized.shape))
    improvement, regret, gain, shortfall, delta_u = out[: len(_ROWS)]
    defined = np.minimum.reduce(u_min, axis=-1) > 0.0
    np.subtract(realized, u_min, out=improvement)
    np.subtract(u_max, realized, out=regret)
    # a mask divides at about two thirds the speed of none, so none when it
    # would be all True
    if defined.all():
        where = True
    else:
        where = u_min > 0.0
        out[2:4] = 0.0
    np.divide(realized, u_min, out=gain, where=where)
    np.divide(realized, u_max, out=shortfall, where=where)
    np.subtract(u_max, u_min, out=delta_u)
    return out, defined


def _group_means(rows: np.ndarray, members: Sequence[np.ndarray]) -> np.ndarray:
    """The mean of every row of a metric block over each group: ``rows`` is
    (..., N) and ``members`` holds each group's individuals in ascending
    order; returns (..., len(members)).

    A group that is one run of consecutive individuals, as every sampler's
    groups are, is summed along the last axis of a view of ``rows``; numpy
    sums each row's contiguous entries pairwise, in the order the 1-D
    ``np.add.reduce(row[mask])`` of one replication's row does. A scattered
    group is gathered with ``np.take`` into the C-contiguous rows of one
    reused buffer, as many rows per ``take`` as ``_GATHER_BYTES`` holds (one
    at least), and summed along their last axis the same way. Either way a
    block's means equal one replication's at a time bit for bit, whatever
    its size (a strided gather such as ``row[:, idx]`` would not). Dividing
    by the group size is ``np.mean``'s arithmetic without its per-call
    overhead.
    """
    means = np.empty((*rows.shape[:-1], len(members)))
    flat, sums = rows.reshape(-1, rows.shape[-1]), means.reshape(-1, len(members))
    gathered = None
    for g, idx in enumerate(members):
        first, last = int(idx[0]), int(idx[-1])
        if last - first + 1 == idx.size:
            means[..., g] = np.add.reduce(rows[..., first : last + 1], axis=-1) / idx.size
            continue
        if gathered is None:
            largest = max(m.size for m in members)
            gathered = np.empty(min(flat.size, max(_GATHER_BYTES // 8, largest)))
        step = max(1, _GATHER_BYTES // (8 * idx.size))
        for lo in range(0, len(flat), step):
            part = flat[lo : lo + step]
            out = gathered[: len(part) * idx.size].reshape(len(part), idx.size)
            # the indices are valid; "clip" only spares take its checking copy
            np.take(part, idx, axis=-1, out=out, mode="clip")
            np.add.reduce(out, axis=-1, out=sums[lo : lo + step, g])
        means[..., g] /= idx.size
    return means


def _population_rows(
    pop: Population, alloc: Allocation
) -> tuple[UtilityEnvelope, np.ndarray, bool]:
    """``_metric_block`` of one population: its envelope, its (5, 1, N)
    rows, and whether gain and shortfall are defined."""
    env = envelope(pop)
    rows, defined = _metric_block(env.u_min[None], env.u_max[None], alloc.realized(pop)[None])
    return env, rows, bool(defined[0])


def metric_rows(pop: Population, alloc: Allocation) -> dict[str, np.ndarray | None]:
    """Per-individual improvement, regret, gain, shortfall and ``delta_u``
    from one envelope pass; gain and shortfall are None unless every
    utility is > 0. Every group mean and delta is read from these rows."""
    _, rows, defined = _population_rows(pop, alloc)
    return {name: None if name in _MULTIPLICATIVE and not defined else row
            for name, row in zip(_ROWS, rows[:, 0])}


class _MetricBlock:
    """The metric stage of up to ``size`` replications at once, each of N
    individuals and K services, whose groups 0 and 1 are the individuals
    ``members`` (ascending indices) in every one of them.

    Fill ``u[j]`` with replication j's service-major utilities and
    ``assignment[j]`` with its 1-based services, then ``means(r)`` runs the
    stage over the first r. Its work arrays are kept from block to block:
    arrays this large, allocated afresh, are mapped and faulted in again for
    every block, which costs more than the stage's arithmetic.
    """

    def __init__(self, size: int, k: int, members: tuple[np.ndarray, np.ndarray]):
        n = sum(idx.size for idx in members)
        self.members = members
        self.u = np.empty((size, k, n))
        self.assignment = np.empty((size, n), dtype=np.int64)
        self._envelope = np.empty((2, size, n))
        self._realized = np.empty((size, n))
        self._index = np.empty((size, n), dtype=np.intp)
        # replication j's entry (s, i) is entry (j * K + s) * N + i of the
        # block: a * N plus this offset for its 1-based service a = s + 1
        self._offsets = np.arange(size)[:, None] * (k * n) - n + np.arange(n)
        # service s scores K - s where it reaches the best utility
        self._weights = np.arange(k, 0, -1, dtype=np.min_scalar_type(k))[:, None]
        self._hits = np.empty((size, k, n), dtype=bool)
        self._score = np.empty((size, k, n), dtype=self._weights.dtype)
        # flat, so that the first r replications' (M, r, N) rows are
        # C-contiguous for every r
        self._rows = np.empty((len(_ROWS) + 1) * size * n)

    @staticmethod
    def replication_bytes(n: int, k: int) -> int:
        """Bytes of work arrays per replication: the utilities, the rows, and
        the envelope, realized, index and assignment rows in 8-byte values,
        and the services' hits and scores."""
        return n * (8 * (k + len(_ROWS) + 1 + 5) + k * (1 + np.min_scalar_type(k).itemsize))

    def means(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """The (6, r, 2) group means of the ``_ROWS`` rows and of the
        first-best indicator (an individual is assigned its first best
        service, the lowest-indexed one of highest utility), and the (r,)
        mask of replications where gain and shortfall are defined."""
        u, assignment = self.u[:r], self.assignment[:r]
        k, n = u.shape[1:]
        rows = self._rows[: (len(_ROWS) + 1) * r * n].reshape(len(_ROWS) + 1, r, n)
        u_min, u_max = self._envelope[:, :r]
        np.minimum.reduce(u, axis=1, out=u_min)
        np.maximum.reduce(u, axis=1, out=u_max)
        index = np.multiply(assignment, n, out=self._index[:r])
        index += self._offsets[:r]
        realized = u.ravel().take(index, out=self._realized[:r], mode="clip")
        defined = _metric_block(u_min, u_max, realized, out=rows)[1]
        # the top score is K + 1 - (the first best service)
        hits = np.equal(u, u_max[:, None, :], out=self._hits[:r])
        top = np.maximum.reduce(np.multiply(hits, self._weights, out=self._score[:r]), axis=1)
        np.equal(np.subtract(k + 1, top, out=top), assignment, out=rows[-1])
        return _group_means(rows, self.members), defined


def favored_group(metric: str, delta: float) -> str:
    """Which group a delta favors under the metric's sign convention."""
    if delta == 0.0:
        return "tied"
    positive_favors_group1 = _GROUP1_POSITIVE[metric]
    if (delta > 0.0) == positive_favors_group1:
        return "group1"
    return "group0"


@dataclass(frozen=True)
class FairnessReport:
    """Per-group metric means for a binary attribute, keyed by metric.

    ``means[m]`` holds the group-0 and group-1 means of each metric ``m`` in
    ``METRICS``; gain and shortfall map to None when any utility is
    non-positive (multiplicative metrics undefined). The deltas (group 1
    minus group 0) and verdicts are read off ``means``. ``mean_delta_u``
    holds the group means of the max gain (best - worst), the right-hand side
    of the additive identity; it is not part of ``to_dict``.
    """

    attribute: str
    means: Mapping[str, tuple[float, float] | None]
    mean_delta_u: tuple[float, float]

    @property
    def deltas(self) -> dict[str, float | None]:
        return {name: None if pair is None else pair[1] - pair[0]
                for name, pair in self.means.items()}

    @property
    def favored(self) -> dict[str, str | None]:
        return {name: None if d is None else favored_group(name, d)
                for name, d in self.deltas.items()}

    @property
    def multiplicative_defined(self) -> bool:
        return None not in self.means.values()

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"attribute": self.attribute}
        deltas = self.deltas
        for name in METRICS:
            out[f"{name}_mean"] = list(self.means[name] or (None, None))
            out[f"delta_{name}"] = deltas[name]
        out["multiplicative_defined"] = self.multiplicative_defined
        out["favored"] = self.favored
        return out


def delta_metrics(pop: Population, alloc: Allocation, attribute: str) -> FairnessReport:
    """All four metrics per group, and the max gain, for a binary attribute.

    Raises:
        EmptyGroupError: if either group of the attribute is empty.
    """
    in_group1 = pop.group_mask(attribute, 1)
    members = (np.flatnonzero(~in_group1), np.flatnonzero(in_group1))
    for value, idx in enumerate(members):
        if idx.size == 0:
            raise EmptyGroupError(f"empty-group: {attribute}={value}")
    _, rows, defined = _population_rows(pop, alloc)
    return _fairness_report(attribute, rows, defined, members)


def _fairness_report(
    attribute: str, rows: np.ndarray, defined: bool, members: tuple[np.ndarray, np.ndarray]
) -> FairnessReport:
    """The report of one population's (5, 1, N) ``_metric_block`` rows over
    its groups 0 and 1, the individuals ``members`` (ascending indices);
    gain and shortfall are None unless ``defined``."""
    means = {
        name: None if name in _MULTIPLICATIVE and not defined else tuple(pair)
        for name, pair in zip(_ROWS, _group_means(rows, members)[:, 0].tolist())
    }
    mean_delta_u = means.pop("delta_u")
    return FairnessReport(attribute, means, mean_delta_u)
