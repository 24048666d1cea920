"""Domain types and the four group-fairness metrics.

Metrics compare realized utility against each individual's own best/worst
service, additively (improvement, regret) or multiplicatively (gain,
shortfall). Deltas are always reported as group-1 mean minus group-0 mean;
note the asymmetric reading for regret: a positive regret delta favors
group 0, while positive deltas of the other three metrics favor group 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from .errors import EmptyGroupError, RatioUndefinedError

METRICS = ("improvement", "regret", "gain", "shortfall")

#: Metrics whose positive delta favors group 1 (all except regret).
_GROUP1_POSITIVE = {"improvement": True, "regret": False, "gain": True, "shortfall": True}


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Population:
    """N individuals with utilities over K services and binary group attributes.

    Attributes:
        utilities: N x K matrix; ``utilities[i, k]`` is the utility individual
            ``i`` derives from service ``k + 1`` (service indices are 1-based
            throughout the public API). Higher is better.
        groups: attribute name -> length-N vector with values in {0, 1}.
    """

    utilities: np.ndarray
    groups: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        u = _frozen_array(self.utilities, np.float64)
        if u.ndim != 2 or u.shape[0] < 1 or u.shape[1] < 1:
            raise ValueError("utilities must be a non-empty N x K matrix")
        if not np.all(np.isfinite(u)):
            raise ValueError("utilities must be finite")
        object.__setattr__(self, "utilities", u)
        groups = {}
        for name, values in dict(self.groups).items():
            g = _frozen_array(values, np.int8)
            if g.shape != (u.shape[0],):
                raise ValueError(f"group {name!r} must assign a value to every individual")
            if not np.all((g == 0) | (g == 1)):
                raise ValueError(f"group {name!r} must be binary (0/1)")
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
            raise ValueError("capacities must be a non-empty 1-D integer vector")
        if np.any(c < 0):
            raise ValueError("capacities must be non-negative")
        object.__setattr__(self, "capacities", c)

    @property
    def k(self) -> int:
        return self.capacities.size

    @property
    def total(self) -> int:
        """Exact sum; an int64 sum can wrap for capacities near 2**63."""
        return sum(self.capacities.tolist())

    def feasible_for(self, pop: Population) -> bool:
        return self.k == pop.k and self.total >= pop.n


@dataclass(frozen=True)
class Allocation:
    """One service index (1-based, in [1..K]) per individual."""

    assignment: np.ndarray

    def __post_init__(self):
        a = _frozen_array(self.assignment, np.int64)
        if a.ndim != 1 or a.size < 1:
            raise ValueError("assignment must be a non-empty 1-D vector")
        if np.any(a < 1):
            raise ValueError("service indices are 1-based")
        object.__setattr__(self, "assignment", a)

    @property
    def n(self) -> int:
        return self.assignment.size

    def counts(self, k: int) -> np.ndarray:
        """Number of individuals assigned to each of the ``k`` services."""
        return np.bincount(self.assignment - 1, minlength=k)

    def realized(self, pop: Population) -> np.ndarray:
        """Realized utility of every individual under this allocation."""
        if self.n != pop.n or np.any(self.assignment > pop.k):
            raise ValueError("allocation does not match population shape")
        return pop.utilities[np.arange(pop.n), self.assignment - 1]

    def is_feasible(self, pop: Population, caps: CapacityVector) -> bool:
        return (
            self.n == pop.n
            and caps.k == pop.k
            and not np.any(self.assignment > pop.k)
            and bool(np.all(self.counts(pop.k) <= caps.capacities))
        )


@dataclass(frozen=True)
class UtilityEnvelope:
    """Per-individual best/worst utilities and derived spread statistics.

    ``ratio_r`` (worst over best) is defined only when every utility in the
    population is strictly positive; otherwise it is None and multiplicative
    metrics are unavailable.
    """

    u_min: np.ndarray
    u_max: np.ndarray
    delta_u: np.ndarray
    ratio_r: np.ndarray | None

    @property
    def ratio_defined(self) -> bool:
        return self.ratio_r is not None


def envelope(pop: Population) -> UtilityEnvelope:
    """Compute each individual's worst/best utility, spread, and ratio."""
    u_min = pop.utilities.min(axis=1)
    u_max = pop.utilities.max(axis=1)
    ratio = u_min / u_max if u_min.min() > 0.0 else None
    return UtilityEnvelope(
        u_min=_frozen_array(u_min, np.float64),
        u_max=_frozen_array(u_max, np.float64),
        delta_u=_frozen_array(u_max - u_min, np.float64),
        ratio_r=None if ratio is None else _frozen_array(ratio, np.float64),
    )


def _group_indices(pop: Population, attribute: str, group_value: int) -> np.ndarray:
    mask = pop.group_mask(attribute, group_value)
    if not mask.any():
        raise EmptyGroupError(f"empty-group: {attribute}={group_value}")
    return mask


def metric_rows(pop: Population, alloc: Allocation) -> dict[str, np.ndarray | None]:
    """Per-individual improvement, regret, gain, shortfall and ``delta_u``
    from one envelope pass; gain and shortfall are None when the ratio is
    undefined. Every group mean and delta is read from these rows."""
    env = envelope(pop)
    realized = alloc.realized(pop)
    ratio = env.ratio_defined
    return {
        "improvement": realized - env.u_min,
        "regret": env.u_max - realized,
        "gain": realized / env.u_min if ratio else None,
        "shortfall": realized / env.u_max if ratio else None,
        "delta_u": env.delta_u,
    }


def _group_mean(pop: Population, alloc: Allocation, attribute: str, group_value: int,
                metric: str) -> float:
    mask = _group_indices(pop, attribute, group_value)
    row = metric_rows(pop, alloc)[metric]
    if row is None:
        raise RatioUndefinedError(
            "ratio-undefined: multiplicative metrics need strictly positive utilities"
        )
    return float(np.mean(row[mask]))


def improvement_mean(pop: Population, alloc: Allocation, attribute: str, group_value: int) -> float:
    """Group mean of (realized utility - worst-service utility)."""
    return _group_mean(pop, alloc, attribute, group_value, "improvement")


def regret_mean(pop: Population, alloc: Allocation, attribute: str, group_value: int) -> float:
    """Group mean of (best-service utility - realized utility)."""
    return _group_mean(pop, alloc, attribute, group_value, "regret")


def gain_mean(pop: Population, alloc: Allocation, attribute: str, group_value: int) -> float:
    """Group mean of (realized utility / worst-service utility); >= 1."""
    return _group_mean(pop, alloc, attribute, group_value, "gain")


def shortfall_mean(pop: Population, alloc: Allocation, attribute: str, group_value: int) -> float:
    """Group mean of (realized utility / best-service utility); in (0, 1]."""
    return _group_mean(pop, alloc, attribute, group_value, "shortfall")


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
    """Per-group metric means, group-1-minus-group-0 deltas, and verdicts.

    Gain/shortfall fields are None when any utility is non-positive
    (multiplicative metrics undefined). ``mean_delta_u`` holds the group-0 and
    group-1 means of the max gain (best - worst), the right-hand side of the
    additive identity; it is not part of ``to_dict``.
    """

    attribute: str
    improvement_mean_0: float
    improvement_mean_1: float
    regret_mean_0: float
    regret_mean_1: float
    delta_improvement: float
    delta_regret: float
    gain_mean_0: float | None = None
    gain_mean_1: float | None = None
    shortfall_mean_0: float | None = None
    shortfall_mean_1: float | None = None
    delta_gain: float | None = None
    delta_shortfall: float | None = None
    favored: Mapping[str, str | None] = field(default_factory=dict)
    mean_delta_u: tuple[float, float] | None = None

    @property
    def multiplicative_defined(self) -> bool:
        return self.delta_gain is not None

    def to_dict(self) -> dict[str, Any]:
        return {
            "attribute": self.attribute,
            "improvement_mean": [self.improvement_mean_0, self.improvement_mean_1],
            "regret_mean": [self.regret_mean_0, self.regret_mean_1],
            "gain_mean": [self.gain_mean_0, self.gain_mean_1],
            "shortfall_mean": [self.shortfall_mean_0, self.shortfall_mean_1],
            "delta_improvement": self.delta_improvement,
            "delta_regret": self.delta_regret,
            "delta_gain": self.delta_gain,
            "delta_shortfall": self.delta_shortfall,
            "multiplicative_defined": self.multiplicative_defined,
            "favored": dict(self.favored),
        }


def delta_metrics(pop: Population, alloc: Allocation, attribute: str) -> FairnessReport:
    """All four metrics per group plus their deltas for a binary attribute.

    Raises:
        EmptyGroupError: if either group of the attribute is empty.
    """
    masks = (_group_indices(pop, attribute, 0), _group_indices(pop, attribute, 1))
    # one 1-D np.mean per row and group: a 2-D axis reduction sums in another
    # order and changes the last bits of the written outputs
    means = {
        name: None if row is None else tuple(float(np.mean(row[m])) for m in masks)
        for name, row in metric_rows(pop, alloc).items()
    }
    deltas = {name: None if means[name] is None else means[name][1] - means[name][0]
              for name in METRICS}
    gain = means["gain"] or (None, None)
    shortfall = means["shortfall"] or (None, None)
    return FairnessReport(
        attribute=attribute,
        improvement_mean_0=means["improvement"][0],
        improvement_mean_1=means["improvement"][1],
        regret_mean_0=means["regret"][0],
        regret_mean_1=means["regret"][1],
        delta_improvement=deltas["improvement"],
        delta_regret=deltas["regret"],
        gain_mean_0=gain[0],
        gain_mean_1=gain[1],
        shortfall_mean_0=shortfall[0],
        shortfall_mean_1=shortfall[1],
        delta_gain=deltas["gain"],
        delta_shortfall=deltas["shortfall"],
        favored={name: None if d is None else favored_group(name, d) for name, d in deltas.items()},
        mean_delta_u=means["delta_u"],
    )


def mean_delta_u(pop: Population, attribute: str, group_value: int) -> float:
    """Group mean of the per-individual maximum utility gain (best - worst)."""
    mask = _group_indices(pop, attribute, group_value)
    return float(np.mean(envelope(pop).delta_u[mask]))
