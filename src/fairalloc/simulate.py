"""Seeded population generators, replicated experiments, and the empirical
verification harnesses for the theory results (identity, interpolation,
sign-flip existence, and the two stylized-framework characterizations).
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import MISSING, dataclass, fields
from typing import Any, ClassVar, Mapping, Sequence

import numpy as np

from ._io import expect, load_json, required
from ._rng import check_seed, generator, spawn_seed, standard_normal, uniform_open
from .core import (
    METRICS,
    Allocation,
    CapacityVector,
    Population,
    _MetricBlock,
    _first_best,
    _frozen_array,
    delta_metrics,
    envelope,  # noqa: F401 -- unused here; perfbench/tracing.py wraps simulate.envelope
    metric_rows,
)
from .errors import EmptyGroupError, InfeasibleError, InputError, NoHeterogeneityError
from .policies import Allocator, PolicySpec, _check_instance, allocate_mixture, compile_spec

GROUP_ATTRIBUTE = "group"
_POLICY_STREAM = 101  # sub-stream tag separating policy seeds from population seeds
_Z95 = 1.96

METRIC_KEYS = tuple(f"delta_{name}" for name in METRICS)
# the values of a replication: the metric deltas, then the auxiliary estimates
_ROW_KEYS = (
    *METRIC_KEYS,
    "best_service_fraction_group0",
    "best_service_fraction_group1",
    "mean_delta_u_group0",
    "mean_delta_u_group1",
    "delta_mean_delta_u",
)
# bytes of the work arrays of one block of replications; the replication loop
# works in about this much memory, whatever the replication count (never
# less than one replication a block)
_BLOCK_BYTES = 1 << 21
_MAX_BYTES = np.iinfo(np.intp).max  # the bytes one numpy array can hold


def _as_matrix(values, rows: int, name: str) -> np.ndarray:
    try:
        arr = _frozen_array(values, np.float64)
    except ValueError:  # rows of different lengths
        arr = None
    if arr is None or arr.ndim != 2 or arr.shape[0] != rows:
        raise InputError(f"{name} must be a {rows} x K matrix")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} must hold only finite numbers")
    return arr


def _group_sizes(values, k: int) -> tuple[int, ...]:
    sizes = tuple(int(v) for v in values)
    if min(sizes) < 1:
        raise InputError("both groups need at least one individual")
    # one replication's work arrays, bounded by the bytes one numpy array can
    # hold; past that numpy refuses to size them with a bare ValueError
    if _MetricBlock.replication_bytes(sum(sizes), int(k)) > _MAX_BYTES:
        raise InputError(f"group_sizes too large for the work arrays of {k} services")
    return sizes


def _check_stylized(params, proportions: tuple[float, float], interval: str):
    """Coerce and check the fields SF1 and SF2 share: group sizes, the
    type proportions, the positive ``interval`` field and ``k``."""
    bounds = tuple(float(v) for v in getattr(params, interval))
    object.__setattr__(params, interval, bounds)
    if not all(0.0 <= pi <= 1.0 for pi in proportions):
        raise InputError("type proportions must lie in [0, 1]")
    if not all(math.isfinite(b) for b in bounds):
        raise InputError(f"{interval} must hold only finite numbers")
    if bounds[0] <= 0 or bounds[1] < bounds[0]:
        raise InputError(f"{interval} must be a positive interval")
    if params.k < 2:
        raise InputError("need at least two services")
    object.__setattr__(params, "group_sizes", _group_sizes(params.group_sizes, params.k))


@dataclass(frozen=True)
class GaussianGroupParams:
    """Two groups whose service utilities are independent normals.

    ``means[s, k]`` and ``variances[s, k]`` parameterize group ``s``'s utility
    for service ``k + 1``. Draws are not clamped; multiplicative metrics are
    automatically unavailable for populations containing a draw <= 0.
    """

    means: np.ndarray
    variances: np.ndarray
    group_sizes: tuple[int, int]
    capacities: CapacityVector
    attribute: str = GROUP_ATTRIBUTE

    def __post_init__(self):
        object.__setattr__(self, "means", _as_matrix(self.means, 2, "means"))
        object.__setattr__(self, "variances", _as_matrix(self.variances, 2, "variances"))
        if self.variances.shape != self.means.shape:
            raise InputError("means and variances must have matching shapes")
        if np.any(self.variances <= 0):
            raise InputError("variances must be positive")
        object.__setattr__(self, "group_sizes", _group_sizes(self.group_sizes, self.k))
        # per-individual tables every sample reads, service-major as the
        # samples are; attributes, not fields, so equality, repr and the
        # params-file keys stay as they were
        sizes = list(self.group_sizes)
        object.__setattr__(self, "_labels", np.repeat(np.array([0, 1], dtype=np.int8), sizes))
        object.__setattr__(self, "_mu", np.asfortranarray(np.repeat(self.means, sizes, axis=0)))
        object.__setattr__(
            self, "_sd", np.asfortranarray(np.repeat(np.sqrt(self.variances), sizes, axis=0))
        )

    @property
    def k(self) -> int:
        return self.means.shape[1]

    def sample(self, seed: int) -> Population:
        # sd * z + mu, written service-major, the population's layout, so
        # that it takes the matrix uncopied: the product reads the
        # individual-major draws through their transpose
        z = standard_normal(generator(seed), self._mu.shape)
        utilities = np.multiply(z.T, self._sd.T, out=np.empty(self._mu.shape[::-1])).T
        utilities += self._mu
        return Population._adopt(utilities, {self.attribute: self._labels})


def _stratified_vectors(
    gen: np.random.Generator, u_min: np.ndarray, u_max: np.ndarray, k: int
) -> np.ndarray:
    """Utility vectors holding u_min and u_max plus stratified interior draws,
    randomly permuted per individual so no service index is systematically
    better. The construction depends on (u_min, u_max) only, which is what
    makes the stylized frameworks' conditional-homogeneity assumptions hold."""
    n = u_min.size
    cols = [u_min]
    if k > 2:
        spread = (u_max - u_min) / (k - 2)
        for j in range(k - 2):
            cols.append(u_min + (j + uniform_open(gen, n)) * spread)
    cols.append(u_max)
    # permuted draws the same row shuffles for either layout; service-major
    # is the population's
    return gen.permuted(np.array(cols).T, axis=1)


@dataclass(frozen=True)
class SF1Params:
    """Stylized framework where heterogeneity lives in r = u_min / u_max.

    Type A individuals have ratio ``r_high``, type B ratio ``r_low``;
    ``pi0``/``pi1`` are the type-B proportions per group. u_max is uniform on
    ``u_max_range`` and the conditional construction is shared across groups
    and types.
    """

    r_high: float
    r_low: float
    pi0: float
    pi1: float
    group_sizes: tuple[int, int]
    capacities: CapacityVector
    u_max_range: tuple[float, float] = (1.0, 2.0)
    k: int = 3
    attribute: ClassVar[str] = GROUP_ATTRIBUTE
    type_attribute: ClassVar[str] = "type_b"

    def __post_init__(self):
        if not 0.0 < self.r_low < self.r_high <= 1.0:
            raise InputError("require 0 < r_low < r_high <= 1")
        _check_stylized(self, (self.pi0, self.pi1), "u_max_range")

    def sample(self, seed: int) -> Population:
        gen = generator(seed)
        n0, n1 = self.group_sizes
        labels = np.repeat(np.array([0, 1], dtype=np.int8), [n0, n1])
        pi = np.where(labels == 1, self.pi1, self.pi0)
        type_b = (uniform_open(gen, n0 + n1) < pi).astype(np.int8)
        lo, hi = self.u_max_range
        u_max = lo + (hi - lo) * uniform_open(gen, n0 + n1)
        ratio = np.where(type_b == 1, self.r_low, self.r_high)
        utilities = _stratified_vectors(gen, ratio * u_max, u_max, self.k)
        return Population._adopt(utilities, {self.attribute: labels, self.type_attribute: type_b})


@dataclass(frozen=True)
class SF2Params:
    """Stylized framework where heterogeneity lives in the level of u_min.

    Type C individuals have u_min = ``u_low``, type D u_min = ``u_high``;
    ``p0``/``p1`` are the type-C proportions per group. The spread above
    u_min is uniform on ``spread_range`` regardless of type.
    """

    u_low: float
    u_high: float
    p0: float
    p1: float
    group_sizes: tuple[int, int]
    capacities: CapacityVector
    spread_range: tuple[float, float] = (0.5, 1.0)
    k: int = 3
    attribute: ClassVar[str] = GROUP_ATTRIBUTE
    type_attribute: ClassVar[str] = "type_c"

    def __post_init__(self):
        for name in ("u_low", "u_high"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InputError(f"{name} must be finite, got {value!r}")
        if not 0.0 < self.u_low < self.u_high:
            raise InputError("require 0 < u_low < u_high")
        _check_stylized(self, (self.p0, self.p1), "spread_range")

    def sample(self, seed: int) -> Population:
        gen = generator(seed)
        n0, n1 = self.group_sizes
        labels = np.repeat(np.array([0, 1], dtype=np.int8), [n0, n1])
        p = np.where(labels == 1, self.p1, self.p0)
        type_c = (uniform_open(gen, n0 + n1) < p).astype(np.int8)
        u_min = np.where(type_c == 1, self.u_low, self.u_high)
        lo, hi = self.spread_range
        u_max = u_min + lo + (hi - lo) * uniform_open(gen, n0 + n1)
        utilities = _stratified_vectors(gen, u_min, u_max, self.k)
        return Population._adopt(utilities, {self.attribute: labels, self.type_attribute: type_c})


PopulationParams = GaussianGroupParams | SF1Params | SF2Params


@dataclass(frozen=True)
class MetricEstimate:
    """Mean over replications with a 95% normal-approximation CI."""

    estimate: float
    ci_half_width: float
    replications: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "estimate": self.estimate,
            "ci95_half_width": self.ci_half_width,
            "replications": self.replications,
        }


@dataclass(frozen=True)
class ExperimentResult:
    """Replicated metric estimates for one population model and policy."""

    policy: str
    attribute: str
    base_seed: int
    replications: int
    metrics: Mapping[str, MetricEstimate | None]
    aux: Mapping[str, MetricEstimate]

    def to_dict(self) -> dict[str, Any]:
        return {
            "policy": self.policy,
            "attribute": self.attribute,
            "base_seed": self.base_seed,
            "replications": self.replications,
            "metrics": {k: (v.to_dict() if v else None) for k, v in self.metrics.items()},
            "aux": {k: v.to_dict() for k, v in self.aux.items()},
        }


def _aggregate(values: Sequence[float | None]) -> MetricEstimate | None:
    defined = np.array([v for v in values if v is not None], dtype=np.float64)
    if defined.size < 2:
        return None
    sd = float(np.std(defined, ddof=1))
    return MetricEstimate(
        estimate=float(np.mean(defined)),
        ci_half_width=_Z95 * sd / float(np.sqrt(defined.size)),
        replications=int(defined.size),
    )


def _replica(
    params: PopulationParams, allocator: Allocator, base_seed: int, rep: int
) -> tuple[Population, Allocation]:
    """Replication ``rep``'s population, sampled with seed ``base_seed + rep``,
    and its allocation under the policy seed derived from that seed."""
    pop_seed = base_seed + rep
    pop = params.sample(pop_seed)
    return pop, allocator(pop, params.capacities, spawn_seed(pop_seed, _POLICY_STREAM))


def _replicate_block(
    params: PopulationParams, allocator: Allocator, base_seed: int, reps: range,
    block: _MetricBlock,
) -> tuple[np.ndarray, np.ndarray]:
    """The consecutive replications ``reps``, at most ``block``'s size: each
    is sampled and allocated in turn, under its own seeds, as if alone; then
    the metric stage runs once over all of them, and the additive identity
    is checked in each. Returns the stage's group means and defined mask."""
    for j, rep in enumerate(reps):
        pop, alloc = _replica(params, allocator, base_seed, rep)
        block.u[j] = pop.utilities.T
        block.assignment[j] = alloc.assignment
    # a service past K would read another replication's utilities
    if block.assignment[: len(reps)].max() > params.k:
        raise InputError("allocation does not match population shape")
    means, defined = block.means(len(reps))
    deltas = means[..., 1] - means[..., 0]
    # exact in real arithmetic; the rounding error grows with the utilities'
    # size, so the bound is 1e-9 times the largest |utility| but never below
    # 1e-9, and the utilities are scanned only for a residual past that floor
    residuals = deltas[0] + deltas[1] - deltas[4]
    for j in np.flatnonzero(np.abs(residuals) > 1e-9):
        residual = float(residuals[j])
        if abs(residual) > 1e-9 * float(np.abs(block.u[j]).max()):
            raise RuntimeError(
                f"additive-identity violation in replication {reps[j]}"
                f" (seed {base_seed + reps[j]}): residual {residual:g}"
            )
    return means, defined


def _replicate(
    params: PopulationParams, allocator: Allocator, base_seed: int, reps: range
) -> tuple[np.ndarray, np.ndarray]:
    """The consecutive replications ``reps``, in blocks of as many as
    ``_BLOCK_BYTES`` holds but at most a quarter of them: their
    (6, len(reps), 2) group means (see ``_MetricBlock.means``) and the mask
    of those where gain and shortfall are defined."""
    n0, n1 = params.group_sizes
    per_block = _BLOCK_BYTES // _MetricBlock.replication_bytes(n0 + n1, params.k)
    # the work arrays are new memory, each page faulted in on first use;
    # a replication's share of them repays that only when it serves about
    # four replications (3 at paper scale ran 2% slower in blocks of 3)
    size = max(1, min(per_block, len(reps) // 4))
    # every sampler lists group 0's individuals first, then group 1's
    block = _MetricBlock(size, params.k, (np.arange(n0), np.arange(n0, n0 + n1)))
    blocks = [_replicate_block(params, allocator, base_seed, reps[start:start + size], block)
              for start in range(0, len(reps), size)]
    return (np.concatenate([means for means, _ in blocks], axis=1),
            np.concatenate([defined for _, defined in blocks]))


def _columns(means: np.ndarray, defined: np.ndarray) -> dict[str, list[float | None]]:
    """Each ``_ROW_KEYS`` key's value in every replication, from
    ``_replicate``'s results; gain and shortfall deltas are None where they
    are undefined. A first-best share is a count over the group size,
    exactly."""
    deltas = means[..., 1] - means[..., 0]
    values = [*deltas[:4], *means[5].T, *means[4].T, deltas[4]]
    columns = {key: column.tolist() for key, column in zip(_ROW_KEYS, values)}
    for key in ("delta_gain", "delta_shortfall"):
        columns[key] = [v if ok else None for v, ok in zip(columns[key], defined.tolist())]
    return columns


def _spec_worker(args) -> tuple[np.ndarray, np.ndarray]:
    """``_replicate`` on one contiguous chunk of replications, under one
    compiled allocator, so that a utilitarian solve warm-starts from the last."""
    params, spec, base_seed, reps, float_errors = args
    allocator = compile_spec(spec)
    with np.errstate(**float_errors):
        return _replicate(params, allocator, base_seed, reps)


def run_experiment(
    params: PopulationParams,
    policy: PolicySpec | Allocator,
    replications: int,
    base_seed: int,
    threads: int = 1,
) -> ExperimentResult:
    """Replicate a policy over freshly sampled populations.

    Replication ``r`` samples its population with seed ``base_seed + r`` and
    derives the policy seed from it, so results are a pure function of
    ``base_seed`` regardless of thread count. Metrics that are undefined in a
    replication (multiplicative metrics when a utility draw is <= 0) are
    aggregated over the remaining replications; the per-metric count is
    reported. The additive identity (improvement delta + regret delta equals
    the group difference in mean max gain) is asserted in every replication.

    Replications run in blocks of consecutive ones: each is sampled and
    allocated in turn, then the metrics of the whole block are computed at
    once. A fixed byte budget bounds a block, so the loop works in about
    2 MB whatever ``replications`` is; a block also holds at most a quarter
    of the replications, and at least one. Neither the block size nor
    ``threads`` changes a result.

    ``threads`` > 1 runs the replications of a ``PolicySpec`` policy in that
    many worker processes, at most one per replication and per CPU, each on
    one contiguous chunk of them; the default runs them serially. The
    environment is not consulted: the CLI applies the ``FAIRALLOC_THREADS``
    cap before calling.

    Raises:
        InputError: if ``replications`` < 2, or too many for a ``range``
            to have a length (more than ``sys.maxsize``).
        RuntimeError: if a replication violates the additive identity.
    """
    if replications < 2:
        raise InputError("replications must be >= 2")
    if replications > sys.maxsize:
        raise InputError(f"replications must be at most {sys.maxsize}, got {replications}")
    # the pool starts every worker at once; more than there is work or CPU only costs
    threads = max(1, min(threads, replications, os.cpu_count() or 1))

    if isinstance(policy, PolicySpec):
        spec, allocator, label = policy, compile_spec(policy), policy.describe()
    else:
        spec, allocator, label = None, policy, getattr(policy, "__name__", "custom")

    if threads > 1 and spec is not None:
        # a forked worker inherits the caller's numpy error handling, a
        # spawned or forkserver one starts from numpy's defaults
        float_errors = np.geterr()
        cuts = [replications * t // threads for t in range(threads + 1)]
        jobs = [(params, spec, base_seed, range(a, b), float_errors)
                for a, b in zip(cuts, cuts[1:])]
        # imported here: loading multiprocessing costs every serial run's set-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(_spec_worker, jobs))
    else:
        chunks = [_replicate(params, allocator, base_seed, range(replications))]

    columns = _columns(np.concatenate([means for means, _ in chunks], axis=1),
                       np.concatenate([defined for _, defined in chunks]))
    metrics = {key: _aggregate(columns[key]) for key in METRIC_KEYS}
    aux = {key: _aggregate(columns[key]) for key in _ROW_KEYS[len(METRIC_KEYS):]}
    return ExperimentResult(
        policy=label,
        attribute=params.attribute,
        base_seed=base_seed,
        replications=replications,
        metrics=metrics,
        aux={k: v for k, v in aux.items() if v is not None},
    )


def allocate_group_priority(
    pop: Population, caps: CapacityVector, attribute: str, first_group: int
) -> Allocation:
    """Greedy allocation serving one group first.

    Members of ``first_group`` (in index order) each take their best service
    with remaining capacity, then everyone else does. A deterministic way to
    build a policy that favors the prioritized group on improvement.
    """
    _check_instance(pop, caps)
    mask = pop.group_mask(attribute, first_group)
    order = np.concatenate([np.nonzero(mask)[0], np.nonzero(~mask)[0]])
    remaining = caps.capacities.copy()
    prefs = np.argsort(-pop.utilities, axis=1, kind="stable")
    assignment = np.zeros(pop.n, dtype=np.int64)
    for i in order:
        for k in prefs[i]:
            if remaining[k] > 0:
                remaining[k] -= 1
                assignment[i] = k + 1
                break
    return Allocation._adopt(assignment)


def gain_fair_allocator(params: SF1Params, q_high: float = 0.5) -> Allocator:
    """Policy that is gain-fair by construction in the SF1 framework.

    Each individual receives their best service with a type-dependent
    probability (else their worst); the probabilities are calibrated so the
    expected gain is identical for both types, hence for both groups. Under
    it, the equitability delta keeps the sign of pi0 - pi1. Intended for
    harness runs with non-binding capacities.
    """
    boost_high = 1.0 / params.r_high - 1.0
    boost_low = 1.0 / params.r_low - 1.0
    q_a = q_high
    q_b = q_high * boost_high / boost_low

    def run(pop: Population, caps: CapacityVector, seed: int) -> Allocation:
        gen = generator(seed)
        type_b = pop.groups[params.type_attribute] == 1
        q = np.where(type_b, q_b, q_a)
        take_best = uniform_open(gen, pop.n) < q
        assignment = np.where(
            take_best, _first_best(pop.utilities), _first_best(pop.utilities, worst=True)
        ) + 1
        alloc = Allocation._adopt(assignment)
        if not alloc.is_feasible(pop, caps):
            raise InfeasibleError("infeasible: gain-fair harness policy needs slack capacities")
        return alloc

    return run


def _conditional_means(values: np.ndarray, type_mask: np.ndarray) -> tuple[float, float]:
    if not type_mask.any() or type_mask.all():
        raise EmptyGroupError("empty-group: both types must be present")
    return float(np.mean(values[type_mask])), float(np.mean(values[~type_mask]))


def sf1_identity(pop: Population, alloc: Allocation, params: SF1Params) -> dict[str, float]:
    """Empirical SF1 decomposition of the multiplicative deltas.

    Returns actual and predicted gain/equitability deltas, where the
    predictions are (pi0_hat - pi1_hat) times the spread in pooled
    type-conditional means of gain (respectively shortfall).
    """
    rows = metric_rows(pop, alloc)
    type_b = pop.groups[params.type_attribute] == 1
    g1 = pop.group_mask(params.attribute, 1)
    pi0_hat = float(np.mean(type_b[~g1]))
    pi1_hat = float(np.mean(type_b[g1]))

    gain_low_r, gain_high_r = _conditional_means(rows["gain"], type_b)
    short_low_r, short_high_r = _conditional_means(rows["shortfall"], type_b)

    deltas = delta_metrics(pop, alloc, params.attribute).deltas
    return {
        "pi0_hat": pi0_hat,
        "pi1_hat": pi1_hat,
        "alpha_high": gain_high_r,
        "alpha_low": gain_low_r,
        "delta_gain": deltas["gain"],
        "delta_gain_predicted": (pi0_hat - pi1_hat) * (gain_high_r - gain_low_r),
        "delta_shortfall": deltas["shortfall"],
        "delta_shortfall_predicted": (pi0_hat - pi1_hat) * (short_high_r - short_low_r),
    }


def sf2_identity(pop: Population, alloc: Allocation, params: SF2Params) -> dict[str, float]:
    """Empirical SF2 decomposition of the improvement and gain deltas.

    Predictions use the pooled type-conditional means of realized utility:
    delta improvement ~ (p1-p0) * [(beta_low - u_low) - (beta_high - u_high)]
    and delta gain ~ (p1-p0) * (beta_low/u_low - beta_high/u_high).
    """
    realized = alloc.realized(pop)
    type_c = pop.groups[params.type_attribute] == 1
    g1 = pop.group_mask(params.attribute, 1)
    p0_hat = float(np.mean(type_c[~g1]))
    p1_hat = float(np.mean(type_c[g1]))
    beta_low, beta_high = _conditional_means(realized, type_c)

    deltas = delta_metrics(pop, alloc, params.attribute).deltas
    return {
        "p0_hat": p0_hat,
        "p1_hat": p1_hat,
        "beta_low": beta_low,
        "beta_high": beta_high,
        "delta_improvement": deltas["improvement"],
        "delta_improvement_predicted": (p1_hat - p0_hat)
        * ((beta_low - params.u_low) - (beta_high - params.u_high)),
        "delta_gain": deltas["gain"],
        "delta_gain_predicted": (p1_hat - p0_hat)
        * (beta_low / params.u_low - beta_high / params.u_high),
    }


@dataclass(frozen=True)
class SignFlipReport:
    """Outcome of the mixture search for conflicting improvement/regret verdicts."""

    found: bool
    lam: float | None
    endpoint_deltas: tuple[float, float]
    evaluations: tuple[dict[str, float], ...]
    message: str


def verify_sign_flip(
    params: PopulationParams, replications: int = 40, base_seed: int = 0
) -> SignFlipReport:
    """Search lambda-mixtures for a policy favoring group 1 on improvement
    while favoring group 0 on regret (both CIs excluding zero).

    The mixtures are of two greedy policies: one serving group 0 first
    (improvement delta < 0) and one serving group 1 first (> 0). On top of the
    grid 0, 0.1, ..., 1, the search adds the lambda suggested by the
    interpolation argument, targeting half the group difference in mean max
    gain.

    Raises:
        NoHeterogeneityError: when the mean max-gain difference between
            groups, read off the first endpoint's run, is not confidently
            positive, in which case the additive identity pins improvement
            and regret deltas to opposite signs. Any error of that run (an
            infeasible instance, an identity violation) is raised first.
    """
    attr = params.attribute
    endpoint_a = lambda pop, caps, seed: allocate_group_priority(pop, caps, attr, 0)
    endpoint_b = lambda pop, caps, seed: allocate_group_priority(pop, caps, attr, 1)

    run_a = run_experiment(params, endpoint_a, replications, base_seed)
    du = run_a.aux.get("delta_mean_delta_u")
    if du is None or du.estimate - du.ci_half_width <= 0:
        raise NoHeterogeneityError(
            "no-heterogeneity: mean max-gain difference between groups is not positive"
        )
    run_b = run_experiment(params, endpoint_b, replications, base_seed)
    delta = run_a.metrics["delta_improvement"].estimate
    delta_prime = run_b.metrics["delta_improvement"].estimate

    grid = [round(float(x), 10) for x in np.arange(0, 1.05, 0.1)]
    if delta < 0.0 < delta_prime:
        # Constructive target: the smaller of half the heterogeneity and half
        # the group-1-favoring endpoint, mapped to its mixture weight.
        target = min(du.estimate / 2.0, delta_prime / 2.0)
        lam_star = (delta_prime - target) / (delta_prime - delta)
        grid.append(round(float(np.clip(lam_star, 0.0, 1.0)), 6))

    evaluations = []
    found_lam = None
    for lam in sorted(set(grid)):
        mixer: Allocator = lambda pop, caps, seed, _l=lam: allocate_mixture(
            pop, caps, _l, endpoint_a, endpoint_b, seed
        )
        res = run_experiment(params, mixer, replications, base_seed)
        mi = res.metrics["delta_improvement"]
        mr = res.metrics["delta_regret"]
        evaluations.append(
            {
                "lambda": lam,
                "delta_improvement": mi.estimate,
                "delta_improvement_ci": mi.ci_half_width,
                "delta_regret": mr.estimate,
                "delta_regret_ci": mr.ci_half_width,
            }
        )
        if mi.estimate - mi.ci_half_width > 0 and mr.estimate - mr.ci_half_width > 0:
            found_lam = lam
            break

    if found_lam is None:
        message = "not found in grid"
        if not (delta < 0.0 < delta_prime):
            message = "endpoint policies do not bracket zero improvement delta"
    else:
        message = f"sign flip at lambda={found_lam:g}"
    return SignFlipReport(
        found=found_lam is not None,
        lam=found_lam,
        endpoint_deltas=(delta, delta_prime),
        evaluations=tuple(evaluations),
        message=message,
    )


# --- experiment configuration files -----------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """A parameter file: population model, policy, replications, base seed."""

    name: str
    params: PopulationParams
    policy: PolicySpec
    replications: int
    base_seed: int


# Each population kind's dataclass and the JSON type (see ``_io.expect``) of
# every key its params file may set; a key the dataclass gives a default may
# be left out, and keys not listed here are ignored.
_POPULATION_KINDS: dict[str, tuple[type, dict[str, str]]] = {
    "gaussian": (GaussianGroupParams, {
        "means": "number[][]", "variances": "number[][]", "group_sizes": "int64[2]",
        "capacities": "int64[]", "attribute": "string",
    }),
    "sf1": (SF1Params, {
        "r_high": "number", "r_low": "number", "pi0": "number", "pi1": "number",
        "group_sizes": "int64[2]", "capacities": "int64[]",
        "u_max_range": "number[2]", "k": "int64",
    }),
    "sf2": (SF2Params, {
        "u_low": "number", "u_high": "number", "p0": "number", "p1": "number",
        "group_sizes": "int64[2]", "capacities": "int64[]",
        "spread_range": "number[2]", "k": "int64",
    }),
}


def params_from_dict(data: Mapping[str, Any]) -> PopulationParams:
    """Build the population params of ``data["kind"]`` from the keys
    ``_POPULATION_KINDS`` lists for it, each checked for its JSON type."""
    kind = expect(data.get("kind", "gaussian"), "string", "kind")
    if kind not in _POPULATION_KINDS:
        raise InputError(f"unknown population kind {kind!r}")
    cls, keys = _POPULATION_KINDS[kind]
    optional = {f.name for f in fields(cls) if f.default is not MISSING}
    args = {
        key: expect(required(data, key, "params"), json_type, key)
        for key, json_type in keys.items()
        if key in data or key not in optional
    }
    args["capacities"] = CapacityVector(args["capacities"])
    return cls(**args)


def config_from_dict(data: Mapping[str, Any], name: str = "") -> ExperimentConfig:
    expect(data, "object", "experiment config")
    return ExperimentConfig(
        name=expect(data.get("name", name), "string", "name"),
        params=params_from_dict(data),
        policy=PolicySpec.from_dict(data.get("policy", {"kind": "random"})),
        replications=expect(data.get("replications", 100), "integer", "replications"),
        base_seed=check_seed(
            expect(data.get("base_seed", 0), "integer", "base_seed"), "base_seed"
        ),
    )


def load_experiment_config(path_or_preset: str) -> ExperimentConfig:
    """Load an experiment config from a JSON file or a shipped preset name."""
    return config_from_dict(load_json(path_or_preset), name=os.path.basename(path_or_preset))


# --- invariant check suite (backs the `check` CLI subcommand) ---------------


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str


def _check_additive_identity(seed: int) -> CheckOutcome:
    gen = generator(seed)
    worst = 0.0
    for _ in range(200):
        n = int(gen.integers(2, 60))
        k = int(gen.integers(1, 5))
        utilities = gen.normal(0.0, 1.0, (n, k))
        labels = np.zeros(n, dtype=np.int8)
        labels[int(gen.integers(1, n)) :] = 1
        pop = Population(utilities, {"group": labels})
        alloc = Allocation(gen.integers(1, k + 1, n))
        report = delta_metrics(pop, alloc, "group")
        deltas = report.deltas
        du0, du1 = report.mean_delta_u
        worst = max(worst, abs(deltas["improvement"] + deltas["regret"] - (du1 - du0)))
    return CheckOutcome(
        "additive-identity", worst <= 1e-12, f"max |dI + dR - dDU| = {worst:.3e}"
    )


def _check_mixture_interpolation(seed: int) -> CheckOutcome:
    # slack capacities: one child ignores them and must still fit its half
    params = GaussianGroupParams(
        means=[[0.2, 0.3, 0.4], [0.4, 0.5, 0.63]],
        variances=[[1e-4, 4e-4, 9e-4]] * 2,
        group_sizes=(150, 150),
        capacities=CapacityVector([300, 300, 300]),
    )
    reps = 300
    spec_a = PolicySpec("assign-best-ignoring-capacity")
    spec_b = PolicySpec("random")
    run_a = run_experiment(params, spec_a, reps, seed)
    run_b = run_experiment(params, spec_b, reps, seed)
    mix = PolicySpec("mixture", lam=0.5, children=(spec_a, spec_b))
    run_m = run_experiment(params, mix, reps, seed)
    target = 0.5 * (
        run_a.metrics["delta_improvement"].estimate + run_b.metrics["delta_improvement"].estimate
    )
    got = run_m.metrics["delta_improvement"]
    ok = abs(got.estimate - target) <= got.ci_half_width
    return CheckOutcome(
        "mixture-interpolation",
        ok,
        f"mixture dI {got.estimate:.5f} vs midpoint {target:.5f} (ci {got.ci_half_width:.5f})",
    )


def _sf1_params(pi0: float, pi1: float) -> SF1Params:
    return SF1Params(
        r_high=0.8,
        r_low=0.2,
        pi0=pi0,
        pi1=pi1,
        group_sizes=(400, 400),
        capacities=CapacityVector([800] * 3),
    )


def _check_sf1(seed: int) -> CheckOutcome:
    reps = 60
    balanced = _sf1_params(0.5, 0.5)
    res = run_experiment(balanced, PolicySpec("random"), reps, seed)
    dg, ds = res.metrics["delta_gain"], res.metrics["delta_shortfall"]
    ok = abs(dg.estimate) <= 2 * dg.ci_half_width and abs(ds.estimate) <= 2 * ds.ci_half_width
    detail = f"pi0=pi1: |dG|={abs(dg.estimate):.4f}<=2ci={2 * dg.ci_half_width:.4f}"

    skewed = _sf1_params(0.7, 0.3)
    res2 = run_experiment(skewed, gain_fair_allocator(skewed), reps, seed)
    dg2, ds2 = res2.metrics["delta_gain"], res2.metrics["delta_shortfall"]
    gain_fair = abs(dg2.estimate) <= 2 * dg2.ci_half_width
    sign_ok = ds2.estimate - ds2.ci_half_width > 0  # sign(pi0 - pi1) > 0 here
    ok = ok and gain_fair and sign_ok
    detail += f"; calibrated: dG~0 ({dg2.estimate:.4f}), dS={ds2.estimate:.4f}>0"

    # pooled-conditional-mean decomposition, averaged over replications
    resid = []
    allocator = compile_spec(PolicySpec("random"))
    for r in range(reps):
        pop, alloc = _replica(skewed, allocator, seed, r)
        ident = sf1_identity(pop, alloc, skewed)
        resid.append(ident["delta_gain"] - ident["delta_gain_predicted"])
    est = _aggregate(resid)
    ok = ok and abs(est.estimate) <= 2 * est.ci_half_width
    detail += f"; decomposition residual {est.estimate:.5f} (ci {est.ci_half_width:.5f})"
    return CheckOutcome("sf1-multiplicative-tradeoff", ok, detail)


def _check_sf2(seed: int) -> CheckOutcome:
    params = SF2Params(
        u_low=0.5,
        u_high=1.5,
        p0=0.7,
        p1=0.3,
        group_sizes=(400, 400),
        capacities=CapacityVector([800] * 3),
    )
    reps = 60
    res = run_experiment(params, PolicySpec("assign-worst-ignoring-capacity"), reps, seed)
    di, dg = res.metrics["delta_improvement"], res.metrics["delta_gain"]
    exact_zero = di.estimate == 0.0 and di.ci_half_width == 0.0 and dg.estimate == 0.0
    detail = f"worst policy: dI={di.estimate}, dG={dg.estimate}"

    resid_i, resid_g = [], []
    allocator = compile_spec(PolicySpec("random"))
    for r in range(reps):
        pop, alloc = _replica(params, allocator, seed, r)
        ident = sf2_identity(pop, alloc, params)
        resid_i.append(ident["delta_improvement"] - ident["delta_improvement_predicted"])
        resid_g.append(ident["delta_gain"] - ident["delta_gain_predicted"])
    est_i, est_g = _aggregate(resid_i), _aggregate(resid_g)
    ok = (
        exact_zero
        and abs(est_i.estimate) <= 2 * est_i.ci_half_width
        and abs(est_g.estimate) <= 2 * est_g.ci_half_width
    )
    detail += (
        f"; residuals dI {est_i.estimate:.5f} (ci {est_i.ci_half_width:.5f}),"
        f" dG {est_g.estimate:.5f} (ci {est_g.ci_half_width:.5f})"
    )
    return CheckOutcome("sf2-normalization-tradeoff", ok, detail)


def _check_sign_flip(seed: int) -> CheckOutcome:
    params = GaussianGroupParams(
        means=[[0.2, 0.3, 0.4], [0.4, 0.5, 0.63]],
        variances=[[1e-4, 4e-4, 9e-4]] * 2,
        group_sizes=(200, 200),
        capacities=CapacityVector([134, 134, 134]),
    )
    report = verify_sign_flip(params, replications=30, base_seed=seed)
    return CheckOutcome("improvement-regret-sign-flip", report.found, report.message)


def run_invariant_checks(base_seed: int = 7) -> list[CheckOutcome]:
    """Run the full empirical verification suite; used by ``fairalloc check``."""
    return [
        _check_additive_identity(base_seed),
        _check_mixture_interpolation(base_seed + 1),
        _check_sf1(base_seed + 2),
        _check_sf2(base_seed + 3),
        _check_sign_flip(base_seed + 4),
    ]
