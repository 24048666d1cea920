"""Audit real allocation records: ingest a CSV of per-service re-entry
probabilities, derive utilities u = 1 - p, and report group heterogeneity
(max-gain distributions, Welch tests, best-service shares) together with the
fairness verdicts of the observed assignment.

The observed assignment is audited as-is: administrative records define the
realized capacity use, so no feasibility re-check is performed.
"""

from __future__ import annotations

import ast
from dataclasses import InitVar, dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from ._io import (
    CsvColumns, csv_text, dump_json, expect, read_csv, required, write_text_atomic,
)
from .core import (
    Allocation,
    FairnessReport,
    Population,
    _fairness_report,
    _first_best,
    _freeze,
    _frozen_array,
    _population_rows,
    # unused here; perfbench/tracing.py wraps audit.delta_metrics and audit.envelope
    delta_metrics,  # noqa: F401
    envelope,  # noqa: F401
    favored_group,
)
from .errors import EmptyGroupError, InputError, SchemaMismatchError
from .stats import (
    KdeCurve,
    TTestResult,
    # unused here; perfbench/tracing.py wraps audit.kde
    kde,  # noqa: F401
    kde_curves,
    welch_t,
)

DEFAULT_BANDWIDTH = 0.2
DEFAULT_FAIR_TOLERANCE = 1e-3
# a pair's two KDE curves share one grid of this many points, spanning the
# pooled max gains and this many bandwidths beyond them
_GRID_SIZE = 512
_GRID_PADDING = 3.0


@dataclass(frozen=True)
class GroupPair:
    """Two disjoint sub-populations defined by boolean expressions over group
    columns (operators ``&``, ``|``, ``~`` and parentheses)."""

    name: str
    group1: str
    group0: str


def _check_service_names(names: Sequence[str], k: int | None = None) -> None:
    """A service name keys a share in report.json and heads a shares.csv
    column, beside the keys and columns "pair", "group" and "count": no name
    may repeat or be one of those three, and a dataset names all ``k`` of
    its services."""
    if k is not None and len(names) != k:
        raise SchemaMismatchError(
            f"schema-mismatch: {len(names)} service names for {k} services"
        )
    seen = set()
    for name in names:
        if name in ("pair", "group", "count"):
            raise SchemaMismatchError(
                f"schema-mismatch: service name {name!r} is reserved "
                "('pair', 'group' and 'count' name share columns)"
            )
        if name in seen:
            raise SchemaMismatchError(f"schema-mismatch: service name {name!r} is repeated")
        seen.add(name)


@dataclass(frozen=True)
class AuditSchema:
    """Maps service names and group attributes to CSV columns."""

    services: tuple[tuple[str, str], ...]  # (service name, probability column)
    observed_column: str
    group_columns: Mapping[str, str]  # attribute -> column
    pairs: tuple[GroupPair, ...]
    id_column: str = "id"

    def __post_init__(self):
        _check_service_names(self.service_names)
        # a pair name keys report.json and names the kde_<pair>_<group>.csv files
        seen = set()
        for pair in self.pairs:
            name = pair.name
            if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
                raise SchemaMismatchError(
                    f"schema-mismatch: pair name {name!r} is empty, '.' or '..', "
                    "or contains '/', '\\' or NUL"
                )
            if name in seen:
                raise SchemaMismatchError(f"schema-mismatch: pair name {name!r} is repeated")
            seen.add(name)

    @property
    def service_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.services)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AuditSchema":
        expect(data, "object", "audit config")
        services = expect(required(data, "services", "audit config"), "object[]", "services")
        groups = expect(data.get("groups", {}), "object", "groups")
        pairs = expect(data.get("pairs", []), "object[]", "pairs")

        def text(item: Mapping[str, Any], key: str, owner: str) -> str:
            return expect(required(item, key, owner), "string", f"{owner}.{key}")

        return cls(
            services=tuple(
                (text(s, "name", f"services[{i}]"), text(s, "column", f"services[{i}]"))
                for i, s in enumerate(services)
            ),
            observed_column=expect(required(data, "observed", "audit config"), "string",
                                   "observed"),
            group_columns={
                attr: expect(column, "string", f"groups.{attr}") for attr, column in groups.items()
            },
            pairs=tuple(
                GroupPair(*(text(p, key, f"pairs[{i}]") for key in ("name", "group1", "group0")))
                for i, p in enumerate(pairs)
            ),
            id_column=expect(data.get("id", "id"), "string", "id"),
        )


@dataclass(frozen=True)
class AuditDataset:
    """Validated audit records. It is built from each household's re-entry
    probabilities per service and holds their utilities u = 1 - p, computed
    once into a new read-only matrix, stored service-major (Fortran order);
    the probabilities themselves are not kept."""

    probabilities: InitVar[np.ndarray]
    observed: np.ndarray  # 1-based service indices
    groups: Mapping[str, np.ndarray]
    service_names: tuple[str, ...]
    utilities: np.ndarray = field(init=False)

    def __post_init__(self, probabilities):
        # a new array: the caller's probabilities are never written
        u = _freeze(np.subtract(1.0, np.asarray(probabilities, dtype=np.float64), order="F"))
        if not np.all(np.isfinite(u)):
            # a NaN would have no best service
            raise InputError("probabilities must be finite")
        _check_service_names(self.service_names, u.shape[1])
        observed = _frozen_array(self.observed, np.int64)
        n, k = u.shape
        if observed.shape != (n,) or not np.all((observed >= 1) & (observed <= k)):
            raise InputError(f"observed must hold one service index in 1..{k} "
                             f"for each of the {n} households")
        object.__setattr__(self, "utilities", u)
        object.__setattr__(self, "observed", observed)
        groups = {name: _frozen_array(vals, np.int8) for name, vals in dict(self.groups).items()}
        object.__setattr__(self, "groups", groups)

    @property
    def n(self) -> int:
        return self.utilities.shape[0]

    @property
    def k(self) -> int:
        return self.utilities.shape[1]

    def population(self) -> Population:
        # the read-only utilities are shared, not copied
        return Population._adopt(self.utilities, self.groups)


def eval_group_expr(expr: str, columns: Mapping[str, np.ndarray]) -> np.ndarray:
    """Evaluate a boolean expression over 0/1 columns; returns a bool mask.

    Raises:
        InputError: naming ``expr`` if it is not an expression of names and
            the operators ``&``, ``|`` and ``~``, or is nested too deeply
            to parse or evaluate.
        SchemaMismatchError: if it names an attribute ``columns`` lacks.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    # Python 3.11 reports a NUL byte in the source as a ValueError
    except (SyntaxError, ValueError) as exc:
        raise InputError(f"invalid group expression {expr!r}: {exc}") from None
    except (RecursionError, MemoryError):
        raise InputError(f"group expression {expr!r} is nested too deeply") from None

    def walk(node) -> np.ndarray:
        if isinstance(node, ast.Name):
            if node.id not in columns:
                raise SchemaMismatchError(
                    f"schema-mismatch: unknown attribute {node.id!r} in expression {expr!r}"
                )
            return columns[node.id].astype(bool)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert):
            return ~walk(node.operand)
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitAnd, ast.BitOr)):
            left, right = walk(node.left), walk(node.right)
            return left & right if isinstance(node.op, ast.BitAnd) else left | right
        raise InputError(f"unsupported syntax in group expression {expr!r}")

    try:
        return walk(tree.body)
    except RecursionError:
        raise InputError(f"group expression {expr!r} is nested too deeply") from None


def ingest_csv(path: str, schema: AuditSchema, delimiter: str = ",") -> AuditDataset:
    """Read an audit CSV under the rules of ``_io.read_csv``: probabilities
    in [0, 1], observed service names, 0/1 group columns and unique ids.
    The ids are checked and then dropped: the report never reads them."""
    columns = CsvColumns(
        floats=[col for _, col in schema.services],
        bounds=(0.0, 1.0),
        flags=list(schema.group_columns.values()),
        label=schema.observed_column,
        labels=schema.service_names,
        id=schema.id_column,
    )
    _, probabilities, flags, observed = read_csv(path, lambda header: columns, delimiter)
    return AuditDataset(
        probabilities=probabilities,
        observed=observed + 1,
        groups={attr: flags[col] for attr, col in schema.group_columns.items()},
        service_names=schema.service_names,
    )


@dataclass(frozen=True)
class ShareRow:
    """Fraction of a group whose highest utility sits at each service."""

    label: str
    count: int
    shares: tuple[float, ...]

    def to_dict(self, service_names: Sequence[str]) -> dict[str, Any]:
        out: dict[str, Any] = {"group": self.label, "count": self.count}
        out.update({name: share for name, share in zip(service_names, self.shares)})
        return out


def _shares_for_mask(best: np.ndarray, k: int, mask: np.ndarray, label: str) -> ShareRow:
    """The share row of the households in ``mask``, from ``best``, the
    0-based first-best service of every household of the dataset."""
    chosen = best[mask]
    count = chosen.size
    if count == 0:
        raise EmptyGroupError(f"empty-group: {label}")
    counts = np.bincount(chosen, minlength=k)
    return ShareRow(label=label, count=count, shares=tuple(float(c) / count for c in counts))


@dataclass(frozen=True)
class DeltaUAnalysis:
    """Group comparison of the per-household max utility gain."""

    mean_0: float
    mean_1: float
    welch: TTestResult
    kde_0: KdeCurve
    kde_1: KdeCurve

    def to_dict(self) -> dict[str, Any]:
        return {
            "mean_delta_u": [self.mean_0, self.mean_1],
            "welch": self.welch.to_dict(),
            "kde": [
                {
                    "grid": curve.grid.tolist(),
                    "density": curve.density.tolist(),
                    "bandwidth": curve.bandwidth,
                }
                for curve in (self.kde_0, self.kde_1)
            ],
        }


def _pair_masks(dataset: AuditDataset, pair: GroupPair) -> tuple[np.ndarray, np.ndarray]:
    mask1 = eval_group_expr(pair.group1, dataset.groups)
    mask0 = eval_group_expr(pair.group0, dataset.groups)
    if np.any(mask0 & mask1):
        raise InputError(f"pair {pair.name!r}: group expressions overlap")
    for value, mask in ((0, mask0), (1, mask1)):
        if not mask.any():
            raise EmptyGroupError(f"empty-group: pair {pair.name!r} group {value}")
    return mask0, mask1


def _delta_u_for_masks(
    delta_u: np.ndarray, mask0: np.ndarray, mask1: np.ndarray, bandwidth: float
) -> tuple[tuple[float, float], float, float, TTestResult]:
    """A pair's KDE grid ends, its two groups' mean max gains and their
    Welch test: everything of its ``DeltaUAnalysis`` but the curves."""
    du0, du1 = delta_u[mask0], delta_u[mask1]
    padding = _GRID_PADDING * bandwidth
    # Python floats overflow to inf quietly, whatever numpy's error state
    lo = float(min(du0.min(), du1.min())) - padding
    hi = float(max(du0.max(), du1.max())) + padding
    if not np.isfinite(hi - lo):
        raise InputError(f"bandwidth {bandwidth!r} is out of range for these samples: "
                         "the KDE grid is not finite")
    return (lo, hi), float(np.mean(du0)), float(np.mean(du1)), welch_t(du1, du0)


def _kde_by_grid(
    delta_u: np.ndarray, members: Sequence[np.ndarray], bounds: Sequence[tuple[float, float]],
    bandwidth: float,
) -> list[KdeCurve]:
    """The KDE curve of each group, from one kernel pass per distinct grid.

    ``members`` holds each group's ``np.packbits`` mask over the households
    and ``bounds`` the ends of its grid. A grid's samples are the max gains
    of the households its groups hold, each once, in the order of the first
    group that holds it: a group whose households were all new there is one
    run of columns in household order, and any other group's columns are
    gathered. A grid that one pair alone uses is thus [group 0 | group 1].
    """
    n = delta_u.size
    by_grid: dict[tuple[float, float], list[int]] = {}
    for g, ends in enumerate(bounds):
        by_grid.setdefault(ends, []).append(g)
    curves = [None] * len(members)
    for (lo, hi), groups in by_grid.items():
        seen = np.zeros(n, dtype=bool)
        runs, columns, start = [], [], 0
        for g in groups:
            mask = np.unpackbits(members[g], count=n).view(bool)
            new = mask & ~seen
            runs.append(np.flatnonzero(new))
            size = runs[-1].size
            columns.append(slice(start, start + size) if size == np.count_nonzero(mask) else None)
            seen |= new
            start += size
        order = np.concatenate(runs)
        del runs, seen
        if None in columns:
            column_of = np.empty(n, dtype=np.intp)
            column_of[order] = np.arange(order.size)
            for i, g in enumerate(groups):
                if columns[i] is None:
                    mask = np.unpackbits(members[g], count=n).view(bool)
                    columns[i] = column_of[mask]
            del column_of
        grid = _freeze(np.linspace(lo, hi, _GRID_SIZE))
        for g, curve in zip(groups, kde_curves(delta_u[order], bandwidth, grid, columns)):
            curves[g] = curve
    return curves


def trade_off_flags(report: FairnessReport, tolerance: float) -> tuple[str, ...]:
    """Flags for metric disagreements about which group is favored.

    ``tolerance`` declares a delta "fair" when its magnitude is at most that
    value; disagreement between the worst-baseline and best-baseline metric
    of the same normalization raises a trade-off flag.
    """
    flags = []
    deltas = report.deltas
    for a, b in (("improvement", "regret"), ("gain", "shortfall")):
        d_a, d_b = deltas[a], deltas[b]
        if d_a is None:  # multiplicative metrics undefined
            continue
        name_b = "equitability" if b == "shortfall" else b  # the flags' word for shortfall
        fair_a, fair_b = abs(d_a) <= tolerance, abs(d_b) <= tolerance
        if fair_a and not fair_b:
            flags.append(f"{a}-fair-{name_b}-unfair")
        elif fair_b and not fair_a:
            flags.append(f"{name_b}-fair-{a}-unfair")
        elif not fair_a and not fair_b and favored_group(a, d_a) != favored_group(b, d_b):
            flags.append(f"{a}-{name_b}-trade-off")
    return tuple(flags)


@dataclass(frozen=True)
class ObservedAudit:
    """Fairness verdicts of the observed assignment for one group pair."""

    report: FairnessReport
    flags: tuple[str, ...]
    tolerance: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "fairness": self.report.to_dict(),
            "flags": list(self.flags),
            "fair_tolerance": self.tolerance,
        }


def _observed_for_masks(
    rows: np.ndarray,
    positive: np.ndarray,
    pair: GroupPair,
    mask0: np.ndarray,
    mask1: np.ndarray,
    fair_tolerance: float,
) -> ObservedAudit:
    """The pair's verdicts from the dataset's (5, 1, N) ``_metric_block``
    rows of the observed assignment: the report ``delta_metrics`` gives on
    the pair's own households, whose gain and shortfall are defined when
    their utilities are all > 0 (``positive`` per household)."""
    defined = bool(positive[mask0 | mask1].all())
    members = (np.flatnonzero(mask0), np.flatnonzero(mask1))
    report = _fairness_report(pair.name, rows, defined, members)
    return ObservedAudit(
        report=report, flags=trade_off_flags(report, fair_tolerance), tolerance=fair_tolerance
    )


@dataclass(frozen=True)
class PairAudit:
    pair: GroupPair
    n_0: int
    n_1: int
    shares: tuple[ShareRow, ShareRow]
    delta_u: DeltaUAnalysis
    observed: ObservedAudit


@dataclass(frozen=True)
class AuditReport:
    """Full audit bundle: overall shares plus every configured pair."""

    service_names: tuple[str, ...]
    n: int
    overall_shares: ShareRow
    pairs: tuple[PairAudit, ...]
    bandwidth: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "services": list(self.service_names),
            "households": self.n,
            "bandwidth": self.bandwidth,
            "overall_best_service_shares": self.overall_shares.to_dict(self.service_names),
            "pairs": {
                p.pair.name: {
                    "group0": p.pair.group0,
                    "group1": p.pair.group1,
                    "sizes": [p.n_0, p.n_1],
                    "best_service_shares": [r.to_dict(self.service_names) for r in p.shares],
                    "delta_u": p.delta_u.to_dict(),
                    "observed": p.observed.to_dict(),
                }
                for p in self.pairs
            },
        }


def check_audit_options(bandwidth: float, fair_tolerance: float) -> None:
    """Check the KDE bandwidth and the fairness verdicts' tolerance.

    Raises:
        InputError: if ``bandwidth`` is not finite and > 0, or
            ``fair_tolerance`` is not finite and >= 0.
    """
    if not (np.isfinite(bandwidth) and bandwidth > 0):
        raise InputError(f"bandwidth must be finite and > 0, got {bandwidth!r}")
    if not (np.isfinite(fair_tolerance) and fair_tolerance >= 0):
        raise InputError(f"fair_tolerance must be finite and >= 0, got {fair_tolerance!r}")


def run_audit(
    dataset: AuditDataset,
    schema: AuditSchema,
    bandwidth: float = DEFAULT_BANDWIDTH,
    fair_tolerance: float = DEFAULT_FAIR_TOLERANCE,
) -> AuditReport:
    """Run every configured pair analysis over the dataset.

    Each per-household quantity is computed once, over the whole dataset:
    the envelope and max gains, the first-best services, and the metric
    rows of the observed assignment. A pair then reads its households' own
    entries, so its shares, KDE curves and report are those of its own
    sub-population, bit for bit.

    The KDE curves come last, once every pair's other checks have passed
    and the metric rows, first-best services and envelope are dropped: one
    kernel pass per distinct grid serves every pair whose pooled max gains
    span the same grid (see ``_kde_by_grid``).

    Raises:
        InputError: as ``check_audit_options`` does, or if the bandwidth is
            out of range for a pair's max gains: its KDE grid or kernel
            density overflows.
    """
    check_audit_options(bandwidth, fair_tolerance)
    env, rows, _ = _population_rows(dataset.population(), Allocation._adopt(dataset.observed))
    delta_u = env.delta_u
    best = _first_best(dataset.utilities)
    positive = env.u_min > 0.0
    measured, members, bounds = [], [], []
    for pair in schema.pairs:
        mask0, mask1 = _pair_masks(dataset, pair)
        shares = (
            _shares_for_mask(best, dataset.k, mask0, f"{pair.name}:0"),
            _shares_for_mask(best, dataset.k, mask1, f"{pair.name}:1"),
        )
        ends, *summary = _delta_u_for_masks(delta_u, mask0, mask1, bandwidth)
        observed = _observed_for_masks(rows, positive, pair, mask0, mask1, fair_tolerance)
        measured.append((pair, int(mask0.sum()), int(mask1.sum()), shares, summary, observed))
        members += [np.packbits(mask0), np.packbits(mask1)]
        bounds += [ends, ends]
    overall_shares = _shares_for_mask(best, dataset.k, np.ones(dataset.n, dtype=bool), "all")
    # the kernels' buffers reuse this memory
    del env, rows, best, positive
    curves = _kde_by_grid(delta_u, members, bounds, bandwidth)
    pairs = tuple(
        PairAudit(
            pair=pair,
            n_0=n_0,
            n_1=n_1,
            shares=shares,
            delta_u=DeltaUAnalysis(mean_0, mean_1, welch, curves[2 * p], curves[2 * p + 1]),
            observed=observed,
        )
        for p, (pair, n_0, n_1, shares, (mean_0, mean_1, welch), observed) in enumerate(measured)
    )
    return AuditReport(
        service_names=dataset.service_names,
        n=dataset.n,
        overall_shares=overall_shares,
        pairs=pairs,
        bandwidth=bandwidth,
    )


def write_report_bundle(report: AuditReport, outdir: str) -> list[str]:
    """Write report.json, shares.csv and per-pair KDE CSVs; returns the paths."""
    from pathlib import Path

    outdir_path = Path(outdir)
    written = []

    json_path = outdir_path / "report.json"
    write_text_atomic(json_path, dump_json(report.to_dict()))
    written.append(str(json_path))

    share_rows = [("all", report.overall_shares)] + [
        (p.pair.name, row) for p in report.pairs for row in p.shares
    ]
    rows = [("pair", "group", "count", *report.service_names)]
    rows += [(pair_name, row.label, row.count, *(repr(float(s)) for s in row.shares))
             for pair_name, row in share_rows]
    shares_path = outdir_path / "shares.csv"
    write_text_atomic(shares_path, csv_text(rows))
    written.append(str(shares_path))

    for p in report.pairs:
        for value, curve in ((0, p.delta_u.kde_0), (1, p.delta_u.kde_1)):
            bandwidth = repr(curve.bandwidth)
            rows = [("grid", "density", "bandwidth")]
            rows += [(repr(g), repr(d), bandwidth)
                     for g, d in zip(curve.grid.tolist(), curve.density.tolist())]
            path = outdir_path / f"kde_{p.pair.name}_{value}.csv"
            write_text_atomic(path, csv_text(rows))
            written.append(str(path))
    return written
