"""Command-line interface: simulate experiments, solve allocation instances,
audit datasets, and run the theory verification suite.

Exit codes: 0 success, 1 failed verification check, 2 invalid input (also
inputs so large or small that a float64 result overflows, divides by zero or
is undefined), 3 infeasible capacities, 4 internal error (a broken internal
invariant, such as the additive identity; reported as one line on stderr, no
traceback).
All randomness flows from --seed (default 0); repeated invocations with
identical flags produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

import numpy as np

from ._io import CsvColumns, csv_text, dump_json, load_json, read_csv, write_text_atomic
from .audit import (
    DEFAULT_BANDWIDTH,
    DEFAULT_FAIR_TOLERANCE,
    AuditSchema,
    ingest_csv,
    run_audit,
    write_report_bundle,
)
from .core import CapacityVector, Population, delta_metrics
from .errors import FairallocError, InfeasibleError, SchemaMismatchError
from .policies import (
    DEFAULT_TIE_BREAK_SCALE,
    KIND_BEST,
    KIND_RANDOM,
    KIND_UTILITARIAN,
    KIND_WORST,
    PolicySpec,
    apply_policy,
)
from .simulate import load_experiment_config, run_experiment, run_invariant_checks

_POLICY_ALIASES = {
    "random": KIND_RANDOM,
    "utilitarian": KIND_UTILITARIAN,
    "best": KIND_BEST,
    "worst": KIND_WORST,
}

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL_ERROR = 4


def _thread_count(requested: int) -> int:
    cap = os.environ.get("FAIRALLOC_THREADS")
    if cap is not None:
        try:
            return max(1, min(requested, int(cap)))
        except ValueError:
            pass
    return max(1, requested)


def load_population_csv(path: str) -> tuple[list[str], Population]:
    """Read a population CSV: ``id``, utility columns ``u_1..u_K`` and any
    number of 0/1 group columns, under the rules of ``_io.read_csv``. Without
    an ``id`` column, rows are numbered from 1.
    """

    def columns(header: list[str]) -> CsvColumns:
        util_cols = [c for c in header if re.fullmatch(r"u_\d+", c)]
        util_cols.sort(key=lambda c: int(c[2:]))
        if not util_cols:
            raise SchemaMismatchError("schema-mismatch: no u_<k> utility columns found")
        return CsvColumns(
            floats=util_cols,
            flags=[c for c in header if c != "id" and c not in util_cols],
            id="id" if "id" in header else None,
        )

    ids, utilities, groups, _ = read_csv(path, columns)
    return ids, Population(utilities=utilities, groups=groups)


def cmd_simulate(args) -> int:
    config = load_experiment_config(args.params)
    policy = config.policy
    if args.policy is not None:
        policy = PolicySpec(_POLICY_ALIASES[args.policy])
    replications = args.reps if args.reps is not None else config.replications
    seed = args.seed if args.seed is not None else config.base_seed
    result = run_experiment(
        config.params,
        policy,
        replications,
        seed,
        threads=_thread_count(args.threads),
    )

    outdir = Path(args.output_dir)
    payload = result.to_dict()
    payload["params"] = args.params
    write_text_atomic(outdir / "result.json", dump_json(payload))
    rows = [("metric", "estimate", "ci95_half_width", "replications")]
    for name, est in list(result.metrics.items()) + list(result.aux.items()):
        if est is None:
            rows.append((name, "", "", 0))
        else:
            rows.append((name, repr(est.estimate), repr(est.ci_half_width), est.replications))
    write_text_atomic(outdir / "metrics.csv", csv_text(rows))
    print(f"wrote {outdir / 'result.json'} and {outdir / 'metrics.csv'}")
    return EXIT_OK


def cmd_solve(args) -> int:
    ids, pop = load_population_csv(args.population)
    caps = CapacityVector([int(x) for x in args.capacities.split(",")])
    spec = PolicySpec(
        _POLICY_ALIASES[args.policy],
        tie_break_scale=args.tie_break_scale,
    )
    alloc = apply_policy(spec, pop, caps, seed=args.seed)

    # both payloads are built before either file is written, so a failure
    # leaves no partial output
    allocation = csv_text([("id", "service"), *zip(ids, alloc.assignment.tolist())])
    total = float(alloc.realized(pop).sum())
    reports = {}
    for attribute in pop.groups:
        values = pop.groups[attribute]
        if 0 in values and 1 in values:
            reports[attribute] = delta_metrics(pop, alloc, attribute).to_dict()
    payload = {
        "policy": spec.describe(),
        "seed": args.seed,
        "total_utility": total,
        "fairness": reports,
    }
    report = dump_json(payload)
    outdir = Path(args.output_dir)
    write_text_atomic(outdir / "allocation.csv", allocation)
    write_text_atomic(outdir / "fairness_report.json", report)
    print(f"total utility {total!r}; wrote {outdir / 'allocation.csv'}")
    return EXIT_OK


def cmd_audit(args) -> int:
    schema = AuditSchema.from_dict(load_json(args.config))
    dataset = ingest_csv(args.data, schema, delimiter=args.delimiter)
    report = run_audit(
        dataset, schema, bandwidth=args.bandwidth, fair_tolerance=args.fair_tolerance
    )
    written = write_report_bundle(report, args.output_dir)
    flagged = {p.pair.name: list(p.observed.flags) for p in report.pairs if p.observed.flags}
    print(f"wrote {len(written)} files to {args.output_dir}")
    for name, flags in flagged.items():
        print(f"{name}: {', '.join(flags)}")
    return EXIT_OK


def cmd_check(args) -> int:
    outcomes = run_invariant_checks(base_seed=args.seed if args.seed is not None else 7)
    failed = 0
    for outcome in outcomes:
        status = "PASS" if outcome.passed else "FAIL"
        print(f"[{status}] {outcome.name}: {outcome.detail}")
        failed += 0 if outcome.passed else 1
    print(f"{len(outcomes) - failed}/{len(outcomes)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairalloc",
        description="Capacitated allocation with group-fairness metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a replicated experiment from a params file")
    p_sim.add_argument("--params", required=True, help="params JSON path or preset name "
                       "(experiment1, experiment2)")
    p_sim.add_argument("--policy", choices=sorted(_POLICY_ALIASES), default=None,
                       help="override the config's policy")
    p_sim.add_argument("--reps", type=int, default=None, help="override replication count")
    p_sim.add_argument("--seed", type=int, default=None, help="override base seed")
    p_sim.add_argument("--threads", type=int, default=1)
    p_sim.add_argument("--output-dir", default="out")
    p_sim.set_defaults(func=cmd_simulate)

    p_solve = sub.add_parser("solve", help="allocate a population CSV under capacities")
    p_solve.add_argument("--population", required=True)
    p_solve.add_argument("--capacities", required=True, help="comma-separated integers")
    p_solve.add_argument("--policy", choices=sorted(_POLICY_ALIASES), default="utilitarian")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--tie-break-scale", type=float, default=DEFAULT_TIE_BREAK_SCALE)
    p_solve.add_argument("--output-dir", default="out")
    p_solve.set_defaults(func=cmd_solve)

    p_audit = sub.add_parser("audit", help="audit an allocation dataset CSV")
    p_audit.add_argument("--data", required=True)
    p_audit.add_argument("--config", required=True,
                         help="schema/groups JSON path or preset name 'homeless'")
    p_audit.add_argument("--bandwidth", type=float, default=DEFAULT_BANDWIDTH)
    p_audit.add_argument("--fair-tolerance", type=float, default=DEFAULT_FAIR_TOLERANCE)
    p_audit.add_argument("--delimiter", default=",")
    p_audit.add_argument("--output-dir", default="out")
    p_audit.set_defaults(func=cmd_audit)

    p_check = sub.add_parser("check", help="run the empirical theory verification suite")
    p_check.add_argument("--seed", type=int, default=None)
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # an inf or NaN result would be written as a number; fail instead
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return args.func(args)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (FairallocError, ValueError, OSError, KeyError, FloatingPointError,
            OverflowError) as exc:  # a json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
