"""Layered end-to-end benchmark of the ``fairalloc`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The seed builds the workload's
inputs before anything is timed. Then, for about S seconds, each timed sample
is a fresh Python process (``child.py``) that imports ``fairalloc.cli`` and
calls ``fairalloc.cli.main`` once, serially, with every thread pool pinned to
one thread. Every sample's output files are checked. With ``--trace 0`` the
last stdout line holds the end-to-end metrics (medians over the samples;
times are process CPU time scaled by a reference workload, see README);
with ``--trace 1`` untraced and traced samples alternate, and it holds the
per-layer metrics of the traced ones. A full record, with provenance, goes
to ``.perfbench_out/`` in the checkout. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from inputs import write_audit_csv, write_tie_population
from tracing import PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 0
# CPU seconds of both child.reference_cpu_s calls when the benchmark machine
# (2-vCPU Intel Xeon VM) ran fastest; times are scaled to that machine speed.
REFERENCE_CPU_S = 0.24
RUN_LIMIT_S = 170  # a run, samples and checks included, must end within this
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

# Sizes per scale: "full" is the benchmark, "tiny" is for the smoke test.
# "throughput" names what items_per_s counts on the workload.
WORKLOADS = {
    "sim-utilitarian": {"preset": "experiment2", "policy": "utilitarian",
                        "reps": {"full": 3, "tiny": 2}, "throughput": "reps_per_s"},
    "sim-random": {"preset": "experiment1", "policy": "random",
                   "reps": {"full": 400, "tiny": 2}, "throughput": "reps_per_s"},
    "solve-ties": {"n": {"full": 100, "tiny": 30}, "k": {"full": 12, "tiny": 6},
                   "throughput": "individuals_per_s"},
    "audit-large": {"rows": {"full": 50_000, "tiny": 2_000}, "throughput": "rows_per_s"},
}
E2E_UNITS = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def sha256_tree(directory: Path) -> dict[str, str]:
    return {
        p.relative_to(directory).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


# --- workloads: inputs, CLI arguments and output invariants -----------------


def prepare_simulate(spec: dict, seed: int, scale: str, work: Path) -> dict:
    reps = spec["reps"][scale]

    def argv(outdir: Path) -> list[str]:
        return ["simulate", "--params", spec["preset"], "--reps", str(reps),
                "--seed", str(seed), "--threads", "1", "--output-dir", str(outdir)]

    def check(outdir: Path) -> list[str]:
        res = json.loads((outdir / "result.json").read_text())
        errors = []
        if res["replications"] != reps:
            errors.append(f"replications {res['replications']} != {reps}")
        if res["policy"] != spec["policy"] or res["params"] != spec["preset"]:
            errors.append(f"policy/params {res['policy']}/{res['params']} not as requested")
        m, aux = res["metrics"], res["aux"]
        residual = (m["delta_improvement"]["estimate"] + m["delta_regret"]["estimate"]
                    - aux["delta_mean_delta_u"]["estimate"])
        if abs(residual) > 1e-9:
            errors.append(f"additive identity residual {residual!r}")
        rows = (outdir / "metrics.csv").read_text().splitlines()
        if len(rows) != 1 + len(m) + len(aux):
            errors.append(f"metrics.csv has {len(rows)} lines")
        return errors

    return {"argv": argv, "check": check, "items": reps,
            "inputs": [{"preset": spec["preset"], "reps": reps, "seed": seed}]}


def prepare_solve(spec: dict, seed: int, scale: str, work: Path) -> dict:
    n, k = spec["n"][scale], spec["k"][scale]
    path = work / "population.csv"
    record, caps = write_tie_population(str(path), seed, n, k)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    ids = [r[0] for r in rows]
    utilities = np.array([[float(v) for v in r[1:1 + k]] for r in rows])
    group = np.array([int(r[1 + k]) for r in rows])

    def argv(outdir: Path) -> list[str]:
        return ["solve", "--population", str(path), "--capacities", ",".join(map(str, caps)),
                "--policy", "utilitarian", "--seed", str(seed), "--output-dir", str(outdir)]

    def check(outdir: Path) -> list[str]:
        lines = (outdir / "allocation.csv").read_text().splitlines()
        if lines[0] != "id,service" or len(lines) != n + 1:
            return ["allocation.csv header or length"]
        got_ids = [line.split(",")[0] for line in lines[1:]]
        service = np.array([int(line.split(",")[1]) for line in lines[1:]])
        errors = []
        if got_ids != ids:
            errors.append("allocation ids differ from the population")
        if service.min() < 1 or service.max() > k:
            errors.append("service index out of range")
        fill = np.bincount(service - 1, minlength=k)
        if np.any(fill > np.array(caps)):
            errors.append(f"capacities exceeded: {fill.tolist()} > {caps}")
        report = json.loads((outdir / "fairness_report.json").read_text())
        realized = utilities[np.arange(n), np.clip(service, 1, k) - 1]
        if abs(report["total_utility"] - realized.sum()) > 1e-9 * n:
            errors.append("total_utility does not match the allocation")
        du = utilities.max(axis=1) - utilities.min(axis=1)
        fair = report["fairness"]["group"]
        residual = (fair["delta_improvement"] + fair["delta_regret"]
                    - (du[group == 1].mean() - du[group == 0].mean()))
        if abs(residual) > 1e-9:
            errors.append(f"additive identity residual {residual!r}")
        return errors

    return {"argv": argv, "check": check, "items": n, "inputs": [record]}


def prepare_audit(spec: dict, seed: int, scale: str, work: Path) -> dict:
    rows = spec["rows"][scale]
    path = work / "audit.csv"
    record = write_audit_csv(str(path), seed, rows)

    def argv(outdir: Path) -> list[str]:
        return ["audit", "--data", str(path), "--config", "homeless", "--output-dir", str(outdir)]

    def check(outdir: Path) -> list[str]:
        report = json.loads((outdir / "report.json").read_text())
        errors = []
        if report["households"] != rows:
            errors.append(f"households {report['households']} != {rows}")
        for name, pair in report["pairs"].items():
            n0, n1 = pair["sizes"]
            if min(n0, n1) < 1 or n0 + n1 > rows:
                errors.append(f"{name}: group sizes {pair['sizes']}")
            for share in pair["best_service_shares"]:
                if abs(sum(share[s] for s in report["services"]) - 1.0) > 1e-9:
                    errors.append(f"{name}: best-service shares do not sum to 1")
            fair = pair["observed"]["fairness"]
            m0, m1 = pair["delta_u"]["mean_delta_u"]
            residual = fair["delta_improvement"] + fair["delta_regret"] - (m1 - m0)
            if abs(residual) > 1e-9:
                errors.append(f"{name}: additive identity residual {residual!r}")
            for value in (0, 1):
                kde = (outdir / f"kde_{name}_{value}.csv").read_text().splitlines()
                if len(kde) != 513:
                    errors.append(f"{name}: kde file {value} has {len(kde)} lines")
        shares = (outdir / "shares.csv").read_text().splitlines()
        if len(shares) != 2 + 2 * len(report["pairs"]):
            errors.append(f"shares.csv has {len(shares)} lines")
        return errors

    return {"argv": argv, "check": check, "items": rows, "inputs": [record]}


PREPARE = {
    "sim-utilitarian": prepare_simulate,
    "sim-random": prepare_simulate,
    "solve-ties": prepare_solve,
    "audit-large": prepare_audit,
}


# --- sampling ----------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("FAIRALLOC_THREADS", None)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_sample(job: dict, trace: int, work: Path, index: int, spans: Path,
               timeout: float) -> dict:
    """One fresh CLI process; returns its record, output digests and errors."""
    outdir = work / f"out{index}"
    record_path = work / f"record{index}.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(record_path), str(trace), str(spans),
           "--", *job["argv"](outdir)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=work, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:  # the child has been killed and reaped
        return {"trace": trace, "process_s": time.perf_counter() - start, "rc": None,
                "errors": [f"timed out after {timeout:.0f} s"]}
    sample = {"trace": trace, "process_s": time.perf_counter() - start, "rc": proc.returncode}
    errors = []
    if proc.returncode != 0 or not record_path.exists():
        errors.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
    else:
        sample.update(json.loads(record_path.read_text()))
        sample["digests"] = sha256_tree(outdir)
        try:
            errors += job["check"](outdir)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            errors.append(f"output check raised {exc!r}")
        if job["digests"] is not None and sample["digests"] != job["digests"]:
            errors.append("output digests differ from the recorded default-seed digests")
    sample["errors"] = errors
    shutil.rmtree(outdir, ignore_errors=True)
    return sample


def provenance(seed: int) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "fairalloc").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "argv": sys.argv,
        "seed": seed,
        "thread_env": {**THREAD_ENV, "FAIRALLOC_THREADS": None},
    }


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def summarize(samples: list[dict], items: int, trace: int) -> dict[str, dict]:
    good = [s for s in samples if not s["errors"]]
    plain = [s for s in good if s["trace"] == 0]
    if trace == 0:
        # per-sample CPU times at the reference machine speed
        speed = [REFERENCE_CPU_S / s["reference_cpu_s"] for s in plain]
        values = {
            "items_per_s": items / median([s["main_cpu_s"] * k for s, k in zip(plain, speed)]),
            "setup_s": median([s["setup_cpu_s"] * k for s, k in zip(plain, speed)]),
            "peak_rss_mb": median([s["peak_rss_mb"] for s in plain]),
        }
        return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    traced = [s for s in good if s["trace"] == 1]
    metrics = {
        key: {"value": median([s["per_layer"][key] for s in traced]), "unit": unit}
        for key, unit in PER_LAYER_UNITS.items() if key != "trace.overhead_s"
    }
    overhead = median([s["main_wall_s"] for s in traced]) - median([s["main_wall_s"] for s in plain])
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args()
    deadline = time.perf_counter() + RUN_LIMIT_S
    if not (SRC / "fairalloc" / "cli.py").is_file():
        print(f"error: no fairalloc sources under {SRC}", file=sys.stderr)
        return 2

    work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}"
    try:
        job = PREPARE[args.workload](WORKLOADS[args.workload], args.seed, args.scale, work)
        recorded = json.loads((HERE / "digests.json").read_text())
        job["digests"] = (recorded[args.workload]
                          if args.seed == DEFAULT_SEED and args.scale == "full" else None)
        # fill the page cache and compile bytecode before timing
        subprocess.run([sys.executable, "-c", "import fairalloc.cli"], env=child_env(),
                       cwd=work, check=True, timeout=deadline - time.perf_counter())

        samples: list[dict] = []
        kinds = (0, 1) if args.trace else (0,)
        start = time.perf_counter()
        while True:
            for trace in kinds:
                samples.append(run_sample(job, trace, work, len(samples),
                                          OUT / f"{stem}.spans.jsonl",
                                          deadline - time.perf_counter()))
            elapsed = time.perf_counter() - start
            # stop when one more cycle of samples would overrun --seconds
            if elapsed * (1 + 1 / (len(samples) // len(kinds))) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reference = next((s["digests"] for s in samples if "digests" in s and s["trace"] == 0), None)
    for s in samples:
        if "digests" in s and s["digests"] != reference:
            s["errors"].append("outputs differ from the first untraced sample's"
                               + (" (traced run not byte-identical)" if s["trace"] else ""))
    failed = sum(1 for s in samples if s["errors"])
    for s in samples:
        if s["errors"]:
            print(f"failed sample (trace {s['trace']}): {s['errors']}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "scale": args.scale,
        "provenance": provenance(args.seed),
        "inputs": job["inputs"],
        "items": job["items"],
        "items_per_s_is": WORKLOADS[args.workload]["throughput"],
        "fail_frac": failed / len(samples),
        "samples": samples,
    }
    # medians need at least one good sample of each kind
    if not {s["trace"] for s in samples if not s["errors"]}.issuperset(kinds):
        (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        print("error: no sample of some kind passed its checks", file=sys.stderr)
        return 1
    record["result"] = {"correct": failed == 0, "attempted": len(samples), "failed": failed,
                        "metrics": summarize(samples, job["items"], args.trace)}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
