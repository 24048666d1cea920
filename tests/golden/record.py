"""Golden output corpus of the ``fairalloc`` CLI: the calls, how they run,
and the sha256 digest of every file they read and write.

``tests/test_golden.py`` runs the calls and compares their files with
``digests.json``. After a change that is meant to alter output bytes, or
under a new numpy/scipy pair, re-record the digests on purpose and say so in
the change's notes:

    PYTHONPATH=src python tests/golden/record.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import scipy

GOLDEN = Path(__file__).resolve().parent
INPUTS = GOLDEN / "inputs"
DIGESTS = GOLDEN / "digests.json"

sys.path.insert(0, str(GOLDEN.parent))  # the tests' seeded audit-data builder
from conftest import write_synthetic_csv  # noqa: E402

from fairalloc.cli import main  # noqa: E402

_SIM = ("simulate", "--params")
_SOLVE = ("solve", "--population", "population.csv", "--capacities", "4,4,4,4")
_AUDIT = ("audit", "--data", "audit.csv", "--config", "audit_schema.json", "--delimiter", ";")

# call name -> argv; each call writes into its own directory named after it
CALLS: dict[str, tuple[str, ...]] = {
    "sim-mixture": (*_SIM, "mixture.json"),
    "sim-best": (*_SIM, "mixture.json", "--policy", "best"),
    "sim-worst": (*_SIM, "mixture.json", "--policy", "worst"),
    "sim-random": (*_SIM, "mixture.json", "--policy", "random", "--seed", "9", "--reps", "4"),
    "sim-utilitarian": (*_SIM, "mixture.json", "--policy", "utilitarian"),
    # some replications draw a utility <= 0: gain and shortfall skip them
    "sim-signed": (*_SIM, "signed.json"),
    "sim-sf1": (*_SIM, "sf1.json"),
    "sim-sf2": (*_SIM, "sf2.json"),
    "sim-experiment1": (*_SIM, "experiment1", "--reps", "2"),
    "sim-experiment2": (*_SIM, "experiment2", "--reps", "2"),
    # replication counts that end in a partial block of the replication loop
    "sim-experiment1-blocks": (*_SIM, "experiment1", "--reps", "37", "--seed", "5"),
    "sim-sf2-blocks": (*_SIM, "sf2.json", "--reps", "23"),
    "solve-utilitarian": _SOLVE,
    "solve-random": (*_SOLVE, "--policy", "random", "--seed", "3"),
    "solve-best": (*_SOLVE, "--policy", "best"),
    "solve-worst": (*_SOLVE, "--policy", "worst"),
    # non-positive utilities: no gain or shortfall
    "solve-signed": ("solve", "--population", "signed.csv", "--capacities", "2,2"),
    "audit-custom": _AUDIT,
    "audit-custom-tuned": (*_AUDIT, "--bandwidth", "0.05", "--fair-tolerance", "0.02"),
    # the paper's audit size, on the shipped schema
    "audit-homeless": ("audit", "--data", "homeless.csv", "--config", "homeless"),
    # 9,000 rows: more than two of the CSV reader's 4,096-row chunks
    "audit-homeless-chunks": ("audit", "--data", "homeless-9000.csv", "--config", "homeless"),
}


def toolchain() -> dict[str, str]:
    """The libraries whose versions the output bytes depend on: normal draws
    go through scipy's ``ndtri``, KDE densities through numpy's SIMD ``exp``."""
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _digests(root: Path) -> dict[str, str]:
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def run_corpus(workdir: Path) -> tuple[dict[str, int], dict[str, str]]:
    """Run every call in ``workdir`` on copies of the inputs; return each
    call's exit code and the digest of every file in ``workdir`` afterwards.
    The calls see relative paths only, so no output holds ``workdir``."""
    shutil.copytree(INPUTS, workdir, dirs_exist_ok=True)
    write_synthetic_csv(workdir / "homeless.csv")
    write_synthetic_csv(workdir / "homeless-9000.csv", n=9000)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = {name: main([*argv, "--output-dir", name]) for name, argv in CALLS.items()}
    finally:
        os.chdir(cwd)
    return codes, _digests(workdir)


def first_difference(recorded: dict[str, str], got: dict[str, str]) -> str | None:
    """The first file, in path order, that is missing, extra or different."""
    for name in sorted(recorded.keys() | got.keys()):
        if recorded.get(name) != got.get(name):
            return name
    return None


def record(workdir: Path) -> None:
    codes, files = run_corpus(workdir)
    failed = {name: code for name, code in codes.items() if code != 0}
    if failed:
        raise SystemExit(f"calls failed, nothing recorded: {failed}")
    payload = {"toolchain": toolchain(), "files": files}
    DIGESTS.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(files)} digests to {DIGESTS}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp))
