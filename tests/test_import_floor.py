"""What importing the package and solving load, checked in fresh
interpreters: ``scipy.optimize`` and ``scipy.sparse`` stay unloaded on
import, and a tie-heavy solve resolves its ties without loading them. (The
other test modules import ``scipy.optimize`` themselves, so only a separate
process can see what the package alone loads.)"""

import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import fairalloc
from tie_oracle import utilitarian_oracle

LAZY = ("scipy.optimize", "scipy.sparse")


def run_python(code: str, *argv: str) -> str:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(fairalloc.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("module", ["fairalloc", "fairalloc.cli"])
def test_import_leaves_lp_modules_unloaded(module):
    out = run_python(
        f"import sys, {module}\n"
        f"print(*[m for m in {LAZY!r} if m in sys.modules])"
    )
    assert out.split() == []


def test_tie_heavy_solve_loads_no_lp_modules(tmp_path):
    # K=13 ties, past the 2^K Hall tables' reach: the residual walk needs no
    # LP; the oracle's Hall tables, with the cut-off raised to 13, give the
    # assignment on the solver's arcs
    rng = np.random.default_rng(2)
    n, k = 40, 13
    utilities = rng.integers(0, 3, (n, k)) / 2.0
    caps = [4] * k
    path = tmp_path / "pop.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", *[f"u_{j + 1}" for j in range(k)]])
        writer.writerows([f"p{i}", *map(repr, row)] for i, row in enumerate(utilities.tolist()))
    out = tmp_path / "out"
    stdout = run_python(
        "import sys\n"
        "from fairalloc.cli import main\n"
        "code = main(sys.argv[1:])\n"
        f"print(code, *[m in sys.modules for m in {LAZY!r}])",
        "solve", "--population", str(path), "--capacities", ",".join(map(str, caps)),
        "--output-dir", str(out),
    )
    assert stdout.splitlines()[-1] == "0 False False"
    with open(out / "allocation.csv", newline="") as fh:
        solved = [int(row["service"]) for row in csv.DictReader(fh)]
    assert solved == utilitarian_oracle(utilities, caps, max_subset_k=k).tolist()
