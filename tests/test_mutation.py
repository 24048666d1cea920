"""Seeded mutations of the golden inputs, run through ``cli.main`` in-process.

Each case changes one or two JSON leaves or CSV cells of a golden input, or
the value of ``--capacities``, ``--tie-break-scale``, ``--bandwidth`` or
``--fair-tolerance``, and checks the command-line contract: the exit code is
0, 2 (invalid input) or 3 (infeasible), an exit 2 prints exactly one
``error:`` line, which names the option when the case varied one, and a
failed call leaves no output directory behind. The values are drawn from
fixed pools with a fixed seed, so every run tries the same cases. The pools
hold no value that is valid yet makes a call slow or large: ``simulate``
always runs 2 replications, and a population or capacity drawn from them is
either small or refused before any array is sized by it.
"""

import contextlib
import io
import json
import random
import shutil
from pathlib import Path

import pytest

from fairalloc.cli import main

INPUTS = Path(__file__).parent / "golden" / "inputs"
CASES = 150  # per command family

JSON_VALUES = [
    None, True, False, 0, 1, -1, 2, 3, 0.5, -0.5, 1e308, -1e308, 1e-320, float("nan"),
    float("inf"), 2**62, 2**63, -(2**63) - 1, 2**64, 10**400, "", "x", "~x", "a & b", "a | ~b",
    "random", "utilitarian", [], {}, [[]], [1, 2], [0.5, 0.5, 0.5], {"kind": "random"},
]
CSV_VALUES = [
    "nan", "inf", "-inf", "1e400", "1e-320", '"', "0x1", "1_0", "१", "", " ", "-0", "2",
    "-1", "x", "0.5", "1.5", ",", ";", "voucher", "u_9", "id",
]
OPTIONS = {
    "--capacities": [
        "4,4,4,4", "4,4,4", "0,0,0,0", "1,1,1,1", "100,0,0,0", "1e308,4,4,4", "4.5,4,4,4",
        "-1,4,4,4", "9223372036854775807,4,4,4", "9223372036854775808,4,4,4",
        "18446744073709551616,0,0,0", "x", "", "4,,4,4",
    ],
    "--tie-break-scale": ["1e7", "1", "1e-300", "1e300", "0", "-1", "nan", "inf"],
    "--bandwidth": [
        "0.2", "0.05", "1", "1e-150", "1e-160", "5e-324", "1e300", "1e308", "0", "nan",
    ],
    "--fair-tolerance": ["0.02", "0", "0.5", "1e308", "-1", "nan", "inf"],
}
# the word an error about each option holds
OPTION_NAMES = {
    "--capacities": "capacit", "--tie-break-scale": "tie_break_scale",
    "--bandwidth": "bandwidth", "--fair-tolerance": "fair_tolerance",
}
_SOLVE = ["--population", "population.csv", "--capacities=4,4,4,4"]
_AUDIT = ["--data", "audit.csv", "--config", "audit_schema.json", "--delimiter", ";"]
# command -> (argv without --output-dir, the inputs it reads, the options it may vary)
COMMANDS = {
    "simulate": (["simulate", "--params", "mixture.json", "--reps", "2"], ["mixture.json"], []),
    "simulate-sf": (["simulate", "--params", "sf2.json", "--reps", "2"], ["sf2.json"], []),
    "solve": (["solve", *_SOLVE], ["population.csv"], ["--capacities", "--tie-break-scale"]),
    "audit": (["audit", *_AUDIT], ["audit.csv", "audit_schema.json"],
              ["--bandwidth", "--fair-tolerance"]),
}


def leaves(node, path=()):
    """The paths of every leaf and every container element of a JSON value."""
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, value in items:
        yield (*path, key)
        yield from leaves(value, (*path, key))


def mutate_json(text: str, rng: random.Random) -> str:
    data = json.loads(text)
    for _ in range(rng.randint(1, 2)):
        paths = list(leaves(data))
        if not paths:
            break
        *parent_path, key = rng.choice(paths)
        parent = data
        for step in parent_path:
            parent = parent[step]
        if rng.random() < 0.2:
            del parent[key]
        else:
            parent[key] = rng.choice(JSON_VALUES)
    return json.dumps(data)


def mutate_csv(text: str, rng: random.Random, delimiter: str) -> str:
    rows = [line.split(delimiter) for line in text.splitlines()]
    for _ in range(rng.randint(1, 2)):
        row = rng.choice(rows)
        row[rng.randrange(len(row))] = rng.choice(CSV_VALUES)
    return "\n".join(delimiter.join(row) for row in rows) + "\n"


def run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses an option's form
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_mutated_inputs_keep_the_exit_contract(command, tmp_path, monkeypatch):
    argv, inputs, options = COMMANDS[command]
    rng = random.Random(f"fairalloc-mutation-{command}")
    monkeypatch.chdir(tmp_path)
    for case in range(CASES):
        for name in inputs:
            shutil.copy(INPUTS / name, tmp_path / name)
        args, option = list(argv), None
        if options and rng.random() < 0.4:
            option = rng.choice(options)
            what = f"{option}={rng.choice(OPTIONS[option])}"
            args = [a for a in args if not a.startswith(option + "=")] + [what]
        else:
            name = rng.choice(inputs)
            path = tmp_path / name
            text = path.read_text(encoding="utf-8")
            if name.endswith(".json"):
                path.write_text(mutate_json(text, rng), encoding="utf-8")
            else:
                path.write_text(mutate_csv(text, rng, ";" if name == "audit.csv" else ","),
                                encoding="utf-8")
            what = f"{name}: {path.read_text(encoding='utf-8')}"
        out = tmp_path / f"out{case}"
        code, err = run([*args, "--output-dir", str(out)])
        context = f"case {case}, exit {code}, {what}, stderr {err!r}"
        assert code in (0, 2, 3), context
        if code:
            assert not out.exists(), context
        if code == 2:
            assert sum("error:" in line for line in err.splitlines()) == 1, context
            assert option is None or OPTION_NAMES[option] in err, context
        assert "Traceback" not in err, context
