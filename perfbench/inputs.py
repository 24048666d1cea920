"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and size: the same arguments
give byte-identical files. Only numpy is used, so building inputs never
imports the package under test.
"""

from __future__ import annotations

import os

import numpy as np

AUDIT_SERVICES = ("TH", "RRH", "ES")
AUDIT_GROUPS = (
    "disability", "children", "single_female", "age_lt_25", "female", "black", "white",
)


def _write_lines(path: str, lines: list[str]) -> dict:
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return {"file": os.path.basename(path), "rows": len(lines) - 1, "bytes": os.path.getsize(path)}


def write_tie_population(path: str, seed: int, n: int, k: int) -> tuple[dict, list[int]]:
    """Population CSV in which the utilitarian optimum is one large tie.

    Every fourth individual in the first half is "picky": best off in
    service 1 only, so it is forced there. Everyone else is indifferent
    between all ``k`` services. Utilities take a few levels drawn from the
    seed, but the tie pattern and the capacities are fixed, so the
    tie-resolution work does not depend on the seed: each indifferent
    individual is probed, and while service 1 is held for the picky ones
    still to come, the indifferent individuals' probes there are rejected.
    Returns the input record and the capacities.
    """
    rng = np.random.default_rng([seed, 1])
    level = rng.integers(2, 5, size=n) / 4.0
    utilities = np.repeat(level[:, None], k, axis=1)
    index = np.arange(n)
    picky = (index % 4 == 3) & (index < n // 2)
    utilities[picky, 1:] -= 0.25
    group = rng.permutation(index % 2)
    n_picky = int(picky.sum())
    caps = [n_picky + 3] + [-(-(n - n_picky) // (k - 1))] * (k - 1)
    header = ["id"] + [f"u_{j + 1}" for j in range(k)] + ["group"]
    lines = [",".join(header)]
    for i in range(n):
        row = [f"p{i + 1}"] + [repr(float(u)) for u in utilities[i]] + [str(group[i])]
        lines.append(",".join(row))
    return _write_lines(path, lines), caps


def write_audit_csv(path: str, seed: int, n: int) -> dict:
    """Audit CSV for the shipped ``homeless`` schema.

    Follows the synthetic-household construction of the test fixtures: each
    household's utilities are (u_min, u_min + d/2, u_min + d) with the best
    service drawn at the fixture's 0.68 / 0.27 / 0.05 shares and d around
    0.07 (0.04 with children); columns hold p = 1 - u.
    """
    rng = np.random.default_rng([seed, 2])
    best = rng.choice(3, size=n, p=[0.68, 0.27, 0.05])
    children = (rng.random(n) < 0.4).astype(np.int8)
    du = np.where(children == 1, 0.04, 0.07) + rng.uniform(-0.008, 0.008, n)
    u_min = 0.5 + rng.uniform(0.0, 0.05, n)
    utilities = np.empty((n, 3))
    rows = np.arange(n)
    utilities[rows, best] = u_min + du
    utilities[rows, (best + 1) % 3] = u_min + du / 2.0
    utilities[rows, (best + 2) % 3] = u_min
    probabilities = 1.0 - utilities
    observed = rng.choice(3, size=n, p=[0.45, 0.35, 0.2])

    female = rng.random(n) < 0.55
    black = rng.random(n) < 0.5
    groups = {
        "disability": rng.random(n) < 0.35,
        "children": children == 1,
        "single_female": (rng.random(n) < 0.6) & female,
        "age_lt_25": rng.random(n) < 0.25,
        "female": female,
        "black": black,
        "white": (rng.random(n) < 0.85) & ~black,
    }
    header = ["id"] + [f"p_{s}" for s in AUDIT_SERVICES] + ["observed"] + list(AUDIT_GROUPS)
    lines = [",".join(header)]
    flags = np.column_stack([groups[g] for g in AUDIT_GROUPS]).astype(int)
    for i in range(n):
        lines.append(",".join(
            [f"h{i + 1}"]
            + [repr(float(p)) for p in probabilities[i]]
            + [AUDIT_SERVICES[observed[i]]]
            + [str(v) for v in flags[i]]
        ))
    return _write_lines(path, lines)
