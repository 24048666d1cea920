"""Shared fixture builders: synthetic audit datasets engineered to known
summary statistics, used by the audit, CLI, and acceptance tests, and a
recorder of the utilitarian policy's dual solves."""

import json
from importlib import resources

import numpy as np
import pytest

from fairalloc import policies
from fairalloc.audit import AuditDataset, AuditSchema, export_csv

SYNTH_N = 3375
# overall best-service counts: shares 0.68 / 0.27 / 0.05 within 1e-2
BEST_COUNTS = (2295, 911, 169)
DU_WITHOUT_CHILDREN = 0.07
DU_WITH_CHILDREN = 0.04
N_WITH_CHILDREN = 1350


def homeless_schema() -> AuditSchema:
    text = resources.files("fairalloc.presets").joinpath("homeless_groups.json").read_text()
    return AuditSchema.from_dict(json.loads(text))


def build_synthetic_dataset(n: int = SYNTH_N, seed: int = 20240) -> AuditDataset:
    """Households with exact best-service counts and exact group ΔU means.

    Each household's utility vector is (u_min, u_min + d/2, u_min + d) placed
    so the configured best service holds the maximum; d averages exactly to
    the with/without-children targets. All utilities stay in [0.5, 0.66], so
    p = 1 - u round-trips bitwise.
    """
    rng = np.random.default_rng(seed)

    counts = [int(round(c * n / SYNTH_N)) for c in BEST_COUNTS[:2]]
    counts.append(n - sum(counts))
    best = np.repeat([0, 1, 2], counts)[rng.permutation(n)]
    children = np.zeros(n, dtype=np.int8)
    children[rng.permutation(n)[: max(1, int(round(N_WITH_CHILDREN * n / SYNTH_N)))]] = 1

    du = np.where(children == 1, DU_WITH_CHILDREN, DU_WITHOUT_CHILDREN).astype(float)
    for value in (0, 1):
        mask = children == value
        jitter = rng.uniform(-0.008, 0.008, mask.sum())
        du[mask] += jitter - jitter.mean()  # exact group mean, positive variance

    u_min = 0.5 + rng.uniform(0.0, 0.05, n)
    utilities = np.empty((n, 3))
    for i in range(n):
        others = [k for k in range(3) if k != best[i]]
        utilities[i, best[i]] = u_min[i] + du[i]
        utilities[i, others[0]] = u_min[i] + du[i] / 2.0
        utilities[i, others[1]] = u_min[i]

    observed = rng.choice([1, 2, 3], size=n, p=[0.45, 0.35, 0.2])

    disability = (rng.random(n) < 0.35).astype(np.int8)
    female = (rng.random(n) < 0.55).astype(np.int8)
    single_female = ((rng.random(n) < 0.6) & (female == 1)).astype(np.int8)
    age_lt_25 = (rng.random(n) < 0.25).astype(np.int8)
    black = (rng.random(n) < 0.5).astype(np.int8)
    white = ((rng.random(n) < 0.85) & (black == 0)).astype(np.int8)

    return AuditDataset(
        ids=tuple(f"h{i + 1}" for i in range(n)),
        probabilities=1.0 - utilities,
        observed=observed,
        groups={
            "disability": disability,
            "children": children,
            "single_female": single_female,
            "age_lt_25": age_lt_25,
            "female": female,
            "black": black,
            "white": white,
        },
        service_names=("TH", "RRH", "ES"),
    )


def write_synthetic_csv(path, n: int = SYNTH_N, seed: int = 20240) -> AuditDataset:
    dataset = build_synthetic_dataset(n=n, seed=seed)
    export_csv(dataset, str(path), homeless_schema())
    return dataset


TRADEOFF_SCHEMA = {
    "id": "id",
    "services": [
        {"name": "TH", "column": "p_TH"},
        {"name": "RRH", "column": "p_RRH"},
        {"name": "ES", "column": "p_ES"},
    ],
    "observed": "observed",
    "groups": {"children": "children"},
    "pairs": [{"name": "children", "group1": "children", "group0": "~children"}],
}


def build_tradeoff_dataset() -> AuditDataset:
    """Two households engineered to dI = -0.013 and -dR = +0.016."""
    utilities = np.array([[0.5, 0.55, 0.58], [0.5, 0.537, 0.551]])
    return AuditDataset(
        ids=("a", "b"),
        probabilities=1.0 - utilities,
        observed=np.array([2, 2]),
        groups={"children": np.array([0, 1], dtype=np.int8)},
        service_names=("TH", "RRH", "ES"),
    )


@pytest.fixture
def transport_calls(monkeypatch):
    """Records (start prices or None, returned prices) of every
    ``policies._solve_transport`` call the test makes."""
    calls = []
    solve = policies._solve_transport

    def recorded(w, caps, p0=None):
        start = None if p0 is None else list(p0)
        result = solve(w, caps, p0)
        calls.append((start, result[1]))
        return result

    monkeypatch.setattr(policies, "_solve_transport", recorded)
    return calls
