"""Seeded randomness helpers.

All randomness in the package flows through PCG64 generators created here.
Normal deviates are produced by inverse-CDF transform of open-interval
uniforms so that a stream is a pure function of the seed.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_TWO_53 = float(1 << 53)
_BELOW_ONE = np.nextafter(1.0, 0.0)


def check_seed(seed: int, field: str) -> int:
    """Return ``seed`` if numpy can seed a generator with it (it is >= 0).

    Raises:
        ValueError: naming ``field`` otherwise.
    """
    if seed < 0:
        raise ValueError(f"{field} must be >= 0, got {seed}")
    return seed


def generator(seed: int, stream: int | None = None) -> np.random.Generator:
    """Return a PCG64 generator for ``seed``, optionally on a named sub-stream."""
    if stream is None:
        seq = np.random.SeedSequence(seed)
    else:
        seq = np.random.SeedSequence(seed, spawn_key=(stream,))
    return np.random.Generator(np.random.PCG64(seq))


def spawn_seed(seed: int, stream: int) -> int:
    """Derive a child seed from (seed, stream); stable across platforms."""
    seq = np.random.SeedSequence(seed, spawn_key=(stream,))
    return int(seq.generate_state(1, np.uint64)[0])


def uniform_open(gen: np.random.Generator, size) -> np.ndarray:
    """Uniform draws strictly inside (0, 1); safe for inverse-CDF transforms.

    The top integer, 2**53 - 1, plus one half rounds up to 2**53; that one
    draw is clamped to the largest double below 1, and no other draw moves.
    """
    u = (gen.integers(0, 1 << 53, size=size).astype(np.float64) + 0.5) / _TWO_53
    return np.minimum(u, _BELOW_ONE, out=u)


def standard_normal(gen: np.random.Generator, size) -> np.ndarray:
    """Standard normal deviates via the inverse normal CDF of uniforms."""
    return ndtri(uniform_open(gen, size))
