"""Seeded randomness helpers.

All randomness in the package flows through PCG64 generators created here.
Normal deviates are produced by inverse-CDF transform of open-interval
uniforms so that a stream is a pure function of the seed.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .errors import InputError

_HALF_ULP = 2.0**-54  # half the spacing of the 53-bit grid gen.random draws on
_BELOW_ONE = np.nextafter(1.0, 0.0)


def check_seed(seed: int, field: str) -> int:
    """Return ``seed`` if numpy can seed a generator with it (it is >= 0).

    Raises:
        InputError: naming ``field`` otherwise.
    """
    if seed < 0:
        raise InputError(f"{field} must be >= 0, got {seed}")
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

    Each draw is ``(m + 0.5) / 2**53`` for a 53-bit integer ``m``, read off
    ``gen.random``: that returns ``m * 2**-53`` with ``m`` the top 53 bits of
    one 64-bit output, the same ``m``, from the same outputs, that
    ``gen.integers(0, 2**53)`` returns (its Lemire bound never rejects, as
    ``2**64`` is a multiple of ``2**53``). Adding ``2**-54`` rounds exactly as
    adding 0.5 before the division does, because scaling by a power of two
    commutes with rounding. The top draw, ``m = 2**53 - 1``, rounds up to 1.0;
    it is clamped to the largest double below 1, and no other draw moves.
    """
    u = gen.random(size)
    u += _HALF_ULP
    return np.minimum(u, _BELOW_ONE, out=u)


def standard_normal(gen: np.random.Generator, size) -> np.ndarray:
    """Standard normal deviates via the inverse normal CDF of uniforms."""
    u = uniform_open(gen, size)
    return ndtri(u, out=u)
