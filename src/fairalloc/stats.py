"""Statistical utilities for audits: Gaussian KDE and Welch's t-test."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .errors import DegenerateVarianceError, EmptySampleError, InputError

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))
# bytes of one block of grid-row x sample kernel values; ``kde`` works in one
# buffer of about this size, whatever the sample or grid size: small enough to
# stay in a core's L2 cache, and 4 grid rows deep at 32,000 samples
_KDE_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class KdeCurve:
    """A kernel density estimate evaluated on an ascending grid."""

    grid: np.ndarray
    density: np.ndarray
    bandwidth: float


@dataclass(frozen=True)
class TTestResult:
    """Welch's two-sample t-test (unequal variances, two-sided)."""

    t_statistic: float
    degrees_of_freedom: float
    p_value: float
    mean_a: float
    mean_b: float
    n_a: int
    n_b: int

    def to_dict(self) -> dict:
        return {
            "t_statistic": self.t_statistic,
            "degrees_of_freedom": self.degrees_of_freedom,
            "p_value": self.p_value,
            "mean_a": self.mean_a,
            "mean_b": self.mean_b,
            "n_a": self.n_a,
            "n_b": self.n_b,
        }


def kde(samples, bandwidth: float, grid: np.ndarray) -> KdeCurve:
    """Gaussian kernel density estimate on ``grid``.

    density(x) = (1 / (n h)) * sum_i phi((x - x_i) / h) with phi the standard
    normal density. The sum is exact; it runs over blocks of grid rows in
    one reused buffer of about ``_KDE_CHUNK_BYTES`` (one grid row at least),
    so its memory does not grow with the grid.

    Raises:
        EmptySampleError: if ``samples`` is empty.
        InputError: if ``bandwidth`` is not finite and > 0, or if with it
            the kernel or the density on these samples and grid overflows or
            is not a number.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size == 0:
        raise EmptySampleError("empty-sample: KDE needs at least one sample")
    if not np.isfinite(bandwidth) or bandwidth <= 0:
        raise InputError("bandwidth must be positive")
    grid = np.asarray(grid, dtype=np.float64)
    # Each density value is one contiguous row sum, so a block of grid rows
    # gives the same bytes as the whole grid x sample matrix at once. Each
    # block runs exp(-0.5 * (z * z)) in place: scaling by -0.5, a power of
    # two, commutes with rounding, so this equals exp((-0.5 * z) * z) except
    # where the product underflows or overflows, and there exp gives 1 or 0
    # either way.
    rows = max(1, min(grid.size, _KDE_CHUNK_BYTES // (8 * x.size)))
    buf = np.empty((rows, x.size))
    sums = np.empty(grid.size)
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            for lo in range(0, grid.size, rows):
                hi = min(lo + rows, grid.size)
                z = buf[: hi - lo]
                np.subtract(grid[lo:hi, None], x, out=z)
                np.divide(z, bandwidth, out=z)
                np.square(z, out=z)
                np.multiply(z, -0.5, out=z)
                np.exp(z, out=z)
                np.add.reduce(z, axis=1, out=sums[lo:hi])
            # a numpy scalar, so that an overflowing normalizer raises too
            density = sums / (np.float64(x.size) * bandwidth * _SQRT_2PI)
    except FloatingPointError:
        raise InputError(f"bandwidth {bandwidth!r} is out of range for these samples: "
                         "the kernel density is not finite") from None
    return KdeCurve(grid=grid, density=density, bandwidth=float(bandwidth))


def welch_t(samples_a, samples_b) -> TTestResult:
    """Welch's unequal-variance t-test with a two-sided p-value.

    The p-value comes from the Student-t survival function expressed through
    the regularized incomplete beta function.

    Raises:
        DegenerateVarianceError: if either sample has fewer than two points
            or zero variance.
    """
    a = np.asarray(samples_a, dtype=np.float64).ravel()
    b = np.asarray(samples_b, dtype=np.float64).ravel()
    if a.size < 2 or b.size < 2:
        raise DegenerateVarianceError("degenerate-variance: each group needs >= 2 samples")
    va = float(np.var(a, ddof=1))
    vb = float(np.var(b, ddof=1))
    if va <= 0.0 or vb <= 0.0:
        raise DegenerateVarianceError("degenerate-variance: zero within-group variance")
    sa, sb = va / a.size, vb / b.size
    t = (float(np.mean(a)) - float(np.mean(b))) / np.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa**2 / (a.size - 1) + sb**2 / (b.size - 1))
    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return TTestResult(
        t_statistic=float(t),
        degrees_of_freedom=float(df),
        p_value=min(max(p, 0.0), 1.0),
        mean_a=float(np.mean(a)),
        mean_b=float(np.mean(b)),
        n_a=int(a.size),
        n_b=int(b.size),
    )
