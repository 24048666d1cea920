"""KDE and Welch tests, with the t CDF validated against an independent
quadrature oracle (direct integration of the density, stdlib lgamma)."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fairalloc import DegenerateVarianceError, EmptySampleError, kde, stats, welch_t


def t_density(x, df):
    log_norm = (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    return math.exp(log_norm) * (1.0 + x * x / df) ** (-(df + 1.0) / 2.0)


def oracle_two_sided_p(t, df):
    tail, _ = quad(t_density, abs(t), np.inf, args=(df,))
    return 2.0 * tail


def padded_grid(samples, bandwidth, size=512, padding=3.0):
    """``size`` evenly spaced points from ``padding`` bandwidths below the
    samples to as far above them: the grid an audit pair's curves share."""
    x = np.asarray(samples, dtype=np.float64)
    return np.linspace(x.min() - padding * bandwidth, x.max() + padding * bandwidth, size)


class TestKde:
    def test_single_sample_closed_form(self):
        curve = kde([0.0], bandwidth=1.0, grid=np.array([0.0, 1.0]))
        assert curve.density[0] == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)
        assert curve.density[1] == pytest.approx(math.exp(-0.5) / math.sqrt(2.0 * math.pi))

    def test_symmetry(self):
        curve = kde([-2.0, 2.0], bandwidth=0.5, grid=padded_grid([-2.0, 2.0], 0.5))
        flipped = np.interp(-curve.grid[::-1], curve.grid, curve.density)
        assert np.allclose(curve.density[::-1], flipped, atol=1e-12)

    def test_mass_close_to_one(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(0.0, 1.0, 200)
        curve = kde(samples, bandwidth=0.3, grid=padded_grid(samples, 0.3, padding=8.0))
        mass = np.trapezoid(curve.density, curve.grid)
        assert mass == pytest.approx(1.0, abs=1e-3)
        assert mass <= 1.0 + 1e-9
        assert np.all(curve.density >= 0.0)

    def test_custom_grid(self):
        grid = np.linspace(-1, 1, 11)
        curve = kde([0.0], bandwidth=1.0, grid=grid)
        assert curve.grid.tolist() == grid.tolist()

    def test_errors(self):
        with pytest.raises(EmptySampleError):
            kde([], bandwidth=0.2, grid=np.zeros(3))
        with pytest.raises(ValueError):
            kde([1.0], bandwidth=0.0, grid=np.zeros(3))

    @pytest.mark.parametrize("samples, bandwidth, grid", [
        ([0.0, 0.5], 1e-160, padded_grid([0.0, 0.5], 1e-160)),  # the squared distances overflow
        ([0.25], 5e-324, padded_grid([0.25], 5e-324)),  # the density's 1 / h overflows
        ([-1e308], 1.0, [1e308]),  # a grid point's distance to a sample overflows
        ([0.0], np.float64(1e308), [0.0]),  # the density's n h overflows
        ([0.0, 0.0], 1e308, [0.0]),  # the same with a Python float, which overflows quietly
    ])
    def test_out_of_range_bandwidth_names_it(self, samples, bandwidth, grid):
        message = f"bandwidth {bandwidth!r} is out of range for these samples: "
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            kde(samples, bandwidth=bandwidth, grid=grid)


def dense_kde_density(samples, bandwidth, grid):
    """The whole grid x sample matrix at once: the reference for ``kde``."""
    x = np.asarray(samples, dtype=np.float64)
    z = (grid[:, None] - x[None, :]) / bandwidth
    return np.exp(-0.5 * z * z).sum(axis=1) / (x.size * bandwidth * math.sqrt(2.0 * math.pi))


class TestKdeBlocks:
    """``kde`` sums the kernel over blocks of grid rows; the densities must be
    the same bytes as the dense matrix gives."""

    BLOCK_ROWS_ONE = stats._KDE_CHUNK_BYTES // 8  # above this many samples, one row a block

    @pytest.mark.parametrize("n, grid_size", [
        (1, 512),
        (stats._KDE_CHUNK_BYTES // (8 * 32), 512),  # 32 rows a block: exactly 16 blocks
        (stats._KDE_CHUNK_BYTES // (8 * 131), 512),  # 131 rows a block; 512 is not a multiple
        (BLOCK_ROWS_ONE // 64, 50),  # 64 rows a block: the grid is shorter than one block
        (5000, 7),
        (BLOCK_ROWS_ONE, 5),  # exactly one row a block
        (BLOCK_ROWS_ONE + 1, 3),  # one row a block by the max(1, ...) floor
        (BLOCK_ROWS_ONE // 2, 5),  # two rows a block; the last block has one
        (300, 1),
    ])
    def test_padded_grid_matches_dense(self, n, grid_size):
        samples = np.random.default_rng(n).normal(0.05, 0.01, n)
        curve = kde(samples, bandwidth=0.2, grid=padded_grid(samples, 0.2, grid_size))
        assert curve.grid.size == grid_size
        assert np.array_equal(curve.density, dense_kde_density(samples, 0.2, curve.grid))

    def test_custom_grid_matches_dense(self):
        rng = np.random.default_rng(1)
        samples = rng.uniform(-1.0, 1.0, 2500)
        grid = np.sort(rng.uniform(-2.0, 2.0, 333))
        curve = kde(samples, bandwidth=0.07, grid=grid)
        assert np.array_equal(curve.density, dense_kde_density(samples, 0.07, grid))

    @pytest.mark.parametrize("budget", [8, 8 * 3 * 1000 - 1, 8 * 7 * 1000])
    def test_any_block_size_matches_dense(self, monkeypatch, budget):
        monkeypatch.setattr(stats, "_KDE_CHUNK_BYTES", budget)
        samples = np.random.default_rng(7).normal(0.0, 1.0, 1000)
        curve = kde(samples, bandwidth=0.3, grid=padded_grid(samples, 0.3, 50))
        assert np.array_equal(curve.density, dense_kde_density(samples, 0.3, curve.grid))


def random_layout(gen, union):
    """Curves over the ``union`` columns of a grid's samples, as ``kde_curves``
    takes them: runs of columns as unit-step slices, and index arrays in
    ascending, descending or shuffled order. Every layout holds curves of
    one and two points and one equal to the whole union."""
    curves = [slice(0, union), np.arange(union)[::-1].copy(), gen.permutation(union)[:1],
              gen.permutation(union)[:2]]
    for _ in range(int(gen.integers(2, 7))):
        size = int(gen.integers(1, union + 1))
        if gen.random() < 0.4:
            start = int(gen.integers(0, union - size + 1))
            curves.append(slice(start, start + size))
        else:
            cols = gen.choice(union, size, replace=False)
            curves.append(np.sort(cols) if gen.random() < 0.5 else cols)
    order = gen.permutation(len(curves))
    return [curves[i] for i in order]


class TestKdeCurves:
    """``kde_curves`` evaluates the kernel once for several curves on one
    grid; each density must be the bytes ``kde`` gives on the curve's own
    points."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("rows", [1, 3, None])  # rows a block; None: the default budget
    def test_shared_densities_equal_per_curve_kde(self, monkeypatch, seed, rows):
        gen = np.random.default_rng(seed)
        union = int(gen.integers(2, 3000))
        # few distinct values: repeated max gains, as rounded records give
        samples = np.round(gen.normal(0.05, 0.02, union), int(gen.integers(2, 5)))
        grid = padded_grid(samples, 0.02, int(gen.integers(1, 600)))
        if rows is not None:
            monkeypatch.setattr(stats, "_KDE_CHUNK_BYTES", 8 * union * rows)
        curves = random_layout(gen, union)
        shared = stats.kde_curves(samples, 0.02, grid, curves)
        assert len(shared) == len(curves)
        for cols, curve in zip(curves, shared):
            own = kde(samples[cols], 0.02, grid)
            assert curve.grid.tobytes() == grid.tobytes()
            assert curve.density.tobytes() == own.density.tobytes()

    def test_a_curve_with_no_points_is_refused(self):
        with pytest.raises(EmptySampleError):
            stats.kde_curves([0.1, 0.2], 0.2, np.zeros(3), [slice(0, 2), slice(1, 1)])
        with pytest.raises(EmptySampleError):
            stats.kde_curves([0.1, 0.2], 0.2, np.zeros(3), [np.arange(0)])

    def test_out_of_range_bandwidth_names_it(self):
        samples = [0.0, 0.5, 0.25]
        with pytest.raises(ValueError, match=re.escape("bandwidth 1e-160 is out of range")):
            stats.kde_curves(samples, 1e-160, padded_grid(samples, 1e-160),
                             [slice(0, 1), np.array([2, 1])])

    def test_curves_hold_the_grid_read_only(self):
        grid = np.linspace(-1.0, 1.0, 5)
        first, second = stats.kde_curves([0.0, 0.3], 0.2, grid, [slice(0, 1), slice(1, 2)])
        assert np.shares_memory(first.grid, second.grid)
        with pytest.raises(ValueError, match="read-only"):
            first.grid[0] = 5.0
        # the caller's own array stays writable, and unchanged
        assert grid.flags.writeable and second.grid[0] == -1.0


@settings(max_examples=500, deadline=None)
@given(z=st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),  # squares and halves below the normal range
    st.floats(1.3e154, 2.0e154),  # squares about DBL_MAX: overflow in one order only
    st.floats(-40.0, 40.0),
))
def test_kernel_exponent_order_gives_the_same_bits(z):
    """``kde`` takes exp(-0.5 * (z * z)); the dense reference takes
    exp((-0.5 * z) * z). Scaling by -0.5 is exact except below the normal
    range, and there, as where z * z overflows, exp gives 1 or 0 either way."""
    z = np.float64(z)
    with np.errstate(over="ignore", under="ignore"):
        ours, reference = np.exp(-0.5 * (z * z)), np.exp((-0.5 * z) * z)
    assert ours.tobytes() == reference.tobytes()


class TestWelch:
    def test_identical_sample_sets(self):
        result = welch_t([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
        assert result.t_statistic == 0.0
        assert result.p_value == pytest.approx(1.0)

    def test_separated_means(self):
        a = np.array([0.0, 0.0, 0.0, 0.0]) + np.array([1e-4, -1e-4, 2e-4, -2e-4])
        b = np.array([1.0, 1.0, 1.0, 1.0]) + np.array([-1e-4, 1e-4, -2e-4, 2e-4])
        result = welch_t(a, b)
        assert abs(result.t_statistic) > 1e3
        assert result.p_value == pytest.approx(0.0, abs=1e-9)

    def test_textbook_fixture_vs_oracle(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0]
        b = [3.0, 4.0, 5.0, 6.0, 7.0]
        result = welch_t(a, b)
        # equal variances 2.5 and sizes 5: t = -2, Welch df = 8
        assert result.t_statistic == pytest.approx(-2.0)
        assert result.degrees_of_freedom == pytest.approx(8.0)
        assert result.p_value == pytest.approx(
            oracle_two_sided_p(result.t_statistic, result.degrees_of_freedom), abs=1e-6
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_random_fixtures_vs_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(0.0, 1.0, rng.integers(3, 40))
        b = rng.normal(rng.uniform(-1, 1), 1.7, rng.integers(3, 40))
        result = welch_t(a, b)
        assert result.p_value == pytest.approx(
            oracle_two_sided_p(result.t_statistic, result.degrees_of_freedom), abs=1e-6
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_antisymmetry(self, seed):
        rng = np.random.default_rng(100 + seed)
        a, b = rng.normal(0, 1, 12), rng.normal(0.3, 2, 9)
        fwd, rev = welch_t(a, b), welch_t(b, a)
        assert rev.t_statistic == pytest.approx(-fwd.t_statistic)
        assert rev.p_value == pytest.approx(fwd.p_value)

    @pytest.mark.parametrize("shift", [-3.0, 0.5, 10.0])
    def test_shift_invariance(self, shift):
        rng = np.random.default_rng(7)
        a, b = rng.normal(0, 1, 15), rng.normal(1, 1.5, 11)
        base = welch_t(a, b)
        moved = welch_t(a + shift, b + shift)
        assert moved.t_statistic == pytest.approx(base.t_statistic, rel=1e-9)

    def test_p_monotone_in_separation(self):
        rng = np.random.default_rng(9)
        a = rng.normal(0, 1, 20)
        b = rng.normal(0, 1, 20)
        p_values = [welch_t(a, b + gap).p_value for gap in (0.5, 1.0, 2.0, 4.0)]
        assert all(x > y for x, y in zip(p_values, p_values[1:]))

    def test_degenerate_errors(self):
        with pytest.raises(DegenerateVarianceError):
            welch_t([1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateVarianceError):
            welch_t([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
