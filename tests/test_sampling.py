"""Time sets, Taylor blocks, Birkhoff averages, correlations, decay fits."""

import functools
import math
import multiprocessing
import multiprocessing.pool
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from horolab import observables as ob
from horolab import presets
from horolab import quotient as qt
from horolab import sampling as sp
from horolab import sl2
from horolab.errors import ConfigError
from horolab.presets import bump_preset, point_preset
from horolab.sl2 import GroupDomainError


def omega_trial_division(n: int) -> int:
    """Prime factors with multiplicity, by plain trial division."""
    count, d = 0, 2
    while d * d <= n:
        while n % d == 0:
            count += 1
            n //= d
        d += 1
    return count + (1 if n > 1 else 0)


class TestTimeSets:
    def test_progression_pinned(self):
        assert list(sp.generate(sp.Progression(3.0, 10.0))) == [0.0, 3.0, 6.0, 9.0]

    def test_progression_step_larger_than_span(self):
        # 0 always qualifies: the set is {Kj : 0 <= Kj < T}
        assert list(sp.generate(sp.Progression(5.0, 3.0))) == [0.0]

    def test_progression_empty_span(self):
        assert len(sp.generate(sp.Progression(3.0, 0.0))) == 0

    def test_progression_invalid_step(self):
        with pytest.raises(ConfigError):
            sp.generate(sp.Progression(0.0, 10.0))

    def test_almost_primes_pinned(self):
        times = sp.generate(sp.AlmostPrimes(2, 10))
        assert list(times) == [1, 2, 3, 4, 5, 6, 7, 9, 10]

    def test_almost_primes_oracle(self):
        times = set(int(t) for t in sp.generate(sp.AlmostPrimes(3, 500)))
        expect = {1} | {n for n in range(2, 501) if omega_trial_division(n) <= 3}
        assert times == expect

    @pytest.mark.parametrize("level", [1, 3])
    def test_almost_primes_up_to_one(self, level):
        assert sp.generate(sp.AlmostPrimes(level, 1)).tolist() == [1.0]

    def test_polynomial_gamma_zero(self):
        assert list(sp.generate(sp.PolynomialTimes(0.0, 4))) == [1.0, 2.0, 3.0, 4.0]

    def test_polynomial_powers(self):
        times = sp.generate(sp.PolynomialTimes(0.25, 50))
        n = np.arange(1, 51, dtype=float)
        assert np.array_equal(times, n ** 1.25)
        assert np.all(np.diff(times) > 0)

    def test_polynomial_gamma_range(self):
        with pytest.raises(ConfigError):
            sp.generate(sp.PolynomialTimes(0.5, 10))

    def test_interval_nodes_cover_span(self):
        times = sp.generate(sp.Interval(10.0, 0.5))
        assert times[0] > 0.0 and times[-1] < 10.0
        assert np.all(np.diff(times) > 0)


class TestBlocks:
    def test_k_max_formula(self):
        pair = sp.block_decompose(10**6, 0.1)
        assert pair.k_max == int(math.floor((10**6) ** 0.4 / 1.1))
        assert len(pair.exact_times) == pair.k_max + 1
        assert len(pair.linear_times) == pair.k_max + 1

    def test_first_elements_coincide(self):
        pair = sp.block_decompose(10**4, 0.2)
        assert pair.exact_times[0] == pair.linear_times[0] == (10**4) ** 1.2

    def test_linear_gap_pinned(self):
        # (1 + gamma) M^gamma at M = 1e4, gamma = 0.2
        pair = sp.block_decompose(10**4, 0.2)
        gaps = np.diff(pair.linear_times)
        assert np.allclose(gaps, 1.2 * 10 ** 0.8, rtol=1e-12)

    def test_degenerate_blocks_rejected(self):
        with pytest.raises(sp.DegenerateBlockError):
            sp.block_decompose(2, 0.45)
        with pytest.raises(sp.DegenerateBlockError):
            sp.block_decompose(1, 0.1)
        with pytest.raises(sp.DegenerateBlockError):
            sp.block_decompose(10**4, 0.6)

    def test_degenerate_block_is_config_error(self):
        assert issubclass(sp.DegenerateBlockError, ConfigError)
        assert issubclass(sp.DegenerateBlockError, ValueError)

    def test_error_bounded_by_m_to_minus_gamma(self):
        assert sp.block_error(10**6, 0.1) <= (10**6) ** -0.1

    def test_error_small_gamma_vanishes(self):
        assert sp.block_error(10**4, 1e-6) <= 1e-5

    def test_error_doubling_ratio(self):
        ratio = sp.block_error(2 * 10**5, 0.1) / sp.block_error(10**5, 0.1)
        assert abs(ratio / 2 ** -0.1 - 1.0) <= 0.2

    def test_error_pinned_high_gamma(self):
        assert sp.block_error(10**4, 0.4) <= 10 ** -1.6 / 1.4

    def test_error_matches_taylor_remainder(self):
        rng = np.random.default_rng(5)
        done = 0
        while done < 20:
            m = int(rng.integers(10**4, 10**7))
            g = float(rng.uniform(0.05, 0.45))
            try:
                ratio = sp.block_error(m, g) / sp.block_taylor_remainder(m, g)
            except sp.DegenerateBlockError:
                continue
            assert 0.5 <= ratio <= 2.0
            done += 1


class TestHorocycleAverage:
    def test_constant_average_is_one(self, modular, generic_point):
        r = sp.horocycle_average(ob.ConstantObservable(modular, 1.0),
                                 generic_point, 50.0)
        assert abs(r.value - 1.0) <= 1e-12
        assert abs(r.deviation) <= 1e-12

    def test_identity_periodic_orbit_oracle(self, modular):
        """Average over the period-1 closed horocycle vs scipy quadrature."""
        f = ob.BumpFunction(modular, [[0.3, 1.12, 0.0]], [[0.15, 0.13, 0.5]])
        pid = qt.identity_coset(modular)

        def along_orbit(s):
            coords = qt.coordinates(qt.act(sl2.unipotent_u(s), pid))
            return float(f.evaluate_coords(coords[None])[0])

        oracle, err = quad(along_orbit, 0.0, 1.0, limit=400)
        assert oracle > 0.0
        r = sp.horocycle_average(f, pid, 1000.0)
        assert abs(r.value - oracle) <= max(1e-7, 10.0 * err)

    def test_deviation_shrinks_with_horizon(self, test_bump, generic_point):
        d_short = sp.horocycle_average(test_bump, generic_point, 1.0e2).deviation
        d_long = sp.horocycle_average(test_bump, generic_point, 1.0e4).deviation
        assert d_short > d_long

    def test_step_too_coarse_rejected(self, test_bump, generic_point):
        with pytest.raises(ConfigError):
            sp.horocycle_average(test_bump, generic_point, 10.0, step=1.0)

    def test_records_renormalized_injectivity(self, test_bump, generic_point):
        r = sp.horocycle_average(test_bump, generic_point, 100.0)
        assert r.metadata["eta_renormalized"] > 0.0
        assert r.sample_count == len(sp.generate(sp.Interval(
            100.0, test_bump.min_width() / sp._STEP_FRACTION)))

    def test_linearity(self, modular, test_bump, generic_point):
        double = ob.BumpFunction(modular, test_bump.center, test_bump.widths, amplitude=2.0)
        r1 = sp.horocycle_average(test_bump, generic_point, 60.0)
        r2 = sp.horocycle_average(double, generic_point, 60.0)
        assert abs(r2.value - 2.0 * r1.value) <= 1e-12

    def test_worker_determinism(self, test_bump, generic_point):
        vals = [sp.horocycle_average(test_bump, generic_point, 200.0,
                                     workers=w).value for w in (1, 4, 16)]
        assert max(vals) - min(vals) <= 1e-12

    def test_reference_and_arc_peak_memory(self, test_bump, generic_point):
        # a 16 MiB grid of Haar weights read 16.4 MiB; the folded reference and
        # the 2 M-node arc's chunks read about 10 MiB
        tracemalloc.start()
        try:
            sp.horocycle_average(test_bump, generic_point, 1.0e4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


# the bound the default arc step meets (sampling's module docstring, README):
# under 1% of the smallest deviation criterion 05 reports, 3.1e-5 at T = 1e5
ARC_STEP_BOUND = 3e-7


class TestArcStepBound:
    @pytest.mark.parametrize("t_span", [1.0e3, 1.0e4], ids=["pinned-interval", "horocycle-k1"])
    def test_default_step_against_a_four_times_finer_one(self, test_bump, generic_point, t_span):
        # the arcs of `average --timeset interval T=1e3` and of the horocycle-k1
        # workload, which move by 7.6e-8 and 7.3e-9
        step = test_bump.min_width() / sp._STEP_FRACTION
        default = sp.horocycle_average(test_bump, generic_point, t_span)
        finer = sp.horocycle_average(test_bump, generic_point, t_span, step=step / 4.0,
                                     reference=default.reference)
        assert default.timeset == sp.Interval(t_span, step)
        assert finer.sample_count == 4 * default.sample_count
        assert abs(default.value - finer.value) <= ARC_STEP_BOUND
        assert ARC_STEP_BOUND <= 0.01 * min(default.deviation, finer.deviation)


class TestRenormalizationIdentity:
    def test_unit_horizon_identical(self, test_bump, generic_point):
        assert sp.renormalization_identity_check(
            test_bump, generic_point, 1.0) <= 1e-12

    def test_generic_kilotime(self, test_bump, generic_point):
        assert sp.renormalization_identity_check(
            test_bump, generic_point, 1.0e3) <= 1e-6

    def test_pinned_bytes(self, test_bump, generic_point):
        assert sp.renormalization_identity_check(
            test_bump, generic_point, 500.0).hex() == "0x1.4720000000000p-48"

    def test_random_triples(self, rng, modular, test_bump):
        for _ in range(5):
            p = qt.reduce_point(
                qt.QuotientPoint(modular, sl2.random_element(rng, scale=0.6)))
            t_span = float(rng.uniform(10.0, 400.0))
            assert sp.renormalization_identity_check(
                test_bump, p, t_span) <= 1e-6


class TestSparseAverage:
    def test_constant_exactly_one(self, modular, generic_point):
        r = sp.sparse_average(ob.ConstantObservable(modular, 1.0),
                              generic_point, sp.Progression(1.0, 500.0))
        assert r.value == 1.0

    def test_identity_integer_orbit_is_fixed_point(self, modular):
        f = ob.BumpFunction(modular, [[0.3, 1.12, 0.0]], [[0.15, 0.13, 0.5]])
        pid = qt.identity_coset(modular)
        r = sp.sparse_average(f, pid, sp.Progression(1.0, 200.0))
        assert r.value == float(f.evaluate_coords(qt.coordinates(pid)[None])[0])

    def test_deviation_shrinks_generic(self, test_bump, generic_point):
        d4 = sp.sparse_average(test_bump, generic_point,
                               sp.Progression(1.0, 1.0e4)).deviation
        d6 = sp.sparse_average(test_bump, generic_point,
                               sp.Progression(1.0, 1.0e6)).deviation
        assert d6 < d4

    def test_sample_count_matches_timeset(self, test_bump, generic_point):
        ts = sp.AlmostPrimes(2, 1000)
        r = sp.sparse_average(test_bump, generic_point, ts)
        assert r.sample_count == len(sp.generate(ts))

    def test_time_range_guard(self, test_bump, generic_point):
        with pytest.raises(GroupDomainError):
            sp.sparse_average(test_bump, generic_point,
                              sp.Progression(1.0e11, 1.0e13))

    def test_bytes_of_chunk_sums(self, test_bump, generic_point):
        # np.sum over each chunk's values, the chunk sums added in order
        ts = sp.PolynomialTimes(0.1, 450_000)
        times = sp.generate(ts)
        vals = test_bump.evaluate_coords(sp.orbit_coordinates(generic_point, times))
        expect = sum(float(np.sum(vals[a:a + sp._SLAB_NODES]))
                     for a in range(0, len(times), sp._SLAB_NODES)) / len(times)
        assert sp.sparse_average(test_bump, generic_point, ts).value.hex() == expect.hex()

    def test_worker_determinism(self, test_bump, generic_point):
        ts = sp.PolynomialTimes(0.1, 30000)
        vals = [sp.sparse_average(test_bump, generic_point, ts,
                                  workers=w).value for w in (1, 4, 16)]
        assert vals[0] == vals[1] == vals[2]


class TestReferenceK2:
    """Which reference a k = 2 average is compared with, and its kind."""

    @pytest.fixture(scope="class")
    def hilbert_point(self, hilbert):
        return presets.point_from_spec("coords:0.1,1.3,0.4,-0.2,1.1,1.7", hilbert)

    def test_constant_reference_is_its_level(self, hilbert, hilbert_point):
        f = presets.observable_from_spec("constant:0.75", hilbert)
        r = sp.sparse_average(f, hilbert_point, sp.Progression(1.0, 200.0))
        assert (r.reference, r.metadata["reference_kind"]) == (0.75, "constant-level")
        assert r.deviation == abs(r.value - 0.75)

    def test_certified_bump_takes_the_exact_path(self, hilbert, hilbert_point, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("surrogate arc walked for a certified box")

        monkeypatch.setattr(ob, "haar_reference_k2", refuse)
        f = bump_preset(hilbert)
        r = sp.sparse_average(f, hilbert_point, sp.Progression(1.0, 200.0))
        assert r.metadata["reference_kind"] == "covolume-k2"
        assert type(r.reference) is float and r.reference == ob.haar_integral_bump(f)

    def test_uncertified_box_falls_back_on_the_surrogate(self, hilbert, hilbert_point):
        # y box (0.8, 1.2) in both factors: min y1 * min y2 < 1
        f = ob.BumpFunction(hilbert, [[0.05, 1.0, 0.7], [-0.1, 1.0, 2.1]], [[0.3, 0.2, 0.6]] * 2)
        assert not ob.box_injects_k2(f)
        r = sp.sparse_average(f, hilbert_point, sp.Progression(1.0, 200.0))
        val, err = ob.haar_reference_k2(f, hilbert)
        assert r.reference == val
        assert r.metadata["reference_kind"] == f"horocycle-surrogate-k2(err={err:.2e})"


class TestBlockAverages:
    def test_gap_vanishes_as_gamma_vanishes(self, test_bump, generic_point):
        _, _, gap = sp.block_average_compare(test_bump, generic_point,
                                             10**4, 1e-6)
        assert gap <= 1e-4

    def test_gap_decreases_in_block_base(self, test_bump, generic_point):
        _, _, gap_m = sp.block_average_compare(test_bump, generic_point,
                                               4 * 10**5, 0.1)
        _, _, gap_4m = sp.block_average_compare(test_bump, generic_point,
                                                16 * 10**5, 0.1)
        assert gap_m > 0.0
        assert gap_4m < gap_m

    def test_lipschitz_bound(self, rng, test_bump, generic_point):
        s1 = ob.sobolev_norm(test_bump, 1)
        for _ in range(5):
            m = int(rng.integers(10**5, 10**6))
            g = float(rng.uniform(0.05, 0.2))
            exact, linear, gap = sp.block_average_compare(
                test_bump, generic_point, m, g)
            assert gap <= s1 * sp.block_error(m, g)


@pytest.fixture(scope="module")
def second_bump(modular):
    return ob.BumpFunction(modular, [[0.2, 1.8, 0.8]], [[0.25, 0.4, 0.6]])


class TestCorrelation:
    def test_self_correlation_nonnegative(self, test_bump):
        assert sp.correlation(test_bump, test_bump, 0.0) >= 0.0

    def test_centered_correlation_decays(self, test_bump, second_bump):
        mf = ob.haar_integral_k1(test_bump)
        mg = ob.haar_integral_k1(second_bump)
        c1 = abs(sp.correlation(test_bump, second_bump, 1.0) - mf * mg)
        c8 = abs(sp.correlation(test_bump, second_bump, 8.0) - mf * mg)
        assert c8 < c1

    def test_constant_factor_reduces_to_mean(self, modular, second_bump):
        c = 2.0
        mg = ob.haar_integral_k1(second_bump, nx=160, nv=160, ntheta=80)
        for t in (0.0, 3.0):
            got = sp.correlation(ob.ConstantObservable(modular, c),
                                 second_bump, t)
            assert abs(got - c * mg) <= 1e-12

    def test_horocycle_flow_variant(self, test_bump, second_bump):
        val = sp.correlation(test_bump, second_bump, 0.5, flow="horocycle")
        assert np.isfinite(val)
        with pytest.raises(ConfigError):
            sp.correlation(test_bump, second_bump, 0.5, flow="elliptic")


class TestDecayFit:
    def test_exact_power_law(self):
        scales = [10.0 ** k for k in range(2, 7)]
        fit = sp.decay_fit([(s, s ** -0.5) for s in scales])
        assert abs(fit.slope + 0.5) <= 1e-9
        assert not fit.floored

    def test_constant_series(self):
        fit = sp.decay_fit([(10.0 ** k, 0.125) for k in range(1, 6)])
        assert abs(fit.slope) <= 1e-12

    def test_zero_deviation_floored(self):
        fit = sp.decay_fit([(10.0, 1e-3), (100.0, 1e-4), (1000.0, 0.0),
                            (10000.0, 1e-6)])
        assert fit.floored

    def test_pinned_slopes(self):
        wobbly = [(10.0 ** (k / 2), 0.3 * 10.0 ** (-0.23 * k) * (1.0 + 0.05 * (-1) ** k))
                  for k in range(1, 9)]
        floored = [(10.0, 1e-3), (100.0, 1e-4), (1000.0, 0.0), (10000.0, 1e-6)]
        assert [sp.decay_fit(wobbly).slope.hex(), sp.decay_fit(floored).slope.hex()] == [
            "-0x1.d2cd1243f57e4p-2", "-0x1.e666666666665p+0"]

    def test_too_few_points_rejected(self):
        with pytest.raises(ConfigError):
            sp.decay_fit([(10.0, 0.1), (100.0, 0.01), (1000.0, 0.001)])

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ConfigError):
            sp.decay_fit([(-1.0, 0.1), (10.0, 0.1), (100.0, 0.1),
                          (1000.0, 0.1)])


@pytest.fixture
def process_pools(monkeypatch) -> list:
    """Every process pool made during the test: its size and the tasks it ran."""
    pools = []

    class CountedPool(multiprocessing.pool.Pool):
        def __init__(self, processes=None, *args, **kwargs):
            pools.append(SimpleNamespace(processes=processes, tasks=[]))
            super().__init__(processes, *args, **kwargs)

        def imap(self, func, iterable, chunksize=1):
            tasks = list(iterable)
            pools[-1].tasks += tasks
            return super().imap(func, tasks, chunksize)

    monkeypatch.setattr(multiprocessing.pool, "Pool", CountedPool)
    return pools


def assert_span_tiling(tasks: list, n: int, workers: int):
    """The (chunk, lo, hi) tasks tile every _SLAB_NODES chunk of n nodes, in
    chunk order, with min(workers, its blocks) near-equal spans of whole row
    blocks."""
    sizes = [min(sp._SLAB_NODES, n - s) for s in range(0, n, sp._SLAB_NODES)]
    assert [c for c, _, _ in tasks] == sorted(c for c, _, _ in tasks)
    for c, size in enumerate(sizes):
        spans = [(lo, hi) for k, lo, hi in tasks if k == c]
        blocks = -(-size // qt._BLOCK_ROWS)
        assert len(spans) == min(workers, blocks)
        cuts = [0] + [hi for _, hi in spans]
        assert [lo for lo, _ in spans] == cuts[:-1] and cuts[-1] == size
        assert all(lo < hi for lo, hi in spans)
        assert all(cut % qt._BLOCK_ROWS == 0 for cut in cuts[:-1])
        widths = [-(-(hi - lo) // qt._BLOCK_ROWS) for lo, hi in spans]
        assert max(widths) - min(widths) <= 1
    assert len(tasks) == sum(min(workers, -(-size // qt._BLOCK_ROWS)) for size in sizes)


class TestLayerBoundary:
    """Every k = 1 orbit row that is reduced is reduced through
    quotient.reduce_stack, the boundary that per-layer reduction metrics
    are measured at."""

    @staticmethod
    def count_reductions(monkeypatch):
        counts = {"calls": 0, "rows": 0, "kernel_calls": 0, "kernel_rows": 0}
        reduce_stack, kernel = qt.reduce_stack, qt.reduce_batch_k1

        def counted_stack(lattice, stack, **kwargs):
            counts["calls"] += 1
            counts["rows"] += len(stack)
            return reduce_stack(lattice, stack, **kwargs)

        def counted_kernel(mats, *args):
            counts["kernel_calls"] += 1
            counts["kernel_rows"] += len(mats)
            return kernel(mats, *args)

        monkeypatch.setattr(qt, "reduce_stack", counted_stack)
        monkeypatch.setattr(qt, "reduce_batch_k1", counted_kernel)
        return counts

    @staticmethod
    def expected(n: int) -> dict:
        chunks = -(-n // sp._SLAB_NODES)
        blocks = sum(-(-min(sp._SLAB_NODES, n - s) // qt._BLOCK_ROWS)
                     for s in range(0, n, sp._SLAB_NODES))
        # one single-row checkpoint per chunk, then the chunk's row blocks
        return {"calls": chunks + blocks, "rows": chunks + n,
                "kernel_calls": chunks + blocks, "kernel_rows": chunks + n}

    def test_orbit_coordinates(self, monkeypatch, generic_point):
        # the counts depend on the chunking only; with one worker every
        # reduction runs here, where it can be counted
        times = sp.generate(sp.Progression(0.37, 250000.0))
        assert len(times) > 3 * sp._SLAB_NODES
        counts = self.count_reductions(monkeypatch)
        sp.orbit_coordinates(generic_point, times, workers=1)
        assert counts == self.expected(len(times))

    def test_orbit_coordinates_pool_tasks(self, monkeypatch, process_pools, generic_point):
        # with two or three workers the parent reduces only the chunk
        # checkpoints, and the pool receives spans that tile every chunk once,
        # in order
        times = sp.generate(sp.Progression(0.37, 250000.0))
        n = len(times)
        chunks = -(-n // sp._SLAB_NODES)
        for workers in (2, 3):
            counts = self.count_reductions(monkeypatch)
            sp.orbit_coordinates(generic_point, times, workers=workers)
            assert counts == {"calls": chunks, "rows": chunks,
                              "kernel_calls": chunks, "kernel_rows": chunks}
            assert process_pools[-1].processes == workers
            assert_span_tiling(process_pools[-1].tasks, n, workers)
            assert sum(hi - lo for _, lo, hi in process_pools[-1].tasks) == n
        assert len(process_pools) == 2

    def test_horocycle_average_k1(self, monkeypatch, test_bump, generic_point):
        # the dense arc's blocks reduce only the rows the screen leaves, one
        # reduce_stack call per block, and every kernel row comes through it
        # an arc of 1.5 chunks at the default step
        t_span = 1.5 * sp._SLAB_NODES / sp._GL_ORDER * test_bump.min_width() / sp._STEP_FRACTION
        counts = self.count_reductions(monkeypatch)
        r = sp.horocycle_average(test_bump, generic_point, t_span)
        n = r.sample_count
        assert n > sp._SLAB_NODES
        full = self.expected(n)
        assert counts["kernel_calls"] == counts["calls"] == full["calls"]
        assert counts["kernel_rows"] == counts["rows"]
        assert full["calls"] < counts["rows"] < full["rows"] // 5

    def test_sparse_average_at_integer_times(self, monkeypatch, test_bump, generic_point):
        # integer-time blocks are sparse: every row is reduced, as before the screen
        counts = self.count_reductions(monkeypatch)
        r = sp.sparse_average(test_bump, generic_point, sp.Progression(1.0, 250000.0))
        assert counts == self.expected(r.sample_count)


# Gauss-Legendre step of the chunk tests: 1/64 is exact in binary, and finer
# than test_bump's default step 0.2 / sp._STEP_FRACTION
CHUNK_STEP = 1.0 / 64.0
CHUNK_PANELS = sp._SLAB_NODES // sp._GL_ORDER


@functools.lru_cache(maxsize=None)
def materialised_arc(t_span: float) -> tuple:
    """The averages as computed before the chunk driver folded them.

    Every node and weight of the arc is materialised; the orbit is walked
    in _SLAB_NODES chunks, each anchored at the reduced class of its first
    node; then (horocycle average, sparse mean over the same nodes) are
    summed slab by slab.
    """
    p, f = point_preset("generic1"), bump_preset(qt.ModularLattice())
    panels = max(1, int(math.ceil(t_span / CHUNK_STEP)))
    h = t_span / panels
    starts = np.arange(panels) * h
    nodes = (starts[:, None] + 0.5 * h * (sp._GL_X[None, :] + 1.0)).ravel()
    weights = np.broadcast_to(0.5 * h * sp._GL_W, (panels, sp._GL_ORDER)).ravel().copy()
    parts = []
    for s in range(0, len(nodes), sp._SLAB_NODES):
        t0 = float(nodes[s])
        anchor = qt.reduce_stack(p.lattice, qt.orbit_mats(p.rep.mats, np.array([t0])))[0][0]
        parts += qt.orbit_blocks(p.lattice, anchor, nodes[s:s + sp._SLAB_NODES] - t0,
                                 f.evaluate_coords)
    vals = np.concatenate(parts)
    slabs = range(0, len(nodes), sp._SLAB_NODES)
    horocycle = sum(float(np.dot(weights[s:s + sp._SLAB_NODES], vals[s:s + sp._SLAB_NODES]))
                    for s in slabs) / t_span
    sparse = sum(float(np.sum(vals[s:s + sp._SLAB_NODES])) for s in slabs) / len(vals)
    return panels, len(nodes), horocycle, sparse


class TestChunkDriver:
    """The averages fold their values chunk by chunk and make each chunk's
    nodes inside it, with the bytes of the materialised arc."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("panels", [
        1000,                  # inside the first chunk
        CHUNK_PANELS,          # exactly one chunk
        3 * CHUNK_PANELS // 2,  # 1.5 chunks
        3 * CHUNK_PANELS,      # 3 chunks
    ])
    def test_bytes_equal_materialised_arc(self, generic_point, test_bump, panels, workers):
        t_span = panels * CHUNK_STEP
        got_panels, count, horocycle, sparse = materialised_arc(t_span)
        assert got_panels == panels
        r = sp.horocycle_average(test_bump, generic_point, t_span, step=CHUNK_STEP,
                                 workers=workers, reference=0.0)
        assert (r.value, r.sample_count) == (horocycle, count)
        avg = sp.sparse_average(test_bump, generic_point, sp.Interval(t_span, CHUNK_STEP),
                                workers=workers, reference=0.0)
        assert (avg.value, avg.sample_count) == (sparse, count)

    def test_arc_memory_is_bounded_by_a_chunk(self, generic_point, test_bump):
        # 4 M nodes: the materialised arc held 24 bytes per node (about 122 MiB)
        tracemalloc.start()
        try:
            sp.horocycle_average(test_bump, generic_point, 2.0e4, reference=0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_one_pool_serves_every_chunk(self, process_pools, generic_point, test_bump):
        for workers in (2, 3):
            r = sp.horocycle_average(test_bump, generic_point, 3 * CHUNK_PANELS * CHUNK_STEP,
                                     step=CHUNK_STEP, workers=workers, reference=0.0)
            assert r.sample_count == 3 * sp._SLAB_NODES
            assert_span_tiling(process_pools[-1].tasks, r.sample_count, workers)
        # one pool per call, each running min(workers, blocks) spans of each chunk
        blocks = len(qt.row_blocks(sp._SLAB_NODES))
        assert [(pool.processes, len(pool.tasks)) for pool in process_pools] == [
            (2, 3 * min(2, blocks)), (3, 3 * min(3, blocks))]


def cover_and_negative_bump() -> list:
    # the dense branch's ten cover bumps, and one of amplitude -1, whose
    # value off its support is -0.0
    lattice = qt.ModularLattice()
    return presets.cover_bumps(lattice) + [
        ob.BumpFunction(lattice, [[0.0, 1.6, 1.0]], [[0.3, 0.4, 0.7]], amplitude=-1.0)]


class TestIntegerOrbitWeights:
    """The sieve weights a(0..n) fold chunk by chunk into the rows that are
    not +0.0, with the bytes of the bumps on the materialised orbit."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [
        1,
        sp._SLAB_NODES - 1,
        sp._SLAB_NODES,
        sp._SLAB_NODES + 1,
        5 * sp._SLAB_NODES // 2,
    ])
    def test_bytes_equal_materialised_orbit(self, generic_point, n, workers):
        bumps = cover_and_negative_bump()
        coords = sp.orbit_coordinates(generic_point, np.arange(1, n + 1.0), workers)
        got = sp.integer_orbit_weights(generic_point, n, bumps, workers)
        for f, weights in zip(bumps, got, strict=True):
            expect = np.concatenate(([0.0], f.evaluate_coords(coords)))
            assert weights.tobytes() == expect.tobytes()

    def test_negative_bump_keeps_its_negative_zeros(self, generic_point):
        *_, weights = sp.integer_orbit_weights(generic_point, 1000, cover_and_negative_bump(), 1)
        assert np.signbit(weights[1:][weights[1:] == 0.0]).all()
        assert not np.signbit(weights[0])

    def test_dichotomy_memory_holds_no_orbit_stack(self):
        # the materialised orbit held an 8 MB time array and a 24 MB coordinate
        # stack (with a second during its concatenation) through all ten
        # pipelines: 79 MiB traced.  Folded chunk by chunk it read 41.5 MiB
        # with an int64 spf, an int32 Omega and int64 kept rows, and 30.5 MiB
        # with int32, int8 and uint16 ones.  A fresh interpreter, so that no
        # factor table or u-tilde scan cached by another test hides an allocation
        code = ("import tracemalloc\n"
                "from horolab import experiments as ex\n"
                "cfg = ex.ExperimentConfig(kind='dichotomy', mode='almost',\n"
                "                          point='preset:generic1', n_max=1_000_000)\n"
                "tracemalloc.start()\n"
                "ex.run(cfg)\n"
                "print(tracemalloc.get_traced_memory()[1])\n")
        env = {**os.environ, "PYTHONPATH": str(Path(sp.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        assert int(out.stdout.split()[-1]) < 36 * 2**20


class WorkerFault(RuntimeError):
    """Raised by an observable inside a worker process."""


class TestWorkerProcesses:
    """workers > 1 runs the row blocks in forked processes, which end with
    every call; small orbits stay in the calling process."""

    @staticmethod
    def faulty(coords):
        raise WorkerFault("bump failed")

    def test_fault_reraises_and_leaves_no_worker(self, process_pools, generic_point):
        assert multiprocessing.active_children() == []
        with pytest.raises(WorkerFault, match="bump failed"):
            sp.sparse_average(SimpleNamespace(evaluate_coords=self.faulty), generic_point,
                              sp.Progression(1.0, 3.0e5), workers=2, reference=0.0)
        assert len(process_pools) == 1
        assert multiprocessing.active_children() == []

    def test_normal_call_leaves_no_worker(self, process_pools, generic_point, test_bump):
        assert multiprocessing.active_children() == []
        sp.sparse_average(test_bump, generic_point, sp.Progression(1.0, 3.0e5),
                          workers=2, reference=0.0)
        assert len(process_pools) == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers, n", [
        (2, 3 * qt._BLOCK_ROWS),      # 3 blocks < 2 * 2
        (3, 5 * qt._BLOCK_ROWS),      # 5 blocks < 2 * 3
        (1, 3 * sp._SLAB_NODES),      # one worker
    ])
    def test_small_orbit_makes_no_pool(self, process_pools, generic_point, test_bump,
                                       workers, n):
        sp.sparse_average(test_bump, generic_point, sp.Progression(1.0, float(n)),
                          workers=workers, reference=0.0)
        assert process_pools == []
        # 2 * workers blocks is enough
        sp.orbit_coordinates(generic_point, np.arange(2.0 * workers * qt._BLOCK_ROWS), workers)
        assert [pool.processes for pool in process_pools] == ([workers] if workers > 1 else [])

    def test_cli_run_with_workers_exits(self):
        # a worker left holding stdout would keep the pipe open past the timeout
        env = {**os.environ, "PYTHONPATH": str(Path(sp.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-m", "horolab.cli", "dichotomy", "mode=almost",
                              "--point", "preset:generic1", "N=1e5", "--workers", "2"],
                             env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert " content 0efffde9a94a5979 " in out.stdout


class TestOrbitCoordinates:
    def test_matches_pointwise_flow(self, modular, generic_point):
        times = np.array([0.0, 1.5, 7.25, 300.0])
        coords = sp.orbit_coordinates(generic_point, times)
        for t, row in zip(times, coords):
            direct = qt.coordinates(qt.reduce_point(
                qt.act(sl2.unipotent_u(t), generic_point)))
            assert np.max(np.abs(row - direct)) <= 1e-9

    def test_worker_determinism_bitwise(self, generic_point):
        times = sp.generate(sp.Progression(0.37, 250000.0))
        a = sp.orbit_coordinates(generic_point, times, workers=1)
        b = sp.orbit_coordinates(generic_point, times, workers=8)
        assert np.array_equal(a, b)

    def test_time_range_guard(self, generic_point):
        with pytest.raises(GroupDomainError):
            sp.orbit_coordinates(generic_point, np.array([0.0, 2.0e12]))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_time_range_guard_inside_the_orbit(self, process_pools, generic_point, workers):
        # a time beyond the range that is neither a chunk's first nor the
        # last, also behind a NaN; four blocks, so that two workers run two
        # spans in a pool
        for times in ([0.0, 2.0e12, 1.0], [0.0, np.nan, -2.0e12, 1.0]):
            with pytest.raises(GroupDomainError, match="beyond safe range"):
                sp.orbit_coordinates(generic_point, np.array(times), workers)
        times = np.arange(4.0 * qt._BLOCK_ROWS)
        times[3 * qt._BLOCK_ROWS + 7] = -2.0e12
        with pytest.raises(GroupDomainError, match="beyond safe range"):
            sp.orbit_coordinates(generic_point, times, workers)
        assert [pool.processes for pool in process_pools] == ([2] if workers == 2 else [])

    def test_nan_time_gives_a_nan_row(self, generic_point):
        coords = sp.orbit_coordinates(generic_point, np.array([0.0, np.nan, 1.0]))
        assert np.isnan(coords[1]).all() and not np.isnan(coords[[0, 2]]).any()
