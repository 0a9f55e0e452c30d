"""Sieve engine: factor tables, Mertens products, linear-sieve brackets.

The oracles here are deliberately independent implementations (plain
Eratosthenes bitmap, prime-power slicing for Omega, direct products) so
the module under test is never compared against itself.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from horolab import sieve
from horolab.errors import BudgetExhausted, ConfigError

EULER_GAMMA = 0.5772156649015329


# -- independent oracles ------------------------------------------------

def eratosthenes_oracle(n):
    """Boolean primality mask via the textbook sieve, no shared code."""
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(math.isqrt(n)) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return mask


def omega_oracle(n):
    """Omega(m) for m = 0..n by adding 1 for every prime-power divisor."""
    counts = np.zeros(n + 1, dtype=np.int32)
    prime = eratosthenes_oracle(n)
    for p in np.flatnonzero(prime):
        q = int(p)
        while q <= n:
            counts[q::q] += 1
            q *= int(p)
    return counts


def whole_array_prime_log_prefix(z_max):
    """The prime table as one whole-array odd-only sieve and one prefix
    cumsum: the reference for the segmented build's bytes."""
    size = z_max // 2
    mask = np.ones(size, dtype=bool)  # index i <-> odd number 2i+1
    mask[0] = False
    for i in range(1, (int(math.isqrt(z_max)) + 1) // 2 + 1):
        if mask[i]:
            p = 2 * i + 1
            mask[(p * p) // 2:: p] = False
    primes = np.concatenate(([2], 2 * np.flatnonzero(mask) + 1)).astype(float)
    terms = -np.log1p(-1.0 / primes)
    return primes, np.concatenate(([0.0], np.cumsum(terms)))


def full_table_u_tilde(epsilon, z_max):
    """The u~ scan as one pass over the full prime table below z_max: the
    reference for the bracketed scan's bytes."""
    primes, prefix = sieve._prime_log_prefix(z_max)
    u_grid = np.unique(np.exp(np.linspace(math.log(2.0), math.log(z_max / 10.0), 140)))
    z_grid = np.unique(np.exp(np.linspace(math.log(10.0), math.log(float(z_max)), 60)))
    factor = 1.0 + epsilon / 3.0
    ok = np.zeros(len(u_grid), dtype=bool)
    for i, u in enumerate(u_grid):
        zs = z_grid[z_grid > u * 1.0000001]
        if len(zs) == 0:
            ok[i] = True
            continue
        lo = np.searchsorted(primes, u, side="left")
        hi = np.searchsorted(primes, zs, side="left")
        lhs = np.exp(prefix[hi] - prefix[lo])
        rhs = factor * np.log(zs) / math.log(u)
        ok[i] = bool(np.all(lhs < rhs))
    hits = np.flatnonzero(np.logical_and.accumulate(ok[::-1])[::-1])
    if len(hits) == 0:
        raise BudgetExhausted("no admissible u")
    return float(u_grid[hits[0]])


def repeated_division_omega(table):
    """Omega by dividing out the smallest prime factor, one masked pass
    per prime factor over the whole range."""
    counts = np.zeros(table.n_max + 1, dtype=np.int32)
    m = np.arange(table.n_max + 1, dtype=np.int64)
    m[0] = 1
    while True:
        active = m > 1
        if not active.any():
            break
        counts[active] += 1
        m[active] //= table.spf[m[active]]
    return counts


def table_digest(primes, prefix):
    return hashlib.sha256(primes.tobytes() + prefix.tobytes()).hexdigest()[:16]


@pytest.fixture
def cold_prime_cache():
    """Empty the prime-table cache for one test, then put it back."""
    saved = dict(sieve._PRIME_LOG_CACHE)
    sieve._PRIME_LOG_CACHE.clear()
    yield
    sieve._PRIME_LOG_CACHE.clear()
    sieve._PRIME_LOG_CACHE.update(saved)


@pytest.fixture(scope="module")
def table_1e6():
    return sieve.build_factor_table(1_000_000)


@pytest.fixture(scope="module")
def omega_1e6():
    return omega_oracle(1_000_000)


@pytest.fixture(scope="module")
def table_small():
    return sieve.build_factor_table(10_000)


class TestFactorTable:
    def test_smallest_prime_factor_basics(self, table_small):
        assert table_small.spf[2] == 2
        assert table_small.spf[1] == 1
        assert table_small.spf[9] == 3
        assert table_small.spf[91] == 7  # 7 * 13

    def test_prime_count_against_oracle(self, table_1e6):
        oracle = int(eratosthenes_oracle(1_000_000).sum())
        assert len(table_1e6.primes) == oracle == 78498

    def test_omega_pinned_values(self, table_small):
        omega = table_small.omega_all()
        assert omega[1] == 0
        assert omega[2 ** 10] == 10
        assert omega[6] == 2
        assert omega[8] == 3

    def test_omega_against_oracle(self, table_1e6, omega_1e6):
        ours = table_1e6.omega_all()[1:1_000_001]
        assert np.array_equal(ours, omega_1e6[1:])

    @pytest.mark.parametrize("n_max", [2, 3, 4, 5, 1023, 1024, 1025, 100_001])
    def test_omega_equals_repeated_division(self, n_max):
        # block ends at and beside powers of two
        table = sieve.build_factor_table(n_max)
        ours = table.omega_all()
        ref = repeated_division_omega(table)
        assert ours.dtype == np.int8
        assert np.array_equal(ours, ref)
        assert not ours.flags.writeable

    def test_table_widths(self, table_small):
        # n < 2^31 fits int32, and Omega(n) <= log2 n < 31 fits int8
        assert table_small.spf.dtype == table_small.primes.dtype == np.int32
        assert table_small.rough_rows(7.0).dtype == np.int32
        assert table_small.omega_all().dtype == np.int8

    def test_range_past_int32_rejected_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=r"below 2\^31"):
                sieve.build_factor_table(2**31)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        sieve.check_table_range(2**31 - 1)  # the largest n_max that fits

    def test_omega_computed_once_per_table(self):
        table = sieve.build_factor_table(1000)
        first = table.omega_all()
        assert table.omega_all() is first

    def test_almost_primes_level_one(self):
        got = set(sieve.almost_primes(1, 20).tolist())
        primes = {2, 3, 5, 7, 11, 13, 17, 19}
        assert got == {1} | primes

    def test_almost_primes_level_two(self):
        got = sieve.almost_primes(2, 10)
        assert got.tolist() == [1, 2, 3, 4, 5, 6, 7, 9, 10]

    def test_almost_primes_level_past_int8(self):
        # an int8 Omega compared with a level it cannot hold
        assert sieve.almost_primes(200, 1000).tolist() == list(range(1, 1001))

    def test_almost_primes_counts_match_oracle(self, omega_1e6):
        ours = sieve.almost_primes(3, 1_000_000)
        expect = np.flatnonzero(omega_1e6 <= 3)[1:]  # drop n=0
        assert np.array_equal(ours, expect)


_BOUNDARY_1 = 2 * sieve._SIEVE_SEGMENT  # z_max // 2 slots fill exactly one segment
_BOUNDARY_2 = 4 * sieve._SIEVE_SEGMENT


@pytest.mark.usefixtures("cold_prime_cache")
class TestPrimeTable:
    @pytest.mark.parametrize("z_max", [
        4, 5, 100_003,
        _BOUNDARY_1 - 1, _BOUNDARY_1, _BOUNDARY_1 + 1, _BOUNDARY_1 + 2,
        _BOUNDARY_2 - 1, _BOUNDARY_2, _BOUNDARY_2 + 1, _BOUNDARY_2 + 2,
    ])
    def test_segmented_equals_whole_array(self, z_max):
        primes, prefix = sieve._prime_log_prefix(z_max)
        ref_primes, ref_prefix = whole_array_prime_log_prefix(z_max)
        assert primes.tobytes() == ref_primes.tobytes()
        assert prefix.tobytes() == ref_prefix.tobytes()

    @pytest.mark.parametrize("z_max, digest", [
        (10**6, "505becf71d39a648"),
        (10**7, "e193613aaece1c17"),
        (10**8, "2723bf0e38f8e75f"),
    ])
    def test_pinned_bytes(self, z_max, digest):
        assert table_digest(*sieve._prime_log_prefix(z_max)) == digest

    def test_slice_of_cached_table(self):
        sieve._prime_log_prefix(10**7)
        assert table_digest(*sieve._prime_log_prefix(10**6)) == "505becf71d39a648"
        assert list(sieve._PRIME_LOG_CACHE) == [10**7]

    def test_smallest_table(self):
        primes, prefix = sieve._prime_log_prefix(3)
        assert primes.tolist() == [2.0]
        assert prefix.tolist() == [0.0, math.log(2.0)]

    @pytest.mark.parametrize("z_max", [0, 1, 2])
    def test_too_small_rejected(self, z_max):
        with pytest.raises(ValueError):
            sieve._prime_log_prefix(z_max)

    def test_empty_product_on_tiny_table(self):
        assert sieve.mertens_product(1.5, 2.0) == 1.0
        assert sieve.mertens_product(1.2, 1.5) == 1.0

    def test_cold_build_peak_memory(self):
        tracemalloc.start()
        try:
            primes, prefix = sieve._prime_log_prefix(10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (primes.nbytes + prefix.nbytes)


class TestMertens:
    def test_v_of_z_small(self):
        # (1/2)(2/3)(4/5)(6/7)
        assert abs(sieve.v_of_z(10.0) - 8.0 / 35.0) <= 1e-12

    def test_v_of_z_mertens_band(self):
        prod = sieve.v_of_z(1_000_000.0) * math.log(1_000_000.0)
        base = math.exp(-EULER_GAMMA)
        assert 0.9 * base <= prod <= 1.1 * base

    def test_product_inequality_fails_at_two(self):
        rep = sieve.mertens_check(2.0, 10.0, 0.003)
        assert abs(rep.lhs - 4.375) <= 1e-9      # 35/8 exactly
        assert abs(rep.rhs - 1.001 * math.log(10.0) / math.log(2.0)) <= 1e-9
        assert not rep.holds

    @pytest.mark.usefixtures("cold_prime_cache")
    def test_small_z_builds_a_small_table(self):
        # the primes below ceil(z) are the primes below z; no 10^8 table
        assert not sieve.mertens_check(2.0, 10.0, 0.003).holds
        assert max(sieve._PRIME_LOG_CACHE) <= sieve._MERTENS_CUT

    @pytest.mark.usefixtures("cold_prime_cache")
    @pytest.mark.parametrize("z", [10.0, 10.5, 11.0, 1e3 + 0.25, 2e5])
    def test_product_reads_the_same_bytes_from_any_table(self, z):
        small = sieve.mertens_product(2.0, z)
        sieve._prime_log_prefix(10**6)
        assert sieve.mertens_product(2.0, z) == small

    def test_threshold_scan_stabilizes(self):
        u_tilde = sieve.empirical_u_tilde(0.012, z_max=10**7)
        # past the reported threshold the inequality holds on spot checks
        for u in (u_tilde, 2 * u_tilde, 10 * u_tilde):
            for z in (1e5, 1e6, 1e7):
                if z > u * 1.01:
                    assert sieve.mertens_check(u, z, 0.012).holds

    def test_threshold_pinned_at_default_range(self):
        # the threshold that dichotomy and criterion 09 use
        assert sieve.empirical_u_tilde(0.012) == 211.43613217930053

    def test_threshold_decreasing_in_epsilon(self):
        loose = sieve.empirical_u_tilde(0.012, z_max=10**6)
        tight = sieve.empirical_u_tilde(0.004, z_max=10**6)
        assert tight >= loose


# (z_max, epsilon) -> the threshold and the prime table the bracketed scan
# leaves behind; 0.0003 at 10^8 has undecided rows, so it reads the full table
_CUT = sieve._MERTENS_CUT
_U_TILDE_SWEEP = [
    (10**8, 0.012, 211.43613217930053, _CUT),
    (10**8, 0.03, 32.05388805526004, _CUT),
    (10**8, 0.004, 1558.3741089156058, _CUT),
    (10**8, 0.003, 1558.3741089156058, _CUT),
    (10**8, 0.001, 16023.092104619202, _CUT),
    (10**8, 0.0003, 60684.06639192601, 10**8),
    (10**7, 0.012, 105.44377171996248, _CUT),
    (10**7, 0.003, 2870.8690238602485, _CUT),
    (10**7, 0.0003, 78163.82909793004, _CUT),
    (10**6, 0.012, 105.9528187857711, 10**6),
    (10**6, 0.004, 2785.769494989476, 10**6),
    (10**6, 0.0003, 85583.27879644078, 10**6),
]


@pytest.mark.usefixtures("cold_prime_cache")
class TestUTildeReference:
    """The bracketed scan against the full-table scan, byte for byte."""

    @pytest.mark.parametrize("z_max, epsilon, u_tilde, table", _U_TILDE_SWEEP)
    def test_equals_full_table_scan(self, z_max, epsilon, u_tilde, table):
        got = sieve.empirical_u_tilde.__wrapped__(epsilon, z_max)  # bypass the cache
        assert list(sieve._PRIME_LOG_CACHE) == [table]
        assert got == full_table_u_tilde(epsilon, z_max) == u_tilde

    def test_no_admissible_u_without_full_table(self):
        # the top row is proved false without the full table, so no row reads it
        with pytest.raises(BudgetExhausted):
            sieve.empirical_u_tilde.__wrapped__(0.0001, 10**7)
        assert list(sieve._PRIME_LOG_CACHE) == [_CUT]
        with pytest.raises(BudgetExhausted):
            full_table_u_tilde(0.0001, 10**7)

    def test_bracket_holds_on_the_table(self):
        # Dusart's bracket around the float prefix at every prime in
        # (cut, 10^8), just below it (p < x) and at it (p <= x)
        primes, prefix = sieve._prime_log_prefix(10**8)
        first = np.searchsorted(primes, _CUT, side="right")
        low, high = sieve._mertens_log_bracket(primes[first:])
        for sums in (prefix[first:-1], prefix[first + 1:]):
            assert np.all(low + sieve._BRACKET_MARGIN < sums)
            assert np.all(sums < high - sieve._BRACKET_MARGIN)


@pytest.fixture(scope="module")
def fns():
    return sieve.linear_sieve_functions()


class TestLinearSieveFunctions:
    def test_boundary_values(self, fns):
        assert fns.lower(2.0) == 0.0
        assert abs(float(fns.upper(2.0)) - math.exp(EULER_GAMMA)) <= 1e-9

    def test_branch_continuity(self, fns):
        assert abs(float(fns.upper(3.0 - 1e-9)) - float(fns.upper(3.0 + 1e-9))) <= 1e-6
        assert abs(float(fns.lower(4.0 - 1e-9)) - float(fns.lower(4.0 + 1e-9))) <= 1e-6

    def test_ordering_and_monotonicity(self, fns):
        s = np.linspace(2.05, 39.5, 4000)
        upper = fns.upper(s)
        lower = fns.lower(s)
        assert np.all(lower <= 1.0 + 1e-12)
        assert np.all(upper >= 1.0 - 1e-12)
        assert np.all(np.diff(upper) <= 1e-12)
        assert np.all(np.diff(lower) >= -1e-12)

    def test_exponential_envelope(self, fns):
        s = np.linspace(10.0, 39.0, 300)
        assert np.all(np.abs(fns.upper(s) - 1.0) <= 5.0 * np.exp(-s))
        assert np.all(np.abs(1.0 - fns.lower(s)) <= 5.0 * np.exp(-s))

    def test_self_check_report(self, fns):
        # the grid-level shape certificates: the checks above at every node
        # of the integration grid itself, and F0(2) = e^gamma
        upper, lower = fns.upper(fns.s_grid), fns.lower(fns.s_grid)
        assert np.all(np.diff(upper) <= 1e-12) and np.all(np.diff(lower) >= -1e-12)
        assert np.all(lower <= 1.0 + 1e-12) and np.all(upper >= 1.0 - 1e-12)
        tail = fns.s_grid >= 10.0
        bound = 5.0 * np.exp(-fns.s_grid[tail])
        assert np.all(np.abs(upper[tail] - 1.0) <= bound)
        assert np.all(np.abs(1.0 - lower[tail]) <= bound)
        assert abs(fns.upper(2.0) - math.exp(EULER_GAMMA)) <= 1e-9

    @pytest.mark.parametrize("s_max, grid_step, digest", [
        (40.0, 1e-3, "4a99c9ff9a926927"),
        (20.0, 5e-4, "9b59c630f083f678"),
        (60.0, 2.5e-4, "4eda701485ce0c78"),
    ])
    def test_pinned_bytes(self, s_max, grid_step, digest):
        fns = sieve.linear_sieve_functions(s_max, grid_step)
        # the clamp fires inside each grid, so the pin covers the zeroed tail
        assert fns.p_dev[-1] == 0.0 and fns.q_dev[-1] == 0.0
        data = fns.p_dev.tobytes() + fns.q_dev.tobytes()
        assert hashlib.sha256(data).hexdigest()[:16] == digest


class TestSieveBounds:
    def test_remainder_pinned(self):
        prob = sieve.SieveProblem(weights=np.ones(31), z=6.0, level_d=36.0,
                                  epsilon=0.004)
        assert abs(sieve.remainder_r(prob, 7) - (4.0 - 30.0 / 7.0)) <= 1e-12

    def test_total_summed_once(self, monkeypatch):
        rng = np.random.default_rng(7)
        prob = sieve.SieveProblem(weights=rng.uniform(0.0, 1.0, 1001), z=5.0,
                                  level_d=1000.0, epsilon=0.004)
        expected = sum(abs(sieve.remainder_r(prob, d)) for d in
                       sieve._squarefree_divisors(sieve.primes_below(5.0),
                                                  1000.0, prob.remainder_budget))
        calls = []
        total = sieve.SieveProblem.total
        monkeypatch.setattr(sieve.SieveProblem, "total",
                            lambda self: calls.append(1) or total(self))
        rep = sieve.sieve_bounds(prob)
        assert rep.divisor_count > 1 and len(calls) == 1
        assert rep.remainder == expected

    def test_exact_count_pinned(self):
        prob = sieve.SieveProblem(weights=np.ones(31), z=6.0, level_d=36.0,
                                  epsilon=0.004)
        # {1, 7, 11, 13, 17, 19, 23, 29}
        assert sieve.brute_force_S(prob) == 8.0

    def test_degenerate_no_sieving(self):
        prob = sieve.SieveProblem(weights=np.ones(101), z=2.0, level_d=16.0,
                                  epsilon=0.004)
        rep = sieve.sieve_bounds(prob)
        assert rep.s_exact == prob.total() == rep.big_x
        assert rep.remainder == 0.0
        assert rep.brackets_hold

    def test_bracket_on_unit_weights(self):
        n = 10_000
        z = float(n) ** (1.0 / 9.0)
        prob = sieve.SieveProblem(weights=np.ones(n + 1), z=z, level_d=z ** 9,
                                  epsilon=0.004, exclude_below=211.44)
        rep = sieve.sieve_bounds(prob)
        assert rep.lower - 1e-9 <= rep.s_exact <= rep.upper + 1e-9
        assert rep.admissible

    def test_bracket_on_random_weights(self, rng):
        n = 10_000
        z = float(n) ** (1.0 / 9.0)
        for _ in range(5):
            w = rng.uniform(0.0, 2.0, size=n + 1)
            prob = sieve.SieveProblem(weights=w, z=z, level_d=z ** 9,
                                      epsilon=0.004, exclude_below=211.44)
            rep = sieve.sieve_bounds(prob)
            assert rep.brackets_hold

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            sieve.SieveProblem(weights=np.array([0.0, -1.0]), z=3.0,
                               level_d=10.0, epsilon=0.004)

    def test_divisor_budget_exhaustion(self):
        prob = sieve.SieveProblem(weights=np.ones(10_001), z=50.0,
                                  level_d=50.0 ** 4, epsilon=0.004,
                                  remainder_budget=3)
        with pytest.raises(BudgetExhausted) as info:
            sieve.sieve_bounds(prob)
        assert info.value.partial is not None

    def test_buchstab_identity(self):
        prob = sieve.SieveProblem(weights=np.ones(1001), z=20.0,
                                  level_d=400.0, epsilon=0.004)
        for z_prime in (3.0, 5.0, 11.0, 20.0):
            assert abs(sieve.buchstab_defect(prob, z_prime)) <= 1e-9


class TestCaches:
    """Each table is built once per argument list, shared read-only."""

    def test_factor_table_built_once(self):
        assert sieve.build_factor_table(1000) is sieve.build_factor_table(1000)

    def test_tables_read_only(self):
        table = sieve.build_factor_table(1000)
        fns = sieve.linear_sieve_functions()
        for arr in (table.spf, table.primes, sieve.primes_below(50.0),
                    fns.s_grid, fns.p_dev, fns.q_dev):
            assert not arr.flags.writeable

    @pytest.mark.usefixtures("cold_prime_cache")
    def test_dichotomy_builds_each_table_once(self):
        from horolab import experiments as ex

        sieve.build_factor_table.cache_clear()
        sieve.empirical_u_tilde.cache_clear()
        rec = ex.run(ex.ExperimentConfig(kind="dichotomy", mode="almost", n_max=20_000))
        assert len(rec.payload["cover"]) == 10
        scans = sieve.empirical_u_tilde.cache_info()
        assert (scans.hits, scans.misses) == (9, 1)
        # three tables, each built once: 1..N, the primes below z = N^(1/9)
        # (the table of 1..3), and the base primes of the u-tilde scan's
        # prime table below the cut (the table of 1..isqrt(2 278 383) = 1509)
        assert sieve.build_factor_table.cache_info().misses == 3
        for n in (20_000, 3, math.isqrt(sieve._MERTENS_CUT)):
            sieve.build_factor_table(n)
        assert sieve.build_factor_table.cache_info().misses == 3

    def test_omega_mask_built_once_per_level(self):
        table = sieve.build_factor_table(1000)
        mask = table.omega_at_most(3)
        assert table.omega_at_most(3) is mask
        assert not mask.flags.writeable
        assert mask.tobytes() == (table.omega_all() <= 3).tobytes()
        assert table.omega_at_most(4) is not mask

    @pytest.mark.usefixtures("cold_prime_cache")
    @pytest.mark.parametrize("argv", [
        ["dichotomy", "mode=almost", "N=2e4"],
        ["sieve", "N=1e6", "z-exp=0.1111", "s=9"],
    ])
    def test_no_prime_table_past_the_cut(self, capsys, argv):
        from horolab.cli import main

        sieve.empirical_u_tilde.cache_clear()
        assert main(argv) == 0
        assert max(sieve._PRIME_LOG_CACHE) <= sieve._MERTENS_CUT


class TestPipelineReuse:
    """The ten pipelines of a dense-branch run share the rough-number rows per
    z and do not copy weights whose a(0) is already +0.0, with the bytes of
    the boolean-mask sums they replace."""

    @staticmethod
    def weights(n: int) -> np.ndarray:
        # sparse, like a cover bump's weights, with -0.0 off the support
        w = np.random.default_rng(23).uniform(0.0, 1.0, n + 1)
        w[w < 0.9] = -0.0
        w[0] = 0.0
        return w

    @pytest.mark.parametrize("n, alpha, s", [(10_000, 1.0 / 9.0, 9.0), (100_000, 0.25, 9.0),
                                             (20_011, 0.2, 3.0)])
    def test_bytes_equal_mask_sums(self, n, alpha, s):
        w = self.weights(n)
        rep = sieve.dynamical_sieve_pipeline(w, alpha, s_target=s)
        spf = sieve.build_factor_table(n).spf
        mask = spf >= rep.z
        mask[1] = True
        old_w = w.copy()
        old_w[0] = 0.0
        assert rep.bounds.s_exact == float(old_w[mask].sum())
        omega = sieve.build_factor_table(n).omega_all()[1:]
        assert rep.omega_sum == float(old_w[1:][omega <= rep.level].sum())

    def test_rough_rows_cached_per_z(self):
        table = sieve.build_factor_table(1000)
        rows = table.rough_rows(7.0)
        assert table.rough_rows(7.0) is rows
        assert not rows.flags.writeable
        # 1, then the n with no prime factor below 7
        expect = [1] + [m for m in range(2, 1001) if all(m % p for p in (2, 3, 5))]
        assert rows.tolist() == expect
        assert table.rough_rows(5.0).tolist() == [1] + [m for m in range(2, 1001)
                                                        if all(m % p for p in (2, 3))]

    def test_zero_first_weight_is_not_copied(self):
        w = self.weights(1000)
        prob = sieve.SieveProblem(weights=w, z=5.0, level_d=25.0, epsilon=0.004)
        assert prob.weights is w

    @pytest.mark.parametrize("first", [1.0, -0.0])
    def test_callers_weights_are_left_unchanged(self, first):
        w = self.weights(1000)
        w[0] = first
        before = w.tobytes()
        prob = sieve.SieveProblem(weights=w, z=5.0, level_d=25.0, epsilon=0.004)
        assert w.tobytes() == before
        assert prob.weights is not w
        assert prob.weights[:1].tobytes() == np.zeros(1).tobytes()
        assert prob.weights[1:].tobytes() == w[1:].tobytes()
        rep = sieve.dynamical_sieve_pipeline(w, 0.25, s_target=9.0)
        assert w.tobytes() == before
        rows = sieve.build_factor_table(1000).rough_rows(rep.z)
        assert rep.bounds.s_exact == float(np.take(prob.weights, rows).sum())


class TestPipeline:
    def test_unit_weight_run(self):
        rep = sieve.dynamical_sieve_pipeline(
            np.ones(10_001), 1.0 / 9.0, s_target=9.0)
        assert rep.level == 10
        assert rep.bounds.brackets_hold
        assert rep.chain_ok
        assert rep.omega_sum >= rep.bounds.s_exact

    def test_weight_scaling_linearity(self):
        w = np.ones(10_001)
        one = sieve.dynamical_sieve_pipeline(w, 1.0 / 9.0, s_target=9.0)
        two = sieve.dynamical_sieve_pipeline(2.0 * w, 1.0 / 9.0, s_target=9.0)
        assert abs(two.bounds.s_exact - 2.0 * one.bounds.s_exact) <= 1e-6
        assert abs(two.omega_sum - 2.0 * one.omega_sum) <= 1e-6

    def test_tiny_range_rejected(self):
        with pytest.raises(ValueError):
            sieve.dynamical_sieve_pipeline(np.ones(50), 1.0 / 9.0)
