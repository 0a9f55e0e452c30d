"""Linear-sieve machinery over nonnegative weight sequences.

The sieve sum of a weight sequence a(1..N) is

    S(A, P, z) = sum of a(n) over n coprime to every prime p < z,

and the engine brackets it between the classical linear-sieve bounds

    S <  (F0(s) + eps e^{14-s}) X + R      (valid once D >= z)
    S >  (f0(s) - eps e^{14-s}) X - R      (valid once D >= z^2)

with s = log D / log z, X = V(z) |A|, V(z) = prod_{p<z} (1 - g(p)) and
R the accumulated remainders |r(d)| = | |A_d| - g(d) |A| | over squarefree
d | P(z), d < D*Q.  The bracket requires the one-dimensional density
condition: for every 1 < u < z,

    prod over p not in Q, u <= p < z of (1 - g(p))^{-1} < (1+eps) log z / log u,

which for g = 1/d holds above an empirically scanned threshold u~(eps)
(Mertens-type products stabilise); Q is then the finite set of primes
below that threshold and Q* their product widens the remainder range.

F0 and f0 start on their elementary branches

    F0(s) = 2 e^gamma / s             (0 < s <= 3)
    f0(s) = 0                         (0 < s <= 2)
    f0(s) = 2 e^gamma log(s-1) / s    (2 <= s <= 4)

and continue by the coupled delay equations (s F0)' = f0(s-1),
(s f0)' = F0(s-1), integrated here in the deviation variables
p = s(F0 - 1), q = s(1 - f0) so the super-exponentially small tails are
not lost to cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import BudgetExhausted, ConfigError
from .quadrature import distinct_sorted, gl_nodes

EULER_GAMMA = float(np.euler_gamma)

# Default enumeration cap for the remainder sum; a genuine run that needs
# more divisors than this should raise rather than silently truncate.
REMAINDER_BUDGET = 200_000

# Threshold below which the deviation variables of the delayed system are
# clamped to exactly zero.  The true deviations cross this level near
# s ~ 10-11 where the certified envelope 5 e^{-s} is still ~ 1e-4, so
# clamping is harmless there and keeps the far tail exactly 1 instead of
# letting it plateau at the integration noise floor.
_DEVIATION_CLAMP = 1e-9


# ----------------------------------------------------------------------
# smallest-prime-factor table and multiplicity counts
# ----------------------------------------------------------------------

@dataclass
class FactorTable:
    """Smallest-prime-factor table for 1..n_max (spf[1] = 1 by convention)."""

    n_max: int
    spf: np.ndarray
    primes: np.ndarray
    _omega: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _rough: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def omega_all(self) -> np.ndarray:
        """Omega(n), prime factors with multiplicity, for n = 0..n_max
        (index 0 unused, set to 0).  Computed once and cached on the table.

        Filled by Omega(n) = Omega(n / spf(n)) + 1 over the doubling blocks
        [lo, 2 lo), lo = 2, 4, 8, ...: every quotient n / spf(n) <= n / 2
        lies in an earlier block, so each block is one gather."""
        if self._omega is not None:
            return self._omega
        counts = np.zeros(self.n_max + 1, dtype=np.int32)
        lo = 2
        while lo <= self.n_max:
            hi = min(2 * lo, self.n_max + 1)
            counts[lo:hi] = counts[np.arange(lo, hi) // self.spf[lo:hi]] + 1
            lo = hi
        counts.flags.writeable = False  # shared by every caller of this table
        self._omega = counts
        return counts

    def rough_rows(self, z: float) -> np.ndarray:
        """The ascending n in {1} and {n : spf(n) >= z}: those no prime below
        z divides.  Computed once per z and cached on the table."""
        rows = self._rough.get(z)
        if rows is None:
            mask = self.spf >= z
            mask[1] = True
            rows = np.flatnonzero(mask)
            rows.flags.writeable = False  # shared by every caller of this table
            self._rough[z] = rows
        return rows


@cache
def build_factor_table(n_max: int) -> FactorTable:
    """The factor table of 1..n_max, built once per n_max; its arrays are read-only."""
    if n_max < 1:
        raise ConfigError("factor table needs n_max >= 1")
    spf = np.zeros(n_max + 1, dtype=np.int64)
    for p in range(2, int(math.isqrt(n_max)) + 1):
        if spf[p] == 0:
            sl = spf[p * p:: p]
            sl[sl == 0] = p
    unmarked = spf == 0
    spf[unmarked] = np.arange(n_max + 1)[unmarked]  # primes (and 0,1) map to themselves
    spf[1] = 1
    primes = np.flatnonzero(spf == np.arange(n_max + 1))[2:]  # drop 0 and 1
    spf.flags.writeable = primes.flags.writeable = False  # shared by every caller
    return FactorTable(n_max=n_max, spf=spf, primes=primes)


def almost_primes(level: int, n_max: int) -> np.ndarray:
    """All n <= n_max with Omega(n) <= level, ascending; contains 1."""
    if level < 0:
        raise ValueError("level must be >= 0")
    hits = np.flatnonzero(build_factor_table(n_max).omega_all() <= level)
    return hits[hits >= 1]


def primes_below(z: float) -> np.ndarray:
    """Ascending primes p < z (strict): those of the table of 1..ceil(z) - 1."""
    return build_factor_table(max(math.ceil(z) - 1, 1)).primes


# ----------------------------------------------------------------------
# Mertens-type products and the empirical admissibility threshold
# ----------------------------------------------------------------------

_PRIME_LOG_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}

# u and z points of the log-spaced empirical_u_tilde scan grid
_U_GRID_SIZE, _Z_GRID_SIZE = 140, 60

# odd slots struck per segment of the prime-table sieve: 512 KiB of bool,
# so the strided strikes stay inside one core's L2 cache
_SIEVE_SEGMENT = 1 << 19


def _prime_log_prefix(z_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(primes < z_max, prefix sums of -log(1 - 1/p)); cached.

    Odd-only segmented Eratosthenes: slot i stands for the odd number
    2i + 1, and the z_max // 2 slots are struck _SIEVE_SEGMENT at a time.
    The odd base primes p <= sqrt(z_max) come from a small factor table;
    each keeps the slot of its next odd multiple across segments (its
    first is p^2 // 2), and a segment stops at the first base prime whose
    p^2 // 2 lies past it.  Each segment's primes join the table as
    float64 at once, so no full-range bool array is ever alive.

    The prefix is built in place in one array whose slot 0 is 0.0 and
    whose slot j holds -log1p(-1/p_j) before the running sum: cumsum is
    sequential, 0.0 + t_1 == t_1 exactly, so its bytes equal those of
    concatenate(([0.0], cumsum(terms))).
    """
    if z_max < 3:
        raise ValueError("z_max too small")
    for cached_max in _PRIME_LOG_CACHE:
        if cached_max >= z_max:
            primes, prefix = _PRIME_LOG_CACHE[cached_max]
            cut = np.searchsorted(primes, z_max)
            return primes[:cut], prefix[: cut + 1]
    size = z_max // 2  # odd numbers 1, 3, ..., below z_max
    base_primes = primes_below(math.isqrt(z_max) + 1)[1:].tolist()  # odd, <= sqrt(z_max)
    next_slot = [(p * p) // 2 for p in base_primes]
    # float64 is exact below 2^53 and matches the float search keys, so
    # np.searchsorted never casts the whole table
    chunks = [np.array([2.0])]
    segment = np.empty(_SIEVE_SEGMENT, dtype=bool)
    for lo in range(0, size, _SIEVE_SEGMENT):
        hi = min(lo + _SIEVE_SEGMENT, size)
        seg = segment[: hi - lo]
        seg[:] = True
        if lo == 0:
            seg[0] = False  # 1 is not prime
        for j, p in enumerate(base_primes):
            if (p * p) // 2 >= hi:
                break
            start = next_slot[j]  # past hi only in a short last segment
            seg[start - lo:: p] = False
            next_slot[j] = start + p * ((hi - start + p - 1) // p)
        odd = np.flatnonzero(seg)
        odd += lo
        chunks.append((2 * odd + 1).astype(float))
    primes = np.concatenate(chunks)
    del chunks  # before the prefix exists, so the peak stays near the result
    prefix = np.empty(len(primes) + 1)
    prefix[0] = 0.0
    terms = prefix[1:]
    np.divide(-1.0, primes, out=terms)
    np.log1p(terms, out=terms)
    np.negative(terms, out=terms)
    np.cumsum(prefix, out=prefix)
    _PRIME_LOG_CACHE.clear()
    _PRIME_LOG_CACHE[z_max] = (primes, prefix)
    return primes, prefix


def mertens_product(u: float, z: float) -> float:
    """prod over u <= p < z of (1 - 1/p)^{-1}, by cached prefix sums.

    Reads the table of primes below ceil(z), which are the primes below z,
    or a slice of a larger cached table, with the same bytes.
    """
    if not (1.0 < u < z):
        raise ValueError("need 1 < u < z")
    primes, prefix = _prime_log_prefix(max(math.ceil(z), 3))
    lo = np.searchsorted(primes, u, side="left")
    hi = np.searchsorted(primes, z, side="left")
    return float(np.exp(prefix[hi] - prefix[lo]))


@dataclass(frozen=True)
class MertensReport:
    lhs: float
    rhs: float
    holds: bool


def mertens_check(u: float, z: float, epsilon: float) -> MertensReport:
    """Check prod_{u<=p<z} (1-1/p)^{-1} < (1 + eps/3) log z / log u."""
    lhs = mertens_product(u, z)
    rhs = (1.0 + epsilon / 3.0) * math.log(z) / math.log(u)
    return MertensReport(lhs=lhs, rhs=rhs, holds=lhs < rhs)


# Cut of the exact u~ scan.  Past it the scan bounds the Mertens product
# instead of reading a prime table, by P. Dusart, "Explicit estimates of
# some functions over primes", Ramanujan J. 45 (2018): for x >= 2 278 383
#     prod_{p<=x} (1 - 1/p) = e^{-gamma} / log x * (1 + t),  |t| <= 0.2 / log^3 x.
# The same bracket holds for prod_{p<x} when x > the cut (a limit from the
# left).  Below the cut the error can be larger (1.58 / log^3 x at x = 2973),
# so the bound is never used there.
_MERTENS_CUT = 2_278_383

# Largest table the bracket stands in for, and the room a bracketed pair
# must clear in log space.  The scan's float prefix at the k-th prime sums
# k terms -log1p(-1/p), each within 8u of its true value (u = 2^-53: one
# rounding for 1/p, a few ulps for log1p), by a sequential cumsum whose
# error is at most (k - 1) u times the running sum.  Below 10^8,
# k <= pi(10^8) = 5 761 455 and the sum is -log prod_{p<10^8} (1 - 1/p)
# < 3.5, so each prefix entry is within (5 761 455 + 8) u * 3.5 < 2.3e-9 of
# the exact sum.  A pair reads two entries, and exp, log and the rhs add a
# few ulps: 1e-8 covers all of it twice over, so a bracket that clears it
# fixes the bit the full-table comparison computes.
_BRACKET_TABLE_MAX = 10**8
_BRACKET_MARGIN = 1e-8


def _mertens_log_bracket(x) -> tuple:
    """(low, high) around sum_{p<x} -log(1 - 1/p) for x > _MERTENS_CUT."""
    log_x = np.log(x)
    delta = 0.2 / log_x ** 3
    mid = EULER_GAMMA + np.log(log_x)
    return mid - np.log1p(delta), mid - np.log1p(-delta)


@cache
def empirical_u_tilde(epsilon: float, z_max: int = 10**8) -> float:
    """Least grid u such that the Mertens inequality holds for every grid
    u' >= u against every grid z in (u', z_max].

    Purely empirical: the returned threshold is a property of the scan
    grid and is recorded alongside any result that depends on it.  It is
    not a threshold for every u and z: mertens_check(223, 283.0000003,
    0.012) fails (lhs 1.05737 against rhs 1.04824) although 223 > u~(0.012)
    = 211.4, because neither point is on the grid.  No reported flag rests
    on it: admissibility_check tests the density condition exactly at the
    pipeline's own z.

    The result equals, bit for bit, that of comparing exp of the float
    prefix sums of all primes below z_max with the rhs at every grid pair,
    but only pairs with z <= _MERTENS_CUT read those sums, from the table
    of primes below the cut.  A pair with z past the cut is decided by
    Dusart's bracket of the Mertens product (see _MERTENS_CUT), at u too
    when u is past the cut, once the bracket clears the comparison by
    _BRACKET_MARGIN.  A row with an undecided pair is read from the full
    table of primes below z_max, unless a row above it is already proved
    false, since then it cannot move the threshold.  For z_max past
    _BRACKET_TABLE_MAX the scan reads the full table throughout.  Scanned
    once per (epsilon, z_max).
    """
    u_grid = distinct_sorted(
        np.exp(np.linspace(math.log(2.0), math.log(z_max / 10.0), _U_GRID_SIZE)))
    z_grid = distinct_sorted(
        np.exp(np.linspace(math.log(10.0), math.log(float(z_max)), _Z_GRID_SIZE)))
    factor = 1.0 + epsilon / 3.0
    cut = _MERTENS_CUT if z_max <= _BRACKET_TABLE_MAX else z_max
    primes, prefix = _prime_log_prefix(min(z_max, cut))

    def row(u):
        zs = z_grid[z_grid > u * 1.0000001]
        return zs, factor * np.log(zs) / math.log(u)

    def holds(primes, prefix, u, zs, rhs):
        # the scan's float comparison: prefix sums over u <= p < z
        lo = np.searchsorted(primes, u, side="left")
        hi = np.searchsorted(primes, zs, side="left")
        return np.exp(prefix[hi] - prefix[lo]) < rhs

    ok = np.zeros(len(u_grid), dtype=bool)
    undecided = np.zeros(len(u_grid), dtype=bool)
    for i, u in enumerate(u_grid):
        zs, rhs = row(u)
        near = zs <= cut
        if not np.all(holds(primes, prefix, u, zs[near], rhs[near])):
            continue  # proved false
        if np.all(near):
            ok[i] = True
            continue
        z_low, z_high = _mertens_log_bracket(zs[~near])
        if u <= cut:
            u_low = u_high = prefix[np.searchsorted(primes, u, side="left")]
        else:
            u_low, u_high = _mertens_log_bracket(u)
        log_rhs = np.log(rhs[~near])
        if np.any(z_low - u_high - _BRACKET_MARGIN > log_rhs):
            continue  # proved false
        ok[i] = np.all(z_high - u_low + _BRACKET_MARGIN < log_rhs)
        undecided[i] = not ok[i]
    refuted = np.flatnonzero(~ok & ~undecided)
    redo = np.flatnonzero(undecided)
    redo = redo[redo > refuted[-1]] if len(refuted) else redo
    if len(redo):
        primes, prefix = _prime_log_prefix(z_max)
        for i in redo:
            ok[i] = np.all(holds(primes, prefix, u_grid[i], *row(u_grid[i])))
    suffix_ok = np.logical_and.accumulate(ok[::-1])[::-1]
    hits = np.flatnonzero(suffix_ok)
    if len(hits) == 0:
        raise BudgetExhausted(f"no admissible u on the scan grid up to {u_grid[-1]:.3g}")
    return float(u_grid[hits[0]])


# ----------------------------------------------------------------------
# linear-sieve functions F0, f0
# ----------------------------------------------------------------------

@dataclass
class LinearSieveFunctions:
    """Grid-backed F0/f0 with elementary branches and a clamped tail.

    The grid step is <= 1e-3; on [1,3] (resp. (0,2] and [2,4]) the closed
    branches are used exactly; past s_max both functions are exactly 1
    (their true deviations there are below double precision).
    """

    s_max: float
    s_grid: np.ndarray
    p_dev: np.ndarray  # s * (F0(s) - 1)
    q_dev: np.ndarray  # s * (1 - f0(s))

    def upper(self, s) -> np.ndarray | float:
        """F0(s); domain s > 0."""
        s_arr = np.asarray(s, dtype=float)
        if np.any(s_arr <= 0):
            raise ValueError("F0 needs s > 0")
        out = np.ones_like(s_arr)
        small = s_arr <= 3.0
        out = np.where(small, 2.0 * np.exp(EULER_GAMMA) / np.maximum(s_arr, 1e-300), out)
        mid = (~small) & (s_arr <= self.s_max)
        if np.any(mid):
            p = np.interp(s_arr[mid], self.s_grid, self.p_dev)
            vals = 1.0 + p / s_arr[mid]
            out = np.asarray(out)
            out[mid] = vals
        return out if out.ndim else float(out)

    def lower(self, s) -> np.ndarray | float:
        """f0(s); domain s > 0; identically 0 up to s = 2."""
        s_arr = np.asarray(s, dtype=float)
        if np.any(s_arr <= 0):
            raise ValueError("f0 needs s > 0")
        out = np.ones_like(s_arr)
        zero = s_arr <= 2.0
        branch = (s_arr > 2.0) & (s_arr <= 4.0)
        out = np.asarray(out)
        out[zero] = 0.0
        if np.any(branch):
            sb = s_arr[branch]
            out[branch] = 2.0 * np.exp(EULER_GAMMA) * np.log(sb - 1.0) / sb
        mid = (s_arr > 4.0) & (s_arr <= self.s_max)
        if np.any(mid):
            q = np.interp(s_arr[mid], self.s_grid, self.q_dev)
            out[mid] = 1.0 - q / s_arr[mid]
        return out if out.ndim else float(out)

    def check_invariants(self) -> dict:
        """Grid-level shape certificates; raises AssertionError on failure."""
        F = self.upper(self.s_grid)
        f = self.lower(self.s_grid)
        assert np.all(np.diff(F) <= 1e-12), "F0 must be nonincreasing"
        assert np.all(np.diff(f) >= -1e-12), "f0 must be nondecreasing"
        assert np.all(f <= 1.0 + 1e-12) and np.all(F >= 1.0 - 1e-12), "f0 <= 1 <= F0"
        tail = self.s_grid >= 10.0
        bound = 5.0 * np.exp(-self.s_grid[tail])
        dev_f = np.abs(F[tail] - 1.0)
        dev_g = np.abs(1.0 - f[tail])
        assert np.all(dev_f <= bound), "F0 tail envelope violated"
        assert np.all(dev_g <= bound), "f0 tail envelope violated"
        return {
            "F_at_2": float(self.upper(2.0)),
            "f_at_4": float(self.lower(4.0)),
            "max_tail_dev": float(max(dev_f.max(initial=0.0), dev_g.max(initial=0.0))),
        }


@cache
def linear_sieve_functions(s_max: float = 40.0, grid_step: float = 1e-3) -> LinearSieveFunctions:
    """Integrate the delayed system for F0/f0 on a uniform grid.

    The deviations p = s(F0-1), q = s(1-f0) satisfy p'(s) = -q(s-1)/(s-1)
    for s > 3 and q'(s) = -p(s-1)/(s-1) for s > 4, with exact branch data
    before that.  A 4-step Adams-Moulton-type quadrature on the uniform
    grid (the lagged integrand is already known at the new node, so the
    formula stays explicit) keeps the global error near 1e-12, and the
    tail is clamped to zero once below _DEVIATION_CLAMP.  Built once per
    (s_max, grid_step); the grids are read-only.
    """
    if grid_step > 1e-3 + 1e-15:
        raise ValueError("grid step must be <= 1e-3")
    h = grid_step
    lag = int(round(1.0 / h))
    if abs(lag * h - 1.0) > 1e-12:
        raise ValueError("grid step must divide 1 exactly for the lag lookup")
    n_nodes = int(round((s_max - 1.0) / h)) + 1
    s = 1.0 + h * np.arange(n_nodes)
    p = np.zeros(n_nodes)
    q = np.zeros(n_nodes)
    two_eg = 2.0 * np.exp(EULER_GAMMA)

    i3 = int(round(2.0 / h))      # index of s = 3
    i4 = int(round(3.0 / h))      # index of s = 4
    head = slice(0, i3 + 1)
    p[head] = two_eg - s[head]                       # s(F0-1) on [1,3]
    q[: lag + 1] = s[: lag + 1]                      # f0 = 0 on [1,2]
    branch = slice(lag, i4 + 1)
    q[branch] = s[branch] - two_eg * np.log(s[branch] - 1.0)

    # 5-point Gauss-Legendre on [0, 1] for the startup steps whose lagged
    # integrand still has a closed form (so no interpolation across the
    # derivative kink of q at s = 2 is ever needed)
    gl_x, gl_w = gl_nodes(5, 0.0, 1.0)

    def p_startup(n: int) -> float:
        # the lagged argument lies in (2, 2+3h] where q has its closed form
        vals = np.array([-(x - two_eg * math.log(x - 1.0)) / x for x in s[n - 1] - 1.0 + h * gl_x])
        return h * float(np.dot(gl_w, vals))

    def q_startup(n: int) -> float:
        # lagged argument in (3, 3+3h]: p is marched there but smooth
        # (only a second-derivative break at 3), interpolation is safe
        phi = -p[n - 1 - lag: n + 1 - lag] / s[n - 1 - lag: n + 1 - lag]
        return h / 6.0 * (phi[0] + 4.0 * _midpoint_phi(p, s, n, lag) + phi[1])

    def am_steps(src: np.ndarray, lo: int, hi: int) -> np.ndarray:
        # 4-step Adams-Moulton increments of nodes lo..hi-1 for the integrand -src/s lagged by 1
        phi = -src[lo - 3 - lag: hi - lag] / s[lo - 3 - lag: hi - lag]
        return h / 24.0 * (9.0 * phi[3:] + 19.0 * phi[2:-1] - 5.0 * phi[1:-2] + phi[:-3])

    # p and q advance together, one block of lag nodes at a time: every
    # Adams-Moulton integrand in a block lags by one unit, so it is known
    p_live = _advance(p, i3 + 1, [p_startup(n) for n in range(i3 + 1, min(i3 + 3, n_nodes))])
    q_live = True
    for lo in range(i3 + 3, n_nodes, lag):
        hi = min(lo + lag, n_nodes)
        if p_live:
            p_live = _advance(p, lo, am_steps(q, lo, hi))
        if lo < i4:  # q starts past s = 4, at the end of the first block
            q_live = _advance(q, i4 + 1, [q_startup(n) for n in range(i4 + 1, hi)])
        elif q_live:
            q_live = _advance(q, lo, am_steps(p, lo, hi))
    for grid in (s, p, q):
        grid.flags.writeable = False
    return LinearSieveFunctions(s_max=s_max, s_grid=s, p_dev=p, q_dev=q)


def _advance(dev: np.ndarray, lo: int, steps) -> bool:
    """dev[lo + j] = dev[lo + j - 1] + steps[j], summed in order; from the
    first node below _DEVIATION_CLAMP on, dev is zero.  Returns whether the
    deviation is still above the clamp."""
    vals = np.cumsum(np.concatenate((dev[lo - 1:lo], steps)))[1:]
    low = np.flatnonzero(vals < _DEVIATION_CLAMP)
    if len(low):
        vals[low[0]:] = 0.0
    dev[lo:lo + len(vals)] = vals
    return len(low) == 0


def _midpoint_phi(dev: np.ndarray, s: np.ndarray, n: int, lag: int) -> float:
    """-dev/s at the lagged midpoint s[n] - 1 - h/2, by 4-point interpolation."""
    m = n - lag
    ys = dev[m - 2: m + 2] / s[m - 2: m + 2]
    # cubic interpolation at the midpoint between nodes m-1 and m
    val = (-ys[0] + 9.0 * ys[1] + 9.0 * ys[2] - ys[3]) / 16.0
    return -float(val)


# ----------------------------------------------------------------------
# sieve problems, remainders, brute force, the bracket
# ----------------------------------------------------------------------

@dataclass
class SieveProblem:
    """Weight sequence plus sieve parameters.

    weights[n] = a(n) for 1 <= n <= N (index 0 ignored and forced to 0, in a
    copy: the caller's array is never written to);
    density g defaults to g(p) = 1/p extended multiplicatively.
    """

    weights: np.ndarray
    z: float
    level_d: float               # D
    epsilon: float
    exclude_below: float = 0.0   # Q = primes below this threshold
    remainder_budget: int = REMAINDER_BUDGET

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or len(w) < 2:
            raise ValueError("weights must be a 1-d array indexed by n")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if w[0] != 0.0 or np.signbit(w[0]):  # copy only when a(0) is not +0.0
            w = w.copy()
            w[0] = 0.0
        self.weights = w
        if not (0.0 < self.epsilon < 1.0 / 200.0):
            raise ConfigError("epsilon must lie in (0, 1/200)")
        if self.z < 2.0:
            # z = 2 is the degenerate no-sieving case (no primes below 2)
            raise ConfigError("z must be at least 2")

    @property
    def n_max(self) -> int:
        return len(self.weights) - 1

    def total(self) -> float:
        return float(self.weights.sum())


def density_g(d: int) -> float:
    """Default multiplicative density g(d) = 1/d."""
    return 1.0 / d


def v_of_z(z: float) -> float:
    """V(z) = prod_{p < z} (1 - 1/p)."""
    pr = primes_below(z)
    return float(np.prod(1.0 - 1.0 / pr)) if len(pr) else 1.0


def remainder_r(problem: SieveProblem, d: int, total: float | None = None) -> float:
    """r(d) = |A_d| - g(d) |A| with |A_d| = sum of a(n) over d | n; |A| = total if given."""
    w = problem.weights
    a_d = float(w[d:: d].sum())
    return a_d - density_g(d) * (problem.total() if total is None else total)


def _squarefree_divisors(primes: np.ndarray, cutoff: float, budget: int) -> list[int]:
    """Squarefree d composed of the given primes with d < cutoff, via DFS."""
    out = [1]
    plist = [int(p) for p in primes]

    def dfs(idx: int, prod: int):
        for j in range(idx, len(plist)):
            nxt = prod * plist[j]
            if nxt >= cutoff:
                # primes ascending: larger j only increases the product
                break
            if len(out) >= budget:
                raise BudgetExhausted(
                    f"divisor enumeration exceeded budget {budget}", partial=len(out)
                )
            out.append(nxt)
            dfs(j + 1, nxt)

    dfs(0, 1)
    return out


def brute_force_S(problem: SieveProblem) -> float:
    """S(A, P, z) summed directly from the factor table (n=1 counts)."""
    rows = build_factor_table(problem.n_max).rough_rows(problem.z)
    return float(np.take(problem.weights, rows).sum())


def buchstab_defect(problem: SieveProblem, z_prime: float) -> float:
    """S(A,P,z) - [ S(A,P,z') - sum_{z'<=p<z} S(A_p,P,p) ]; identically 0.

    S(A_p, P, p) collects a(n) over n with least prime factor exactly p,
    so the subtracted sum partitions the n removed when z' grows to z.
    """
    if not (2.0 < z_prime <= problem.z):
        raise ValueError("need 2 < z' <= z")
    n = problem.n_max
    table = build_factor_table(n)
    spf = table.spf
    w = problem.weights
    lhs = brute_force_S(problem)
    loose_mask = spf >= z_prime
    loose_mask[1] = True
    loose = float(w[loose_mask].sum())
    mid_primes = table.primes[(table.primes >= z_prime) & (table.primes < problem.z)]
    correction = 0.0
    for p in mid_primes:
        correction += float(w[spf == p].sum())
    return lhs - (loose - correction)


@dataclass
class SieveBoundsReport:
    s: float
    big_x: float
    v_z: float
    total: float
    remainder: float
    divisor_count: int
    upper: float
    lower: float
    s_exact: float
    brackets_hold: bool
    admissible: bool
    upper_valid: bool   # D >= z
    lower_valid: bool   # D >= z^2


def admissibility_check(problem: SieveProblem) -> bool:
    """The one-dimensional density hypothesis over all 1 < u < z.

    The left side only jumps at primes of P \\ Q and the right side
    decreases in u, so checking at each such prime point is exhaustive.
    """
    pr = primes_below(problem.z)
    pr = pr[pr >= problem.exclude_below]
    if len(pr) == 0:
        return True
    log_terms = -np.log1p(-1.0 / pr.astype(float))
    tail = np.cumsum(log_terms[::-1])[::-1]  # tail[i] = sum over p >= pr[i]
    lhs = np.exp(tail)
    rhs = (1.0 + problem.epsilon) * math.log(problem.z) / np.log(pr.astype(float))
    return bool(np.all(lhs < rhs))


def sieve_bounds(problem: SieveProblem) -> SieveBoundsReport:
    """Evaluate the linear-sieve bracket and compare with the exact sum."""
    fns = linear_sieve_functions()
    pz = primes_below(problem.z)
    v_z = v_of_z(problem.z)
    total = problem.total()
    big_x = v_z * total
    s = math.log(problem.level_d) / math.log(problem.z)
    q_primes = pz[pz < problem.exclude_below]
    q_product = float(np.prod(q_primes.astype(float))) if len(q_primes) else 1.0
    cutoff = problem.level_d * q_product
    divisors = _squarefree_divisors(pz, cutoff, problem.remainder_budget)
    remainder = 0.0
    for d in divisors:
        remainder += abs(remainder_r(problem, d, total))
    slack = problem.epsilon * math.exp(14.0 - s)
    upper = (float(fns.upper(s)) + slack) * big_x + remainder
    lower = (float(fns.lower(s)) - slack) * big_x - remainder
    s_exact = brute_force_S(problem)
    upper_valid = problem.level_d >= problem.z
    lower_valid = problem.level_d >= problem.z ** 2
    holds = True
    if upper_valid:
        holds = holds and (s_exact <= upper + 1e-9)
    if lower_valid:
        holds = holds and (lower - 1e-9 <= s_exact)
    return SieveBoundsReport(
        s=s, big_x=big_x, v_z=v_z, total=total, remainder=remainder,
        divisor_count=len(divisors), upper=upper, lower=lower, s_exact=s_exact,
        brackets_hold=holds, admissible=admissibility_check(problem),
        upper_valid=upper_valid, lower_valid=lower_valid,
    )


# ----------------------------------------------------------------------
# the dynamical pipeline: orbit weights -> sieve positivity
# ----------------------------------------------------------------------

@dataclass
class PipelineReport:
    n_max: int
    z: float
    level: int                  # L = floor(1/alpha) + 1
    u_tilde: float
    f0_at_s: float
    bounds: SieveBoundsReport
    omega_sum: float
    chain_ok: bool              # omega_sum >= S_exact >= lower
    positive: bool              # lower bound strictly positive
    margin: float               # S_exact - 0.01 * V(z) |A| + R  (recorded check)


def dynamical_sieve_pipeline(weights: np.ndarray, alpha_exp: float,
                             epsilon: float = 0.004, s_target: float = 101.0) -> PipelineReport:
    """Run the sieve over orbit weights a(n), n = 1..N.

    z = N^alpha <= N, D = z^{s_target}; the excluded prime set comes from the
    empirical Mertens threshold at 3*epsilon so the density hypothesis
    holds with factor (1 + epsilon); the almost-prime level is
    L = floor(1/alpha) + 1, and the report certifies the chain

        sum over n with Omega(n) <= L of a(n)  >=  S(A,P,z)  >=  lower > 0.
    """
    w = np.asarray(weights, dtype=float)
    n_max = len(w) - 1
    if n_max < 100:
        raise ConfigError("pipeline needs a weight range of at least 100")
    if not alpha_exp > 0.0:
        raise ConfigError("sieve cut exponent alpha must be positive")
    if not (0.0 < epsilon < 1.0 / 200.0):
        raise ConfigError("epsilon must lie in (0, 1/200)")
    if not s_target > 0.0:
        raise ConfigError("sieve level exponent s must be positive")
    z = float(n_max) ** alpha_exp
    try:
        level_d = z ** s_target
    except OverflowError:
        raise ConfigError(f"sieve level D = z^s overflows at z = {z:.6g}, s = {s_target:g}") from None
    if z > n_max:  # the primes below z would need a factor table past N
        raise ConfigError(f"sieve cut z = N^alpha = {z:.6g} exceeds N = {n_max}")
    level = int(math.floor(1.0 / alpha_exp)) + 1
    table = build_factor_table(n_max)
    u_tilde = empirical_u_tilde(3.0 * epsilon)
    problem = SieveProblem(
        weights=w, z=z, level_d=level_d, epsilon=epsilon,
        exclude_below=u_tilde,
    )
    report = sieve_bounds(problem)
    f0 = float(linear_sieve_functions().lower(report.s))
    omega_vals = table.omega_all()[1:]
    omega_sum = float(w[1:][omega_vals <= level].sum())
    chain_ok = (omega_sum >= report.s_exact - 1e-9) and (report.s_exact >= report.lower - 1e-9)
    margin = report.s_exact - (0.01 * report.big_x - report.remainder)
    return PipelineReport(
        n_max=n_max, z=z, level=level,
        u_tilde=u_tilde, f0_at_s=f0, bounds=report, omega_sum=omega_sum,
        chain_ok=chain_ok, positive=report.lower > 0.0, margin=margin,
    )
