"""Gauss-Legendre quadrature from numpy alone, the tensor grid of quadrature
axes, the distinct values of a sample grid, and a sum of values that arrive
in pieces with the bytes of one np.add.reduce over them all.

gauss_legendre(n) follows SciPy's roots_legendre step for step: the
Golub-Welsch eigenvalues (LAPACK dsterf, where eigvals_banded ends too),
one Newton step with eval_legendre's recurrence and small-|x| series,
log-normalised weights, symmetrisation and a rescale to mass 2.  Nodes
and weights are SciPy's bytes for n = 5 and every even n <= 400, the
only orders horolab uses.  The series' lead coefficient is binom(2a, a)
/ 4^a rounded once, not a beta quotient: it stays finite at any order,
and moves other odd orders' weights by up to about 2e-15 relative.
"""

import functools
import math

import numpy as np


def _legendre_series(n: int, x: float) -> float:
    """P_n(x) for n >= 2 and |x| < 1e-5, summed upward in powers of x^2."""
    a = n // 2
    lead = (-1) ** a * math.comb(2 * a, a) / 4 ** a
    d = lead if n == 2 * a else x * ((2 * a + 1) * lead)
    p = 0.0
    for kk in range(a + 1):
        p += d
        d *= -2 * (x * x) * (a - kk) * (2 * n + 1 - 2 * a + 2 * kk) / (
            (n + 1 - 2 * a + 2 * kk) * (n + 2 - 2 * a + 2 * kk))
    return p


def _legendre_pair(n: int, x: np.ndarray):
    """(P_{n-1}(x), P_n(x)) for n >= 1, each as eval_legendre rounds it."""
    prev, p, d = np.ones_like(x), x.copy(), x - 1.0
    for k in range(1, n):
        # d holds P_k - P_{k-1} as in SciPy's loop; other forms round differently
        d = ((2 * k + 1) / (k + 1)) * (x - 1) * p + (k / (k + 1)) * d
        prev, p = p, p + d
    for i in np.flatnonzero(np.abs(x) < 1e-5):
        if n >= 3:
            prev[i] = _legendre_series(n - 1, x[i])
        if n >= 2:
            p[i] = _legendre_series(n, x[i])
    return prev, p


@functools.cache
def gauss_legendre(n: int):
    """Nodes (ascending) and weights of the n-point rule on [-1, 1], built
    once per order and shared by every caller, so both arrays are read-only."""
    if n < 1 or n != int(n):
        raise ValueError("n must be a positive integer.")
    n = int(n)
    k = np.arange(1, n, dtype=float)
    # eigvalsh reads the lower triangle only
    x = np.linalg.eigvalsh(np.diag(k * np.sqrt(1.0 / (4 * k * k - 1)), -1))
    pm1, p = _legendre_pair(n, x)
    dy = (-n * x * p + n * pm1) / (1 - x ** 2)
    x = x - p / dy
    fm = _legendre_pair(n, x)[0]
    # fm and dy span many decades at large n: scale each to mid-range first
    log_fm, log_dy = np.log(np.abs(fm)), np.log(np.abs(dy))
    fm = fm / np.exp((log_fm.max() + log_fm.min()) / 2.0)
    dy = dy / np.exp((log_dy.max() + log_dy.min()) / 2.0)
    w = 1.0 / (fm * dy)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gl_nodes(n: int, a: float, b: float):
    """The n-point rule mapped affinely onto [a, b]."""
    x, w = gauss_legendre(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def tensor_grid(axes) -> np.ndarray:
    """(M, len(axes)) array of every tuple of axis values, the last axis varying fastest."""
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


def distinct_sorted(values: np.ndarray) -> np.ndarray:
    """np.unique of a NaN-free float array, by sort then drop repeats.

    The bytes are np.unique's, but numpy's masked-array check, which imports
    numpy.ma (about 10 ms once per process), is never reached.
    """
    ordered = np.sort(values, axis=None)
    keep = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


# values per leaf of PairwiseFold: the one buffer a fold holds (64 KiB); any
# length of at least numpy's 128-value block gives the same bytes
_FOLD_LEAF = 8192


def _pairwise_plan(n: int) -> list:
    """numpy's pairwise-sum tree over n values in post-order, cut at nodes of
    at most _FOLD_LEAF values: an int is such a node's length, None adds the
    last two node sums."""
    if n <= _FOLD_LEAF:
        return [n]
    half = n // 2 - n // 2 % 8
    return _pairwise_plan(half) + _pairwise_plan(n - half) + [None]


class PairwiseFold:
    """np.add.reduce of n float64 values that arrive in pieces of any size,
    with its bytes, holding one leaf of values instead of all n.

    numpy sums a contiguous float64 array pairwise (Higham, SIAM J. Sci.
    Comput. 14, 1993): a node of more than 128 values is split at half its
    length rounded down to a multiple of 8, a split that depends on the
    length alone, so each node of that tree can be summed on its own.  The
    fold sums each node of at most _FOLD_LEAF values with np.add.reduce once
    its values are in, and adds the node sums in the tree's order.  The
    reduce adds its sum to +0.0, so neither a leaf sum nor the sum of the
    whole is -0.0; a -0.0 term would change only the sign of a zero sum.
    """

    def __init__(self, n: int):
        self._plan = iter(_pairwise_plan(n))
        self._buf = np.empty(min(n, _FOLD_LEAF))
        self._sums = []
        self._filled = 0
        self._need = self._next_leaf()
        self._close_leaf()  # n = 0 is one empty leaf

    def _next_leaf(self):
        """The length of the next leaf, after adding every node sum that
        precedes it in the plan; None once the plan is done."""
        for step in self._plan:
            if step is not None:
                return step
            right = self._sums.pop()
            self._sums[-1] += right
        return None

    def push(self, values) -> None:
        """Fold the next len(values) values, in order (any shape, read flat)."""
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        at = 0
        while at < len(values):
            if self._need is None:
                raise ValueError("more values pushed than the fold was made for")
            take = min(self._need - self._filled, len(values) - at)
            self._buf[self._filled:self._filled + take] = values[at:at + take]
            self._filled += take
            at += take
            self._close_leaf()

    def _close_leaf(self) -> None:
        """Sum the leaf in the buffer if it is full, and move to the next."""
        if self._filled == self._need:
            self._sums.append(float(np.add.reduce(self._buf[:self._need])))
            self._filled = 0
            self._need = self._next_leaf()

    def total(self) -> float:
        """The sum of all n values, once they are all in."""
        if self._need is not None:
            raise ValueError("fewer values pushed than the fold was made for")
        return self._sums[0]
