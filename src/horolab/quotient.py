"""Lattice quotients of products of SL(2,R): reduction and geometry.

Points are classes Gamma * rep with Gamma acting by left multiplication;
flows act by right multiplication of the representative, which commutes
with reduction, so long orbits can be renormalised mid-flight.  Under
the standard inversion isomorphism this is the mirror of the usual left
action on the opposite coset space; the contracting diagonal direction
is right multiplication by a(+t) here, and the reduction oracle pins all
sign conventions (the identity class pushed that way climbs the cusp at
height e^t exactly).

Two lattice families are supported:

* ModularLattice: k = 1, Gamma = SL(2,Z).  Reduction is exact Gauss
  reduction of z = rep * i to the fundamental domain |Re z| <= 1/2,
  |z| >= 1 (ties: Re z in (-1/2, 1/2], and Re z >= 0 on the unit
  circle), fully vectorised over batches.  It returns the exact integer
  word with the reduced stack.  Every stack is warm-started from the
  words of every 16th row.  A warm row gives the cold bytes because an
  equal word gives an equal product; every row that needs a tie-break,
  or lies nearer the domain's boundary than rounding can move it, stays
  on the cold path.
* HilbertLattice: k = 2, Gamma = SL2(O) for the ring of integers O of a
  real quadratic field Q(sqrt(D)), embedded by its two real places.
  Reduction is a best-effort bounded local search over O-translations,
  unit rescalings and inversion, run on whole (N,2,2,2) stacks with
  masked updates; the reduced flag reports whether the search reached a
  local optimum inside its budget.  The fundamental unit comes from the
  continued-fraction expansion of a reduced generator of O, in exact
  integers, once per lattice.

Injectivity radius, lattice-point enumeration and the distance between
classes are all computed from bounded generator-ball enumerations of
Gamma, and are certified only within the enumeration validity radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import sl2
from .sl2 import GroupElement

# reduction tolerances (k=1 exact Gauss loop)
REDUCE_TOL = 1e-13
REDUCE_MAX_ITER = 400
# warm start of the k=1 reduction (see reduce_batch_k1).  Stride: on the
# 2 M captured nodes of the horocycle-k1 benchmark (2 vCPUs) the kernel took
# 0.75 / 0.68 / 0.64 / 0.64 / 0.65 s at strides 4 / 8 / 16 / 32 / 64 against
# 0.85 s cold, and 0.72-0.74 s at strides 8-64 against 0.90 s on the 1 M
# integer-time nodes of dichotomy-almost.  Margin: WARM_MARGIN clears the
# REDUCE_TOL band around |z| = 1, and WARM_ULPS counts units of
# eps |word| |mats| y.  On 6.4 M rows of orbit blocks from seven base points
# at offsets 3e3-1e6, every seeded word that differed from the cold word
# lay within 0.75 of those units of the boundary; 16 leaves a factor of 21.
WARM_STRIDE = 16
WARM_MARGIN = 1e-9
WARM_ULPS = 16.0
# round budget of the k=2 local search
HILBERT_MAX_ROUNDS = 40
# default enumeration bounds (keyword defaults; no config field sets them)
ENUM_MAX_ENTRY = 200.0
ENUM_BUDGET_K1 = 6000
ENUM_BUDGET_K2 = 4000
# bounded (c,d) search for the Hilbert cusp height
CUSP_CD_COEFF_BOUND = 6
# injectivity-radius estimates are only certified inside this radius
ETA_VALIDITY_RADIUS = 1.0
# divergence detection: escape threshold, hysteresis factor, and the
# minimum number of samples that must confirm the escape (a spike at the
# very end of the horizon is a recurrence event, not divergence)
HEIGHT_THRESHOLD = 50.0
HYSTERESIS = 0.5
MIN_ESCAPE_TAIL = 3
UNIPOTENT_TOL = 1e-9


# ----------------------------------------------------------------------
# lattice descriptors
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ModularLattice:
    """SL(2,Z) inside a single SL(2,R) factor."""

    @property
    def k(self) -> int:
        return 1

    def label(self) -> str:
        return "modular-k1"


@dataclass(frozen=True)
class HilbertLattice:
    """SL2 of the ring of integers of Q(sqrt(D)), D squarefree, k = 2.

    Integers are pairs (m, n) <-> m + n*omega with omega = sqrt(D) for
    D = 2,3 mod 4 and omega = (1+sqrt(D))/2 for D = 1 mod 4.
    """

    disc: int = 2

    def __post_init__(self):
        if self.disc < 2:
            raise ValueError("need a squarefree D >= 2")
        for p in range(2, int(math.isqrt(self.disc)) + 1):
            if self.disc % (p * p) == 0:
                raise ValueError(f"D = {self.disc} is not squarefree")

    @property
    def k(self) -> int:
        return 2

    def label(self) -> str:
        return f"hilbert-D{self.disc}"

    @property
    def omega_mod4(self) -> bool:
        """True when D = 1 mod 4 (omega = (1+sqrt(D))/2)."""
        return self.disc % 4 == 1

    def omega_embeddings(self) -> tuple[float, float]:
        r = math.sqrt(self.disc)
        if self.omega_mod4:
            return ((1.0 + r) / 2.0, (1.0 - r) / 2.0)
        return (r, -r)

    def embed(self, m: int, n: int) -> tuple[float, float]:
        """The two real embeddings of m + n*omega."""
        w1, w2 = self.omega_embeddings()
        return (m + n * w1, m + n * w2)

    def mul(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        """Product in O in the (1, omega) basis."""
        m1, n1 = a
        m2, n2 = b
        if self.omega_mod4:
            # omega^2 = omega + (D-1)/4
            c = (self.disc - 1) // 4
            return (m1 * m2 + n1 * n2 * c, m1 * n2 + n1 * m2 + n1 * n2)
        return (m1 * m2 + n1 * n2 * self.disc, m1 * n2 + n1 * m2)

    def conj(self, a: tuple[int, int]) -> tuple[int, int]:
        m, n = a
        if self.omega_mod4:
            return (m + n, -n)
        return (m, -n)

    def norm(self, a: tuple[int, int]) -> int:
        m, n = self.mul(a, self.conj(a))
        assert n == 0
        return m

    def fundamental_unit(self) -> tuple[int, int]:
        """Smallest unit > 1 under the first embedding, as (m, n).

        Continued fraction, in exact integers, of w = omega + t = (P + sqrt(D))/Q,
        whose conjugate lies in (-1, 0), so the expansion is purely periodic:
        over one period of length l the convergent denominators give the unit
        q_{l-1} w + q_{l-2} (Cohen, GTM 138, ch. 5).
        """
        s = math.isqrt(self.disc)
        t = (s - 1) // 2 if self.omega_mod4 else s
        start = (2 * t + 1, 2) if self.omega_mod4 else (t, 1)
        P, Q = start
        q_prev, q_cur = 1, 0
        while True:
            a = (P + s) // Q
            q_prev, q_cur = q_cur, a * q_cur + q_prev
            P = a * Q - P
            Q = (self.disc - P * P) // Q
            if (P, Q) == start:
                return (q_cur * t + q_prev, q_cur)

    @cached_property
    def unit_pair(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """(eps, eps^{-1}) in O for the fundamental unit eps, computed once."""
        eps = self.fundamental_unit()
        inv = self.conj(eps)
        return eps, inv if self.norm(eps) == 1 else (-inv[0], -inv[1])


Lattice = ModularLattice | HilbertLattice


@dataclass
class QuotientPoint:
    """A class Gamma * rep, with a flag tracking reduction status."""

    lattice: Lattice
    rep: GroupElement
    reduced: bool = False

    def __post_init__(self):
        if self.rep.k != self.lattice.k:
            raise ValueError(f"representative has {self.rep.k} factors, lattice wants {self.lattice.k}")

    def copy(self) -> "QuotientPoint":
        return QuotientPoint(self.lattice, self.rep.copy(), self.reduced)


def identity_coset(lattice: Lattice) -> QuotientPoint:
    return QuotientPoint(lattice, sl2.identity(lattice.k), reduced=True)


def translate(p: QuotientPoint, g: GroupElement) -> QuotientPoint:
    """Raw right multiplication of the representative: rep -> rep * g."""
    return QuotientPoint(p.lattice, sl2.compose(p.rep, g), reduced=False)


def act(w: GroupElement, p: QuotientPoint) -> QuotientPoint:
    """Translation of the class by the group element w.

    Classes here are left cosets, so the translation action is realised
    on representatives as rep -> rep * w^{-1}; this is a genuine action
    (act(w, act(v, p)) == act(w v, p)) and commutes with reduction.
    """
    return QuotientPoint(p.lattice, sl2.compose(p.rep, sl2.inverse(w)), reduced=False)


def flow_u(p: QuotientPoint, t: float) -> QuotientPoint:
    """Horocycle flow for time t (translation by u(t))."""
    return act(sl2.unipotent_u(t, p.lattice.k), p)


# rows per orbit_values block: a 400 k-row k = 2 arc takes 1.30 s, 3.25 s unblocked (2 vCPU)
_BLOCK_ROWS = 16_384


def orbit_mats(base: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """(N,k,2,2) stack base * u(-offset): the flow by u(offset) on classes."""
    out = np.broadcast_to(base, (len(offsets),) + base.shape).copy()
    out[:, 0, 0, 1] -= offsets * out[:, 0, 0, 0]
    out[:, 0, 1, 1] -= offsets * out[:, 0, 1, 0]
    return out


def flow_a_contracting(p: QuotientPoint, t: float) -> QuotientPoint:
    """Diagonal push in the direction that contracts the horocycle one.

    Translation by a(-t): the direction whose pushes climb the cusp at
    exactly e^t from the identity class and whose injectivity radius
    enters the renormalised average bounds.
    """
    return act(sl2.diagonal_a(-t, p.lattice.k), p)


def phi_map(x: float, gamma_exp: float, alpha: float = 1.0, k: int = 1) -> GroupElement:
    """The composed element a(-log x / (2 alpha)) * u(x^{1+gamma}).

    Translating the identity class by this element at x = n drives the
    reduced cusp height to infinity like sqrt(n): the divergence
    signature separating the two branches of the sparse dichotomy.
    """
    if x <= 0.0:
        raise ValueError("phi map wants x > 0")
    return sl2.compose(
        sl2.diagonal_a(-math.log(x) / (2.0 * alpha), k),
        sl2.unipotent_u(x ** (1.0 + gamma_exp), k),
    )


# ----------------------------------------------------------------------
# batched Gauss reduction, k = 1
# ----------------------------------------------------------------------

def _mobius_coords(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) of g*i for a (...,2,2) stack; y uses the exact determinant."""
    a, b = mats[..., 0, 0], mats[..., 0, 1]
    c, d = mats[..., 1, 0], mats[..., 1, 1]
    den = c * c + d * d
    x = (a * c + b * d) / den
    y = (a * d - b * c) / den
    return x, y


def _gauss_words(mats: np.ndarray, seed: np.ndarray | None = None):
    """The Gauss loop on a (N,2,2) stack, from the word seed (identity if None).

    Returns (word, converged): the exact integer word of every row and
    whether the row finished within REDUCE_MAX_ITER passes.
    """
    n = mats.shape[0]
    # flip word tracked exactly (integer-valued float entries); the final
    # representative is word @ input in one product, so rounding does not
    # accumulate across reduction steps
    if seed is None:
        words = np.zeros((n, 4))
        words[:, 0] = words[:, 3] = 1.0
    else:
        words = np.array(seed, dtype=float).reshape(n, 4)
    converged = np.zeros(n, dtype=bool)
    # the rows still being reduced, held as contiguous 1-D entries of the
    # matrix and of its word and compacted as rows finish
    rows = np.arange(n)
    a, b = mats[:, 0, 0].copy(), mats[:, 0, 1].copy()
    c, d = mats[:, 1, 0].copy(), mats[:, 1, 1].copy()
    w00, w01, w10, w11 = (words[:, i].copy() for i in range(4))
    if seed is not None:
        a, b, c, d = w00 * a + w01 * c, w00 * b + w01 * d, w10 * a + w11 * c, w10 * b + w11 * d
    for _ in range(REDUCE_MAX_ITER):
        if len(rows) == 0:
            break
        den = c * c + d * d
        x = (a * c + b * d) / den
        # integer translation bringing x into (-1/2, 1/2]
        m = np.ceil(x - 0.5)
        need_shift = m != 0.0
        if need_shift.any():
            a = np.where(need_shift, a - m * c, a)
            b = np.where(need_shift, b - m * d, b)
            w00 = np.where(need_shift, w00 - m * w10, w00)
            w01 = np.where(need_shift, w01 - m * w11, w01)
            x = (a * c + b * d) / den
        y = (a * d - b * c) / den
        r2 = x * x + y * y
        inside = r2 < 1.0 - REDUCE_TOL
        boundary_left = (np.abs(r2 - 1.0) <= REDUCE_TOL) & (x < -REDUCE_TOL)
        invert = inside | boundary_left
        if invert.any():
            a, c = np.where(invert, -c, a), np.where(invert, a, c)
            b, d = np.where(invert, -d, b), np.where(invert, b, d)
            w00, w10 = np.where(invert, -w10, w00), np.where(invert, w00, w10)
            w01, w11 = np.where(invert, -w11, w01), np.where(invert, w01, w11)
        done = ~(invert | need_shift)
        if done.any():
            fin = rows[done]
            words[fin, 0], words[fin, 1] = w00[done], w01[done]
            words[fin, 2], words[fin, 3] = w10[done], w11[done]
            converged[fin] = True
            keep = ~done
            rows = rows[keep]
            a, b, c, d = a[keep], b[keep], c[keep], d[keep]
            w00, w01, w10, w11 = w00[keep], w01[keep], w10[keep], w11[keep]
    words[rows, 0], words[rows, 1] = w00, w01
    words[rows, 2], words[rows, 3] = w10, w11
    return words.reshape(n, 2, 2), converged


def reduce_batch_k1(mats: np.ndarray):
    """Gauss-reduce a (N,2,2) stack in place of z = g*i.

    Returns (reduced mats, converged mask, word): the output is
    +-word @ mats for the exact integer word, det 1, the sign fixed so the
    frame angle lies in [0, pi).  Ties go to Re z in (-1/2, 1/2] and to
    Re z >= 0 on the unit circle.

    Warm start: every WARM_STRIDE-th row is an anchor, reduced from the
    identity, and every row starts the Gauss loop from the word of the
    anchor at or before it; on a dense orbit most rows finish on the first
    pass.  A seeded row stands only if its loop finished, word @ mats has
    no zero entry, and the point lies inside the fundamental domain
    (|x| < 1/2, |z|^2 > 1) by WARM_MARGIN + WARM_ULPS * eps * |word| *
    |mats| * y, with Frobenius norms; every other row, NaN rows included,
    is reduced cold.  Why that gives the cold bytes: rounding moves the
    cold loop's point by about eps * |word| * |mats| * y (the constants
    say how this was measured), so the cold loop cannot stop at another
    translate of a point that far inside.  The seeded word is then the
    cold word up to sign, and the same word in the same product and sign
    flip gives the same bytes.  Only the sign of an exact zero can depend
    on the word's signed zeros, hence the zero rule.  Every row whose
    reduction needs a tie-break (|x| = 1/2, |z| = 1, the elliptic points i
    and rho) fails the margin and takes the cold path.  The returned
    word's zero entries may differ in sign from the cold word's.
    """
    mats = np.asarray(mats, dtype=float)
    n = mats.shape[0]
    anchors, _ = _gauss_words(mats[::WARM_STRIDE])
    word, conv = _gauss_words(mats, np.repeat(anchors, WARM_STRIDE, axis=0)[:n])
    out = word @ mats
    x, y = _mobius_coords(out)
    size = np.sqrt(np.einsum("nij,nij->n", word, word) * np.einsum("nij,nij->n", mats, mats))
    margin = WARM_MARGIN + WARM_ULPS * np.finfo(float).eps * size * y
    inside = (np.abs(x) < 0.5 - margin) & (x * x + y * y > 1.0 + margin)
    # an exact zero entry takes its sign from the word's signed zeros
    nonzero = (out[:, 0, 0] != 0.0) & (out[:, 0, 1] != 0.0) \
        & (out[:, 1, 0] != 0.0) & (out[:, 1, 1] != 0.0)
    cold = ~(inside & conv & nonzero)
    if np.any(cold):
        word[cold], conv[cold] = _gauss_words(mats[cold])
        out[cold] = word[cold] @ mats[cold]
    # canonical sign: bottom row angle in [0, pi)
    c, d = out[:, 1, 0], out[:, 1, 1]
    flip = (c < 0) | ((c == 0) & (d < 0))
    out[flip] *= -1.0
    return out, conv, word


def iwasawa_coords(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, theta) with theta in [0, pi), for a (...,2,2) stack.

    g = n(x) a(y) k(theta); the bottom row determines the frame angle
    via theta = atan2(c, d) folded modulo pi.
    """
    x, y = _mobius_coords(mats)
    theta = np.arctan2(mats[..., 1, 0], mats[..., 1, 1])
    theta = np.mod(theta, np.pi)
    return x, y, theta


def mats_from_coords(coords: np.ndarray) -> np.ndarray:
    """Inverse of iwasawa_coords: (N,k,3) -> (N,k,2,2) with n(x) a(y) k(theta)."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim == 2:
        coords = coords[None]
    x, y, th = coords[..., 0], coords[..., 1], coords[..., 2]
    ry = np.sqrt(y)
    ct, st = np.cos(th), np.sin(th)
    out = np.empty(coords.shape[:2] + (2, 2))
    out[..., 1, 0] = st / ry
    out[..., 1, 1] = ct / ry
    out[..., 0, 0] = ry * ct + x * st / ry
    out[..., 0, 1] = -ry * st + x * ct / ry
    return out


def reduce_stack(lattice: Lattice, stack: np.ndarray):
    """Reduce a (N,k,2,2) stack of representatives; returns (stack, flags)."""
    if stack.ndim != 4:
        raise ValueError("expected (N,k,2,2)")
    if isinstance(lattice, ModularLattice):
        red, conv, _ = reduce_batch_k1(stack[:, 0])
        return red[:, None, :, :], conv
    return _reduce_stack_hilbert(lattice, stack)


def reduce_point(p: QuotientPoint) -> QuotientPoint:
    """Canonical (k=1) / locally-minimal (k=2) representative of the class."""
    stack = p.rep.mats[None, :, :, :]
    red, conv = reduce_stack(p.lattice, stack)
    return QuotientPoint(p.lattice, GroupElement(red[0]), reduced=bool(conv[0]))


def coords_of_stack(lattice: Lattice, stack: np.ndarray) -> np.ndarray:
    """Reduced coordinates, shape (N, k, 3): per factor (x, y, theta).

    Row by row, so _BLOCK_ROWS-row blocks bound a large stack's temporaries.
    """
    if len(stack) > _BLOCK_ROWS:
        return np.concatenate([coords_of_stack(lattice, stack[s:s + _BLOCK_ROWS])
                               for s in range(0, len(stack), _BLOCK_ROWS)], axis=0)
    red, _ = reduce_stack(lattice, stack)
    return np.stack(iwasawa_coords(red), axis=-1)


def orbit_values(lattice: Lattice, base: np.ndarray, offsets: np.ndarray, fn) -> np.ndarray:
    """fn(reduced coordinates of orbit_mats(base, offsets)), block by block.

    Every step works row by row, so the blocks, which only tile memory,
    give the bytes of one whole-stack call.
    """
    if len(offsets) == 0:
        return fn(np.empty((0, lattice.k, 3)))
    return np.concatenate([
        fn(coords_of_stack(lattice, orbit_mats(base, offsets[s:s + _BLOCK_ROWS])))
        for s in range(0, len(offsets), _BLOCK_ROWS)], axis=0)


def coordinates(p: QuotientPoint) -> np.ndarray:
    """(k, 3) reduced coordinates of a single class."""
    return coords_of_stack(p.lattice, p.rep.mats[None])[0]


# ----------------------------------------------------------------------
# Hilbert-modular best-effort reduction, k = 2
# ----------------------------------------------------------------------

def _unit_matrices(lat: HilbertLattice) -> tuple[np.ndarray, np.ndarray]:
    """Embedded diag(eps, eps^{-1}) and its inverse as (2,2,2) stacks."""
    eps, inv = lat.unit_pair
    e1, e2 = lat.embed(*eps)
    i1, i2 = lat.embed(*inv)
    fwd = np.array([[[e1, 0.0], [0.0, i1]], [[e2, 0.0], [0.0, i2]]])
    bwd = np.array([[[i1, 0.0], [0.0, e1]], [[i2, 0.0], [0.0, e2]]])
    return fwd, bwd


def _balance_units(out: np.ndarray, units: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Apply diag-unit^m in place to balance y1 against y2; returns the
    rows moved.  y1/y2 scales by eps^{4m}; the unit is applied |m| times
    one step after another (not as a power eps^m, which rounds differently).
    """
    log_unit = math.log(abs(units[0][0, 0, 0]))
    _, y = _mobius_coords(out)
    ratio = 0.5 * np.log(y[:, 0] / y[:, 1])
    m_balance = np.rint(-ratio / (2.0 * log_unit)).astype(int)
    moved = [np.flatnonzero(m_balance * sign > 0) for sign in (1, -1)]
    for rows, unit in zip(moved, units):
        left = np.abs(m_balance[rows])
        while len(rows):
            for i in range(2):  # factor by factor halves the temporaries
                out[rows, i] = unit[i] @ out[rows, i]
            left -= 1
            rows, left = rows[left > 0], left[left > 0]
    return np.concatenate(moved)


def _translate(out: np.ndarray, lat: HilbertLattice) -> np.ndarray:
    """Apply the nearest O-translation of (x1, x2) in place; returns the rows moved."""
    w1, w2 = lat.omega_embeddings()
    basis_inv = np.linalg.inv(np.array([[1.0, w1], [1.0, w2]]))
    x, _ = _mobius_coords(out)
    coeffs = (basis_inv @ np.stack([x[:, 0], x[:, 1]]))
    mn = np.rint(coeffs).astype(int)
    nonzero = (mn[0] != 0) | (mn[1] != 0)
    rows = np.flatnonzero(nonzero)
    # apply [[1, -t],[0,1]] on the left, factor-wise
    t1 = mn[0, rows] + mn[1, rows] * w1
    t2 = mn[0, rows] + mn[1, rows] * w2
    out[rows, 0, 0, 0] -= t1 * out[rows, 0, 1, 0]
    out[rows, 0, 0, 1] -= t1 * out[rows, 0, 1, 1]
    out[rows, 1, 0, 0] -= t2 * out[rows, 1, 1, 0]
    out[rows, 1, 0, 1] -= t2 * out[rows, 1, 1, 1]
    return rows


def _invert(out: np.ndarray) -> np.ndarray:
    """Invert in place where it grows the product height; returns the rows moved."""
    x, y = _mobius_coords(out)
    r2 = x * x + y * y
    gain = 1.0 / (r2[:, 0] * r2[:, 1])
    rows = np.flatnonzero(gain > 1.0 + 1e-12)
    out[rows, :, 0], out[rows, :, 1] = -out[rows, :, 1], out[rows, :, 0]
    return rows


def _reduce_stack_hilbert(lat: HilbertLattice, stack: np.ndarray):
    """Bounded local search: translations, unit balancing, inversion.

    Maximises the product height y1*y2 and centres (x1, x2) at the
    origin of the embedded integer lattice; the flag reports whether a
    fixed point was reached within the round budget (best effort).  Each
    step is a helper, so its temporaries are freed before the next one.
    """
    out = np.array(stack, dtype=float, copy=True)
    units = _unit_matrices(lat)
    for _ in range(HILBERT_MAX_ROUNDS):
        changed = np.zeros(len(out), dtype=bool)
        changed[_balance_units(out, units)] = True
        changed[_translate(out, lat)] = True
        changed[_invert(out)] = True
        converged = ~changed
        if not changed.any():
            break
    return out, converged


# ----------------------------------------------------------------------
# Gamma enumeration (generator balls, exact integer arithmetic)
# ----------------------------------------------------------------------

_ENUM_CACHE: dict[tuple, np.ndarray] = {}


def _canonical_sign(keys: np.ndarray) -> np.ndarray:
    """Integer rows (N, L), each signed so that its first nonzero entry is positive."""
    first = keys[np.arange(len(keys)), np.argmax(keys != 0, axis=1)]
    return np.where((first < 0)[:, None], -keys, keys)


def enumerate_gamma(lattice: Lattice, max_entry: float = ENUM_MAX_ENTRY,
                    budget: int | None = None) -> np.ndarray:
    """Ball of Gamma elements around the identity, as a (N,k,2,2) stack.

    Breadth-first over a symmetric generator set with exact integer
    bookkeeping, pruned by embedded entry height and capped by budget;
    elements are kept modulo overall sign and returned with the identity
    first.  Deterministic for fixed parameters, cached per lattice.
    """
    if budget is None:
        budget = ENUM_BUDGET_K1 if lattice.k == 1 else ENUM_BUDGET_K2
    key = (lattice.label(), float(max_entry), int(budget))
    if key in _ENUM_CACHE:
        return _ENUM_CACHE[key]
    if isinstance(lattice, ModularLattice):
        stack = _enumerate_modular(max_entry, budget)
    else:
        stack = _enumerate_hilbert(lattice, max_entry, budget)
    _ENUM_CACHE[key] = stack
    return stack


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each integer row as one opaque value, for sorting and lookup by equality."""
    rows = np.ascontiguousarray(rows)
    return rows.view(f"V{rows.itemsize * rows.shape[1]}")[:, 0]


def _generator_ball(start, gens, mul, height, max_entry: float, budget: int) -> np.ndarray:
    """Words in gens breadth-first from start, one per sign class, pruned by
    height > max_entry, as integer rows.  Each shell is every product
    mul(cur, gen) of the last one, cur-major, of which the first occurrence
    of each new class is kept.  Whole word-length shells are expanded until
    the budget is reached: stopping mid-shell would leave the ball without
    some inverses, and downstream minima assume a ball.
    """
    frontier = np.asarray(start)[None]
    order = [frontier]
    seen = _row_keys(_canonical_sign(frontier))  # sorted
    total = 1
    while len(frontier) and total < budget:
        cand = mul(frontier, gens)
        cand = cand[height(cand) <= max_entry]
        classes, first = np.unique(_row_keys(_canonical_sign(cand)), return_index=True)
        at = np.searchsorted(seen, classes)
        new = seen[np.minimum(at, len(seen) - 1)] != classes
        frontier = cand[np.sort(first[new])]
        seen = np.insert(seen, at[new], classes[new])
        order.append(frontier)
        total += len(frontier)
    return np.concatenate(order)


def _enumerate_modular(max_entry: float, budget: int) -> np.ndarray:
    gens = np.array([
        (1, 1, 0, 1), (1, -1, 0, 1),      # T, T^{-1}
        (0, -1, 1, 0), (0, 1, -1, 0),     # S, S^{-1}
    ])

    def mul(p, q):
        (a, b, c, d), (e, f, g, h) = p.T[:, :, None], q.T[:, None, :]
        prod = np.stack([a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h], axis=-1)
        return _canonical_sign(prod.reshape(-1, 4))

    order = _generator_ball(np.array([1, 0, 0, 1]), gens, mul,
                            lambda mats: np.abs(mats).max(axis=1), max_entry, budget)
    return order.astype(float).reshape(-1, 1, 2, 2)


def _enumerate_hilbert(lat: HilbertLattice, max_entry: float, budget: int) -> np.ndarray:
    # an element of SL2(O) is the row (a_m, a_n, b_m, b_n, c_m, c_n, d_m, d_n)
    # of its entries m + n*omega
    (em, en), (im, in_) = lat.unit_pair
    gens = np.array([
        (1, 0, 1, 0, 0, 0, 1, 0), (1, 0, -1, 0, 0, 0, 1, 0),       # T_1^{+-1}
        (1, 0, 0, 1, 0, 0, 1, 0), (1, 0, 0, -1, 0, 0, 1, 0),       # T_omega^{+-1}
        (0, 0, -1, 0, 1, 0, 0, 0), (0, 0, 1, 0, -1, 0, 0, 0),      # S^{+-1}
        (em, en, 0, 0, 0, 0, im, in_), (im, in_, 0, 0, 0, 0, em, en),  # unit diag^{+-1}
    ])
    w = np.array(lat.omega_embeddings())

    def mul(p, q):
        P, Q = p[:, None, :], q[None, :, :]
        a, b, c, d = ((P[..., 2 * i], P[..., 2 * i + 1]) for i in range(4))
        e, f, g, h = ((Q[..., 2 * i], Q[..., 2 * i + 1]) for i in range(4))
        m = lat.mul
        add = lambda u, v: (u[0] + v[0], u[1] + v[1])
        prod = (add(m(a, e), m(b, g)), add(m(a, f), m(b, h)),
                add(m(c, e), m(d, g)), add(m(c, f), m(d, h)))
        return np.stack([part for entry in prod for part in entry], axis=-1).reshape(-1, 8)

    def embed(mats):
        """(N, 4 entries, 2 places) embedded entries."""
        return mats[:, 0::2, None] + mats[:, 1::2, None] * w

    order = _generator_ball(np.array([1, 0, 0, 0, 0, 0, 1, 0]), gens, mul,
                            lambda mats: np.abs(embed(mats)).max(axis=(1, 2)), max_entry, budget)
    # (n, entry, place) -> (n, place, 2, 2)
    return np.ascontiguousarray(embed(order).transpose(0, 2, 1)).reshape(-1, 2, 2, 2)


# ----------------------------------------------------------------------
# distances, injectivity radius, cusp height
# ----------------------------------------------------------------------

def _with_negations(stack: np.ndarray) -> np.ndarray:
    """Append the sign-flipped copies (Gamma contains -identity)."""
    return np.concatenate([stack, -stack], axis=0)


def quotient_distance(p: QuotientPoint, q: QuotientPoint,
                      max_entry: float = ENUM_MAX_ENTRY,
                      budget: int | None = None) -> float:
    """min over enumerated gamma of distance(p.rep, gamma * q.rep).

    Scans both orderings of the pair, which amounts to minimising over
    the enumerated ball together with its inverses; the result is
    symmetric in (p, q) by construction.
    """
    if p.lattice != q.lattice:
        raise ValueError("points live on different quotients")
    gammas = _with_negations(enumerate_gamma(p.lattice, max_entry, budget))
    best = np.inf
    for left, right in ((p, q), (q, p)):
        moved = np.einsum("nkab,kbc->nkac", gammas, right.rep.mats)
        inv_left = sl2.inverse(left.rep).mats
        w = np.einsum("kab,nkbc->nkac", inv_left, moved)
        best = min(best, float(sl2.displacement_from_identity_batch(w).min()))
    return best


def injectivity_radius(p: QuotientPoint, max_entry: float = ENUM_MAX_ENTRY,
                       budget: int | None = None,
                       validity_radius: float = ETA_VALIDITY_RADIUS) -> float:
    """(1/2) min over enumerated nontrivial gamma of d(rep, gamma rep).

    Estimated from the bounded enumeration only, hence clamped to the
    validity radius beyond which the ball gives no certificate.
    """
    gammas = enumerate_gamma(p.lattice, max_entry, budget)
    gammas = _with_negations(gammas[1:])  # drop identity; keep -identity out too
    rep = p.rep.mats
    inv_rep = sl2.inverse(p.rep).mats
    w = np.einsum("kab,nkbc,kcd->nkad", inv_rep, gammas, rep)
    disp = sl2.displacement_from_identity_batch(w)
    return float(min(0.5 * disp.min(), validity_radius))


def cusp_heights(lattice: Lattice, stack: np.ndarray) -> np.ndarray:
    """Cusp heights of a (N,k,2,2) stack of representatives, reduced once.

    k=1: the imaginary part of the Gauss-reduced z.  k=2: the product
    height y1*y2 maximised over a bounded family of O-rows (c, d),
    the standard height at the cusp at infinity, taken row by row so the
    (c, d) family is never broadcast against the whole stack.
    """
    return _reduced_heights(lattice, reduce_stack(lattice, stack)[0])


def _reduced_heights(lattice: Lattice, red: np.ndarray) -> np.ndarray:
    """Cusp heights of an already-reduced (N,k,2,2) stack (see cusp_heights)."""
    x, y = _mobius_coords(red)  # (N, k)
    if isinstance(lattice, ModularLattice):
        return y[:, 0]
    c, d = np.moveaxis(_cd_rows(lattice), 1, 0)  # (M, 2 places) each
    mins = [((c * xi + d) ** 2 + (c * yi) ** 2).prod(axis=1).min() for xi, yi in zip(x, y)]
    return y[:, 0] * y[:, 1] / np.array(mins)


def cusp_height(p: QuotientPoint) -> float:
    """Height of the class in the cusp direction (see cusp_heights)."""
    return float(cusp_heights(p.lattice, p.rep.mats[None])[0])


def _cd_rows(lat: HilbertLattice, bound: int = CUSP_CD_COEFF_BOUND) -> np.ndarray:
    """Embedded nonzero rows (c, d) in O^2 with coefficients up to bound."""
    key = ("cdrows", lat.label(), bound)
    if key in _ENUM_CACHE:
        return _ENUM_CACHE[key]
    rng = np.arange(-bound, bound + 1)
    m, n = np.meshgrid(rng, rng, indexing="ij")
    # both embeddings of one O-element per row
    pairs = m.reshape(-1, 1) + n.reshape(-1, 1) * np.array(lat.omega_embeddings())
    ce = np.repeat(pairs, len(pairs), axis=0)
    de = np.tile(pairs, (len(pairs), 1))
    keep = ~((np.abs(ce).max(axis=1) < 1e-12) & (np.abs(de).max(axis=1) < 1e-12))
    rows = np.stack([ce[keep], de[keep]], axis=1)  # (M, 2=c/d, 2=place)
    _ENUM_CACHE[key] = rows
    return rows


# ----------------------------------------------------------------------
# divergence detection and torus-orbit certification
# ----------------------------------------------------------------------

@dataclass
class DivergenceReport:
    mode: str
    times: np.ndarray
    heights: np.ndarray
    threshold: float
    diverges: bool
    first_escape: float | None


def detect_divergence(p: QuotientPoint, mode: str = "geodesic",
                      t_max: float = 30.0, samples: int = 60,
                      threshold: float = HEIGHT_THRESHOLD,
                      gamma_exp: float = 0.1, alpha: float = 1.0) -> DivergenceReport:
    """Sample cusp heights along the contracting geodesic or the sparse map.

    Divergence = the height passes the threshold at some sample time,
    never drops below threshold * HYSTERESIS afterwards, and at least
    MIN_ESCAPE_TAIL samples confirm the escape (finite-horizon verdict
    with hysteresis; evidence, not proof).
    """
    k = p.lattice.k
    if mode == "geodesic":
        times = np.linspace(0.0, t_max, samples)
        elements = [sl2.diagonal_a(-float(t), k) for t in times]
    elif mode == "phi":
        times = np.unique(np.floor(np.geomspace(1.0, max(t_max, 2.0), samples)))
        elements = [phi_map(float(x), gamma_exp, alpha, k) for x in times]
    else:
        raise ValueError(f"unknown divergence mode {mode!r}")
    moved = np.reshape([act(g, p).rep.mats for g in elements], (-1, k, 2, 2))
    heights = cusp_heights(p.lattice, moved)
    escape = heights > threshold
    diverges = False
    first_escape = None
    if escape.any():
        j = int(np.argmax(escape))
        tail_ok = bool(np.all(heights[j:] >= threshold * HYSTERESIS))
        if tail_ok and len(heights) - j >= MIN_ESCAPE_TAIL:
            diverges = True
            first_escape = float(times[j])
    return DivergenceReport(mode=mode, times=times, heights=heights,
                            threshold=threshold, diverges=diverges,
                            first_escape=first_escape)


@dataclass
class TorusReport:
    found: bool
    torus_dim: int
    generators: list[GroupElement]
    orbit_height_bound: float | None
    commutation_defect: float


def torus_orbit_check(p: QuotientPoint, max_entry: float = ENUM_MAX_ENTRY,
                      budget: int | None = None,
                      height_cap: float = HEIGHT_THRESHOLD,
                      grid: int = 6) -> TorusReport:
    """Search the stabiliser of the class for a full-rank unipotent torus.

    Every enumerated gamma yields the stabiliser element
    h = rep^{-1} gamma rep; h is kept when its first factor is a strict
    upper-triangular unipotent (it must lie on the horocycle direction
    itself) and every other factor is unipotent (trace 2 within 1e-9).
    The kept logarithms must span rank k and commute pairwise; the
    candidate torus orbit is then sampled on a grid to certify bounded
    cusp height.
    """
    lat = p.lattice
    k = lat.k
    gammas = enumerate_gamma(lat, max_entry, budget)[1:]
    rep = p.rep.mats
    inv_rep = sl2.inverse(p.rep).mats
    h_all = np.einsum("kab,nkbc,kcd->nkad", inv_rep, gammas, rep)
    tr = h_all[:, :, 0, 0] + h_all[:, :, 1, 1]
    unipotent = np.all(np.abs(tr - 2.0) <= UNIPOTENT_TOL, axis=1)
    first = h_all[:, 0]
    on_u = (np.abs(first[:, 1, 0]) <= UNIPOTENT_TOL) \
        & (np.abs(first[:, 0, 0] - 1.0) <= UNIPOTENT_TOL) \
        & (np.abs(first[:, 0, 1]) > UNIPOTENT_TOL)
    cand = h_all[unipotent & on_u]
    if len(cand) == 0:
        return TorusReport(False, 0, [], None, 0.0)
    logs = (cand - np.eye(2)[None, None]).reshape(len(cand), -1)
    # greedy rank-k selection of generators with small entries
    order = np.argsort(np.abs(cand).max(axis=(1, 2, 3)))
    chosen: list[int] = []
    basis: list[np.ndarray] = []
    for idx in order:
        trial = basis + [logs[idx]]
        if np.linalg.matrix_rank(np.stack(trial), tol=1e-8) == len(trial):
            chosen.append(int(idx))
            basis.append(logs[idx])
        if len(chosen) == k:
            break
    torus_dim = len(chosen)
    gens = [GroupElement(cand[i]) for i in chosen]
    defect = 0.0
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            ab = sl2.compose(gens[i], gens[j]).mats
            ba = sl2.compose(gens[j], gens[i]).mats
            defect = max(defect, float(np.max(np.abs(ab - ba))))
    found = torus_dim == k and defect <= UNIPOTENT_TOL
    bound = None
    if found:
        nil = [g.mats - np.eye(2)[None] for g in gens]
        ticks = np.linspace(0.0, 1.0, grid)
        mesh = np.meshgrid(*([ticks] * torus_dim), indexing="ij")
        coords = np.stack([m.ravel() for m in mesh], axis=1)
        shifts = [np.eye(2) + sum(ci * ni for ci, ni in zip(c, nil)) for c in coords]
        moved = np.array([translate(p, GroupElement(s)).rep.mats for s in shifts])
        bound = float(cusp_heights(lat, moved).max())
        found = bound <= height_cap
    return TorusReport(found=found, torus_dim=torus_dim, generators=gens,
                       orbit_height_bound=bound, commutation_defect=defect)
