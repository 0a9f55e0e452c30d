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
  words of every 16th row; where those mostly agree, as along a dense
  arc, a row first tries the two nearest of them with no Gauss pass.
  A warm row gives the cold bytes because an
  equal word gives an equal product; every row that needs a tie-break,
  or lies nearer the domain's boundary than rounding can move it, stays
  on the cold path.
* HilbertLattice: k = 2, Gamma = SL2(O) for the ring of integers O of a
  real quadratic field Q(sqrt(D)), embedded by its two real places.
  Reduction is a best-effort bounded local search over O-translations,
  unit rescalings and inversion, run on the entry arrays of whole stacks;
  a row retires at its fixed point, and the reduced flag reports whether
  the search reached that local optimum inside its budget.  The fundamental unit comes from the
  continued-fraction expansion of a reduced generator of O, in exact
  integers, once per lattice.

Injectivity radius, lattice-point enumeration and the torus search are
all computed from bounded generator-ball enumerations of Gamma, and are
certified only within the enumeration validity radius.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import sl2
from .errors import ConfigError
from .quadrature import distinct_sorted, tensor_grid
from .sl2 import GroupElement

# reduction tolerances (k=1 exact Gauss loop)
REDUCE_TOL = 1e-13
REDUCE_MAX_ITER = 400
# warm start of the k=1 reduction (see reduce_batch_k1).  Stride: on the
# 2 M captured nodes of the horocycle-k1 benchmark (2 vCPUs) the seeded-loop
# kernel took 0.75 / 0.68 / 0.64 / 0.64 / 0.65 s at strides 4 / 8 / 16 / 32 /
# 64 against 0.85 s cold, and 0.72-0.74 s at strides 8-64 against 0.90 s on
# the 1 M integer-time nodes of dichotomy-almost.  Re-measured with the dense
# path (medians of 7 alternating repeats): 0.36 / 0.33 / 0.34 s at strides
# 8 / 16 / 32 on the horocycle-k1 nodes and 0.46 / 0.48 / 0.44 s on the
# dichotomy-almost nodes, flat within this VM's noise.  Margin: WARM_MARGIN
# clears the REDUCE_TOL band around |z| = 1, and WARM_ULPS counts units of
# eps |word| |mats| y.  On 6.4 M rows of orbit blocks from seven base points
# at offsets 3e3-1e6, every seeded word that differed from the cold word
# lay within 0.75 of those units of the boundary; 16 leaves a factor of 21.
# Dense share: a block in which at least this share of adjacent anchor pairs
# share a word tries the anchors' words before any Gauss pass.  On the
# horocycle-k1 nodes 78% of pairs share a word and 97% of rows pass with an
# anchor's word; integer-time nodes share none.
WARM_STRIDE = 16
WARM_MARGIN = 1e-9
WARM_ULPS = 16.0
WARM_DENSE_SHARE = 0.5
# screen of dense k = 1 orbit blocks (_screened_values): a row whose anchor
# word puts it this far inside the fundamental domain and outside an
# observable's support box is not reduced.  100 x WARM_MARGIN and
# 4 x WARM_ULPS, in the same units.
SCREEN_MARGIN = 1e-7
SCREEN_ULPS = 64.0
# a block screens only where at least this share of its anchor intervals
# is certified whole (_arc_screen).  On 32 blocks of 16 384 dense rows from
# generic1 and quadratic under boxes of growing size centred at (0, 2, 1.5)
# (the box over most of the domain in tests/test_screen.py among them), the
# screened block took 1.17-1.34 times the every-row block's time at shares
# 0.03-0.16, 1.01-1.11 at 0.18-0.24 and 0.68-0.95 at 0.26-0.47 (min of 9
# alternating runs each, 2 vCPU).
SCREEN_MIN_SHARE = 0.25
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
            raise ConfigError("need a squarefree D >= 2")
        for p in range(2, int(math.isqrt(self.disc)) + 1):
            if self.disc % (p * p) == 0:
                raise ConfigError(f"D = {self.disc} is not squarefree")

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

    @cached_property
    def reduction_steps(self):
        """The reduction's constants, computed once: what one unit step scales
        each entry (a, b, c, d per place) by, for m > 0 and m < 0; 2 log|eps|;
        LAPACK's inverse of the basis [[1, w1], [1, w2]] (the closed form
        differs in last bits); (w1, w2)."""
        (e1, e2), (i1, i2) = (self.embed(*u) for u in self.unit_pair)
        w1, w2 = self.omega_embeddings()
        units = [(e1, i1), (e1, i1), (i1, e1), (i1, e1), (e2, i2), (e2, i2), (i2, e2), (i2, e2)]
        return units, 2.0 * math.log(abs(e1)), np.linalg.inv(np.array([[1.0, w1], [1.0, w2]])), (w1, w2)


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


# rows per row_blocks block: a 400 k-row k = 2 arc takes 0.39-0.55 s, 0.48-0.63 s unblocked (2 vCPU)
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


def _phi_stack(xs, gamma_exp: float, k: int) -> np.ndarray:
    """(N,k,2,2) stack of a(-log x / 2) u(x^{1+gamma}) for x in xs (the paper's alpha = 1).

    Translating the identity class by the element at x = n drives the
    reduced cusp height to infinity like sqrt(n): the divergence
    signature separating the two branches of the sparse dichotomy.
    math.log and float ** run one x at a time: numpy's vector log and power
    round some arguments to other bytes.
    """
    xs = [float(x) for x in xs]
    if min(xs) <= 0.0:
        raise ValueError("phi map wants x > 0")
    tau = [-math.log(x) / 2.0 for x in xs]
    return sl2.au_stack(tau, [x ** (1.0 + gamma_exp) for x in xs], k)


# ----------------------------------------------------------------------
# batched Gauss reduction, k = 1
# ----------------------------------------------------------------------

def _mobius_coords(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) of g*i for a (...,2,2) stack; y uses the exact determinant."""
    a, b = mats[..., 0, 0], mats[..., 0, 1]
    c, d = mats[..., 1, 0], mats[..., 1, 1]
    den = c * c + d * d
    return (a * c + b * d) / den, (a * d - b * c) / den


def _gauss_words(mats: np.ndarray, seed: np.ndarray | None = None):
    """The Gauss loop on a (N,2,2) stack, from the word seed (identity if None).

    Returns (word, converged): the exact integer word of every row and
    whether the row finished within REDUCE_MAX_ITER passes.  A row whose
    x is NaN after the first shift (a non-finite entry, or c = d = 0) has
    no word: no later pass would change it, so it leaves unconverged then.
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
    for it in range(REDUCE_MAX_ITER):
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
        # a NaN x shifts by NaN and never inverts, so the row is settled, unconverged
        leave = done | np.isnan(x) if it == 0 else done
        if leave.any():
            fin = rows[leave]
            words[fin, 0], words[fin, 1] = w00[leave], w01[leave]
            words[fin, 2], words[fin, 3] = w10[leave], w11[leave]
            converged[fin] = done[leave] if it == 0 else True
            keep = ~leave
            rows = rows[keep]
            a, b, c, d = a[keep], b[keep], c[keep], d[keep]
            w00, w01, w10, w11 = w00[keep], w01[keep], w10[keep], w11[keep]
    words[rows, 0], words[rows, 1] = w00, w01
    words[rows, 2], words[rows, 3] = w10, w11
    return words.reshape(n, 2, 2), converged


def _norm2(mats: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of every matrix of a (N,2,2) stack."""
    return np.einsum("nij,nij->n", mats, mats)


def _warm_inside(out: np.ndarray, word2: np.ndarray, mats2: np.ndarray) -> np.ndarray:
    """The warm margin rule on out = word @ mats, given |word|^2 and |mats|^2.

    True where the point lies inside the fundamental domain (|x| < 1/2,
    |z|^2 > 1) by WARM_MARGIN + WARM_ULPS * eps * |word| * |mats| * y and
    out has no zero entry (an exact zero takes its sign from the word's
    signed zeros).
    """
    x, y = _mobius_coords(out)
    margin = WARM_MARGIN + WARM_ULPS * np.finfo(float).eps * np.sqrt(word2 * mats2) * y
    inside = (np.abs(x) < 0.5 - margin) & (x * x + y * y > 1.0 + margin)
    nonzero = (out[:, 0, 0] != 0.0) & (out[:, 0, 1] != 0.0) \
        & (out[:, 1, 0] != 0.0) & (out[:, 1, 1] != 0.0)
    return inside & nonzero


def _settle(mats, mats2, rows, w, w2, word, out, conv=None):
    """Give row rows[i] the word w[i] where the warm margin rule accepts
    w[i] @ mats[rows[i]] (and conv[i], if given); writes word and out and
    returns the rows left unsettled."""
    o = w @ np.take(mats, rows, axis=0)
    ok = _warm_inside(o, w2, np.take(mats2, rows))
    if conv is not None:
        ok &= conv
    done = rows[ok]
    word[done], out[done] = np.compress(ok, w, axis=0), np.compress(ok, o, axis=0)
    return rows[~ok]


def _anchor_turns(anchors: np.ndarray):
    """(turn, dense) of the anchor words of a stack (reduce_batch_k1):
    turn[i] true where anchor i + 1 exists and its word differs from anchor
    i's, and whether at least WARM_DENSE_SHARE of adjacent anchor pairs
    share a word."""
    turn = np.append(np.any(anchors[1:] != anchors[:-1], axis=(1, 2)), False)
    pairs = len(turn) - 1
    return turn, pairs - np.count_nonzero(turn) >= WARM_DENSE_SHARE * pairs


def reduce_batch_k1(mats: np.ndarray, warm=None):
    """Gauss-reduce a (N,2,2) stack in place of z = g*i.

    Returns (reduced mats, converged mask, word): the output is
    +-word @ mats for the exact integer word, det 1, the sign fixed so the
    frame angle lies in [0, pi).  Ties go to Re z in (-1/2, 1/2] and to
    Re z >= 0 on the unit circle.

    Warm start: every WARM_STRIDE-th row is an anchor, reduced from the
    identity.  A row's word stands only if word @ mats has no zero entry
    and the point lies inside the fundamental domain (|x| < 1/2,
    |z|^2 > 1) by WARM_MARGIN + WARM_ULPS * eps * |word| * |mats| * y, with
    Frobenius norms (_warm_inside); a word found by the Gauss loop must
    also have finished it.  The block picks the order in which words are
    tried from its anchor words alone:

    * dense (at least WARM_DENSE_SHARE of adjacent anchor pairs share a
      word, as on quadrature nodes of one arc): every row tries the word
      of the anchor at or before it, then, where the next anchor's word
      differs, that word; no Gauss pass runs on a row either accepts.
      The rest run the Gauss loop seeded with the earlier anchor's word.
    * sparse (integer times, random stacks): every row runs the Gauss
      loop seeded with the word of the anchor at or before it.

    warm = (anchors, turn, dense, slot) hands in the anchors of a larger
    stack that these rows were taken from (its anchor words, their
    _anchor_turns and slot[i], the anchor at or before row i there), so no
    anchor pass runs; each row then gets the bytes it gets in that stack's
    call.

    Every row that no word passes, NaN rows included, is reduced cold.  A
    row with a non-finite entry, or with c = d = 0, comes back unconverged
    and has no word: its word entries are NaN or infinite and mean nothing.
    Why that gives the cold bytes: rounding moves the cold loop's point by
    about eps * |word| * |mats| * y (the constants say how this was
    measured), so the cold loop cannot stop at another translate of a
    point that far inside.  An accepted word is then the cold word up to
    sign, however it was found, and the same word in the same product and
    sign flip gives the same bytes; the choice of path only orders exact
    candidates.  Only the sign of an exact zero can depend on the word's
    signed zeros, hence the zero rule.  Every row whose reduction needs a
    tie-break (|x| = 1/2, |z| = 1, the elliptic points i and rho) fails
    the margin and takes the cold path.  The returned word's zero entries
    may differ in sign from the cold word's.
    """
    mats = np.asarray(mats, dtype=float)
    n = mats.shape[0]
    if warm is None:
        anchors, _ = _gauss_words(mats[::WARM_STRIDE])
        turn, dense = _anchor_turns(anchors)
        slot = np.arange(n) // WARM_STRIDE
    else:
        anchors, turn, dense, slot = warm
    mats2 = _norm2(mats)
    seed = np.take(anchors, slot, axis=0)
    if dense:
        # the anchors' words first, the Gauss loop only where both fail
        anchors2 = _norm2(anchors)
        word, conv = seed, np.ones(n, dtype=bool)
        out = word @ mats
        rows = np.flatnonzero(~_warm_inside(out, np.take(anchors2, slot), mats2))
        ahead = turn[slot[rows]]
        right = slot[rows[ahead]] + 1
        missed = _settle(mats, mats2, rows[ahead], np.take(anchors, right, axis=0),
                         np.take(anchors2, right), word, out)
        rows = np.concatenate([rows[~ahead], missed])
        if len(rows):
            w, c = _gauss_words(np.take(mats, rows, axis=0),
                                np.take(anchors, slot[rows], axis=0))
            rows = _settle(mats, mats2, rows, w, _norm2(w), word, out, c)
    else:
        word, conv = _gauss_words(mats, seed)
        out = word @ mats
        rows = np.flatnonzero(~(_warm_inside(out, _norm2(word), mats2) & conv))
    if len(rows):
        cold = np.take(mats, rows, axis=0)
        word[rows], conv[rows] = _gauss_words(cold)
        out[rows] = word[rows] @ cold
    # canonical sign: bottom row angle in [0, pi)
    c, d = out[:, 1, 0], out[:, 1, 1]
    flip = (c < 0) | ((c == 0) & (d < 0))
    np.multiply(out, -1.0, out=out, where=flip[:, None, None])
    return out, conv, word


def iwasawa_coords(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, theta) with theta in [0, pi), for a (...,2,2) stack.

    g = n(x) a(y) k(theta); the bottom row determines the frame angle
    via theta = atan2(c, d) folded modulo pi.  The fold adds pi to the
    negative angles in place and sends -0.0 and pi itself to +0.0, which
    is np.mod(theta, pi) byte for byte on every atan2 output, at under half
    its cost and with no second angle array.  Like np.mod, it gives pi for
    a negative angle within about 2^-52 of 0, where adding pi rounds to pi;
    after the canonical sign of reduce_batch_k1 no k = 1 angle is negative.
    """
    x, y = _mobius_coords(mats)
    theta = np.arctan2(mats[..., 1, 0], mats[..., 1, 1])
    top = theta == np.pi
    theta += 0.0
    np.add(theta, np.pi, out=theta, where=theta < 0.0)
    theta[top] = 0.0
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


def reduce_stack(lattice: Lattice, stack: np.ndarray, warm=None):
    """Reduce a (N,k,2,2) stack of representatives; returns (stack, flags).

    warm: the anchor words of reduce_batch_k1 (k = 1 only), for rows taken
    from a stack whose anchors are already known.
    """
    if stack.ndim != 4:
        raise ValueError("expected (N,k,2,2)")
    if isinstance(lattice, ModularLattice):
        red, conv, _ = reduce_batch_k1(stack[:, 0], warm)
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


def row_blocks(n: int) -> list[tuple[int, int]]:
    """The [lo, hi) bounds of the _BLOCK_ROWS row blocks that tile n rows."""
    return [(lo, min(lo + _BLOCK_ROWS, n)) for lo in range(0, n, _BLOCK_ROWS)]


def orbit_blocks(lattice: Lattice, base: np.ndarray, offsets: np.ndarray, fn,
                 support=None) -> list:
    """[fn(reduced coordinates of orbit_mats(base, offsets[lo:hi]))] over row_blocks.

    Every step works row by row, so the blocks, which only tile memory,
    give the bytes of one whole-stack call.  support = (center, widths,
    off) says that fn returns exactly off at every point outside the open
    box of half-widths widths around center in (x, y, theta mod pi), as a
    BumpFunction does (its support_box); on k = 1 the blocks then skip the
    rows certified outside it (_screened_values), with the same bytes.
    The anchor words and the interval certificate (_arc_screen) are made
    once for the whole call: both work anchor by anchor, and every block
    starts at a multiple of WARM_STRIDE, so a block's share is a slice.
    """
    blocks = row_blocks(len(offsets))
    if support is None or not isinstance(lattice, ModularLattice) or not blocks:
        return [fn(coords_of_stack(lattice, orbit_mats(base, offsets[lo:hi])))
                for lo, hi in blocks]
    anchors, _ = _gauss_words(orbit_mats(base, offsets[::WARM_STRIDE])[:, 0])
    center, widths, off = support
    screen = (_screen_scale(base, offsets, anchors), center[0],
              _screen_reach(center[0], widths[0]))
    whole = _arc_screen(base, offsets, anchors, *screen)
    out = []
    for lo, hi in blocks:
        i, j = lo // WARM_STRIDE, -(-hi // WARM_STRIDE)
        out.append(_screened_values(lattice, base, offsets[lo:hi], fn, off,
                                    anchors[i:j], whole[i:j], screen))
    return out


def _screen(a, b, c, d, scale, center, reach) -> np.ndarray:
    """True where the point with entries a, b, c, d (of word @ mats) lies
    inside the fundamental domain by the screen margin m = SCREEN_MARGIN +
    scale * y and outside the box of half-widths reach around center in
    (x, y, theta mod pi): by m in x and theta, by m * y in y.  scale bounds
    SCREEN_ULPS * eps * |word| * |mats| (Frobenius norms)."""
    den = c * c + d * d
    x, y = (a * c + b * d) / den, (a * d - b * c) / den
    m = SCREEN_MARGIN + scale * y
    inside = (np.abs(x) < 0.5 - m) & (x * x + y * y > 1.0 + m) & (y > 0.0)
    off = (np.abs(x - center[0]) >= reach[0] + m) | (np.abs(y - center[1]) >= reach[1] + m * y)
    rows = np.flatnonzero(inside & ~off)
    dt = np.abs(np.arctan2(c[rows], d[rows]) - center[2]) % np.pi
    off[rows] = np.minimum(dt, np.pi - dt) >= reach[2] + m[rows]
    return inside & off


def _screen_reach(center: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """A support box's half-widths grown by 4 eps of themselves and of
    pi + |center|, which covers the rounding of the bump's own edge tests."""
    eps = np.finfo(float).eps
    return widths * (1.0 + 4.0 * eps) + 4.0 * eps * (np.pi + np.abs(center))


def _screen_scale(base: np.ndarray, offsets: np.ndarray, anchors: np.ndarray) -> float:
    """The scale of _screen over orbit_mats(base, offsets) and the anchor
    words: SCREEN_ULPS * eps * (2 max|anchor entry|) * (2 B), with |g| <= 2
    max|entry| bounding a Frobenius norm and B = (max|base entry| + max|s|
    max(|a|, |c|)) (1 + 4 eps) >= every entry b - s a of orbit_mats.  NaN
    when an offset is NaN."""
    eps = np.finfo(float).eps
    span = np.maximum(-offsets.min(), offsets.max())
    entry = np.abs(base[0]).max() + span * np.abs(base[0, :, 0]).max()
    return SCREEN_ULPS * eps * 4.0 * np.abs(anchors).max(initial=0.0) * entry * (1.0 + 4.0 * eps)


def _anchor_columns(base: np.ndarray, anchors: np.ndarray) -> tuple:
    """(w00, w01, w10, w11, a, c): the entries of the anchor words and the
    first column (a, c) of word @ base, which word @ mats has for every row
    of orbit_mats(base, ...), made once per anchor."""
    w00, w01, w10, w11 = anchors.reshape(-1, 4).T
    (m00, _), (m10, _) = base[0]
    return w00, w01, w10, w11, w00 * m00 + w01 * m10, w10 * m00 + w11 * m10


def _arc_screen(base, offsets, anchors, scale, center, reach) -> np.ndarray:
    """True for anchor interval i, the rows [WARM_STRIDE * i, WARM_STRIDE *
    (i + 1)) of orbit_mats(base, offsets) (the last one may be shorter), when
    the points that anchor i's word W makes of all its rows lie inside the
    fundamental domain and off the box by the margin of _screen, decided
    from the interval's two end rows alone.  The offsets must be monotone,
    as on an arc, so that every row lies between its interval's end rows;
    otherwise no interval is certified.

    Why: with W base = (A B; C D), the row at offset s is the point
    W base (i - s), which runs at hyperbolic speed 1 along a horocycle: a
    circle of Euclidean radius r = 1/(2 C^2) tangent to the real axis, or
    the line y = 1/D^2 when C = 0.  The interval's rows lie on the arc
    between the points P1, P2 of its end rows.  An arc over half that
    circle has hyperbolic length at least pi/2 (Euclidean length pi r at
    heights y <= 2r), so for a spread |s2 - s1| <= 1 it is the
    minor arc, which lies within the sagitta r - sqrt(r^2 - L^2/4) <=
    L^2 / (4r) = C^2 L^2 / 2 = h of the chord P1 P2 (L = |P1 P2|); h needs
    no division and is 0 on the line.  So x lies within h of [min x, max x],
    y within h of [min y, max y] and, as |P1 + t (P2 - P1)|^2 = (1 - t)
    |P1|^2 + t |P2|^2 - t (1 - t) L^2, |z| >= sqrt(min |P|^2 - L^2/4) - h.
    theta = atan2(C, D - s C) is monotone in s (d theta / ds = C^2 y) and
    stays in one open half-turn (constant when C = 0), so it lies between
    its end values, within half their difference of their mean.

    The tests are those of _screen with the margin 2m, m = SCREEN_MARGIN +
    scale * y at the top of the band: one m covers the kernel's rounding,
    as in _screen, and the other the rounding of the end points and of h,
    so every row certified here also passes _screen with its anchor word.
    A non-finite entry fails every test.
    """
    (m00, m01), (m10, m11) = base[0]
    w00, w01, w10, w11, a, c = _anchor_columns(base, anchors)
    n = len(offsets)
    first = np.arange(0, n, WARM_STRIDE)
    if not (np.all(offsets[1:] >= offsets[:-1]) or np.all(offsets[1:] <= offsets[:-1])):
        return np.zeros(len(first), dtype=bool)
    s1, s2 = offsets[first], offsets[np.minimum(first + WARM_STRIDE, n) - 1]
    short = np.abs(s2 - s1) <= 1.0
    if not short.any():
        # integer times: every interval spreads too far (see below)
        return short
    ends = []
    for s in (s1, s2):
        # the entries of orbit_mats(base, [s]) and of W times them, as _screen forms them
        b01, b11 = m01 - s * m00, m11 - s * m10
        b, d = w00 * b01 + w01 * b11, w10 * b01 + w11 * b11
        den = c * c + d * d
        ends.append(((a * c + b * d) / den, (a * d - b * c) / den, np.arctan2(c, d)))
    (x1, y1, t1), (x2, y2, t2) = ends
    chord2 = (x2 - x1) ** 2 + (y2 - y1) ** 2
    h = 0.5 * c * c * chord2
    y_lo, y_hi = np.minimum(y1, y2) - h, np.maximum(y1, y2) + h
    x_lo, x_hi = np.minimum(x1, x2) - h, np.maximum(x1, x2) + h
    m = 2.0 * (SCREEN_MARGIN + scale * y_hi)
    near = np.minimum(x1 * x1 + y1 * y1, x2 * x2 + y2 * y2) - 0.25 * chord2
    inside = short & (np.maximum(-x_lo, x_hi) < 0.5 - m) & (y_lo > 0.0) \
        & (near > (np.sqrt(1.0 + m) + h) ** 2)
    off = (x_lo - center[0] >= reach[0] + m) | (center[0] - x_hi >= reach[0] + m) \
        | (y_lo - center[1] >= reach[1] + m * y_hi) | (center[1] - y_hi >= reach[1] + m * y_hi)
    # theta only where the rest passes, as in _screen
    todo = np.flatnonzero(inside & ~off)
    dt = np.abs(0.5 * (t1[todo] + t2[todo]) - center[2]) % np.pi
    off[todo] = np.minimum(dt, np.pi - dt) >= reach[2] + m[todo] + 0.5 * np.abs(t2 - t1)[todo]
    return inside & off


def _screened_values(lattice: ModularLattice, base: np.ndarray, offsets: np.ndarray, fn,
                     off: float, anchors: np.ndarray, whole: np.ndarray, screen) -> np.ndarray:
    """fn(reduced coordinates of orbit_mats(base, offsets)), where fn returns
    off outside a box (orbit_blocks), reducing only the rows it must.
    anchors are the cold words of every WARM_STRIDE-th row, whole the
    intervals _arc_screen certified and screen = (scale, center, reach) the
    arguments of _screen.

    Where fewer than SCREEN_MIN_SHARE of the intervals are certified (a box
    over most of the domain, or integer times, whose intervals spread
    wider than 1), the screen costs more than the rows it saves, and every
    row runs reduce_stack with these anchors.  Otherwise the certified
    intervals get off and their rows are never formed.  Each row of the
    others is formed and _screen tries it with the word of the anchor at or
    before it and then, where that word differs, the next anchor's, as
    reduce_batch_k1 tries them; the rows it certifies get off too.
    reduce_stack, fn and the fold see only the rest, seeded with the same
    anchors, so each of those gets the bytes of the whole-block call.

    Why a row certified by _screen gets off: the entry-by-entry point
    differs from the kernel's word @ mats by at most 2 eps |word| |mats|
    per entry, which moves x by at most 8 sqrt(y) + 4 y + 2, theta by at
    most 3 sqrt(y) and y by at most (4 + 12 y) sqrt(y) units eps |word|
    |mats| to first order, for |x| <= 1/2 and y >= sqrt(3)/2.  The
    margin's 64 y units (64 y^2 in y; _screen_scale bounds |word| |mats|
    over the whole call) cover that, so the kernel's product lies inside
    the domain by more than the warm margin, and by the kernel's own margin
    argument the anchor word is the row's cold word up to sign, which only
    flips the signs of the output.  The reduced point is therefore off the
    box as well, and _screen_reach covers the rounding of the bump's own
    edge tests (a difference, the fold modulo pi and a division), so
    evaluate_coords returns exactly off there.  SCREEN_MARGIN covers the
    few ulps of pi by which atan2, the sign flip and the fold move theta.
    A row of a certified interval lies inside the domain and off the box
    by twice that margin before rounding, and the one rounding of b - s a
    in orbit_mats adds at most eps |mats| per entry, so the same argument
    holds for it.  A non-finite entry anywhere in the call makes the margin
    NaN or infinite, and no row is certified.
    """
    turn, dense = _anchor_turns(anchors)
    if np.count_nonzero(whole) < SCREEN_MIN_SHARE * len(whole):
        red, _ = reduce_stack(lattice, orbit_mats(base, offsets),
                              warm=(anchors, turn, dense, np.arange(len(offsets)) // WARM_STRIDE))
        return fn(np.stack(iwasawa_coords(red), axis=-1))
    rows = np.flatnonzero(np.repeat(~whole, WARM_STRIDE)[:len(offsets)])
    slot = rows // WARM_STRIDE
    stack = orbit_mats(base, offsets[rows])
    w00, w01, w10, w11, a, c = _anchor_columns(base, anchors)
    b01, b11 = stack[:, 0, 0, 1], stack[:, 0, 1, 1]

    def certified(word, sel) -> np.ndarray:
        """_screen of the rows sel of stack with the anchor words word."""
        return _screen(a[word], w00[word] * b01[sel] + w01[word] * b11[sel],
                       c[word], w10[word] * b01[sel] + w11[word] * b11[sel], *screen)

    ok = certified(slot, np.s_[:])
    retry = np.flatnonzero(~ok & turn[slot])
    ok[retry] = certified(slot[retry] + 1, retry)
    left = np.flatnonzero(~ok)
    vals = np.full(len(offsets), off)
    if len(left):
        red, _ = reduce_stack(lattice, np.take(stack, left, axis=0),
                              warm=(anchors, turn, dense, slot[left]))
        vals[rows[left]] = fn(np.stack(iwasawa_coords(red), axis=-1))
    return vals


def orbit_values(lattice: Lattice, base: np.ndarray, offsets: np.ndarray, fn) -> np.ndarray:
    """fn(reduced coordinates of orbit_mats(base, offsets)), block by block."""
    if len(offsets) == 0:
        return fn(np.empty((0, lattice.k, 3)))
    return np.concatenate(orbit_blocks(lattice, base, offsets, fn), axis=0)


def coordinates(p: QuotientPoint) -> np.ndarray:
    """(k, 3) reduced coordinates of a single class."""
    return coords_of_stack(p.lattice, p.rep.mats[None])[0]


# ----------------------------------------------------------------------
# Hilbert-modular best-effort reduction, k = 2
# ----------------------------------------------------------------------

def _reduce_stack_hilbert(lat: HilbertLattice, stack: np.ndarray):
    """Bounded local search: unit balancing, translations, inversion.

    Maximises the product height y1*y2 and centres (x1, x2) at the origin
    of the embedded integer lattice; the flag reports whether a fixed point
    was reached within the round budget (best effort).

    A round updates the (8, live) entry block (a, b, c, d per place) in
    place by masks.  Each step reads only its own row, so a row no step
    moved is an exact fixed point: it is flagged converged and closes up
    behind the moving rows.  The bytes are the full-stack loop's because
    every per-row expression is kept: x, y = (ac + bd, ad - bc)/(c^2 + d^2);
    m = rint(-0.5 log(y1/y2) / (2 log|eps|)), 0 where not finite; |m| unit
    steps one after another, each v * unit + 0.0 (diag(e, 1/e) @ g, exact
    zeros +0), on rows taken once per round so a step costs what its rows
    cost; t = m + n*w from rint of LAPACK's basis inverse times (x1, x2),
    a - t*c on the rows it moves; inversion where 1/(r1^2 r2^2) > 1 + 1e-12,
    reusing c*c + d*d, which the translation leaves alone.
    """
    units, log_step, ((p, q), (r, s)), (w1, w2) = lat.reduction_steps
    n = live = len(stack)
    # entries of the stack rows in `rows`: live rows first, then settled ones
    buf = np.asarray(stack, dtype=float).reshape(n, 8).T.copy()
    rows = np.arange(n)
    for _ in range(HILBERT_MAX_ROUNDS):
        if live == 0:
            break
        a1, b1, c1, d1, a2, b2, c2, d2 = ent = buf[:, :live]
        den1, den2 = c1 * c1 + d1 * d1, c2 * c2 + d2 * d2
        m = np.rint(-(0.5 * np.log(((a1 * d1 - b1 * c1) / den1) / ((a2 * d2 - b2 * c2) / den2)))
                    / log_step)
        moved = np.isfinite(m)
        moved &= m != 0.0
        if moved.any():
            # stepping rows by m descending (|m| < 800: int16 sorts by radix); step j
            # scales the m >= j rows, which lead, and the m <= -j rows, which trail
            step = np.flatnonzero(moved)
            step = step[np.argsort(-m[step].astype(np.int16), kind="stable")]
            key = -m[step].astype(np.int16)
            cuts = [(np.s_[:end], 0) for end in np.searchsorted(key, -np.arange(1, 1 - key[0]), "right")]
            cuts += [(np.s_[start:], 1) for start in np.searchsorted(key, np.arange(1, 1 + key[-1]))]
            for entry, scale in zip(ent, units):
                v = entry[step]
                for cut, sign in cuts:
                    v[cut] *= scale[sign]
                    v[cut] += 0.0
                entry[step] = v
            del step, key, v
            den1, den2 = c1 * c1 + d1 * d1, c2 * c2 + d2 * d2
        del m
        x1, x2 = (a1 * c1 + b1 * d1) / den1, (a2 * c2 + b2 * d2) / den2
        tm = np.rint(p * x1 + q * x2).astype(int)
        tn = np.rint(r * x1 + s * x2).astype(int)
        shift = (tm != 0) | (tn != 0)
        if shift.any():
            moved |= shift
            # [[1, -t], [0, 1]] on the left: a, b of each place less t times c, d
            for a, b, c, d, w in ((a1, b1, c1, d1, w1), (a2, b2, c2, d2, w2)):
                t = tm + tn * w
                np.subtract(a, t * c, out=a, where=shift)
                np.subtract(b, t * d, out=b, where=shift)
            del t, tm, tn
            x1, x2 = (a1 * c1 + b1 * d1) / den1, (a2 * c2 + b2 * d2) / den2
        y1, y2 = (a1 * d1 - b1 * c1) / den1, (a2 * d2 - b2 * c2) / den2
        del den1, den2
        flip = 1.0 / ((x1 * x1 + y1 * y1) * (x2 * x2 + y2 * y2)) > 1.0 + 1e-12
        del x1, x2, y1, y2
        if flip.any():
            moved |= flip
            for top, low in ((a1, c1), (b1, d1), (a2, c2), (b2, d2)):  # (a, c) -> (-c, a)
                neg = -low
                np.copyto(low, top, where=flip)
                np.copyto(top, neg, where=flip)
        if not moved.all():
            # settled rows close up behind the moving ones
            for entry in (*ent, rows[:live]):
                entry[:] = np.concatenate([entry[moved], entry[~moved]])
            live = np.count_nonzero(moved)
    out = np.empty((n, 8))
    out[rows] = buf.T
    converged = np.zeros(n, dtype=bool)
    converged[rows[live:]] = True
    return out.reshape(n, 2, 2, 2), converged


# ----------------------------------------------------------------------
# Gamma enumeration (generator balls, exact integer arithmetic)
# ----------------------------------------------------------------------

def _canonical_sign(keys: np.ndarray) -> np.ndarray:
    """Integer rows (N, L), each signed so that its first nonzero entry is positive."""
    first = keys[np.arange(len(keys)), np.argmax(keys != 0, axis=1)]
    return np.where((first < 0)[:, None], -keys, keys)


@cache
def enumerate_gamma(lattice: Lattice, max_entry: float = ENUM_MAX_ENTRY,
                    budget: int | None = None) -> np.ndarray:
    """Ball of Gamma elements around the identity, as a (N,k,2,2) stack.

    Breadth-first over a symmetric generator set with exact integer
    bookkeeping, pruned by embedded entry height and capped by budget;
    elements are kept modulo overall sign and returned with the identity
    first.  Deterministic for fixed parameters, built once per argument
    list and read-only.
    """
    if budget is None:
        budget = ENUM_BUDGET_K1 if lattice.k == 1 else ENUM_BUDGET_K2
    if isinstance(lattice, ModularLattice):
        stack = _enumerate_modular(max_entry, budget)
    else:
        stack = _enumerate_hilbert(lattice, max_entry, budget)
    stack.flags.writeable = False
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
# injectivity radius, cusp height
# ----------------------------------------------------------------------

def _with_negations(stack: np.ndarray) -> np.ndarray:
    """Append the sign-flipped copies (Gamma contains -identity)."""
    return np.concatenate([stack, -stack], axis=0)


def _ball_words(left: np.ndarray, gammas: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left^{-1} gamma right for every gamma of a (N,k,2,2) stack; left, right are (k,2,2)."""
    return np.einsum("kab,nkbc,kcd->nkad", sl2.inverse(left), gammas, right)


def injectivity_radius(p: QuotientPoint) -> float:
    """(1/2) min over enumerated nontrivial gamma of d(rep, gamma rep).

    Estimated from the bounded enumeration only, hence clamped to
    ETA_VALIDITY_RADIUS, beyond which the ball gives no certificate.
    """
    gammas = enumerate_gamma(p.lattice)
    gammas = _with_negations(gammas[1:])  # drop identity; keep -identity out too
    disp = sl2.displacement_from_identity_batch(_ball_words(p.rep.mats, gammas, p.rep.mats))
    return float(min(0.5 * disp.min(), ETA_VALIDITY_RADIUS))


def cusp_heights(lattice: Lattice, stack: np.ndarray) -> np.ndarray:
    """Cusp heights of a (N,k,2,2) stack of representatives, reduced once.

    k=1: the imaginary part of the Gauss-reduced z.  k=2: the product
    height y1*y2 maximised over a bounded family of O-rows (c, d),
    the standard height at the cusp at infinity, taken row by row so the
    (c, d) family is never broadcast against the whole stack.
    """
    return reduced_heights(lattice, reduce_stack(lattice, stack)[0])


def reduced_heights(lattice: Lattice, red: np.ndarray) -> np.ndarray:
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


@cache
def _cd_rows(lat: HilbertLattice) -> np.ndarray:
    """Embedded nonzero rows (c, d) in O^2 with coefficients up to
    CUSP_CD_COEFF_BOUND; built once per lattice and read-only."""
    rng = np.arange(-CUSP_CD_COEFF_BOUND, CUSP_CD_COEFF_BOUND + 1)
    mn = tensor_grid([rng, rng])
    # both embeddings of one O-element per row
    pairs = mn[:, :1] + mn[:, 1:] * np.array(lat.omega_embeddings())
    ce = np.repeat(pairs, len(pairs), axis=0)
    de = np.tile(pairs, (len(pairs), 1))
    keep = ~((np.abs(ce).max(axis=1) < 1e-12) & (np.abs(de).max(axis=1) < 1e-12))
    rows = np.stack([ce[keep], de[keep]], axis=1)  # (M, 2=c/d, 2=place)
    rows.flags.writeable = False
    return rows


# ----------------------------------------------------------------------
# divergence detection and torus-orbit certification
# ----------------------------------------------------------------------

@dataclass
class DivergenceReport:
    heights: np.ndarray
    diverges: bool
    first_escape: float | None


def detect_divergence(p: QuotientPoint, mode: str = "geodesic",
                      t_max: float = 30.0, samples: int = 60,
                      gamma_exp: float = 0.1) -> DivergenceReport:
    """Sample cusp heights along the contracting geodesic or the phi map (_phi_stack).

    Divergence = the height passes HEIGHT_THRESHOLD at some sample time,
    never drops below HEIGHT_THRESHOLD * HYSTERESIS afterwards, and at least
    MIN_ESCAPE_TAIL samples confirm the escape (finite-horizon verdict
    with hysteresis; evidence, not proof).
    """
    k = p.lattice.k
    if mode == "geodesic":
        times = np.linspace(0.0, t_max, samples)
        elements = sl2.au_stack(-times, 0.0, k)
    elif mode == "phi":
        times = distinct_sorted(np.floor(np.geomspace(1.0, max(t_max, 2.0), samples)))
        elements = _phi_stack(times, gamma_exp, k)
    else:
        raise ValueError(f"unknown divergence mode {mode!r}")
    # act(g, p) for every sample g
    heights = cusp_heights(p.lattice, np.matmul(p.rep.mats, sl2.inverse(elements)))
    escape = heights > HEIGHT_THRESHOLD
    diverges = False
    first_escape = None
    if escape.any():
        j = int(np.argmax(escape))
        tail_ok = bool(np.all(heights[j:] >= HEIGHT_THRESHOLD * HYSTERESIS))
        if tail_ok and len(heights) - j >= MIN_ESCAPE_TAIL:
            diverges = True
            first_escape = float(times[j])
    return DivergenceReport(heights=heights, diverges=diverges, first_escape=first_escape)


@dataclass
class TorusReport:
    found: bool
    torus_dim: int
    generators: list[GroupElement]
    orbit_height_bound: float | None
    commutation_defect: float


def torus_orbit_check(p: QuotientPoint, grid: int = 6) -> TorusReport:
    """Search the stabiliser of the class for a full-rank unipotent torus.

    Every enumerated gamma yields the stabiliser element
    h = rep^{-1} gamma rep; h is kept when its first factor is a strict
    upper-triangular unipotent (it must lie on the horocycle direction
    itself) and every other factor is unipotent (trace 2 within 1e-9).
    The kept logarithms must span rank k and commute pairwise; the
    candidate torus orbit is then sampled on a grid to certify cusp
    height at most HEIGHT_THRESHOLD.
    """
    lat = p.lattice
    k = lat.k
    h_all = _ball_words(p.rep.mats, enumerate_gamma(lat)[1:], p.rep.mats)
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
    gens = cand[chosen]
    defect = max([0.0] + [float(np.max(np.abs(a @ b - b @ a)))
                          for a, b in itertools.combinations(gens, 2)])
    found = torus_dim == k and defect <= UNIPOTENT_TOL
    bound = None
    if found:
        # translate(p, I + sum_i c_i (gen_i - I)) for every c on the grid [0, 1]^k
        nil = gens - np.eye(2)
        coords = tensor_grid([np.linspace(0.0, 1.0, grid)] * torus_dim)
        shifts = np.eye(2) + sum(coords[:, i, None, None, None] * nil[i] for i in range(torus_dim))
        bound = float(cusp_heights(lat, np.matmul(p.rep.mats, shifts)).max())
        found = bound <= HEIGHT_THRESHOLD
    return TorusReport(found=found, torus_dim=torus_dim,
                       generators=[GroupElement(g) for g in gens],
                       orbit_height_bound=bound, commutation_defect=defect)
