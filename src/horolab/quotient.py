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

Injectivity radius, lattice-point enumeration and the distance between
classes are all computed from bounded generator-ball enumerations of
Gamma, and are certified only within the enumeration validity radius.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import sl2
from .errors import ConfigError
from .quadrature import tensor_grid
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


def flow_u(p: QuotientPoint, t: float) -> QuotientPoint:
    """Horocycle flow for time t (translation by u(t))."""
    return act(sl2.unipotent_u(t, p.lattice.k), p)


# rows per orbit_values block: a 400 k-row k = 2 arc takes 0.39-0.55 s, 0.48-0.63 s unblocked (2 vCPU)
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


def phi_map(x: float, gamma_exp: float) -> GroupElement:
    """The composed element a(-log x / 2) * u(x^{1+gamma}) of SL(2,R) (the paper's alpha = 1).

    Translating the identity class by this element at x = n drives the
    reduced cusp height to infinity like sqrt(n): the divergence
    signature separating the two branches of the sparse dichotomy.
    """
    return GroupElement(_phi_stack([x], gamma_exp, 1)[0])


def _phi_stack(xs, gamma_exp: float, k: int) -> np.ndarray:
    """(N,k,2,2) stack of phi_map(x) for x in xs.

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

def _mobius_coords(mats: np.ndarray,
                   want: str = "xy") -> tuple[np.ndarray | None, np.ndarray | None]:
    """(x, y) of g*i for a (...,2,2) stack; y uses the exact determinant.
    Only the coordinates named in want are computed, the other is None."""
    a, b = mats[..., 0, 0], mats[..., 0, 1]
    c, d = mats[..., 1, 0], mats[..., 1, 1]
    den = c * c + d * d
    x = (a * c + b * d) / den if "x" in want else None
    y = (a * d - b * c) / den if "y" in want else None
    return x, y


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


def reduce_batch_k1(mats: np.ndarray):
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
    anchors, _ = _gauss_words(mats[::WARM_STRIDE])
    mats2 = _norm2(mats)
    seed = np.repeat(anchors, WARM_STRIDE, axis=0)[:n]
    # turn[i]: anchor i + 1 exists and its word differs from anchor i's
    turn = np.append(np.any(anchors[1:] != anchors[:-1], axis=(1, 2)), False)
    pairs = len(turn) - 1
    if pairs - np.count_nonzero(turn) >= WARM_DENSE_SHARE * pairs:
        # dense: the anchors' words first, the Gauss loop only where both fail
        anchors2 = _norm2(anchors)
        word, conv = seed, np.ones(n, dtype=bool)
        out = word @ mats
        rows = np.flatnonzero(~_warm_inside(out, np.repeat(anchors2, WARM_STRIDE)[:n], mats2))
        ahead = turn[rows // WARM_STRIDE]
        right = rows[ahead] // WARM_STRIDE + 1
        missed = _settle(mats, mats2, rows[ahead], np.take(anchors, right, axis=0),
                         np.take(anchors2, right), word, out)
        rows = np.concatenate([rows[~ahead], missed])
        if len(rows):
            w, c = _gauss_words(np.take(mats, rows, axis=0),
                                np.take(anchors, rows // WARM_STRIDE, axis=0))
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

def _balance_units(ent: np.ndarray, lat: HilbertLattice) -> np.ndarray:
    """Apply diag-unit^m in place to balance y1 against y2; returns the mask
    of rows moved.  y1/y2 scales by eps^{4m}; the unit is applied |m| times
    one step after another (a power eps^m rounds differently)."""
    (e1, e2), (i1, i2) = (lat.embed(*u) for u in lat.unit_pair)
    _, y = _mobius_coords(np.moveaxis(ent.reshape(2, 2, 2, -1), -1, 1), "y")
    ratio = 0.5 * np.log(y[0] / y[1])
    m = np.rint(-ratio / (2.0 * math.log(abs(e1))))
    m = np.nan_to_num(m, nan=0.0, posinf=0.0, neginf=0.0).astype(int)
    for sign, unit in ((1, [e1, e1, i1, i1, e2, e2, i2, i2]),
                       (-1, [i1, i1, e1, e1, i2, i2, e2, e2])):
        rows = np.flatnonzero(m * sign > 0)
        left = np.abs(m[rows])
        while len(rows):
            for entry, scale in zip(ent, unit):
                entry[rows] = entry[rows] * scale + 0.0
            left -= 1
            rows, left = rows[left > 0], left[left > 0]
    return m != 0


def _translate(ent: np.ndarray, lat: HilbertLattice) -> np.ndarray:
    """Apply the nearest O-translation of (x1, x2) in place; returns the
    mask of rows moved.  The basis inverse is LAPACK's, which the closed
    form misses in last bits; only rint of its products is read."""
    w1, w2 = lat.omega_embeddings()
    (p, q), (r, s) = np.linalg.inv(np.array([[1.0, w1], [1.0, w2]]))
    x, _ = _mobius_coords(np.moveaxis(ent.reshape(2, 2, 2, -1), -1, 1), "x")
    m = np.rint(p * x[0] + q * x[1]).astype(int)
    n = np.rint(r * x[0] + s * x[1]).astype(int)
    moved = (m != 0) | (n != 0)
    rows = np.flatnonzero(moved)
    m, n = m[rows], n[rows]
    # [[1, -t], [0, 1]] on the left: a, b of each factor less t times c, d
    for top, t in ((0, m + n * w1), (4, m + n * w2)):
        for i in (top, top + 1):
            ent[i][rows] -= t * ent[i + 2][rows]
    return moved


def _invert(ent: np.ndarray) -> np.ndarray:
    """Invert in place where it grows the product height; returns the mask
    of rows moved."""
    x, y = _mobius_coords(np.moveaxis(ent.reshape(2, 2, 2, -1), -1, 1))
    r2 = x * x + y * y
    del x, y
    moved = 1.0 / (r2[0] * r2[1]) > 1.0 + 1e-12
    rows = np.flatnonzero(moved)
    for i in (0, 1, 4, 5):
        ent[i][rows], ent[i + 2][rows] = -ent[i + 2][rows], ent[i][rows]
    return moved


def _reduce_stack_hilbert(lat: HilbertLattice, stack: np.ndarray):
    """Bounded local search: unit balancing, translations, inversion.

    Maximises the product height y1*y2 and centres (x1, x2) at the
    origin of the embedded integer lattice; the flag reports whether a
    fixed point was reached within the round budget (best effort).

    Rows are held as eight contiguous entry arrays (a, b, c, d per factor);
    each step is a helper, so its temporaries are freed before the next.
    A step reads only its own row, so a row no step moved in a round is an
    exact fixed point: it retires, flagged converged.  The unit step gives
    the bytes of diag(e, 1/e) @ g: e*a + 0*c is e*a for finite c, but an
    exact zero comes out +0 (hence the + 0.0), and a row with a non-finite
    entry has a non-finite height ratio, so it is never balanced.
    """
    stack = np.asarray(stack, dtype=float)
    n = live = len(stack)
    # entries of the stack rows in `rows`: live rows first, then retired ones
    ent = stack.reshape(n, 8).T.copy()
    rows = np.arange(n)
    for _ in range(HILBERT_MAX_ROUNDS):
        if live == 0:
            break
        work = ent[:, :live]
        moved = _balance_units(work, lat)
        moved |= _translate(work, lat)
        moved |= _invert(work)
        if not moved.all():
            order = np.concatenate([np.flatnonzero(moved), np.flatnonzero(~moved)])
            for entry in (*ent, rows):  # permuted in place
                entry[:live] = entry[:live][order]
            live = int(moved.sum())
    out = np.empty((n, 8))
    out[rows] = ent.T
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
# distances, injectivity radius, cusp height
# ----------------------------------------------------------------------

def _with_negations(stack: np.ndarray) -> np.ndarray:
    """Append the sign-flipped copies (Gamma contains -identity)."""
    return np.concatenate([stack, -stack], axis=0)


def _ball_words(left: np.ndarray, gammas: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left^{-1} gamma right for every gamma of a (N,k,2,2) stack; left, right are (k,2,2)."""
    return np.einsum("kab,nkbc,kcd->nkad", sl2.inverse(left), gammas, right)


def quotient_distance(p: QuotientPoint, q: QuotientPoint) -> float:
    """min over enumerated gamma of distance(p.rep, gamma * q.rep).

    Scans both orderings of the pair, which amounts to minimising over
    the enumerated ball together with its inverses; the result is
    symmetric in (p, q) by construction.
    """
    if p.lattice != q.lattice:
        raise ValueError("points live on different quotients")
    gammas = _with_negations(enumerate_gamma(p.lattice))
    best = np.inf
    for left, right in ((p, q), (q, p)):
        w = _ball_words(left.rep.mats, gammas, right.rep.mats)
        best = min(best, float(sl2.displacement_from_identity_batch(w).min()))
    return best


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
    times: np.ndarray
    heights: np.ndarray
    diverges: bool
    first_escape: float | None


def detect_divergence(p: QuotientPoint, mode: str = "geodesic",
                      t_max: float = 30.0, samples: int = 60,
                      gamma_exp: float = 0.1) -> DivergenceReport:
    """Sample cusp heights along the contracting geodesic or phi_map (alpha = 1).

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
        times = np.unique(np.floor(np.geomspace(1.0, max(t_max, 2.0), samples)))
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
    return DivergenceReport(times=times, heights=heights, diverges=diverges,
                            first_escape=first_escape)


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
