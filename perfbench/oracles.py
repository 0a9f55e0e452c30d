"""Independent oracles for the benchmark's correctness checks.

Each oracle recomputes a quantity without going through horolab's own
code path for it: a 60-digit Gauss reduction, one-dimensional scipy
quadratures, exact integer arithmetic in Z[omega], and a prime-power
sieve.  Inputs (matrices, bump parameters) may come from horolab; the
arithmetic never does.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import integrate

MP_DPS = 60
GAUSS_MAX_STEPS = 100_000


# ----------------------------------------------------------------------
# k = 1: heights of orbit nodes
# ----------------------------------------------------------------------

def gauss_height(rep, t: float) -> float:
    """Im of the Gauss-reduced z for the class of rep * u(-t), at 60 digits.

    rep is a 2x2 float matrix and t a float; both are taken as exact.
    u(-t) = [[1, -t], [0, 1]] is the horolab convention for the orbit
    point at time t.  The height is a class invariant, so the boundary
    identifications of the fundamental domain do not affect it.
    """
    with mpmath.workdps(MP_DPS):
        a, b, c, d = (mpmath.mpf(float(v)) for v in (rep[0][0], rep[0][1],
                                                     rep[1][0], rep[1][1]))
        tt = mpmath.mpf(float(t))
        b, d = b - a * tt, d - c * tt
        den = c * c + d * d
        x = (a * c + b * d) / den
        y = (a * d - b * c) / den
        half = mpmath.mpf(1) / 2
        for _ in range(GAUSS_MAX_STEPS):
            x -= mpmath.floor(x + half)
            r2 = x * x + y * y
            if r2 >= 1:
                return float(y)
            x, y = -x / r2, y / r2
    raise RuntimeError("Gauss reduction did not terminate")


# ----------------------------------------------------------------------
# k = 1: invariant integral of a product bump
# ----------------------------------------------------------------------

def _profile(r: float) -> float:
    """exp(1 + 1/(r^2 - 1)) on |r| < 1, else 0."""
    return math.exp(1.0 + 1.0 / (r * r - 1.0)) if abs(r) < 1.0 else 0.0


def bump_integral_k1(center, widths, amplitude: float = 1.0) -> float:
    """Normalised invariant integral of a k = 1 product bump.

    The invariant measure is dx dy / y^2 dtheta with theta in [0, pi),
    of total mass (pi/3) * pi.  When the bump's (x, y) support lies in
    the fundamental domain |x| <= 1/2, x^2 + y^2 >= 1, the integral over
    the quotient is a product of three one-dimensional integrals.
    """
    cx, cy, ct = (float(v) for v in center)
    wx, wy, wt = (float(v) for v in widths)
    if not (abs(cx) + wx <= 0.5 and cy - wy >= 1.0 and wt <= math.pi / 2.0):
        raise ValueError("bump support is not inside the fundamental domain")
    opts = {"epsabs": 0.0, "epsrel": 1e-12, "limit": 200}
    ix, _ = integrate.quad(lambda x: _profile((x - cx) / wx), cx - wx, cx + wx, **opts)
    iy, _ = integrate.quad(lambda y: _profile((y - cy) / wy) / (y * y),
                           cy - wy, cy + wy, **opts)
    # theta distance is folded modulo pi; a support of half-width wt <= pi/2
    # covers an arc of length 2 wt of the frame circle
    it, _ = integrate.quad(lambda s: _profile(s / wt), -wt, wt, **opts)
    return amplitude * ix * iy * it / (math.pi * math.pi / 3.0)


# ----------------------------------------------------------------------
# k = 2: exact Gamma-equivalence in SL2(O), O = Z[omega]
# ----------------------------------------------------------------------

def omega_embeddings(disc: int) -> tuple[float, float]:
    r = math.sqrt(disc)
    if disc % 4 == 1:
        return (1.0 + r) / 2.0, (1.0 - r) / 2.0
    return r, -r


def o_mul(disc: int, u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """(m1 + n1 w)(m2 + n2 w) in the basis (1, w), exact."""
    (m1, n1), (m2, n2) = u, v
    if disc % 4 == 1:
        c = (disc - 1) // 4  # w^2 = w + c
        return m1 * m2 + n1 * n2 * c, m1 * n2 + n1 * m2 + n1 * n2
    return m1 * m2 + n1 * n2 * disc, m1 * n2 + n1 * m2


def o_embed(disc: int, u: tuple[int, int]) -> tuple[float, float]:
    w1, w2 = omega_embeddings(disc)
    return u[0] + u[1] * w1, u[0] + u[1] * w2


def recover_gamma(disc: int, reduced: np.ndarray, given: np.ndarray,
                  tol: float = 1e-6):
    """gamma = reduced * given^{-1} as an exact element of SL2(O), or None.

    reduced and given are (2, 2, 2) stacks, one 2x2 matrix per real
    place.  Each entry of gamma is a pair of embeddings (e1, e2) of some
    m + n w; m and n are recovered, rounded, and must be integral within
    tol (relative to the entry size).  det(gamma) = 1 is then checked in
    exact integers.  Returns ((a, b), (c, d)) with entries (m, n), or
    None when gamma is not in SL2(O).
    """
    w1, w2 = omega_embeddings(disc)
    gam = []
    for j in range(2):
        g = np.asarray(given[j], dtype=float)
        det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
        inv = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]]) / det
        gam.append(np.asarray(reduced[j], dtype=float) @ inv)
    entries = []
    for r in range(2):
        row = []
        for s in range(2):
            e1, e2 = gam[0][r, s], gam[1][r, s]
            n = (e1 - e2) / (w1 - w2)
            m = e1 - n * w1
            scale = max(1.0, abs(e1), abs(e2))
            mi, ni = round(m), round(n)
            if abs(m - mi) > tol * scale or abs(n - ni) > tol * scale:
                return None
            row.append((int(mi), int(ni)))
        entries.append(tuple(row))
    (a, b), (c, d) = entries
    ad, bc = o_mul(disc, a, d), o_mul(disc, b, c)
    if (ad[0] - bc[0], ad[1] - bc[1]) != (1, 0):
        return None
    return tuple(entries)


def random_gamma_k2(rng: np.random.Generator, disc: int, unit: tuple[int, int],
                    length: int) -> tuple:
    """An exact element of SL2(O) as a random word in T_1, T_w, S, diag(unit).

    unit is a unit of O with norm +-1 (its inverse is +-conjugate).
    """
    one, zero = (1, 0), (0, 0)
    conj = (unit[0] + unit[1], -unit[1]) if disc % 4 == 1 else (unit[0], -unit[1])
    norm = o_mul(disc, unit, conj)[0]
    unit_inv = conj if norm == 1 else (-conj[0], -conj[1])
    gens = [
        (one, one, zero, one), (one, (-1, 0), zero, one),
        (one, (0, 1), zero, one), (one, (0, -1), zero, one),
        (zero, (-1, 0), one, zero),
        (unit, zero, zero, unit_inv), (unit_inv, zero, zero, unit),
    ]
    def dot(u, v, w, x):  # u v + w x in O
        (p, q), (r, s) = o_mul(disc, u, v), o_mul(disc, w, x)
        return p + r, q + s

    g = (one, zero, zero, one)
    for idx in rng.integers(0, len(gens), size=length):
        a, b, c, d = g
        e, f, h, k = gens[int(idx)]
        g = (dot(a, e, b, h), dot(a, f, b, k), dot(c, e, d, h), dot(c, f, d, k))
    return g


def embed_gamma(disc: int, g: tuple) -> np.ndarray:
    """(2, 2, 2) embedded stack of an exact SL2(O) element (a, b, c, d)."""
    out = np.empty((2, 2, 2))
    for pos, ent in zip(((0, 0), (0, 1), (1, 0), (1, 1)), g):
        e1, e2 = o_embed(disc, ent)
        out[0][pos] = e1
        out[1][pos] = e2
    return out


# ----------------------------------------------------------------------
# k = 1: exact SL2(Z) words
# ----------------------------------------------------------------------

def random_gamma_k1(rng: np.random.Generator, max_entry: int, length: int) -> np.ndarray:
    """A 2x2 SL2(Z) element as a random word in S, T, T^-1, entries <= max_entry."""
    gens = (((0, -1), (1, 0)), ((1, 1), (0, 1)), ((1, -1), (0, 1)))
    a, b, c, d = 1, 0, 0, 1
    for idx in rng.integers(0, len(gens), size=length):
        (e, f), (h, k) = gens[int(idx)]
        nxt = (a * e + b * h, a * f + b * k, c * e + d * h, c * f + d * k)
        if max(abs(v) for v in nxt) <= max_entry:
            a, b, c, d = nxt
    return np.array([[a, b], [c, d]], dtype=float)


# ----------------------------------------------------------------------
# Omega(n) by a prime-power sieve
# ----------------------------------------------------------------------

def omega_sieve(n_max: int) -> np.ndarray:
    """Omega(n) (prime factors with multiplicity) for n = 0..n_max; Omega(0) = 0.

    Adds one for every prime power p^j dividing n, with primes from a
    plain Eratosthenes sieve.
    """
    is_prime = np.ones(n_max + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(n_max) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = False
    omega = np.zeros(n_max + 1, dtype=np.int64)
    for p in np.flatnonzero(is_prime).tolist():
        q = p
        while q <= n_max:
            omega[q::q] += 1
            q *= p
    omega[0] = 0
    return omega
