"""Test functions on the quotients, smoothing kernels and reference measures.

Observables are built from compactly supported bumps in the reduced
coordinates (x, y, theta-mod-pi per factor).  Everything evaluates in
batch on (N, k, 3) arrays of reduced coordinates, so observables are
genuinely functions on the quotient.

Reference measures: on the modular quotient (k = 1), a quadrature over the
fundamental domain.  On a Hilbert quotient (k = 2), a bump whose support
box provably injects into PGamma \\ H^2 (box_injects_k2) integrates exactly,
as a product of one-dimensional integrals over the covolume 8 pi^2
zeta_K(-1) (haar_integral_k2); any other observable falls back on a long
horocycle average from a fixed base point (haar_reference_k2).

The smoothing kernels are the mollified box indicators used to compare
sums over integer boxes with their continuous volumes: exact 0/1 away
from an edge layer of width delta, with total mass exactly gamma_len**n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import quotient as qt
from . import sl2
from .errors import ConfigError
from .quadrature import PairwiseFold, gauss_legendre, gl_nodes, tensor_grid
from .quotient import Lattice

_PROFILE_GRID = 16385
# finite-difference step, relative to the smallest bump width
_FD_STEP = 0.01
# safety factor on grid suprema of derivatives
_SOBOLEV_SAFETY = 1.1
SOBOLEV_ORDER_CAP = 4
# random points added to the support grid of sobolev_norm, and their seed
_SOBOLEV_EXTRA_POINTS = 120
_SOBOLEV_SEED = 2024
# Gauss-Legendre nodes per panel of SmoothingKernel.quadrature_check
_KERNEL_GL_ORDER = 24
# Gauss-Legendre nodes of each one-dimensional integral of a k = 2 bump: from 96
# nodes on they agree with scipy's quad to 2e-14 relative (1e-11 at 64), and 128
# are built in 2-4 ms against 7-11 ms for 256 (2 vCPU)
_BUMP_GL_ORDER = 128
# relative margin of the float comparisons in box_injects_k2
_INJECT_MARGIN = 1e-9
# base point of the k = 2 surrogate arc: a generic frame in each factor
_K2_REFERENCE_BASE = np.array([[[1.3, 0.21], [0.17, (1.0 + 0.21 * 0.17) / 1.3]],
                               [[0.8, -0.33], [0.29, (1.0 - 0.33 * 0.29) / 0.8]]])


def bump_profile(r):
    """exp(1 + 1/(r^2 - 1)) on |r| < 1, exactly 0 outside; peak value 1."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    ri = r[inside]
    out[inside] = np.exp(1.0 + 1.0 / (ri * ri - 1.0))
    return out


def _profile_cdf_table():
    """Normalised CDF of the standard mollifier on [-1, 1]."""
    u = np.linspace(-1.0, 1.0, _PROFILE_GRID)
    vals = bump_profile(u)
    # trapezoid prefix integral; endpoints vanish so this is smooth
    steps = 0.5 * (vals[1:] + vals[:-1]) * np.diff(u)
    cdf = np.concatenate([[0.0], np.cumsum(steps)])
    cdf /= cdf[-1]
    return u, cdf


_CDF_U, _CDF_VALS = _profile_cdf_table()


def profile_cdf(u):
    """Phi(u): 0 for u <= -1, 1 for u >= 1, smooth monotone between."""
    return np.interp(u, _CDF_U, _CDF_VALS, left=0.0, right=1.0)


# ----------------------------------------------------------------------
# bump observables
# ----------------------------------------------------------------------

@dataclass
class BumpFunction:
    """Product bump in reduced coordinates, amplitude at the centre.

    Each factor contributes bump_profile((x-cx)/wx) * same for y * same
    for theta, the theta offset being folded modulo pi.  Support is the
    open product box; values vanish identically outside it.
    """

    lattice: Lattice
    center: np.ndarray  # (k, 3)
    widths: np.ndarray  # (k, 3)
    amplitude: float = 1.0
    order_cap: int = SOBOLEV_ORDER_CAP

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float).reshape(self.lattice.k, 3)
        self.widths = np.asarray(self.widths, dtype=float).reshape(self.lattice.k, 3)
        if np.any(self.widths <= 0.0):
            raise ConfigError("bump widths must be positive")
        if np.any(self.widths[:, 2] > math.pi / 2.0):
            raise ConfigError("theta width must stay below pi/2 (frame circle has length pi)")
        if self.order_cap < 0:
            raise ConfigError("derivative order cap must be nonnegative")

    @property
    def k(self) -> int:
        return self.lattice.k

    def min_width(self) -> float:
        return float(self.widths.min())

    def evaluate_coords(self, coords: np.ndarray) -> np.ndarray:
        """Values on an (N, k, 3) array of reduced coordinates."""
        coords = np.asarray(coords, dtype=float)
        if coords.ndim == 2:
            coords = coords[None]
        dx = (coords[:, :, 0] - self.center[:, 0]) / self.widths[:, 0]
        dy = (coords[:, :, 1] - self.center[:, 1]) / self.widths[:, 1]
        # off the support box a factor is 0, so the product is amplitude * 0.0
        rows = np.flatnonzero(((np.abs(dx) < 1.0) & (np.abs(dy) < 1.0)).all(axis=1))
        vals = np.full(coords.shape[0], self.amplitude * 0.0)
        inner = np.full(len(rows), self.amplitude)
        for i in range(self.k):
            dt = np.abs(coords[rows, i, 2] - self.center[i, 2]) % math.pi
            dt = np.minimum(dt, math.pi - dt) / self.widths[i, 2]
            inner = inner * bump_profile(dx[rows, i]) * bump_profile(dy[rows, i]) * bump_profile(dt)
        vals[rows] = inner
        return vals

    def support_box(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(center, widths, off): evaluate_coords returns exactly off =
        amplitude * 0.0 at every point outside the open box of half-widths
        widths around center in (x, y, theta mod pi), a signed zero."""
        return self.center, self.widths, self.amplitude * 0.0


@dataclass
class ConstantObservable:
    """f == const; the degenerate case every average test starts from."""

    lattice: Lattice
    level: float = 1.0

    @property
    def k(self) -> int:
        return self.lattice.k

    def min_width(self) -> float:
        return 1.0

    def evaluate_coords(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        n = coords.shape[0] if coords.ndim == 3 else 1
        return np.full(n, self.level)


class TranslatedObservable:
    """p -> f(p * g): the right-translate of an observable by g."""

    def __init__(self, base, g: sl2.GroupElement):
        self.base = base
        self.g = g
        self.lattice = base.lattice

    @property
    def k(self) -> int:
        return self.base.k

    def min_width(self) -> float:
        return self.base.min_width()

    def evaluate_coords(self, coords: np.ndarray) -> np.ndarray:
        mats = qt.mats_from_coords(coords)
        moved = np.einsum("nkab,kbc->nkac", mats, self.g.mats)
        return self.base.evaluate_coords(qt.coords_of_stack(self.lattice, moved))


# ----------------------------------------------------------------------
# reference measure, k = 1
# ----------------------------------------------------------------------

def haar_integral_k1(f, nx: int = 64, nv: int = 64, ntheta: int = 32) -> float:
    """Normalised invariant integral of f over the modular quotient.

    Coordinates (x, v = 1/y, theta): the invariant density dx dy/y^2
    dtheta becomes dx dv dtheta, over v in (0, 1/sqrt(1-x^2)] and theta
    in [0, pi).  The total mass is computed by the same quadrature (and
    equals pi/3 * pi analytically), so the result is exactly 1 for f == 1.

    Neither the grid nor its weights are held: one x row at a time, each
    weight ((wx_i * ws_j) * wth_l) * vmax_i and its product with f go into
    two quadrature.PairwiseFold sums, so memory is one row of weights,
    coordinates and f's temporaries plus a leaf buffer per fold.  Every
    product is that of the whole grid, and both sums have the bytes of
    np.sum over the (nx, nv, ntheta) grid.  A BumpFunction is not evaluated
    where its own x test, or inside a kept x row its y test, puts a whole
    x row or v row off its support: that row is multiplied by off =
    amplitude * 0.0, the value evaluate_coords gives there, so the bytes
    are the same.
    """
    xs, wx = gl_nodes(nx, -0.5, 0.5)
    ss, ws = gl_nodes(nv, 0.0, 1.0)
    ths, wth = gl_nodes(ntheta, 0.0, math.pi)
    vmax = 1.0 / np.sqrt(1.0 - xs * xs)
    mass, total = PairwiseFold(nx * nv * ntheta), PairwiseFold(nx * nv * ntheta)
    box = f.support_box() if isinstance(f, BumpFunction) else None
    if box is not None:
        (cx, cy, _), (sx, sy, _), off = box[0][0], box[1][0], box[2]
    # row points (x, y, theta) with y = 1/v, v = s * vmax(x), filled in place
    row = np.empty((nv, ntheta, 3))
    row[..., 2] = ths
    for i in range(nx):
        w = (wx[i] * ws)[:, None] * wth
        w *= vmax[i]
        mass.push(w)
        # evaluate_coords's own tests of (x - cx) / wx and (y - cy) / wy
        if box is not None and not abs((xs[i] - cx) / sx) < 1.0:
            w *= off
            total.push(w)
            continue
        row[..., 0] = xs[i]
        row[..., 1] = (1.0 / (ss * vmax[i]))[:, None]
        keep = slice(None)
        if box is not None:
            keep = np.abs((row[:, 0, 1] - cy) / sy) < 1.0
            w[~keep] *= off
        w[keep] *= f.evaluate_coords(row[keep].reshape(-1, 1, 3)).reshape(-1, ntheta)
        total.push(w)
    return total.total() / mass.total()


# ----------------------------------------------------------------------
# reference measure, k = 2
# ----------------------------------------------------------------------

def sixty_zeta_minus_one(disc: int) -> int:
    """60 zeta_K(-1) for K = Q(sqrt(disc)), an integer.

    Zagier's formula (L'Enseignement Math. 22, 1976): zeta_K(-1) is 1/60
    of the sum of sigma_1((d_K - b^2) / 4) over b with b^2 < d_K and
    b = d_K mod 2, d_K the field discriminant (disc for disc = 1 mod 4,
    else 4 disc).  Summed in plain integers.
    """
    d_k = disc if disc % 4 == 1 else 4 * disc
    top = math.isqrt(d_k - 1)
    total = 0
    for b in range(-top, top + 1):
        if (d_k - b) % 2 == 0:
            n = (d_k - b * b) // 4
            total += sum(d + n // d if d * d != n else d
                         for d in range(1, math.isqrt(n) + 1) if n % d == 0)
    return total


def box_injects_k2(f: BumpFunction) -> bool:
    """True when no gamma in SL2(O) other than +-1 maps a point of the
    (x, y) support box of the k = 2 bump f to another point of it, so that
    the box injects into PGamma \\ H^2.

    Three bounds, each compared with the relative margin _INJECT_MARGIN (a
    box inside the margin is not certified):
    - c != 0: the image's height product is at most 1 / (N(c)^2 y1 y2),
      so min y1 * min y2 > 1 leaves no such gamma;
    - c = 0: gamma acts by z_i -> u_i^2 z_i + u_i b_i, which scales the
      heights by eps_1^(2n) and eps_1^(-2n) for u = +-eps^n, so eps_1^2 >=
      max y / min y in either factor leaves only u = +-1;
    - u = +-1 translates by b = m + n omega: no b != 0 may have
      |b_i| < 2 wx_i in both embeddings, a finite search over n.
    Whether the box lies in the domain the reduction returns is not checked.
    """
    lat = f.lattice
    grow = 1.0 + _INJECT_MARGIN
    lo = f.center[:, 1] - f.widths[:, 1]
    hi = f.center[:, 1] + f.widths[:, 1]
    if not (lo.min() > 0.0 and lo[0] * lo[1] > grow):
        return False
    eps1 = lat.embed(*lat.unit_pair[0])[0]
    if not eps1 * eps1 >= float((hi / lo).min()) * grow:
        return False
    reach = 2.0 * f.widths[:, 0] * grow
    w1, w2 = lat.omega_embeddings()
    # Minkowski: a box |b_i| < reach_i of area above 4 (w1 - w2), four times the
    # covolume of the embedded O, holds some b != 0; so the search below is short
    if reach[0] * reach[1] > w1 - w2:
        return False
    # |b_1 - b_2| = |n| (w1 - w2) < reach_1 + reach_2
    n_top = int((reach[0] + reach[1]) / (w1 - w2))
    for n in range(-n_top, n_top + 1):
        for m in range(math.ceil(-n * w1 - reach[0]), math.floor(-n * w1 + reach[0]) + 1):
            if (m, n) != (0, 0) and abs(m + n * w1) < reach[0] and abs(m + n * w2) < reach[1]:
                return False
    return True


def bump_factor_integrals(f: BumpFunction) -> np.ndarray:
    """(k, 3) one-dimensional integrals of f's profiles, per factor: over x,
    over y against dy / y^2, and over the theta offset, which is folded
    modulo pi, so a half-width wt <= pi/2 covers an arc of length 2 wt.

    Each is one _BUMP_GL_ORDER-point Gauss-Legendre rule in the offset
    r = (v - c) / w over (-1, 1); sums are numpy's, with no BLAS call.
    """
    r, w = gauss_legendre(_BUMP_GL_ORDER)
    wphi = w * bump_profile(r)
    mass = float(np.sum(wphi))
    cy, wy = f.center[:, 1:2], f.widths[:, 1:2]
    iy = wy[:, 0] * np.sum(wphi / (cy + wy * r) ** 2, axis=1)
    return np.stack([f.widths[:, 0] * mass, iy, f.widths[:, 2] * mass], axis=1)


def haar_integral_k2(f: BumpFunction) -> float:
    """Normalised invariant integral of a k = 2 bump whose support box
    injects (box_injects_k2): A * prod_i Ix_i Iy_i Itheta_i / (8 pi^2
    zeta_K(-1) * pi^2).

    vol(SL2(O) \\ H^2) = 8 pi^2 zeta_K(-1) for prod dx dy / y^2 (Siegel).
    Over PGamma \\ H^2 the frame fibre is SO(2)^2 / <(-1, -1)>, of mass
    (2 pi)^2 / 2; a bump that sees each theta modulo pi integrates over it
    to twice its integral over [0, pi)^2.  So the total mass is the volume
    times pi^2, of the shape of k = 1's (pi / 3) * pi.
    """
    volume = 8.0 * math.pi ** 2 * sixty_zeta_minus_one(f.lattice.disc) / 60.0
    return float(f.amplitude * np.prod(bump_factor_integrals(f)) / (volume * math.pi ** 2))


def haar_reference_k2(f, lattice, t_span: float = 20000.0, samples: int = 400000):
    """Surrogate invariant integral on a Hilbert quotient.

    Long-horocycle time average from the basepoint _K2_REFERENCE_BASE,
    reported with a doubling self-consistency error |A(T) - A(T/2)|.
    The fallback for observables that haar_integral_k2 does not cover;
    the error estimate is part of the return value on purpose.
    """
    # the arc base * u(t) at t = (j + 1/2) t_span / samples, as offsets -t
    offsets = -(np.arange(samples) + 0.5) * (t_span / samples)
    vals = np.concatenate(qt.orbit_blocks(lattice, _K2_REFERENCE_BASE, offsets, f.evaluate_coords))
    half = samples // 2
    full_avg = float(vals.mean())
    half_avg = float(vals[:half].mean())
    return full_avg, abs(full_avg - half_avg)


# ----------------------------------------------------------------------
# smoothing kernels for counting boxes
# ----------------------------------------------------------------------

@dataclass
class SmoothingKernel:
    """Mollified indicator of the box [0, gamma_len]^n with edge width delta.

    One-dimensional edge G(u) = Phi(u/delta) - Phi((u-gamma_len)/delta);
    the kernel is the tensor product of n copies.  Exactly 1 on
    [delta, gamma_len-delta]^n, exactly 0 outside [-delta,
    gamma_len+delta]^n, and the total integral is exactly gamma_len**n.
    """

    delta: float
    gamma_len: float
    n: int = 1

    def __post_init__(self):
        if not (0.0 < self.delta < self.gamma_len / 2.0):
            raise ValueError("need 0 < delta < gamma_len / 2")
        if self.n < 1:
            raise ValueError("dimension must be >= 1")

    def edge(self, u):
        u = np.asarray(u, dtype=float)
        return profile_cdf(u / self.delta) - profile_cdf((u - self.gamma_len) / self.delta)

    def kernel_value(self, u: np.ndarray) -> np.ndarray:
        """Values at an (N, n) array of points."""
        u = np.asarray(u, dtype=float)
        if u.ndim == 1:
            u = u[:, None]
        out = np.ones(u.shape[0])
        for j in range(self.n):
            out = out * self.edge(u[:, j])
        return out

    def support_box(self) -> tuple[float, float]:
        return (-self.delta, self.gamma_len + self.delta)

    def mass(self) -> float:
        """Exact total integral: gamma_len ** n (telescoping shift)."""
        return self.gamma_len ** self.n

    def _panels_1d(self):
        d, g = self.delta, self.gamma_len
        return [(-d, 0.0), (0.0, d), (d, g - d), (g - d, g), (g, g + d)]

    def quadrature_check(self) -> dict:
        """Panel-aligned tensor quadrature of mass and box-L1 deviation.

        Panels are aligned with the kink lines of the sharp indicator so
        Gauss-Legendre converges at full rate; feasible for n <= 3.
        """
        if self.n > 3:
            raise ValueError("tensor quadrature check limited to n <= 3")
        nodes1, weights1, inside1 = [], [], []
        for (a, b) in self._panels_1d():
            x, w = gl_nodes(_KERNEL_GL_ORDER, a, b)
            nodes1.append(x)
            weights1.append(w)
            inside1.append(np.full(_KERNEL_GL_ORDER, a >= -1e-15 and b <= self.gamma_len + 1e-15))
        nodes1 = np.concatenate(nodes1)
        weights1 = np.concatenate(weights1)
        inside1 = np.concatenate(inside1)
        pts = tensor_grid([nodes1] * self.n)
        wts = np.prod(tensor_grid([weights1] * self.n), axis=1)
        chi = np.prod(tensor_grid([inside1] * self.n), axis=1)
        vals = self.kernel_value(pts)
        mass_quad = float(np.sum(wts * vals))
        l1_dev = float(np.sum(wts * np.abs(vals - chi)))
        bound = 2.0 * self.n * self.delta * (self.gamma_len + 2.0 * self.delta) ** (self.n - 1)
        return {
            "mass_quadrature": mass_quad,
            "mass_exact": self.mass(),
            "mass_defect": abs(mass_quad - self.mass()),
            "l1_box_deviation": l1_dev,
            "l1_bound": bound,
            "l1_within_bound": l1_dev <= bound,
        }


# ----------------------------------------------------------------------
# Sobolev-type upper bounds by nested differencing
# ----------------------------------------------------------------------

def _offset_elements(word: tuple[int, ...], steps: np.ndarray):
    """All 2^m offset products exp(s_1 eps W_1) ... exp(s_m eps W_m).

    steps[0, w] and steps[1, w] are exp(+eps W) and exp(-eps W) for the
    direction W numbered w.  Returns (matrices (2^m, k, 2, 2), sign
    products (2^m,)), the sign sequences in itertools.product((1, -1),
    repeat=m) order.  Nested central differences expand into exactly this
    signed combination.
    """
    mats = np.broadcast_to(np.eye(2), (1,) + steps.shape[2:])  # the identity
    signs = np.ones(1)
    for w in word:
        mats = np.matmul(mats[:, None], steps[:, w]).reshape((-1,) + steps.shape[2:])
        signs = (signs[:, None] * np.array([1.0, -1.0])).ravel()
    return mats, signs


def _sample_coords(f) -> np.ndarray:
    """Support grid plus seeded random points, all placed relative to the widths.

    Width-relative placement keeps the sample set covariant under
    dilations of the observable, so grid suprema of rescaled bumps obey
    the chain-rule scaling instead of drifting with the sampling.  An
    observable without a support box gets random points of the domain.
    """
    k = f.k
    rng = np.random.default_rng(_SOBOLEV_SEED)
    if isinstance(f, BumpFunction):
        center, widths = f.center, f.widths
        # the grid spanning [-0.9, 0.9] of each width around the centre
        ticks = np.linspace(-0.9, 0.9, 13 if k == 1 else 5)
        grid = tensor_grid(center.reshape(-1, 1) + ticks * widths.reshape(-1, 1)).reshape(-1, k, 3)
        extra = center + rng.uniform(-1.05, 1.05, size=(_SOBOLEV_EXTRA_POINTS, k, 3)) * widths
        pts = np.concatenate([grid, extra], axis=0)
    else:
        pts = np.stack([
            rng.uniform(-0.45, 0.45, size=(_SOBOLEV_EXTRA_POINTS, k)),
            rng.uniform(1.05, 2.2, size=(_SOBOLEV_EXTRA_POINTS, k)),
            rng.uniform(0.1, math.pi - 0.1, size=(_SOBOLEV_EXTRA_POINTS, k)),
        ], axis=2)
    pts[:, :, 1] = np.maximum(pts[:, :, 1], 1e-3)
    return pts


def sobolev_norm(f, order: int) -> float:
    """Grid supremum of all right-derivative words up to the given order.

    Nested central differences of p -> f(p exp(t W)) over every word of
    basis directions with length <= order, maximised over a support grid
    plus random interior points, then inflated by a safety factor.  An
    upper-bound surrogate: cheap, deterministic, reproducible.  Order 0
    is the plain sup of |f| (no inflation): for a single bump the grid
    contains the centre, so the result is exactly the amplitude.
    """
    cap = int(getattr(f, "order_cap", SOBOLEV_ORDER_CAP))
    if not (0 <= order <= cap):
        raise ValueError(f"order must be in 0..{cap}")
    k = f.k
    lattice = f.lattice
    eps = _FD_STEP * f.min_width()
    pts = _sample_coords(f)
    base_mats = qt.mats_from_coords(pts)
    best = float(np.max(np.abs(f.evaluate_coords(pts))))  # order-0 term
    if order == 0:
        return best
    # exp(s eps W) for s = +1, -1 and the 3k directions W: X, Y, Z in each factor
    steps = np.array([[sl2.exp_map(sl2.LieAlgebraElement(s * eps * w)).mats
                       for w in np.eye(3 * k).reshape(3 * k, k, 3)] for s in (1.0, -1.0)])
    for m in range(1, order + 1):
        for word in itertools.product(range(3 * k), repeat=m):
            offs, signs = _offset_elements(word, steps)
            # (P, O, k, 2, 2): every point times every offset
            moved = np.einsum("pkab,okbc->pokac", base_mats, offs)
            flat = moved.reshape(-1, k, 2, 2)
            vals = f.evaluate_coords(qt.coords_of_stack(lattice, flat))
            vals = vals.reshape(len(pts), len(offs))
            diff = vals @ signs / (2.0 * eps) ** m
            best = max(best, float(np.max(np.abs(diff))))
    return _SOBOLEV_SAFETY * best
