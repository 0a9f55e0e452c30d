"""Time sets and Birkhoff averages along the horocycle flow.

Averages come in two flavours: continuous (composite Gauss-Legendre
quadrature of t -> f(u(t) . p) over [0, T]) and sparse (plain means over
progressions, almost primes, polynomial times, or Taylor blocks).  Both
walk the orbit in fixed-size chunks: each chunk re-anchors at a reduced
checkpoint representative so matrix entries stay bounded no matter how
long the orbit is, and partial sums are combined in a fixed order so
results are bit-identical for any worker count.  Chunks set the numbers;
their cache-sized row blocks (quotient.orbit_values) only tile memory.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import observables as ob
from . import quotient as qt
from . import sieve
from . import sl2
from .errors import ConfigError
from .quadrature import gauss_legendre
from .quotient import QuotientPoint
from .sl2 import GroupDomainError

# quadrature panels use this many Gauss-Legendre nodes each
_GL_ORDER = 5
_GL_X, _GL_W = gauss_legendre(_GL_ORDER)
# orbit chunking: nodes per chunk (memory ceiling) and the hard time range;
# a chunk must hold whole quadrature panels, so _SLAB_NODES % _GL_ORDER == 0
_SLAB_NODES = 200_000
TIME_RANGE_MAX = 1e12
# quadrature must resolve the narrowest bump feature by this factor
_STEP_FRACTION = 8.0
# (nx, nv, ntheta) of the k = 1 Haar quadrature behind references and correlations
_HAAR_GRID = (160, 160, 80)


class DegenerateBlockError(ConfigError):
    """Block decomposition with k_max < 1: M too small for this gamma."""


# ----------------------------------------------------------------------
# time sets
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    t_span: float
    quadrature_step: float | None = None


@dataclass(frozen=True)
class Progression:
    step_k: float
    t_span: float


@dataclass(frozen=True)
class AlmostPrimes:
    level: int
    n_max: int


@dataclass(frozen=True)
class PolynomialTimes:
    gamma_exp: float
    n_max: int


@dataclass(frozen=True)
class Block:
    m_base: int
    gamma_exp: float


TimeSet = Interval | Progression | AlmostPrimes | PolynomialTimes | Block


def generate(ts: TimeSet) -> np.ndarray:
    """Strictly increasing times of a TimeSet as a float array.

    Empty parameter ranges give an empty array, never an error.
    """
    if isinstance(ts, Progression):
        if ts.step_k <= 0:
            raise ConfigError("progression step must be positive")
        if ts.t_span <= 0:
            return np.empty(0)
        return np.arange(0.0, ts.t_span, ts.step_k)
    if isinstance(ts, AlmostPrimes):
        if ts.level < 1:
            raise ConfigError("almost-prime level must be >= 1")
        if ts.n_max < 1:
            return np.empty(0)
        return sieve.almost_primes(ts.level, ts.n_max).astype(float)
    if isinstance(ts, PolynomialTimes):
        if not (0.0 <= ts.gamma_exp < 0.5):
            raise ConfigError("polynomial exponent gamma must lie in [0, 1/2)")
        if ts.n_max < 1:
            return np.empty(0)
        n = np.arange(1, ts.n_max + 1, dtype=float)
        return n ** (1.0 + ts.gamma_exp)
    if isinstance(ts, Block):
        return block_decompose(ts.m_base, ts.gamma_exp).exact_times
    if isinstance(ts, Interval):
        if ts.t_span <= 0:
            return np.empty(0)
        return _panel_nodes(ts.t_span, ts.quadrature_step or ts.t_span / 64.0)[0]
    raise ConfigError(f"unknown time set {ts!r}")


# ----------------------------------------------------------------------
# Taylor blocks
# ----------------------------------------------------------------------

@dataclass
class BlockPair:
    k_max: int
    exact_times: np.ndarray   # (M+k)^{1+gamma}
    linear_times: np.ndarray  # M^{1+gamma} + (1+gamma) M^gamma k


def block_decompose(m_base: int, gamma_exp: float) -> BlockPair:
    """Polynomial times in one block and their tangent-line approximation.

    k runs to floor(M^{1/2-gamma}/(1+gamma)); over that range the
    quadratic Taylor remainder stays O(M^{-gamma}), which is what makes
    the linear progression a faithful stand-in for the true times.
    """
    if m_base < 2:
        raise DegenerateBlockError("block base must be >= 2")
    if not (0.0 < gamma_exp < 0.5):
        raise DegenerateBlockError("block exponent gamma must lie in (0, 1/2)")
    k_max = int(math.floor(m_base ** (0.5 - gamma_exp) / (1.0 + gamma_exp)))
    if k_max < 1:
        raise DegenerateBlockError(
            f"degenerate block: M={m_base}, gamma={gamma_exp} gives k_max={k_max}")
    k = np.arange(k_max + 1, dtype=float)
    exact = (m_base + k) ** (1.0 + gamma_exp)
    gap = (1.0 + gamma_exp) * m_base ** gamma_exp
    linear = m_base ** (1.0 + gamma_exp) + gap * k
    return BlockPair(k_max=k_max, exact_times=exact, linear_times=linear)


def block_error(m_base: int, gamma_exp: float) -> float:
    """max_k |exact - linear| over one block."""
    pair = block_decompose(m_base, gamma_exp)
    return float(np.max(np.abs(pair.exact_times - pair.linear_times)))


def block_taylor_remainder(m_base: int, gamma_exp: float) -> float:
    """Closed-form second-order term (1+g)g/2 * M^{g-1} * k_max^2."""
    pair = block_decompose(m_base, gamma_exp)
    g = gamma_exp
    return 0.5 * (1.0 + g) * g * m_base ** (g - 1.0) * pair.k_max ** 2


# ----------------------------------------------------------------------
# orbit evaluation in reduced chunks
# ----------------------------------------------------------------------

def _checkpoint(p: QuotientPoint, t0: float) -> np.ndarray:
    """Reduced representative of the orbit point at time t0."""
    if abs(t0) > TIME_RANGE_MAX:
        raise GroupDomainError(f"orbit time {t0} beyond safe range {TIME_RANGE_MAX}")
    red, _ = qt.reduce_stack(p.lattice, qt.orbit_mats(p.rep.mats, np.array([t0])))
    return red[0]


def _orbit_chunks(p: QuotientPoint, n: int, nodes, workers: int, fn, fold) -> list:
    """[fold(fn(reduced coordinates of u(t) . p) for t in nodes(start, stop))].

    The one orbit walk: node indices [0, n) in chunks of _SLAB_NODES, each
    making its own times and re-anchoring at a reduced checkpoint that its
    row blocks share.  Boundaries depend only on n, so any worker count
    gives one list, and only the chunks in flight are alive.
    """
    if n and abs(last := float(nodes(n - 1, n)[-1])) > TIME_RANGE_MAX:
        raise GroupDomainError(f"orbit time {last} beyond safe range {TIME_RANGE_MAX}")

    def one_chunk(start: int):
        times = nodes(start, min(start + _SLAB_NODES, n))
        t0 = float(times[0])
        return fold(qt.orbit_values(p.lattice, _checkpoint(p, t0), times - t0, fn))

    spans = range(0, n, _SLAB_NODES)
    if workers <= 1:
        return [one_chunk(s) for s in spans]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one_chunk, spans))


def orbit_coordinates(p: QuotientPoint, times: np.ndarray,
                      workers: int = 1) -> np.ndarray:
    """Reduced coordinates (N,k,3) of u(t) . p for every t.

    Chunks set the numbers (re-anchoring); row blocks only tile memory.
    Materialises the whole stack (24 bytes per sample per factor); the
    averages fold their observable chunk by chunk instead.
    """
    parts = _orbit_chunks(p, len(times), lambda a, b: times[a:b], workers,
                          lambda coords: coords, lambda coords: coords)
    return np.concatenate(parts, axis=0) if parts else np.empty((0, p.lattice.k, 3))


def _panel_count(t_span: float, step: float) -> int:
    return max(1, int(math.ceil(t_span / step)))


def _panel_nodes(t_span: float, step: float, lo: int = 0, hi: int | None = None):
    """Composite Gauss-Legendre nodes and weights of panels [lo, hi) on [0, t_span]."""
    panels = _panel_count(t_span, step)
    h = t_span / panels
    hi = panels if hi is None else hi
    starts = np.arange(lo, hi) * h
    nodes = (starts[:, None] + 0.5 * h * (_GL_X[None, :] + 1.0)).ravel()
    weights = np.broadcast_to(0.5 * h * _GL_W, (hi - lo, _GL_ORDER)).ravel().copy()
    return nodes, weights


def _arc_sums(f, p: QuotientPoint, t_span: float, step: float, workers: int) -> float:
    """sum w f along the arc u([0, t_span]) . p: one weighted sum per chunk,
    added in chunk order."""
    panels = _panel_count(t_span, step)
    # every panel has the same weights, so one chunk's serve them all
    _, w_chunk = _panel_nodes(t_span, step, 0, min(panels, _SLAB_NODES // _GL_ORDER))

    def nodes(start: int, stop: int) -> np.ndarray:
        return _panel_nodes(t_span, step, start // _GL_ORDER, stop // _GL_ORDER)[0]

    return sum(_orbit_chunks(p, panels * _GL_ORDER, nodes, workers, f.evaluate_coords,
                             lambda vals: float(np.dot(w_chunk[:len(vals)], vals))))


def _resolve_step(f, step: float | None) -> float:
    natural = f.min_width() / _STEP_FRACTION
    if step is None:
        return natural
    if step > natural * (1.0 + 1e-9):
        raise ConfigError(
            f"quadrature step {step} too coarse for observable width {f.min_width()}")
    return step


# ----------------------------------------------------------------------
# averages
# ----------------------------------------------------------------------

@dataclass
class AverageResult:
    value: float
    sample_count: int
    reference: float
    deviation: float
    timeset: TimeSet
    point_id: str = ""
    metadata: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "sample_count": self.sample_count,
            "reference": self.reference,
            "deviation": self.deviation,
            "timeset": repr(self.timeset),
            "point_id": self.point_id,
            "sobolev_l": None,  # no average fixes a Sobolev order; kept for the content IDs
            **self.metadata,
        }


def _reference_value(f, p: QuotientPoint, reference: float | None) -> tuple[float, str]:
    if reference is not None:
        return float(reference), "explicit"
    if isinstance(p.lattice, qt.ModularLattice):
        return ob.haar_integral_k1(f, *_HAAR_GRID), "haar-quadrature-k1"
    val, err = ob.haar_reference_k2(f, p.lattice)
    return val, f"horocycle-surrogate-k2(err={err:.2e})"


def horocycle_average(f, p: QuotientPoint, t_span: float,
                      step: float | None = None, workers: int = 1,
                      reference: float | None = None,
                      point_id: str = "") -> AverageResult:
    """(1/T) integral of f over the orbit arc u([0, T]) . p.

    Composite Gauss-Legendre with the step tied to the narrowest feature
    of f; the injectivity radius at the renormalised basepoint (the
    diagonal push by log T) is recorded alongside, since every effective
    bound on this average is phrased through it.
    """
    if t_span <= 0:
        raise ConfigError("averaging horizon must be positive")
    h = _resolve_step(f, step)
    # the reference first, so its quadrature accumulator and the arc are never alive together
    ref, ref_kind = _reference_value(f, p, reference)
    value = _arc_sums(f, p, t_span, h, workers) / t_span
    eta_scale = math.log(t_span) if t_span > 1.0 else 0.0
    eta = qt.injectivity_radius(qt.flow_a_contracting(p, eta_scale))
    return AverageResult(
        value=value, sample_count=_panel_count(t_span, h) * _GL_ORDER, reference=ref,
        deviation=abs(value - ref), timeset=Interval(t_span, h),
        point_id=point_id, metadata={
            "reference_kind": ref_kind,
            "eta_renormalized": eta,
        })


def sparse_average(f, p: QuotientPoint, ts: TimeSet, workers: int = 1,
                   reference: float | None = None, point_id: str = "") -> AverageResult:
    """Plain mean of f over {u(t) . p : t in the time set}."""
    times = generate(ts)
    if len(times) == 0:
        raise ConfigError(f"empty time set: {ts!r}")
    chunk_sums = _orbit_chunks(p, len(times), lambda a, b: times[a:b], workers,
                               f.evaluate_coords, lambda vals: float(np.sum(vals)))
    value = sum(chunk_sums) / len(times)
    ref, ref_kind = _reference_value(f, p, reference)
    return AverageResult(
        value=value, sample_count=len(times), reference=ref,
        deviation=abs(value - ref), timeset=ts, point_id=point_id,
        metadata={"reference_kind": ref_kind})


def renormalization_identity_check(f, p: QuotientPoint, t_span: float) -> float:
    """|time average over [0, T] - unit-time average at the pushed point|.

    The left side integrates f(u(s) . p) directly; the right side
    integrates f(a(log T) u(sigma) a(-log T) . p) over sigma in [0, 1]
    with the conjugation evaluated as an explicit matrix product.  The
    two quadratures sample different node sets of the same underlying
    identity, so agreement is a genuine two-route check.  Both use the
    natural step of f, on one thread.
    """
    if t_span <= 0:
        raise ConfigError("averaging horizon must be positive")
    h = _resolve_step(f, None)
    lhs = _arc_sums(f, p, t_span, h, 1) / t_span

    tau = math.log(t_span)
    sig_nodes, sig_w = _panel_nodes(1.0, 1.0 / _panel_count(t_span, h))
    a_fwd = sl2.diagonal_a(tau, p.lattice.k)
    a_bwd = sl2.diagonal_a(-tau, p.lattice.k)
    k = p.lattice.k
    vals = np.empty(len(sig_nodes))
    for start in range(0, len(sig_nodes), _SLAB_NODES):
        stop = min(start + _SLAB_NODES, len(sig_nodes))
        w_stack = np.broadcast_to(np.eye(2), (stop - start, k, 2, 2)).copy()
        w_stack[:, 0, 0, 1] = sig_nodes[start:stop]
        w_stack[:, 0] = a_fwd.mats[0] @ w_stack[:, 0] @ a_bwd.mats[0]
        mats = np.einsum("kab,nkbc->nkac", p.rep.mats, sl2.inverse(w_stack))
        vals[start:stop] = f.evaluate_coords(qt.coords_of_stack(p.lattice, mats))
    rhs = float(np.dot(sig_w, vals))
    return abs(lhs - rhs)


def block_average_compare(f, p: QuotientPoint, m_base: int, gamma_exp: float,
                          workers: int = 1):
    """Averages over the exact block times and their linear stand-ins.

    Returns (exact_avg, linear_avg, gap); the gap is bounded by the
    first-order regularity of f times the block time error.
    """
    pair = block_decompose(m_base, gamma_exp)
    exact_avg, linear_avg = (
        float(f.evaluate_coords(orbit_coordinates(p, times, workers)).mean())
        for times in (pair.exact_times, pair.linear_times))
    return exact_avg, linear_avg, abs(exact_avg - linear_avg)


def correlation(f, g, t: float, flow: str = "geodesic") -> float:
    """<f o flow(t), g> against the normalised invariant measure, k=1.

    flow(t) translates the argument of f by a(t) or u(t); the pairing is
    computed by fundamental-domain quadrature.
    """
    if not isinstance(f.lattice, qt.ModularLattice):
        raise ConfigError("correlation quadrature is only available for the k=1 quotient")
    if flow == "geodesic":
        elem = sl2.diagonal_a(t, 1)
    elif flow == "horocycle":
        elem = sl2.unipotent_u(t, 1)
    else:
        raise ConfigError(f"unknown flow {flow!r}")
    shifted = ob.TranslatedObservable(f, sl2.inverse(elem))
    pair = SimpleNamespace(
        evaluate_coords=lambda coords: shifted.evaluate_coords(coords) * g.evaluate_coords(coords))
    return ob.haar_integral_k1(pair, *_HAAR_GRID)


# ----------------------------------------------------------------------
# empirical decay exponents
# ----------------------------------------------------------------------

@dataclass
class DecayFit:
    slope: float
    floored: bool


_DEVIATION_FLOOR = 1e-14


def decay_fit(series) -> DecayFit:
    """Least-squares slope of log(deviation) against log(scale).

    Non-positive deviations are floored at 1e-14 and flagged: they mean
    exact agreement, where no finite slope is meaningful.
    """
    pts = [(float(s), float(d)) for s, d in series]
    if len(pts) < 4:
        raise ConfigError("decay fit needs at least 4 points")
    scales = np.array([s for s, _ in pts])
    devs = np.array([d for _, d in pts])
    if np.any(scales <= 0):
        raise ConfigError("scales must be positive")
    floored = bool(np.any(devs < _DEVIATION_FLOOR))
    devs = np.maximum(devs, _DEVIATION_FLOOR)
    lx = np.log(scales)
    ly = np.log(devs)
    return DecayFit(slope=float(np.polyfit(lx, ly, 1)[0]), floored=floored)
