"""Time sets and Birkhoff averages along the horocycle flow.

Averages come in two flavours: continuous (composite Gauss-Legendre
quadrature of t -> f(u(t) . p) over [0, T]) and sparse (plain means over
progressions, almost primes, polynomial times, or Taylor blocks).  Both,
and the sieve weights f(u(n) . p) at integer times, walk the orbit in
fixed-size chunks: each chunk makes its own times, re-anchors at a reduced
checkpoint representative so matrix entries stay bounded no matter how
long the orbit is, and folds its values (to a sum, or to the rows where
a weight is not +0.0); folds are combined in a fixed order so results are
bit-identical for any worker count.  Chunks set the numbers; their
cache-sized row blocks (quotient.row_blocks) only tile memory; spans of
whole blocks are the unit of work, in the caller or in forked workers.

An arc average (horocycle_average, renormalization_identity_check) takes
5-node Gauss-Legendre panels of step min_width / 4 (_STEP_FRACTION), or a
finer step= (a coarser one is refused).  Against a step four times finer,
the default moves the arc average of preset:bump1 from generic1 by at most
3e-7 (measured 2.2e-8, 7.6e-8, 7.3e-9 and 1.4e-9 at T = 1e2 .. 1e5), under
1% of the smallest deviation from the Haar integral that criterion 05
reports (3.1e-5 at T = 1e5); a test checks it on the T = 1e3 and 1e4 arcs.

Each average carries the invariant integral it is compared with, and a
reference_kind that names where it came from: "explicit" (given by the
caller); "haar-quadrature-k1", the fundamental-domain quadrature on the
modular quotient; on a Hilbert quotient, "constant-level" for a constant,
"covolume-k2" for a bump whose support box injects into the quotient
(observables.haar_integral_bump), and else "horocycle-surrogate-k2(err=...)",
the long-arc surrogate with its doubling error.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import observables as ob
from . import quotient as qt
from . import sieve
from . import sl2
from .errors import ConfigError
from .quadrature import PairwiseFold, gauss_legendre
from .quotient import QuotientPoint
from .sl2 import GroupDomainError

# quadrature panels use this many Gauss-Legendre nodes each
_GL_ORDER = 5
_GL_X, _GL_W = gauss_legendre(_GL_ORDER)
# orbit chunking: nodes per chunk (memory ceiling) and the hard time range;
# a chunk must hold whole quadrature panels, so _SLAB_NODES % _GL_ORDER == 0
_SLAB_NODES = 200_000
TIME_RANGE_MAX = 1e12
# the default arc step is the narrowest bump width over this (the bound it
# meets is in the module docstring)
_STEP_FRACTION = 4.0
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
        return _panel_nodes(ts.t_span, ts.quadrature_step or ts.t_span / 64.0)
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

def _in_range(times: np.ndarray) -> np.ndarray:
    """times, checked against TIME_RANGE_MAX; a NaN time passes."""
    if not max(times.max(initial=-np.inf), -times.min(initial=np.inf)) <= TIME_RANGE_MAX:
        far = times[np.abs(times) > TIME_RANGE_MAX]  # empty if only a NaN failed the test
        if len(far):
            raise GroupDomainError(f"orbit time {far[0]} beyond safe range {TIME_RANGE_MAX}")
    return times


def _checkpoint(p: QuotientPoint, t0: float) -> np.ndarray:
    """Reduced representative of the orbit point at time t0."""
    red, _ = qt.reduce_stack(p.lattice, qt.orbit_mats(p.rep.mats, _in_range(np.array([t0]))))
    return red[0]


# the span task of a forked orbit worker, installed once per worker by _install_span
_WORKER_SPAN = None


def _install_span(span) -> None:
    global _WORKER_SPAN
    _WORKER_SPAN = span


def _run_span(task: tuple[int, int, int]):
    return _WORKER_SPAN(*task)


def _orbit_chunks(p: QuotientPoint, n: int, nodes, workers: int, fn, fold,
                  support=None) -> list:
    """[fold([fn(reduced coordinates of u(t) . p) for t in each row block])
    for each chunk].

    The one orbit walk: node indices [0, n) in chunks of _SLAB_NODES, each
    re-anchored at a reduced checkpoint; nodes(a, b) gives the times of
    indices [a, b) for any a <= b.  Chunk and block boundaries depend only
    on n, so any worker count gives one list, folded in chunk order.

    A task is a span of whole row blocks of one chunk: one orbit_blocks
    call at the chunk's checkpoint, reduced before any task runs.  With one
    worker, or fewer than 2 * workers blocks, each chunk is one span, run
    here in turn; else min(workers, its blocks) near-equal spans, run in a
    pool of forked worker processes, which inherit numpy, horolab and the
    closures unpickled.  Only task indices and fn's outputs cross the pipe,
    each chunk is folded once its spans are in, and no worker outlives the
    call, even one that raises.  support is fn's support box, for the
    screen of dense k = 1 blocks (quotient.orbit_blocks), or None.
    """
    _in_range(nodes(max(n - 1, 0), n))  # first, so that a huge orbit lists no chunks
    blocks = [qt.row_blocks(min(_SLAB_NODES, n - a)) for a in range(0, n, _SLAB_NODES)]
    pooled = workers > 1 and sum(map(len, blocks)) >= 2 * workers
    counts = [min(workers, len(rows)) if pooled else 1 for rows in blocks]
    tasks = [(c, rows[len(rows) * i // k][0], rows[len(rows) * (i + 1) // k - 1][1])
             for c, (rows, k) in enumerate(zip(blocks, counts)) for i in range(k)]
    starts = [float(nodes(a, a + 1)[0]) for a in range(0, n, _SLAB_NODES)]
    anchors = [_checkpoint(p, t0) for t0 in starts]

    def span(c: int, lo: int, hi: int) -> list:
        # the offsets only, so that nodes' own array is gone before the walk
        offsets = _in_range(nodes(c * _SLAB_NODES + lo, c * _SLAB_NODES + hi)) - starts[c]
        return qt.orbit_blocks(p.lattice, anchors[c], offsets, fn, support)

    folds, parts = [], []
    with contextlib.ExitStack() as stack:
        results = (span(*task) for task in tasks)
        if pooled:
            import multiprocessing  # here, so that importing horolab stays as cheap as before
            results = stack.enter_context(multiprocessing.get_context("fork").Pool(
                workers, _install_span, (span,))).imap(_run_span, tasks)
        for (c, _, hi), part in zip(tasks, results):
            parts += part
            if hi == blocks[c][-1][1]:
                folds.append(fold(parts))
                parts = []
    return folds


def orbit_coordinates(p: QuotientPoint, times: np.ndarray,
                      workers: int = 1) -> np.ndarray:
    """Reduced coordinates (N,k,3) of u(t) . p for every t.

    Chunks set the numbers (re-anchoring); row blocks only tile memory.
    Materialises the whole stack (24 bytes per sample per factor), for
    callers that need the coordinates themselves (orbit tables, block
    sweeps); the averages and the sieve weights fold chunk by chunk instead.
    """
    chunks = _orbit_chunks(p, len(times), lambda a, b: times[a:b], workers,
                           lambda coords: coords, list)
    blocks = [coords for chunk in chunks for coords in chunk]
    return np.concatenate(blocks, axis=0) if blocks else np.empty((0, p.lattice.k, 3))


def integer_orbit_weights(p: QuotientPoint, n: int, observables, workers: int):
    """Yield, for each observable f in turn, the weights a(0..n) with a(0) = 0
    and a(m) = f(u(m) . p).

    One orbit walk serves them all: each row block makes its own times m and
    keeps, per f, only the rows whose value is not bitwise +0.0 (a -0.0
    stays), as offsets into the block in the narrowest dtype that holds
    every offset of a full block: quotient._BLOCK_ROWS sets it (uint16 for
    16 384 rows), so a kept weight takes 10 bytes with its value.  Each
    dense array is scattered back from those rows when it is asked for,
    each offset added to its block's start in intp, so that no block size
    can wrap it, with the bytes of concatenate(([0.0], f on the whole orbit)).
    """
    offset = np.min_scalar_type(qt.row_blocks(_SLAB_NODES)[0][1] - 1)  # a full block's last row

    def support(coords) -> list:
        kept = []
        for f in observables:
            vals = f.evaluate_coords(coords)
            rows = np.flatnonzero(vals.view(np.int64))
            kept.append((rows.astype(offset), vals[rows]))
        return kept

    chunks = _orbit_chunks(p, n, lambda a, b: np.arange(a + 1, b + 1, dtype=float), workers,
                           support, list)
    for i in range(len(observables)):
        weights = np.zeros(max(n, 0) + 1)
        for start, blocks in zip(range(1, n + 1, _SLAB_NODES), chunks):
            for (lo, _), kept in zip(qt.row_blocks(_SLAB_NODES), blocks):
                rows, vals = kept[i]
                weights[np.add(rows, start + lo, dtype=np.intp)] = vals
        yield weights


def _panel_count(t_span: float, step: float) -> int:
    return max(1, int(math.ceil(t_span / step)))


def _panel_nodes(t_span: float, step: float, lo: int = 0, hi: int | None = None):
    """Composite Gauss-Legendre nodes of panels [lo, hi) on [0, t_span]."""
    panels = _panel_count(t_span, step)
    h = t_span / panels
    hi = panels if hi is None else hi
    starts = np.arange(lo, hi) * h
    return (starts[:, None] + 0.5 * h * (_GL_X[None, :] + 1.0)).ravel()


def _panel_weights(t_span: float, step: float, count: int):
    """Composite Gauss-Legendre weights of count panels on [0, t_span]: every
    panel has the same."""
    return np.tile(0.5 * (t_span / _panel_count(t_span, step)) * _GL_W, count)


def _arc_sums(f, p: QuotientPoint, t_span: float, step: float, workers: int) -> float:
    """sum w f along the arc u([0, t_span]) . p: one weighted sum per chunk,
    added in chunk order."""
    panels = _panel_count(t_span, step)
    # every panel has the same weights, so one chunk's serve them all
    w_chunk = _panel_weights(t_span, step, min(panels, _SLAB_NODES // _GL_ORDER))

    def nodes(start: int, stop: int) -> np.ndarray:
        # the panels that hold nodes [start, stop), cut to those nodes
        lo = start // _GL_ORDER
        skip = start - lo * _GL_ORDER
        hi = -(-stop // _GL_ORDER)
        return _panel_nodes(t_span, step, lo, hi)[skip:skip + stop - start]

    def dot(blocks: list) -> float:
        vals = np.concatenate(blocks)
        return float(np.dot(w_chunk[:len(vals)], vals))

    return sum(_orbit_chunks(p, panels * _GL_ORDER, nodes, workers, f.evaluate_coords, dot,
                             _support(f)))


def _support(f):
    """f's support box for the orbit walk's screen: a BumpFunction's, and
    None for every other observable (a constant, a translate)."""
    return f.support_box() if isinstance(f, ob.BumpFunction) else None


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
    """(the invariant integral an average is compared with, its reference_kind)."""
    if reference is not None:
        return float(reference), "explicit"
    if isinstance(p.lattice, qt.ModularLattice):
        return ob.haar_integral_k1(f, *_HAAR_GRID), "haar-quadrature-k1"
    if isinstance(f, ob.ConstantObservable):
        return float(f.level), "constant-level"
    if isinstance(f, ob.BumpFunction) and ob.box_injects_k2(f):
        return ob.haar_integral_bump(f), "covolume-k2"
    val, err = ob.haar_reference_k2(f, p.lattice)
    return val, f"horocycle-surrogate-k2(err={err:.2e})"


def horocycle_average(f, p: QuotientPoint, t_span: float,
                      step: float | None = None, workers: int = 1,
                      reference: float | None = None,
                      point_id: str = "") -> AverageResult:
    """(1/T) integral of f over the orbit arc u([0, T]) . p.

    Composite Gauss-Legendre of step min_width / 4 of f, within 3e-7 of a
    step four times finer on the pinned arcs (module docstring), or of a
    finer step; the injectivity radius at the renormalised basepoint (the
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


def _pairwise_total(blocks: list) -> float:
    """np.sum(np.concatenate(blocks)), with its bytes, with no concatenated copy."""
    fold = PairwiseFold(sum(map(len, blocks)))
    for vals in blocks:
        fold.push(vals)
    return fold.total()


def sparse_average(f, p: QuotientPoint, ts: TimeSet, workers: int = 1,
                   reference: float | None = None, point_id: str = "") -> AverageResult:
    """Plain mean of f over {u(t) . p : t in the time set}."""
    times = generate(ts)
    if len(times) == 0:
        raise ConfigError(f"empty time set: {ts!r}")
    chunk_sums = _orbit_chunks(p, len(times), lambda a, b: times[a:b], workers, f.evaluate_coords,
                               _pairwise_total, _support(f))
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
    default step min_width / 4 of f (the left side within 3e-7 of a step
    four times finer on the pinned arcs, module docstring), on one thread.
    """
    if t_span <= 0:
        raise ConfigError("averaging horizon must be positive")
    h = _resolve_step(f, None)
    lhs = _arc_sums(f, p, t_span, h, 1) / t_span

    tau = math.log(t_span)
    sig_step = 1.0 / _panel_count(t_span, h)
    sig_nodes = _panel_nodes(1.0, sig_step)
    sig_w = _panel_weights(1.0, sig_step, _panel_count(1.0, sig_step))
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
