"""The screen of dense k = 1 orbit blocks: rows certified outside a bump's
support box are not reduced, and every value, sum and signed zero keeps
the bytes of the path that reduces and evaluates every row."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horolab import observables as ob
from horolab import quotient as qt
from horolab import sampling as sp
from horolab import sl2
from horolab.presets import bump_preset, point_preset

LATTICE = qt.ModularLattice()


def screen_points() -> dict:
    rng = np.random.default_rng(4711)
    return {
        "generic1": point_preset("generic1"),
        "quadratic": point_preset("quadratic"),
        "cusp": point_preset("cusp"),
        "random": qt.QuotientPoint(LATTICE, sl2.random_element(rng, scale=1.5)),
    }


POINTS = screen_points()


def narrow_bump(p: qt.QuotientPoint) -> ob.BumpFunction:
    # centred on the orbit itself, so rows cross all of its edges
    center = qt.coordinates(qt.flow_u(p, 3.3))
    return ob.BumpFunction(LATTICE, center, [[2e-3, 2e-3, 2e-3]])


BUMPS = {
    "bump1": lambda p: bump_preset(LATTICE),
    # theta windows that wrap past 0 and past pi
    "theta-wrap-0": lambda p: ob.BumpFunction(LATTICE, [[0.1, 1.3, 0.15]], [[0.35, 0.5, 0.45]]),
    "theta-wrap-pi": lambda p: ob.BumpFunction(LATTICE, [[-0.2, 1.2, 2.9]], [[0.25, 0.3, 0.6]],
                                               amplitude=-2.5),
    # x window past |x| = 1/2, y window below the unit circle
    "domain-edge": lambda p: ob.BumpFunction(LATTICE, [[0.45, 1.0, 1.2]], [[0.1, 0.25, 0.7]]),
    "narrow": narrow_bump,
    # a box over most of the domain
    "wide": lambda p: ob.BumpFunction(LATTICE, [[0.0, 2.0, 1.5]], [[0.6, 1.2, 1.5]], amplitude=-1.0),
}


def every_row_arc(f, p: qt.QuotientPoint, t_span: float, step: float) -> tuple:
    """(horocycle average, sparse mean over the same nodes) with every row
    reduced and evaluated: the arc's nodes in _SLAB_NODES chunks, each
    anchored at the reduced class of its first node, evaluated with no
    support box and summed slab by slab as the chunk driver folds them."""
    panels = max(1, int(math.ceil(t_span / step)))
    h = t_span / panels
    nodes = (np.arange(panels)[:, None] * h + 0.5 * h * (sp._GL_X[None, :] + 1.0)).ravel()
    weights = np.broadcast_to(0.5 * h * sp._GL_W, (panels, sp._GL_ORDER)).ravel()
    slabs = range(0, len(nodes), sp._SLAB_NODES)
    horocycle = sparse = 0.0
    for s in slabs:
        part = nodes[s:s + sp._SLAB_NODES]
        anchor = qt.reduce_stack(p.lattice, qt.orbit_mats(p.rep.mats, part[:1]))[0][0]
        vals = qt.orbit_values(p.lattice, anchor, part - part[0], f.evaluate_coords)
        horocycle += float(np.dot(weights[s:s + sp._SLAB_NODES], vals))
        sparse += float(np.sum(vals))
    return horocycle / t_span, sparse / len(nodes)


def arc_step(f) -> float:
    # a power of two below the bump's natural step
    return 2.0 ** math.floor(math.log2(f.min_width() / sp._STEP_FRACTION))


def underflow_allowed(f: ob.BumpFunction):
    """f.evaluate_coords with floating-point underflow ignored: the bump's
    exp underflows near its edge, which is its own business, not the screen's."""
    def fn(coords):
        with np.errstate(under="ignore"):
            return f.evaluate_coords(coords)
    return fn


class TestBlockValues:
    """orbit_blocks with a support box gives every row's bytes, signed
    zeros included, on dense arcs and on integer times."""

    @pytest.mark.parametrize("bump", sorted(BUMPS))
    @pytest.mark.parametrize("point", sorted(POINTS))
    @pytest.mark.parametrize("spacing, start", [(0.005, 0.0), (0.005, 7.0e3), (1.0, 0.0)],
                             ids=["dense", "dense-far", "integer"])
    def test_bytes_of_every_row(self, point, bump, spacing, start):
        p = POINTS[point]
        f = BUMPS[bump](p)
        offsets = -(start + spacing * np.arange(2 * qt._BLOCK_ROWS + 1000))
        every = qt.orbit_blocks(LATTICE, p.rep.mats, offsets, f.evaluate_coords)
        screened = qt.orbit_blocks(LATTICE, p.rep.mats, offsets, f.evaluate_coords,
                                   f.support_box())
        assert [v.tobytes() for v in screened] == [v.tobytes() for v in every]

    @staticmethod
    def reduced_rows(monkeypatch, f) -> list:
        """The row count of every reduce_stack call on four dense generic1 blocks."""
        rows = []
        reduce_stack = qt.reduce_stack

        def counted(lattice, stack, **kwargs):
            rows.append(len(stack))
            return reduce_stack(lattice, stack, **kwargs)

        monkeypatch.setattr(qt, "reduce_stack", counted)
        offsets = -0.005 * np.arange(4 * qt._BLOCK_ROWS)
        qt.orbit_blocks(LATTICE, POINTS["generic1"].rep.mats, offsets, f.evaluate_coords,
                        f.support_box())
        return rows

    def test_dense_arc_skips_most_rows(self, monkeypatch):
        rows = self.reduced_rows(monkeypatch, bump_preset(LATTICE))
        assert len(rows) == 4 and sum(rows) < 0.15 * 4 * qt._BLOCK_ROWS

    def test_box_over_most_of_the_domain_is_not_screened(self, monkeypatch):
        # under a quarter (SCREEN_MIN_SHARE) of the intervals are certified,
        # so every row is reduced
        rows = self.reduced_rows(monkeypatch, BUMPS["wide"](None))
        assert rows == [qt._BLOCK_ROWS] * 4

    def test_rows_with_no_word(self):
        # a NaN entry makes the call's margin NaN, so no row is certified; NaN
        # rows keep the value the bump gives them, and nothing warns
        f, p = bump_preset(LATTICE), POINTS["generic1"]
        base = p.rep.mats.copy()
        offsets = -0.005 * np.arange(qt._BLOCK_ROWS + 40)
        offsets[5::97] = np.nan
        fn = underflow_allowed(f)
        with np.errstate(all="raise"):
            every = qt.orbit_blocks(LATTICE, base, offsets, fn)
            screened = qt.orbit_blocks(LATTICE, base, offsets, fn, f.support_box())
        assert [v.tobytes() for v in screened] == [v.tobytes() for v in every]


class TestArcAverages:
    """horocycle_average and sparse_average(Interval) over chunked arcs,
    with one and two workers, against every_row_arc."""

    @pytest.mark.parametrize("bump", sorted(BUMPS))
    @pytest.mark.parametrize("point", sorted(POINTS))
    def test_bytes_equal_every_row(self, point, bump):
        p = POINTS[point]
        f = BUMPS[bump](p)
        step = arc_step(f)
        # 1.2 chunks: one full chunk and a short one
        t_span = 1.2 * sp._SLAB_NODES / sp._GL_ORDER * step
        horocycle, sparse = every_row_arc(f, p, t_span, step)
        for workers in (1, 2):
            r = sp.horocycle_average(f, p, t_span, step=step, workers=workers, reference=0.0)
            assert r.sample_count > sp._SLAB_NODES
            assert np.float64(r.value).tobytes() == np.float64(horocycle).tobytes()
            avg = sp.sparse_average(f, p, sp.Interval(t_span, step), workers=workers,
                                    reference=0.0)
            assert np.float64(avg.value).tobytes() == np.float64(sparse).tobytes()


class TestScreenRule:
    """_screen on single points on either side of each of its thresholds,
    half a margin inside and twice a margin outside: the fundamental
    domain's edges |x| = 1/2 and |z| = 1, and the box's x, y and theta
    edges (theta across pi)."""

    CENTER = np.array([0.0, 2.0, 3.0])
    WIDTHS = np.array([0.1, 0.3, 0.4])

    @staticmethod
    def screen(x, y, theta, center, widths) -> bool:
        (a, b), (c, d) = qt.mats_from_coords(np.array([[[x, y, theta]]]))[0, 0]
        reach = qt._screen_reach(center, widths)
        return bool(qt._screen(np.array([a]), np.array([b]), np.array([c]), np.array([d]),
                               0.0, center, reach)[0])

    @pytest.mark.parametrize("factor, certified", [(2.0, True), (0.5, False)])
    def test_domain_edges(self, factor, certified):
        m = qt.SCREEN_MARGIN
        # the box sits far above these points
        far = (np.array([0.0, 50.0, 1.0]), self.WIDTHS)
        assert self.screen(0.5 - factor * m, 1.5, 1.0, *far) == certified
        assert self.screen(-0.5 + factor * m, 1.5, 1.0, *far) == certified
        assert self.screen(0.0, math.sqrt(1.0 + factor * m), 1.0, *far) == certified
        assert self.screen(0.3, math.sqrt(1.0 - 0.09 + factor * m), 1.0, *far) == certified

    @pytest.mark.parametrize("factor, certified", [(2.0, True), (0.5, False)])
    def test_box_edges(self, factor, certified):
        m = qt.SCREEN_MARGIN
        cx, cy, ct = self.CENTER
        rx, ry, rt = qt._screen_reach(self.CENTER, self.WIDTHS)
        box = (self.CENTER, self.WIDTHS)
        for side in (-1.0, 1.0):
            assert self.screen(cx + side * (rx + factor * m), cy, ct, *box) == certified
            y = cy + side * (ry + factor * m * cy)
            assert self.screen(cx, y, ct, *box) == certified
            # the window (3.0 - 0.4, 3.0 + 0.4) wraps past pi
            theta = (ct + side * (rt + factor * m)) % math.pi
            assert self.screen(cx, cy, theta, *box) == certified

    def test_inside_the_box(self):
        assert not self.screen(*self.CENTER, self.CENTER, self.WIDTHS)


finite = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(center=st.tuples(st.floats(-0.7, 0.7, **finite), st.floats(0.5, 4.0, **finite),
                        st.floats(-1.0, 4.0, **finite)),
       widths=st.tuples(st.floats(1e-6, 1.0, **finite), st.floats(1e-6, 1.0, **finite),
                        st.floats(1e-6, 1.4, **finite)),
       amplitude=st.floats(-10.0, 10.0, **finite),
       axis=st.sampled_from([0, 1, 2]), side=st.sampled_from([-1.0, 1.0]),
       extra=st.floats(0.0, 1.0, **finite),
       inner=st.tuples(st.floats(-0.999, 0.999), st.floats(-0.999, 0.999),
                       st.floats(-0.999, 0.999)))
def test_bump_is_exactly_off_outside_the_screened_box(center, widths, amplitude, axis, side,
                                                      extra, inner):
    """A point outside the support box by the screen margin in one
    coordinate, at the edge the screen tests or beyond it, and anywhere in
    the box in the others, gets exactly amplitude * 0.0, signed zero and
    all."""
    f = ob.BumpFunction(LATTICE, [center], [widths], amplitude=amplitude)
    c, w, off = f.support_box()
    reach = qt._screen_reach(c[0], w[0])
    point = c[0] + np.array(inner) * w[0]
    if axis == 2:
        # the circular distance from the centre modulo pi, folded into [0, pi)
        extra = min(extra, math.pi / 2 - reach[2] - qt.SCREEN_MARGIN)
        if extra < 0.0:
            return
        point[2] = (c[0, 2] + side * (reach[2] + qt.SCREEN_MARGIN + extra)) % math.pi
    else:
        point[axis] = c[0, axis] + side * (reach[axis] + qt.SCREEN_MARGIN + extra)
    assert f.evaluate_coords(point[None, None]).tobytes() == np.float64(off).tobytes()
    assert np.float64(off).tobytes() == np.float64(amplitude * 0.0).tobytes()


def interval_ends(base: np.ndarray, offsets: np.ndarray) -> tuple:
    """(anchor words, [(x, y, theta) of the first rows], [(x, y, theta) of the
    last rows]) of every anchor interval of a block: the points that the
    anchor's word makes of the interval's end rows, by np.matmul."""
    mats = qt.orbit_mats(base, offsets)[:, 0]
    anchors, _ = qt._gauss_words(mats[::qt.WARM_STRIDE])
    n = len(mats)
    first = np.arange(0, n, qt.WARM_STRIDE)
    last = np.minimum(first + qt.WARM_STRIDE, n) - 1
    return anchors, [qt.iwasawa_coords(anchors @ mats[rows]) for rows in (first, last)]


def straddled(base: np.ndarray, offsets: np.ndarray, f: ob.BumpFunction) -> set:
    """The thresholds of the screen that the end points of some anchor
    interval lie on either side of."""
    _, ((x1, y1, t1), (x2, y2, t2)) = interval_ends(base, offsets)
    (cx, cy, ct), (wx, wy, wt) = f.center[0], f.widths[0]

    def across(u, v, edge) -> bool:
        return bool(np.any((u - edge) * (v - edge) < 0.0))

    def window(t):
        # signed distance past the theta window's nearer edge, modulo pi
        dt = np.abs(t - ct) % math.pi
        return np.minimum(dt, math.pi - dt) - wt

    out = set()
    if across(np.abs(x1), np.abs(x2), 0.5):
        out.add("|x| = 1/2")
    if across(x1 * x1 + y1 * y1, x2 * x2 + y2 * y2, 1.0):
        out.add("unit circle")
    for side in (-1.0, 1.0):
        if across(x1, x2, cx + side * wx):
            out.add("box x")
        if across(y1, y2, cy + side * wy):
            out.add("box y")
    if across(window(t1), window(t2), 0.0):
        out.add("box theta")
    return out


def horizontal_base() -> np.ndarray:
    """A base whose orbit is the horizontal horocycle y = 1.44: every anchor
    word is a translation, so every W base has c = 0."""
    return np.array([[[1.2, 0.0], [0.0, 1.0 / 1.2]]])


EDGE_BLOCKS = {
    # (point, bump, offsets, thresholds some interval must straddle)
    "domain": ("generic1", "bump1", -0.005 * np.arange(3 * qt._BLOCK_ROWS),
               {"|x| = 1/2", "unit circle"}),
    "narrow": ("generic1", "narrow", -0.005 * np.arange(3 * qt._BLOCK_ROWS),
               {"box x", "box y", "box theta"}),
    "theta-wrap-0": ("quadratic", "theta-wrap-0", -0.005 * np.arange(3 * qt._BLOCK_ROWS),
                     {"box x", "box y", "box theta"}),
    "theta-wrap-pi": ("random", "theta-wrap-pi", -0.005 * np.arange(3 * qt._BLOCK_ROWS),
                      {"box x", "box y", "box theta"}),
    # one full block and a tail of 1007 rows, 1007 = 62 * 16 + 15
    "short-tail": ("generic1", "bump1", -(11.0 + 0.004 * np.arange(qt._BLOCK_ROWS + 1007)),
                   {"unit circle"}),
}


class TestIntervals:
    """Anchor intervals certified whole (_arc_screen): blocks whose
    intervals straddle every threshold keep the bytes of every row, and
    every row of a certified interval passes the row rule _screen."""

    @pytest.mark.parametrize("case", sorted(EDGE_BLOCKS))
    def test_bytes_of_every_row(self, case):
        point, bump, offsets, edges = EDGE_BLOCKS[case]
        p = POINTS[point]
        f = BUMPS[bump](p)
        assert edges <= straddled(p.rep.mats, offsets, f)
        every = qt.orbit_blocks(LATTICE, p.rep.mats, offsets, f.evaluate_coords)
        screened = qt.orbit_blocks(LATTICE, p.rep.mats, offsets, f.evaluate_coords,
                                   f.support_box())
        assert [v.tobytes() for v in screened] == [v.tobytes() for v in every]

    @pytest.mark.parametrize("amplitude", [1.0, -1.0])
    def test_horizontal_horocycle(self, amplitude):
        # c = 0 for every anchor (h = 0), with a box across the line; no warning of any kind
        base = horizontal_base()
        f = ob.BumpFunction(LATTICE, [[0.1, 1.44, 0.2]], [[0.15, 0.05, 0.3]], amplitude=amplitude)
        offsets = -0.003 * np.arange(qt._BLOCK_ROWS + 100)
        anchors, _ = interval_ends(base, offsets)
        assert np.all(anchors[:, 1, 0] * base[0, 0, 0] + anchors[:, 1, 1] * base[0, 1, 0] == 0.0)
        fn = underflow_allowed(f)
        with np.errstate(all="raise"):
            screened = qt.orbit_blocks(LATTICE, base, offsets, fn, f.support_box())
            every = qt.orbit_blocks(LATTICE, base, offsets, fn)
        assert [v.tobytes() for v in screened] == [v.tobytes() for v in every]
        # most of the line is off the box, and certified whole
        scale = qt._screen_scale(base, offsets[:qt._BLOCK_ROWS], anchors[:1024])
        reach = qt._screen_reach(f.center[0], f.widths[0])
        whole = qt._arc_screen(base, offsets[:qt._BLOCK_ROWS], anchors[:1024], scale,
                               f.center[0], reach)
        assert 0.5 < np.mean(whole) < 1.0

    @pytest.mark.parametrize("box_bottom, certified", [(3.97, False), (4.06, True)])
    def test_sagitta(self, box_bottom, certified):
        # base is the top (4i, theta = pi/2) of a horocycle of diameter 4; the
        # interval's chord sits 0.04 below the top, so a box whose bottom lies
        # between the chord and the top meets the arc.  The bound h = c^2 L^2 / 2
        # on the sagitta is 0.078, so a box from 4.06 up is certified off
        base = qt.mats_from_coords(np.array([[[0.0, 4.0, math.pi / 2]]]))[0]
        offsets = np.linspace(-0.1, 0.1, qt.WARM_STRIDE)
        f = ob.BumpFunction(LATTICE, [[0.0, box_bottom + 0.5, math.pi / 2]], [[0.2, 0.5, 0.3]])
        anchors, ((_, y1, _), (_, y2, _)) = interval_ends(base, offsets)
        assert max(y1[0], y2[0]) < 3.97 and np.all(anchors == np.eye(2))
        reach = qt._screen_reach(f.center[0], f.widths[0])
        scale = qt._screen_scale(base, offsets, anchors)
        assert qt._arc_screen(base, offsets, anchors, scale, f.center[0], reach)[0] == certified
        screened = qt.orbit_blocks(LATTICE, base, offsets, f.evaluate_coords, f.support_box())
        every = qt.orbit_blocks(LATTICE, base, offsets, f.evaluate_coords)
        assert screened[0].tobytes() == every[0].tobytes()
        assert np.any(every[0] != 0.0) != certified

    def test_offsets_out_of_order(self):
        # the end rows no longer bound an interval's arc, so nothing is certified whole
        f, p = BUMPS["narrow"](POINTS["generic1"]), POINTS["generic1"]
        offsets = -0.005 * np.arange(qt._BLOCK_ROWS)
        offsets = np.random.default_rng(5).permuted(offsets.reshape(-1, qt.WARM_STRIDE),
                                                    axis=1).ravel()
        anchors, _ = qt._gauss_words(qt.orbit_mats(p.rep.mats, offsets[::qt.WARM_STRIDE])[:, 0])
        scale = qt._screen_scale(p.rep.mats, offsets, anchors)
        reach = qt._screen_reach(f.center[0], f.widths[0])
        assert not qt._arc_screen(p.rep.mats, offsets, anchors, scale, f.center[0], reach).any()
        screened = qt.orbit_blocks(LATTICE, p.rep.mats, offsets, f.evaluate_coords,
                                   f.support_box())
        every = qt.orbit_blocks(LATTICE, p.rep.mats, offsets, f.evaluate_coords)
        assert screened[0].tobytes() == every[0].tobytes()

    @pytest.mark.parametrize("bump", sorted(BUMPS))
    @pytest.mark.parametrize("point", sorted(POINTS))
    def test_certified_rows_pass_the_row_rule(self, point, bump):
        p = POINTS[point]
        f = BUMPS[bump](p)
        base = p.rep.mats
        for start in (0.0, 7.0e3):
            offsets = -(start + 0.005 * np.arange(qt._BLOCK_ROWS - 9))
            mats = qt.orbit_mats(base, offsets)[:, 0]
            anchors, _ = qt._gauss_words(mats[::qt.WARM_STRIDE])
            scale = qt._screen_scale(base, offsets, anchors)
            reach = qt._screen_reach(f.center[0], f.widths[0])
            whole = qt._arc_screen(base, offsets, anchors, scale, f.center[0], reach)
            rows = np.flatnonzero(np.repeat(whole, qt.WARM_STRIDE)[:len(offsets)])
            # the row rule's entry-by-entry point of each row with its anchor's word
            (m00, _), (m10, _) = base[0]
            w = anchors[rows // qt.WARM_STRIDE]
            b01, b11 = mats[rows, 0, 1], mats[rows, 1, 1]
            a, c = w[:, 0, 0] * m00 + w[:, 0, 1] * m10, w[:, 1, 0] * m00 + w[:, 1, 1] * m10
            b, d = w[:, 0, 0] * b01 + w[:, 0, 1] * b11, w[:, 1, 0] * b01 + w[:, 1, 1] * b11
            assert np.all(qt._screen(a, b, c, d, scale, f.center[0], reach))
            if bump != "wide":
                assert np.count_nonzero(whole) >= 100


def exact_point(base: np.ndarray, word: np.ndarray, s: Fraction) -> tuple:
    """(A, B, C, D) of word @ base @ u(-s) in exact rationals."""
    (m00, m01), (m10, m11) = [[Fraction(float(v)) for v in r] for r in base[0]]
    b01, b11 = m01 - s * m00, m11 - s * m10
    (w00, w01), (w10, w11) = [[Fraction(int(v)) for v in r] for r in word]
    return (w00 * m00 + w01 * m10, w00 * b01 + w01 * b11,
            w10 * m00 + w11 * m10, w10 * b01 + w11 * b11)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), start=st.floats(-50.0, 50.0, **finite),
       spacing=st.floats(1e-4, 0.066, **finite), rows=st.integers(1, qt.WARM_STRIDE),
       shift=st.tuples(st.floats(-3.0, 3.0, **finite), st.floats(-3.0, 3.0, **finite),
                       st.floats(-3.0, 3.0, **finite)),
       widths=st.tuples(st.floats(1e-3, 0.3, **finite), st.floats(1e-3, 0.3, **finite),
                        st.floats(1e-3, 1.2, **finite)))
def test_certified_interval_is_inside_and_off_in_exact_arithmetic(seed, start, spacing, rows,
                                                                  shift, widths):
    """Where _arc_screen certifies an interval, 64 points of its arc, exact
    rationals of the float base and offsets, lie inside the fundamental
    domain and off the box by the row rule's margin."""
    base = sl2.random_element(np.random.default_rng(seed), scale=1.5).mats
    offsets = start + spacing * np.arange(rows)
    red, _, word = qt.reduce_batch_k1(qt.orbit_mats(base, offsets[:1])[:, 0])
    # the box near the interval's first point, so that every test is close to its edge
    center = np.array(qt.iwasawa_coords(red)).ravel() + np.array(shift) * widths
    reach = qt._screen_reach(center, np.array(widths))
    scale = qt._screen_scale(base, offsets, word)
    if not qt._arc_screen(base, offsets, word, scale, center, reach)[0]:
        return
    cos_t, sin_t = Fraction(math.cos(center[2])), Fraction(math.sin(center[2]))
    lo, hi = Fraction(float(offsets.min())), Fraction(float(offsets.max()))
    for j in range(64):
        a, b, c, d = exact_point(base, word[0], lo + (hi - lo) * Fraction(j, 63))
        den = c * c + d * d
        x, y = (a * c + b * d) / den, (a * d - b * c) / den
        m = Fraction(qt.SCREEN_MARGIN) + Fraction(float(scale)) * y
        assert abs(x) < Fraction(1, 2) - m and x * x + y * y > 1 + m
        # |sin(theta - ct)| >= sin(R) is theta at least R from ct modulo pi, R < pi/2
        sin_r = Fraction(math.sin(min(float(reach[2] + m), math.pi / 2)))
        assert (abs(x - Fraction(center[0])) >= Fraction(reach[0]) + m
                or abs(y - Fraction(center[1])) >= Fraction(reach[1]) + m * y
                or (c * cos_t - d * sin_t) ** 2 >= sin_r ** 2 * den)
