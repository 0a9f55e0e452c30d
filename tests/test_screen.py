"""The screen of dense k = 1 orbit blocks: rows certified outside a bump's
support box are not reduced, and every value, sum and signed zero keeps
the bytes of the path that reduces and evaluates every row."""

import math

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
        # under half of the anchors' points pass, so every row is reduced
        rows = self.reduced_rows(monkeypatch, BUMPS["wide"](None))
        assert rows == [qt._BLOCK_ROWS] * 4

    def test_rows_with_no_word(self):
        # a NaN entry makes its block's margin NaN, so that block certifies no
        # row; NaN rows keep the value the bump gives them
        f, p = bump_preset(LATTICE), POINTS["generic1"]
        base = p.rep.mats.copy()
        offsets = -0.005 * np.arange(qt._BLOCK_ROWS)
        offsets[5::97] = np.nan
        every = qt.orbit_blocks(LATTICE, base, offsets, f.evaluate_coords)
        screened = qt.orbit_blocks(LATTICE, base, offsets, f.evaluate_coords, f.support_box())
        assert screened[0].tobytes() == every[0].tobytes()


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
