"""Bumps, smoothing kernels, Sobolev envelopes, Haar references."""

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from horolab import observables as ob
from horolab import quotient as qt
from horolab import sampling as sp
from horolab import sl2
from horolab.errors import ConfigError
from horolab.presets import bump_preset, cover_bumps, point_preset
from horolab.quadrature import gl_nodes
from perfbench_source import load as perfbench

# the directory holding the horolab package under test
SRC = Path(ob.__file__).resolve().parents[1]


def edge_mass_oracle(kern: ob.SmoothingKernel) -> float:
    """1-D edge integral by adaptive quadrature, panel by panel.

    Independent of the kernel's own quadrature_check; the kernel mass
    is this to the n-th power by separability.
    """
    d, g = kern.delta, kern.gamma_len
    total = 0.0
    for a, b in [(-d, 0.0), (0.0, d), (d, g - d), (g - d, g), (g, g + d)]:
        val, _ = quad(lambda u: float(kern.edge(np.array([u]))[0]), a, b,
                      limit=200)
        total += val
    return total


def value_at(f, p: qt.QuotientPoint) -> float:
    """f at the class of p, through its reduced coordinates."""
    return float(f.evaluate_coords(qt.coordinates(p)[None])[0])


def full_bump_product(b: ob.BumpFunction, coords: np.ndarray) -> np.ndarray:
    """The bump's product of profiles evaluated on every row."""
    vals = np.full(coords.shape[0], b.amplitude)
    for i in range(b.k):
        dx = (coords[:, i, 0] - b.center[i, 0]) / b.widths[i, 0]
        dy = (coords[:, i, 1] - b.center[i, 1]) / b.widths[i, 1]
        dt = np.abs(coords[:, i, 2] - b.center[i, 2]) % math.pi
        dt = np.minimum(dt, math.pi - dt) / b.widths[i, 2]
        vals = vals * ob.bump_profile(dx) * ob.bump_profile(dy) * ob.bump_profile(dt)
    return vals


class TestBumpEvaluation:
    def test_peak_is_amplitude(self, modular):
        b = ob.BumpFunction(modular, [[-0.1, 1.4, 0.9]], [[0.2, 0.3, 0.4]],
                            amplitude=2.5)
        assert b.evaluate_coords(b.center[None])[0] == 2.5

    def test_zero_outside_support_exactly(self, modular, test_bump):
        c, w = test_bump.center[0], test_bump.widths[0]
        outside = np.array([
            [[c[0] + 1.001 * w[0], c[1], c[2]]],
            [[c[0], c[1] + 1.2 * w[1], c[2]]],
            [[0.45, 3.9, 0.1]],
        ])
        assert np.all(test_bump.evaluate_coords(outside) == 0.0)

    @pytest.mark.parametrize("amplitude", [1.0, -2.5])
    @pytest.mark.parametrize("lattice_name", ["modular", "hilbert"])
    def test_bytes_match_full_product(self, request, rng, lattice_name, amplitude):
        lat = request.getfixturevalue(lattice_name)
        preset = bump_preset(lat)
        b = ob.BumpFunction(lat, preset.center, preset.widths, amplitude=amplitude)
        c, w = b.center, b.widths
        edge = np.repeat(c[None], 8, axis=0)
        edge[1, 0, 0] += w[0, 0]          # on centre + width
        edge[2, -1, 1] -= w[-1, 1]        # on centre - width
        edge[3, 0, 2] += w[0, 2]          # theta on its edge, x and y inside
        edge[4, -1, 0] = np.nan
        edge[5, 0, 2] = np.nan            # NaN theta, x and y inside
        edge[6] = np.nan
        edge[7, 0, 1] += 5.0 * w[0, 1]    # far outside
        coords = np.concatenate([edge, rng.normal(c, w, (4000,) + c.shape)])
        with np.errstate(invalid="ignore"):
            ref = full_bump_product(b, coords)
        got = b.evaluate_coords(coords)
        assert got.tobytes() == ref.tobytes()
        assert got[0] == amplitude and np.signbit(got[7]) == (amplitude < 0)

    def test_theta_wraps_modulo_pi(self, modular):
        b = ob.BumpFunction(modular, [[0.0, 1.5, 0.05]], [[0.3, 0.3, 0.3]])
        near = b.evaluate_coords(np.array([[[0.0, 1.5, 0.05 + math.pi]]]))[0]
        assert abs(near - b.amplitude) <= 1e-12

    def test_invalid_widths_rejected(self, modular):
        with pytest.raises(ValueError):
            ob.BumpFunction(modular, [[0.0, 1.5, 1.0]], [[0.2, -0.1, 0.2]])
        with pytest.raises(ValueError):
            ob.BumpFunction(modular, [[0.0, 1.5, 1.0]], [[0.2, 0.2, 1.6]])

    def test_gamma_invariance_through_reduce(self, rng, modular, test_bump):
        gammas = qt.enumerate_gamma(modular)
        for _ in range(40):
            p = qt.reduce_point(
                qt.QuotientPoint(modular, sl2.random_element(rng, scale=0.9)))
            v0 = value_at(test_bump, p)
            g = gammas[rng.integers(0, len(gammas)), 0]
            moved = qt.QuotientPoint(
                modular, sl2.GroupElement((g @ p.rep.mats[0])[None]))
            assert abs(value_at(test_bump, moved) - v0) <= 1e-9

    def test_support_stays_inside_fundamental_domain(self, modular, hilbert):
        """Corner audit: every preset bump support clears the domain walls.

        A support box that crossed a wall would make the bump
        discontinuous as a function on the quotient.
        """
        bumps = [bump_preset(modular), bump_preset(hilbert)] + \
            [(b) for b in cover_bumps(modular)]
        for b in bumps:
            for i in range(b.k):
                cx, cy = b.center[i, 0], b.center[i, 1]
                wx, wy = b.widths[i, 0], b.widths[i, 1]
                assert abs(cx) + wx < 0.5
                assert cy - wy > 1.0

    def test_translated_observable_matches_direct(self, modular, test_bump):
        g = sl2.unipotent_u(0.37)
        tr = ob.TranslatedObservable(test_bump, g)
        p = point_preset("generic1")
        direct = value_at(test_bump, qt.QuotientPoint(p.lattice, sl2.compose(p.rep, g)))
        assert abs(value_at(tr, p) - direct) <= 1e-15


def edge_rows(b: ob.BumpFunction) -> np.ndarray:
    """Rows at b's centre with one coordinate moved onto a box edge, where the
    bump's own offset (v - c) / w is exactly +-1 if a float near c +- w gives
    that, and onto each float next to it."""
    rows = []
    for axis, sign in itertools.product(range(3), (1.0, -1.0)):
        c, w = b.center[0, axis], b.widths[0, axis]
        v = c + sign * w
        for _ in range(64):
            if (v - c) / w == sign:
                break
            v = np.nextafter(v, np.inf if (v - c) / w < sign else -np.inf)
        for u in (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)):
            row = b.center.copy()
            row[0, axis] = u
            rows.append(row)
    return np.array(rows)


def cover_kernel_coords(rng, bumps) -> np.ndarray:
    """Random points over the cover's part of the k = 1 domain, every bump's
    centre and box edges, and rows with a NaN or infinite coordinate."""
    n = 6000
    rand = np.stack([rng.uniform(-0.5, 0.5, n), rng.uniform(1.0, 3.1, n),
                     rng.uniform(0.0, math.pi, n)], axis=1)[:, None]
    special = []
    for b in bumps:
        special += [b.center[None], edge_rows(b)]
        for axis, bad in itertools.product(range(3), (np.nan, np.inf, -np.inf)):
            row = b.center.copy()
            row[0, axis] = bad
            special.append(row[None])
    special.append(np.full((1, 1, 3), np.nan))
    coords = np.concatenate([rand] + special)
    return coords[rng.permutation(len(coords))]


def kept_by_dense_scan(f, coords) -> tuple[np.ndarray, np.ndarray]:
    """f's values on every row, then the rows whose value is not bitwise +0.0."""
    vals = f.evaluate_coords(coords)
    rows = np.flatnonzero(vals.view(np.int64))
    return rows, vals[rows]


class TestKeptValues:
    """The cover kernel: each observable's rows that are not +0.0 and its
    values there, with the bytes of a dense evaluation and a scan."""

    @staticmethod
    def observables(modular) -> list:
        # the ten cover bumps with a negative bump among them, whose value off
        # its box is -0.0, and two observables with no box
        cover = cover_bumps(modular)
        negative = ob.BumpFunction(modular, [[0.0, 1.6, 1.0]], [[0.3, 0.4, 0.7]], amplitude=-1.0)
        return (cover[:4] + [negative] + cover[4:]
                + [ob.ConstantObservable(modular, 0.5),
                   ob.TranslatedObservable(cover[1], sl2.unipotent_u(0.2))])

    def test_bytes_equal_dense_scan(self, modular, rng):
        fs = self.observables(modular)
        bumps = [f for f in fs if isinstance(f, ob.BumpFunction)]
        coords = cover_kernel_coords(rng, bumps)
        with np.errstate(invalid="ignore"):
            got = ob.kept_values(fs, coords)
            ref = [kept_by_dense_scan(f, coords) for f in fs]
            # and each bump's dense values are its whole-row product of profiles
            for f in bumps:
                assert f.evaluate_coords(coords).tobytes() == full_bump_product(f, coords).tobytes()
        assert len(got) == len(fs)
        for (rows, vals), (ref_rows, ref_vals) in zip(got, ref, strict=True):
            assert rows.dtype == ref_rows.dtype and rows.tobytes() == ref_rows.tobytes()
            assert vals.tobytes() == ref_vals.tobytes()
        negative_rows, negative_vals = got[4]
        assert len(negative_rows) > len(coords) // 2  # every row off its box is kept
        assert np.signbit(negative_vals[negative_vals == 0.0]).all()

    def test_edges_and_nan_rows_are_exercised(self, modular, rng):
        # the edge rows hit |d| = 1 exactly on both sides of every x box
        cover = cover_bumps(modular)
        for b in cover:
            rows = edge_rows(b)
            d = (rows[:, 0, 0] - b.center[0, 0]) / b.widths[0, 0]
            assert 1.0 in d and -1.0 in d
        coords = cover_kernel_coords(rng, cover)
        nan_rows = np.flatnonzero(np.isnan(coords).any(axis=(1, 2)))
        with np.errstate(invalid="ignore"):  # an infinite theta folds to NaN
            kept = ob.kept_values(cover, coords)
        for rows, _ in kept:
            assert not np.isin(rows, nan_rows).any()  # NaN is off every box, or +0.0 in theta

    def test_empty_block(self, modular):
        got = ob.kept_values(self.observables(modular), np.empty((0, 1, 3)))
        assert all(len(rows) == len(vals) == 0 for rows, vals in got)


class TestSmoothingKernel:
    def test_mass_is_exact_power(self):
        k = ob.SmoothingKernel(0.05, 0.7, 3)
        assert k.mass() == 0.7 ** 3

    def test_axis_integral_oracle(self):
        for d, g in ((0.01, 0.5), (0.05, 1.0), (0.02, 0.3)):
            k = ob.SmoothingKernel(d, g, 1)
            assert abs(edge_mass_oracle(k) - g) <= 1e-8

    def test_exact_plateau_and_support(self):
        k = ob.SmoothingKernel(0.1, 1.0, 2)
        inner = np.array([[0.1, 0.5], [0.5, 0.9], [0.3, 0.3]])
        assert np.all(k.kernel_value(inner) == 1.0)
        outer = np.array([[-0.11, 0.5], [0.5, 1.11], [-0.2, 1.2]])
        assert np.all(k.kernel_value(outer) == 0.0)

    def test_quadrature_mass_matches(self):
        rng = np.random.default_rng(411)
        for _ in range(8):
            n = int(rng.integers(1, 4))
            g = float(rng.uniform(0.2, 1.5))
            d = float(rng.uniform(0.005, 0.4)) * g / 2.0
            k = ob.SmoothingKernel(d, g, n)
            chk = k.quadrature_check()
            assert chk["mass_defect"] <= 1e-6 * max(1.0, k.mass())
            assert chk["l1_within_bound"]

    def test_l1_box_deviation_at_pinned_triple(self):
        chk = ob.SmoothingKernel(0.01, 0.5, 2).quadrature_check()
        assert chk["l1_box_deviation"] <= 2 * 2 * 0.01 * (0.5 + 2 * 0.01)
        assert chk["l1_box_deviation"] > 0.0

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(ValueError):
            ob.SmoothingKernel(0.3, 0.5, 1)   # delta >= gamma/2
        with pytest.raises(ValueError):
            ob.SmoothingKernel(0.1, 0.5, 0)


class TestSobolev:
    def test_order_zero_is_amplitude(self, modular):
        b = ob.BumpFunction(modular, [[-0.15, 1.45, 1.9]], [[0.2, 0.35, 0.5]],
                            amplitude=3.75)
        assert ob.sobolev_norm(b, 0) == 3.75

    def test_zero_function_all_orders(self, modular, test_bump):
        zero = ob.BumpFunction(modular, test_bump.center, test_bump.widths, amplitude=0.0)
        for l in range(3):
            assert ob.sobolev_norm(zero, l) == 0.0

    def test_monotone_in_order(self, test_bump):
        vals = [ob.sobolev_norm(test_bump, l) for l in range(4)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_order_cap_enforced(self, modular):
        b = ob.BumpFunction(modular, [[0.0, 1.5, 1.0]], [[0.2, 0.2, 0.3]],
                            order_cap=2)
        with pytest.raises(ValueError):
            ob.sobolev_norm(b, 3)

    def test_width_halving_scales_first_order(self, modular):
        b = ob.BumpFunction(modular, [[-0.15, 1.45, 1.9]], [[0.12, 0.15, 0.3]])
        half = ob.BumpFunction(modular, b.center, b.widths / 2.0)
        ratio = ob.sobolev_norm(half, 1) / ob.sobolev_norm(b, 1)
        assert ratio >= 1.8

    def test_dilation_covariance_both_directions(self, modular, test_bump):
        s_base = ob.sobolev_norm(test_bump, 1)
        half = ob.BumpFunction(modular, test_bump.center, test_bump.widths / 2.0)
        r_half = ob.sobolev_norm(half, 1) / s_base
        assert 2.0 / 1.25 <= r_half <= 2.0 * 1.25
        narrow = ob.BumpFunction(modular, [[-0.15, 1.45, 1.9]],
                                 [[0.12, 0.15, 0.3]])
        doubled = ob.BumpFunction(modular, narrow.center, narrow.widths * 2.0)
        r_dbl = ob.sobolev_norm(doubled, 1) / ob.sobolev_norm(narrow, 1)
        assert 0.5 / 1.25 <= r_dbl <= 0.5 * 1.25

    def test_deterministic(self, test_bump):
        assert ob.sobolev_norm(test_bump, 2) == ob.sobolev_norm(test_bump, 2)

    @pytest.mark.parametrize("k, word", [(1, (0,)), (1, (2, 0, 1)), (2, (3, 5)), (2, (4, 0, 4))])
    def test_offsets_are_the_compose_loop(self, k, word):
        """The (2^m,k,2,2) offset stack has the bytes of composing one exp step at a time."""
        eps = 0.0035
        dirs = np.eye(3 * k).reshape(3 * k, k, 3)
        steps = np.array([[sl2.exp_map(sl2.LieAlgebraElement(s * eps * w)).mats for w in dirs]
                          for s in (1.0, -1.0)])
        mats, signs = ob._offset_elements(word, steps)
        combos = list(itertools.product((1.0, -1.0), repeat=len(word)))
        assert mats.shape == (len(combos), k, 2, 2)
        for got, sign, combo in zip(mats, signs, combos):
            acc = sl2.identity(k)
            for s, w in zip(combo, word):
                acc = sl2.compose(acc, sl2.exp_map(sl2.LieAlgebraElement(s * eps * dirs[w])))
            assert got.tobytes() == acc.mats.tobytes()
            assert sign == math.prod(combo)


def every_row_haar_k1(f, nx: int, nv: int, ntheta: int) -> float:
    """haar_integral_k1 as it was before it skipped rows off a bump's
    support: every grid row evaluated and multiplied into the weights."""
    xs, wx = gl_nodes(nx, -0.5, 0.5)
    ss, ws = gl_nodes(nv, 0.0, 1.0)
    ths, wth = gl_nodes(ntheta, 0.0, math.pi)
    vmax = 1.0 / np.sqrt(1.0 - xs * xs)
    acc = (wx[:, None] * ws)[:, :, None] * wth
    acc *= vmax[:, None, None]
    mass = float(np.sum(acc))
    row = np.empty((nv, ntheta, 3))
    row[..., 2] = ths
    for i in range(nx):
        row[..., 0] = xs[i]
        row[..., 1] = (1.0 / (ss * vmax[i]))[:, None]
        acc[i] *= f.evaluate_coords(row.reshape(-1, 1, 3)).reshape(nv, ntheta)
    return float(np.sum(acc)) / mass


def bump_sum(c1: float, b1: ob.BumpFunction, c2: float, b2: ob.BumpFunction):
    """c1 b1 + c2 b2 as an observable with no support box, the duck-typed
    shape that sampling.correlation also hands haar_integral_k1."""
    return SimpleNamespace(
        evaluate_coords=lambda coords: c1 * b1.evaluate_coords(coords) + c2 * b2.evaluate_coords(coords))


def grid_edge_bump(modular) -> ob.BumpFunction:
    """A bump whose right x edge lands exactly on a node of the 64-node x grid."""
    xs, _ = gl_nodes(64, -0.5, 0.5)
    width = xs[45] - xs[40]
    assert (xs[45] - xs[40]) / width == 1.0
    return ob.BumpFunction(modular, [[xs[40], 1.6, 1.0]], [[width, 0.4, 0.8]])


HAAR_CASES = {
    "bump1": lambda lat: bump_preset(lat),
    "x-edge-on-node": grid_edge_bump,
    # every x row kept, most v rows off
    "narrow-y": lambda lat: ob.BumpFunction(lat, [[0.05, 1.9, 2.0]], [[0.9, 0.02, 1.2]]),
    "negative": lambda lat: ob.BumpFunction(lat, [[-0.1, 1.4, 0.6]], [[0.2, 0.3, 0.5]],
                                            amplitude=-1.0),
    # a box between two x nodes of both grids: every row is skipped
    "negative-between-nodes": lambda lat: ob.BumpFunction(lat, [[0.0, 1.4, 0.6]],
                                                          [[1e-4, 0.3, 0.5]], amplitude=-1.0),
    # no support box, so no row is skipped
    "constant": lambda lat: ob.ConstantObservable(lat, 0.75),
    "sum": lambda lat: bump_sum(2.0, bump_preset(lat), -0.5, grid_edge_bump(lat)),
    "translated": lambda lat: ob.TranslatedObservable(bump_preset(lat), sl2.unipotent_u(0.3)),
}


class TestHaarIntegralK1:
    @pytest.mark.parametrize("case", sorted(HAAR_CASES))
    def test_bytes_of_every_row(self, modular, case):
        f = HAAR_CASES[case](modular)
        for grid in [(64, 64, 32), (40, 24, 16)]:
            got = ob.haar_integral_k1(f, *grid)
            assert np.float64(got).tobytes() == np.float64(every_row_haar_k1(f, *grid)).tobytes()

    @pytest.mark.parametrize("case", ["bump1", "x-edge-on-node"])
    def test_rows_off_the_support_are_not_evaluated(self, modular, monkeypatch, case):
        # the x window keeps some of the 64 x rows (not the node on its edge,
        # where |dx| = 1), and the y window some v rows of each
        f = HAAR_CASES[case](modular)
        points = []
        evaluate = ob.BumpFunction.evaluate_coords

        def counted(self, coords):
            points.append(len(coords))
            return evaluate(self, coords)

        monkeypatch.setattr(ob.BumpFunction, "evaluate_coords", counted)
        ob.haar_integral_k1(f)
        xs, _ = gl_nodes(64, -0.5, 0.5)
        kept = int(np.count_nonzero(np.abs((xs - f.center[0, 0]) / f.widths[0, 0]) < 1.0))
        assert len(points) == kept < 64
        assert sum(points) < 0.5 * kept * 64 * 32

    def test_constant_is_one(self, modular):
        assert ob.haar_integral_k1(ob.ConstantObservable(modular, 1.0)) == 1.0

    def test_positive_bump_strictly_positive(self, test_bump):
        assert ob.haar_integral_k1(test_bump) > 0.0

    def test_translate_invariance(self, test_bump):
        base = ob.haar_integral_k1(test_bump)
        moved = ob.haar_integral_k1(
            ob.TranslatedObservable(test_bump, sl2.unipotent_u(0.3)))
        assert abs(moved - base) <= 2e-4

    def test_refinement_stability(self, test_bump):
        coarse = ob.haar_integral_k1(test_bump)
        fine = ob.haar_integral_k1(test_bump, nx=128, nv=128, ntheta=64)
        assert abs(fine - coarse) <= 1e-5

    def test_base_mass_near_pi_thirds(self):
        # the x quadrature of the base mass: integral of 1/sqrt(1 - x^2) over |x| <= 1/2
        xs, wx = gl_nodes(64, -0.5, 0.5)
        assert abs(float(np.sum(wx * (1.0 / np.sqrt(1.0 - xs * xs)))) - math.pi / 3.0) <= 1e-6

    def test_pinned_bytes(self, test_bump):
        # the quadrature at three grids and two translated pairs through it
        assert [ob.haar_integral_k1(test_bump, 160, 160, 80).hex(),
                ob.haar_integral_k1(test_bump).hex(),
                ob.haar_integral_k1(test_bump, nx=128, nv=128, ntheta=64).hex(),
                sp.correlation(test_bump, test_bump, 0.7).hex(),
                sp.correlation(test_bump, test_bump, 1.3, flow="horocycle").hex()] == [
            "0x1.2bdbc51e55482p-7", "0x1.2b54916a0e425p-7", "0x1.2b985bc796640p-7",
            "0x1.7e71dbd303792p-17", "0x1.d5600f5115815p-14"]

    def test_peak_memory_below_the_grid(self):
        # the 160 x 160 x 80 grid's coordinates alone are 47 MiB, its weights 16 MiB;
        # folding a row of weights at a time reads about 0.6 MiB.
        # VmHWM, not ru_maxrss: a spawned child's ru_maxrss starts at its parent's RSS
        code = ("import re\n"
                "from horolab import observables as ob, presets, quotient as qt\n"
                "def peak_kib():\n"
                "    status = open('/proc/self/status').read()\n"
                "    return int(re.search(r'VmHWM:\\s+(\\d+)', status).group(1))\n"
                "bump1 = presets.observable_from_spec('preset:bump1', qt.ModularLattice())\n"
                "before = peak_kib()\n"
                "ob.haar_integral_k1(bump1, 160, 160, 80)\n"
                "print((peak_kib() - before) / 1024)\n")
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        assert float(out.stdout.splitlines()[-1]) < 2.0


class TestHaarIntegralBumpK1:
    def test_preset_against_the_oracle(self, test_bump):
        want = perfbench().oracles.bump_integral_k1(test_bump.center[0], test_bump.widths[0])
        got = ob.haar_integral_bump(test_bump)
        assert type(got) is float
        assert abs(want - 0.009149584656423085) <= 1e-15
        assert abs(got - want) <= 1e-12 * want

    def test_error_of_the_grid_reference(self, test_bump):
        # the 160 x 160 x 80 grid that k = 1 averages are compared with lies
        # 1.50e-4 (relative) above the exact integral: 1.4e-6, more than four
        # times the arc step's bound (tests/test_sampling.py, ARC_STEP_BOUND)
        exact = ob.haar_integral_bump(test_bump)
        grid = ob.haar_integral_k1(test_bump, *sp._HAAR_GRID)
        assert 1.49e-4 < (grid - exact) / exact < 1.51e-4
        assert grid - exact > 4.0 * 3e-7

    # the cases of TestHaarIntegralK1 whose box lies in the fundamental domain
    @pytest.mark.parametrize("case", ["x-edge-on-node", "negative", "negative-between-nodes"])
    def test_other_boxes_against_the_oracle(self, modular, case):
        f = HAAR_CASES[case](modular)
        want = perfbench().oracles.bump_integral_k1(f.center[0], f.widths[0], f.amplitude)
        assert abs(ob.haar_integral_bump(f) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("center, widths", [
        ([[0.35, 1.5, 1.0]], [[0.2, 0.3, 0.5]]),   # across x = 1/2
        ([[0.0, 1.2, 1.0]], [[0.2, 0.3, 0.5]]),    # below y = 1
    ], ids=["x-edge", "unit-circle"])
    def test_box_outside_the_domain_is_refused(self, modular, center, widths):
        with pytest.raises(ConfigError):
            ob.haar_integral_bump(ob.BumpFunction(modular, center, widths))


class TestHaarReference:
    def test_horocycle_average_agrees_with_quadrature_k1(self, test_bump):
        """Long-arc average against the fundamental-domain quadrature, from a
        base point whose renormalising geodesic push does not escape."""
        p = point_preset("generic1")
        quad_val = ob.haar_integral_k1(test_bump, nx=160, nv=160, ntheta=80)
        r = sp.horocycle_average(test_bump, p, 1.0e6, reference=quad_val)
        assert abs(r.value - quad_val) <= 5e-3
        assert not qt.detect_divergence(p, mode="geodesic", t_max=math.log(1.0e6)).diverges

    def test_k2_surrogate_self_consistency(self, hilbert):
        f = bump_preset(hilbert)
        avg, err = ob.haar_reference_k2(f, hilbert, t_span=4000.0,
                                        samples=80000)
        avg2, err2 = ob.haar_reference_k2(f, hilbert, t_span=8000.0,
                                          samples=160000)
        assert avg >= 0.0
        assert abs(avg2 - avg) <= max(err, err2) * 3.0


def quad_factor_integrals(f: ob.BumpFunction) -> list[tuple[float, float, float]]:
    """(Ix, Iy, Itheta) per factor by adaptive quadrature, Iy against dy / y^2."""
    opts = {"epsabs": 0.0, "epsrel": 1e-13, "limit": 200}

    def profile(r: float) -> float:
        return math.exp(1.0 + 1.0 / (r * r - 1.0)) if abs(r) < 1.0 else 0.0

    out = []
    for (cx, cy, _), (wx, wy, wt) in zip(f.center, f.widths):
        ix, _ = quad(lambda x: profile((x - cx) / wx), cx - wx, cx + wx, **opts)
        iy, _ = quad(lambda y: profile((y - cy) / wy) / (y * y), cy - wy, cy + wy, **opts)
        it, _ = quad(lambda s: profile(s / wt), -wt, wt, **opts)
        out.append((ix, iy, it))
    return out


def wide_bump_k2(hilbert) -> ob.BumpFunction:
    return ob.BumpFunction(hilbert, [[0.05, 1.9, 0.8], [-0.1, 1.9, 2.2]], [[0.45, 0.8, 1.4]] * 2)


def preset_with(lat, y_box=None, wx=None) -> ob.BumpFunction:
    """The k = 2 preset bump with its y box (lo, hi) or its x half-width replaced."""
    f = bump_preset(lat)
    center, widths = f.center.copy(), f.widths.copy()
    if y_box is not None:
        center[:, 1], widths[:, 1] = (y_box[0] + y_box[1]) / 2.0, (y_box[1] - y_box[0]) / 2.0
    if wx is not None:
        widths[:, 0] = wx
    return ob.BumpFunction(lat, center, widths)


class TestHaarIntegralK2:
    @pytest.mark.parametrize("disc, d_k, zeta", [
        (5, 5, Fraction(1, 30)), (2, 8, Fraction(1, 12)), (3, 12, Fraction(1, 6)),
        (13, 13, Fraction(1, 6)), (17, 17, Fraction(1, 3)), (6, 24, Fraction(1, 2))])
    def test_zeta_minus_one(self, disc, d_k, zeta):
        assert (disc if disc % 4 == 1 else 4 * disc) == d_k
        assert Fraction(ob.sixty_zeta_minus_one(disc), 60) == zeta

    @pytest.mark.parametrize("case", ["preset", "wide"])
    def test_factor_integrals_against_quad(self, hilbert, case):
        f = bump_preset(hilbert) if case == "preset" else wide_bump_k2(hilbert)
        got = ob.bump_factor_integrals(f)
        want = np.array(quad_factor_integrals(f))
        assert np.all(np.abs(got - want) <= 1e-12 * want)

    def test_preset_against_quad_product(self, hilbert):
        f = bump_preset(hilbert)
        want = math.prod(math.prod(v) for v in quad_factor_integrals(f)) / (
            8.0 * math.pi ** 2 / 12.0 * math.pi ** 2)
        got = ob.haar_integral_bump(f)
        assert type(got) is float
        assert abs(want - 4.879295103e-5) <= 1e-12
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("disc", [2, 5])
    def test_certificate_accepts_presets(self, disc):
        assert ob.box_injects_k2(bump_preset(qt.HilbertLattice(disc)))

    @pytest.mark.parametrize("change, fails", [
        ({"y_box": (0.8, 1.2)}, "heights"),
        ({"y_box": (1.1, 7.0)}, "unit"),
        ({"wx": 0.75}, "translation"),
        # wide enough that a search over every translation in reach would not end
        ({"wx": 1e6}, "translation"),
    ], ids=["heights", "unit", "translation", "translation-wide"])
    def test_certificate_rejects_one_condition_at_a_time(self, hilbert, change, fails):
        f = preset_with(hilbert, **change)
        lo = f.center[:, 1] - f.widths[:, 1]
        hi = f.center[:, 1] + f.widths[:, 1]
        reach = 2.0 * f.widths[:, 0]
        held = {
            # no gamma with c != 0 maps a height product above 1 to one above 1
            "heights": lo[0] * lo[1] > 1.0,
            # the unit 1 + sqrt 2 scales the heights by its square and its inverse
            "unit": (1.0 + math.sqrt(2.0)) ** 2 >= min(hi / lo),
            # no translation m + n sqrt 2 != 0 moves x by less than 2 wx in both places
            "translation": not any(
                abs(m + n * math.sqrt(2.0)) < reach[0] and abs(m - n * math.sqrt(2.0)) < reach[1]
                for m in range(-4, 5) for n in range(-4, 5) if (m, n) != (0, 0)),
        }
        assert [name for name, ok in held.items() if not ok] == [fails]
        assert not ob.box_injects_k2(f)

    def test_within_the_surrogate_doubling_error(self, hilbert):
        f = bump_preset(hilbert)
        surrogate, err = ob.haar_reference_k2(f, hilbert)
        assert abs(ob.haar_integral_bump(f) - surrogate) < err

    def test_theta_mass_against_a_long_arc(self, hilbert):
        # pi^2 per point of PGamma \ H^2, not 2 pi^2
        f = wide_bump_k2(hilbert)
        exact = ob.haar_integral_bump(f)
        arc, _ = ob.haar_reference_k2(f, hilbert, t_span=8.0e4, samples=1_600_000)
        assert abs(arc - exact) <= 0.1 * exact
        assert abs(arc - exact / 2.0) > 0.4 * (exact / 2.0)

    def test_no_blas_call(self, hilbert, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("BLAS call on the exact k = 2 path")

        f = wide_bump_k2(hilbert)
        want = ob.haar_integral_bump(f)
        monkeypatch.setattr(np, "dot", refuse)
        monkeypatch.setattr(np, "matmul", refuse)
        assert ob.box_injects_k2(f)
        assert ob.haar_integral_bump(f) == want

