"""Quotient layer: reduction, translation flows, heights, stabilizers."""

import hashlib
import itertools
import math
import time

import numpy as np
import pytest

from horolab import experiments as ex
from horolab import observables as ob
from horolab import quotient as qt
from horolab import sampling as sp
from horolab import sl2
from horolab.presets import bump_preset, point_from_spec, point_preset
from horolab.quadrature import distinct_sorted

HEIGHT_COMPARABILITY_C = 4.0


def gauss_reduce_oracle(z: complex) -> complex:
    """Plain translate/invert loop on the upper half plane.

    Tie rules: Re z lands in (-1/2, 1/2]; on |z| = 1 prefer Re z >= 0.
    Written without any shared code so it can arbitrate conventions.
    """
    for _ in range(200):
        z = z - math.ceil(z.real - 0.5)
        r2 = abs(z) ** 2
        inside = r2 < 1.0 - 1e-15
        left_boundary = abs(r2 - 1.0) <= 1e-15 and z.real < -1e-15
        if inside or left_boundary:
            z = complex(-z.real, z.imag) / r2
        else:
            return z
    raise RuntimeError("oracle failed to terminate")


def point_at(z: complex, lattice=None) -> qt.QuotientPoint:
    lattice = lattice or qt.ModularLattice()
    coords = np.array([[z.real, z.imag, 0.7]])
    return qt.QuotientPoint(lattice, sl2.GroupElement(qt.mats_from_coords(coords[None])[0]))


def flow_u(p: qt.QuotientPoint, t: float) -> qt.QuotientPoint:
    """The horocycle flow for time t: translation of the class by u(t)."""
    return qt.act(sl2.unipotent_u(t, p.lattice.k), p)


def same_reduced_coords(p: qt.QuotientPoint, q: qt.QuotientPoint, tol: float) -> bool:
    """Whether p and q reduce to the same (x, y, theta mod pi) within tol."""
    gap = np.abs(qt.coordinates(p) - qt.coordinates(q))
    gap[:, 2] %= math.pi
    gap[:, 2] = np.minimum(gap[:, 2], math.pi - gap[:, 2])
    return float(gap.max()) <= tol


def probe_times(mode: str, t_max: float, samples: int = 60) -> np.ndarray:
    """The sample grid of detect_divergence (at its default sample count)."""
    if mode == "geodesic":
        return np.linspace(0.0, t_max, samples)
    return distinct_sorted(np.floor(np.geomspace(1.0, max(t_max, 2.0), samples)))


def squarefree(d: int) -> bool:
    return all(d % (p * p) for p in range(2, math.isqrt(d) + 1))


def pell_unit(disc: int) -> tuple[int, int]:
    """Fundamental unit (m, n) of O by brute force over Pell equations.

    D = 2, 3 mod 4: the smallest y > 0 with x^2 - D y^2 = +-1 gives
    x + y sqrt(D).  D = 1 mod 4: the smallest b > 0 with a^2 - D b^2 = +-4
    gives (a + b sqrt(D))/2 = (a - b)/2 + b omega, the smaller a winning
    when both signs are solvable at that b.
    """
    rhs = (4, -4) if disc % 4 == 1 else (1, -1)
    b = 1
    while True:
        sols = [math.isqrt(disc * b * b + r) for r in rhs]  # D b^2 - 4 >= 1 here
        sols = [a for a, r in zip(sols, rhs) if a * a == disc * b * b + r]
        if sols:
            a = min(sols)
            return ((a - b) // 2, b) if disc % 4 == 1 else (a, b)
        b += 1


class TestHilbertArithmetic:
    def test_embeddings(self, hilbert):
        w1, w2 = hilbert.omega_embeddings()
        assert abs(w1 - math.sqrt(2.0)) <= 1e-15
        assert abs(w2 + math.sqrt(2.0)) <= 1e-15

    def test_ring_multiplication(self, hilbert):
        # (1 + sqrt2)(3 - 2 sqrt2) = 3 - 2 sqrt2 + 3 sqrt2 - 4 = -1 + sqrt2
        assert hilbert.mul((1, 1), (3, -2)) == (-1, 1)

    def test_norm_multiplicative(self, hilbert, rng):
        for _ in range(50):
            a = tuple(int(v) for v in rng.integers(-9, 10, size=2))
            b = tuple(int(v) for v in rng.integers(-9, 10, size=2))
            assert hilbert.norm(hilbert.mul(a, b)) == hilbert.norm(a) * hilbert.norm(b)

    def test_fundamental_unit(self, hilbert):
        unit = hilbert.fundamental_unit()
        assert unit == (1, 1)            # 1 + sqrt(2)
        assert hilbert.norm(unit) == -1

    @pytest.mark.parametrize("disc", [d for d in range(2, 100) if squarefree(d)])
    def test_fundamental_unit_against_pell(self, disc):
        assert qt.HilbertLattice(disc).fundamental_unit() == pell_unit(disc)

    @pytest.mark.parametrize("disc, unit", [(19, (170, 39)), (31, (1520, 273)), (5, (0, 1))])
    def test_fundamental_unit_pinned(self, disc, unit):
        assert qt.HilbertLattice(disc).fundamental_unit() == unit

    def test_fundamental_unit_fast_for_all_small_discriminants(self):
        for disc in filter(squarefree, range(2, 1000)):
            lat = qt.HilbertLattice(disc)
            start = time.perf_counter()
            unit = lat.fundamental_unit()
            assert time.perf_counter() - start < 0.1
            assert abs(lat.norm(unit)) == 1
            assert lat.embed(*unit)[0] > 1.0

    def test_unit_pair_inverse(self, hilbert):
        eps, inv = hilbert.unit_pair
        assert hilbert.mul(eps, inv) == (1, 0)
        assert hilbert == qt.HilbertLattice(2) and hash(hilbert) == hash(qt.HilbertLattice(2))

    def test_non_squarefree_rejected(self):
        with pytest.raises(ValueError):
            qt.HilbertLattice(8)


class TestReduction:
    def test_integer_translation(self):
        red = qt.reduce_point(point_at(7.0 + 1.0j))
        coords = qt.coordinates(red)
        assert abs(coords[0, 0]) <= 1e-12
        assert abs(coords[0, 1] - 1.0) <= 1e-12

    def test_already_reduced(self):
        red = qt.reduce_point(point_at(0.25 + 3.0j))
        coords = qt.coordinates(red)
        assert abs(coords[0, 0] - 0.25) <= 1e-12
        assert abs(coords[0, 1] - 3.0) <= 1e-12

    def test_inversion_case_vs_oracle(self):
        z = 0.3 + 0.4j
        expect = gauss_reduce_oracle(z)
        coords = qt.coordinates(qt.reduce_point(point_at(z)))
        assert abs(coords[0, 0] - expect.real) <= 1e-12
        assert abs(coords[0, 1] - expect.imag) <= 1e-12

    def test_random_points_vs_oracle(self, rng):
        for _ in range(200):
            z = complex(rng.uniform(-8.0, 8.0), math.exp(rng.uniform(-3.0, 2.0)))
            expect = gauss_reduce_oracle(z)
            coords = qt.coordinates(qt.reduce_point(point_at(z)))
            assert abs(coords[0, 0] - expect.real) <= 1e-9
            assert abs(coords[0, 1] - expect.imag) <= 1e-9 * max(1.0, expect.imag)

    def test_boundary_tie_breaks(self):
        y = math.sqrt(3.0) / 2.0
        # on the unit circle the right half wins
        coords = qt.coordinates(qt.reduce_point(point_at(complex(-0.5, y))))
        assert coords[0, 0] >= 0.5 - 1e-12
        # vertical boundary: Re = +1/2 is kept, Re = -1/2 moves
        coords = qt.coordinates(qt.reduce_point(point_at(complex(0.5, 2.0))))
        assert abs(coords[0, 0] - 0.5) <= 1e-12
        coords = qt.coordinates(qt.reduce_point(point_at(complex(-0.5, 2.0))))
        assert abs(coords[0, 0] - 0.5) <= 1e-12

    def test_idempotence_bit_exact(self, rng):
        for _ in range(100):
            p = qt.QuotientPoint(qt.ModularLattice(), sl2.random_element(rng, scale=1.5))
            once = qt.reduce_point(p)
            twice = qt.reduce_point(once)
            assert np.array_equal(once.rep.mats, twice.rep.mats)

    def test_reduced_point_in_fundamental_domain(self, rng):
        for _ in range(100):
            p = qt.QuotientPoint(qt.ModularLattice(), sl2.random_element(rng, scale=1.5))
            c = qt.coordinates(qt.reduce_point(p))
            x, y = c[0, 0], c[0, 1]
            assert abs(x) <= 0.5 + 1e-9
            assert x * x + y * y >= 1.0 - 1e-9

    def test_lattice_invariance(self, rng, modular):
        gammas = qt.enumerate_gamma(modular)
        pick = gammas[rng.integers(0, len(gammas), size=150)]
        for _ in range(10):
            p = qt.QuotientPoint(modular, sl2.random_element(rng, scale=1.0))
            base = qt.coordinates(qt.reduce_point(p))
            for g in pick[rng.integers(0, len(pick), size=20)]:
                moved = qt.QuotientPoint(modular, sl2.GroupElement(
                    (g[0] @ p.rep.mats[0])[None]))
                assert np.max(np.abs(qt.coordinates(qt.reduce_point(moved)) - base)) <= 1e-9

    def test_hilbert_reduction_pinned_bytes(self, hilbert):
        # log y in [-4, 4] per factor: 230 rows need two unit steps in the
        # first round and 883 rows are inverted in it; identity rows last
        rng = np.random.default_rng(2024)
        n = 2000
        coords = np.stack([np.stack([rng.uniform(-3.0, 3.0, n), np.exp(rng.uniform(-4.0, 4.0, n)),
                                     rng.uniform(0.0, math.pi, n)], axis=1)
                           for _ in range(2)], axis=1)
        stack = np.concatenate([qt.mats_from_coords(coords),
                                np.broadcast_to(np.eye(2), (3, 2, 2, 2))])
        red, conv = qt._reduce_stack_hilbert(hilbert, stack)
        assert np.array_equal(red[-3:], stack[-3:])
        assert hashlib.sha256(red.tobytes()).hexdigest() == \
            "215156ee7e9a3ae3c2b60648ea2e50ab74e1aa2fd1488f777fb75ff477f2dea8"
        assert hashlib.sha256(conv.tobytes()).hexdigest() == \
            "0b9f610ec11a88c67f626da6e11167bf061299199ce152540c1eddf7e9ccfca6"

    def test_hilbert_reduction_lowers_height(self, hilbert, rng):
        for _ in range(20):
            p = qt.QuotientPoint(hilbert, sl2.random_element(rng, k=2, scale=1.0))
            red = qt.reduce_point(p)
            # reduction must not worsen the cusp-height proxy
            assert qt.cusp_height(red) <= qt.cusp_height(p) * (1.0 + 1e-9)


def reduce_paths(monkeypatch, mats):
    """reduce_batch_k1(mats) and the paths its rows took.

    Returns (result, paths).  paths["gauss"] lists the Gauss-loop calls as
    (seeded, rows) pairs in call order; the first is the anchors' cold
    pass.  paths["dense"] says whether the block tried the anchors' words
    first.  On that path paths[name] holds the sorted rows that took each
    route: "left" and "right" (that anchor's word, no Gauss pass),
    "seeded" (the Gauss loop seeded with the left anchor's word) and
    "cold"; together they partition the rows.
    """
    gauss, settles = [], []
    loop, settle = qt._gauss_words, qt._settle

    def gauss_spy(m, seed=None):
        gauss.append((seed is not None, len(m)))
        return loop(m, seed)

    def settle_spy(mats, mats2, rows, *args):
        left = settle(mats, mats2, rows, *args)
        settles.append((rows, left))
        return left

    monkeypatch.setattr(qt, "_gauss_words", gauss_spy)
    monkeypatch.setattr(qt, "_settle", settle_spy)
    result = qt.reduce_batch_k1(mats)
    monkeypatch.undo()
    paths = {"gauss": gauss, "dense": bool(settles)}
    if settles:
        # the right anchor's words are tried first, then the seeded loop's
        tried, missed = settles[0]
        seeded, cold = settles[1] if len(settles) > 1 else (np.empty(0, int),) * 2
        n = len(mats)
        paths["left"] = np.setdiff1d(np.arange(n), np.union1d(tried, seeded))
        paths["right"] = np.setdiff1d(tried, missed)
        paths["seeded"] = np.setdiff1d(seeded, cold)
        paths["cold"] = np.sort(cold)
    return result, paths


def canonical_sign(out):
    """The sign flip of reduce_batch_k1: bottom row angle in [0, pi)."""
    flip = (out[:, 1, 0] < 0) | ((out[:, 1, 0] == 0) & (out[:, 1, 1] < 0))
    out[flip] *= -1.0
    return out


def cold_reduce(mats):
    """The cold kernel: the Gauss loop from the identity on every row, then
    the product and sign flip of reduce_batch_k1."""
    word, conv = qt._gauss_words(mats)
    return canonical_sign(word @ mats), conv, word


def assert_cold_bytes(mats, result):
    out, conv, word = result
    ref_out, ref_conv, ref_word = cold_reduce(mats)
    assert out.tobytes() == ref_out.tobytes()
    assert conv.tobytes() == ref_conv.tobytes()
    # the word equals the cold word up to sign; its zeros may differ in sign
    same = np.all((word == ref_word) | (np.isnan(word) & np.isnan(ref_word)), axis=(1, 2))
    assert np.all(same | np.all(word == -ref_word, axis=(1, 2)))


def reference_mobius(mats):
    a, b = mats[..., 0, 0], mats[..., 0, 1]
    c, d = mats[..., 1, 0], mats[..., 1, 1]
    den = c * c + d * d
    return (a * c + b * d) / den, (a * d - b * c) / den


def reference_balance_units(out, units):
    log_unit = math.log(abs(units[0][0, 0, 0]))
    _, y = reference_mobius(out)
    ratio = 0.5 * np.log(y[:, 0] / y[:, 1])
    m_balance = np.rint(-ratio / (2.0 * log_unit)).astype(int)
    moved = [np.flatnonzero(m_balance * sign > 0) for sign in (1, -1)]
    for rows, unit in zip(moved, units):
        left = np.abs(m_balance[rows])
        while len(rows):
            for i in range(2):
                out[rows, i] = unit[i] @ out[rows, i]
            left -= 1
            rows, left = rows[left > 0], left[left > 0]
    return np.concatenate(moved)


def reference_translate(out, lat):
    w1, w2 = lat.omega_embeddings()
    basis_inv = np.linalg.inv(np.array([[1.0, w1], [1.0, w2]]))
    x, _ = reference_mobius(out)
    mn = np.rint(basis_inv @ np.stack([x[:, 0], x[:, 1]])).astype(int)
    rows = np.flatnonzero((mn[0] != 0) | (mn[1] != 0))
    t1 = mn[0, rows] + mn[1, rows] * w1
    t2 = mn[0, rows] + mn[1, rows] * w2
    out[rows, 0, 0, 0] -= t1 * out[rows, 0, 1, 0]
    out[rows, 0, 0, 1] -= t1 * out[rows, 0, 1, 1]
    out[rows, 1, 0, 0] -= t2 * out[rows, 1, 1, 0]
    out[rows, 1, 0, 1] -= t2 * out[rows, 1, 1, 1]
    return rows


def reference_invert(out):
    x, y = reference_mobius(out)
    r2 = x * x + y * y
    rows = np.flatnonzero(1.0 / (r2[:, 0] * r2[:, 1]) > 1.0 + 1e-12)
    out[rows, :, 0], out[rows, :, 1] = -out[rows, :, 1], out[rows, :, 0]
    return rows


def reference_hilbert_reduction(lat, stack):
    """The Hilbert loop as it was before rows retired: every step on every
    row of the (N,2,2,2) stack in every round, with matrix products for
    the unit steps and the translation coefficients."""
    out = np.array(stack, dtype=float, copy=True)
    eps, inv = lat.unit_pair
    (e1, e2), (i1, i2) = lat.embed(*eps), lat.embed(*inv)
    units = (np.array([np.diag([e1, i1]), np.diag([e2, i2])]),
             np.array([np.diag([i1, e1]), np.diag([i2, e2])]))
    converged = np.ones(len(out), dtype=bool)
    for _ in range(qt.HILBERT_MAX_ROUNDS):
        changed = np.zeros(len(out), dtype=bool)
        changed[reference_balance_units(out, units)] = True
        changed[reference_translate(out, lat)] = True
        changed[reference_invert(out)] = True
        converged = ~changed
        if not changed.any():
            break
    return out, converged


def hilbert_cases() -> dict:
    """(D, stack) pairs on which the Hilbert loop is checked byte for byte."""
    offsets = -(np.arange(3 * qt._BLOCK_ROWS) + 0.5) * (20000.0 / 400000)
    arc = qt.orbit_mats(ob._K2_REFERENCE_BASE, offsets)
    cases = {f"haar-arc-block-{j}": (2, arc[j * qt._BLOCK_ROWS:(j + 1) * qt._BLOCK_ROWS])
             for j in range(3)}
    for disc in (2, 3, 5, 13):
        rng = np.random.default_rng(9100 + disc)
        n = 1500
        coords = np.stack([np.stack([rng.uniform(-3.0, 3.0, n), np.exp(rng.uniform(-4.0, 4.0, n)),
                                     rng.uniform(0.0, math.pi, n)], axis=1) for _ in range(2)],
                          axis=1)
        cases[f"random-D{disc}"] = (disc, qt.mats_from_coords(coords))
    identity = np.broadcast_to(np.eye(2), (2, 2, 2))
    for disc in (2, 3):  # D = 3 also tells LAPACK's basis inverse from the closed form
        cases[f"identity-arc-D{disc}"] = (disc, np.concatenate([
            qt.orbit_mats(identity, -0.37 * np.arange(2000)),
            qt.orbit_mats(identity, -np.arange(2000.0)), np.broadcast_to(identity, (2, 2, 2, 2))]))
    rng = np.random.default_rng(9199)
    special = rng.normal(size=(300, 8))
    special[np.arange(300), rng.integers(0, 8, 300)] = np.resize(
        [np.nan, np.inf, -np.inf, 1e200, -1e200, 1e-300, 0.0, -0.0], 300)
    special = np.concatenate([special, 1e200 * rng.normal(size=(20, 8)),
                              1e-300 * rng.normal(size=(20, 8))])
    cases["non-finite-huge-tiny"] = (2, special.reshape(-1, 2, 2, 2))
    cases["empty"] = (2, np.empty((0, 2, 2, 2)))
    cases["one-row"] = (2, arc[:1])
    # the last block's worth of the hilbert-k2 benchmark orbit (N = 1e5 polynomial
    # times, one chunk), from the chunk's reduced checkpoint
    lat2 = qt.HilbertLattice(2)
    p = point_from_spec("coords:0.1,1.3,0.4,-0.2,1.1,1.7", lat2)
    times = sp.generate(sp.PolynomialTimes(ex.ExperimentConfig().gamma_exp, 100_000))
    cases["poly-orbit-tail"] = (2, qt.orbit_mats(sp._checkpoint(p, times[0]),
                                                 times[-qt._BLOCK_ROWS:] - times[0]))
    cases["one-row-170-unit-steps"] = (2, unit_step_block())
    # omega = (1 + sqrt(5))/2
    cases["haar-arc-block-D5"] = (5, arc[:qt._BLOCK_ROWS])
    return cases


def unit_step_block(n: int = qt._BLOCK_ROWS) -> np.ndarray:
    """n - 1 settled identity rows and, in the middle, one row with y1/y2 =
    e^600, which balances in m = -170 unit steps at D = 2."""
    coords = np.array([[[0.0, math.exp(300.0), 0.4], [0.0, math.exp(-300.0), 1.7]]])
    stack = np.broadcast_to(np.eye(2), (n, 2, 2, 2)).copy()
    stack[n // 2] = qt.mats_from_coords(coords)[0]
    return stack


HILBERT_CASES = hilbert_cases()


class TestHilbertReferenceLoop:
    """Retiring settled rows and working on flat entry arrays gives the
    bytes and flags of the full-stack loop, also when rows are still
    moving at the round cap."""

    @pytest.mark.parametrize("rounds", [None, 1, 2, 3])
    @pytest.mark.parametrize("case", sorted(HILBERT_CASES))
    def test_bytes_and_flags(self, monkeypatch, case, rounds):
        disc, stack = HILBERT_CASES[case]
        if rounds is not None:
            monkeypatch.setattr(qt, "HILBERT_MAX_ROUNDS", rounds)
        lat = qt.HilbertLattice(disc)
        with np.errstate(all="ignore"):
            red, conv = qt._reduce_stack_hilbert(lat, stack)
            ref, ref_conv = reference_hilbert_reduction(lat, stack)
        assert red.shape == ref.shape and red.dtype == ref.dtype
        assert red.tobytes() == ref.tobytes()
        assert conv.tobytes() == ref_conv.tobytes()
        if rounds == 1 and len(stack) > 1:
            assert not conv.all()  # rows still moving at the cap keep False

    def test_unit_steps_cost_what_their_rows_cost(self):
        # 170 unit steps of one row among 16 383 settled ones must not be 170
        # steps over the whole block: what the block costs beyond the settled
        # rows and the stepping row apart stays well below 170 full-width
        # steps (one multiply and one add over every entry each), timed here
        lat = qt.HilbertLattice(2)
        block = unit_step_block()
        alone, settled = block[qt._BLOCK_ROWS // 2:][:1], np.delete(block, qt._BLOCK_ROWS // 2, axis=0)
        assert qt.reduce_stack(lat, alone)[1][0]
        best = {}

        def full_width():
            ent = np.ones((8, qt._BLOCK_ROWS))
            for _ in range(170):
                ent *= 1.0
                ent += 0.0

        for _ in range(7):
            for name, run in (("block", lambda: qt.reduce_stack(lat, block)),
                              ("alone", lambda: qt.reduce_stack(lat, alone)),
                              ("settled", lambda: qt.reduce_stack(lat, settled)),
                              ("full", full_width)):
                t0 = time.perf_counter()
                run()
                best[name] = min(best.get(name, np.inf), time.perf_counter() - t0)
        assert best["block"] - best["alone"] - best["settled"] < 0.5 * best["full"]


class TestWarmReduction:
    """The warm-started k = 1 kernel gives the cold kernel's bytes and flags."""

    N = 3 * qt.WARM_STRIDE * 341
    ANCHORS = N // qt.WARM_STRIDE

    def dense_block(self, generic_point):
        # quadrature-like nodes 0.005 apart, far along the orbit
        return qt.orbit_mats(generic_point.rep.mats, -(700.0 + 0.005 * np.arange(self.N)))[:, 0]

    def integer_block(self, generic_point):
        # integer times: adjacent anchors share no word
        return qt.orbit_mats(generic_point.rep.mats, -(1000.0 + np.arange(self.N)))[:, 0]

    def block(self, name, generic_point):
        if name == "dense":
            return self.dense_block(generic_point)
        if name == "integer":
            return self.integer_block(generic_point)
        half = self.N // 2
        return np.concatenate([self.dense_block(generic_point)[:half],
                               self.integer_block(generic_point)[:half]])

    @staticmethod
    def assert_known_words(mats, result, paths):
        """The dense path's routes partition the rows, a left or right row
        carries that anchor's word, and a right row lies between two
        anchors with different words."""
        stride = qt.WARM_STRIDE
        routes = np.concatenate([paths[k] for k in ("left", "right", "seeded", "cold")])
        assert np.array_equal(np.sort(routes), np.arange(len(mats)))
        anchors, _ = qt._gauss_words(mats[::stride])
        word = result[2]
        left, right = paths["left"], paths["right"]
        assert np.array_equal(word[left], anchors[left // stride])
        assert np.array_equal(word[right], anchors[right // stride + 1])
        assert not np.all(anchors[right // stride] == anchors[right // stride + 1], axis=(1, 2)).any()

    def test_dense_orbit_block(self, monkeypatch, generic_point):
        mats = self.dense_block(generic_point)
        result, paths = reduce_paths(monkeypatch, mats)
        assert paths["dense"]
        self.assert_known_words(mats, result, paths)
        # nine rows in ten skip the Gauss loop; it runs seeded on the rest only
        assert len(paths["left"]) + len(paths["right"]) >= 0.9 * self.N
        assert len(paths["right"]) > 0 and len(paths["seeded"]) > 0
        assert paths["gauss"][:2] == [(False, self.ANCHORS),
                                      (True, len(paths["seeded"]) + len(paths["cold"]))]
        assert_cold_bytes(mats, result)

    def test_integer_time_block(self, monkeypatch, generic_point):
        # adjacent anchors share no word here; every row runs the seeded loop
        mats = self.integer_block(generic_point)
        result, paths = reduce_paths(monkeypatch, mats)
        assert not paths["dense"]
        assert paths["gauss"][:2] == [(False, self.ANCHORS), (True, self.N)]
        assert_cold_bytes(mats, result)

    def test_two_word_changes_in_one_interval(self, monkeypatch, generic_point):
        """Rows 5-10 of one stride interval are moved by one element of
        SL(2,Z) and every row from 11 on by another, so that interval holds
        three words.  The middle rows match neither anchor and run the
        seeded loop; the rows after them take the next anchor's word."""
        stride, k = qt.WARM_STRIDE, 100
        first = k * stride
        mats = self.dense_block(generic_point)
        _, paths = reduce_paths(monkeypatch, mats)
        assert np.isin(np.arange(first, first + 2 * stride), paths["left"]).all()
        mats[first + 5:first + 11] = np.array([[1.0, 3.0], [0.0, 1.0]]) @ mats[first + 5:first + 11]
        mats[first + 11:] = np.array([[0.0, -1.0], [1.0, 2.0]]) @ mats[first + 11:]
        result, paths = reduce_paths(monkeypatch, mats)
        assert paths["dense"]
        self.assert_known_words(mats, result, paths)
        assert np.isin(np.arange(first, first + 5), paths["left"]).all()
        assert np.isin(np.arange(first + 5, first + 11), paths["seeded"]).all()
        assert np.isin(np.arange(first + 11, first + stride), paths["right"]).all()
        assert_cold_bytes(mats, result)

    def test_dense_then_integer_block(self, monkeypatch, generic_point):
        # a third of the anchor pairs share a word: the block runs the seeded loop
        mats = self.block("mixed", generic_point)
        result, paths = reduce_paths(monkeypatch, mats)
        assert not paths["dense"]
        assert paths["gauss"][:2] == [(False, self.ANCHORS), (True, self.N)]
        assert_cold_bytes(mats, result)

    @pytest.mark.parametrize("name", ["dense", "integer", "mixed"])
    def test_either_path_gives_the_bytes(self, monkeypatch, generic_point, name):
        """The per-block choice only orders exact candidates: forcing either
        path gives the cold bytes and flags."""
        mats = self.block(name, generic_point)
        results = []
        for share, dense in ((0.0, True), (2.0, False)):
            monkeypatch.setattr(qt, "WARM_DENSE_SHARE", share)
            result, paths = reduce_paths(monkeypatch, mats)
            assert paths["dense"] == dense
            if dense:
                self.assert_known_words(mats, result, paths)
            assert_cold_bytes(mats, result)
            results.append(result)
        assert results[0][0].tobytes() == results[1][0].tobytes()
        assert results[0][1].tobytes() == results[1][1].tobytes()

    @pytest.mark.parametrize("name, digest", [
        ("dense", "f58bbbf133f1e4f3c51c3880ccbd386203ad3bea8c2c77ed31af224970567991"),
        ("integer", "97e950ef12304a57c80bf85e94c86d52dbcd8f7458f35132ce7d9376f84991b4"),
        ("random", "ca2b84b3e51cd566e7f531367242c25974bb66a143b883ab2c28cc3d9ecb40ce"),
    ], ids=["dense", "integer", "random"])
    def test_pinned_bytes(self, generic_point, name, digest):
        """Layer digest of the k = 1 reduction: sha256 of the (out, conv)
        bytes on fixed stacks, taken from the kernel before the dense path
        existed.  The product word @ mats runs through BLAS, so the pins
        hold for the default OpenBLAS runtime (ROADMAP item 6)."""
        if name == "random":
            rng = np.random.default_rng(2026)
            mats = np.stack([sl2.random_element(rng, scale=2.0).mats[0] for _ in range(2000)])
        else:
            mats = self.block(name, generic_point)
        out, conv, _ = qt.reduce_batch_k1(mats)
        assert conv.all()
        assert hashlib.sha256(out.tobytes() + conv.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("n", [0, 1, 2, qt.WARM_STRIDE - 1, qt.WARM_STRIDE,
                                   qt.WARM_STRIDE + 1])
    def test_small_blocks(self, monkeypatch, generic_point, rng, n):
        random = np.stack([sl2.random_element(rng, scale=2.0).mats[0] for _ in range(n)]) \
            if n else np.empty((0, 2, 2))
        for mats in (self.dense_block(generic_point)[:n], self.integer_block(generic_point)[:n],
                     random):
            result, paths = reduce_paths(monkeypatch, mats)
            out, conv, word = result
            assert out.shape == word.shape == (n, 2, 2) and conv.shape == (n,)
            # a single anchor has no neighbour to disagree with
            assert paths["dense"] or n > qt.WARM_STRIDE
            assert_cold_bytes(mats, result)

    @pytest.mark.parametrize("step", [0.05, 1.0])
    def test_far_along_the_orbit(self, monkeypatch, step):
        """Offsets of 1e5 from a base with entries up to 24: |word| |mats|
        is about 5e12, where a fixed margin of 1e-9 let seeded words differ
        from the cold ones, and the margin must grow with the product."""
        base = qt.mats_from_coords(np.array([[[0.3, 1e-3, 0.7]]]))[0]
        mats = qt.orbit_mats(base, -(1e5 + step * np.arange(8192)))[:, 0]
        result, paths = reduce_paths(monkeypatch, mats)
        assert not paths["dense"] and paths["gauss"][1] == (True, len(mats))
        assert_cold_bytes(mats, result)

    def test_random_and_gamma_moved_stacks(self, generic_point, rng):
        random = np.stack([sl2.random_element(rng, scale=2.0).mats[0] for _ in range(2000)])
        gammas = qt.enumerate_gamma(qt.ModularLattice())[:, 0]
        picks = gammas[rng.integers(0, len(gammas), self.N)]
        dense = self.dense_block(generic_point)
        for mats in (random, picks[:2000] @ random, picks @ dense, gammas[17] @ dense):
            assert_cold_bytes(mats, qt.reduce_batch_k1(mats))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("theta", [0.0, 0.8, 2.0])
    @pytest.mark.parametrize("z", [1j, complex(0.5, math.sqrt(3.0) / 2.0),
                                   complex(-0.5, math.sqrt(3.0) / 2.0)],
                             ids=["i", "rho", "rho2"])
    def test_orbit_through_elliptic_points(self, monkeypatch, z, theta, sign):
        """Orbits over offsets in [-1, 1) through i, rho or rho^2 at offset 0,
        on row 8200, which is not an anchor; at z = i, theta = 0 this is the
        identity class.  The horocycles cross |z| = 1 (and |x| = 1/2 at rho)
        there, where a seeded word can differ from the cold one by the
        stabiliser of the point, so the margin fallback must fire."""
        base = qt.mats_from_coords(np.array([[[z.real, z.imag, theta]]]))[0]
        offsets = sign * (np.arange(16 * 1024) - 8200) / 8192.0
        mats = qt.orbit_mats(base, offsets)[:, 0]
        result, paths = reduce_paths(monkeypatch, mats)
        assert paths["dense"]
        self.assert_known_words(mats, result, paths)
        assert 8200 in paths["cold"]
        assert paths["gauss"][-1] == (False, len(paths["cold"]))
        assert_cold_bytes(mats, result)

    def test_nan_rows(self, monkeypatch, generic_point):
        mats = self.dense_block(generic_point)
        mats[5::97] = np.nan
        mats[7::131, 1, 0] = np.nan
        result, paths = reduce_paths(monkeypatch, mats)
        assert paths["dense"]
        self.assert_known_words(mats, result, paths)
        # NaN rows fail every word and the seeded loop, and stay unconverged cold
        assert np.isin(np.arange(5, self.N, 97), paths["cold"]).all()
        assert np.isin(np.arange(7, self.N, 131), paths["cold"]).all()
        assert not result[1][5::97].any()
        assert_cold_bytes(mats, result)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_rows_leave_on_the_first_pass(self, monkeypatch, generic_point):
        """A row whose x is NaN (a NaN or infinite entry, c = d = 0) never
        changes again, so it leaves the Gauss loop unconverged on its first
        pass: with the pass budget raised to 1e5 the block still takes
        milliseconds, and every other row keeps the clean block's bytes."""
        clean = self.dense_block(generic_point)
        mats = clean.copy()
        bad = [100, 200, 300, 400]
        mats[100, 0, 0] = np.nan
        mats[200, 1, 1] = np.inf
        mats[300, 0, 1] = -np.inf
        mats[400, 1] = 0.0
        monkeypatch.setattr(qt, "REDUCE_MAX_ITER", 10**5)
        start = time.perf_counter()
        result = qt.reduce_batch_k1(mats)
        assert time.perf_counter() - start < 1.0
        out, conv, _ = result
        ref_out, ref_conv, _ = qt.reduce_batch_k1(clean)
        assert not conv[bad].any()
        assert np.delete(conv, bad).tobytes() == np.delete(ref_conv, bad).tobytes()
        assert np.delete(out, bad, axis=0).tobytes() == np.delete(ref_out, bad, axis=0).tobytes()
        assert_cold_bytes(mats, result)

    def test_word_is_exact(self, generic_point, rng):
        dense = self.dense_block(generic_point)
        random = np.stack([sl2.random_element(rng, scale=2.0).mats[0] for _ in range(1000)])
        for mats in (dense, random):
            out, conv, word = qt.reduce_batch_k1(mats)
            assert conv.all()
            assert np.array_equal(word, np.round(word))
            w = word.astype(np.int64)
            assert np.all(w[:, 0, 0] * w[:, 1, 1] - w[:, 0, 1] * w[:, 1, 0] == 1)
            assert canonical_sign(word @ mats).tobytes() == out.tobytes()


class TestOrbitValues:
    @pytest.mark.parametrize("n", [0, 1, qt._BLOCK_ROWS - 1, qt._BLOCK_ROWS,
                                   3 * qt._BLOCK_ROWS + 17])
    @pytest.mark.parametrize("lattice_name", ["modular", "hilbert"])
    def test_blocked_bytes_equal_whole_stack(self, request, lattice_name, n):
        lat = request.getfixturevalue(lattice_name)
        rng = np.random.default_rng(n)
        base = sl2.random_element(rng, k=lat.k, scale=1.5).mats
        offsets = rng.uniform(-50.0, 50.0, n)
        for fn in (lambda coords: coords, bump_preset(lat).evaluate_coords):
            blocked = qt.orbit_values(lat, base, offsets, fn)
            whole = fn(qt.coords_of_stack(lat, qt.orbit_mats(base, offsets)))
            assert blocked.dtype == whole.dtype and blocked.shape == whole.shape
            assert blocked.tobytes() == whole.tobytes()


class TestIwasawaFold:
    """iwasawa_coords folds atan2 into [0, pi) by adding pi to negative
    angles, with the bytes of np.mod(atan2(c, d), pi) everywhere."""

    EDGE = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308,
            -2.2e-308, 1e-300, -1e-300, 1e-17, -1e-17, 1e300, -1e300]

    @staticmethod
    def assert_np_mod_bytes(c, d):
        mats = np.zeros((len(c), 2, 2))
        mats[:, 0, 0] = 1.0
        mats[:, 1, 0], mats[:, 1, 1] = c, d
        with np.errstate(all="ignore"):
            theta = qt.iwasawa_coords(mats)[2]
        assert theta.tobytes() == np.mod(np.arctan2(c, d), np.pi).tobytes()

    def test_edge_cases(self):
        # every pair of signed zeros, subnormals, infinities, NaN and extremes,
        # among them angles of exactly +-pi and negative angles so small that
        # adding pi rounds to pi
        c, d = (v.ravel() for v in np.meshgrid(self.EDGE, self.EDGE))
        angles = np.arctan2(c, d)
        assert {np.pi, -np.pi} <= set(angles) and np.any((angles < 0.0) & (angles + np.pi == np.pi))
        self.assert_np_mod_bytes(c, d)

    def test_random_angles(self, rng):
        scale = 10.0 ** rng.integers(-12, 12, size=(2, 200_000))
        c, d = rng.standard_normal((2, 200_000)) * scale
        self.assert_np_mod_bytes(c, d)


class TestCoordsOfStack:
    @pytest.mark.parametrize("lattice_name", ["modular", "hilbert"])
    def test_large_stack_reduced_in_blocks(self, monkeypatch, request, lattice_name):
        lat = request.getfixturevalue(lattice_name)
        rng = np.random.default_rng(17)
        n = 3 * qt._BLOCK_ROWS + 17
        base = sl2.random_element(rng, k=lat.k, scale=1.5).mats
        stack = qt.orbit_mats(base, rng.uniform(-50.0, 50.0, n))
        per_block = np.concatenate([
            np.stack(qt.iwasawa_coords(qt.reduce_stack(lat, stack[s:s + qt._BLOCK_ROWS])[0]),
                     axis=-1)
            for s in range(0, n, qt._BLOCK_ROWS)])
        one_call = np.stack(qt.iwasawa_coords(qt.reduce_stack(lat, stack)[0]), axis=-1)
        sizes = []
        reduce_stack = qt.reduce_stack

        def counted(lattice, rows):
            sizes.append(len(rows))
            return reduce_stack(lattice, rows)

        monkeypatch.setattr(qt, "reduce_stack", counted)
        got = qt.coords_of_stack(lat, stack)
        assert got.shape == (n, lat.k, 3)
        assert got.tobytes() == per_block.tobytes() == one_call.tobytes()
        assert sum(sizes) == n and max(sizes) <= qt._BLOCK_ROWS


class TestActionAndFlows:
    def test_translation_action_law(self, rng, modular):
        p = qt.QuotientPoint(modular, sl2.random_element(rng))
        v = sl2.random_element(rng, scale=0.4)
        w = sl2.random_element(rng, scale=0.4)
        lhs = qt.act(w, qt.act(v, p))
        rhs = qt.act(sl2.compose(w, v), p)
        assert np.max(np.abs(lhs.rep.mats - rhs.rep.mats)) <= 1e-12

    def test_horocycle_flow_additive(self, generic_point):
        a = flow_u(flow_u(generic_point, 1.25), 2.5)
        b = flow_u(generic_point, 3.75)
        assert np.max(np.abs(a.rep.mats - b.rep.mats)) <= 1e-12

    def test_geodesic_heights_at_identity(self, modular):
        p = qt.identity_coset(modular)
        for t in (0.5, 1.0, 2.0, 3.5):
            h = qt.cusp_height(qt.flow_a_contracting(p, t))
            assert abs(h - math.exp(t)) <= 1e-9 * math.exp(t)

    def test_sparse_map_heights_at_identity(self, modular):
        p = qt.identity_coset(modular)
        for n in (4.0, 100.0, 10_000.0):
            moved = qt.act(sl2.GroupElement(qt._phi_stack([n], 0.1, 1)[0]), p)
            assert abs(qt.cusp_height(moved) - math.sqrt(n)) <= 1e-6 * math.sqrt(n)

    def test_sparse_map_at_one_is_unit_shear(self):
        # a(-log(1)/2) is the identity, so only the shear factor survives
        got = qt._phi_stack([1.0], 0.3, 1)[0]
        assert np.array_equal(got, sl2.unipotent_u(1.0).mats)

    def test_sparse_map_flat_exponent_factors(self):
        x = math.exp(2.0)
        got = qt._phi_stack([x], 0.0, 1)[0]
        want = sl2.compose(sl2.diagonal_a(-1.0), sl2.unipotent_u(x))
        assert np.max(np.abs(got - want.mats)) <= 1e-12

    def test_sparse_map_domain(self):
        with pytest.raises(ValueError):
            qt._phi_stack([0.0], 0.1, 1)
        with pytest.raises(ValueError):
            qt._phi_stack([4.0, -3.0], 0.1, 2)

    def test_height_comparability_along_horocycle(self, rng, modular):
        pts = [qt.QuotientPoint(modular, sl2.random_element(rng, scale=1.2))
               for _ in range(40)]
        pts += [qt.flow_a_contracting(qt.identity_coset(modular), t)
                for t in (1.0, 2.0, 3.0, 4.0)]
        for p in pts:
            h0 = qt.cusp_height(p)
            for s in (0.25, 0.5, 0.75, 1.0):
                ratio = qt.cusp_height(flow_u(p, s)) / h0
                assert 1.0 / HEIGHT_COMPARABILITY_C <= ratio <= HEIGHT_COMPARABILITY_C


class TestDistancesAndRadii:
    def test_invariance_under_lattice(self, rng, modular):
        gammas = qt.enumerate_gamma(modular)
        p = qt.QuotientPoint(modular, sl2.random_element(rng, scale=0.7))
        for idx in rng.integers(0, len(gammas), size=30):
            moved = qt.QuotientPoint(modular, sl2.GroupElement(
                (gammas[idx, 0] @ p.rep.mats[0])[None]))
            assert same_reduced_coords(p, qt.reduce_point(moved), 1e-9)

    def test_injectivity_radius_decreases_up_the_cusp(self, modular):
        ys = np.linspace(2.0, 50.0, 25)
        radii = [qt.injectivity_radius(point_at(complex(0.0, y))) for y in ys]
        assert all(b <= a + 1e-12 for a, b in zip(radii, radii[1:]))

    def test_injectivity_radius_closed_form_high_in_cusp(self, modular):
        # high above the unit circle the shortest return of the
        # upper-triangular frame is the unit translation, whose
        # displacement is asymptotically 1/y
        for y in (4.0, 10.0, 30.0):
            coords = np.array([[[0.0, y, 0.0]]])
            p = qt.QuotientPoint(
                modular, sl2.GroupElement(qt.mats_from_coords(coords)[0]))
            eta = qt.injectivity_radius(p)
            assert abs(eta - 0.5 / y) <= 0.02 / y

    def test_injectivity_comparability_along_horocycle(self, rng, modular):
        for _ in range(25):
            p = qt.reduce_point(qt.QuotientPoint(modular, sl2.random_element(rng, scale=1.2)))
            e0 = qt.injectivity_radius(p)
            for s in (0.25, 1.0):
                e1 = qt.injectivity_radius(qt.reduce_point(flow_u(p, s)))
                assert 1.0 / HEIGHT_COMPARABILITY_C <= e1 / e0 <= HEIGHT_COMPARABILITY_C

    def test_injectivity_vanishes_along_divergent_geodesic(self, modular):
        p = qt.identity_coset(modular)
        vals = [qt.injectivity_radius(qt.flow_a_contracting(p, t))
                for t in (0.0, 2.0, 4.0, 6.0, 8.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= 2e-3


class TestCuspHeight:
    def test_pinned_values(self):
        assert abs(qt.cusp_height(point_at(1.0j)) - 1.0) <= 1e-12
        assert abs(qt.cusp_height(point_at(5.0j)) - 5.0) <= 1e-12

    def test_hilbert_identity(self, hilbert):
        assert abs(qt.cusp_height(qt.identity_coset(hilbert)) - 1.0) <= 1e-9


def single_point_heights(lattice, stack: np.ndarray) -> np.ndarray:
    """Cusp heights one class at a time, the way they were computed before
    the stack kernel: y of reduce_point for k = 1, and the bounded (c, d)
    minimum after a one-row Hilbert reduction for k = 2."""
    out = []
    for mats in stack:
        if lattice.k == 1:
            red = qt.reduce_point(qt.QuotientPoint(lattice, sl2.GroupElement(mats)))
            out.append(float(qt._mobius_coords(red.rep.mats)[1][0]))
            continue
        red, _ = qt._reduce_stack_hilbert(lattice, mats[None])
        x, y = qt._mobius_coords(red[0])
        rows = qt._cd_rows(lattice)
        c, d = rows[:, 0], rows[:, 1]
        terms = (c * x + d) ** 2 + (c * y) ** 2
        out.append(float(y[0] * y[1] / (terms[:, 0] * terms[:, 1]).min()))
    return np.array(out)


def elliptic_rows(k: int) -> np.ndarray:
    """Classes at i and at rho = exp(i pi / 3) in every factor, several frames."""
    rho = (0.5, math.sqrt(3.0) / 2.0)
    rows = [[[x, y, theta]] * k for x, y in ((0.0, 1.0), rho, (-rho[0], rho[1]))
            for theta in (0.0, 0.7, 2.9)]
    return qt.mats_from_coords(np.array(rows))


class TestCuspHeightsKernel:
    """cusp_heights on a stack gives the bytes of the single-point path."""

    @staticmethod
    def captured_stacks(monkeypatch, run) -> list:
        stacks = []
        kernel = qt.cusp_heights

        def capture(lattice, stack):
            stacks.append((lattice, stack.copy()))
            return kernel(lattice, stack)

        monkeypatch.setattr(qt, "cusp_heights", capture)
        result = run()
        monkeypatch.undo()
        return stacks, result

    @pytest.mark.parametrize("name", ["generic1", "quadratic", "cusp"])
    @pytest.mark.parametrize("mode, t_max", [("geodesic", 30.0), ("phi", 1.0e5)])
    def test_divergence_probe_rows(self, monkeypatch, name, mode, t_max):
        p = point_preset(name)
        stacks, rep = self.captured_stacks(
            monkeypatch, lambda: qt.detect_divergence(p, mode=mode, t_max=t_max))
        [(lattice, stack)] = stacks
        assert len(stack) == len(rep.heights) == len(probe_times(mode, t_max))
        expected = single_point_heights(lattice, stack)
        assert qt.cusp_heights(lattice, stack).tobytes() == expected.tobytes()
        assert rep.heights.tobytes() == expected.tobytes()

    def test_hilbert_torus_grid(self, monkeypatch, hilbert):
        stacks, rep = self.captured_stacks(
            monkeypatch, lambda: qt.torus_orbit_check(qt.identity_coset(hilbert)))
        [(lattice, stack)] = stacks
        assert len(stack) == 36
        heights = qt.cusp_heights(lattice, stack)
        assert heights.tobytes() == single_point_heights(lattice, stack).tobytes()
        assert rep.orbit_height_bound == float(heights.max())

    @pytest.mark.parametrize("disc", [2, 3, 5])
    def test_random_hilbert_rows(self, disc):
        lattice = qt.HilbertLattice(disc)
        rng = np.random.default_rng(7100 + disc)
        stack = np.array([sl2.random_element(rng, k=2, scale=1.0).mats for _ in range(40)])
        stack = np.concatenate([stack, elliptic_rows(2)])
        heights = qt.cusp_heights(lattice, stack)
        assert heights.tobytes() == single_point_heights(lattice, stack).tobytes()

    def test_random_and_elliptic_modular_rows(self, modular):
        rng = np.random.default_rng(7101)
        stack = np.array([sl2.random_element(rng, scale=1.5).mats for _ in range(200)])
        stack = np.concatenate([stack, elliptic_rows(1)])
        heights = qt.cusp_heights(modular, stack)
        assert heights.tobytes() == single_point_heights(modular, stack).tobytes()

    @pytest.mark.parametrize("name", ["generic1", "hilbert-identity"])
    @pytest.mark.parametrize("mode, t_max", [("geodesic", 30.0), ("phi", 1.0e5)])
    def test_divergence_probe_stack_is_act_per_sample(self, monkeypatch, name, mode, t_max):
        p = point_preset(name)
        k = p.lattice.k
        [(_, stack)], _ = self.captured_stacks(
            monkeypatch, lambda: qt.detect_divergence(p, mode=mode, t_max=t_max))
        times = probe_times(mode, t_max).tolist()
        if mode == "geodesic":
            elements = [sl2.diagonal_a(-t, k) for t in times]
        else:  # the phi map at the default gamma_exp = 0.1, for any k
            elements = [sl2.compose(sl2.diagonal_a(-math.log(x) / 2.0, k),
                                    sl2.unipotent_u(x ** (1.0 + 0.1), k))
                        for x in times]
        expected = np.array([qt.act(g, p).rep.mats for g in elements])
        assert stack.tobytes() == expected.tobytes()

    def test_torus_grid_stack_is_translate_per_point(self, monkeypatch, hilbert):
        p = qt.flow_a_contracting(qt.identity_coset(hilbert), 0.3)
        [(_, stack)], rep = self.captured_stacks(monkeypatch, lambda: qt.torus_orbit_check(p))
        assert rep.found and rep.torus_dim == 2
        nil = [g.mats - np.eye(2) for g in rep.generators]
        shifts = [np.eye(2) + sum(c * n for c, n in zip(coords, nil))
                  for coords in itertools.product(np.linspace(0.0, 1.0, 6), repeat=2)]
        expected = np.array([qt.translate(p, sl2.GroupElement(s)).rep.mats for s in shifts])
        assert stack.tobytes() == expected.tobytes()

    def test_one_row_view(self, hilbert):
        for p in (point_at(0.3 + 2.0j), qt.identity_coset(hilbert)):
            assert qt.cusp_height(p) == qt.cusp_heights(p.lattice, p.rep.mats[None])[0]


class TestProbeReductions:
    """The height probes reduce whole stacks: their number of reduce_stack
    calls does not grow with their number of samples."""

    @staticmethod
    def count_calls(monkeypatch, run) -> tuple[int, object]:
        calls = []
        reduce_stack = qt.reduce_stack

        def counted(lattice, stack):
            calls.append(len(stack))
            return reduce_stack(lattice, stack)

        monkeypatch.setattr(qt, "reduce_stack", counted)
        result = run()
        monkeypatch.undo()
        return len(calls), result

    @pytest.mark.parametrize("mode, t_max", [("geodesic", 30.0), ("phi", 1.0e5)])
    def test_detect_divergence(self, monkeypatch, generic_point, mode, t_max):
        counts = [self.count_calls(monkeypatch, lambda: qt.detect_divergence(
            generic_point, mode=mode, t_max=t_max, samples=n))[0] for n in (10, 80)]
        assert counts == [1, 1]

    def test_torus_orbit_check(self, monkeypatch, hilbert):
        counts = [self.count_calls(monkeypatch, lambda: qt.torus_orbit_check(
            qt.identity_coset(hilbert), grid=n))[0] for n in (2, 7)]
        assert counts == [1, 1]

    def test_dichotomy_torus_branch(self, monkeypatch):
        from horolab.experiments import ExperimentConfig, run

        results = [self.count_calls(monkeypatch, lambda: run(ExperimentConfig(
            kind="dichotomy", mode="almost", point="preset:cusp", n_max=n)))
            for n in (300, 5000)]
        samples = [r.payload["sparse_orbit"]["samples"] for _, r in results]
        assert samples[0] < samples[1]
        # probe, torus grid, base point, the sampled orbit (its heights reuse it)
        assert [calls for calls, _ in results] == [4, 4]


class TestDivergence:
    def test_identity_geodesic_diverges(self, modular):
        rep = qt.detect_divergence(qt.identity_coset(modular), mode="geodesic")
        assert rep.diverges
        assert rep.first_escape is not None
        # height e^t crosses 50 at t = ln 50
        assert rep.first_escape >= math.log(50.0) - 1e-9
        assert rep.first_escape in probe_times("geodesic", 30.0)

    def test_identity_coset_flagged(self, modular):
        # the probe over the renormalising push of a horizon-500 arc
        rep = qt.detect_divergence(qt.identity_coset(modular), mode="geodesic",
                                   t_max=math.log(500.0))
        assert rep.diverges

    def test_generic_geodesic_recurs(self, generic_point):
        rep = qt.detect_divergence(generic_point, mode="geodesic", t_max=30.0)
        assert not rep.diverges
        assert rep.first_escape is None

    def test_hilbert_identity_sparse_diverges(self, hilbert):
        rep = qt.detect_divergence(qt.identity_coset(hilbert), mode="phi",
                                   t_max=1.0e5, gamma_exp=0.1)
        assert rep.diverges

    def test_generic_sparse_resists_final_spike(self, generic_point):
        """A lone resonance spike at the last sample is recurrence, not escape.

        The golden-section endpoint produces exactly such a spike near
        n = 1e5; the verdict must stay non-divergent.
        """
        rep = qt.detect_divergence(generic_point, mode="phi", t_max=1.0e5,
                                   gamma_exp=0.1)
        assert not rep.diverges

    def test_identity_sparse_diverges(self, modular):
        rep = qt.detect_divergence(qt.identity_coset(modular), mode="phi",
                                   t_max=1.0e5, gamma_exp=0.1)
        assert rep.diverges


class TestTorusSearch:
    def test_identity_coset_k1(self, modular):
        rep = qt.torus_orbit_check(qt.identity_coset(modular))
        assert rep.found and rep.torus_dim == 1
        gen = rep.generators[0].factor(0)
        assert np.allclose(np.abs(gen), [[1.0, 1.0], [0.0, 1.0]], atol=1e-9)
        assert rep.orbit_height_bound is not None
        assert rep.orbit_height_bound < qt.HEIGHT_THRESHOLD

    def test_hilbert_identity_k2(self, hilbert):
        rep = qt.torus_orbit_check(qt.identity_coset(hilbert))
        assert rep.found and rep.torus_dim == 2
        assert rep.commutation_defect <= 1e-9
        for g in rep.generators:
            traces = g.mats[:, 0, 0] + g.mats[:, 1, 1]
            assert np.max(np.abs(np.abs(traces) - 2.0)) <= 1e-9
        assert rep.orbit_height_bound < qt.HEIGHT_THRESHOLD

    def test_quadratic_direction_has_no_stabilizer(self):
        rep = qt.torus_orbit_check(point_preset("quadratic"))
        assert not rep.found
        assert rep.torus_dim == 0

    def test_generators_fix_the_point(self, modular):
        p = qt.identity_coset(modular)
        rep = qt.torus_orbit_check(p)
        for g in rep.generators:
            moved = qt.QuotientPoint(modular, sl2.GroupElement(g.mats @ p.rep.mats))
            assert same_reduced_coords(p, moved, 1e-6)


def reference_ball(lattice, max_entry: float, budget: int) -> np.ndarray:
    """The breadth-first generator ball as a plain Python loop over tuples,
    one product at a time (cur-major, generator-minor), kept as an
    independent reference for quotient.enumerate_gamma."""
    def canonical(key):
        neg = tuple(-v for v in key)
        return key if key >= neg else neg

    if isinstance(lattice, qt.ModularLattice):
        gens = [(1, 1, 0, 1), (1, -1, 0, 1), (0, -1, 1, 0), (0, 1, -1, 0)]

        def mul(p, q):
            a, b, c, d = p
            e, f, g, h = q
            return canonical((a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))

        start, key = (1, 0, 0, 1), canonical
        height = lambda mat: max(abs(v) for v in mat)
    else:
        lat = lattice
        one, zero = (1, 0), (0, 0)
        eps, eps_inv = lat.unit_pair
        neg = lambda a: (-a[0], -a[1])
        gens = [(one, one, zero, one), (one, neg(one), zero, one),
                (one, (0, 1), zero, one), (one, (0, -1), zero, one),
                (zero, neg(one), one, zero), (zero, one, neg(one), zero),
                (eps, zero, zero, eps_inv), (eps_inv, zero, zero, eps)]

        def mul(p, q):
            a, b, c, d = p
            e, f, g, h = q
            m = lat.mul
            add = lambda u, v: (u[0] + v[0], u[1] + v[1])
            return (add(m(a, e), m(b, g)), add(m(a, f), m(b, h)),
                    add(m(c, e), m(d, g)), add(m(c, f), m(d, h)))

        start = (one, zero, zero, one)
        key = lambda mat: canonical(tuple(v for entry in mat for v in entry))
        height = lambda mat: max(abs(v) for entry in mat for v in lat.embed(*entry))
    seen, order, frontier = {key(start)}, [start], [start]
    while frontier and len(order) < budget:
        next_frontier = []
        for cur in frontier:
            for g in gens:
                nxt = mul(cur, g)
                tag = key(nxt)
                if tag in seen or height(nxt) > max_entry:
                    continue
                seen.add(tag)
                order.append(nxt)
                next_frontier.append(nxt)
        frontier = next_frontier
    if isinstance(lattice, qt.ModularLattice):
        return np.array(order, dtype=float).reshape(-1, 1, 2, 2)
    emb = np.array([[lat.embed(*entry) for entry in mat] for mat in order])
    return np.ascontiguousarray(emb.transpose(0, 2, 1)).reshape(-1, 2, 2, 2)


class TestEnumeration:
    @pytest.mark.parametrize("disc", [None, 2, 3, 5, 13, 19])
    def test_bytes_match_reference_loop(self, disc):
        lat = qt.ModularLattice() if disc is None else qt.HilbertLattice(disc)
        for max_entry, budget in [(200.0, 6000), (200.0, 500), (50.0, 6000)]:
            stack = qt.enumerate_gamma(lat, max_entry, budget)
            ref = reference_ball(lat, max_entry, budget)
            assert stack.dtype == ref.dtype and stack.shape == ref.shape
            assert stack.tobytes() == ref.tobytes()

    def test_identity_first_and_unimodular(self, modular):
        gam = qt.enumerate_gamma(modular)
        assert gam.shape[1:] == (1, 2, 2)
        assert np.array_equal(gam[0, 0], np.eye(2))
        g = gam[:, 0]
        dets = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
        assert np.all(dets == 1.0)

    def test_entry_bound_respected(self, modular):
        gam = qt.enumerate_gamma(modular, max_entry=50.0)
        assert np.max(np.abs(gam)) <= 50.0

    def test_built_once_and_read_only(self, modular, hilbert):
        assert qt.enumerate_gamma(modular) is qt.enumerate_gamma(modular)
        assert qt._cd_rows(hilbert) is qt._cd_rows(hilbert)
        for arr in (qt.enumerate_gamma(modular), qt.enumerate_gamma(hilbert), qt._cd_rows(hilbert)):
            assert not arr.flags.writeable

    def test_hilbert_enumeration_unimodular(self, hilbert):
        gam = qt.enumerate_gamma(hilbert)
        dets = gam[:, :, 0, 0] * gam[:, :, 1, 1] - gam[:, :, 0, 1] * gam[:, :, 1, 0]
        assert np.max(np.abs(dets - 1.0)) <= 1e-10
