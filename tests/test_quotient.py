"""Quotient layer: reduction, translation flows, heights, stabilizers."""

import hashlib
import math
import time

import numpy as np
import pytest

from horolab import quotient as qt
from horolab import sl2
from horolab.presets import bump_preset, point_preset

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


class TestActionAndFlows:
    def test_translation_action_law(self, rng, modular):
        p = qt.QuotientPoint(modular, sl2.random_element(rng))
        v = sl2.random_element(rng, scale=0.4)
        w = sl2.random_element(rng, scale=0.4)
        lhs = qt.act(w, qt.act(v, p))
        rhs = qt.act(sl2.compose(w, v), p)
        assert np.max(np.abs(lhs.rep.mats - rhs.rep.mats)) <= 1e-12

    def test_horocycle_flow_additive(self, generic_point):
        a = qt.flow_u(qt.flow_u(generic_point, 1.25), 2.5)
        b = qt.flow_u(generic_point, 3.75)
        assert np.max(np.abs(a.rep.mats - b.rep.mats)) <= 1e-12

    def test_geodesic_heights_at_identity(self, modular):
        p = qt.identity_coset(modular)
        for t in (0.5, 1.0, 2.0, 3.5):
            h = qt.cusp_height(qt.flow_a_contracting(p, t))
            assert abs(h - math.exp(t)) <= 1e-9 * math.exp(t)

    def test_sparse_map_heights_at_identity(self, modular):
        p = qt.identity_coset(modular)
        for n in (4.0, 100.0, 10_000.0):
            moved = qt.act(qt.phi_map(n, gamma_exp=0.1), p)
            assert abs(qt.cusp_height(moved) - math.sqrt(n)) <= 1e-6 * math.sqrt(n)

    def test_sparse_map_at_one_is_unit_shear(self):
        # a(-log(1)/2) is the identity, so only the shear factor survives
        got = qt.phi_map(1.0, gamma_exp=0.3)
        assert np.array_equal(got.mats, sl2.unipotent_u(1.0).mats)

    def test_sparse_map_flat_exponent_factors(self):
        x = math.exp(2.0)
        got = qt.phi_map(x, gamma_exp=0.0)
        want = sl2.compose(sl2.diagonal_a(-1.0), sl2.unipotent_u(x))
        assert np.max(np.abs(got.mats - want.mats)) <= 1e-12

    def test_sparse_map_domain(self):
        with pytest.raises(ValueError):
            qt.phi_map(0.0, gamma_exp=0.1)
        with pytest.raises(ValueError):
            qt.phi_map(-3.0, gamma_exp=0.1)

    def test_height_comparability_along_horocycle(self, rng, modular):
        pts = [qt.QuotientPoint(modular, sl2.random_element(rng, scale=1.2))
               for _ in range(40)]
        pts += [qt.flow_a_contracting(qt.identity_coset(modular), t)
                for t in (1.0, 2.0, 3.0, 4.0)]
        for p in pts:
            h0 = qt.cusp_height(p)
            for s in (0.25, 0.5, 0.75, 1.0):
                ratio = qt.cusp_height(qt.flow_u(p, s)) / h0
                assert 1.0 / HEIGHT_COMPARABILITY_C <= ratio <= HEIGHT_COMPARABILITY_C


class TestDistancesAndRadii:
    def test_self_distance(self, generic_point):
        assert qt.quotient_distance(generic_point, generic_point) <= 1e-12

    def test_symmetry(self, rng, modular):
        for _ in range(100):
            p = qt.QuotientPoint(modular, sl2.random_element(rng, scale=0.8))
            q = qt.QuotientPoint(modular, sl2.random_element(rng, scale=0.8))
            d1 = qt.quotient_distance(p, q)
            d2 = qt.quotient_distance(q, p)
            assert abs(d1 - d2) <= 1e-9 * max(1.0, d1)

    def test_invariance_under_lattice(self, rng, modular):
        gammas = qt.enumerate_gamma(modular)
        p = qt.QuotientPoint(modular, sl2.random_element(rng, scale=0.7))
        for idx in rng.integers(0, len(gammas), size=30):
            moved = qt.QuotientPoint(modular, sl2.GroupElement(
                (gammas[idx, 0] @ p.rep.mats[0])[None]))
            assert qt.quotient_distance(p, qt.reduce_point(moved)) <= 1e-9

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
                e1 = qt.injectivity_radius(qt.reduce_point(qt.flow_u(p, s)))
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


class TestDivergence:
    def test_identity_geodesic_diverges(self, modular):
        rep = qt.detect_divergence(qt.identity_coset(modular), mode="geodesic")
        assert rep.diverges
        assert rep.first_escape is not None
        # height e^t crosses 50 at t = ln 50
        assert rep.first_escape >= math.log(50.0) - 1e-9
        assert np.all(np.diff(rep.times) > 0)

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
            assert qt.quotient_distance(p, moved) <= 1e-6


class TestEnumeration:
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

    def test_hilbert_enumeration_unimodular(self, hilbert):
        gam = qt.enumerate_gamma(hilbert)
        dets = gam[:, :, 0, 0] * gam[:, :, 1, 1] - gam[:, :, 0, 1] * gam[:, :, 1, 0]
        assert np.max(np.abs(dets - 1.0)) <= 1e-10
