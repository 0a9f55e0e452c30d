"""Acceptance gate: the twelve primary criteria, one test per criterion.

Each test prints a single summary line with the measured quantities and
its runtime against the stated budget.  Tolerances and case counts come
from the criteria verbatim; nothing here is loosened for speed.
"""

import time

import numpy as np
import pytest

import horolab.experiments as ex
import horolab.observables as ob
import horolab.quotient as qt
import horolab.sampling as sp
import horolab.sieve as sieve
import horolab.sl2 as sl2
from horolab import presets

EPSILON = 0.004


def _finish(num: int, label: str, started: float, budget: float, detail: str = ""):
    elapsed = time.perf_counter() - started
    ok = elapsed < budget
    line = f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s, budget {budget:.0f}s)"
    if detail:
        line += " — " + detail
    print(line)
    assert ok, f"criterion {num} blew its runtime budget: {elapsed:.1f}s >= {budget}s"


def _rel_gap(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)))


def test_criterion_01_group_laws():
    started = time.perf_counter()
    rng = np.random.default_rng(101)

    # one-parameter law u(s)u(t) = u(s+t), 1e4 cases in [-10,10]^2
    worst_u = 0.0
    for s, t in rng.uniform(-10.0, 10.0, (10**4, 2)):
        got = sl2.compose(sl2.unipotent_u(s), sl2.unipotent_u(t))
        worst_u = max(worst_u, _rel_gap(got.mats, sl2.unipotent_u(s + t).mats))
    assert worst_u <= 1e-12

    # commutation a(t) u(s) a(-t) = u(e^t s), t in [-20,20], s in [-100,100]
    worst_c = 0.0
    ss = rng.uniform(-100.0, 100.0, 10**4)
    tt = rng.uniform(-20.0, 20.0, 10**4)
    for s, t in zip(ss, tt):
        got = sl2.compose(sl2.compose(sl2.diagonal_a(t), sl2.unipotent_u(s)),
                          sl2.diagonal_a(-t))
        worst_c = max(worst_c, _rel_gap(got.mats, sl2.unipotent_u(np.exp(t) * s).mats))
    assert worst_c <= 1e-9

    # bracket table: exact on the basis, and bilinearly on 1e4 random pairs
    def comm(a, b):
        return a @ b - b @ a

    assert np.array_equal(comm(sl2.BASIS_Z, sl2.BASIS_X), 2.0 * sl2.BASIS_X)
    assert np.array_equal(comm(sl2.BASIS_Z, sl2.BASIS_Y), -2.0 * sl2.BASIS_Y)
    assert np.array_equal(comm(sl2.BASIS_X, sl2.BASIS_Y), sl2.BASIS_Z)

    v = rng.uniform(-2.0, 2.0, (10**4, 3))
    w = rng.uniform(-2.0, 2.0, (10**4, 3))

    def alg_mats(c):
        m = np.empty((len(c), 2, 2))
        m[:, 0, 0] = c[:, 2]
        m[:, 0, 1] = c[:, 0]
        m[:, 1, 0] = c[:, 1]
        m[:, 1, 1] = -c[:, 2]
        return m

    cm = comm(alg_mats(v), alg_mats(w))
    got = np.stack([cm[:, 0, 1], cm[:, 1, 0], cm[:, 0, 0]], axis=1)
    want = np.stack([2.0 * (v[:, 2] * w[:, 0] - v[:, 0] * w[:, 2]),
                     2.0 * (v[:, 1] * w[:, 2] - v[:, 2] * w[:, 1]),
                     v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0]], axis=1)
    worst_b = float(np.max(np.abs(got - want)))
    assert worst_b <= 1e-12

    # exp/log round trip within the principal branch, 1e4 cases
    worst_e = 0.0
    for coords in rng.uniform(-0.15, 0.15, (10**4, 1, 3)):
        x = sl2.LieAlgebraElement(coords)
        back = sl2.log_map(sl2.exp_map(x))
        worst_e = max(worst_e, float(np.max(np.abs(back.coords - coords))))
    assert worst_e <= 1e-9

    _finish(1, "group laws", started, 5.0,
            f"u-law {worst_u:.1e}, commutation {worst_c:.1e}, "
            f"bracket {worst_b:.1e}, exp/log {worst_e:.1e}")


def test_criterion_02_reduction_invariance():
    started = time.perf_counter()
    mod = qt.ModularLattice()
    gammas = qt.enumerate_gamma(mod, max_entry=200.0, budget=200_000)
    assert np.max(np.abs(gammas)) <= 200.0
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        p = qt.QuotientPoint(mod, sl2.random_element(rng))
        base = qt.reduce_point(p)
        # reduce(reduce(p)) = reduce(p) bit-for-bit
        assert np.array_equal(qt.reduce_point(base).rep.mats, base.rep.mats)
        moved = np.einsum("nkab,kbc->nkac", gammas, p.rep.mats)
        red, conv = qt.reduce_stack(mod, moved)
        assert conv.all()
        worst = max(worst, float(np.max(np.abs(red - base.rep.mats[None]))))
    assert worst <= 1e-9
    _finish(2, "reduction invariance", started, 30.0,
            f"{len(gammas)} lattice elements x 100 points, worst gap {worst:.1e}")


def test_criterion_03_kernel_properties():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_mass = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        glen = float(rng.uniform(0.3, 1.5))
        delta = float(rng.uniform(0.02, 0.45 * glen))
        kern = ob.SmoothingKernel(delta, glen, n)
        chk = kern.quadrature_check()
        # (1) total integral equals gamma^n
        assert chk["mass_defect"] <= 1e-6
        worst_mass = max(worst_mass, chk["mass_defect"])
        # (2) support containment: exactly zero outside the widened box
        lo, hi = kern.support_box()
        pts = np.full((16, n), 0.5 * (lo + hi))
        pts[:8, 0] = hi + np.linspace(1e-12, 2.0, 8)
        pts[8:, -1] = lo - np.linspace(1e-12, 2.0, 8)
        assert np.all(kern.kernel_value(pts) == 0.0)
        # (3) L1 distance to the sharp box within the profile-constant bound
        assert chk["l1_within_bound"], chk
    _finish(3, "kernel properties", started, 60.0,
            f"20 random (delta, n, gamma), worst mass defect {worst_mass:.1e}")


def test_criterion_04_renormalization_identity():
    started = time.perf_counter()
    mod = qt.ModularLattice()
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        cx = float(rng.uniform(-0.25, 0.25))
        wx = float(rng.uniform(0.1, min(0.45 - abs(cx), 0.2)))
        cy = float(rng.uniform(1.3, 2.2))
        wy = float(rng.uniform(0.15, 0.3))
        f = ob.BumpFunction(mod, [[cx, cy, float(rng.uniform(0.0, np.pi))]],
                            [[wx, wy, float(rng.uniform(0.3, 0.8))]],
                            amplitude=float(rng.uniform(0.5, 2.0)))
        p = qt.reduce_point(qt.QuotientPoint(mod, sl2.random_element(rng, scale=0.8)))
        t_span = float(rng.uniform(50.0, 1000.0))
        worst = max(worst, sp.renormalization_identity_check(f, p, t_span))
    assert worst <= 1e-6
    _finish(4, "renormalization identity", started, 120.0,
            f"20 random (f, p, T) triples, worst defect {worst:.1e}")


def test_criterion_05_equidistribution_decay():
    started = time.perf_counter()
    p = presets.point_preset("generic1")
    f = presets.bump_preset(p.lattice)
    series = [(t_span, sp.horocycle_average(f, p, t_span).deviation)
              for t_span in (1.0e2, 1.0e3, 1.0e4, 1.0e5)]
    fit = sp.decay_fit(series)
    assert fit.slope <= -0.1
    _finish(5, "equidistribution decay", started, 600.0,
            "slope %.3f over T in {1e2..1e5}, deviations %s"
            % (fit.slope, ["%.2e" % d for _, d in series]))


def test_criterion_06_discrete_average_trend():
    started = time.perf_counter()
    p = presets.point_preset("generic1")
    f = presets.bump_preset(p.lattice)
    pairs = []
    for step_k in (1.0, 10.0, 100.0):
        d4 = sp.sparse_average(f, p, sp.Progression(step_k, 1.0e4)).deviation
        d6 = sp.sparse_average(f, p, sp.Progression(step_k, 1.0e6)).deviation
        assert d6 < d4, (step_k, d4, d6)
        pairs.append((step_k, d4, d6))
    _finish(6, "discrete average trend", started, 600.0,
            "; ".join("K=%g: %.2e -> %.2e" % t for t in pairs))


def test_criterion_07_sieve_bracketing():
    started = time.perf_counter()
    n_max = 10**6

    # pinned run: unit weights, z = N^{1/9}, D = z^9
    z = float(n_max) ** (1.0 / 9.0)
    prob = sieve.SieveProblem(np.ones(n_max + 1), z, z ** 9, EPSILON)
    rep = sieve.sieve_bounds(prob)
    exact = sieve.brute_force_S(prob)
    assert rep.s_exact == exact
    assert rep.lower <= exact <= rep.upper
    assert rep.brackets_hold

    # 50 randomized nonnegative weight vectors, D >= z^2 throughout
    rng = np.random.default_rng(707)
    for i in range(50):
        w = rng.uniform(0.0, 1.0, n_max + 1) * rng.uniform(0.5, 3.0)
        zz = float(n_max) ** rng.uniform(1.0 / 9.0, 0.2)
        pr = sieve.SieveProblem(w, zz, zz ** rng.uniform(2.2, 6.0), EPSILON)
        rb = sieve.sieve_bounds(pr)
        assert rb.brackets_hold, f"random weight vector {i}"

    # Buchstab identity, exact for integer-valued weights at N = 1e4
    for z_prime, zz in ((3.0, 20.0), (5.0, 50.0), (7.0, 97.0), (4.0, 100.0)):
        pr = sieve.SieveProblem(np.ones(10**4 + 1), zz, zz ** 2, EPSILON)
        assert sieve.buchstab_defect(pr, z_prime) == 0.0
    _finish(7, "sieve bracketing", started, 300.0,
            f"unit run {rep.lower:.4g} <= {exact:.6g} <= {rep.upper:.4g}; "
            "50 random vectors hold; Buchstab exact")


def test_criterion_08_mertens_threshold():
    started = time.perf_counter()
    u_tilde = sieve.empirical_u_tilde(EPSILON)
    # the inequality must fail at u = 2 all the way up the z grid
    for z in (10.0, 1.0e3, 1.0e6, 1.0e8):
        assert not sieve.mertens_check(2.0, z, EPSILON).holds
    # ... and hold for every u >= empirical u-tilde against the same grid
    worst = 0.0
    for u_mult in (1.0, 2.0, 10.0, 50.0):
        u = u_tilde * u_mult
        for z in (1.0e4, 1.0e6, 1.0e8):
            if u < z:
                rep = sieve.mertens_check(u, z, EPSILON)
                assert rep.holds, (u, z)
                worst = max(worst, rep.lhs / rep.rhs)
    _finish(8, "mertens threshold", started, 120.0,
            f"empirical u-tilde({EPSILON}) = {u_tilde:.6g}; fails at u=2, "
            f"holds on the grid above the threshold (max lhs/rhs {worst:.6f})")


def test_criterion_09_dynamical_sieve_positivity():
    started = time.perf_counter()
    n_max = 10**6
    alpha = 1.0 / 9.0
    p = presets.point_preset("generic1")
    cover = presets.cover_bumps(p.lattice)
    assert len(cover) == 10
    coords = sp.orbit_coordinates(p, np.arange(1, n_max + 1, dtype=float))
    sums = []
    for bump in cover:
        w = np.empty(n_max + 1)
        w[0] = 0.0
        w[1:] = bump.evaluate_coords(coords)
        rep = sieve.dynamical_sieve_pipeline(w, alpha, epsilon=EPSILON,
                                             s_target=101.0)
        assert rep.level == 10
        assert rep.chain_ok
        assert rep.omega_sum > 0.0
        sums.append(rep.omega_sum)
    _finish(9, "dynamical sieve positivity", started, 1200.0,
            f"all 10 cover bumps positive, min almost-prime mass {min(sums):.4g}")


def test_criterion_10_block_machinery():
    started = time.perf_counter()
    rng = np.random.default_rng(1010)
    p = presets.point_preset("generic1")
    f = presets.bump_preset(p.lattice)

    done = 0
    worst_ratio = 1.0
    while done < 20:
        m_base = int(rng.integers(10**4, 10**7))
        gamma_exp = float(rng.uniform(0.05, 0.45))
        try:
            ratio = sp.block_error(m_base, gamma_exp) / sp.block_taylor_remainder(
                m_base, gamma_exp)
        except sp.DegenerateBlockError:
            continue
        assert 0.5 <= ratio <= 2.0, (m_base, gamma_exp, ratio)
        worst_ratio = max(worst_ratio, max(ratio, 1.0 / ratio))
        done += 1

    s1 = ob.sobolev_norm(f, 1)
    for _ in range(10):
        m_base = int(rng.integers(10**5, 2 * 10**6))
        gamma_exp = float(rng.uniform(0.05, 0.2))
        _, _, gap = sp.block_average_compare(f, p, m_base, gamma_exp)
        assert gap <= s1 * sp.block_error(m_base, gamma_exp), (m_base, gamma_exp)
    _finish(10, "block machinery", started, 300.0,
            f"taylor ratio within x{worst_ratio:.4f} on 20 configs; "
            "10 Lipschitz bounds hold")


def test_criterion_11_dichotomy_exemplars():
    started = time.perf_counter()

    # identity coset, k=1: torus branch with generator u(1), exactly periodic
    rec = ex.run(ex.ExperimentConfig(kind="dichotomy", point="preset:cusp",
                                     mode="almost", n_max=10**6))
    assert rec.payload["verdict"] == "torus-confirmed"
    assert rec.payload["sparse_orbit"]["single_point_exact"]
    torus = qt.torus_orbit_check(qt.identity_coset(qt.ModularLattice()))
    assert torus.found
    assert np.array_equal(torus.generators[0].mats,
                          sl2.unipotent_u(1.0).mats)

    # Hilbert D=2 identity coset: rank-2 torus of commuting translations
    rec2 = ex.run(ex.ExperimentConfig(kind="dichotomy", lattice="hilbert",
                                      disc=2, point="identity", mode="poly",
                                      gamma_exp=0.1))
    assert rec2.payload["verdict"] == "torus-confirmed"
    assert rec2.payload["torus"]["torus_dim"] == 2
    t2 = qt.torus_orbit_check(qt.identity_coset(qt.HilbertLattice(2)))
    assert len(t2.generators) == 2
    g1, g2 = t2.generators
    assert np.max(np.abs(sl2.compose(g1, g2).mats
                         - sl2.compose(g2, g1).mats)) <= 1e-12
    for g in (g1, g2):  # unipotent translations in every factor
        assert np.allclose(g.mats[:, 0, 0], 1.0) and np.allclose(g.mats[:, 1, 1], 1.0)
        assert np.all(g.mats[:, 1, 0] == 0.0)

    # generic k=1 preset: dense branch, every cover bump carries orbit mass
    rec3 = ex.run(ex.ExperimentConfig(kind="dichotomy", point="preset:generic1",
                                      mode="almost", n_max=10**6))
    assert rec3.payload["verdict"] == "dense-evidence"
    assert all(row["omega_sum"] > 0.0 for row in rec3.payload["cover"])
    _finish(11, "dichotomy exemplars", started, 600.0,
            "identity -> torus (u(1), exact fixed point); Hilbert identity -> "
            "rank-2 torus; generic -> dense-evidence")


def test_criterion_12_worker_determinism():
    started = time.perf_counter()
    p = presets.point_preset("generic1")
    f = presets.bump_preset(p.lattice)

    gaps = {}
    a1 = sp.horocycle_average(f, p, 1.0e4, workers=1).value
    a8 = sp.horocycle_average(f, p, 1.0e4, workers=8).value
    gaps["interval"] = abs(a1 - a8)

    s1 = sp.sparse_average(f, p, sp.Progression(1.0, 1.0e6), workers=1).value
    s8 = sp.sparse_average(f, p, sp.Progression(1.0, 1.0e6), workers=8).value
    gaps["sparse"] = abs(s1 - s8)

    b1 = sp.block_average_compare(f, p, 400_000, 0.1, workers=1)
    b8 = sp.block_average_compare(f, p, 400_000, 0.1, workers=8)
    gaps["blocks"] = max(abs(x - y) for x, y in zip(b1, b8))

    times = sp.generate(sp.Progression(0.5, 100_000.0))
    c1 = sp.orbit_coordinates(p, times, workers=1)
    c8 = sp.orbit_coordinates(p, times, workers=8)
    gaps["orbit"] = float(np.max(np.abs(c1 - c8)))

    assert all(v <= 1e-12 for v in gaps.values()), gaps
    _finish(12, "worker determinism", started, 600.0,
            "; ".join(f"{k} {v:.1e}" for k, v in gaps.items()))
