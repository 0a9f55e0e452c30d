"""Tests of the benchmark's independent oracles and of its metric lists.

    python3 -m pytest -q perfbench
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import specs  # noqa: E402


def test_gauss_height_of_simple_classes():
    # identity: z = i is reduced
    assert oracles.gauss_height(np.eye(2), 0.0) == pytest.approx(1.0, rel=1e-15)
    # diag(1/2, 2): z = i/4, inverted once to 4i
    assert oracles.gauss_height(np.diag([0.5, 2.0]), 0.0) == pytest.approx(4.0, rel=1e-15)
    # u(-7) is in SL2(Z), so the identity flowed to an integer time is the identity class
    assert oracles.gauss_height(np.eye(2), 7.0) == pytest.approx(1.0, rel=1e-15)
    # diag(1/2, 2) u(-7): z = -1.75 + i/4 reduces to 2i
    assert oracles.gauss_height(np.diag([0.5, 2.0]), 7.0) == pytest.approx(2.0, rel=1e-15)


def test_gauss_height_is_a_class_invariant():
    rng = np.random.default_rng(5)
    rep = np.array([[1.3, 0.4], [0.7, (1.0 + 0.4 * 0.7) / 1.3]])
    gamma = oracles.random_gamma_k1(rng, 50, 20)
    t = 123.456
    # gamma @ rep is rounded to floats, hence the tolerance
    assert oracles.gauss_height(gamma @ rep, t) == pytest.approx(
        oracles.gauss_height(rep, t), rel=1e-9)


def _brute_bump_integral(center, widths):
    """Midpoint rule on the bump's support box, in (x, y, theta)."""
    (cx, cy, ct), (wx, wy, wt) = center, widths
    n = 400
    s = (np.arange(n) + 0.5) / n * 2.0 - 1.0
    prof = np.where(np.abs(s) < 1.0, np.exp(1.0 + 1.0 / np.minimum(s * s - 1.0, -1e-300)), 0.0)
    y = cy + wy * s
    ix = prof.sum() * 2.0 * wx / n
    iy = (prof / (y * y)).sum() * 2.0 * wy / n
    it = prof.sum() * 2.0 * wt / n
    return ix * iy * it / (math.pi ** 2 / 3.0)


def test_bump_integral_matches_brute_force_and_known_value():
    center, widths = (-0.15, 1.45, 1.9), (0.2, 0.35, 0.5)  # preset:bump1, k = 1
    val = oracles.bump_integral_k1(center, widths)
    assert val == pytest.approx(_brute_bump_integral(center, widths), rel=1e-6)
    assert val == pytest.approx(0.00914958466, rel=1e-9)


def test_bump_integral_rejects_support_outside_the_domain():
    with pytest.raises(ValueError):
        oracles.bump_integral_k1((0.4, 1.45, 1.9), (0.2, 0.35, 0.5))
    with pytest.raises(ValueError):
        oracles.bump_integral_k1((0.0, 1.1, 1.9), (0.2, 0.35, 0.5))


@pytest.mark.parametrize("disc, unit", [(2, (1, 1)), (5, (0, 1))])
def test_recover_gamma_round_trip(disc, unit):
    rng = np.random.default_rng(11)
    rep = np.array([[[1.3, 0.21], [0.17, (1.0 + 0.21 * 0.17) / 1.3]],
                    [[0.8, -0.33], [0.29, (1.0 - 0.33 * 0.29) / 0.8]]])
    for _ in range(20):
        g = oracles.random_gamma_k2(rng, disc, unit, 8)
        (a, b, c, d) = g
        ad, bc = oracles.o_mul(disc, a, d), oracles.o_mul(disc, b, c)
        assert (ad[0] - bc[0], ad[1] - bc[1]) == (1, 0)
        moved = np.einsum("kab,kbc->kac", oracles.embed_gamma(disc, g), rep)
        assert oracles.recover_gamma(disc, moved, rep) == ((a, b), (c, d))


def test_recover_gamma_rejects_non_lattice_moves():
    rep = np.array([np.eye(2), np.eye(2)])
    half_shift = np.array([[[1.0, 0.5], [0.0, 1.0]], [[1.0, 0.5], [0.0, 1.0]]])
    assert oracles.recover_gamma(2, half_shift, rep) is None
    # integral entries in each place separately, but not an embedded O-matrix
    mixed = np.array([[[1.0, 1.0], [0.0, 1.0]], [[1.0, 2.0], [0.0, 1.0]]])
    assert oracles.recover_gamma(2, mixed, rep) is None
    # an embedded matrix with integral entries and determinant -1
    det_minus = np.array([np.diag([1.0, -1.0]), np.diag([1.0, -1.0])])
    assert oracles.recover_gamma(2, det_minus, rep) is None


def test_random_gamma_k1_is_bounded_and_unimodular():
    rng = np.random.default_rng(3)
    for _ in range(50):
        g = oracles.random_gamma_k1(rng, 200, 12)
        assert np.abs(g).max() <= 200
        assert round(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]) == 1


def test_omega_sieve_matches_trial_division():
    def omega(n):
        count, p = 0, 2
        while p * p <= n:
            while n % p == 0:
                n //= p
                count += 1
            p += 1
        return count + (1 if n > 1 else 0)

    got = oracles.omega_sieve(3000)
    assert got[0] == 0 and got[1] == 0
    assert [int(v) for v in got[1:]] == [omega(n) for n in range(1, 3001)]


def test_benchmark_json_lists_the_measured_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(specs.CLI_ARGV)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layers.PER_LAYER


def test_merged_length_of_overlapping_child_spans():
    spans = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (9.0, 12.0)]
    assert layers._merged_length(spans, 0.0, 10.0) == pytest.approx(5.0)
