"""Group layer: one-parameter subgroups, exp/log, metric, stability."""

import math

import numpy as np
import pytest

from horolab import sl2
from horolab.sl2 import GroupDomainError


def mats_close(g, h, tol=1e-12):
    return np.max(np.abs(g.mats - h.mats)) <= tol


def gaps(pairs) -> np.ndarray:
    """(N,k,2,2) stack of g^{-1} h for the pairs (g, h)."""
    return np.array([sl2.compose(sl2.inverse(g), h).mats for g, h in pairs])


class TestOneParameterSubgroups:
    def test_identity_is_neutral(self, rng):
        g = sl2.random_element(rng)
        e = sl2.identity(1)
        assert mats_close(sl2.compose(e, g), g, 0.0)
        assert mats_close(sl2.compose(g, e), g, 0.0)

    def test_u_additivity(self):
        assert mats_close(sl2.compose(sl2.unipotent_u(2.0), sl2.unipotent_u(3.0)),
                          sl2.unipotent_u(5.0), 0.0)

    def test_u_convention(self):
        m = sl2.unipotent_u(1.0).mats[0]
        assert np.array_equal(m, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_u_zero_and_inverse(self):
        assert mats_close(sl2.unipotent_u(0.0), sl2.identity(1), 0.0)
        t = 1.7
        assert mats_close(sl2.inverse(sl2.unipotent_u(t)), sl2.unipotent_u(-t), 1e-15)

    def test_u_large_argument(self):
        big = sl2.unipotent_u(1.0e6)
        half = sl2.unipotent_u(5.0e5)
        comp = sl2.compose(half, half)
        rel = np.max(np.abs(comp.mats - big.mats) / np.maximum(np.abs(big.mats), 1.0))
        assert rel <= 1e-12

    def test_a_additivity_and_inverse(self):
        assert mats_close(sl2.diagonal_a(0.0), sl2.identity(1), 0.0)
        lhs = sl2.compose(sl2.diagonal_a(0.9), sl2.diagonal_a(-2.1))
        assert mats_close(lhs, sl2.diagonal_a(-1.2), 1e-14)
        assert mats_close(sl2.inverse(sl2.diagonal_a(3.0)), sl2.diagonal_a(-3.0), 1e-14)

    def test_a_overflow_guard(self):
        with pytest.raises(GroupDomainError):
            sl2.diagonal_a(1500.0)
        with pytest.raises(GroupDomainError):
            sl2.diagonal_a(-1500.0)

    def test_commutation_at_log2(self):
        # a(ln 2) u(1) a(-ln 2) doubles the unipotent parameter
        t = math.log(2.0)
        w = sl2.compose(sl2.diagonal_a(t),
                        sl2.compose(sl2.unipotent_u(1.0), sl2.diagonal_a(-t)))
        assert mats_close(w, sl2.unipotent_u(2.0), 1e-14)

    def test_compose_inverse_is_identity(self, rng):
        for _ in range(50):
            g = sl2.random_element(rng, k=2)
            w = sl2.compose(g, sl2.inverse(g))
            assert mats_close(w, sl2.identity(2), 1e-12)

    def test_multifactor_embedding(self):
        g = sl2.unipotent_u(2.5, k=3)
        assert np.array_equal(g.mats[1], np.eye(2))
        assert np.array_equal(g.mats[2], np.eye(2))
        assert g.mats[0][0, 1] == 2.5


class TestLieAlgebra:
    # basis: X = [[0,1],[0,0]], Y = [[0,0],[1,0]], Z = diag(1,-1)
    X = np.array([[0.0, 1.0], [0.0, 0.0]])
    Y = np.array([[0.0, 0.0], [1.0, 0.0]])
    Z = np.array([[1.0, 0.0], [0.0, -1.0]])

    @staticmethod
    def to_coords(m):
        return np.array([m[0, 1], m[1, 0], m[0, 0]])

    def test_bracket_table_exact(self):
        def bracket(a, b):
            return a @ b - b @ a
        assert np.array_equal(self.to_coords(bracket(self.Z, self.X)), [2.0, 0.0, 0.0])
        assert np.array_equal(self.to_coords(bracket(self.Z, self.Y)), [0.0, -2.0, 0.0])
        assert np.array_equal(self.to_coords(bracket(self.X, self.Y)), [0.0, 0.0, 1.0])

    def test_exp_zero(self):
        x = sl2.LieAlgebraElement(np.zeros((1, 3)))
        assert mats_close(sl2.exp_map(x), sl2.identity(1), 0.0)

    def test_exp_of_x_direction_is_unipotent(self):
        x = sl2.LieAlgebraElement(np.array([[0.37, 0.0, 0.0]]))
        assert mats_close(sl2.exp_map(x), sl2.unipotent_u(0.37), 1e-15)

    def test_log_exp_round_trip_pinned(self):
        x = sl2.LieAlgebraElement(np.array([[0.0, 0.1, 0.2]]))
        back = sl2.log_map(sl2.exp_map(x))
        assert np.max(np.abs(back.coords - x.coords)) <= 1e-9

    def test_exp_log_round_trip_random(self, rng):
        for _ in range(200):
            coords = rng.uniform(-0.15, 0.15, size=(2, 3))
            g = sl2.exp_map(sl2.LieAlgebraElement(coords))
            back = sl2.exp_map(sl2.log_map(g))
            assert mats_close(back, g, 1e-9)

    def test_log_out_of_branch(self):
        with pytest.raises(GroupDomainError):
            sl2.log_map(sl2.diagonal_a(4.0))


class TestMetric:
    """The displacement kernel on g^{-1} h stacks: the distance between g and h."""

    def test_self_distance_zero(self, rng):
        g = sl2.random_element(rng)
        assert sl2.displacement_from_identity_batch(gaps([(g, g)]))[0] <= 1e-12

    def test_unipotent_distance_increasing(self):
        ts = np.linspace(0.0, 0.4, 17)
        ds = sl2.displacement_from_identity_batch(sl2.au_stack(np.zeros(17), ts, 1))
        assert np.all(np.diff(ds) > 0)

    def test_left_invariance(self, rng):
        for _ in range(25):
            g = sl2.random_element(rng)
            x = sl2.random_element(rng, scale=0.1)
            y = sl2.random_element(rng, scale=0.1)
            d0, d1 = sl2.displacement_from_identity_batch(
                gaps([(x, y), (sl2.compose(g, x), sl2.compose(g, y))]))
            assert abs(d0 - d1) <= 1e-9 * max(1.0, d0)

    def test_symmetry(self, rng):
        for _ in range(25):
            g = sl2.random_element(rng, k=2, scale=0.2)
            h = sl2.random_element(rng, k=2, scale=0.2)
            d0, d1 = sl2.displacement_from_identity_batch(gaps([(g, h), (h, g)]))
            assert abs(d0 - d1) <= 1e-12
