"""Exact-shape numerics for products of SL(2,R) and its Lie algebra.

A group element is a stack of k unimodular 2x2 real matrices, one per
factor.  The one-parameter subgroups used everywhere else are

    u(t) = [[1, t], [0, 1]]   (horocycle direction, first factor)
    a(t) = diag(e^{t/2}, e^{-t/2})   (diagonal direction, first factor)

so that a(t) u(s) a(-t) = u(e^t s): the expansion rate of the diagonal
flow on the horocycle direction equals 1 with these parametrisations.

Lie-algebra elements are stored as (k, 3) coordinate arrays against the
basis

    X = [[0, 1], [0, 0]],  Y = [[0, 0], [1, 0]],  Z = [[1, 0], [0, -1]]

which satisfies [Z, X] = 2X, [Z, Y] = -2Y, [X, Y] = Z.  The norm on the
algebra is the Euclidean norm of the concatenated (X, Y, Z) coordinates
over all factors.
"""

from __future__ import annotations

import numpy as np

# Branch radius for the principal matrix logarithm (per factor, in the
# fallback metric below).
LOG_BRANCH_RADIUS = 0.5
# Parameter guard for diagonal_a: e^(700) overflows float64.
A_PARAM_MAX = 1400.0

BASIS_X = np.array([[0.0, 1.0], [0.0, 0.0]])
BASIS_Y = np.array([[0.0, 0.0], [1.0, 0.0]])
BASIS_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


class GroupDomainError(ValueError):
    """Raised when an operand leaves the domain of a group-core operation."""


class GroupElement:
    """A point of the k-fold product of SL(2,R).

    Wraps a (k, 2, 2) float array.  Stacks are never reshaped in place;
    all operations return fresh elements.
    """

    __slots__ = ("mats",)

    def __init__(self, mats):
        arr = np.asarray(mats, dtype=float)
        if arr.ndim == 2:
            arr = arr[None, :, :]
        if arr.ndim != 3 or arr.shape[1:] != (2, 2):
            raise GroupDomainError(f"expected (k,2,2) matrix stack, got shape {arr.shape}")
        self.mats = arr

    @property
    def k(self) -> int:
        return self.mats.shape[0]

    def factor(self, i: int) -> np.ndarray:
        return self.mats[i]

    def det(self) -> np.ndarray:
        """Per-factor determinants."""
        m = self.mats
        return m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]

    def det_drift(self) -> float:
        return float(np.max(np.abs(self.det() - 1.0)))

    def __repr__(self):
        return f"GroupElement(k={self.k}, mats={self.mats.tolist()})"


class LieAlgebraElement:
    """(k, 3) coordinates against (X, Y, Z) per factor."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        arr = np.asarray(coords, dtype=float)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise GroupDomainError(f"expected (k,3) coordinates, got shape {arr.shape}")
        self.coords = arr

    @property
    def k(self) -> int:
        return self.coords.shape[0]

    def matrices(self) -> np.ndarray:
        """(k,2,2) matrix stack a*X + b*Y + c*Z per factor."""
        a = self.coords[:, 0]
        b = self.coords[:, 1]
        c = self.coords[:, 2]
        out = np.zeros((self.k, 2, 2))
        out[:, 0, 0] = c
        out[:, 0, 1] = a
        out[:, 1, 0] = b
        out[:, 1, 1] = -c
        return out

    def __repr__(self):
        return f"LieAlgebraElement({self.coords.tolist()})"


def identity(k: int = 1) -> GroupElement:
    out = np.zeros((k, 2, 2))
    out[:, 0, 0] = 1.0
    out[:, 1, 1] = 1.0
    return GroupElement(out)


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """Factor-wise matrix product g*h."""
    if g.k != h.k:
        raise GroupDomainError(f"factor mismatch: {g.k} vs {h.k}")
    return GroupElement(np.matmul(g.mats, h.mats))


def inverse(g):
    """Adjugate inverse; exact for det = 1 factors.

    Takes a GroupElement or any (..., 2, 2) array and returns the same kind.
    """
    m = g.mats if isinstance(g, GroupElement) else g
    out = np.empty_like(m)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    out[..., 1, 1] = m[..., 0, 0]
    return GroupElement(out) if isinstance(g, GroupElement) else out


def au_stack(tau, shear, k: int) -> np.ndarray:
    """(N,k,2,2) stack of a(tau) u(shear) in the first factor, identity elsewhere.

    The first factor is [[e^{tau/2}, e^{tau/2} shear], [0, e^{-tau/2}]]:
    every entry has the bytes of the matrix product a(tau) u(shear).
    """
    tau = np.asarray(tau, dtype=float)
    over = np.abs(tau) > A_PARAM_MAX
    if over.any():
        raise GroupDomainError(
            f"diagonal_a parameter {tau[over][0]} exceeds overflow guard {A_PARAM_MAX}")
    out = np.broadcast_to(np.eye(2), (len(tau), k, 2, 2)).copy()
    out[:, 0, 0, 0] = np.exp(0.5 * tau)
    out[:, 0, 1, 1] = np.exp(-0.5 * tau)
    out[:, 0, 0, 1] = out[:, 0, 0, 0] * shear
    return out


def unipotent_u(t: float, k: int = 1) -> GroupElement:
    """u(t) in the first factor, identity elsewhere."""
    return GroupElement(au_stack([0.0], [t], k)[0])


def diagonal_a(t: float, k: int = 1) -> GroupElement:
    """a(t) = diag(e^{t/2}, e^{-t/2}) in the first factor."""
    return GroupElement(au_stack([t], [0.0], k)[0])


def adjoint(g: GroupElement, x: LieAlgebraElement) -> LieAlgebraElement:
    """Ad(g) x = g x g^{-1}, factor-wise, back in (X,Y,Z) coordinates."""
    if g.k != x.k:
        raise GroupDomainError(f"factor mismatch: {g.k} vs {x.k}")
    conj = np.matmul(np.matmul(g.mats, x.matrices()), inverse(g).mats)
    out = np.empty((g.k, 3))
    out[:, 0] = conj[:, 0, 1]
    out[:, 1] = conj[:, 1, 0]
    out[:, 2] = conj[:, 0, 0]
    return LieAlgebraElement(out)


def _exp_2x2(m: np.ndarray) -> np.ndarray:
    """exp of a stack of traceless 2x2 matrices via the q = -det branch."""
    q = m[:, 0, 0] ** 2 + m[:, 0, 1] * m[:, 1, 0]  # = -det(m) for traceless m
    c = np.empty_like(q)
    r = np.empty_like(q)
    small = np.abs(q) < 1e-12
    qs = q[small]
    c[small] = 1.0 + qs / 2.0 + qs * qs / 24.0
    r[small] = 1.0 + qs / 6.0 + qs * qs / 120.0
    pos = (~small) & (q > 0)
    lam = np.sqrt(q[pos])
    c[pos] = np.cosh(lam)
    r[pos] = np.sinh(lam) / lam
    neg = (~small) & (q < 0)
    om = np.sqrt(-q[neg])
    c[neg] = np.cos(om)
    r[neg] = np.sin(om) / om
    eye = np.eye(2)[None, :, :]
    return c[:, None, None] * eye + r[:, None, None] * m


def exp_map(x: LieAlgebraElement) -> GroupElement:
    return GroupElement(_exp_2x2(x.matrices()))


def _branch(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per 2x2 factor of a (..., 2, 2) array: the proxy 2 asinh(|w - I|_F / 2)
    and the mask of factors inside the principal-log branch radius."""
    diff = mats - np.eye(2)
    proxy = 2.0 * np.arcsinh(0.5 * np.sqrt(np.sum(diff * diff, axis=(-2, -1))))
    return proxy, proxy <= LOG_BRANCH_RADIUS + 1e-12


def _log_2x2(m: np.ndarray) -> np.ndarray:
    """Principal logarithm of a (M,2,2) stack of in-branch factors, as matrices."""
    half_tr = 0.5 * (m[:, 0, 0] + m[:, 1, 1])
    q = half_tr * half_tr - 1.0  # = lambda^2 (hyperbolic) resp. -omega^2 (elliptic)
    ratio = np.empty_like(q)
    small = np.abs(q) < 1e-10
    qs = q[small]
    ratio[small] = 1.0 - qs / 6.0 + 7.0 * qs * qs / 360.0
    pos = (~small) & (q > 0)
    ratio[pos] = np.arccosh(half_tr[pos]) / np.sqrt(q[pos])
    neg = (~small) & (q < 0)
    ratio[neg] = np.arccos(half_tr[neg]) / np.sqrt(-q[neg])
    return ratio[:, None, None] * (m - half_tr[:, None, None] * np.eye(2)[None, :, :])


def log_map(g: GroupElement) -> LieAlgebraElement:
    """Principal logarithm; domain = each factor within 0.5 of identity."""
    if not np.all(_branch(g.mats)[1]):
        raise GroupDomainError("log_map operand outside the principal branch radius 0.5")
    lg = _log_2x2(g.mats)
    return LieAlgebraElement(np.stack([lg[:, 0, 1], lg[:, 1, 0], lg[:, 0, 0]], axis=1))


def displacement_from_identity_batch(stack: np.ndarray) -> np.ndarray:
    """Displacement from the identity of each element of a (N,k,2,2) stack.

    |log w| (the norm of the concatenated per-factor logs) when every
    factor of w is in branch, else the sum of the per-factor proxies
    2 asinh(|w - I|_F / 2).  Symmetric under w -> w^{-1} and vanishing
    exactly at w == I.
    """
    proxy, in_branch = _branch(stack)
    log_norm = np.zeros(proxy.shape)
    if np.any(in_branch):
        lg = _log_2x2(stack[in_branch])
        log_norm[in_branch] = np.sqrt(lg[:, 0, 1] ** 2 + lg[:, 1, 0] ** 2 + lg[:, 0, 0] ** 2)
    return np.where(in_branch.all(axis=1),
                    np.sqrt(np.sum(log_norm * log_norm, axis=1)),
                    np.sum(proxy, axis=1))


def distance(g: GroupElement, h: GroupElement) -> float:
    """Displacement of g^{-1} h from the identity: one row of the batch kernel.

    Only comparability with the genuine left-invariant metric is relied
    on elsewhere.
    """
    return float(displacement_from_identity_batch(compose(inverse(g), h).mats[None])[0])


def random_element(rng: np.random.Generator, k: int = 1, scale: float = 0.5) -> GroupElement:
    """Random element: exp of a Gaussian algebra element, one per factor."""
    coords = rng.normal(0.0, scale, size=(k, 3))
    return exp_map(LieAlgebraElement(coords))
