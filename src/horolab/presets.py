"""Named basepoints and observables used by experiments and tests.

Provenance of the point presets:

* ``generic1`` — the frame over the geodesic aimed at the golden ratio,
  the classical worst-approximable number.  Its forward diagonal orbit
  stays in a fixed compact part (continued fraction all ones), and its
  horocycle orbit is non-periodic, so it exemplifies the dense branch
  of every dichotomy experiment and is the standard "generic" basepoint.
* ``cusp`` — the identity class.  Its horocycle orbit is the period-one
  closed horocycle, its diagonal push climbs the cusp at exactly e^t,
  and the full integer stabiliser makes it the exceptional exemplar:
  integer-time sparse orbits collapse to a single point.
* ``quadratic`` — same construction as generic1 with endpoint sqrt(2);
  a second badly-approximable exemplar used to cross-check that the
  behaviour of generic1 is typical and not golden-ratio numerology.
* ``hilbert-identity`` — the identity class of the D=2 Hilbert quotient;
  carries a rank-2 lattice of commuting integer-translation stabilisers
  (1 and sqrt(2)), the higher-rank exceptional exemplar.
"""

from __future__ import annotations

import math

import numpy as np

from . import quotient as qt
from . import sl2
from .errors import ConfigError
from .observables import BumpFunction, ConstantObservable, box_in_domain_k1
from .quotient import HilbertLattice, Lattice, ModularLattice, QuotientPoint

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _endpoint_frame(x: float) -> sl2.GroupElement:
    """A unimodular frame whose boundary-forward direction is x (!= 0, oo)."""
    return sl2.GroupElement([[x, x - 1.0], [1.0, 1.0]])


def _numbers(text: str, spec: str) -> list[float]:
    """The comma-separated numbers of one field of spec."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"spec {spec!r} wants comma-separated numbers, got {text!r}") from None


def lattice_from_name(name: str, disc: int = 2) -> Lattice:
    """The named lattice.  A Hilbert D is refused when its fundamental unit has
    a coefficient of at least 2^53, past which its float embedding is no longer
    that unit (D = 379 is the first), checked in exact integers."""
    if name == "modular":
        return ModularLattice()
    if name == "hilbert":
        lattice = HilbertLattice(disc)
        bits = max(abs(c).bit_length() for c in lattice.unit_pair[0])
        if bits > 53:
            raise ConfigError(f"D = {disc}: the fundamental unit has a {bits}-bit coefficient; "
                              "the k = 2 reduction needs one below 2^53")
        return lattice
    raise ConfigError(f"unknown lattice {name!r} (want modular or hilbert)")


def point_preset(name: str) -> QuotientPoint:
    if name == "generic1":
        return QuotientPoint(ModularLattice(), _endpoint_frame(GOLDEN))
    if name == "cusp":
        return qt.identity_coset(ModularLattice())
    if name == "quadratic":
        return QuotientPoint(ModularLattice(), _endpoint_frame(math.sqrt(2.0)))
    if name == "hilbert-identity":
        return qt.identity_coset(HilbertLattice(2))
    raise ConfigError(f"unknown point preset {name!r}")


def point_from_spec(spec: str, lattice: Lattice) -> QuotientPoint:
    """Resolve a point spec: preset:NAME | identity | coords:x,y,theta | matrix:...

    Presets carry their own lattice, which must be `lattice`; the other
    forms live on `lattice`.
    """
    if spec.startswith("preset:"):
        p = point_preset(spec.split(":", 1)[1])
        if p.lattice != lattice:
            raise ConfigError(f"point {spec} lives on {p.lattice.label()}, "
                              f"not on the requested {lattice.label()}")
        return p
    if spec == "identity":
        return qt.identity_coset(lattice)
    if spec.startswith("coords:"):
        vals = _numbers(spec.split(":", 1)[1], spec)
        if len(vals) != 3 * lattice.k:
            raise ConfigError(f"coords spec wants {3 * lattice.k} numbers, got {len(vals)}")
        coords = np.array(vals).reshape(lattice.k, 3)
        if np.any(coords[:, 1] <= 0):
            raise ConfigError("coords spec needs positive heights")
        return QuotientPoint(lattice, sl2.GroupElement(qt.mats_from_coords(coords[None])[0]))
    if spec.startswith("matrix:"):
        blocks = spec.split(":", 1)[1].split(";")
        if len(blocks) != lattice.k:
            raise ConfigError(f"matrix spec wants {lattice.k} factor blocks")
        mats = []
        for blk in blocks:
            vals = _numbers(blk, spec)
            if len(vals) != 4:
                raise ConfigError("each matrix block wants 4 entries a,b,c,d")
            mats.append([[vals[0], vals[1]], [vals[2], vals[3]]])
        g = sl2.GroupElement(np.array(mats))
        if g.det_drift() > 1e-9:
            raise ConfigError("matrix spec is not unimodular")
        return QuotientPoint(lattice, g)
    raise ConfigError(f"unknown point spec {spec!r}")


# ----------------------------------------------------------------------
# observables
# ----------------------------------------------------------------------

def bump_preset(lattice: Lattice) -> BumpFunction:
    """The standard test bump frozen for trend experiments.

    Chosen away from the fundamental-domain edges with moderate widths;
    its long-horizon average deviations decay cleanly from every
    badly-approximable basepoint, which is what the trend criteria
    measure.
    """
    if lattice.k == 1:
        return BumpFunction(lattice, [[-0.15, 1.45, 1.9]], [[0.2, 0.35, 0.5]])
    center = [[0.05, 1.55, 0.7], [-0.1, 1.5, 2.1]]
    widths = [[0.3, 0.4, 0.6], [0.3, 0.4, 0.6]]
    return BumpFunction(lattice, center, widths)


def cover_bumps(lattice: Lattice) -> list[BumpFunction]:
    """Ten bumps whose supports cover a compact part of the k=1 domain.

    Three rows in height, three frame-angle phases per row, plus one
    filler; every bump keeps its support inside |x| < 1/2 and above the
    unit circle.
    """
    if lattice.k != 1:
        raise ConfigError("the bump cover is defined for the k=1 quotient")
    layout = [
        (-0.28, 1.35, 0.30, 0.6), (0.00, 1.35, 0.30, 1.6), (0.28, 1.35, 0.30, 2.6),
        (-0.28, 1.80, 0.40, 2.4), (0.00, 1.80, 0.40, 0.4), (0.28, 1.80, 0.40, 1.4),
        (-0.28, 2.45, 0.55, 1.0), (0.00, 2.45, 0.55, 2.0), (0.28, 2.45, 0.55, 3.0),
        (0.00, 1.60, 0.35, 2.9),
    ]
    return [
        BumpFunction(lattice, [[cx, cy, ct]], [[0.20, wy, 0.7]])
        for cx, cy, wy, ct in layout
    ]


def observable_from_spec(spec: str, lattice: Lattice):
    """Resolve an observable spec: preset:bump1 | constant:c | bump:... ."""
    if spec in ("preset:bump1", "bump1"):
        return bump_preset(lattice)
    if spec.startswith("constant:"):
        vals = _numbers(spec.split(":", 1)[1], spec)
        if len(vals) != 1:
            raise ConfigError(f"constant spec wants one number, got {len(vals)}")
        return ConstantObservable(lattice, vals[0])
    if spec.startswith("bump:"):
        vals = _numbers(spec.split(":", 1)[1], spec)
        per = 6 * lattice.k
        if len(vals) not in (per, per + 1):
            raise ConfigError(
                f"bump spec wants {per} numbers (+ optional amplitude), got {len(vals)}")
        amp = vals[per] if len(vals) == per + 1 else 1.0
        arr = np.array(vals[:per]).reshape(lattice.k, 6)
        f = BumpFunction(lattice, arr[:, :3], arr[:, 3:], amplitude=amp)
        # a box across |x| = 1/2 or the unit circle is not a function on the
        # quotient; BumpFunction itself refuses a theta width above pi/2
        if lattice.k == 1 and not box_in_domain_k1(f):
            raise ConfigError(f"bump spec {spec!r} leaves the fundamental domain: "
                              "want |cx| + wx <= 1/2 and cy - wy >= 1")
        return f
    raise ConfigError(f"unknown observable spec {spec!r}")
