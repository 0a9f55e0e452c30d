"""Correctness checks of each workload's output against independent oracles.

Every check is one counted operation; the experiment itself is one more.
Checks whose inputs come from the workload seed must pass on every seed.
Two probes expose program faults and use fixed inputs, so that their
failure counts are the same on every run whatever the seed:

* dichotomy-almost, orbit-node probe: heights of the k = 1 orbit at
  integer times drift from the true orbit once a chunk lies far from its
  anchor checkpoint;
* hilbert-k2, canonicity probe: Gamma-equivalent inputs reduce to
  different representatives that are both flagged converged.

A failed fault probe counts in `failed` but leaves `correct` true; any
other failed check makes `correct` false.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

import oracles
from horolab import presets, quotient, sampling, sieve

# fixed seed of the fault probes' inputs (never the workload seed)
FAULT_PROBE_SEED = 20240826
# relative height error beyond which an orbit node is on the wrong class
NODE_REL_TOL = 1e-3
# agreement required between the program's quadrature reference and the
# independent integral
REFERENCE_REL_TOL = 1e-3
# coordinate gap beyond which two reductions are different representatives
CANONICAL_TOL = 1e-6
# criterion 02's reduction-invariance tolerance (matrix entries)
INVARIANCE_TOL = 1e-9

HORO_NODE_SAMPLES = 200
K1_INVARIANCE_PAIRS = 100
DICHOTOMY_NODE_PROBES = 1000
HILBERT_EQUIV_ROWS = 200
HILBERT_CANON_POINTS = 2000
HILBERT_CANON_GAMMAS = 5
HILBERT_GAMMA_WORD = 8
HILBERT_UNIT_D2 = (1, 1)  # 1 + sqrt(2), the fundamental unit of Z[sqrt 2]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    notes: list = field(default_factory=list)

    def op(self, ok: bool, what: str, fault_probe: bool = False):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not fault_probe:
                self.correct = False
                self.notes.append("FAILED " + what)

    def ops(self, oks, what: str, fault_probe: bool = False):
        oks = [bool(v) for v in oks]
        for ok in oks:
            self.op(ok, what, fault_probe)
        self.notes.append(f"{what}: {len(oks) - sum(oks)}/{len(oks)} failed")

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "correct": self.correct, "notes": self.notes}


def check(workload: str, cfg, record, seed: int) -> Tally:
    tally = Tally()
    tally.op(True, "experiment")  # experiments.run returned a record
    {"horocycle-k1": _check_horocycle,
     "hilbert-k2": _check_hilbert,
     "dichotomy-almost": _check_dichotomy}[workload](cfg, record, seed, tally)
    for line in tally.notes:
        print(f"[{workload}] {line}", file=sys.stderr)
    return tally


# ----------------------------------------------------------------------
# shared probes
# ----------------------------------------------------------------------

def _rel_height_errors(p, times: np.ndarray, coords: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """|program height - 60-digit height| / 60-digit height at nodes idx."""
    rep = p.rep.mats[0]
    exact = np.array([oracles.gauss_height(rep, times[i]) for i in idx])
    return np.abs(coords[idx, 0, 1] - exact) / exact


def _k1_invariance(rng: np.random.Generator, tally: Tally):
    """reduce(gamma . g) = reduce(g) for seeded points g and SL2(Z) words gamma."""
    lat = quotient.ModularLattice()
    n = K1_INVARIANCE_PAIRS
    coords = np.stack([rng.uniform(-3.0, 3.0, n), np.exp(rng.uniform(-3.0, 1.5, n)),
                       rng.uniform(0.0, math.pi, n)], axis=1)[:, None, :]
    pts = quotient.mats_from_coords(coords)
    gammas = np.stack([oracles.random_gamma_k1(rng, 200, 12) for _ in range(n)])[:, None]
    moved = np.einsum("nkab,nkbc->nkac", gammas, pts)
    red_p, conv_p = quotient.reduce_stack(lat, pts)
    red_m, conv_m = quotient.reduce_stack(lat, moved)
    gap = np.abs(red_p - red_m).reshape(n, -1).max(axis=1)
    tally.ops(conv_p & conv_m & (gap <= INVARIANCE_TOL), "k=1 reduction invariance")


# ----------------------------------------------------------------------
# horocycle-k1
# ----------------------------------------------------------------------

def _check_horocycle(cfg, record, seed, tally):
    pay = record.payload
    p = presets.point_from_spec(cfg.point, presets.lattice_from_name(cfg.lattice, cfg.disc))
    f = presets.observable_from_spec(cfg.observable, p.lattice)
    exact = oracles.bump_integral_k1(f.center[0], f.widths[0], f.amplitude)
    t_span = cfg.t_span
    tally.op(abs(pay["reference"] - exact) <= REFERENCE_REL_TOL * exact,
             f"reference {pay['reference']:.10g} vs invariant integral {exact:.10g}")
    # equidistribution rate T^{-1/2} log T with the mean as constant (README)
    bound = exact * math.log(t_span) / math.sqrt(t_span)
    tally.op(abs(pay["value"] - exact) <= bound,
             f"|value - integral| = {abs(pay['value'] - exact):.3e} within {bound:.3e}")
    # orbit nodes: rebuild the quadrature nodes the run reports, walk them
    # with the program's orbit driver and compare heights at seeded nodes
    step = float(re.search(r"quadrature_step=([0-9.e+-]+)", pay["timeset"]).group(1))
    nodes = sampling.generate(sampling.Interval(t_span, step))
    tally.op(len(nodes) == pay["sample_count"], "node count matches sample_count")
    coords = sampling.orbit_coordinates(p, nodes, workers=cfg.workers)
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(nodes), HORO_NODE_SAMPLES, replace=False)
    rel = _rel_height_errors(p, nodes, coords, idx)
    tally.ops(rel <= NODE_REL_TOL, f"orbit-node heights (max rel err {rel.max():.1e})")
    _k1_invariance(rng, tally)


# ----------------------------------------------------------------------
# hilbert-k2
# ----------------------------------------------------------------------

def _check_hilbert(cfg, record, seed, tally):
    pay = record.payload
    lat = presets.lattice_from_name(cfg.lattice, cfg.disc)
    p = presets.point_from_spec(cfg.point, lat)
    f = presets.observable_from_spec(cfg.observable, lat)
    if not isinstance(lat, quotient.HilbertLattice):
        raise RuntimeError(f"hilbert-k2 resolved to lattice {lat!r}")
    tally.op(pay["sample_count"] == cfg.n_max, "sample_count equals N")
    tally.op(0.0 <= pay["value"] <= f.amplitude, f"0 <= value {pay['value']:.6g} <= amplitude")
    # Gamma-equivalence of reduced orbit rows, checked in exact integers
    times = sampling.generate(sampling.PolynomialTimes(cfg.gamma_exp, cfg.n_max))
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(len(times), HILBERT_EQUIV_ROWS, replace=False))
    given = np.broadcast_to(p.rep.mats, (len(idx), 2, 2, 2)).copy()
    given[:, 0, 0, 1] -= times[idx] * given[:, 0, 0, 0]   # rep * u(-t), first factor
    given[:, 0, 1, 1] -= times[idx] * given[:, 0, 1, 0]
    red, _ = quotient.reduce_stack(lat, given)
    tally.ops([oracles.recover_gamma(lat.disc, red[i], given[i]) is not None
               for i in range(len(idx))], "Gamma-equivalence of reduced orbit rows")
    _hilbert_canonicity(lat, tally)


def _iwasawa(stack: np.ndarray) -> np.ndarray:
    """(N, k*3) coordinates (x, y, theta mod pi) per factor.

    Computed here, not by quotient.iwasawa_coords, so that the comparison
    does not run through the code it checks.
    """
    cols = []
    for j in range(stack.shape[1]):
        a, b = stack[:, j, 0, 0], stack[:, j, 0, 1]
        c, d = stack[:, j, 1, 0], stack[:, j, 1, 1]
        den = c * c + d * d
        cols += [(a * c + b * d) / den, (a * d - b * c) / den,
                 np.mod(np.arctan2(c, d), math.pi)]
    return np.stack(cols, axis=1)


def _hilbert_canonicity(lat, tally):
    """Fault probe: reduce(gamma . g) against reduce(g) on fixed pairs.

    A pair fails when the two reductions differ and both are flagged
    converged; an honest unconverged flag does not count as a failure.
    """
    if lat.disc != 2:
        raise RuntimeError("the canonicity probe's words use the D = 2 unit")
    rng = np.random.default_rng(FAULT_PROBE_SEED)
    n, per = HILBERT_CANON_POINTS, HILBERT_CANON_GAMMAS
    coords = np.stack([
        np.stack([rng.uniform(-1.0, 1.0, n), rng.uniform(0.3, 3.0, n),
                  rng.uniform(0.0, math.pi, n)], axis=1)
        for _ in range(2)], axis=1)
    base = np.repeat(quotient.mats_from_coords(coords), per, axis=0)
    gammas = np.stack([oracles.embed_gamma(2, oracles.random_gamma_k2(
        rng, 2, HILBERT_UNIT_D2, HILBERT_GAMMA_WORD)) for _ in range(n * per)])
    moved = np.einsum("nkab,nkbc->nkac", gammas, base)
    red_b, conv_b = quotient.reduce_stack(lat, base)
    red_m, conv_m = quotient.reduce_stack(lat, moved)
    gap = np.abs(_iwasawa(red_b) - _iwasawa(red_m))
    gap[:, 2::3] = np.minimum(gap[:, 2::3], math.pi - gap[:, 2::3])
    dishonest = (gap.max(axis=1) > CANONICAL_TOL) & conv_b & conv_m
    tally.ops(~dishonest, "k=2 canonicity probe (fixed pairs)", fault_probe=True)


# ----------------------------------------------------------------------
# dichotomy-almost
# ----------------------------------------------------------------------

def _check_dichotomy(cfg, record, seed, tally):
    pay = record.payload
    p = presets.point_from_spec(cfg.point, presets.lattice_from_name(cfg.lattice, cfg.disc))
    tally.op(pay.get("verdict") == "dense-evidence", f"verdict {pay.get('verdict')!r}")
    cover = pay.get("cover", [])
    tally.op(len(cover) == len(presets.cover_bumps(p.lattice)), "one cover row per bump")
    for row in cover:
        tally.op(row["omega_sum"] > 0.0 and row["lower"] <= row["omega_sum"],
                 f"cover bump {row['bump']}: omega_sum > 0 and lower <= omega_sum")
    table = sieve.build_factor_table(cfg.n_max)
    tally.op(np.array_equal(table.omega_all()[1:], oracles.omega_sieve(cfg.n_max)[1:]),
             "FactorTable.omega_all equals the prime-power sieve")
    _k1_invariance(np.random.default_rng(seed), tally)
    # fault probe: fixed integer times, walked exactly as the run walks them
    times = np.arange(1, cfg.n_max + 1, dtype=float)
    coords = sampling.orbit_coordinates(p, times, workers=cfg.workers)
    idx = np.random.default_rng(FAULT_PROBE_SEED).choice(
        len(times), DICHOTOMY_NODE_PROBES, replace=False)
    rel = _rel_height_errors(p, times, coords, idx)
    tally.ops(rel <= NODE_REL_TOL, "k=1 integer-time orbit-node probe (fixed nodes)",
              fault_probe=True)
