"""Config-driven experiment runners with persistent, versioned records.

A single flat, diffable config format drives every experiment kind; the
same dataclass round-trips bit-identically through text and JSON, and
its hash is embedded in every result record.  Records are JSON lines,
append-only, schema-versioned (a reader accepts the previous version),
with CSV tables and gnuplot-ready data files written next to them.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
import re
import sys
import time
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import observables as ob
from . import presets
from . import quotient as qt
from . import sampling as sp
from . import sieve
from .errors import ConfigError, ToleranceFailure

SCHEMA_VERSION = 1
READABLE_SCHEMA_VERSIONS = {0, 1}
ENV_PREFIX = "HOROLAB_"

KINDS = ("reduce", "orbit", "average", "mixing", "blocks", "sieve",
         "torus", "pipeline", "dichotomy", "report")

DENSE_EVIDENCE_CAVEAT = (
    "dense-evidence is finite-sample evidence for the dense branch, not a proof; "
    "density is not finitely verifiable.")


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    kind: str = "average"
    lattice: str = "modular"
    disc: int = 2
    point: str = "preset:generic1"
    observable: str = "preset:bump1"
    timeset: str = "progression"      # progression | almost | poly | interval | block
    step_k: float = 1.0               # progression gap K
    t_span: float = 1.0e4             # horizon T
    level: int = 10                   # almost-prime level L
    n_max: int = 1_000_000            # integer range N
    gamma_exp: float = 0.1            # polynomial exponent
    m_base: int = 100_000             # block base M
    quadrature_step: float = 0.0      # 0 = derive from observable width
    alpha_exp: float = 1.0 / 9.0      # sieve cut exponent (z = N^alpha)
    epsilon: float = 0.004            # sieve epsilon
    s_target: float = 101.0           # sieve level exponent s = log D / log z
    mode: str = "almost"              # dichotomy mode: almost | poly
    mixing_flow: str = "geodesic"
    t_grid: tuple = (1.0, 2.0, 4.0, 8.0)
    deviation_tolerance: float = 0.0  # > 0 gates averages (ToleranceFailure)
    records_path: str = ""            # input for kind=report
    workers: int = 1
    out_dir: str = ""

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, _typed(f.name, type(f.default), getattr(self, f.name)))
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}; choose from {KINDS}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["t_grid"] = list(self.t_grid)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    def to_text(self) -> str:
        lines = [f"{key} = {json.dumps(val)}" for key, val in sorted(self.to_dict().items())]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(_text_fields(text))

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(file_fields(path))

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:16]


def _typed(name: str, kind: type, value):
    """`value`, or its text, as a `kind` (the type of field `name`'s default).

    An int field takes integral numbers only (`1e6`, not `150.7`); a float
    field takes any number; the tuple field takes a JSON list or `1,2,4,8`;
    a str field keeps its text, unquoting a JSON string.
    """
    try:
        if kind is tuple:
            if isinstance(value, str):
                value = json.loads(value) if value.lstrip().startswith("[") else value.split(",")
            return tuple(_typed(name, float, v) for v in value)
        if kind is str:
            if not isinstance(value, str):
                raise TypeError
            quoted = len(value) > 1 and value[0] == value[-1] == '"'
            return json.loads(value) if quoted else value
        if isinstance(value, bool):
            raise TypeError
        num = float(value)
        if kind is float:
            return num
        if not num.is_integer():
            raise ValueError
        return int(num)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name}: expected {kind.__name__}, got {value!r}") from None


# a double-quoted value (escapes allowed), kept, or a `#` comment, cut
_COMMENT = re.compile(r'("(?:\\.|[^"\\])*")|#.*')


def _text_fields(text: str) -> dict:
    """The `key = value` lines of a text config, values as written."""
    data: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub(lambda m: m.group(1) or "", raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, val = line.split("=", 1)
        data[key.strip()] = val.strip()
    return data


def file_fields(path: str | Path) -> dict:
    """The assignments of a JSON or `key = value` text config file."""
    try:
        text = Path(path).read_text()
        return json.loads(text) if text.lstrip().startswith("{") else _text_fields(text)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"config file {path}: {err}") from None


def env_fields(environ) -> dict:
    """The HOROLAB_<FIELD> assignments in `environ`."""
    names = {ENV_PREFIX + f.name.upper(): f.name for f in fields(ExperimentConfig)}
    return {name: environ[var] for var, name in names.items() if var in environ}


def environment_fingerprint() -> dict:
    """The runtime, kept out of content_id.  Payload bytes can depend on numpy's
    active SIMD dispatch targets, on glibc's libm and on the BLAS build (README
    §Determinism), so all three are named; reading them costs about 0.1 ms.
    platform.platform() is not used: its uname() processor field runs `uname -p`."""
    try:
        config = np.show_config(mode="dicts")  # numpy >= 1.26
    except TypeError:
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
        "numpy_simd": config.get("SIMD Extensions", {}).get("found", []),
        "libc": os.confstr("CS_GNU_LIBC_VERSION")
        if "CS_GNU_LIBC_VERSION" in getattr(os, "confstr_names", {}) else None,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
    }


# ----------------------------------------------------------------------
# result records
# ----------------------------------------------------------------------

@dataclass
class ResultRecord:
    schema_version: int
    kind: str
    config: dict
    config_hash: str
    content_id: str
    created_utc: str
    payload: dict
    exponents: dict = field(default_factory=dict)
    environment: dict = field(default_factory=dict)
    elapsed_s: float = 0.0

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)


def make_record(cfg: ExperimentConfig, payload: dict, exponents: dict | None = None) -> ResultRecord:
    body = json.dumps(payload, sort_keys=True, default=str)
    return ResultRecord(
        schema_version=SCHEMA_VERSION,
        kind=cfg.kind,
        config=cfg.to_dict(),
        config_hash=cfg.config_hash(),
        content_id=hashlib.sha256(body.encode()).hexdigest()[:16],
        created_utc=datetime.now(timezone.utc).isoformat(),
        payload=payload,
        exponents=exponents or {},
        environment=environment_fingerprint(),
    )


def append_record(record: ResultRecord, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "records.jsonl"
    with path.open("a") as fh:
        fh.write(record.to_json() + "\n")
    return path


def load_records(path: str | Path) -> list[ResultRecord]:
    records = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        data = json.loads(line)
        ver = data.get("schema_version")
        if ver not in READABLE_SCHEMA_VERSIONS:
            raise ConfigError(
                f"record line {lineno}: schema version {ver} not readable "
                f"(accepted: {sorted(READABLE_SCHEMA_VERSIONS)})")
        data.setdefault("exponents", {})
        data.setdefault("environment", {})
        data.setdefault("elapsed_s", 0.0)
        records.append(ResultRecord(**data))
    return records


def _write_csv(path: Path, rows: list[dict]):
    if not rows:
        return
    keys = list(rows[0].keys())
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        writer.writerows(rows)


def _write_gnuplot(path: Path, columns: list[str], rows: list[tuple]):
    with path.open("w") as fh:
        fh.write("# " + "  ".join(columns) + "\n")
        for row in rows:
            fh.write("  ".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row) + "\n")


# ----------------------------------------------------------------------
# shared construction helpers
# ----------------------------------------------------------------------

def _resolve_point(cfg: ExperimentConfig) -> qt.QuotientPoint:
    lattice = presets.lattice_from_name(cfg.lattice, cfg.disc)
    return presets.point_from_spec(cfg.point, lattice)


def _resolve_timeset(cfg: ExperimentConfig) -> sp.TimeSet:
    kind = cfg.timeset
    if kind == "progression":
        return sp.Progression(cfg.step_k, cfg.t_span)
    if kind == "almost":
        return sp.AlmostPrimes(cfg.level, cfg.n_max)
    if kind == "poly":
        return sp.PolynomialTimes(cfg.gamma_exp, cfg.n_max)
    if kind == "interval":
        return sp.Interval(cfg.t_span, cfg.quadrature_step or None)
    if kind == "block":
        return sp.Block(cfg.m_base, cfg.gamma_exp)
    raise ConfigError(f"unknown timeset {kind!r}")


# ----------------------------------------------------------------------
# experiment kinds
# ----------------------------------------------------------------------

def _run_reduce(cfg: ExperimentConfig):
    p = _resolve_point(cfg)
    red = qt.reduce_point(p)
    payload = {
        "coords": qt.coordinates(red).tolist(),
        "converged": red.reduced,
        "cusp_height": qt.cusp_height(p),
        "injectivity_radius": qt.injectivity_radius(red),
    }
    return payload, {}, None


def _run_orbit(cfg: ExperimentConfig):
    p = _resolve_point(cfg)
    times = sp.generate(_resolve_timeset(cfg))
    if len(times) == 0:
        raise ConfigError("orbit run needs a nonempty time set")
    cap = 20_000
    stride = max(1, len(times) // cap)
    sampled = times[::stride]
    coords = sp.orbit_coordinates(p, sampled, workers=cfg.workers)
    y = coords[:, 0, 1]
    payload = {
        "samples": int(len(sampled)),
        "height_min": float(y.min()),
        "height_max": float(y.max()),
        "height_mean": float(y.mean()),
    }
    rows = [(float(t),) + tuple(float(v) for v in coords[i].ravel())
            for i, t in enumerate(sampled)]
    cols = ["t"] + [f"{name}{i + 1}" for i in range(p.lattice.k) for name in ("x", "y", "theta")]
    return payload, {}, ("orbit", cols, rows)


def _run_average(cfg: ExperimentConfig):
    p = _resolve_point(cfg)
    f = presets.observable_from_spec(cfg.observable, p.lattice)
    ts = _resolve_timeset(cfg)
    if isinstance(ts, sp.Interval):
        result = sp.horocycle_average(f, p, ts.t_span, step=ts.quadrature_step,
                                      workers=cfg.workers, point_id=cfg.point)
    else:
        result = sp.sparse_average(f, p, ts, workers=cfg.workers, point_id=cfg.point)
    payload = result.as_dict()
    if 0.0 < cfg.deviation_tolerance < result.deviation:
        err = ToleranceFailure(
            f"average deviation {result.deviation:.3e} exceeds tolerance "
            f"{cfg.deviation_tolerance:.3e}")
        err.payload = payload
        raise err
    rows = [(result.sample_count, result.value, result.reference, result.deviation)]
    return payload, {}, ("average", ["samples", "value", "reference", "deviation"], rows)


def _run_mixing(cfg: ExperimentConfig):
    p = _resolve_point(cfg)
    lattice = p.lattice
    if lattice.k != 1:
        raise ConfigError("mixing quadrature runs on the k=1 quotient")
    f = presets.observable_from_spec(cfg.observable, lattice)
    mean = ob.haar_integral_k1(f)
    series = []
    for t in cfg.t_grid:
        raw = sp.correlation(f, f, float(t), flow=cfg.mixing_flow)
        series.append((float(t), abs(raw - mean * mean)))
    fit = sp.decay_fit(series) if len(series) >= 4 else None
    payload = {
        "flow": cfg.mixing_flow,
        "series": [{"t": t, "abs_centered_correlation": c} for t, c in series],
    }
    exponents = {"mixing_slope": fit.slope} if fit else {}
    rows = [(t, c) for t, c in series]
    return payload, exponents, ("mixing", ["t", "abs_centered_correlation"], rows)


def _run_blocks(cfg: ExperimentConfig):
    p = _resolve_point(cfg)
    f = presets.observable_from_spec(cfg.observable, p.lattice)
    pair = sp.block_decompose(cfg.m_base, cfg.gamma_exp)
    err = sp.block_error(cfg.m_base, cfg.gamma_exp)
    taylor = sp.block_taylor_remainder(cfg.m_base, cfg.gamma_exp)
    exact_avg, linear_avg, gap = sp.block_average_compare(
        f, p, cfg.m_base, cfg.gamma_exp, workers=cfg.workers)
    s1 = ob.sobolev_norm(f, 1).value
    payload = {
        "m_base": cfg.m_base,
        "gamma_exp": cfg.gamma_exp,
        "k_max": pair.k_max,
        "block_error": err,
        "taylor_remainder": taylor,
        "exact_average": exact_avg,
        "linear_average": linear_avg,
        "gap": gap,
        "lipschitz_bound": s1 * err,
        "gap_within_bound": gap <= s1 * err,
    }
    rows = [(cfg.m_base, err, gap, s1 * err)]
    return payload, {}, ("blocks", ["M", "block_error", "gap", "bound"], rows)


def _sieve_report_payload(rep: sieve.PipelineReport) -> dict:
    b = rep.bounds
    return {
        "n_max": rep.n_max, "z": rep.z, "level": rep.level,
        "s": b.s, "u_tilde": rep.u_tilde,
        "big_x": b.big_x, "v_z": b.v_z, "total": b.total,
        "remainder": b.remainder, "divisor_count": b.divisor_count,
        "upper": b.upper, "lower": b.lower, "s_exact": b.s_exact,
        "brackets_hold": b.brackets_hold, "admissible": b.admissible,
        "upper_valid": b.upper_valid, "lower_valid": b.lower_valid,
        "omega_sum": rep.omega_sum, "chain_ok": rep.chain_ok,
        "positive": rep.positive, "margin": rep.margin,
        "f0_at_s": rep.f0_at_s,
    }


def _run_sieve(cfg: ExperimentConfig):
    weights = np.ones(cfg.n_max + 1)
    weights[0] = 0.0
    rep = sieve.dynamical_sieve_pipeline(
        weights, cfg.alpha_exp, epsilon=cfg.epsilon, s_target=cfg.s_target)
    payload = _sieve_report_payload(rep)
    rows = [(rep.n_max, rep.z, payload["lower"], payload["s_exact"], payload["upper"])]
    return payload, {}, ("sieve", ["N", "z", "lower", "exact", "upper"], rows)


def _run_torus(cfg: ExperimentConfig):
    p = _resolve_point(cfg)
    rep = qt.torus_orbit_check(p)
    payload = {
        "found": rep.found,
        "torus_dim": rep.torus_dim,
        "commutation_defect": rep.commutation_defect,
        "orbit_height_bound": rep.orbit_height_bound,
        "generators": [g.mats.tolist() for g in rep.generators],
    }
    return payload, {}, None


def _sieve_orbit(cfg: ExperimentConfig, p: qt.QuotientPoint,
                 observables) -> list[sieve.PipelineReport]:
    """One sieve pipeline report per observable f, over the orbit weights
    a(n) = f(u(n) . p) for n = 1..N, with a(0) = 0."""
    return [sieve.dynamical_sieve_pipeline(weights, cfg.alpha_exp, epsilon=cfg.epsilon,
                                           s_target=cfg.s_target)
            for weights in sp.integer_orbit_weights(p, cfg.n_max, observables, cfg.workers)]


def _run_pipeline(cfg: ExperimentConfig):
    p = _resolve_point(cfg)
    f = presets.observable_from_spec(cfg.observable, p.lattice)
    rep, = _sieve_orbit(cfg, p, [f])
    payload = _sieve_report_payload(rep)
    rows = [(rep.n_max, rep.z, payload["lower"], payload["s_exact"], payload["omega_sum"])]
    return payload, {}, ("pipeline", ["N", "z", "lower", "exact", "omega_sum"], rows)


def _run_dichotomy(cfg: ExperimentConfig):
    p = _resolve_point(cfg)
    lattice = p.lattice
    if cfg.mode not in ("almost", "poly"):
        raise ConfigError(f"dichotomy mode must be 'almost' or 'poly', got {cfg.mode!r}")
    probe_mode = "geodesic" if cfg.mode == "almost" else "phi"
    probe = qt.detect_divergence(p, mode=probe_mode, t_max=30.0 if probe_mode == "geodesic" else 1.0e5,
                                 gamma_exp=cfg.gamma_exp)
    payload: dict = {
        "mode": cfg.mode,
        "divergence": {
            "probe": probe_mode,
            "diverges": probe.diverges,
            "first_escape": probe.first_escape,
            "max_height": float(probe.heights.max()),
        },
    }
    if probe.diverges:
        torus = qt.torus_orbit_check(p)
        payload["torus"] = {
            "found": torus.found,
            "torus_dim": torus.torus_dim,
            "orbit_height_bound": torus.orbit_height_bound,
        }
        if not torus.found:
            payload["verdict"] = "inconclusive"
            return payload, {}, None
        # sparse orbit of the exceptional point: bounded, possibly a single class
        if cfg.mode == "almost":
            times = sp.generate(sp.AlmostPrimes(cfg.level, min(cfg.n_max, 100_000)))
        else:
            times = sp.generate(sp.PolynomialTimes(cfg.gamma_exp, 200))
        if len(times) == 0:
            raise ConfigError("the sparse orbit needs a nonempty time set")
        sampled = times[:: max(1, len(times) // 400)]
        base_red, _ = qt.reduce_stack(lattice, p.rep.mats[None])
        moved, _ = qt.reduce_stack(lattice, qt.orbit_mats(p.rep.mats, sampled))
        height_max = float(qt.reduced_heights(lattice, moved).max())
        payload["sparse_orbit"] = {
            "samples": len(sampled),
            "height_max": height_max,
            "bounded": height_max <= qt.HEIGHT_THRESHOLD,
            "single_point_exact": bool(np.all(moved == base_red)),
        }
        payload["verdict"] = "torus-confirmed" if payload["sparse_orbit"]["bounded"] else "inconclusive"
        return payload, {}, None
    # non-divergent: density surrogate
    if cfg.mode == "almost":
        reports = _sieve_orbit(cfg, p, presets.cover_bumps(lattice))
        bump_rows = [{"bump": i, "omega_sum": rep.omega_sum,
                      "lower": rep.bounds.lower, "positive_lower": rep.positive}
                     for i, rep in enumerate(reports)]
        all_positive = all(rep.omega_sum > 0.0 for rep in reports)
        payload["cover"] = bump_rows
        payload["verdict"] = "dense-evidence" if all_positive else "inconclusive"
        payload["caveat"] = DENSE_EVIDENCE_CAVEAT
        rows = [(r["bump"], r["omega_sum"], r["lower"]) for r in bump_rows]
        return payload, {}, ("dichotomy", ["bump", "omega_sum", "lower"], rows)
    # poly mode: block-approximation sweep
    f = presets.observable_from_spec(cfg.observable, lattice)
    gaps = []
    for i in range(4):
        m = cfg.m_base * (4 ** i)
        _, _, gap = sp.block_average_compare(f, p, m, cfg.gamma_exp, workers=cfg.workers)
        gaps.append((m, gap))
    payload["block_sweep"] = [{"M": m, "gap": g} for m, g in gaps]
    decreasing = gaps[-1][1] <= gaps[0][1] + 1e-12
    payload["verdict"] = "dense-evidence" if decreasing else "inconclusive"
    payload["caveat"] = DENSE_EVIDENCE_CAVEAT
    rows = gaps
    return payload, {}, ("dichotomy", ["M", "gap"], rows)


def _config_family_key(rec: ResultRecord) -> tuple:
    cfg = dict(rec.config)
    # scale fields, plus `seed`, which records from before its removal carry
    for dropped in ("t_span", "n_max", "m_base", "timeset", "step_k", "seed"):
        cfg.pop(dropped, None)
    return (rec.kind, json.dumps(cfg, sort_keys=True))


def _run_report(cfg: ExperimentConfig):
    if not cfg.records_path:
        raise ConfigError("report needs records_path pointing at a records.jsonl")
    records = load_records(cfg.records_path)
    if not records:
        raise ConfigError("no records to report on")
    families: dict[tuple, list[ResultRecord]] = {}
    for rec in records:
        families.setdefault(_config_family_key(rec), []).append(rec)
    rows = []
    exponents = {}
    for (kind, _), recs in families.items():
        if kind == "average":
            series = []
            for r in recs:
                sparse = r.config.get("timeset") in ("almost", "poly")
                scale = float(r.config["n_max"] if sparse else r.config["t_span"])
                series.append((scale, float(r.payload["deviation"])))
            if len({s for s, _ in series}) < len(series):
                raise ConfigError(
                    "report: multiple average records at the same scale with "
                    "otherwise identical configs; refusing ambiguous aggregation")
            slope = sp.decay_fit(series).slope if len(series) >= 4 else float("nan")
            exponents[f"decay_slope[{recs[0].config['observable']}]"] = slope
            verdict = "pass" if slope <= -0.1 else ("n/a" if math.isnan(slope) else "fail")
            for (scale, dev), r in zip(series, recs):
                rows.append({"kind": kind, "scale": scale, "deviation": dev,
                             "slope": slope, "pass": verdict,
                             "config_hash": r.config_hash})
        elif kind == "mixing":
            for r in recs:
                slope = r.exponents.get("mixing_slope", float("nan"))
                verdict = "pass" if slope < 0 else ("n/a" if math.isnan(slope) else "fail")
                for pt in r.payload.get("series", []):
                    rows.append({"kind": kind, "scale": pt["t"],
                                 "deviation": pt["abs_centered_correlation"],
                                 "slope": slope, "pass": verdict,
                                 "config_hash": r.config_hash})
        else:
            for r in recs:
                rows.append({"kind": kind, "scale": float("nan"),
                             "deviation": float("nan"), "slope": float("nan"),
                             "pass": "n/a", "config_hash": r.config_hash})
    payload = {"records": len(records), "families": len(families), "rows": rows}
    table = [(r["kind"], r["scale"], r["deviation"], r["slope"], r["pass"]) for r in rows]
    return payload, exponents, ("report", ["kind", "scale", "deviation", "slope", "pass"], table)


_RUNNERS = {
    "reduce": _run_reduce,
    "orbit": _run_orbit,
    "average": _run_average,
    "mixing": _run_mixing,
    "blocks": _run_blocks,
    "sieve": _run_sieve,
    "torus": _run_torus,
    "pipeline": _run_pipeline,
    "dichotomy": _run_dichotomy,
    "report": _run_report,
}


def run(cfg: ExperimentConfig) -> ResultRecord:
    """Execute one experiment and persist its record if out_dir is set.

    Timing lives on the record, not in the payload: payloads from reruns
    of one config must be bit-identical, so they hold no volatile data.
    """
    started = time.perf_counter()
    payload, exponents, table = _RUNNERS[cfg.kind](cfg)
    record = make_record(cfg, payload, exponents)
    record.elapsed_s = time.perf_counter() - started
    if cfg.out_dir:
        out = Path(cfg.out_dir)
        append_record(record, out)
        if table is not None:
            name, cols, rows = table
            _write_csv(out / f"{name}.csv", [dict(zip(cols, r)) for r in rows])
            _write_gnuplot(out / f"{name}.dat", cols, rows)
    return record
