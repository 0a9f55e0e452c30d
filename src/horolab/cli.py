"""Command-line surface: one subcommand per experiment kind.

Precedence for settings, lowest to highest: built-in defaults, --config
file, HOROLAB_* environment variables, tokens and --set, then dedicated
flags; the subcommand sets `kind`.  Every source hands over text or
plain values, which ExperimentConfig reads by field type.
Exit codes: 0 success, 1 malformed config, 2 tolerance failure,
3 budget exhaustion.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .errors import BudgetExhausted, ConfigError, ToleranceFailure
from .sl2 import GroupDomainError
from . import experiments as ex

# short experiment-parameter names accepted as positional "key=value"
# (or "key value") token pairs after a subcommand
TOKEN_ALIASES = {
    "N": "n_max",
    "T": "t_span",
    "K": "step_k",
    "L": "level",
    "M": "m_base",
    "D": "disc",
    "z-exp": "alpha_exp",
    "s": "s_target",
    "gamma": "gamma_exp",
    "eps": "epsilon",
    "mode": "mode",
    "step": "quadrature_step",
}

_FIELD_NAMES = {f.name for f in fields(ex.ExperimentConfig)}


def _parse_tokens(tokens: list[str]) -> dict:
    """Turn ["K=1", "T", "1e4"] into config-field assignments, values as text."""
    out = {}
    queue = list(tokens)
    while queue:
        tok = queue.pop(0)
        if "=" in tok:
            key, val = tok.split("=", 1)
        else:
            if not queue:
                raise ConfigError(f"dangling parameter token {tok!r} (expected a value)")
            key, val = tok, queue.pop(0)
        field_name = TOKEN_ALIASES.get(key, key)
        if field_name not in _FIELD_NAMES:
            raise ConfigError(f"unknown parameter {key!r}")
        out[field_name] = val
    return out


class _Parser(argparse.ArgumentParser):
    """argparse that reports malformed command lines as config errors."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="horolab",
        description="Orbit averages, sieve brackets, and dichotomy experiments "
                    "on products of modular surfaces.")
    sub = parser.add_subparsers(dest="command", required=True)
    kinds = [k for k in ex.KINDS if k != "report"]
    for kind in kinds + ["report", "describe"]:
        p = sub.add_parser(kind)
        p.add_argument("tokens", nargs="*", metavar="PARAM",
                       help="key=value pairs, e.g. N=1e6 T=1e4 K=10")
        p.add_argument("--config", metavar="PATH", help="config file (text or JSON)")
        # flags whose dest is a config field set that field
        p.add_argument("--out", dest="out_dir", metavar="DIR",
                       help="directory for records/CSV/plots")
        p.add_argument("--workers")
        p.add_argument("--tolerance", dest="deviation_tolerance", metavar="X",
                       help="fail (exit 2) if the deviation exceeds this")
        p.add_argument("--lattice", choices=["modular", "hilbert"])
        p.add_argument("--point")
        p.add_argument("--observable")
        p.add_argument("--timeset", choices=["progression", "almost", "poly", "interval", "block"])
        p.add_argument("--set", action="append", default=[], metavar="FIELD=VALUE",
                       help="set any config field directly")
        p.add_argument("--records", dest="records_path", metavar="PATH",
                       help="records.jsonl to aggregate (report)")
    return parser


def config_from_args(args: argparse.Namespace) -> ex.ExperimentConfig:
    """Merge the sources' assignments in precedence order and build the config once."""
    bad = [item for item in args.set if "=" not in item]
    if bad:
        raise ConfigError(f"--set wants FIELD=VALUE, got {bad[0]!r}")
    data = ex.file_fields(args.config) if args.config else {}
    data.update(ex.env_fields(os.environ))
    data.update(_parse_tokens(args.tokens + args.set))
    data.update({k: v for k, v in vars(args).items() if k in _FIELD_NAMES and v is not None})
    data["kind"] = args.command
    return ex.ExperimentConfig.from_dict(data)


def _describe() -> str:
    cfg = ex.ExperimentConfig()
    lines = ["default configuration (override via file, HOROLAB_<FIELD>, or flags):", ""]
    lines += ["  " + line for line in cfg.to_text().splitlines()]
    lines += ["", "experiment kinds: " + ", ".join(ex.KINDS),
              "parameter aliases: " + ", ".join(f"{k}->{v}" for k, v in TOKEN_ALIASES.items())]
    return "\n".join(lines)


def _summarize(record: ex.ResultRecord) -> str:
    pay = record.payload
    head = (f"[{record.kind}] config {record.config_hash} content {record.content_id} "
            f"({record.elapsed_s:.3g} s)")
    lines = [head]
    skip = {"series", "rows", "cover", "generators", "block_sweep", "caveat"}
    for key, val in pay.items():
        if key in skip or isinstance(val, dict):
            continue
        if isinstance(val, float):
            lines.append(f"  {key} = {val:.10g}")
        elif isinstance(val, list):
            if len(val) <= 12 and all(isinstance(v, (int, float)) for v in val):
                lines.append(f"  {key} = [" + ", ".join(f"{v:.10g}" for v in val) + "]")
        else:
            lines.append(f"  {key} = {val}")
    for key, val in pay.items():
        if key in skip and isinstance(val, list) and val and isinstance(val[0], dict):
            lines.append(f"  {key}: {len(val)} entries")
    for key, val in record.exponents.items():
        lines.append(f"  exponent {key} = {val:.6g}")
    if record.kind == "dichotomy":
        div = pay.get("divergence", {})
        lines.append(f"  probe {div.get('probe')}: diverges = {div.get('diverges')}, "
                     f"max height {div.get('max_height', float('nan')):.4g}")
        if "torus" in pay:
            t = pay["torus"]
            lines.append(f"  torus: found = {t['found']}, dim = {t['torus_dim']}")
        if "sparse_orbit" in pay:
            s = pay["sparse_orbit"]
            lines.append(f"  sparse orbit: bounded = {s['bounded']}, "
                         f"single point (exact) = {s['single_point_exact']}")
        if "cover" in pay:
            positives = sum(1 for r in pay["cover"] if r["omega_sum"] > 0)
            lines.append(f"  cover: {positives}/{len(pay['cover'])} bumps with positive "
                         "almost-prime orbit mass")
        if pay.get("verdict") == "dense-evidence":
            lines.append("  note: " + ex.DENSE_EVIDENCE_CAVEAT)
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        bad = [tok for tok in extra if tok.startswith("-") and not tok[1:2].isdigit()]
        if bad:
            parser.error(f"unrecognized arguments: {' '.join(bad)}")
        args.tokens = list(args.tokens) + extra
        if args.command == "describe":
            print(_describe())
            return 0
        cfg = config_from_args(args)
        record = ex.run(cfg)
    except (ConfigError, GroupDomainError) as err:  # each domain error comes from a config value
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except ToleranceFailure as err:
        print(f"tolerance failure: {err}", file=sys.stderr)
        return 2
    except BudgetExhausted as err:
        print(f"budget exhausted: {err}", file=sys.stderr)
        return 3
    print(_summarize(record))
    if cfg.out_dir:
        print(f"records appended under {cfg.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
