"""Smoke test of the benchmark's layer tracer against the current program.

perfbench/layers.py wraps horolab functions by name and reads counts from
their arguments, so a renamed or re-signed boundary can break a traced
run without breaking an untraced one.  The tracer is loaded from its
source without writing bytecode next to it.
"""

import sys
import types
from pathlib import Path

from horolab import cli, experiments

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

# boundaries the tracer still names but the program no longer has
KNOWN_MISSING = {
    "horolab.quotient._stack_displacement",
    "horolab.sampling._orbit_values",
    "horolab.sieve.omega_count",
}

RUNS = [
    ["dichotomy", "mode=almost", "--point", "preset:generic1", "N=2e4"],
    ["average", "--timeset", "interval", "T=1e2"],
    ["average", "--lattice", "hilbert", "D=2",
     "--point", "coords:0.1,1.3,0.4,-0.2,1.1,1.7", "--timeset", "poly", "N=1e2"],
]


def load_layers(monkeypatch) -> types.ModuleType:
    module = types.ModuleType("perfbench_layers")
    module.__file__ = str(LAYERS)
    # dataclasses look their module up while the source runs
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(LAYERS.read_text(), str(LAYERS), "exec"), module.__dict__)
    return module


def config(argv: list[str]) -> experiments.ExperimentConfig:
    args, extra = cli.build_parser().parse_known_args(argv)
    args.tokens = list(args.tokens) + extra
    return cli.config_from_args(args)


def test_traced_runs_finish(monkeypatch):
    layers = load_layers(monkeypatch)
    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        records = [experiments.run(config(argv)) for argv in RUNS]
    finally:
        tracer.uninstall()
    assert all(r.content_id for r in records)
    assert set(tracer.missing) <= KNOWN_MISSING
    assert tracer.counts.get("quotient.reduce.calls", 0) > 0
