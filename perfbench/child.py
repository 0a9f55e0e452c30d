"""One benchmark round in a fresh interpreter, as one `horolab` CLI call.

    python3 perfbench/child.py --workload NAME --seed N --mode MODE

MODE is one of
  setup   resolve the config as the CLI would, then exit;
  run     resolve, run the experiment untraced, then run the workload's
          correctness checks;
  traced  resolve, run the experiment with layer tracing on, then time
          the chunked orbit driver on the run's longest orbit with 1 and
          2 workers.

The last stdout line is one JSON object.  `ready` is the CLOCK_MONOTONIC
time at which the config was resolved and experiments.run was about to
be called; the parent subtracts its launch time to get the set-up time.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from horolab import cli, experiments  # noqa: E402  (set-up cost is measured)

import specs  # noqa: E402


def resolve_config(argv: list[str]):
    """Parse a CLI argument list into an ExperimentConfig, as horolab.cli.main does."""
    parser = cli.build_parser()
    args, extra = parser.parse_known_args(argv)
    args.tokens = list(args.tokens) + extra
    return cli.config_from_args(args)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(specs.CLI_ARGV))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "run", "traced"])
    opts = ap.parse_args()
    cfg = resolve_config(specs.CLI_ARGV[opts.workload])
    out = {"ready": time.monotonic()}
    if opts.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if opts.mode == "traced":
        import layers
        tracer = layers.Tracer()
        layers.install(tracer)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    record = experiments.run(cfg)
    out["run_s"] = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["content_id"] = record.content_id

    if tracer is not None:
        tracer.uninstall()
        for name in tracer.missing:
            print(f"[{opts.workload}] no layer boundary {name}; not traced", file=sys.stderr)
        out["layers"] = layers.metrics(tracer, cpu_s, orbit_speedup(tracer))
    else:
        import workloads
        tally = workloads.check(opts.workload, cfg, record, opts.seed)
        out.update(tally.as_dict())
    print(json.dumps(out))
    return 0


def orbit_speedup(tracer) -> float:
    """Wall time of orbit_coordinates with 1 worker over that with 2, on the
    longest orbit the traced run walked."""
    from horolab import sampling
    if tracer.largest_orbit is None:
        return 0.0
    p, times = tracer.largest_orbit
    walls = []
    for workers in (1, 2):
        t0 = time.perf_counter()
        sampling.orbit_coordinates(p, times, workers=workers)
        walls.append(time.perf_counter() - t0)
    return walls[0] / walls[1]


if __name__ == "__main__":
    sys.exit(main())
