"""horolab benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a horolab checkout; the program is imported from
its `src/` directory.  Every measured round is a fresh interpreter
(perfbench/child.py), as one `horolab` CLI call is.

--trace 0: whole rounds (experiment plus correctness checks) are run
until S seconds have passed, at least one; then a few set-up-only
interpreters.  Reports the medians of run_s, setup_s and peak_rss_mib.

--trace 1: one untraced round with its checks, then one traced round;
reports every per-layer metric, including the tracing overhead.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  Content IDs of the records are printed
on stderr; they are reported, never compared with stored values.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import specs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# set-up-only interpreters per run, on top of one set-up per round
EXTRA_SETUPS = 6
# a run may take 180 s; its children share this budget
RUN_BUDGET_S = 170.0

END_TO_END = [("run_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")]


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    """The caller's environment with horolab taken from this checkout only."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("HOROLAB_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one fresh-interpreter round; return its JSON result with setup_s."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    timeout = max(1.0, deadline - time.monotonic())
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} {mode} round exceeded {timeout:.0f} s")
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} round exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - launched
    return result


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    started = time.monotonic()
    rounds = []
    while True:
        t0 = time.monotonic()
        rounds.append(run_child(workload, seed, "run", deadline))
        now = time.monotonic()
        # a further round must fit, with the set-up-only interpreters, in the deadline
        if now - started >= seconds or now + 2.0 * (now - t0) + 10.0 > deadline:
            break
    setups = [r["setup_s"] for r in rounds]
    setups += [run_child(workload, seed, "setup", deadline)["setup_s"]
               for _ in range(EXTRA_SETUPS)]
    ids = sorted({r["content_id"] for r in rounds})
    print(f"[{workload}] {len(rounds)} rounds, run_s "
          + " ".join(f"{r['run_s']:.3f}" for r in rounds)
          + f", content id(s) {', '.join(ids)}", file=sys.stderr)
    values = {
        "run_s": statistics.median(r["run_s"] for r in rounds),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in rounds),
    }
    return {
        # a rerun of one config must give a bit-identical payload
        "correct": all(r["correct"] for r in rounds) and len(ids) == 1,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
    }


def measure_traced(workload: str, seed: int, deadline: float) -> dict:
    plain = run_child(workload, seed, "run", deadline)
    traced = run_child(workload, seed, "traced", deadline)
    print(f"[{workload}] content id untraced {plain['content_id']}, "
          f"traced {traced['content_id']}", file=sys.stderr)
    values = dict(traced["layers"])
    values["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
    return {
        "correct": plain["correct"] and traced["content_id"] == plain["content_id"],
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in layers.PER_LAYER},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(specs.CLI_ARGV))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    opts = ap.parse_args()
    if not (ROOT / "src" / "horolab" / "__init__.py").is_file():
        print(f"no horolab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if opts.trace:
            result = measure_traced(opts.workload, opts.seed, deadline)
        else:
            result = measure(opts.workload, opts.seed, opts.seconds, deadline)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted = {result['attempted']}, failed = {result['failed']}, "
          f"correct = {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
