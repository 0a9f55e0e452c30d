"""Print old -> new for every pinned content ID that a run no longer gives.

    PYTHONPATH=src python tests/id_diff.py

Runs every CLI call of tests/content_ids.json, then the three benchmark
workloads, whose argument lists come from perfbench/specs.py, and prints
one line per ID that differs from the file, then a count.  Exits 1 when
an ID moved.  It never rewrites the file: a pin moves only by hand, in the
change whose CHANGES.md entry lists the move.  The file names the runtime
its IDs were measured on; on another one the script says so first, since
IDs depend on it (README, Determinism).
"""

import json
import sys
from pathlib import Path

from horolab import cli, experiments
from perfbench_source import load as perfbench

CONTENT_IDS = Path(__file__).resolve().parent / "content_ids.json"


def load() -> dict:
    return json.loads(CONTENT_IDS.read_text())


def cli_pins(data: dict) -> list[tuple[list[str], str]]:
    """(argv, content ID) of every pinned CLI call, in file order."""
    return [(pin["argv"].split(), pin["id"]) for pin in data["cli"]]


def perfbench_pins(data: dict) -> list[tuple[str, list[str], str]]:
    """(workload, argv, content ID) of every benchmark workload."""
    argvs = perfbench().specs.CLI_ARGV
    return [(name, argvs[name], cid) for name, cid in data["perfbench"].items()]


def content_id(argv: list[str]) -> str:
    args, extra = cli.build_parser().parse_known_args(argv)
    args.tokens = list(args.tokens) + extra
    return experiments.run(cli.config_from_args(args)).content_id


def main() -> int:
    data = load()
    here = experiments.environment_fingerprint()
    if any(here.get(key) != val for key, val in data["runtime"].items()):
        print(f"runtime differs from the file's: {json.dumps(data['runtime'])}")
    runs = [(" ".join(argv), argv, cid) for argv, cid in cli_pins(data)]
    runs += [(f"perfbench {name}", argv, cid) for name, argv, cid in perfbench_pins(data)]
    moved = 0
    for label, argv, old in runs:
        new = content_id(argv)
        if new != old:
            moved += 1
            print(f"{label}: {old} -> {new}", flush=True)
    print(f"{moved} of {len(runs)} content IDs moved")
    return int(moved > 0)


if __name__ == "__main__":
    sys.exit(main())
