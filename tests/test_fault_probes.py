"""The benchmark's correctness checks of two workloads, run in Tier-1.

perfbench/workloads.py checks each workload's record against the
independent oracles of perfbench/oracles.py, and runs two fault probes on
fixed inputs: the dichotomy-almost orbit nodes against 60-digit heights,
and the hilbert-k2 canonicity pairs.  Both probes fail today.  Each is an
xfail(strict=True) test here that names the ROADMAP item that mends it, so
that the change which mends it must turn it into a plain pass.

The perfbench files are run from their source (tests/perfbench_source.py),
so that no bytecode is written next to them.
"""

import functools

import pytest

from horolab import cli, experiments
from perfbench_source import load as perfbench

# the workload seed of the checks whose inputs it draws; the probes use their own
SEED = 1


def config(argv: list[str]) -> experiments.ExperimentConfig:
    args, extra = cli.build_parser().parse_known_args(argv)
    args.tokens = list(args.tokens) + extra
    return cli.config_from_args(args)


@functools.cache
def tally(workload: str):
    """The workload's CLI call, run once, and its checks' tally."""
    pb = perfbench()
    cfg = config(pb.specs.CLI_ARGV[workload])
    return pb.workloads.check(workload, cfg, experiments.run(cfg), SEED)


@pytest.mark.parametrize("workload", ["dichotomy-almost", "hilbert-k2"])
def test_checks_hold(workload):
    # every check outside the fault probes passes
    t = tally(workload)
    assert t.correct, t.notes
    assert t.attempted > 1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: 818 of the 1 000 fixed integer-time "
                   "orbit nodes, far from their chunk's checkpoint, are on the wrong class")
def test_dichotomy_orbit_node_probe():
    assert tally("dichotomy-almost").failed == 0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: 132 of the 10 000 fixed D = 2 "
                   "canonicity pairs reduce to two representatives, both flagged converged")
def test_hilbert_canonicity_probe():
    assert tally("hilbert-k2").failed == 0
