"""The benchmark's own files, loaded as modules for the tests and for
tests/id_diff.py.

perfbench/specs.py, oracles.py and workloads.py are run from their source,
as tests/test_perfbench_tracer.py runs layers.py, so that no bytecode is
written next to them.
"""

import functools
import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@functools.cache
def load() -> types.SimpleNamespace:
    """specs, oracles and workloads, each a module run from its source."""
    loaded = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in ("specs", "oracles", "workloads"):
            path = PERFBENCH / f"{name}.py"
            module = types.ModuleType(name)
            module.__file__ = str(path)
            # workloads imports oracles by name, and dataclasses look their module up
            mp.setitem(sys.modules, name, module)
            exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
            loaded[name] = module
    return types.SimpleNamespace(**loaded)
