"""The numpy Gauss-Legendre rule, the streaming pairwise sum, and the
runtime's dependency on numpy alone.

scipy appears here only as a reference: the rule must reproduce
scipy.special.roots_legendre byte for byte at every order horolab uses.
"""

import ast
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import roots_legendre

import horolab
from horolab import quadrature as qd

SRC = Path(horolab.__file__).resolve().parent
PYPROJECT = SRC.parents[1] / "pyproject.toml"


class TestGaussLegendre:
    def test_bytes_match_scipy(self):
        for n in [5] + list(range(2, 401, 2)):
            x, w = qd.gauss_legendre(n)
            xs, ws = roots_legendre(n)
            assert x.tobytes() == xs.tobytes(), n
            assert w.tobytes() == ws.tobytes(), n

    @pytest.mark.parametrize("n", [1, 5, 24, 160])
    def test_built_once_and_read_only(self, n):
        x, w = qd.gauss_legendre(n)
        x2, w2 = qd.gauss_legendre(n)
        assert x2 is x and w2 is w
        assert x2.tobytes() == x.tobytes() and w2.tobytes() == w.tobytes()
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
        xm, wm = qd.gl_nodes(n, 0.0, 1.0)
        assert xm.flags.writeable and wm.flags.writeable

    @pytest.mark.parametrize("n", [341, 401, 1001])
    def test_high_odd_orders_stay_finite(self, n):
        x, w = qd.gauss_legendre(n)
        assert np.all(np.isfinite(w)) and np.all(w > 0)
        assert np.array_equal(x, -x[::-1]) and np.all(np.diff(x) > 0)
        assert abs(w.sum() - 2.0) < 1e-14
        # one Newton step leaves the weights good to about n ulps; the
        # reference rule misses these moments by 2.7e-13 at n = 1000
        assert abs(w @ x ** 2 - 2.0 / 3.0) < 2e-13
        assert abs(w @ x ** 4 - 2.0 / 5.0) < 2e-13

    def test_interval_map(self):
        x, w = qd.gl_nodes(5, 0.0, 1.0)
        assert np.all((x > 0.0) & (x < 1.0))
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
        assert w @ x ** 9 == pytest.approx(0.1, abs=1e-15)

    def test_rejects_bad_order(self):
        for n in (0, -3, 2.5):
            with pytest.raises(ValueError):
                qd.gauss_legendre(n)


def phi_probe_times(t_max: float) -> np.ndarray:
    # quotient.detect_divergence's phi-mode grid, before its repeats go
    return np.floor(np.geomspace(1.0, max(t_max, 2.0), 60))


def u_tilde_grids(z_max: int) -> tuple:
    # sieve.empirical_u_tilde's u and z grids, before their repeats go
    return (np.exp(np.linspace(math.log(2.0), math.log(z_max / 10.0), 140)),
            np.exp(np.linspace(math.log(10.0), math.log(float(z_max)), 60)))


class TestDistinctSorted:
    @pytest.mark.parametrize("values", [
        phi_probe_times(1.0e5), phi_probe_times(1.0), phi_probe_times(3.0e7),
        *u_tilde_grids(10**6), *u_tilde_grids(10**8),
        np.array([3.5, -1.0, 3.5, 2.0, -1.0, 1e300, 2.0, 0.5]),
        np.repeat(np.arange(5.0)[::-1], 3),
        np.array([7.0]), np.empty(0),
    ], ids=["phi-1e5", "phi-1", "phi-3e7", "u-1e6", "z-1e6", "u-1e8", "z-1e8",
            "repeats", "runs", "one", "empty"])
    def test_bytes_match_np_unique(self, values):
        expect = np.unique(values)
        got = qd.distinct_sorted(values)
        assert got.dtype == expect.dtype
        assert got.tobytes() == expect.tobytes()


def fold_in_pieces(values: np.ndarray, rng) -> float:
    """PairwiseFold's total of values pushed in random pieces: empty ones,
    short ones, ones up to a leaf and ones longer than a leaf."""
    leaf = qd._FOLD_LEAF
    fold = qd.PairwiseFold(len(values))
    at = 0
    while at < len(values):
        lo, hi = [(0, 1), (1, 16), (1, leaf + 1), (leaf + 1, 3 * leaf)][rng.integers(4)]
        size = int(rng.integers(lo, hi))
        fold.push(values[at:at + size])
        at += size
    fold.push(values[at:])  # an empty last piece
    return fold.total()


def spread_values(n: int, rng) -> np.ndarray:
    # magnitudes over 16 decades, so that any other order of the adds rounds differently
    return rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)


POWER_LENGTHS = [2 ** k + d for k in range(1, 22) for d in (-1, 0, 1)]


class TestPairwiseFold:
    @pytest.mark.parametrize("lengths", [range(0, 301), POWER_LENGTHS, [10**6, 2_048_000]],
                             ids=["0-300", "powers-of-two", "large"])
    def test_bytes_match_add_reduce(self, rng, lengths):
        for n in lengths:
            values = spread_values(n, rng)
            got = np.float64(fold_in_pieces(values, rng))
            assert got.tobytes() == np.add.reduce(values).tobytes(), n

    def test_k1_haar_grid_in_rows_holds_one_leaf(self, rng):
        grid = spread_values(160 * 160 * 80, rng).reshape(160, 160, 80)
        tracemalloc.start()
        try:
            fold = qd.PairwiseFold(grid.size)
            for row in grid:
                fold.push(row)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.float64(fold.total()).tobytes() == np.sum(grid).tobytes()
        # one 64 KiB leaf and the plan, against 15.6 MiB for the grid
        assert peak < 128 * 2**10

    @pytest.mark.parametrize("kind", ["negative-zeros", "mixed-zeros", "infinities", "nan"])
    def test_signed_zeros_and_non_finite_values(self, rng, kind):
        for n in [1, 2, 7, 8, 9, 127, 129, qd._FOLD_LEAF + 1, 3 * qd._FOLD_LEAF + 5]:
            if kind == "negative-zeros":
                values = np.full(n, -0.0)
            elif kind == "mixed-zeros":
                values = np.where(rng.random(n) < 0.5, -0.0, 0.0)
            elif kind == "infinities":
                values = spread_values(n, rng)
                values[rng.integers(n, size=2)] = rng.choice([np.inf, -np.inf], size=2)
            else:
                values = spread_values(n, rng)
                values[rng.integers(n)] = np.nan
            with np.errstate(invalid="ignore"):  # inf - inf
                got, expect = np.float64(fold_in_pieces(values, rng)), np.add.reduce(values)
            assert got.tobytes() == expect.tobytes(), (kind, n)

    def test_length_is_enforced(self):
        fold = qd.PairwiseFold(10)
        fold.push(np.ones(4))
        with pytest.raises(ValueError):
            fold.total()
        with pytest.raises(ValueError):
            fold.push(np.ones(7))
        assert qd.PairwiseFold(0).total() == 0.0


class TestRuntimeDependencies:
    def test_imports_are_stdlib_numpy_or_horolab(self):
        allowed = set(sys.stdlib_module_names) | {"numpy", "horolab"}
        for path in sorted(SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    assert name.split(".")[0] in allowed, f"{path.name} imports {name}"

    def test_pyproject_runtime_dependencies(self):
        block = re.search(r"^dependencies = \[(.*?)\]", PYPROJECT.read_text(), re.S | re.M)
        assert re.findall(r'"([^"]+)"', block.group(1)) == ["numpy>=1.24"]

    def test_average_run_loads_no_scipy(self):
        code = ("import sys\n"
                "from horolab import cli\n"
                "assert cli.main(['average', 'N=1', 'T=1e2', 'K=1']) == 0\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "[]"

    def test_sample_grids_load_no_numpy_ma(self):
        # np.unique's masked-array check imports numpy.ma, about 10 ms per process
        code = ("import sys\n"
                "from horolab import presets, quotient, sieve\n"
                "p = presets.point_preset('generic1')\n"
                "quotient.detect_divergence(p, mode='phi', t_max=1.0e5)\n"
                "sieve.empirical_u_tilde(0.012, z_max=10**6)\n"
                "print('numpy.ma' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "False"
