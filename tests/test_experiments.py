"""Experiment configs, result records, runners, report, and the CLI."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import horolab.experiments as ex
from horolab.cli import build_parser, config_from_args, main
from horolab.errors import ConfigError, ToleranceFailure
from horolab.sieve import build_factor_table

# the directory holding the horolab package under test
SRC = Path(ex.__file__).resolve().parents[1]
# every pinned CLI content ID: (argv, content id)
PINNED_CLI_IDS = [
    (["average", "N=1", "T=1e3", "K=1"], "dad93dbe8998f80a"),
    (["reduce"], "65786cf01b0d7b6d"),
    (["average", "--timeset", "interval", "T=1e3"], "9c5ad06c18d300b7"),
    (["reduce", "--lattice", "hilbert", "D=2",
      "--point", "coords:0.1,1.3,0.4,-0.2,1.1,1.7"], "4c5cf3c5c835b6b1"),
    (["dichotomy", "mode=poly", "--lattice", "hilbert", "D=2", "--point", "identity"],
     "d13e102178387d0f"),
    # through the exact k = 2 reference: the preset bump's box injects into the quotient
    (["average", "--lattice", "hilbert", "D=2",
      "--point", "coords:0.1,1.3,0.4,-0.2,1.1,1.7",
      "--timeset", "poly", "N=1e3"], "290e041362ee3f5a"),
    (["orbit", "--timeset", "progression", "K=0.01", "T=1e3"], "5216e9984061f1e5"),
    (["orbit", "--lattice", "hilbert", "D=2",
      "--point", "coords:0.1,1.3,0.4,-0.2,1.1,1.7",
      "--timeset", "progression", "K=0.05", "T=1e3"], "965c621d62917407"),
    # the README example and the only k = 1 run through the dichotomy torus branch
    (["dichotomy", "mode=almost", "--point", "preset:cusp", "N=1e5"], "2bf8c7607f39ff83"),
    (["torus", "--lattice", "hilbert", "D=19", "--point", "identity"], "be641b91ee1f818a"),
    (["torus", "--lattice", "hilbert", "D=2", "--point", "identity"], "9717c529984f90bd"),
    # through the Sobolev offsets of the block bound
    (["blocks", "M=1e5"], "819f339eae263654"),
    # through the geodesic probe's heights and the dense-branch cover
    (["dichotomy", "mode=almost", "--point", "preset:generic1", "N=1e5"], "0efffde9a94a5979"),
    # the README sieve example
    (["sieve", "N=1e6", "z-exp=0.1111", "s=9"], "9ed36d62cf1399fb"),
    # through the translated-pair correlations of the k = 1 Haar quadrature
    (["mixing", "t_grid=2"], "2cceef46b405273c"),
    # through haar_reference_k2's 400 k-row arc: min y1 * min y2 = 0.64, so the
    # box is not certified
    (["average", "--lattice", "hilbert", "D=2",
      "--point", "coords:0.1,1.3,0.4,-0.2,1.1,1.7",
      "--timeset", "poly", "N=1e3", "--observable",
      "bump:0.05,1.6,0.8,0.45,0.8,1.4,-0.1,1.6,2.2,0.45,0.8,1.4"], "56c179e2e9b9c42c"),
]
# the ones that reduce on a Hilbert lattice (k = 2)
PINNED_K2_IDS = [(argv, cid) for argv, cid in PINNED_CLI_IDS if "hilbert" in argv]


def quick_average_config(**overrides) -> ex.ExperimentConfig:
    base = dict(kind="average", point="preset:generic1",
                timeset="progression", step_k=1.0, t_span=1.0e3)
    base.update(overrides)
    return ex.ExperimentConfig(**base)


def read_config(path: Path, text: str | None = None) -> ex.ExperimentConfig:
    """The config in the file at path (first written with text, if given),
    read the way the CLI reads --config: file_fields, then from_dict."""
    if text is not None:
        path.write_text(text)
    return ex.ExperimentConfig.from_dict(ex.file_fields(path))


@pytest.fixture(scope="module")
def average_grid_dir(tmp_path_factory):
    """Four sparse-average records over a T grid, persisted together."""
    out = tmp_path_factory.mktemp("avg_grid")
    for t_span in (1.0e2, 1.0e3, 1.0e4, 1.0e5):
        ex.run(quick_average_config(t_span=t_span, out_dir=str(out)))
    return out


@pytest.fixture(scope="module")
def mixing_record_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("mixing")
    rec = ex.run(ex.ExperimentConfig(kind="mixing", point="preset:generic1",
                                     t_grid=(1.0, 2.0, 4.0, 8.0),
                                     out_dir=str(out)))
    return rec, out


class TestConfig:
    def test_text_round_trip_bit_identical(self, tmp_path):
        cfg = quick_average_config(workers=3, epsilon=0.003)
        text = cfg.to_text()
        again = read_config(tmp_path / "c.cfg", text)
        assert again == cfg
        assert again.to_text() == text

    def test_json_round_trip(self):
        cfg = quick_average_config(t_grid=(0.5, 1.5))
        assert ex.ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_from_file_both_formats(self, tmp_path):
        cfg = quick_average_config(level=7)
        txt = tmp_path / "c.cfg"
        txt.write_text(cfg.to_text())
        js = tmp_path / "c.json"
        js.write_text(json.dumps(cfg.to_dict()))
        assert read_config(txt) == cfg
        assert read_config(js) == cfg

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = read_config(tmp_path / "c.cfg",
                          "# a comment\n\nkind = \"reduce\"\nt_span = 12.5  # trailing\n")
        assert cfg.kind == "reduce"
        assert cfg.t_span == 12.5

    @pytest.mark.parametrize("out_dir", ["runs#1", "#", 'a"#b', "x\\#y"])
    def test_hash_inside_quoted_value_round_trips(self, tmp_path, out_dir):
        cfg = ex.ExperimentConfig(out_dir=out_dir)
        assert read_config(tmp_path / "c.cfg", cfg.to_text()) == cfg
        text = f"out_dir = {json.dumps(out_dir)}  # comment \"q\"\n"
        assert read_config(tmp_path / "c.cfg", text).out_dir == out_dir

    def test_unknown_field_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ex.ExperimentConfig.from_dict({"kind": "average", "bogus": 1})
        with pytest.raises(ConfigError):
            read_config(tmp_path / "c.cfg", "volume = 11\n")

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            ex.ExperimentConfig(kind="lasso")
        with pytest.raises(ConfigError):
            ex.ExperimentConfig(workers=0)

    def test_hash_tracks_content(self):
        a = quick_average_config()
        b = quick_average_config(t_span=2.0e3)
        assert a.config_hash() == quick_average_config().config_hash()
        assert a.config_hash() != b.config_hash()

    def test_env_overrides(self, tmp_path, monkeypatch):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(quick_average_config().to_dict()))
        for var, value in {"HOROLAB_T_SPAN": "55.5", "HOROLAB_WORKERS": "4",
                           "HOROLAB_POINT": "preset:cusp", "UNRELATED": "ignored"}.items():
            monkeypatch.setenv(var, value)
        cfg = config_from_args(build_parser().parse_args(["average", "--config", str(cfgfile)]))
        assert cfg.t_span == 55.5
        assert cfg.workers == 4
        assert cfg.point == "preset:cusp"

    def test_precedence_file_env_token(self, tmp_path, monkeypatch):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("t_span = 777.0\nstep_k = 2.0\n")
        parser = build_parser()
        monkeypatch.setenv("HOROLAB_T_SPAN", "888.0")

        args = parser.parse_args(["average", "--config", str(cfgfile)])
        cfg = config_from_args(args)
        assert cfg.t_span == 888.0     # env beats the file
        assert cfg.step_k == 2.0       # file beats the default

        args = parser.parse_args(["average", "--config", str(cfgfile), "T=999"])
        assert config_from_args(args).t_span == 999.0  # token beats env

    @pytest.mark.parametrize("f", fields(ex.ExperimentConfig), ids=lambda f: f.name)
    def test_default_read_back_from_text(self, f):
        # the field's type comes from its default, so its text reads back as it;
        # spelled as a text config file and as a token would spell it
        listed = isinstance(f.default, tuple)
        as_file = json.dumps(list(f.default) if listed else f.default)
        as_token = ",".join(map(str, f.default)) if listed else str(f.default)
        for text in (as_file, as_token):
            value = getattr(ex.ExperimentConfig.from_dict({f.name: text}), f.name)
            assert value == f.default and type(value) is type(f.default), text

    def test_int_field_takes_integral_numbers_only(self):
        assert ex.ExperimentConfig(n_max="1e6").n_max == 1_000_000
        assert ex.ExperimentConfig(n_max=1e5).n_max == 100_000
        for bad in ("150.7", 150.7, "abc", True, [1]):
            with pytest.raises(ConfigError, match="n_max"):
                ex.ExperimentConfig(n_max=bad)

    def test_float_field_takes_any_number(self):
        cfg = ex.ExperimentConfig(t_span=1000, step_k="2")
        assert (cfg.t_span, cfg.step_k) == (1000.0, 2.0)
        assert type(cfg.t_span) is float and type(cfg.step_k) is float


class TestRecords:
    def test_record_hash_matches_embedded_config(self):
        cfg = quick_average_config()
        rec = ex.make_record(cfg, {"value": 1.0})
        assert rec.schema_version == ex.SCHEMA_VERSION
        assert rec.config_hash == ex.ExperimentConfig.from_dict(rec.config).config_hash()

    def test_append_load_round_trip(self, tmp_path):
        cfg = quick_average_config()
        rec = ex.make_record(cfg, {"value": 0.25})
        path = ex.append_record(rec, tmp_path)
        loaded = ex.load_records(path)
        assert len(loaded) == 1
        assert loaded[0] == rec

    def test_records_are_append_only(self, tmp_path):
        cfg = quick_average_config()
        ex.append_record(ex.make_record(cfg, {"value": 1.0}), tmp_path)
        first = (tmp_path / "records.jsonl").read_text()
        ex.append_record(ex.make_record(cfg, {"value": 2.0}), tmp_path)
        both = (tmp_path / "records.jsonl").read_text()
        assert both.startswith(first)
        assert len(both.splitlines()) == 2

    def test_previous_schema_version_readable(self, tmp_path):
        rec = ex.make_record(quick_average_config(), {"value": 1.0})
        old = json.loads(rec.to_json())
        old["schema_version"] = 0
        # fields added since version 0 may be absent entirely
        for key in ("exponents", "environment", "elapsed_s"):
            old.pop(key)
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(old) + "\n")
        loaded = ex.load_records(path)
        assert loaded[0].payload == {"value": 1.0}

    def test_environment_names_the_runtime_outside_the_content_id(self, monkeypatch):
        env = ex.environment_fingerprint()
        assert {"numpy_simd", "libc", "blas"} <= set(env)
        assert all(isinstance(target, str) for target in env["numpy_simd"])
        assert set(env["blas"]) == {"name", "version", "openblas configuration"}
        rec = ex.make_record(quick_average_config(), {"value": 1.0})
        assert rec.environment == env
        monkeypatch.setattr(ex, "environment_fingerprint", lambda: {"numpy_simd": ["other"]})
        assert ex.make_record(quick_average_config(), {"value": 1.0}).content_id == rec.content_id

    def test_environment_starts_no_process(self):
        # platform.platform() runs `uname -p` in a subprocess, 5 ms on every run
        code = ("import subprocess\n"
                "def refuse(*args, **kwargs):\n"
                "    raise AssertionError('started a process')\n"
                "subprocess.Popen = refuse\n"
                "import horolab.experiments as ex\n"
                "print(ex.environment_fingerprint()['platform'])\n")
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip()

    def test_future_schema_version_rejected(self, tmp_path):
        rec = ex.make_record(quick_average_config(), {"value": 1.0})
        new = json.loads(rec.to_json())
        new["schema_version"] = ex.SCHEMA_VERSION + 1
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(new) + "\n")
        with pytest.raises(ConfigError):
            ex.load_records(path)

    def test_payload_bit_identical_on_rerun(self):
        cfg = quick_average_config()
        pay1 = ex.run(cfg).payload
        pay2 = ex.run(cfg).payload
        assert json.dumps(pay1, sort_keys=True) == json.dumps(pay2, sort_keys=True)

    def test_payload_stable_across_worker_counts(self):
        v1 = ex.run(quick_average_config(workers=1)).payload["value"]
        v8 = ex.run(quick_average_config(workers=8)).payload["value"]
        assert abs(v1 - v8) <= 1e-12


class TestRunners:
    def test_reduce_payload(self):
        rec = ex.run(ex.ExperimentConfig(kind="reduce", point="preset:generic1"))
        assert rec.payload["converged"]
        assert rec.payload["injectivity_radius"] > 0.0
        assert len(rec.payload["coords"]) == 1

    def test_average_record_fields(self):
        rec = ex.run(quick_average_config(t_span=1.0e4))
        for key in ("value", "reference", "deviation"):
            assert key in rec.payload
        assert rec.payload["deviation"] >= 0.0
        # volatile data stays off the payload so reruns hash identically
        assert "runtime_s" not in rec.payload
        assert rec.elapsed_s > 0.0

    def test_average_writes_artifacts(self, tmp_path):
        ex.run(quick_average_config(out_dir=str(tmp_path)))
        names = {p.name for p in tmp_path.iterdir()}
        assert {"records.jsonl", "average.csv", "average.dat"} <= names
        header = (tmp_path / "average.csv").read_text().splitlines()[0]
        assert header == "samples,value,reference,deviation"
        assert (tmp_path / "average.dat").read_text().startswith("# ")

    def test_orbit_run(self, tmp_path):
        rec = ex.run(ex.ExperimentConfig(kind="orbit", point="preset:generic1",
                                         timeset="progression", step_k=1.0,
                                         t_span=2000.0, out_dir=str(tmp_path)))
        assert rec.payload["samples"] == 2000
        assert rec.payload["height_min"] > 0.0
        rows = (tmp_path / "orbit.csv").read_text().splitlines()
        assert rows[0] == "t,x1,y1,theta1"
        assert len(rows) == 1 + 2000

    def test_mixing_run(self, mixing_record_dir):
        rec, _ = mixing_record_dir
        assert len(rec.payload["series"]) == 4
        assert rec.exponents["mixing_slope"] < 0.0

    def test_mixing_floored_fit_records_no_slope(self, monkeypatch):
        # every correlation equal to mean^2 is exact agreement, so the fit is floored
        monkeypatch.setattr(ex.ob, "haar_integral_k1", lambda f: 0.0)
        monkeypatch.setattr(ex.sp, "correlation", lambda f, g, t, flow: 0.0)
        rec = ex.run(ex.ExperimentConfig(kind="mixing", point="preset:generic1"))
        assert math.isnan(rec.exponents["mixing_slope"])

    def test_blocks_run(self):
        rec = ex.run(ex.ExperimentConfig(kind="blocks", point="preset:generic1",
                                         m_base=400_000, gamma_exp=0.1))
        assert rec.payload["gap"] > 0.0
        assert rec.payload["gap_within_bound"]

    def test_sieve_unit_weights(self):
        rec = ex.run(ex.ExperimentConfig(kind="sieve", n_max=10**6,
                                         alpha_exp=0.1111, s_target=9.0))
        assert rec.payload["brackets_hold"]
        assert rec.payload["lower"] <= rec.payload["s_exact"] <= rec.payload["upper"]

    def test_torus_hilbert_identity(self):
        rec = ex.run(ex.ExperimentConfig(kind="torus", lattice="hilbert",
                                         disc=2, point="identity"))
        assert rec.payload["found"]
        assert rec.payload["torus_dim"] == 2
        assert len(rec.payload["generators"]) == 2

    def test_tolerance_gate(self):
        with pytest.raises(ToleranceFailure) as err:
            ex.run(quick_average_config(deviation_tolerance=1e-30))
        # the gated payload rides along for diagnostics
        assert err.value.payload["deviation"] > 1e-30


class TestDichotomy:
    def test_identity_coset_torus_confirmed(self):
        rec = ex.run(ex.ExperimentConfig(kind="dichotomy", point="preset:cusp",
                                         mode="almost", n_max=10**5))
        pay = rec.payload
        assert pay["verdict"] == "torus-confirmed"
        assert pay["torus"]["found"]
        assert pay["sparse_orbit"]["bounded"]
        assert pay["sparse_orbit"]["single_point_exact"]

    def test_hilbert_identity_poly_torus_confirmed(self):
        rec = ex.run(ex.ExperimentConfig(kind="dichotomy", lattice="hilbert",
                                         disc=2, point="identity", mode="poly",
                                         gamma_exp=0.1))
        assert rec.payload["verdict"] == "torus-confirmed"
        assert rec.payload["torus"]["torus_dim"] == 2

    def test_generic_point_dense_evidence(self):
        rec = ex.run(ex.ExperimentConfig(kind="dichotomy", point="preset:generic1",
                                         mode="almost", n_max=50_000))
        pay = rec.payload
        assert not pay["divergence"]["diverges"]
        assert pay["verdict"] == "dense-evidence"
        assert all(row["omega_sum"] > 0.0 for row in pay["cover"])
        assert len(pay["cover"]) == 10
        assert "evidence" in pay["caveat"] and "not a proof" in pay["caveat"]

    def test_generic_point_poly_block_sweep(self):
        rec = ex.run(ex.ExperimentConfig(kind="dichotomy", point="preset:generic1",
                                         mode="poly", gamma_exp=0.1,
                                         m_base=400_000))
        pay = rec.payload
        assert pay["verdict"] == "dense-evidence"
        assert len(pay["block_sweep"]) == 4
        assert pay["block_sweep"][-1]["gap"] <= pay["block_sweep"][0]["gap"]

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            ex.run(ex.ExperimentConfig(kind="dichotomy", mode="sideways"))


class TestReport:
    def test_single_record_single_row(self, tmp_path):
        ex.run(ex.ExperimentConfig(kind="reduce", point="preset:generic1",
                                   out_dir=str(tmp_path)))
        rec = ex.run(ex.ExperimentConfig(
            kind="report", records_path=str(tmp_path / "records.jsonl")))
        assert rec.payload["records"] == 1
        assert len(rec.payload["rows"]) == 1

    def test_average_grid_slope_populated(self, average_grid_dir):
        rec = ex.run(ex.ExperimentConfig(
            kind="report", records_path=str(average_grid_dir / "records.jsonl")))
        rows = rec.payload["rows"]
        assert len(rows) == 4
        slopes = {row["slope"] for row in rows}
        assert len(slopes) == 1
        assert np.isfinite(slopes.pop())
        assert rec.exponents

    def test_mixing_records_fit_negative(self, mixing_record_dir):
        _, out = mixing_record_dir
        rec = ex.run(ex.ExperimentConfig(
            kind="report", records_path=str(out / "records.jsonl")))
        rows = rec.payload["rows"]
        assert rows and all(row["slope"] < 0.0 for row in rows)
        assert all(row["pass"] == "pass" for row in rows)

    def test_floored_average_family_is_not_judged(self, tmp_path):
        # a zero deviation is exact agreement: decay_fit floors it, and the
        # slope through the floor means nothing, so neither pass nor fail
        for t_span, deviation in ((1.0e2, 1e-2), (1.0e3, 1e-3), (1.0e4, 0.0), (1.0e5, 1e-5)):
            record = ex.make_record(quick_average_config(t_span=t_span), {"deviation": deviation})
            ex.append_record(record, tmp_path)
        rec = ex.run(ex.ExperimentConfig(
            kind="report", records_path=str(tmp_path / "records.jsonl")))
        assert [row["pass"] for row in rec.payload["rows"]] == ["n/a"] * 4
        assert all(math.isnan(slope) for slope in rec.exponents.values())

    def test_duplicate_scale_refused(self, tmp_path):
        for _ in range(2):
            ex.run(quick_average_config(out_dir=str(tmp_path)))
        with pytest.raises(ConfigError):
            ex.run(ex.ExperimentConfig(
                kind="report", records_path=str(tmp_path / "records.jsonl")))

    def test_missing_records_path(self):
        with pytest.raises(ConfigError):
            ex.run(ex.ExperimentConfig(kind="report"))

    def test_record_with_seed_joins_its_family(self, tmp_path):
        # records written before the `seed` field was removed still carry it
        path = tmp_path / "records.jsonl"
        rec = ex.run(quick_average_config(out_dir=str(tmp_path)))
        older = json.loads(rec.to_json())
        older["config"].update(seed=11, t_span=2.0e3)
        with path.open("a") as fh:
            fh.write(json.dumps(older) + "\n")
        report = ex.run(ex.ExperimentConfig(kind="report", records_path=str(path)))
        assert report.payload["records"] == 2
        assert report.payload["families"] == 1


class TestCli:
    def test_describe(self, capsys):
        assert main(["describe"]) == 0
        out = capsys.readouterr().out
        assert "t_span" in out
        assert "N->n_max" in out

    def test_average_example(self, tmp_path, capsys):
        code = main(["average", "--lattice", "modular", "--point", "preset:generic1",
                     "--timeset", "progression", "K=1", "T=1e4",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[average]" in out
        assert "deviation" in out
        assert (tmp_path / "records.jsonl").exists()

    def test_sieve_example(self, capsys):
        code = main(["sieve", "N=1e6", "z-exp=0.1111", "s=9"])
        assert code == 0
        out = capsys.readouterr().out
        assert "brackets_hold = True" in out
        assert " content 9ed36d62cf1399fb " in out

    def test_torus_example(self, capsys):
        code = main(["torus", "--lattice", "hilbert", "D=2", "--point", "identity"])
        assert code == 0
        out = capsys.readouterr().out
        assert "torus_dim = 2" in out
        assert " content 9717c529984f90bd " in out

    @pytest.mark.parametrize("argv, content_id", PINNED_CLI_IDS)
    def test_pinned_content_id(self, capsys, argv, content_id):
        assert main(argv) == 0
        assert f" content {content_id} " in capsys.readouterr().out

    def test_readme_examples_are_pinned(self):
        # every "$ horolab ..." line followed by its "content <id>" line
        readme = (SRC.parent / "README.md").read_text()
        pairs = re.findall(r"^\$ horolab (.+)\n\[\w+\] config \w+ content (\w+) ",
                           readme, flags=re.MULTILINE)
        assert {"dad93dbe8998f80a", "9ed36d62cf1399fb"} <= {cid for _, cid in pairs}
        for line, cid in pairs:
            assert (line.split(), cid) in PINNED_CLI_IDS

    @pytest.mark.parametrize("argv", [["describe"], ["reduce", "--point", "preset:generic1"]])
    def test_closed_stdout_exits_cleanly(self, argv, tmp_path):
        # as in `horolab ... | head -1`: the reader is gone before anything is printed
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            out = subprocess.run([sys.executable, "-m", "horolab.cli", *argv, "--out", str(tmp_path)],
                                 env={**os.environ, "PYTHONPATH": str(SRC)}, stdout=write_end,
                                 stderr=subprocess.PIPE, text=True, timeout=120)
        finally:
            os.close(write_end)
        assert out.returncode == 0 and out.stderr == ""
        assert (tmp_path / "records.jsonl").exists() == (argv[0] != "describe")

    @pytest.mark.parametrize("blas_env", [{"OPENBLAS_NUM_THREADS": "1"},
                                          {"OPENBLAS_NUM_THREADS": "4"},
                                          {"OPENBLAS_CORETYPE": "Nehalem"}],
                             ids=["threads-1", "threads-4", "nehalem"])
    def test_k2_ids_independent_of_blas(self, blas_env):
        # the variables act only on the child; one interpreter runs all seven
        env = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
        env.update(blas_env, PYTHONPATH=str(SRC))
        code = ("import sys\nfrom horolab.cli import main\n"
                f"for argv in {[argv for argv, _ in PINNED_K2_IDS]!r}:\n"
                "    assert main(argv) == 0\n")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        ids = re.findall(r" content ([0-9a-f]{16}) ", out.stdout)
        assert ids == [content_id for _, content_id in PINNED_K2_IDS]

    def test_torus_hilbert_d19(self, capsys):
        # the unit 170 + 39 sqrt(19) lies outside any small coefficient box
        code = main(["torus", "--lattice", "hilbert", "D=19", "--point", "identity"])
        assert code == 0
        assert "torus_dim = 2" in capsys.readouterr().out

    @pytest.mark.parametrize("disc, code", [(331, 0), (379, 1), (526, 1), (9949, 1), (1_000_003, 1)])
    def test_large_unit_is_config_error(self, disc, code, capsys):
        # coefficients of the fundamental unit: 52, 54, 67, 117 and 831 bits
        for argv in (["reduce"], ["torus"], ["dichotomy", "mode=poly"],
                     ["average", "--timeset", "poly", "N=1e3"]):
            assert main(argv + ["--lattice", "hilbert", f"D={disc}", "--point", "identity"]) == code
            err = capsys.readouterr().err
            if code:
                assert err.startswith(f"config error: D = {disc}: the fundamental unit has a ")
                assert "Traceback" not in err

    def test_preset_point_must_match_lattice(self, capsys):
        code = main(["average", "--lattice", "hilbert", "--point", "preset:generic1",
                     "N=1", "T=1e2", "K=1"])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_preset_point_on_its_lattice(self, capsys):
        code = main(["torus", "--lattice", "hilbert", "D=2",
                     "--point", "preset:hilbert-identity"])
        assert code == 0
        assert "torus_dim = 2" in capsys.readouterr().out

    def test_dichotomy_prints_caveat(self, capsys):
        code = main(["dichotomy", "--point", "preset:generic1",
                     "mode=almost", "N=20000"])
        assert code == 0
        assert "not a proof" in capsys.readouterr().out

    def test_exit_code_config_error(self, capsys):
        assert main(["average", "bogus=3"]) == 1
        assert "config error" in capsys.readouterr().err
        assert main(["average", "T"]) == 1          # dangling token
        assert main(["average", "--nonsense"]) == 1  # unknown flag

    @pytest.mark.parametrize("argv", [
        ["sieve", "N=50"],
        ["pipeline", "N=50"],
        ["dichotomy", "mode=almost", "--point", "preset:generic1", "N=50"],
        ["blocks", "M=1"],
        ["average", "--timeset", "block", "M=1"],
        ["dichotomy", "mode=almost", "--point", "preset:cusp", "N=0"],
    ], ids=["sieve-N=50", "pipeline-N=50", "dichotomy-generic1-N=50", "blocks-M=1",
            "average-block-M=1", "dichotomy-cusp-N=0"])
    def test_small_input_is_config_error(self, argv, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("argv", [
        ["torus", "--lattice", "hilbert", "D=4"],
        ["reduce", "--lattice", "hilbert", "D=1"],
        ["sieve", "eps=0.1"],
        ["sieve", "z-exp=0"],
        ["sieve", "s=0"],
        ["sieve", "N=1e4", "eps=0"],
        ["sieve", "N=1e3", "z-exp=2"],
        ["sieve", "N=1e6", "z-exp=1.5", "s=1.2"],
        ["average", "N=10", "--observable", "bump:0,1.5,1,0,0.3,0.4"],
        ["reduce", "--point", "coords:x,1,2"],
        ["average", "N=10", "--observable", "constant:abc"],
        ["average", "--timeset", "interval", "T=1e13"],
        # k = 1 bump boxes that leave the fundamental domain
        ["average", "N=10", "--observable", "bump:0.3,1.5,1,0.25,0.3,0.4"],
        ["average", "N=10", "--observable", "bump:-0.3,1.5,1,0.25,0.3,0.4"],
        ["average", "N=10", "--observable", "bump:0,1.2,1,0.2,0.3,0.4"],
        ["average", "N=10", "--observable", "bump:0,1.5,1,0.2,0.3,1.6"],
    ], ids=["torus-D=4", "reduce-D=1", "sieve-eps=0.1", "sieve-z-exp=0", "sieve-s=0",
            "sieve-eps=0", "sieve-D-overflows", "sieve-z-past-N", "bump-zero-width",
            "coords-not-a-number", "constant-not-a-number", "interval-T=1e13",
            "bump-past-x-half", "bump-past-minus-x-half", "bump-below-unit-circle",
            "bump-theta-past-pi-half"])
    def test_rejected_value_is_config_error(self, argv, capsys):
        # rejected before any factor table: z = N^1.5 at N = 1e6 would ask for 10^9 entries
        tables = build_factor_table.cache_info().currsize
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert build_factor_table.cache_info().currsize == tables

    def test_almost_prime_average_at_n_1(self, capsys):
        assert main(["average", "--timeset", "almost", "N=1"]) == 0
        assert "sample_count = 1" in capsys.readouterr().out

    def test_exit_code_tolerance(self, capsys):
        assert main(["average", "K=1", "T=1e3", "--tolerance", "1e-30"]) == 2
        assert "tolerance failure" in capsys.readouterr().err

    def test_exit_code_budget(self, capsys):
        # z = sqrt(N) with a huge level makes the divisor enumeration blow
        # through its cap long before any bound is assembled
        assert main(["sieve", "N=20000", "z-exp", "0.5", "s", "101"]) == 3
        assert "budget exhausted" in capsys.readouterr().err

    def test_set_flag_reaches_config(self):
        parser = build_parser()
        args = parser.parse_args(["blocks", "--set", "m_base=12345",
                                  "--set", "gamma_exp=0.2"])
        cfg = config_from_args(args)
        assert cfg.m_base == 12345
        assert cfg.gamma_exp == 0.2

    @pytest.mark.parametrize("how", ["token", "text", "json", "env", "set"])
    def test_every_spelling_of_t_gives_one_content_id(self, how, tmp_path, monkeypatch,
                                                      capsys):
        argv = ["average", "N=1", "K=1"]
        if how == "token":
            argv.append("T=1e3")
        elif how == "text":
            (tmp_path / "c.cfg").write_text("t_span = 1000\n")
            argv += ["--config", str(tmp_path / "c.cfg")]
        elif how == "json":
            (tmp_path / "c.json").write_text(json.dumps({"t_span": 1000}))
            argv += ["--config", str(tmp_path / "c.json")]
        elif how == "env":
            monkeypatch.setenv("HOROLAB_T_SPAN", "1000")
        else:
            argv += ["--set", "t_span=1000"]
        assert main(argv) == 0
        assert " content dad93dbe8998f80a " in capsys.readouterr().out

    def test_int_field_in_scientific_notation_from_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("n_max = 1e5\n")
        assert main(["sieve", "--config", str(cfgfile)]) == 0
        assert "n_max = 100000" in capsys.readouterr().out

    def test_set_t_grid_matches_token(self):
        parser = build_parser()
        by_set = config_from_args(parser.parse_args(["mixing", "--set", "t_grid=1,2,4,8"]))
        by_token = config_from_args(parser.parse_args(["mixing", "t_grid=1,2,4,8"]))
        assert by_set == by_token
        assert by_set.t_grid == (1.0, 2.0, 4.0, 8.0)

    @pytest.mark.parametrize("argv, text, named", [
        (["average", "N=150.7"], None, "n_max"),
        (["sieve"], 'n_max = "abc"\n', "n_max"),
        (["sieve"], "seed = 0\n", "seed"),
        (["sieve"], '{"n_max": ', "c.cfg"),
    ], ids=["token-N=150.7", "file-n_max-abc", "file-seed", "file-bad-json"])
    def test_malformed_value_is_config_error(self, argv, text, named, tmp_path, capsys):
        if text is not None:
            (tmp_path / "c.cfg").write_text(text)
            argv = argv + ["--config", str(tmp_path / "c.cfg")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and named in err
