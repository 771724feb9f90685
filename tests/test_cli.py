import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from projlab import cli
from projlab.util import fit_line


def write_config(tmp_path, text):
    p = tmp_path / "run.ini"
    p.write_text(text)
    return str(p)


def read_single_report(out_dir):
    reports = sorted(out_dir.glob("report_*.json"))
    reports = [p for p in reports if not p.name.endswith(".meta.json")]
    assert len(reports) == 1
    return json.loads(reports[0].read_text())


def test_help_lists_all_subcommands(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["--help"])
    assert e.value.code == 0
    out = capsys.readouterr().out
    for name in cli.EXPERIMENT_NAMES:
        assert name in out
    assert len(cli.EXPERIMENT_NAMES) == 9


def test_bad_height_is_reported_by_key(tmp_path, capsys):
    cfg = write_config(tmp_path, "[manifold]\nc = 1.5\n")
    rc = cli.main(["manifold-info", "--config", cfg])
    assert rc == 2
    err = capsys.readouterr().err
    assert "manifold.c" in err
    assert "outside the admissible range (-1,0) u (0,1)" in err


def test_all_config_errors_collected(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "[run]\nbogus = 1\nseed = -4\n"
        "[manifold]\nn = 2\nwhat = x\n"
        "[project-dim]\nquantile = 1.5\nmystery = 7\n"
        "[leftovers]\na = 1\n",
    )
    rc = cli.main(["project-dim", "--config", cfg])
    assert rc == 2
    err = capsys.readouterr().err
    for frag in (
        "run.bogus",
        "run.seed",
        "manifold.n",
        "manifold.what",
        "project-dim.quantile",
        "project-dim.mystery",
        "leftovers: unknown section",
    ):
        assert frag in err


def test_missing_config_file(tmp_path, capsys):
    rc = cli.main(["manifold-info", "--config", str(tmp_path / "nope.ini")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_no_experiment_selected(capsys):
    rc = cli.main([])
    assert rc == 2
    assert "no experiment selected" in capsys.readouterr().err


def test_window_and_band_and_constant_translation(tmp_path):
    cfg = write_config(
        tmp_path,
        "[run]\nexperiments = project-dim\n"
        "[project-dim]\nk_min = 5\nk_max = 9\nband_lo = 0.7\nband_hi = 0.9\n"
        "[config-bound]\ns = 0.5\nc_const = 2.0\n",
    )
    parsed = cli.parse_config(cfg)
    assert parsed.params["project-dim"]["k_window"] == (5, 9)
    assert parsed.params["project-dim"]["band"] == (0.7, 0.9)
    assert parsed.params["config-bound"]["C"] == 2.0
    assert "c_const" not in parsed.params["config-bound"]


def test_short_window_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "[project-dim]\nk_min = 5\nk_max = 7\n")
    rc = cli.main(["project-dim", "--config", cfg])
    assert rc == 2
    assert "shorter than 4 scales" in capsys.readouterr().err


def test_product_axes_grammar(tmp_path):
    cfg = write_config(
        tmp_path,
        "[fractal]\nplacement = product-axes\n"
        "axes = cantor:2:0.25:6 point uniform:128\n"
        "rotate_to_x = 0.5\n",
    )
    parsed = cli.parse_config(cfg)
    assert parsed.fractal["axes"] == [("cantor", 2, 0.25, 6), ("point",), ("uniform", 128)]
    assert parsed.fractal["rotate_to_x"] == [0.5]


def test_bad_axis_spec_and_misplaced_rotation(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "[fractal]\nplacement = product-axes\naxes = cantor:2 uniform:x\n",
    )
    rc = cli.main(["project-dim", "--config", cfg])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad axis spec 'cantor:2'" in err
    assert "bad axis spec 'uniform:x'" in err

    cfg2 = write_config(tmp_path, "[fractal]\nplacement = axis\nrotate_to_x = 0.5\n")
    rc = cli.main(["project-dim", "--config", cfg2])
    assert rc == 2
    assert "only valid with product-axes" in capsys.readouterr().err


def test_defaults_without_config_sections(tmp_path):
    cfg = write_config(tmp_path, "[run]\nexperiments = manifold-info\n")
    parsed = cli.parse_config(cfg)
    assert parsed.manifold == {"kind": "cap", "n": 3, "c": 0.6}
    assert parsed.fractal is None
    assert parsed.seed == 0
    assert parsed.out_dir == "reports"


def test_run_writes_report_and_exits_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, "[manifold-info]\nsamples = 300\n")
    out = tmp_path / "out"
    rc = cli.main(["manifold-info", "--config", cfg, "--out-dir", str(out), "--seed", "3"])
    assert rc == 0
    assert "manifold-info: pass" in capsys.readouterr().out
    rep = read_single_report(out)
    assert rep["verdict"] == "pass"
    assert rep["seed"] == 3
    assert "out_dir" not in rep["config"]["run"]
    (meta,) = out.glob("*.meta.json")
    assert json.loads(meta.read_text())["out_dir"] == str(out)
    assert sorted(out.glob("raw_*.csv"))


def test_two_experiments_two_reports(tmp_path):
    cfg = write_config(
        tmp_path,
        "[run]\nexperiments = manifold-info cinematic-check\nseed = 5\n"
        f"out_dir = {tmp_path / 'multi'}\n"
        "[manifold-info]\nsamples = 200\n"
        "[cinematic-check]\npairs = 150\ngrid = 33\n",
    )
    rc = cli.main(["--config", cfg])
    assert rc == 0
    names = {p.name.split("_")[1] for p in (tmp_path / "multi").glob("report_*.json")
             if not p.name.endswith(".meta.json")}
    assert names == {"manifold-info", "cinematic-check"}


def test_failing_tolerance_gives_exit_one(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "[cinematic-check]\npairs = 150\ngrid = 33\nhi_lo_max = 1.001\n"
    )
    out = tmp_path / "out"
    rc = cli.main(["cinematic-check", "--config", cfg, "--out-dir", str(out)])
    assert rc == 1
    assert "cinematic-check: fail" in capsys.readouterr().out
    rep = read_single_report(out)
    assert rep["verdict"] == "fail"
    assert rep["status"] == "complete"


def test_flat_ring_profile_does_not_pass(tmp_path, capsys):
    # the default n = 4 incidence-count counts the same mean number of
    # points in every ring, and a flat profile explains nothing however its
    # mean rounds: 1.625 rounds back exactly, 1.375 does not
    for value in (1.625, 1.375):
        assert fit_line(np.arange(5.0), np.full(5, math.log2(value))).r2 == 0.0
    cfg = write_config(tmp_path, "[manifold]\nn = 4\n")
    out = tmp_path / "out"
    rc = cli.main(["incidence-count", "--config", cfg, "--out-dir", str(out), "--seed", "2026"])
    assert rc == 1
    rep = read_single_report(out)
    rings = {m["value"] for m in rep["measurements"] if m["quantity"].startswith("ring_count_r")}
    assert len(rings) == 1
    assert rep["verdict"] == "insufficient" and rep["fits"]["r2"] == 0.0


def test_default_n4_project_dim_passes(tmp_path, capsys):
    # frame rows that stretch the tangent plane unevenly spread the image
    # dimensions of the 0.8-dimensional default dust out of the band
    cfg = write_config(tmp_path, "[manifold]\nn = 4\n")
    out = tmp_path / "out"
    rc = cli.main(["project-dim", "--config", cfg, "--out-dir", str(out), "--seed", "2026"])
    assert rc == 0
    rep = read_single_report(out)
    assert rep["verdict"] == "pass"
    assert rep["fits"]["in_band_fraction"] >= 0.95


def test_config_bound_without_its_section_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["config-bound", "--seed", "2026", "--out-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config-bound.s: required key missing" in err
    assert "config-bound.s_prime: required key missing" in err
    assert not out.exists()


def test_chart_failing_its_hypotheses_is_a_config_error(tmp_path, capsys):
    # the default amplitude 0.01 breaks one-signed curvature at n = 4
    cfg = write_config(tmp_path, "[manifold]\nkind = perturbed-cap\nn = 4\n")
    out = tmp_path / "out"
    rc = cli.main(["manifold-info", "--config", cfg, "--out-dir", str(out)])
    assert rc == 2
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line.startswith("config error: manifold: ")
    assert "least principal curvature" in line
    assert not out.exists()


def test_runtime_error_gives_exit_two_and_aborted_report(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "[config-bound]\ns = 0.5\ns_prime = 0.5\nc_const = 0.25\n"
    )
    out = tmp_path / "out"
    rc = cli.main(["config-bound", "--config", cfg, "--out-dir", str(out)])
    assert rc == 2
    assert "runtime error" in capsys.readouterr().err
    rep = read_single_report(out)
    assert rep["status"] == "aborted"
    assert rep["verdict"] == "fail"
    assert "ConfigurationError" in rep["error"]


def test_flag_overrides_positional(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(
        ["cinematic-check", "--experiment", "manifold-info", "--out-dir", str(out)]
    )
    assert rc == 0
    rep = read_single_report(out)
    assert rep["experiment"] == "manifold-info"
    capsys.readouterr()


def test_negative_seed_flag_rejected(capsys):
    rc = cli.main(["manifold-info", "--seed", "-1"])
    assert rc == 2
    assert "--seed" in capsys.readouterr().err


def test_bad_threads_rejected(tmp_path, capsys):
    # there is no thread option: both spellings are unknown
    with pytest.raises(SystemExit) as e:
        cli.main(["manifold-info", "--threads", "1"])
    assert e.value.code == 2
    assert "--threads" in capsys.readouterr().err
    cfg = write_config(tmp_path, "[run]\nthreads = 1\n")
    rc = cli.main(["manifold-info", "--config", cfg])
    assert rc == 2
    assert "run.threads: unknown key" in capsys.readouterr().err


def test_every_schema_constraint_has_a_predicate():
    named = {c for schema in cli._SCHEMAS.values() for _, c in schema.values()}
    assert named - {None} <= set(cli._CONSTRAINTS)


def test_non_finite_scales_are_not_dyadic(tmp_path, capsys):
    cfg = write_config(tmp_path, "[pair-volume]\ndeltas = 0.25, inf, nan\n")
    rc = cli.main(["pair-volume", "--config", cfg])
    assert rc == 2
    err = capsys.readouterr().err
    assert "pair-volume.deltas: value inf outside dyadic" in err
    assert "pair-volume.deltas: value nan outside dyadic" in err
    assert "0.25" not in err


def test_s_grid_at_or_above_ambient_dimension_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "[manifold]\nn = 3\n[exceptional-set]\ns_grid = 0.5, 3.0\n")
    rc = cli.main(["exceptional-set", "--config", cfg])
    assert rc == 2
    err = capsys.readouterr().err
    assert "exceptional-set.s_grid: value 3.0" in err
    assert "value 0.5" not in err
    ok = write_config(tmp_path, "[manifold]\nn = 4\n[exceptional-set]\ns_grid = 3.5\n")
    assert cli.parse_config(ok).params["exceptional-set"]["s_grid"] == [3.5]


def test_identical_runs_are_byte_identical(tmp_path, capsys):
    # the second run writes to another directory: out_dir is not in the bytes
    cfg = write_config(tmp_path, "[manifold-info]\nsamples = 250\n")
    outs = []
    for out in (tmp_path / "out", tmp_path / "elsewhere"):
        rc = cli.main(["manifold-info", "--config", cfg, "--out-dir", str(out), "--seed", "7"])
        assert rc == 0
        reports = [p for p in out.glob("report_*.json") if not p.name.endswith(".meta.json")]
        (csv,) = out.glob("raw_manifold-info_*.csv")
        outs.append((reports[0].read_bytes(), csv.read_bytes()))
    capsys.readouterr()
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]


def run_python(*args):
    """A child interpreter that imports the projlab this process imported."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_console_entry_point_runs():
    proc = run_python("-m", "projlab.cli", "--help")
    assert proc.returncode == 0
    assert "projlab" in proc.stdout


def test_cli_import_loads_no_scipy():
    code = ("import sys, projlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_pair_volume_run_loads_no_scipy(tmp_path):
    cfg = write_config(tmp_path, "[pair-volume]\npairs_per_u = 1\nsamples = 20000\n")
    code = ("import sys; from projlab.cli import main; "
            f"rc = main(['pair-volume', '--config', {cfg!r}, '--out-dir', {str(tmp_path)!r}]); "
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 []"


def test_cone_incidence_run_loads_no_numpy_ma(tmp_path):
    # np.median imports numpy.ma on its first call
    cfg = write_config(tmp_path, "[cone-incidence]\nsweep_lines = 2\ncheck_lines = 2\n"
                                 "samples = 4000\n")
    code = ("import sys; from projlab.cli import main; "
            f"rc = main(['cone-incidence', '--config', {cfg!r}, '--out-dir', {str(tmp_path)!r}]); "
            "print(rc, 'numpy.ma' in sys.modules)")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 False"
