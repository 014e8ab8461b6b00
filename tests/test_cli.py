import json
import logging
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import paleoxval as px
from paleoxval import io as pio
from paleoxval.cli import main
from conftest import read_report, write_config


def read_csv_bytes(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}


def run_cli_process(argv: list[str], cpus: set[int] | None = None) -> subprocess.CompletedProcess:
    """paleo-xval in a child interpreter, so that a traceback reaches its stderr;
    ``cpus`` pins the child, and so its block pool, to those CPUs."""
    src = str(Path(px.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    pin = None if cpus is None else lambda: os.sched_setaffinity(0, cpus)
    return subprocess.run([sys.executable, "-m", "paleoxval", *argv], capture_output=True,
                          text=True, env=env, timeout=120, preexec_fn=pin)


def series_groups(svg_path: Path) -> list:
    tree = ET.parse(svg_path)     # also proves the SVG is well-formed XML
    return [g for g in tree.iter() if g.tag.endswith("g") and g.get("class") == "series"]


class TestCrossval:
    def test_noise_only_single_row(self, tmp_path):
        target = pio.save_target(px.smooth_target(40, seed=1), tmp_path / "t.csv")
        config = write_config(tmp_path / "c.json", target, n_v=10)
        assert main(["crossval", "--config", str(config)]) == 0
        lines = (tmp_path / "out" / "summary.csv").read_text().strip().splitlines()
        assert lines[0] == "label,mean_rmse"
        assert len(lines) == 2 and lines[1].startswith("white,")
        assert (tmp_path / "out" / "blocks_white.csv").exists()
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_missing_target_names_path(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", tmp_path / "nope.csv")
        assert main(["crossval", "--config", str(config)]) == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_persistent_noise_beats_white(self, small_config, tmp_path):
        write_config(small_config, tmp_path / "target.csv",
                     noise_experiments=[{"kind": "ar1", "phi": 0.99}])
        assert main(["crossval", "--config", str(small_config)]) == 0
        summary = (tmp_path / "out" / "summary.csv").read_text().strip().splitlines()
        assert summary[1].startswith("ar1_0.99,")      # sorted ascending by RMSE
        assert summary[2].startswith("white,")

    def test_proxy_file_source(self, tmp_path, y60):
        target = pio.save_target(y60, tmp_path / "t.csv")
        X = px.generate(px.NoiseSpec(kind="ar1", n=60, p=4, seed=33, phi=0.8))
        proxies = pio.save_proxies(X, y60.years, tmp_path / "p.csv")
        config = write_config(tmp_path / "c.json", target,
                              proxy_source={"file": str(proxies)})
        assert main(["crossval", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "blocks_proxies.csv").exists()

    def test_drop_degenerate_flag_is_a_usage_error(self, small_config, capsys):
        with pytest.raises(SystemExit) as done:
            main(["crossval", "--config", str(small_config), "--drop-degenerate"])
        assert done.value.code == 2
        assert "unrecognized arguments: --drop-degenerate" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["crossval", "--help"])
        flags = [word for word in capsys.readouterr().out.split() if word.startswith("--")]
        assert sorted(set(flags)) == ["--config", "--ensemble", "--help", "--nv", "--out",
                                      "--phi", "--seed"]

    def test_failed_curve_ranks_last(self, tmp_path, y60, capsys):
        # a constant proxy column fails every block, so the proxy curve's mean
        # is NaN: it ranks after every curve with a mean, in the file and on stdout
        target = pio.save_target(y60, tmp_path / "t.csv")
        data = np.column_stack([y60.values, np.full(60, 2.0)])
        proxies = pio.save_proxies(px.ProxyMatrix(data, ("sig", "flat")),
                                   y60.years, tmp_path / "p.csv")
        config = write_config(tmp_path / "c.json", target, mode="permissive",
                              proxy_source={"file": str(proxies)},
                              noise_experiments=[{"kind": "white"}, {"kind": "brownian"},
                                                 {"kind": "ar1", "phi": 0.99}])
        assert main(["crossval", "--config", str(config)]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]]
        labels, means = [r[0] for r in rows], [float(r[1]) for r in rows]
        assert labels[-1] == "proxies" and np.isnan(means[-1])
        assert len(labels) == 4 and means[:-1] == sorted(means[:-1])
        printed = capsys.readouterr().out.strip().splitlines()
        assert [line.split()[0] for line in printed[1:]] == labels

    def test_manifest_rerun_is_identical(self, small_config, tmp_path):
        assert main(["crossval", "--config", str(small_config)]) == 0
        first = read_csv_bytes(tmp_path / "out")
        assert main(["crossval", "--config", str(tmp_path / "out" / "manifest.json")]) == 0
        assert read_csv_bytes(tmp_path / "out") == first


@pytest.fixture(scope="module")
def fig2_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fig2")
    target = pio.save_target(px.smooth_target(60, seed=21), tmp / "t.csv")
    config = write_config(tmp / "c.json", target, output_dir=str(tmp / "out"))
    assert main(["figure2", "--config", str(config)]) == 0
    return tmp / "out"


@pytest.fixture(scope="module")
def limit_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("limit")
    target = pio.save_target(px.smooth_target(60, seed=21), tmp / "t.csv")
    config = write_config(tmp / "c.json", target, output_dir=str(tmp / "out"),
                          limit_repeats=8, p_ladder=[20, 200])
    assert main(["limit", "--config", str(config)]) == 0
    return tmp / "out"


def test_svg_escape_matches_saxutils(tmp_path):
    from xml.sax.saxutils import escape as sax_escape
    from paleoxval import svgplot
    texts = ['a & b < c > d', '"quoted" \'single\'', '&amp; &lt;', 'plain', '']
    for text in texts:
        assert svgplot.escape(text) == sax_escape(text)
        assert svgplot.escape(text, quote=True) == sax_escape(text, {'"': "&quot;"})
    label = 'AR(1) "phi" < 0.9 & > 0'
    path = svgplot.write_svg([svgplot.Series(label, [0, 1], [1, 2])], tmp_path / "e.svg",
                             title="<T&T>", x_label="x > 0", y_label='y "u"')
    groups = series_groups(path)
    assert [g.get("data-label") for g in groups] == [label]


class TestFigure2:
    def test_svg_structure(self, fig2_out):
        groups = series_groups(fig2_out / "figure2.svg")
        # 2 white members + 2 ar1 members as dot groups, then white mean,
        # ar1 mean, limit dashes, kriging line
        assert len(groups) == 8
        labels = [g.get("data-label") for g in groups]
        assert labels.count("white members") == 2
        assert "limit ar1(0.99)" in labels
        assert "kriging ar1(0.99)" in labels

    def test_combined_csv_columns(self, fig2_out):
        cols = read_report(fig2_out / "figure2.csv")
        assert {"block_start", "block_year", "white_mean", "white_scatter",
                "ar1_0_99_mean", "ar1_0_99_scatter", "limit_ar1_0_99",
                "kriging_ar1_0_99"} == set(cols)
        assert len(cols["white_mean"]) == 60 - 12 + 1

    def test_member_csvs_written(self, fig2_out):
        assert (fig2_out / "ensemble_white.csv").exists()
        assert (fig2_out / "ensemble_ar1_0_99.csv").exists()
        assert (fig2_out / "blocks_limit_ar1_0_99.csv").exists()
        assert (fig2_out / "blocks_kriging_ar1_0_99.csv").exists()

    def test_limit_close_to_kriging(self, fig2_out):
        cols = read_report(fig2_out / "figure2.csv")
        lim, krig = cols["limit_ar1_0_99"], cols["kriging_ar1_0_99"]
        rms = np.sqrt(np.mean((lim - krig) ** 2))
        assert rms < 0.1 * lim.mean()

    def test_printed_rms_differences(self, tmp_path, capsys, y60, splits60):
        # the curve lines are rmse over figure2.csv's columns, whose 17 digits
        # are exact; the predictions line pools the limit and kriging blocks
        config = write_config(tmp_path / "c.json", pio.save_target(y60, tmp_path / "t.csv"))
        assert main(["figure2", "--config", str(config)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if "RMS difference" in line]
        cols = read_report(tmp_path / "out" / "figure2.csv")
        Phi = px.ar1_covariance(60, 0.99)
        lim, krig = px.run_curves([px.limit_entry("limit", Phi), px.kriging_entry("kriging", Phi)],
                                  y60, splits60)
        curves = px.rmse(cols["ar1_0_99_mean"], cols["limit_ar1_0_99"])
        lim_krig = px.rmse(cols["limit_ar1_0_99"], cols["kriging_ar1_0_99"])
        pooled = px.rmse(lim.predictions.ravel(), krig.predictions.ravel())
        assert lines == [
            f"phi=0.99: RMS difference, ensemble-mean RMSE vs limit RMSE: {curves:.6g} degC",
            f"phi=0.99: RMS difference, limit vs kriging (RMSE curves):  {lim_krig:.6g} degC",
            f"phi=0.99: RMS difference, limit vs kriging (predictions):  {pooled:.6g} degC",
        ]

    def test_layout_with_proxies_and_two_phis(self, tmp_path, y60):
        target = pio.save_target(y60, tmp_path / "t.csv")
        X = px.generate(px.NoiseSpec(kind="ar1", n=60, p=40, seed=33, phi=0.8))
        proxies = pio.save_proxies(X, y60.years, tmp_path / "p.csv")
        config = write_config(tmp_path / "c.json", target, proxy_source={"file": str(proxies)},
                              phi_list=[0.9, 0.99])
        assert main(["figure2", "--config", str(config)]) == 0
        out = tmp_path / "out"
        labels = [g.get("data-label") for g in series_groups(out / "figure2.svg")]
        assert labels == ["white members"] * 2 + ["ar1(0.9) members"] * 2 + [
            "ar1(0.99) members"] * 2 + [
            "proxies", "white mean",
            "ar1(0.9) mean", "limit ar1(0.9)", "kriging ar1(0.9)",
            "ar1(0.99) mean", "limit ar1(0.99)", "kriging ar1(0.99)"]
        header = (out / "figure2.csv").read_text().splitlines()[0]
        assert header.split(",") == [
            "block_start", "block_year", "proxies", "white_mean", "white_scatter",
            "ar1_0_9_mean", "ar1_0_9_scatter", "limit_ar1_0_9", "kriging_ar1_0_9",
            "ar1_0_99_mean", "ar1_0_99_scatter", "limit_ar1_0_99", "kriging_ar1_0_99"]

    def test_deterministic_rerun(self, tmp_path):
        target = pio.save_target(px.smooth_target(60, seed=21), tmp_path / "t.csv")
        config = write_config(tmp_path / "c.json", target)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["figure2", "--config", str(config), "--out", str(out_a)]) == 0
        assert main(["figure2", "--config", str(config), "--out", str(out_b)]) == 0
        a, b = read_csv_bytes(out_a), read_csv_bytes(out_b)
        assert a == b
        assert (out_a / "figure2.svg").read_bytes() == (out_b / "figure2.svg").read_bytes()


class TestLimit:
    def test_table_rows(self, limit_out):
        cols = read_report(limit_out / "limit_table.csv")
        assert list(cols["p"]) == [20.0, 200.0]
        assert np.all(cols["median_rms_diff_to_limit"] > 0)

    def test_scatter_shrinks_with_p(self, limit_out):
        cols = read_report(limit_out / "limit_scatter.csv")
        small, big = cols["scatter_phi0_99_p20"], cols["scatter_phi0_99_p200"]
        assert np.mean(big < small) >= 0.9

    def test_median_diff_decreases(self, limit_out):
        cols = read_report(limit_out / "limit_table.csv")
        d = cols["median_rms_diff_to_limit"]
        assert d[1] < d[0]

    def test_single_p_entry(self, tmp_path):
        target = pio.save_target(px.smooth_target(40, seed=2), tmp_path / "t.csv")
        config = write_config(tmp_path / "c.json", target, n_v=10, p_ladder=[25])
        assert main(["limit", "--config", str(config)]) == 0
        cols = read_report(tmp_path / "out" / "limit_table.csv")
        assert len(cols["p"]) == 1

    def test_seed_change_moves_medians_within_noise(self, tmp_path):
        target = pio.save_target(px.smooth_target(60, seed=21), tmp_path / "t.csv")
        config = write_config(tmp_path / "c.json", target, limit_repeats=8,
                              p_ladder=[40])
        medians, ses = [], []
        for run, seed in (("s1", 7), ("s2", 7007)):
            out = tmp_path / run
            assert main(["limit", "--config", str(config), "--seed", str(seed),
                         "--out", str(out)]) == 0
            members = read_report(out / "limit_members.csv")["rms_diff_to_limit"]
            medians.append(np.median(members))
            # normal-theory standard error of a median
            ses.append(1.2533 * members.std(ddof=1) / np.sqrt(len(members)))
        assert abs(medians[0] - medians[1]) < 2 * (ses[0] + ses[1])


class TestOverridesAndErrors:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert px.__version__ in capsys.readouterr().out

    def test_bad_config_json(self, tmp_path, capsys):
        bad = tmp_path / "c.json"
        bad.write_text("{not json")
        assert main(["crossval", "--config", str(bad)]) == 1
        assert "JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["config", "target", "proxies"])
    def test_file_not_utf8_is_an_error_without_traceback(self, tmp_path, y60, bad):
        target = pio.save_target(y60, tmp_path / "t.csv")
        X = px.generate(px.NoiseSpec(kind="white", n=60, p=3, seed=5))
        proxies = pio.save_proxies(X, y60.years, tmp_path / "p.csv")
        config = write_config(tmp_path / "c.json", target, proxy_source={"file": str(proxies)})
        path = {"config": config, "target": target, "proxies": proxies}[bad]
        data = path.read_bytes()
        path.write_bytes(data[:1] + b"\xe9" + data[1:])
        done = run_cli_process(["crossval", "--config", str(config)])
        assert done.returncode == 1
        assert done.stderr.startswith(f"error: {path}")
        assert "Traceback" not in done.stderr

    def test_year_outside_int64_is_an_error_without_traceback(self, tmp_path):
        target = tmp_path / "t.csv"
        target.write_text("year,value\n99999999999999999998,0.1\n99999999999999999999,0.2\n")
        config = write_config(tmp_path / "c.json", target)
        done = run_cli_process(["crossval", "--config", str(config)])
        assert done.returncode == 1
        assert done.stderr.startswith(f"error: {target}:2: bad year")
        assert "Traceback" not in done.stderr

    def test_overflowing_target_is_an_error_without_traceback(self, tmp_path):
        # a target near 1e300 overflows the GCV score of every block
        years = np.arange(1, 41)
        target = pio.save_target(px.TimeSeries(years, np.sin(years) * 1e300), tmp_path / "t.csv")
        config = write_config(tmp_path / "c.json", target, n_v=10, noise_columns=50)
        # the error line alone, whatever the worker count: no numpy warning
        usable = sorted(os.sched_getaffinity(0))
        for k in sorted({1, min(2, len(usable))}):
            done = run_cli_process(["crossval", "--config", str(config)], set(usable[:k]))
            assert done.returncode == 1
            assert done.stderr == (
                "error: block at start 0 failed: GCV score not finite on the coarse grid: "
                "target values too large\n")

    def test_negative_seed_override_is_an_error(self, small_config, capsys):
        assert main(["crossval", "--config", str(small_config), "--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error: seed must be at least 0")

    def test_fractional_config_seed_is_an_error(self, tmp_path, y60, capsys):
        target = pio.save_target(y60, tmp_path / "t.csv")
        config = write_config(tmp_path / "c.json", target, seed=1.5)
        assert main(["crossval", "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith("error: seed must be an integer")

    def test_manifest_with_drop_degenerate_is_an_error(self, small_config, tmp_path):
        # every manifest written while drop_degenerate was a key holds it as false
        assert main(["crossval", "--config", str(small_config)]) == 0
        manifest = tmp_path / "out" / "manifest.json"
        blob = json.loads(manifest.read_text())
        blob["config"]["drop_degenerate"] = False
        manifest.write_text(json.dumps(blob, indent=2, sort_keys=True) + "\n")
        done = run_cli_process(["crossval", "--config", str(manifest)])
        assert done.returncode == 1
        assert done.stderr == "error: unknown config keys ['drop_degenerate']\n"

    def test_string_phi_in_config_is_an_error(self, tmp_path, y60, capsys):
        target = pio.save_target(y60, tmp_path / "t.csv")
        config = write_config(tmp_path / "c.json", target,
                              proxy_source={"noise": {"kind": "ar1", "phi": "0.9"}})
        assert main(["crossval", "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith("error: ar1 noise requires a number")

    def test_single_calibration_row_is_an_error(self, small_config, capsys):
        # n_v = n - 1 leaves one calibration row, whose sample std is undefined
        assert main(["crossval", "--config", str(small_config), "--nv", "59"]) == 1
        assert "zero-variance column" in capsys.readouterr().err

    def test_nv_and_seed_overrides(self, small_config, tmp_path):
        out = tmp_path / "o1"
        assert main(["crossval", "--config", str(small_config), "--nv", "15", "--seed", "99",
                     "--ensemble", "5", "--phi", "0.5", "--out", str(out)]) == 0
        cols = read_report(out / "blocks_white.csv")
        assert len(cols["block_rmse"]) == 60 - 15 + 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 99
        assert manifest["config"]["n_v"] == 15
        assert manifest["config"]["ensemble_size"] == 5
        assert manifest["config"]["phi_list"] == [0.5]
        assert manifest["config"]["output_dir"] == str(out.resolve())

    def test_mc_columns_is_ignored_with_one_deprecation_line(self, small_config, tmp_path,
                                                             caplog):
        argv = ["figure2", "--config", str(small_config)]
        assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
        write_config(small_config, tmp_path / "target.csv", psi_mc_columns=5000)
        caplog.clear()
        assert main(argv + ["--out", str(tmp_path / "set")]) == 0
        deprecated = [r for r in caplog.records if "deprecated" in r.getMessage()]
        assert len(deprecated) == 1 and "psi_mc_columns" in deprecated[0].getMessage()
        assert read_csv_bytes(tmp_path / "set") == read_csv_bytes(tmp_path / "plain")
        manifest = json.loads((tmp_path / "set" / "manifest.json").read_text())
        assert manifest["config"]["psi_mc_columns"] == 5000

    def test_mc_columns_is_still_validated(self, small_config, tmp_path, capsys):
        write_config(small_config, tmp_path / "target.csv", psi_mc_columns=999)
        assert main(["figure2", "--config", str(small_config)]) == 1
        assert capsys.readouterr().err.startswith("error: psi_mc_columns must be at least 1000")

    def test_target_mean_warning_only_where_kriging_runs(self, tmp_path, y60, caplog):
        # ridge with an intercept scores a shifted target alike, so only
        # figure2, whose kriging curve assumes a zero mean, warns about it
        shifted = px.TimeSeries(years=y60.years, values=y60.values + 10.0 * y60.values.std())
        config = write_config(tmp_path / "c.json", pio.save_target(shifted, tmp_path / "t.csv"))
        warned = {}
        for command in ("crossval", "limit", "figure2"):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="paleoxval"):
                assert main([command, "--config", str(config),
                             "--out", str(tmp_path / command)]) == 0
            warned[command] = [r.getMessage() for r in caplog.records
                               if "zero-mean target" in r.getMessage()]
        assert warned["crossval"] == warned["limit"] == []
        assert len(warned["figure2"]) == 1
