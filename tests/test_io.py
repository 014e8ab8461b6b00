import json
import tempfile
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import paleoxval as px
from paleoxval import io as pio
from paleoxval.errors import (ConfigError, NonAnnualYears, NonFiniteValue,
                              ParseError, YearMismatch)
from conftest import read_report


def reader_cases(proxy_cases, target_cases):
    """Parametrize values (*case, read) for the reader behind both loaders: read
    returns the proxy data or the target values. A proxy case's id is its values,
    a target case's id starts with "target-"."""
    def params(cases, read, prefix):
        return [pytest.param(*case, read, id=prefix + "-".join(map(str, case)))
                for case in cases]
    return (params(proxy_cases, lambda f: pio.load_proxies(f).data, "")
            + params(target_cases, lambda f: pio.load_target(f).values, "target-"))


class TestLoadTarget:
    def test_minimal(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("year,value\n1850,-0.3\n1851,-0.2\n")
        ts = pio.load_target(f)
        assert ts.n == 2
        assert list(ts.years) == [1850, 1851]
        np.testing.assert_allclose(ts.values, [-0.3, -0.2])

    def test_missing_year_rejected(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("year,value\n1850,-0.3\n1852,-0.2\n")
        with pytest.raises(NonAnnualYears, match=r"t\.csv:3: year 1852 does not follow 1850$"):
            pio.load_target(f)

    def test_nan_value_rejected(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("year,value\n1850,-0.3\n1851,NaN\n")
        with pytest.raises(NonFiniteValue):
            pio.load_target(f)

    @pytest.mark.parametrize("body", [
        "wrong,header\n1850,-0.3\n1851,0.1\n",
        "year,value\n1850\n",
        "year,value\nabc,-0.3\n",
        "year,value\n1850,zzz\n",
        "year,value\n1850,-0.3\n",      # single data row
    ])
    def test_parse_errors(self, tmp_path, body):
        f = tmp_path / "t.csv"
        f.write_text(body)
        with pytest.raises(ParseError):
            pio.load_target(f)

    def test_year_outside_int64_is_a_parse_error(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("year,value\n99999999999999999998,0.1\n99999999999999999999,0.2\n")
        with pytest.raises(ParseError, match="bad year") as info:
            pio.load_target(f)
        assert info.value.line_no == 2

    def test_round_trip_is_exact(self, tmp_path):
        ts = px.smooth_target(40, seed=2)
        back = pio.load_target(pio.save_target(ts, tmp_path / "t.csv"))
        assert np.array_equal(back.values, ts.values)
        assert np.array_equal(back.years, ts.years)


class TestLoadProxies:
    def test_small_matrix(self, tmp_path, y60):
        X = px.generate(px.NoiseSpec(kind="white", n=60, p=3, seed=5))
        path = pio.save_proxies(X, y60.years, tmp_path / "p.csv")
        back = pio.load_proxies(path, expected_years=y60.years)
        assert back.column_ids == X.column_ids
        assert np.array_equal(back.data, X.data)

    def test_year_mismatch(self, tmp_path, y60):
        X = px.generate(px.NoiseSpec(kind="white", n=59, p=2, seed=5))
        path = pio.save_proxies(X, y60.years[:59], tmp_path / "p.csv")
        with pytest.raises(YearMismatch):
            pio.load_proxies(path, expected_years=y60.years)

    def test_year_out_of_order_names_its_line(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("year,a,b\n1850,1,2\n1851,3,4\n\n1851,5,6\n1852,7,8\n")
        with pytest.raises(NonAnnualYears, match=r"p\.csv:5: year 1851 does not follow 1851$"):
            pio.load_proxies(f)

    def test_non_finite_rejected(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("year,a\n1850,1.0\n1851,inf\n")
        with pytest.raises(NonFiniteValue):
            pio.load_proxies(f)

    def test_header_must_start_with_year(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("time,a\n1850,1.0\n1851,2.0\n")
        with pytest.raises(ParseError):
            pio.load_proxies(f)

    def test_full_size_round_trip(self, tmp_path):
        # the documented real-data shape: 149 years x 1138 proxies
        X = px.generate(px.NoiseSpec(kind="ar1", n=149, p=1138, seed=9, phi=0.9))
        years = 1850 + np.arange(149)
        back = pio.load_proxies(pio.save_proxies(X, years, tmp_path / "big.csv"),
                                expected_years=years)
        assert np.array_equal(back.data, X.data)

    @staticmethod
    def _wide(tmp_path, cells, row=2):
        """A 3-row file of 400 proxies whose data row `row` (1-based) holds
        the given cells from column 200 on."""
        lines = ["year," + ",".join(f"p{j}" for j in range(400))]
        for r in range(1, 4):
            vals = [f"{0.25 * j - r:.3f}" for j in range(400)]
            if r == row:
                vals[200:200 + len(cells)] = cells
            lines.append(f"{1849 + r}," + ",".join(vals))
        f = tmp_path / "wide.csv"
        f.write_text("\n".join(lines) + "\n")
        return f

    def test_bad_token_mid_row_names_its_line(self, tmp_path):
        f = self._wide(tmp_path, ["1.5", "abc", "nan"])
        with pytest.raises(ParseError) as info:
            pio.load_proxies(f)
        assert info.value.line_no == 3
        assert "bad value 'abc'" in str(info.value)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_names_its_line(self, tmp_path, token):
        f = self._wide(tmp_path, [token], row=3)
        with pytest.raises(NonFiniteValue) as info:
            pio.load_proxies(f)
        assert f"{f}:4: non-finite value {token!r}" in str(info.value)

    @pytest.mark.parametrize("body, line_no, read", reader_cases([
        ("year,a,b\n1850,1.0,2.0\n1851,1.0\n", 3),   # ragged
        ("year,a,b\n", 1),                              # header only
        ("", 0),                                        # empty
        ("\n\n", 0),                                    # blank lines only
        ("year,a,b\n\n1850,1.0,2.0\n", 3),             # one data row
    ], [
        ("year,value\n1850,1.0\n1851,1.0,2.0\n", 3),
        ("year,value\n", 1),
        ("", 0),
        ("\n\n", 0),
        ("year,valu\udce9\n1850,1.0\n1851,2.0\n", 1),  # a header byte that is not UTF-8
    ]))
    def test_ragged_header_only_and_empty_files(self, tmp_path, body, line_no, read):
        f = tmp_path / "p.csv"
        f.write_bytes(body.encode("utf-8", "surrogateescape"))
        with pytest.raises(ParseError) as info:
            read(f)
        assert info.value.line_no == line_no

    @pytest.mark.parametrize("body, line_no, read", reader_cases([
        ("year,ar1_0.9_00000,b\n18_50,1.0,2.0\n1851,1.0,2.0\n", 2),
        ("year,ar1_0.9_00000,b\n1850,1.0,2.0\n1851,1.0,1_0.5\n", 3),
    ], [
        ("year,value\n18_50,0.1\n1851,1_0.5\n", 2),
        ("year,value\n1850,0.1\n1851,1_0.5\n", 3),
    ]))
    def test_digit_group_underscore_names_its_line(self, tmp_path, body, line_no, read):
        # int() and float() read 18_50 as 1850 and 1_0.5 as 10.5; header ids keep theirs
        f = tmp_path / "p.csv"
        f.write_text(body)
        with pytest.raises(ParseError, match=r"bad (year '18_50'|value '1_0\.5')") as info:
            read(f)
        assert info.value.line_no == line_no
        f.write_text(body.replace("18_50", "1850").replace("1_0.5", "10.5"))
        assert len(read(f)) == 2

    def test_quoted_numeric_field(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text('year,a,"b"\n1850,"1.5",2\n1851," -3e-2 ",4\n')
        X = pio.load_proxies(f)
        assert X.column_ids == ("a", "b")
        assert np.array_equal(X.data, [[1.5, 2.0], [-0.03, 4.0]])

    @pytest.mark.parametrize("body, read", reader_cases([
        ("year,a,b\n\n1850,1.5,2\n\n\n1851,-3,4\n\n",),     # fewer rows than lines
        ("year,a,b\r1850,1.5,2\r1851,-3,4\r",),              # no "\n" to count
        ("year,a,b\r\n1850,1.5,2\r\n1851,-3,4",),            # no final line end
    ], [
        ("year,value\n\n1850,1.5\n\n\n1851,-3\n\n",),
        ("year,value\r1850,1.5\r1851,-3\r",),
        ("year,value\r\n1850,1.5\r\n1851,-3",),
    ]))
    def test_row_count_differs_from_line_count(self, tmp_path, body, read):
        f = tmp_path / "p.csv"
        f.write_bytes(body.encode())
        data = read(f)
        expected = np.array([[1.5, 2.0], [-3.0, 4.0]])
        assert np.array_equal(data, expected if data.ndim == 2 else expected[:, 0])
        assert data.flags.owndata and not data.flags.writeable

    def test_result_is_owned_and_read_only(self, tmp_path, y60):
        X = px.generate(px.NoiseSpec(kind="white", n=60, p=5, seed=1))
        data = pio.load_proxies(pio.save_proxies(X, y60.years, tmp_path / "p.csv")).data
        assert data.base is None and data.flags.owndata
        assert not data.flags.writeable

    def test_peak_memory_at_reference_size(self, tmp_path):
        # 149 x 1138 cells are 3.6 MB of text; holding every token at once
        # (about 12 MiB) or a second copy of the matrix breaks the bound,
        # one row of tokens does not
        X = px.generate(px.NoiseSpec(kind="white", n=149, p=1138, seed=3))

        def peak_bytes(call):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                result = call()
                return result, tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        # the writer converts one row to Python floats at a time: the whole
        # matrix's tolist() alone is about 6 MiB
        path, write_peak = peak_bytes(
            lambda: pio.save_proxies(X, 1850 + np.arange(149), tmp_path / "big.csv"))
        back, read_peak = peak_bytes(lambda: pio.load_proxies(path))
        assert np.array_equal(back.data, X.data)
        assert write_peak <= 2**20
        assert read_peak <= 1.25 * X.data.nbytes + 2**18

    @given(st.integers(0, 2**32))
    def test_value_round_trip_random(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal(5) * 10.0 ** rng.integers(-8, 8)
        texts = [format(v, ".17g") for v in vals]
        assert [float(t) for t in texts] == list(vals)


class TestNotUtf8:
    """A byte that is not UTF-8 is a typed error naming the file (and the line)."""

    def test_proxy_header(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_bytes(b"year,caf\xe9\n1850,1.0\n1851,2.0\n")
        with pytest.raises(ParseError) as info:
            pio.load_proxies(f)
        assert info.value.line_no == 1
        assert str(info.value).startswith(f"{f}:1: not UTF-8")

    def test_target_value_row(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_bytes(b"year,value\n1850,0.1\n1851,0.2\xff\n1852,0.3\n")
        with pytest.raises(ParseError) as info:
            pio.load_target(f)
        assert info.value.line_no == 3

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_line_past_the_first_read_chunk(self, tmp_path, end):
        # the decoder fails on a whole read-ahead chunk; the error still names the line
        header = "year," + ",".join(f"c{j}" for j in range(20))
        rows = [f"{1850 + r}," + ",".join(["0.123456789"] * 20) for r in range(400)]
        lines = [line.encode() for line in [header, *rows]]     # about 96 kB
        lines[301] = lines[301].replace(b"0.1", b"0.\xe91", 1)
        f = tmp_path / "p.csv"
        f.write_bytes(end.encode().join(lines) + end.encode())
        with pytest.raises(ParseError) as info:
            pio.load_proxies(f)
        assert info.value.line_no == 302

    def test_config(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_bytes(b'{"target": "t\xe9.csv", "proxy_source": {"noise": {"kind": "white"}}}')
        with pytest.raises(ConfigError, match="c.json"):
            pio.load_config(f)


class TestReports:
    def _report(self, starts, label="demo"):
        starts = np.asarray(starts)
        rng = np.random.default_rng(0)
        vals = rng.uniform(0.1, 0.5, len(starts))
        return px.ExperimentReport(label=label, block_starts=starts, block_rmse=vals,
                                   per_block_lambda=rng.uniform(0.1, 10, len(starts)),
                                   predictions=rng.uniform(-1, 1, (len(starts), 3)))

    def test_single_block_csv_has_two_lines(self, tmp_path, y60):
        path = pio.write_report(self._report([4]), tmp_path, y60.years)
        text = path.read_text()
        assert len(text.strip().splitlines()) == 2
        assert text.splitlines()[0] == "block_start,block_year,block_rmse,lambda"

    def test_round_trip_and_year_column(self, tmp_path, y60):
        rep = self._report(np.arange(10))
        path = pio.write_report(rep, tmp_path, y60.years)
        cols = read_report(path)
        assert np.array_equal(cols["block_rmse"], rep.block_rmse)
        assert np.array_equal(cols["lambda"], rep.per_block_lambda)
        assert cols["block_year"][0] == y60.years[0]

    def test_report_bytes(self, tmp_path):
        # the exact text every report writer produces: 17 significant digits,
        # "nan" for a dropped block, "\n" line ends
        rep = px.ExperimentReport(label="Demo Run", block_starts=[0, 1, 2],
                                  block_rmse=[0.1, np.nan, 0.25],
                                  per_block_lambda=[1e-8, np.nan, 3.0],
                                  predictions=[[0.5], [np.nan], [0.25]])
        assert rep.mean_rmse == 0.175
        path = pio.write_report(rep, tmp_path, [1850, 1851, 1852])
        assert path.name == "blocks_demo_run.csv"
        assert path.read_text() == ("block_start,block_year,block_rmse,lambda\n"
                                    "0,1850,0.10000000000000001,1e-08\n"
                                    "1,1851,nan,nan\n"
                                    "2,1852,0.25,3\n")
        member = px.ExperimentReport(label="m", block_starts=[0, 1, 2],
                                     block_rmse=[0.3, 0.5, 1 / 3],
                                     per_block_lambda=[1.0, 1.0, 1.0],
                                     predictions=[[0.0], [0.0], [0.0]])
        ens_path = pio.write_ensemble("White", [rep, member], [0.2, np.nan, 7 / 24],
                                      [0.5, np.nan, 2e-17], tmp_path, [1850, 1851, 1852])
        assert ens_path.name == "ensemble_white.csv"
        assert ens_path.read_text() == (
            "block_start,block_year,member_000,member_001,mean,scatter\n"
            "0,1850,0.10000000000000001,0.29999999999999999,0.20000000000000001,0.5\n"
            "1,1851,nan,0.5,nan,nan\n"
            "2,1852,0.25,0.33333333333333331,0.29166666666666669,2.0000000000000001e-17\n")

    def test_target_and_proxy_bytes(self, tmp_path):
        ts = px.TimeSeries(years=[1850, 1851], values=[-0.3, 1 / 3])
        assert pio.save_target(ts, tmp_path / "t.csv").read_text() == (
            "year,value\n1850,-0.29999999999999999\n1851,0.33333333333333331\n")
        X = px.ProxyMatrix(np.array([[1.0, 0.1], [2.5, -1e-20]]), ("a", "b,c"))
        assert pio.save_proxies(X, [1850, 1851], tmp_path / "p.csv").read_text() == (
            'year,a,"b,c"\n1850,1,0.10000000000000001\n1851,2.5,-9.9999999999999995e-21\n')
        # signed zero, subnormals, the largest float and integral values
        # print as format(x, ".17g") does, and read back bit for bit
        edge = np.array([[-0.0, 5e-324, 2.5e-310], [1.7976931348623157e308, 3.0, 1e16]])
        path = pio.save_proxies(px.ProxyMatrix(edge, ("a", "b", "c")), [1850, 1851],
                                tmp_path / "edge.csv")
        assert path.read_text() == "year,a,b,c\n" + "".join(
            ",".join([str(year), *(format(x, ".17g") for x in row)]) + "\n"
            for year, row in zip([1850, 1851], edge.tolist()))
        assert np.array_equal(pio.load_proxies(path).data.view(np.uint64), edge.view(np.uint64))

    def test_ensemble_csv_layout(self, tmp_path, y60, splits60):
        spec = px.NoiseSpec(kind="white", n=60, p=4, seed=3)
        done = px.run_curves(px.ensemble_entries(spec, 2), y60, splits60[:4])
        mean, scatter = px.ensemble_stats(done)
        cols = read_report(pio.write_ensemble(spec.label, done, mean, scatter, tmp_path,
                                              y60.years))
        assert set(cols) == {"block_start", "block_year", "member_000", "member_001", "mean",
                             "scatter"}
        assert len(cols["mean"]) == 4
        np.testing.assert_allclose(cols["mean"],
                                   (cols["member_000"] + cols["member_001"]) / 2,
                                   rtol=1e-15)


class TestConfig:
    def test_defaults_match_reference_design(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"target": "t.csv",
                                 "proxy_source": {"noise": {"kind": "white"}}}))
        config = pio.load_config(f)
        assert config.n_v == 30
        assert config.ensemble_size == 100
        assert config.psi_mc_columns is None     # deprecated: exact Psi needs no columns
        assert config.phi_list == (0.99,)
        assert config.mode == "strict"

    def test_relative_paths_resolve_against_config(self, tmp_path):
        sub = tmp_path / "sub"
        sub.mkdir()
        f = sub / "c.json"
        f.write_text(json.dumps({"target": "t.csv",
                                 "proxy_source": {"file": "p.csv"},
                                 "output_dir": "results"}))
        config = pio.load_config(f)
        assert config.target == str(sub / "t.csv")
        assert config.proxy_source == str(sub / "p.csv")
        assert config.output_dir == str(sub / "results")

    @pytest.mark.parametrize("body", [
        {"proxy_source": {"noise": {"kind": "white"}}},                    # no target
        {"target": "t.csv"},                                               # no source
        {"target": "t.csv", "proxy_source": {"noise": {"kind": "zzz"}}},
        {"target": "t.csv", "proxy_source": {"noise": {"kind": "white"}}, "mode": "loose"},
        {"target": "t.csv", "proxy_source": {"noise": {"kind": "white"}}, "phi_list": [1.5]},
        {"target": "t.csv", "proxy_source": {"noise": {"kind": "white"}}, "bogus": 1},
        {"target": "t.csv", "proxy_source": {"file": "a", "noise": {"kind": "white"}}},
        {"target": "t.csv", "proxy_source": {"noise": {"kind": "white"}}, "seed": -1},
        {"target": "t.csv", "proxy_source": {"noise": {"kind": "white"}}, "seed": 1.5},
        {"target": "t.csv", "proxy_source": {"noise": {"kind": "white"}}, "seed": True},
        {"target": "t.csv", "proxy_source": {"noise": {"kind": "white"}}, "seed": "7"},
        {"target": "t.csv", "proxy_source": {"noise": {"kind": "white"}}, "n_v": 12.0},
        {"target": "t.csv", "proxy_source": {"noise": {"kind": "white"}}, "ensemble_size": False},
        {"target": "t.csv", "proxy_source": {"noise": {"kind": "white"}}, "psi_mc_columns": 2e3},
        {"target": "t.csv", "proxy_source": {"noise": {"kind": "white"}}, "noise_columns": 0},
        {"target": "t.csv", "proxy_source": {"noise": {"kind": "white"}}, "p_ladder": [100, 1.5]},
        {"target": "t.csv", "proxy_source": {"noise": {"kind": "white"}}, "limit_repeats": 2.5},
        {"target": "t.csv", "proxy_source": {"noise": {"kind": "white", "p": 1.5}}},
        {"target": "t.csv", "proxy_source": {"noise": {"kind": "white"}}, "n_v": 1},
        # an unknown key, whatever its value
        {"target": "t.csv", "proxy_source": {"noise": {"kind": "white"}}, "drop_degenerate": "no"},
        {"target": "t.csv", "proxy_source": {"noise": {"kind": "white"}}, "drop_degenerate": 1},
        {"target": "t.csv", "proxy_source": {"noise": {"kind": "white"}}, "phi_list": ["0.5"]},
        {"target": "t.csv", "proxy_source": {"noise": {"kind": "white"}}, "phi_list": [True]},
        {"target": "t.csv", "proxy_source": {"noise": {"kind": "white"}}, "phi_list": 0.5},
        {"target": "t.csv", "proxy_source": {"noise": {"kind": "ar1", "phi": "0.9"}}},
        {"target": "t.csv", "proxy_source": {"noise": {"kind": "ar1", "phi": False}}},
        {"target": "t.csv", "proxy_source": {"file": 7}},
        {"target": "t.csv", "proxy_source": {"noise": {"kind": "white"}},
         "noise_experiments": [{"kind": "ar1", "phi": "0.9"}]},
        # repeated labels would overwrite each other's files and columns
        {"target": "t.csv", "proxy_source": {"noise": {"kind": "white"}}, "phi_list": [0.9, 0.9]},
        {"target": "t.csv", "proxy_source": {"noise": {"kind": "white"}},
         "phi_list": [0.5, 0.5000001]},
        {"target": "t.csv", "proxy_source": {"noise": {"kind": "white"}}, "p_ladder": [20, 20]},
    ])
    def test_invalid_configs(self, tmp_path, body):
        f = tmp_path / "c.json"
        f.write_text(json.dumps(body))
        with pytest.raises(ConfigError):
            pio.load_config(f)

    @pytest.mark.parametrize("body, message", [
        ({"proxy_source": {"noise": {"kind": "white", "sigma": 1}}},
         "proxy_source.noise: unknown keys ['sigma']"),
        ({"proxy_source": {"noise": {"kind": "ar1", "phi": 0.9, "p": 17}}},
         "proxy_source.noise: unknown keys ['p']"),
        ({"proxy_source": {"noise": {"phi": 0.9}}},
         "proxy_source.noise: expected an object with a 'kind', got {'phi': 0.9}"),
        ({"proxy_source": {"noise": "white"}},
         "proxy_source.noise: expected an object with a 'kind', got 'white'"),
        ({"noise_experiments": ["white"]},
         "noise_experiments[0]: expected an object with a 'kind', got 'white'"),
        ({"noise_experiments": [{"kind": "white"}, {"kind": "white", "colour": "pink"}]},
         "noise_experiments[1]: unknown keys ['colour']"),
    ], ids=["sigma", "p", "no-kind", "string-source", "string-entry", "colour"])
    def test_bad_noise_entry_names_its_place_and_key(self, tmp_path, body, message):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"target": "t.csv",
                                 "proxy_source": {"noise": {"kind": "white"}}, **body}))
        with pytest.raises(ConfigError) as err:
            pio.load_config(f)
        assert str(err.value) == message

    @pytest.mark.parametrize("body, message", [
        ({"noise_experiments": 5}, "noise_experiments must be an array, got number"),
        ({"noise_experiments": {"kind": "white"}},
         "noise_experiments must be an array, got object"),
        ({"phi_list": 0.5}, "phi_list must be an array, got number"),
        ({"p_ladder": 7}, "p_ladder must be an array, got number"),
        ({"target": 7}, "target must be a path string, got number"),
        ({"output_dir": ["out"]}, "output_dir must be a path string, got array"),
        ({"proxy_source": {"file": None}}, "proxy_source.file must be a path string, got null"),
    ], ids=["noise-scalar", "noise-object", "phi-scalar", "ladder-scalar", "target-number",
            "output-array", "file-null"])
    def test_wrong_json_type_names_the_key_and_type(self, tmp_path, body, message):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"target": "t.csv",
                                 "proxy_source": {"noise": {"kind": "white"}}, **body}))
        with pytest.raises(ConfigError) as err:
            pio.load_config(f)
        assert str(err.value) == message

    def test_readme_config_example_shows_the_defaults(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        schema = readme.split("### Config schema", 1)[1]
        obj = json.loads(schema.split("```json\n", 1)[1].split("```", 1)[0])
        config = pio.config_from_dict(obj, tmp_path)
        defaults = pio.ExperimentConfig(target="t.csv", proxy_source="p.csv", output_dir="o")
        named = {"target", "proxy_source", "output_dir", "noise_experiments", "psi_mc_columns"}
        assert set(obj) == {f.name for f in fields(pio.ExperimentConfig)}
        for key in set(obj) - named:
            assert getattr(config, key) == getattr(defaults, key), key

    def test_proxy_source_is_a_path_string_or_noise(self, tmp_path):
        with pytest.raises(ConfigError, match="proxy_source must be"):
            pio.ExperimentConfig(target="t.csv", proxy_source=tmp_path / "p.csv",
                                 output_dir="out")

    @pytest.mark.parametrize("field", ["target", "output_dir"])
    @pytest.mark.parametrize("value", [Path("t.csv"), 7], ids=["path", "int"])
    def test_target_and_output_dir_are_path_strings(self, field, value):
        fields = {"target": "t.csv", "output_dir": "out", field: value}
        with pytest.raises(ConfigError, match=f"{field} must be a path string"):
            pio.ExperimentConfig(proxy_source=pio.NoiseSource("white"), **fields)

    def test_deprecated_mc_columns_key_is_kept(self, tmp_path):
        body = {"target": "t.csv", "proxy_source": {"noise": {"kind": "white"}}}
        f = tmp_path / "c.json"
        f.write_text(json.dumps(body))
        assert "psi_mc_columns" not in pio.config_to_dict(pio.load_config(f))
        f.write_text(json.dumps({**body, "psi_mc_columns": 100_000}))
        config = pio.load_config(f)
        assert config.psi_mc_columns == 100_000
        assert pio.config_to_dict(config)["psi_mc_columns"] == 100_000
        f.write_text(json.dumps({**body, "psi_mc_columns": 999}))
        with pytest.raises(ConfigError):
            pio.load_config(f)

    def test_manifest_round_trip(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({
            "target": str(tmp_path / "t.csv"),
            "proxy_source": {"noise": {"kind": "ar1", "phi": 0.9}},
            "noise_experiments": [{"kind": "brownian"}],
            "seed": 99, "n_v": 12, "output_dir": str(tmp_path / "out"),
        }))
        config = pio.load_config(f)
        manifest = pio.write_manifest(tmp_path / "out", "crossval", config,
                                      [tmp_path / "out" / "summary.csv"])
        assert pio.load_config(manifest) == config
        blob = json.loads(manifest.read_text())
        assert blob["version"] == px.__version__
        assert blob["config"]["seed"] == 99
        assert blob["outputs"] == ["summary.csv"]

    def test_manifest_bytes(self, tmp_path):
        # a file-source config with the deprecated key set, as perfbench writes
        f = tmp_path / "c.json"
        f.write_text(json.dumps({
            "target": "/data/target.csv",
            "proxy_source": {"file": "/data/proxies.csv"},
            "noise_experiments": [{"kind": "white"}, {"kind": "ar1", "phi": 0.9}],
            "n_v": 12, "ensemble_size": 3, "seed": 99, "phi_list": [0.5, 0.99],
            "psi_mc_columns": 8000, "noise_columns": 40, "p_ladder": [20, 100],
            "limit_repeats": 2, "mode": "permissive",
            "output_dir": "/data/out",
        }))
        manifest = pio.write_manifest(tmp_path / "out", "figure2", pio.load_config(f),
                                      [tmp_path / "figure2.csv", tmp_path / "figure2.svg"])
        assert manifest.read_text() == """{
  "command": "figure2",
  "config": {
    "ensemble_size": 3,
    "limit_repeats": 2,
    "mode": "permissive",
    "n_v": 12,
    "noise_columns": 40,
    "noise_experiments": [
      {
        "kind": "white"
      },
      {
        "kind": "ar1",
        "phi": 0.9
      }
    ],
    "output_dir": "/data/out",
    "p_ladder": [
      20,
      100
    ],
    "phi_list": [
      0.5,
      0.99
    ],
    "proxy_source": {
      "file": "/data/proxies.csv"
    },
    "psi_mc_columns": 8000,
    "seed": 99,
    "target": "/data/target.csv"
  },
  "outputs": [
    "figure2.csv",
    "figure2.svg"
  ],
  "tool": "paleo-xval",
  "version": "%s"
}
""" % px.__version__

    @given(st.data())
    def test_every_field_round_trips_through_a_manifest(self, data):
        paths = st.lists(st.text("abc_.-", min_size=1, max_size=4), min_size=1,
                         max_size=3).map(lambda parts: "/" + "/".join(parts))
        noise = (st.builds(pio.NoiseSource, kind=st.sampled_from(["white", "brownian"]))
                 | st.builds(pio.NoiseSource, kind=st.just("ar1"),
                             phi=st.floats(0, 1, exclude_max=True)))
        phi = st.floats(0, 1, exclude_min=True, exclude_max=True)
        config = data.draw(st.builds(
            pio.ExperimentConfig,
            target=paths,
            proxy_source=paths | noise,
            output_dir=paths,
            noise_experiments=st.lists(noise, max_size=3),
            n_v=st.integers(2, 10**4),
            ensemble_size=st.integers(1, 10**4),
            seed=st.integers(0, 2**64),
            phi_list=st.lists(phi, min_size=1, max_size=3, unique_by=lambda x: f"{x:g}"),
            psi_mc_columns=st.none() | st.integers(1000, 10**6),
            noise_columns=st.integers(1, 10**5),
            p_ladder=st.lists(st.integers(1, 10**5), max_size=4, unique=True),
            limit_repeats=st.integers(1, 100),
            mode=st.sampled_from(["strict", "permissive"]),
        ))
        with tempfile.TemporaryDirectory() as out:
            assert pio.load_config(pio.write_manifest(out, "limit", config, [])) == config
