import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdecanc import (
    PcbBoardParams,
    PcbTapConfig,
    SynthChannelSpec,
    amplitude_db,
    load_si_channel,
    pcb_bpf_response_abcd,
    save_si_channel,
    synth_si_channel,
)
from fdecanc import UndefinedGainError, uldl_surface
from fdecanc.cli import UsageError, _db_linear, build_parser, main
from fdecanc.core import ComplexResponse, FrequencyGrid


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


class TestModelCommand:
    def test_ideal_csv(self, tmp_path):
        out = tmp_path / "m.csv"
        rc = main(
            [
                "model", "--kind", "ideal", "--amp-db", "-20", "--fc", "900e6",
                "--q", "10", "--band", "890e6:910e6:101", "--out", str(out),
            ]
        )
        assert rc == 0
        header, rows = read_rows(out)
        assert header == ["freq_hz", "amp_db", "phase_rad", "gd_s"]
        assert len(rows) == 101
        center = rows[50]
        assert float(center[0]) == pytest.approx(900e6)
        assert float(center[1]) == pytest.approx(-20.0, abs=1e-9)

    def test_ideal_missing_fc_is_usage_error(self, tmp_path):
        rc = main(
            ["model", "--kind", "ideal", "--band", "890e6:910e6:11",
             "--out", str(tmp_path / "m.csv")]
        )
        assert rc == 1

    def test_pcb_matches_library_model(self, tmp_path):
        out = tmp_path / "m.csv"
        rc = main(
            [
                "model", "--kind", "pcb", "--amp-db", "-3", "--phase", "0.7",
                "--cf-pf", "1.5", "--cq-pf", "8.0",
                "--band", "850e6:950e6:51", "--out", str(out),
            ]
        )
        assert rc == 0
        _, rows = read_rows(out)
        grid = FrequencyGrid.linspace(850e6, 950e6, 51)
        bare = pcb_bpf_response_abcd(
            PcbTapConfig(-3.0, 0.7, 1.5, 8.0), PcbBoardParams(), grid
        )
        expect = amplitude_db(bare) - 3.0
        got = np.array([float(r[1]) for r in rows])
        assert np.allclose(got, expect, atol=1e-9)

    def test_bad_band_spec(self, tmp_path):
        rc = main(
            ["model", "--kind", "ideal", "--fc", "900e6", "--band", "890e6:910e6",
             "--out", str(tmp_path / "m.csv")]
        )
        assert rc == 1


FIT_FAST = ["--restarts", "2", "--max-iters", "60"]


class TestFitCommand:
    def test_synth_deterministic_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc = main(
                ["fit", "--synth", "--band", "890e6:910e6:41", "--taps", "1",
                 "--seed", "7", *FIT_FAST, "--out-report", str(out)]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_quantized_report_fields(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(
            ["fit", "--synth", "--band", "890e6:910e6:41", "--taps", "1",
             "--quantize", "rfic", *FIT_FAST, "--out-report", str(out)]
        )
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["quantized"] is True
        assert rep["model"] == "ideal"
        assert rep["objective"] >= rep["continuous_objective"]

    @pytest.mark.parametrize(
        "model,preset", [("ideal", None), ("ideal", "rfic"), ("pcb", "pcb")]
    )
    def test_out_csv_rows(self, tmp_path, model, preset):
        out = tmp_path / "r.json"
        csv = tmp_path / "sic.csv"
        quantize = ["--quantize", preset] if preset else []
        rc = main(
            ["fit", "--synth", "--band", "890e6:910e6:21", "--taps", "1",
             "--model", model, *quantize, *FIT_FAST,
             "--out-report", str(out), "--out-csv", str(csv)]
        )
        assert rc == 0
        header, rows = read_rows(csv)
        assert header == ["freq_hz", "sic_db"]
        assert len(rows) == 21
        # the per-point SIC is the residual the report's average is taken of
        sic = np.array([float(r[1]) for r in rows])
        assert np.mean(sic) == json.loads(out.read_text())["avg_sic_db"]

    def test_malformed_channel_exit_2(self, tmp_path):
        ch = tmp_path / "ch.csv"
        ch.write_text("freq_hz,re,im\n900e6,nope,0\n")
        rc = main(
            ["fit", "--channel", str(ch), *FIT_FAST,
             "--out-report", str(tmp_path / "r.json")]
        )
        assert rc == 2

    @pytest.mark.parametrize("name", ["missing.csv", "."])
    def test_unreadable_channel_is_usage_error(
        self, tmp_path, capsys, monkeypatch, name
    ):
        import fdecanc.cli as cli

        def no_compute(*args, **kwargs):
            raise AssertionError("computation started")

        monkeypatch.setattr(cli, "fit_pipeline", no_compute)
        rc = main(
            ["fit", "--channel", str(tmp_path / name), *FIT_FAST,
             "--out-report", str(tmp_path / "r.json")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    def test_channel_with_nonpositive_frequency_is_usage_error(
        self, tmp_path, capsys, monkeypatch
    ):
        import fdecanc.cli as cli

        def no_compute(*args, **kwargs):
            raise AssertionError("computation started")

        monkeypatch.setattr(cli, "fit_pipeline", no_compute)
        ch = tmp_path / "ch.csv"
        grid = FrequencyGrid.linspace(-10e6, 10e6, 11)
        save_si_channel(ch, ComplexResponse(grid, np.ones(grid.count, dtype=complex)))
        rc = main(
            ["fit", "--channel", str(ch), *FIT_FAST,
             "--out-report", str(tmp_path / "r.json")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    def test_no_channel_source_is_usage_error(self, tmp_path):
        rc = main(["fit", "--out-report", str(tmp_path / "r.json")])
        assert rc == 1

    def test_synth_without_band_is_usage_error(self, tmp_path):
        rc = main(["fit", "--synth", "--out-report", str(tmp_path / "r.json")])
        assert rc == 1

    def test_min_sic_threshold_exit_2(self, tmp_path):
        rc = main(
            ["fit", "--synth", "--band", "890e6:910e6:21", "--taps", "1",
             *FIT_FAST, "--min-sic-db", "500",
             "--out-report", str(tmp_path / "r.json")]
        )
        assert rc == 2


class TestSweepCommand:
    def test_row_counts_and_modes(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(
            ["sweep", "--taps", "1,2", "--bandwidths-mhz", "20", "--points", "21",
             "--restarts", "2", "--max-iters", "40", "--quantize", "rfic",
             "--out", str(out)]
        )
        assert rc == 0
        header, rows = read_rows(out)
        assert header == ["taps", "bandwidth_hz", "mode", "avg_sic_db", "avg_sic_pow_db"]
        assert len(rows) == 4  # 2 tap counts x (continuous, quantized)
        assert {r[2] for r in rows} == {"continuous", "quantized"}

    def test_continuous_only(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(
            ["sweep", "--taps", "1", "--bandwidths-mhz", "20,40", "--points", "21",
             "--restarts", "2", "--max-iters", "40", "--out", str(out)]
        )
        assert rc == 0
        _, rows = read_rows(out)
        assert len(rows) == 2
        assert {float(r[1]) for r in rows} == {20e6, 40e6}


class TestNetworkUldl:
    def test_grid_row_count(self, tmp_path):
        out = tmp_path / "u.csv"
        rc = main(
            ["network", "uldl", "--gamma-ul-db", "0:20:5",
             "--gamma-dl-db", "0:20:3", "--out", str(out)]
        )
        assert rc == 0
        _, rows = read_rows(out)
        assert len(rows) == 15

    def test_ideal_fd_gain_two(self, tmp_path):
        out = tmp_path / "u.csv"
        rc = main(
            ["network", "uldl", "--gamma-ul-db", "0:20:5", "--gamma-dl-db", "10",
             "--gamma-iui-db", "-400", "--gamma-self", "0", "--out", str(out)]
        )
        assert rc == 0
        _, rows = read_rows(out)
        for r in rows:
            assert float(r[5]) == pytest.approx(2.0, abs=1e-9)


def _uldl_cell_reference(u, d, q, gamma_self, b):
    """(hd, fd, gain) of one cell as `network uldl` computed it before each
    rate was computed once: dB values are float64 scalars, and each cell
    converts them and makes its own four rate calls."""
    def rate(g):
        return b * math.log2(1.0 + g)

    g_ul, g_dl, g_iui = (10.0 ** (x / 10.0) for x in (u, d, q))
    hd = 0.5 * rate(g_ul) + 0.5 * rate(g_dl)
    fd = rate(g_ul / (1.0 + gamma_self)) + rate(g_dl / (1.0 + g_iui))
    return hd, fd, (fd / hd if hd != 0 else None)


def _db_axis(text):
    if ":" in text:
        start, stop, count = text.split(":")
        return np.linspace(float(start), float(stop), int(count))
    return np.array([float(text)])


db_value = st.one_of(st.floats(-300.0, 300.0), st.sampled_from([-math.inf, -300.0, 300.0]))
db_axis = st.lists(db_value, min_size=1, max_size=4)


class TestUldlSurfaceCells:
    @settings(max_examples=150, deadline=None)
    @given(db_axis, db_axis, db_axis, st.floats(0.0, 1e3), st.floats(1e-3, 1e9))
    def test_bitwise_the_per_cell_loop(self, ul, dl, iui, gamma_self, b):
        axes = [np.array(a) for a in (ul, dl, iui)]
        ref = [[[_uldl_cell_reference(u, d, q, gamma_self, b) for q in axes[2]]
                for d in axes[1]] for u in axes[0]]
        lin = [[_db_linear(x, "--gamma-db") for x in a.tolist()] for a in axes]
        if any(c[0] == 0 for row in ref for cells in row for c in cells):
            with pytest.raises(UndefinedGainError):
                uldl_surface(*lin, gamma_self, b)
            return
        hd, fd, gain = uldl_surface(*lin, gamma_self, b)
        for i, row in enumerate(ref):
            for j, cells in enumerate(row):
                for k, cell in enumerate(cells):
                    got = (hd[i][j], fd[i][j][k], gain[i][j][k])
                    assert [x.hex() for x in got] == [x.hex() for x in cell]


class TestUldlBytes:
    @pytest.mark.parametrize(
        "ul, dl, iui, gamma_self, bw",
        [
            ("-300:300:13", "-100:300:9", "-300:300:4", "0.5", "1"),
            ("-inf", "-5:30:8", "-inf", "0", "1"),
            ("0:30:31", "3.3:24.1:7", "-5.5:12.2:5", "1.3", "2e7"),
            ("-3000:3080:5", "0:3080:3", "-3000:3080:3", "1", "1"),
            ("7.25", "-400", "1e-9", "1e6", "3.5e9"),
            # enough values that an array power's last bits would show
            ("-300:300:4001", "10", "-7:7:3", "1", "1"),
        ],
    )
    def test_csv_is_the_per_cell_loop(self, tmp_path, ul, dl, iui, gamma_self, bw):
        out = tmp_path / "u.csv"
        rc = main(["network", "uldl", f"--gamma-ul-db={ul}", f"--gamma-dl-db={dl}",
                   f"--gamma-iui-db={iui}", "--gamma-self", gamma_self,
                   "--bandwidth-hz", bw, "--out", str(out)])
        assert rc == 0
        lines = ["gamma_ul_db,gamma_dl_db,gamma_iui_db,hd_bps,fd_bps,gain"]
        for u in _db_axis(ul):
            for d in _db_axis(dl):
                for q in _db_axis(iui):
                    cell = _uldl_cell_reference(u, d, q, float(gamma_self), float(bw))
                    lines.append("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g" % (u, d, q, *cell))
        assert out.read_text() == "\n".join(lines) + "\n"

    def test_minus_inf_db_is_gamma_zero(self, tmp_path):
        out = tmp_path / "u.csv"
        rc = main(["network", "uldl", "--gamma-ul-db=-inf", "--gamma-dl-db", "10",
                   "--out", str(out)])
        assert rc == 0
        _, rows = read_rows(out)
        assert rows[0][:3] == ["-inf", "10", "0"]
        assert float(rows[0][3]) == 0.5 * math.log2(11.0)

    def test_zero_baseline_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "u.csv"
        rc = main(["network", "uldl", "--gamma-ul-db=-inf", "--gamma-dl-db=-inf",
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: half-duplex baseline rate is zero\n"
        assert list(tmp_path.iterdir()) == []


class TestNetworkTdma:
    def run(self, tmp_path, schedule, extra=()):
        out = tmp_path / f"{schedule}.csv"
        rc = main(
            ["network", "tdma", "--schedule", schedule, "--users", "2",
             *extra, "--out", str(out)]
        )
        assert rc == 0
        header, rows = read_rows(out)
        assert header == ["scenario_id", "case", "total_bps", "jfi", "gain"]
        return rows

    def test_iuif_fairer_rro_faster(self, tmp_path):
        rro = self.run(tmp_path, "rro")
        iuif = self.run(tmp_path, "iuif")
        assert float(rro[0][2]) >= float(iuif[0][2])
        assert float(iuif[0][3]) >= float(rro[0][3])

    def test_per_user_rows(self, tmp_path):
        rows = self.run(tmp_path, "rro")
        assert len(rows) == 3  # summary + one row per user
        assert rows[1][1] == "user0" and rows[2][1] == "user1"
        assert float(rows[0][2]) == pytest.approx(
            float(rows[1][2]) + float(rows[2][2]), rel=1e-12
        )

    def test_all_hd_gain_one_without_interference(self, tmp_path):
        rows = self.run(
            tmp_path, "iuif", extra=("--fd", "0,0", "--gamma-self", "0")
        )
        assert float(rows[0][4]) == pytest.approx(1.0, abs=1e-12)


class TestParserPerProcess:
    def test_outputs_same_across_calls(self, tmp_path, capsys):
        import fdecanc.cli as cli

        out = tmp_path / "u.csv"
        uldl = ["network", "uldl", "--gamma-ul-db", "0:30:7", "--gamma-dl-db=-3:9:3",
                "--gamma-iui-db=-2:4:2", "--out", str(out)]
        assert main(uldl) == 0
        first = out.read_bytes()
        parser = cli._parser
        assert main(["model", "--kind", "pcb", "--band", "850e6:950e6:11",
                     "--out", str(tmp_path / "m.csv")]) == 0
        assert main(["network", "uldl", "--gamma-ul-db", "x", "--gamma-dl-db", "0",
                     "--out", str(tmp_path / "bad.csv")]) == 1
        assert main(["network", "tdma", "--schedule", "rro", "--users", "2",
                     "--out", str(tmp_path / "t.csv")]) == 0
        out.unlink()
        assert main(uldl) == 0
        assert out.read_bytes() == first
        assert cli._parser is parser
        assert capsys.readouterr().err.count("\n") == 1

    def test_not_built_at_import(self):
        code = "import fdecanc.cli as cli; print(cli._parser is None)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env, check=True)
        assert run.stdout == "True\n"

    def test_fit_does_not_import_logging(self, tmp_path):
        # no handler can take the solvers' DEBUG records in a program that
        # never imported `logging`, so a run does not import it either
        code = (
            "import sys; from fdecanc.cli import main; "
            "rc = main(['fit', '--synth', '--band', '890e6:910e6:11', '--restarts', '2', "
            "'--max-iters', '20', '--quantize', 'rfic', '--out-report', sys.argv[1]]); "
            "print(rc, 'logging' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        run = subprocess.run([sys.executable, "-c", code, str(tmp_path / "r.json")],
                             capture_output=True, text=True, env=env, check=True)
        assert run.stdout == "0 False\n"


class TestOutputFiles:
    @pytest.mark.parametrize(
        "argv",
        [
            ["network", "uldl", "--gamma-ul-db", "0:20:3", "--gamma-dl-db", "10"],
            ["genchannel", "--band", "850e6:950e6:11"],
        ],
    )
    def test_mode_follows_umask(self, tmp_path, argv):
        out = tmp_path / "o.csv"
        old = os.umask(0o027)
        try:
            assert main([*argv, "--out", str(out)]) == 0
        finally:
            os.umask(old)
        assert out.stat().st_mode & 0o777 == 0o640
        assert os.listdir(tmp_path) == ["o.csv"]


class TestDbFlags:
    def test_tdma_minus_inf_db(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = main(["network", "tdma", "--schedule", "iuif", "--gammas-db=-inf,10,10",
                   "--iui-db=-inf", "--out", str(out)])
        assert rc == 0
        _, rows = read_rows(out)
        assert rows[1] == ["0", "user0", "0", "", ""]

    @pytest.mark.parametrize("db", [math.nan, math.inf, 4000.0, 3090.0])
    def test_no_finite_linear_value(self, db):
        with pytest.raises(UsageError, match="has no finite linear value"):
            _db_linear(db, "--gamma-ul-db")

    @pytest.mark.parametrize("db", [-math.inf, -4000.0, -300.0, 0.0, 300.0, 3080.0])
    def test_finite_linear_value(self, db):
        assert _db_linear(db, "--gamma-ul-db") == 10.0 ** (np.float64(db) / 10.0)


class TestGenchannel:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "ch.csv"
        rc = main(["genchannel", "--band", "850e6:950e6:101", "--out", str(out)])
        assert rc == 0
        r = load_si_channel(out)
        assert r.grid.count == 101

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            assert main(["genchannel", "--band", "850e6:950e6:51", "--out", str(p)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_no_reflections_flat(self, tmp_path):
        out = tmp_path / "ch.csv"
        rc = main(
            ["genchannel", "--band", "850e6:950e6:51", "--no-reflections",
             "--isolation-db", "-30", "--out", str(out)]
        )
        assert rc == 0
        r = load_si_channel(out)
        assert np.allclose(np.abs(r.values), 10 ** (-30 / 20), rtol=1e-12)

    def test_custom_reflections(self, tmp_path):
        out = tmp_path / "ch.csv"
        rc = main(
            ["genchannel", "--band", "850e6:950e6:101",
             "--reflections=-12:25", "--out", str(out)]
        )
        assert rc == 0
        # single echo at 25 ns -> 40 MHz amplitude ripple period (40 grid steps)
        mag = np.abs(load_si_channel(out).values)
        assert np.allclose(mag[: 101 - 40], mag[40:], rtol=1e-9)

    def test_bytes_match_save_si_channel(self, tmp_path):
        out, ref = tmp_path / "ch.csv", tmp_path / "ref.csv"
        rc = main(["genchannel", "--band", "850e6:950e6:51", "--out", str(out)])
        assert rc == 0
        grid = FrequencyGrid.linspace(850e6, 950e6, 51)
        save_si_channel(ref, synth_si_channel(SynthChannelSpec(), grid))
        assert out.read_bytes() == ref.read_bytes()


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--points", "100000000000"],
            ["model", "--kind", "ideal", "--fc", "9e8", "--band", "890e6:910e6:100000000000"],
            ["network", "uldl", "--gamma-ul-db", "0:30:100000000000", "--gamma-dl-db", "0"],
            ["network", "uldl", "--gamma-ul-db", "0", "--gamma-dl-db", "0",
             "--gamma-iui-db=0:5:10000001"],
        ],
    )
    def test_point_count_above_the_bound_is_one_line_usage_error(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        linspace = np.linspace

        def bounded(start, stop, num=50, **kwargs):
            assert num <= 10**7, "points allocated"
            return linspace(start, stop, num, **kwargs)

        monkeypatch.setattr(np, "linspace", bounded)
        rc = main([*argv, "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "exceeds 10000000" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["genchannel", "--band", "850e6:950e6:11", "--reflections", "bad"],
            ["genchannel", "--band", "850e6:950e6:11", "--reflections", "-10:x"],
            ["sweep", "--taps", "1,x"],
            ["sweep", "--bandwidths-mhz", "20,x"],
            ["network", "tdma", "--schedule", "rro", "--gammas-db", "1,x"],
            ["network", "tdma", "--schedule", "rro", "--fd", "1,x,0"],
            ["network", "tdma", "--schedule", "rro", "--fd", "1,2,0"],
            ["sweep", "--taps", "2,0"],
            ["sweep", "--bandwidths-mhz", "20,0"],
            ["fit", "--synth", "--band", "890e6:910e6:21", "--quantize", "pcb"],
            ["fit", "--synth", "--band", "890e6:910e6:21", "--model", "pcb",
             "--quantize", "rfic"],
            ["sweep", "--model", "ideal", "--quantize", "pcb"],
            ["sweep", "--model", "pcb", "--quantize", "rfic"],
            ["fit", "--synth", "--band", "890e6:910e6:21", "--taps", "0"],
            ["fit", "--synth", "--band", "890e6:910e6:21", "--restarts", "0"],
            ["fit", "--synth", "--band", "890e6:910e6:21", "--max-iters", "0"],
            ["sweep", "--restarts", "0"],
            ["sweep", "--max-iters", "0"],
            ["network", "tdma", "--schedule", "rro", "--users", "3", "--fd", "1,0"],
            ["network", "tdma", "--schedule", "rro", "--users", "3",
             "--gammas-db", "10,12"],
            ["network", "tdma", "--schedule", "rro", "--users", "5"],
            ["network", "tdma", "--schedule", "rro", "--users", "0"],
            ["network", "tdma", "--schedule", "rro", "--slots", "0"],
            ["network", "uldl", "--gamma-ul-db", "0", "--gamma-dl-db", "0",
             "--gamma-self", "-1"],
            ["network", "uldl", "--gamma-ul-db", "0", "--gamma-dl-db", "0",
             "--bandwidth-hz", "-1"],
            ["network", "tdma", "--schedule", "rro", "--users", "3", "--slots", "2"],
            ["model", "--kind", "ideal", "--fc", "900e6", "--band", "890e6:910e6:1"],
            ["model", "--kind", "ideal", "--fc", "900e6", "--band", "1e9:9e8:11"],
            ["model", "--kind", "pcb", "--band", "0:1e9:11"],
            ["model", "--kind", "pcb", "--band", "850e6:950e6:-1"],
            ["fit", "--synth", "--band", "890e6:910e6:1"],
            ["genchannel", "--band", "890e6:910e6:1"],
            ["sweep", "--points", "1"],
            ["fit", "--synth", "--band=-10e6:10e6:11"],
            ["sweep", "--center-mhz", "5", "--bandwidths-mhz", "20"],
            ["genchannel", "--band", "0:1e9:11"],
            ["network", "uldl", "--gamma-ul-db", "0:30:0", "--gamma-dl-db", "10"],
            ["network", "uldl", "--gamma-ul-db", "0", "--gamma-dl-db", "0",
             "--gamma-iui-db=0:5:0"],
            ["network", "tdma", "--schedule", "rro", "--users", "3", "--iui-db", "5000"],
            ["network", "tdma", "--schedule", "rro", "--users", "3", "--iui-db", "nan"],
            ["network", "tdma", "--schedule", "rro", "--users", "3", "--gammas-db", "5000"],
            ["network", "tdma", "--schedule", "rro", "--gammas-db", "nan"],
            ["network", "tdma", "--schedule", "iuif", "--gammas-db", "10,inf,10"],
            ["network", "uldl", "--gamma-ul-db", "4000", "--gamma-dl-db", "0"],
            ["network", "uldl", "--gamma-ul-db", "nan", "--gamma-dl-db", "0"],
            ["network", "uldl", "--gamma-ul-db", "0", "--gamma-dl-db", "inf"],
            ["network", "uldl", "--gamma-ul-db", "0", "--gamma-dl-db", "0",
             "--gamma-iui-db=0:5000:3"],
            ["network", "uldl", "--gamma-ul-db", "0", "--gamma-dl-db", "0",
             "--gamma-self", "nan"],
            ["network", "tdma", "--schedule", "rro", "--gamma-self", "nan"],
            ["network", "uldl", "--gamma-ul-db=-inf:0:3", "--gamma-dl-db", "0"],
            ["network", "uldl", "--gamma-ul-db", "0", "--gamma-dl-db=0:nan:2"],
            ["genchannel", "--band=-inf:1e9:11"],
            ["model", "--kind", "pcb", "--band", "8e8:inf:11"],
            # values that the object a flag builds rejects
            *(["model", "--kind", "ideal", "--fc", "9e8", "--band", "890e6:910e6:5", *flags]
              for flags in (["--q", "-3"], ["--q", "nan"], ["--q", "inf"], ["--amp-db", "nan"],
                            ["--phase", "7"])),
            ["model", "--kind", "ideal", "--fc", "inf", "--band", "890e6:910e6:5"],
            ["model", "--kind", "ideal", "--fc", "nan", "--band", "890e6:910e6:5"],
            ["model", "--kind", "pcb", "--band", "890e6:910e6:5", "--cf-pf", "nan"],
            ["model", "--kind", "pcb", "--band", "890e6:910e6:5", "--cf-pf", "inf"],
            ["model", "--kind", "pcb", "--band", "890e6:910e6:5", "--cq-pf", "inf"],
            *(["genchannel", "--band", "850e6:950e6:11", *flags]
              for flags in (["--isolation-db", "5"], ["--isolation-db", "nan"],
                            ["--base-delay-ns", "-1"], ["--base-delay-ns", "inf"],
                            ["--reflections=5:10"], ["--reflections=-10:inf"],
                            ["--isolation-db=-inf"], ["--reflections=-inf:10"])),
            ["fit", "--synth", "--band", "890e6:910e6:21", "--seed", "-1"],
            ["sweep", "--seed", "-1"],
            ["sweep", "--center-mhz", "inf"],
            ["sweep", "--center-mhz", "nan"],
            ["network", "uldl", "--gamma-ul-db", "10", "--gamma-dl-db", "10",
             "--bandwidth-hz", "inf"],
            ["network", "tdma", "--schedule", "rro", "--bandwidth-hz", "inf"],
            # an attenuator setting whose linear gain overflows
            ["model", "--kind", "ideal", "--fc", "9e8", "--band", "890e6:910e6:5",
             "--amp-db", "1e6"],
            ["model", "--kind", "pcb", "--band", "890e6:910e6:5", "--amp-db", "1e6"],
            # one whose linear gain underflows to 0: a zero response
            ["model", "--kind", "ideal", "--fc", "9e8", "--band", "850e6:950e6:5",
             "--amp-db=-1e6"],
            ["model", "--kind", "pcb", "--band", "850e6:950e6:5", "--amp-db=-1e6"],
        ],
    )
    def test_malformed_value_is_one_line_usage_error(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        import fdecanc.cli as cli

        def no_compute(*args, **kwargs):
            raise AssertionError("computation started")

        for name in ("fit_pipeline", "synth_si_channel", "tdma_schedule_eval",
                     "uldl_surface", "ideal_tap_response", "pcb_bpf_response_closed_form"):
            monkeypatch.setattr(cli, name, no_compute)
        # `fit` has no --out; a bare --out would be an ambiguous option
        out_flag = "--out-report" if argv[0] == "fit" else "--out"
        rc = main([*argv, out_flag, str(tmp_path / "o.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--synth", "--band", "890e6:910e6:21", "--out-report", "{bad}"],
            ["fit", "--synth", "--band", "890e6:910e6:21", "--out-report", "{ok}",
             "--out-csv", "{bad}"],
            ["sweep", "--out", "{bad}"],
            ["genchannel", "--band", "850e6:950e6:11", "--out", "{bad}"],
            ["model", "--kind", "pcb", "--band", "850e6:950e6:11", "--out", "{bad}"],
            ["network", "uldl", "--gamma-ul-db", "0", "--gamma-dl-db", "0",
             "--out", "{bad}"],
            ["network", "tdma", "--schedule", "rro", "--out", "{tmp}"],
        ],
    )
    def test_bad_output_path_fails_before_compute(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        import fdecanc.cli as cli

        def no_compute(*args, **kwargs):
            raise AssertionError("computation started")

        for name in ("fit_pipeline", "synth_si_channel", "uldl_surface",
                     "tdma_schedule_eval", "pcb_bpf_response_closed_form"):
            monkeypatch.setattr(cli, name, no_compute)
        paths = {"bad": str(tmp_path / "missing" / "o.csv"),
                 "ok": str(tmp_path / "r.json"), "tmp": str(tmp_path)}
        rc = main([a.format(**paths) for a in argv])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestParser:
    def test_solver_flags_parse_as_before(self):
        # `fit` and `sweep` share their solver flags; every dest and default
        # stays as when each command declared its own
        solver = {"model": "ideal", "seed": 0, "restarts": 16, "max_iters": 500,
                  "quantize": None}
        expect = {
            "fit": {"command": "fit", "channel": None, "synth": False, "band": None,
                    "taps": 2, "min_sic_db": 0.0, "out_report": "report.json",
                    "out_csv": None, **solver},
            "sweep": {"command": "sweep", "taps": "1,2,3,4",
                      "bandwidths_mhz": "20,40,80", "center_mhz": 900.0,
                      "points": 101, "out": "sweep.csv", **solver},
        }
        for command, want in expect.items():
            got = vars(build_parser().parse_args([command]))
            got.pop("func")
            assert got == want
