import json
import os

import numpy as np
import pytest

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
from fdecanc.cli import build_parser, main
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
        ],
    )
    def test_malformed_value_is_one_line_usage_error(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        import fdecanc.cli as cli

        def no_compute(*args, **kwargs):
            raise AssertionError("computation started")

        for name in ("fit_pipeline", "synth_si_channel", "tdma_schedule_eval"):
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

        for name in ("fit_pipeline", "synth_si_channel", "uldl_throughputs",
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
