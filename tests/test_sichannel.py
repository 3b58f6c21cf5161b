import os

import numpy as np
import pytest

from fdecanc import sichannel
from fdecanc import (
    ChannelFormatError,
    ComplexResponse,
    FrequencyGrid,
    InvalidArgumentError,
    SynthChannelSpec,
    amplitude_db,
    group_delay,
    load_si_channel,
    save_si_channel,
    synth_si_channel,
)


class TestLoadSave:
    def test_flat_file(self, tmp_path):
        p = tmp_path / "ch.csv"
        p.write_text(
            "freq_hz,re,im\n900e6,0.1,0\n910e6,0.1,0\n920e6,0.1,0\n"
        )
        r = load_si_channel(p)
        assert r.grid.count == 3
        assert np.allclose(amplitude_db(r), -20.0)

    def test_duplicate_frequency(self, tmp_path):
        p = tmp_path / "ch.csv"
        p.write_text("freq_hz,re,im\n900e6,0.1,0\n900e6,0.1,0\n")
        with pytest.raises(ChannelFormatError) as e:
            load_si_channel(p)
        assert e.value.line == 3

    def test_malformed_row(self, tmp_path):
        p = tmp_path / "ch.csv"
        p.write_text("freq_hz,re,im\n900e6,0.1,0\n910e6,oops,0\n")
        with pytest.raises(ChannelFormatError) as e:
            load_si_channel(p)
        assert e.value.line == 3

    @pytest.mark.parametrize("row", ["910e6,inf,0", "910e6,0.1,nan", "inf,0.1,0",
                                     "910e6,0.1,-inf"])
    def test_non_finite_row_names_its_line(self, tmp_path, row):
        p = tmp_path / "ch.csv"
        p.write_text(f"freq_hz,re,im\n900e6,0.1,0\n\n{row}\n920e6,0.1,0\n")
        with pytest.raises(ChannelFormatError, match="non-finite") as e:
            load_si_channel(p)
        assert e.value.line == 4

    @pytest.mark.parametrize(
        "text, match, line",
        [
            ("", "empty file", None),
            ("freq_hz,re,im\n900e6,0.1,0\n910e6,0.1\n", "expected 3 columns", 3),
            ("freq_hz,re,im\n900e6,0.1,0,7\n", "expected 3 columns", 2),
            ("freq_hz,re,im\n", "at least 2 data rows", None),
            ("freq_hz,re,im\n900e6,0.1,0\n", "at least 2 data rows", None),
            ("freq_hz,re,im\n900e6,0.1,0\n910e6,0.1,0\n950e6,0.1,0\n", "not uniform", None),
            # 200 random bytes: the decoder fails before the reader has a line
            pytest.param(np.random.default_rng(1).bytes(200), "not UTF-8 text", None,
                         id="random-bytes"),
            pytest.param("freq_hz,re,im\n900e6,0.1,0\n910e6," + "1" * 200_000 + ",0\n",
                         "field larger than field limit", 3, id="huge-field"),
        ],
    )
    def test_malformed_file_names_its_fault(self, tmp_path, text, match, line):
        p = tmp_path / "ch.csv"
        p.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(ChannelFormatError, match=match) as e:
            load_si_channel(p)
        assert e.value.line == line

    def test_format_matches_numpy_scalars(self):
        # the text of each row is that of the float64 scalars it holds
        grid = FrequencyGrid.linspace(850e6, 950e6, 41)
        r = synth_si_channel(SynthChannelSpec(), grid)
        rows = ["freq_hz,re,im"] + [
            "%.17g,%.17g,%.17g" % (f, v.real, v.imag) for f, v in zip(grid.points, r.values)
        ]
        assert sichannel.format_si_channel(r) == "\n".join(rows) + "\n"

    def test_bad_header(self, tmp_path):
        p = tmp_path / "ch.csv"
        p.write_text("frequency,r,i\n900e6,0.1,0\n")
        with pytest.raises(ChannelFormatError):
            load_si_channel(p)

    def test_round_trip_exact(self, tmp_path):
        grid = FrequencyGrid.linspace(850e6, 950e6, 101)
        r = synth_si_channel(SynthChannelSpec(), grid)
        p = tmp_path / "ch.csv"
        save_si_channel(p, r)
        r2 = load_si_channel(p)
        assert np.array_equal(r.grid.points, r2.grid.points)
        assert np.array_equal(r.values, r2.values)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet programs save CSV with a UTF-8 byte-order mark
        grid = FrequencyGrid.linspace(850e6, 950e6, 21)
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        save_si_channel(plain, synth_si_channel(SynthChannelSpec(), grid))
        text = plain.read_bytes()
        assert not text.startswith(b"\xef\xbb\xbf")
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        want, got = load_si_channel(plain), load_si_channel(marked)
        assert got.grid.points.tobytes() == want.grid.points.tobytes()
        assert got.values.tobytes() == want.values.tobytes()

    def test_save_mode_follows_umask(self, tmp_path):
        grid = FrequencyGrid.linspace(850e6, 950e6, 11)
        p = tmp_path / "ch.csv"
        old = os.umask(0o027)
        try:
            save_si_channel(p, synth_si_channel(SynthChannelSpec(), grid))
        finally:
            os.umask(old)
        assert p.stat().st_mode & 0o777 == 0o640

    @pytest.mark.parametrize("fail", ["write", "rename"])
    def test_failed_save_keeps_target(self, tmp_path, monkeypatch, fail):
        p = tmp_path / "ch.csv"
        p.write_bytes(b"freq_hz,re,im\n1,2,3\n")

        def boom(*args):
            raise OSError("injected")

        if fail == "write":
            # a lone surrogate cannot be encoded, so the write itself raises
            monkeypatch.setattr(sichannel, "format_si_channel", lambda r: "\ud800")
        else:
            monkeypatch.setattr(os, "replace", boom)
        grid = FrequencyGrid.linspace(850e6, 950e6, 11)
        with pytest.raises((OSError, UnicodeEncodeError)):
            save_si_channel(p, synth_si_channel(SynthChannelSpec(), grid))
        assert p.read_bytes() == b"freq_hz,re,im\n1,2,3\n"
        assert os.listdir(tmp_path) == ["ch.csv"]


class TestSynth:
    def test_invalid_spec(self):
        with pytest.raises(InvalidArgumentError):
            SynthChannelSpec(isolation_db=3.0)
        with pytest.raises(InvalidArgumentError):
            SynthChannelSpec(reflections=((2.0, 10e-9),))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_values_rejected(self, bad):
        # synth_si_channel could not evaluate them
        with pytest.raises(InvalidArgumentError):
            SynthChannelSpec(isolation_db=bad)
        with pytest.raises(InvalidArgumentError):
            SynthChannelSpec(base_delay_s=bad)
        with pytest.raises(InvalidArgumentError):
            SynthChannelSpec(reflections=((bad, 20e-9),))
        with pytest.raises(InvalidArgumentError):
            SynthChannelSpec(reflections=((-10.0, bad),))

    def test_no_reflections_flat(self):
        grid = FrequencyGrid.linspace(850e6, 950e6, 101)
        r = synth_si_channel(
            SynthChannelSpec(isolation_db=-20, base_delay_s=10e-9, reflections=()),
            grid,
        )
        assert np.allclose(np.abs(r.values), 0.1, rtol=1e-12)
        assert np.allclose(group_delay(r), 10e-9, atol=1e-15)

    def test_single_echo_ripple_period(self):
        # one echo with 20 ns extra delay -> 50 MHz amplitude comb
        grid = FrequencyGrid.linspace(850e6, 950e6, 101)
        r = synth_si_channel(
            SynthChannelSpec(reflections=((-10.0, 20e-9),)), grid
        )
        mag = np.abs(r.values)
        assert np.allclose(mag[: 101 - 50], mag[50:], rtol=1e-12)

    def test_default_mean_isolation(self):
        grid = FrequencyGrid.linspace(850e6, 950e6, 101)
        r = synth_si_channel(SynthChannelSpec(), grid)
        assert abs(float(np.mean(amplitude_db(r))) - (-20.0)) < 3.0

    def test_default_group_delay_regression(self):
        # frozen: pointwise [5, 20] ns on the 890-910 MHz fit band, and a
        # wide-band mean near the 10 ns bulk delay
        narrow = FrequencyGrid.linspace(890e6, 910e6, 101)
        gd = group_delay(synth_si_channel(SynthChannelSpec(), narrow))[1:-1]
        assert np.all(gd > 5e-9) and np.all(gd < 20e-9)
        wide = FrequencyGrid.linspace(850e6, 950e6, 101)
        gdw = group_delay(synth_si_channel(SynthChannelSpec(), wide))[1:-1]
        assert 5e-9 < float(np.mean(gdw)) < 20e-9

    def test_deterministic(self):
        grid = FrequencyGrid.linspace(850e6, 950e6, 101)
        r1 = synth_si_channel(SynthChannelSpec(), grid)
        r2 = synth_si_channel(SynthChannelSpec(), grid)
        assert np.array_equal(r1.values, r2.values)
