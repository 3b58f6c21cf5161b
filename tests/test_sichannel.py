import csv
import io
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _row_reader(path):
    """The frequencies and values the row-by-row reader gives a channel file."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        freqs, vals = sichannel._channel_rows(csv.reader(fh))
    return np.array(freqs), np.array(vals)


def _extreme_channel(count=8):
    """A channel whose values hold signed zeros, subnormals and magnitudes
    near the largest float."""
    grid = FrequencyGrid.linspace(850e6, 950e6, count)
    vals = np.empty(count, dtype=complex)
    vals.real = np.resize([-0.0, 0.0, 5e-324, -2.2250738585072014e-308,
                           1.7976931348623157e308, -1e300, 1e-310, 3.0], count)
    vals.imag = np.resize([0.0, -0.0, -5e-324, 1e308, -1.7976931348623157e308,
                           4.9e-324, -0.0, -1e-300], count)
    return ComplexResponse(grid, vals)


class TestPlainFiles:
    def test_round_trip_is_bitwise_for_extreme_values(self, tmp_path, monkeypatch):
        r = _extreme_channel()
        p = tmp_path / "ch.csv"
        save_si_channel(p, r)

        def no_rows(reader):
            raise AssertionError("read row by row")

        # the form save_si_channel writes is converted column by column
        monkeypatch.setattr(sichannel, "_channel_rows", no_rows)
        got = load_si_channel(p)
        assert got.grid.points.tobytes() == r.grid.points.tobytes()
        assert got.values.tobytes() == r.values.tobytes()

    @pytest.mark.parametrize("variant", [
        "crlf", "quoted", "blank-lines", "no-final-newline", "spaced-header", "cr",
    ])
    def test_other_forms_load_to_the_row_readers_values(self, tmp_path, variant):
        text = sichannel.format_si_channel(_extreme_channel(21))
        if variant == "crlf":
            text = text.replace("\n", "\r\n")
        elif variant == "quoted":
            lines = text.split("\n")
            lines[3] = ",".join(f'"{v}"' for v in lines[3].split(","))
            text = "\n".join(lines)
        elif variant == "blank-lines":
            text = text.replace("\n", "\n\n", 3) + "\n"
        elif variant == "no-final-newline":
            text = text[:-1]
        elif variant == "spaced-header":
            text = text.replace("freq_hz,re,im", " FREQ_HZ, re ,Im", 1)
        else:
            text = text.replace("\n", "\r")
        p = tmp_path / "ch.csv"
        p.write_bytes(text.encode())
        freqs, vals = _row_reader(p)
        got = load_si_channel(p)
        assert got.grid.points.tobytes() == freqs.tobytes()
        assert got.values.tobytes() == vals.tobytes()

    def test_long_finite_field_is_the_field_limit_error(self, tmp_path):
        # 200,000 characters that parse to a finite value are still too long
        field = "0." + "0" * 199_997 + "1"
        assert len(field) == 200_000 and math.isfinite(float(field))
        p = tmp_path / "ch.csv"
        p.write_text(f"freq_hz,re,im\n900e6,0.1,0\n910e6,{field},0\n920e6,0.1,0\n")
        with pytest.raises(ChannelFormatError, match="field larger than field limit") as e:
            load_si_channel(p)
        assert e.value.line == 3


_FORMATS = ("%.17g", "%r", "%.3e", "%.0f", " %.17g ")


@st.composite
def channel_texts(draw):
    """The text of a channel CSV: plain rows of increasing frequencies in
    assorted number formats, sometimes with one row broken."""
    n = draw(st.integers(0, 6))
    freqs = sorted(draw(st.lists(st.floats(-1e12, 1e12), min_size=n, max_size=n, unique=True)))
    value = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                      st.sampled_from([-0.0, 5e-324, -1.7976931348623157e308]))
    rows = [[draw(st.sampled_from(_FORMATS)) % x for x in (f, draw(value), draw(value))]
            for f in freqs]
    if rows and draw(st.booleans()):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        broken = draw(st.sampled_from(
            ["drop", "extra", "nan", "inf", "junk", "underscore", "blank", "empty"]))
        if broken == "drop":
            row.pop()
        elif broken == "extra":
            row.append("0")
        elif broken == "blank":
            row[:] = [" "]
        elif broken == "empty":
            row[:] = []
        else:
            row[draw(st.integers(0, 2))] = {"nan": "nan", "inf": "-inf", "junk": "1x",
                                            "underscore": "1_0"}[broken]
    body = "".join(",".join(row) + "\n" for row in rows)
    if body and draw(st.booleans()):
        body = body[:-1]
    return "freq_hz,re,im\n" + body


class TestPlainColumns:
    @settings(max_examples=300, deadline=None)
    @given(channel_texts())
    def test_plain_columns_are_the_row_readers_values(self, text):
        # plain text converts to the row reader's values, bit for bit, and
        # every text the row reader rejects is left to it
        cols = sichannel._plain_columns(text)
        try:
            freqs, vals = sichannel._channel_rows(csv.reader(io.StringIO(text, newline="")))
        except ChannelFormatError:
            assert cols is None
            return
        if cols is not None:
            vals = np.array(vals, dtype=complex)
            assert cols[0].tobytes() == np.array(freqs, dtype=float).tobytes()
            assert cols[1].tobytes() == vals.real.tobytes()
            assert cols[2].tobytes() == vals.imag.tobytes()


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
