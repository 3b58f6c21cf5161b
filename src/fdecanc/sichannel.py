"""Self-interference channel responses: CSV load/save and synthesis.

A measured antenna-interface response is a CSV with header ``freq_hz,re,im``.
When no measurement is available, a multipath synthesizer provides a
frequency-selective stand-in with a prescribed mean isolation and bulk delay.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .core import ComplexResponse, FrequencyGrid, db_to_linear
from .errors import ChannelFormatError, InvalidArgumentError

DEFAULT_REFLECTIONS = ((-10.0, 20e-9), (-16.0, 45e-9))
_HEADER = "freq_hz,re,im\n"


@dataclass(frozen=True)
class SynthChannelSpec:
    """Parameters of the synthetic multipath SI channel."""

    isolation_db: float = -20.0
    base_delay_s: float = 10e-9
    reflections: tuple = DEFAULT_REFLECTIONS

    def __post_init__(self):
        if not (-math.inf < self.isolation_db < 0):
            raise InvalidArgumentError("isolation_db must be negative and finite")
        if not (0 <= self.base_delay_s < math.inf):
            raise InvalidArgumentError("base_delay_s must be nonnegative and finite")
        refl = tuple((float(a), float(d)) for a, d in self.reflections)
        for a, d in refl:
            if not (-math.inf < a < 0):
                raise InvalidArgumentError("reflection amplitudes must be finite and < 0 dB")
            if not math.isfinite(d):
                raise InvalidArgumentError("reflection delays must be finite")
        object.__setattr__(self, "reflections", refl)


def synth_si_channel(spec: SynthChannelSpec, grid: FrequencyGrid) -> ComplexResponse:
    """Direct path plus discrete echoes:

    H(f) = lin(iso) e^{-j2pi f tau0} (1 + sum_p lin(a_p) e^{-j2pi f d_p})
    """
    f = grid.points
    h = np.ones(grid.count, dtype=complex)
    for a_db, d_s in spec.reflections:
        h = h + db_to_linear(a_db) * np.exp(-2j * np.pi * f * d_s)
    h = db_to_linear(spec.isolation_db) * np.exp(-2j * np.pi * f * spec.base_delay_s) * h
    return ComplexResponse(grid, h)


def format_si_channel(r: ComplexResponse) -> str:
    """The canonical CSV text; values at 17 significant digits round-trip."""
    rows = [_HEADER]
    for row in zip(r.grid.points.tolist(), r.values.real.tolist(), r.values.imag.tolist()):
        rows.append("%.17g,%.17g,%.17g\n" % row)
    return "".join(rows)


def atomic_write(path, text) -> None:
    """Write `text`, a string or an iterable of string chunks written as they
    come, to `path` via a temp file beside it and a rename; the file gets the
    mode `open(path, "w")` gives a new file, 0o666 less the umask.  A chunk
    iterator that raises leaves `path` as it was."""
    tmp = os.path.join(
        os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(6).hex()}.part"
    )
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            fh.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_si_channel(path, r: ComplexResponse) -> None:
    """Write the canonical CSV of :func:`format_si_channel` atomically."""
    atomic_write(path, format_si_channel(r))


def _channel_rows(reader):
    """The frequencies and complex values of the data rows of a channel CSV
    reader, checked row by row."""
    freqs = []
    vals = []
    try:
        header = next(reader)
    except StopIteration:
        raise ChannelFormatError("empty file") from None
    if [c.strip().lower() for c in header] != _HEADER.strip().split(","):
        raise ChannelFormatError(f"expected header {_HEADER.strip()!r}", line=1)
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise ChannelFormatError("expected 3 columns", line=lineno)
        try:
            f = float(row[0])
            re = float(row[1])
            im = float(row[2])
        except ValueError:
            raise ChannelFormatError("non-numeric field", line=lineno) from None
        if not (math.isfinite(f) and math.isfinite(re) and math.isfinite(im)):
            raise ChannelFormatError("non-finite field", line=lineno)
        if freqs and f <= freqs[-1]:
            raise ChannelFormatError(
                "frequencies must be strictly increasing", line=lineno
            )
        freqs.append(f)
        vals.append(complex(re, im))
    return freqs, vals


_NOT_SEPARATOR = bytes(sorted(set(range(256)) - set(b",\n")))


def _plain_columns(text: str):
    """The frequency, real and imaginary columns of a channel CSV in the form
    :func:`save_si_channel` writes, as float64 arrays, or None for any other
    text.  Plain text has the header exactly, no quote or carriage return, 3
    fields on every line and none over the CSV reader's field size limit, so
    the reader would split each line at its commas; its fields must parse to
    finite values at strictly increasing frequencies.  Anything else, every
    malformed file included, is for :func:`_channel_rows` to read and name."""
    if not text.startswith(_HEADER) or '"' in text or "\r" in text:
        return None
    body = text[len(_HEADER):]
    if body.endswith("\n"):
        body = body[:-1]
    seps = body.encode().translate(None, _NOT_SEPARATOR)
    rows = seps.count(b"\n") + 1
    if seps != b",,\n" * (rows - 1) + b",,":
        return None
    fields = body.replace("\n", ",").split(",")
    limit = csv.field_size_limit()
    if len(body) > limit and max(map(len, fields)) > limit:
        return None
    try:
        cols = [np.fromiter(map(float, fields[k::3]), float, count=rows) for k in range(3)]
    except ValueError:
        return None
    if not all(np.isfinite(c).all() for c in cols) or not (cols[0][1:] > cols[0][:-1]).all():
        return None
    return cols


def load_si_channel(path) -> ComplexResponse:
    """Load a channel CSV; rows must be strictly increasing in frequency.
    A leading UTF-8 byte-order mark, as spreadsheet programs save one, is
    skipped.  Text that is not UTF-8, or that the CSV reader rejects (a
    field over its size limit), is malformed too, with the reader's line
    where it has one.

    A file in the plain form this package writes is converted column by
    column (:func:`_plain_columns`); any other file is read again row by
    row (:func:`_channel_rows`), which names the fault of a malformed one.
    Both give the same values, bit for bit."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            cols = _plain_columns(fh.read())
    except UnicodeDecodeError:
        cols = None
    if cols is None:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                freqs, vals = _channel_rows(reader)
            except UnicodeDecodeError as exc:
                raise ChannelFormatError(f"not UTF-8 text ({exc.reason})") from None
            except csv.Error as exc:
                raise ChannelFormatError(str(exc), line=reader.line_num) from None
        freqs, vals = np.array(freqs), np.array(vals)
    else:
        freqs, vals = cols[0], np.empty(cols[0].size, dtype=complex)
        vals.real, vals.imag = cols[1], cols[2]
    if len(freqs) < 2:
        raise ChannelFormatError("need at least 2 data rows")
    try:
        grid = FrequencyGrid(freqs)
    except InvalidArgumentError as exc:
        raise ChannelFormatError(str(exc)) from None
    return ComplexResponse(grid, vals)
