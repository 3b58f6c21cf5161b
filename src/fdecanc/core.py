"""Frequency grids, complex frequency responses, and dB/phase/delay math.

Everything here is a pure function of immutable value objects; responses are
plain numpy arrays wrapped with their grid so downstream code never has to
guess which frequencies a set of samples belongs to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateResponseError,
    InsufficientGridError,
    InvalidArgumentError,
)

_UNIFORMITY_RTOL = 1e-9
# The most points a grid may have: 10^7 frequencies take 80 MB, and each
# complex response on them twice that.
MAX_POINTS = 10**7


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing, uniformly spaced frequency points in Hz."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise InvalidArgumentError("grid needs at least 2 frequency points")
        if not np.all(np.isfinite(pts)):
            raise InvalidArgumentError("grid contains non-finite frequencies")
        d = np.diff(pts)
        if np.any(d <= 0):
            raise InvalidArgumentError("grid frequencies must be strictly increasing")
        if np.max(np.abs(d - d[0])) > _UNIFORMITY_RTOL * max(abs(pts[0]), abs(pts[-1])):
            raise InvalidArgumentError("grid spacing is not uniform")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def linspace(cls, start_hz: float, stop_hz: float, count: int) -> "FrequencyGrid":
        # checked before np.linspace, which warns on a non-finite end and
        # would allocate any count
        if not (np.isfinite(start_hz) and np.isfinite(stop_hz)):
            raise InvalidArgumentError("grid contains non-finite frequencies")
        if int(count) > MAX_POINTS:
            raise InvalidArgumentError(f"grid of {int(count)} points exceeds {MAX_POINTS}")
        return cls(np.linspace(start_hz, stop_hz, int(count)))

    @property
    def count(self) -> int:
        return self.points.size

    @property
    def spacing(self) -> float:
        return float(self.points[1] - self.points[0])

    @property
    def bandwidth(self) -> float:
        """B = f_K - f_1."""
        return float(self.points[-1] - self.points[0])

    def __eq__(self, other):
        return (
            isinstance(other, FrequencyGrid)
            and self.points.shape == other.points.shape
            and np.array_equal(self.points, other.points)
        )

    def __hash__(self):
        return hash((self.points.size, float(self.points[0]), float(self.points[-1])))


@dataclass(frozen=True)
class ComplexResponse:
    """A complex voltage transfer ratio sampled on a :class:`FrequencyGrid`."""

    grid: FrequencyGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim != 1 or vals.size != self.grid.count:
            raise InvalidArgumentError("values length must match grid count")
        if not np.all(np.isfinite(vals)):
            raise InvalidArgumentError("response contains non-finite values")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __mul__(self, other):
        if isinstance(other, ComplexResponse):
            if other.grid != self.grid:
                raise InvalidArgumentError("grid mismatch in response product")
            return ComplexResponse(self.grid, self.values * other.values)
        return ComplexResponse(self.grid, self.values * other)

    __rmul__ = __mul__

    def __sub__(self, other: "ComplexResponse") -> "ComplexResponse":
        if other.grid != self.grid:
            raise InvalidArgumentError("grid mismatch in response difference")
        return ComplexResponse(self.grid, self.values - other.values)


def db_to_linear(x_db) -> np.ndarray | float:
    """Amplitude-ratio conversion: linear = 10^(x/20)."""
    x = np.asarray(x_db, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError("dB value must be finite")
    out = np.power(10.0, x / 20.0)
    return float(out) if out.ndim == 0 else out


def linear_to_db(x_lin) -> np.ndarray | float:
    """Inverse of :func:`db_to_linear`; zero maps to -inf."""
    x = np.asarray(x_lin, dtype=float)
    if np.any(x < 0) or not np.all(np.isfinite(x)):
        raise InvalidArgumentError("linear amplitude must be finite and >= 0")
    with np.errstate(divide="ignore"):
        out = 20.0 * np.log10(x)
    return float(out) if out.ndim == 0 else out


def amplitude_db(r: ComplexResponse) -> np.ndarray:
    """Per-point magnitudes in dB; exact zeros become -inf."""
    mag = np.abs(r.values)
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(mag)


def unwrapped_phase(r: ComplexResponse) -> np.ndarray:
    """Phase in radians, continuous across the grid.

    The first point is reduced to (-pi, pi]; subsequent points differ from
    their neighbor by less than pi in absolute value.
    """
    if np.any(r.values == 0):
        raise DegenerateResponseError("cannot unwrap phase through a zero value")
    return np.unwrap(np.angle(r.values))


def group_delay(r: ComplexResponse) -> np.ndarray:
    """Group delay tau = -(1/2pi) * d(phase)/df, per grid point.

    Central differences on interior points, first-order one-sided differences
    at the two endpoints.
    """
    if r.grid.count < 3:
        raise InsufficientGridError("group delay needs at least 3 grid points")
    phase = unwrapped_phase(r)
    df = r.grid.spacing
    tau = np.empty_like(phase)
    tau[1:-1] = (phase[2:] - phase[:-2]) / (2.0 * df)
    tau[0] = (phase[1] - phase[0]) / df
    tau[-1] = (phase[-1] - phase[-2]) / df
    return -tau / (2.0 * np.pi)
