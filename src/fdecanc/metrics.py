"""Isolation and RF self-interference-cancellation metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ComplexResponse, amplitude_db


def isolation_db(h: ComplexResponse) -> np.ndarray:
    """Per-point TX/RX isolation in dB (negative for attenuation)."""
    return amplitude_db(h)


@dataclass(frozen=True)
class SicSummary:
    """Band summary of RF SIC.

    avg_db averages the per-point dB values (the headline convention);
    avg_power_db is the dB of the mean residual power, emitted so either
    reading of an "average SIC" figure is reproducible.  Points with exactly
    zero residual (infinite SIC) are excluded from both averages and counted.
    """

    per_point_db: np.ndarray
    avg_db: float
    avg_power_db: float
    excluded_count: int


def rf_sic_db(h_res: ComplexResponse) -> SicSummary:
    """RF SIC = -isolation of the residual, per point plus band averages."""
    per_point = -isolation_db(h_res)
    finite = np.isfinite(per_point)
    excluded = int(np.sum(~finite))
    if np.any(finite):
        avg_db = float(np.mean(per_point[finite]))
        power = np.abs(h_res.values[finite]) ** 2
        avg_power_db = float(-10.0 * np.log10(np.mean(power)))
    else:
        avg_db = float("inf")
        avg_power_db = float("inf")
    return SicSummary(per_point, avg_db, avg_power_db, excluded)

