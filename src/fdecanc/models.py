"""Transfer-function models for ideal (RFIC-style) and PCB FDE canceller taps.

The ideal tap is a second-order bandpass with amplitude/phase weighting:

    H_i(f) = A_i e^{-j phi_i} / (1 - j Q_i (f_c/f - f/f_c))

The PCB tap is a discrete-component bandpass built from two shunt RLC tanks
separated by transmission-line sections, evaluated either by multiplying the
five ABCD matrices of the cascade or by an expanded closed form of the same
cascade.  The two evaluations are mutual oracles and must agree pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ComplexResponse, FrequencyGrid, db_to_linear
from .errors import InvalidArgumentError, SingularNetworkError


@dataclass(frozen=True)
class IdealTapConfig:
    """One ideal FDE tap: amplitude (dB), phase (rad), center (Hz), Q."""

    amp_db: float
    phase_rad: float
    center_hz: float
    q: float

    def __post_init__(self):
        if not (self.q > 0):
            raise InvalidArgumentError("q must be positive")
        if not (self.center_hz > 0):
            raise InvalidArgumentError("center_hz must be positive")
        if not (-np.pi <= self.phase_rad <= np.pi):
            raise InvalidArgumentError("phase_rad must lie in [-pi, pi]")
        if not np.isfinite(self.amp_db):
            raise InvalidArgumentError("amp_db must be finite")


@dataclass(frozen=True)
class PcbTapConfig:
    """One PCB FDE tap: amplitude (dB), phase (rad), tank capacitances (pF)."""

    amp_db: float
    phase_rad: float
    cf_pf: float
    cq_pf: float

    def __post_init__(self):
        if not (self.cf_pf > 0):
            raise InvalidArgumentError("cf_pf must be positive")
        if not (self.cq_pf > 0):
            raise InvalidArgumentError("cq_pf must be positive")
        if not (-np.pi <= self.phase_rad <= np.pi):
            raise InvalidArgumentError("phase_rad must lie in [-pi, pi]")
        if not np.isfinite(self.amp_db):
            raise InvalidArgumentError("amp_db must be finite")


@dataclass(frozen=True)
class PcbBoardParams:
    """Fixed circuit constants of the PCB BPF board.

    r_f_ohm (center-tank loss) is a configurable guess; the board's matched
    termination fixes r_q_ohm = 50 ohm but the center tank's loss is not
    pinned down by any published measurement.
    """

    l_f_nh: float = 1.65
    l_q_nh: float = 2.85
    r_f_ohm: float = 50.0
    r_q_ohm: float = 50.0
    r_s_ohm: float = 50.0
    beta_l_rad: float = 1.37
    z0_ohm: float = 50.0
    a0_db: float = -4.1
    tau0_s: float = 4.2e-9

    def __post_init__(self):
        for name in ("l_f_nh", "l_q_nh", "r_f_ohm", "r_q_ohm", "r_s_ohm", "z0_ohm"):
            if not (getattr(self, name) > 0):
                raise InvalidArgumentError(f"{name} must be positive")


@dataclass(frozen=True)
class TwoPortMatrix:
    """2x2 ABCD transmission matrix; cascades compose by matrix product.

    Entries may be scalars or equal-shape numpy arrays (one matrix per
    frequency), so a whole grid cascades in one product.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for v in (self.a, self.b, self.c, self.d):
            if not np.all(np.isfinite(v)):
                raise InvalidArgumentError("matrix entries must be finite")

    def __matmul__(self, other: "TwoPortMatrix") -> "TwoPortMatrix":
        return TwoPortMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def det(self) -> complex:
        return self.a * self.d - self.b * self.c


def ideal_tap_response(cfg: IdealTapConfig, grid: FrequencyGrid) -> ComplexResponse:
    """Evaluate one ideal tap on the grid.

    At f = center_hz the denominator is exactly 1, so the value is
    linear(amp_db) * e^{-j phase_rad}.
    """
    f = grid.points
    if np.any(f <= 0):
        raise InvalidArgumentError("ideal tap requires strictly positive frequencies")
    fc = cfg.center_hz
    denom = 1.0 - 1j * cfg.q * (fc / f - f / fc)
    vals = db_to_linear(cfg.amp_db) * np.exp(-1j * cfg.phase_rad) / denom
    return ComplexResponse(grid, vals)


def multi_tap_response(cfgs, grid: FrequencyGrid) -> ComplexResponse:
    """Sum of parallel ideal taps."""
    if not cfgs:
        raise InvalidArgumentError("need at least one tap")
    total = np.zeros(grid.count, dtype=complex)
    for cfg in cfgs:
        total = total + ideal_tap_response(cfg, grid).values
    return ComplexResponse(grid, total)


def tline_matrix(beta_l_rad: float, z0_ohm: float) -> TwoPortMatrix:
    """ABCD matrix of a lossless transmission-line section."""
    if not (z0_ohm > 0):
        raise InvalidArgumentError("z0_ohm must be positive")
    a = np.cos(beta_l_rad)
    b = np.sin(beta_l_rad)
    return TwoPortMatrix(a, 1j * z0_ohm * b, 1j * b / z0_ohm, a)


def shunt_matrix(y: complex) -> TwoPortMatrix:
    """ABCD matrix of a shunt admittance element (y scalar or array)."""
    return TwoPortMatrix(1.0, 0.0, y, 1.0)


def shunt_admittance(r_ohm: float, l_h: float, c_f: float, f_hz: float) -> complex:
    """Admittance of a parallel RLC tank: 1/R + j 2 pi C f + 1/(j 2 pi L f)."""
    if not (f_hz > 0):
        raise InvalidArgumentError("f_hz must be positive")
    if not (r_ohm > 0 and l_h > 0 and c_f > 0):
        raise InvalidArgumentError("R, L, C must be positive")
    w = 2.0 * np.pi * f_hz
    return 1.0 / r_ohm + 1j * w * c_f + 1.0 / (1j * w * l_h)


def _tank_admittances(cfg: PcbTapConfig, params: PcbBoardParams, f: np.ndarray):
    w = 2.0 * np.pi * f
    y_f = (
        1.0 / params.r_f_ohm
        + 1j * w * (cfg.cf_pf * 1e-12)
        + 1.0 / (1j * w * (params.l_f_nh * 1e-9))
    )
    y_q = (
        1.0 / params.r_q_ohm
        + 1j * w * (cfg.cq_pf * 1e-12)
        + 1.0 / (1j * w * (params.l_q_nh * 1e-9))
    )
    return y_f, y_q


def pcb_bpf_response_abcd(
    cfg: PcbTapConfig, params: PcbBoardParams, grid: FrequencyGrid
) -> ComplexResponse:
    """PCB BPF response via the five-matrix ABCD cascade.

    Cascade: [shunt Y_Q] [t-line] [shunt Y_F] [t-line] [shunt Y_Q];
    H(f) = 1 / (R_s * C-entry).  This is the ground-truth evaluation; the
    closed form below must match it.  The cascade is evaluated on the whole
    grid at once, with array-valued matrix entries.
    """
    if np.any(grid.points <= 0):
        raise InvalidArgumentError("PCB BPF requires strictly positive frequencies")
    y_f, y_q = _tank_admittances(cfg, params, grid.points)
    tl = tline_matrix(params.beta_l_rad, params.z0_ohm)
    m = shunt_matrix(y_q) @ tl @ shunt_matrix(y_f) @ tl @ shunt_matrix(y_q)
    bad = m.c == 0
    if np.any(bad):
        raise SingularNetworkError(grid.points[np.argmax(bad)])
    return ComplexResponse(grid, 1.0 / (params.r_s_ohm * m.c))


def pcb_bpf_response_closed_form(
    cfg: PcbTapConfig, params: PcbBoardParams, grid: FrequencyGrid
) -> ComplexResponse:
    """PCB BPF response via the expanded C-entry of the cascade.

    With a = cos(beta*l), s2 = sin(2*beta*l):

        M_C = j s2 Z0 Y_F Y_Q + a^2 Y_F + 2 cos(2 beta l) Y_Q
              + j s2 / Z0 + j s2 Z0 Y_Q^2 - sin^2(beta l) Z0^2 Y_F Y_Q^2

    and H = 1 / (R_s * M_C).  This expansion is algebraically identical to
    the matrix product in pcb_bpf_response_abcd.
    """
    if np.any(grid.points <= 0):
        raise InvalidArgumentError("PCB BPF requires strictly positive frequencies")
    y_f, y_q = _tank_admittances(cfg, params, grid.points)
    bl = params.beta_l_rad
    z0 = params.z0_ohm
    s2 = np.sin(2.0 * bl)
    c2 = np.cos(2.0 * bl)
    cos2 = np.cos(bl) ** 2
    sin2 = np.sin(bl) ** 2
    m_c = (
        1j * s2 * z0 * y_f * y_q
        + cos2 * y_f
        + 2.0 * c2 * y_q
        + 1j * s2 / z0
        + 1j * s2 * z0 * y_q * y_q
        - sin2 * z0 * z0 * y_f * y_q * y_q
    )
    bad = m_c == 0
    if np.any(bad):
        raise SingularNetworkError(grid.points[np.argmax(bad)])
    return ComplexResponse(grid, 1.0 / (params.r_s_ohm * m_c))


def pcb_canceller_response(
    cfgs, params: PcbBoardParams, grid: FrequencyGrid
) -> ComplexResponse:
    """Full PCB canceller: weighted tap sum under a global attenuation/delay.

    H(f) = lin(A_0) e^{-j 2 pi f tau_0} * sum_i lin(A_i) e^{-j phi_i} H_i(f)
    """
    if not cfgs:
        raise InvalidArgumentError("need at least one tap")
    f = grid.points
    total = np.zeros(grid.count, dtype=complex)
    for cfg in cfgs:
        h_bpf = pcb_bpf_response_closed_form(cfg, params, grid).values
        total = total + db_to_linear(cfg.amp_db) * np.exp(-1j * cfg.phase_rad) * h_bpf
    global_factor = db_to_linear(params.a0_db) * np.exp(-2j * np.pi * f * params.tau0_s)
    return ComplexResponse(grid, global_factor * total)
